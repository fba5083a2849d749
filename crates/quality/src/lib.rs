//! Stream clustering quality metrics for the DistStream evaluation.
//!
//! The centerpiece is [`cmm`] — the Clustering Mapping Measure the paper
//! uses for all quality numbers (Figure 6, §VII-B) — plus the batch metrics
//! it is contrasted with (SSQ, purity) and the helper that turns
//! offline macro-cluster centroids into per-record assignments.
//!
//! # Examples
//!
//! ```
//! use diststream_quality::{cmm, nearest_assignment, CmmParams};
//! use diststream_types::{ClassId, Point, Record, Timestamp};
//!
//! // Recent records with ground truth...
//! let records: Vec<Record> = (0..20)
//!     .map(|i| {
//!         let class = (i % 2) as u32;
//!         Record::labeled(i, Point::from(vec![class as f64 * 8.0]),
//!                         Timestamp::from_secs(i as f64), ClassId(class))
//!     })
//!     .collect();
//! // ...scored against the clustering's macro-centroids.
//! let centroids = vec![Point::from(vec![0.0]), Point::from(vec![8.0])];
//! let assignment = nearest_assignment(&records, &centroids);
//! let score = cmm(&records, &assignment, Timestamp::from_secs(20.0), &CmmParams::default());
//! assert_eq!(score.cmm, 1.0);
//! ```

#![forbid(unsafe_code)]

mod batch_metrics;
mod cmm;

pub use batch_metrics::{
    nearest_assignment, nearest_assignment_bounded, purity, purity_with_coverage, ssq,
    CoverageScore,
};
pub use cmm::{cmm, CmmBreakdown, CmmParams};
