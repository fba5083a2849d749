//! The four representative stream clustering algorithms of the DistStream
//! evaluation — CluStream, DenStream, D-Stream, and ClusTree — implemented
//! from scratch on the DistStream four-API framework, plus the offline
//! (macro-clustering) phase.
//!
//! | Algorithm | Family | Sketch | Closest-search |
//! |---|---|---|---|
//! | [`CluStream`] | partition-based | CF vector, no decay, relevance deletion | linear centroid scan |
//! | [`DenStream`] | density-based | decayed CF, potential/outlier roles | linear scan, potential first |
//! | [`DStream`] | grid-based | decayed grid densities | O(d) grid mapping |
//! | [`ClusTree`] | hierarchical | decayed CF in a CF-tree | greedy tree descent |
//!
//! All four plug into `diststream_core`'s executors unchanged; the offline
//! phase ([`offline::kmeans`], [`offline::dbscan`]) turns any model's
//! snapshot into macro-clusters.
//!
//! # Examples
//!
//! ```
//! use diststream_algorithms::{CluStream, CluStreamParams};
//! use diststream_algorithms::offline::{kmeans, KmeansParams};
//! use diststream_core::{DistStreamJob, StreamClustering};
//! use diststream_engine::{ExecutionMode, StreamingContext, VecSource};
//! use diststream_types::{ClusteringConfig, Point, Record, Timestamp};
//!
//! let algo = CluStream::new(CluStreamParams { max_micro_clusters: 20, ..Default::default() });
//! let ctx = StreamingContext::new(2, ExecutionMode::Simulated)?;
//! let stream: Vec<Record> = (0..400)
//!     .map(|i| Record::new(i, Point::from(vec![(i % 4) as f64 * 8.0]), Timestamp::from_secs(i as f64 * 0.05)))
//!     .collect();
//! let result = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
//!     .init_records(40)
//!     .run_to_end(VecSource::new(stream))?;
//! // Offline phase: k-means over the final micro-clusters.
//! let macros = kmeans(&algo.snapshot(&result.model), KmeansParams::new(4));
//! assert_eq!(macros.len(), 4);
//! # Ok::<(), diststream_types::DistStreamError>(())
//! ```

#![forbid(unsafe_code)]

mod cf;
mod cftree;
mod clustream;
mod clustree;
mod denstream;
mod dstream;
pub mod offline;
mod serving;

pub use cf::{CentroidKernel, CfVector};
pub use cftree::CfTree;
pub use clustream::{CluStream, CluStreamModel, CluStreamParams};
pub use clustree::{ClusTree, ClusTreeModel, ClusTreeParams};
pub use denstream::{DenStream, DenStreamMc, DenStreamModel, DenStreamParams};
pub use dstream::{DStream, DStreamModel, DStreamParams, GridSketch};
pub use serving::{Prediction, ServingPredictor};
