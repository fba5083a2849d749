//! Synthetic analogs of the DistStream evaluation datasets.
//!
//! The paper evaluates on three real-world datasets (Table I): KDD-99
//! network intrusions, CoverType forest mapping, and KDD-98 charitable
//! donations. This crate generates seeded synthetic streams that match each
//! dataset's *shape* — record count, dimensionality, cluster count, top-3
//! class mass, and the degree of dynamic change — so every quality and
//! throughput experiment exercises the same code paths. See DESIGN.md §1
//! for the substitution rationale.
//!
//! # Examples
//!
//! ```
//! use diststream_datasets::kdd99_like;
//!
//! let dataset = kdd99_like(5_000, 42);
//! let profile = dataset.profile();
//! assert_eq!(profile.clusters, 23);
//! assert_eq!(profile.features, 54);
//! let records = dataset.to_records(1_000.0); // 1K records/s
//! assert_eq!(records.len(), 5_000);
//! ```

#![forbid(unsafe_code)]

mod catalog;
mod normalize;
mod synth;

pub use catalog::{
    covertype_like, instability, kdd98_like, kdd99_like, Dataset, DatasetProfile,
    COVERTYPE_RECORDS, KDD98_RECORDS, KDD99_RECORDS,
};
pub use normalize::{normalize, FeatureStats};
pub use synth::{generate, ClusterSpec, SynthConfig};
