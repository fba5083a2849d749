//! The repository's wall-clock benchmark: four workloads driven through
//! `DistStreamJob::run` on real threads, from generated record to published
//! `ServingSnapshot`, timed from outside; a stepped traced pass and a micro
//! section give the per-layer numbers. See `README.md`.

#![forbid(unsafe_code)]

pub mod cli;
pub mod harness;
pub mod loadgen;
pub mod metrics;
pub mod micro;
pub mod result;
pub mod run;
pub mod series;
pub mod stats;
pub mod stepped;
pub mod workloads;
