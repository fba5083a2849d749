//! The experiment harness of the DistStream reproduction, behind one
//! binary: `repro <subcommand>` ([`repro`]).
//!
//! Every table and figure of the paper, the ablations, the modeled matrix
//! and the tools are subcommands built on the pieces here: dataset bundles
//! with dataset-tuned algorithm parameters, a generic quality runner (CMM
//! at every batch end, as §VII-B1 prescribes), a generic throughput runner
//! over the simulated cluster, and plain-text table printers. `repro all`
//! rewrites every committed `results/*.txt`. Wall-clock timing of the
//! layers is `benchmark/`'s alone.

#![forbid(unsafe_code)]

mod bundle;
mod cli;
mod cluster;
mod experiments;
mod matrix;
mod overload;
mod report;
mod repro;
mod runner;
mod serving;
mod trace;

pub use repro::repro;
