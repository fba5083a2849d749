//! Prints the FNV-1a digest of the encoded final model for every
//! `(algorithm, pipeline, parallelism)` cell of the matrix workload.
//!
//! The digest table is the replay/bit-identity gate for kernel work: any
//! change to the distance kernel must leave every digest unchanged across
//! every degree of the matrix and both pipelines, which this makes a
//! one-command check (`--records` / `--rounds` / `--seed` as for `matrix`).
//! Four more rows pin `matrix`'s overload scenario — the sampled CluStream
//! model under both protocols at p ∈ {1, 4} — so the shed decisions are
//! held byte for byte too:
//!
//! ```text
//! cargo run --release -p diststream-bench --bin repro -- digest
//! ```

use diststream_core::{DistStreamJob, PipelineOptions, StreamClustering};
use diststream_engine::{encode, fnv1a_hash, ExecutionMode, RepeatSource, StreamingContext};
use diststream_types::{ClusteringConfig, Result};

use crate::bundle::Bundle;
use crate::cli::Cli;
use crate::matrix::{
    four_algorithms, Workload, BATCH_SECS, PARALLELISMS, PIPELINE_OVERLAPPED, PIPELINE_SYNC,
};
use crate::overload::overload_digest;

fn digest_one<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
    p: usize,
    rounds: usize,
    options: PipelineOptions,
) -> Result<(String, u64)> {
    let ctx = StreamingContext::new(p, ExecutionMode::Simulated)?;
    let config = ClusteringConfig::builder().batch_secs(BATCH_SECS).build()?;
    let mut job = DistStreamJob::new(algo, &ctx, config);
    job.init_records(bundle.init_records()).pipeline(options);
    let result = job.run_to_end(RepeatSource::new(bundle.stress_records(), rounds))?;
    Ok((algo.name().to_string(), fnv1a_hash(&encode(&result.model))))
}

pub(crate) fn digest(cli: &Cli) -> Result<bool> {
    let workload = Workload::from_cli(cli);
    let bundle = workload.bundle();
    let pipelines = [
        (PIPELINE_SYNC, PipelineOptions::sync()),
        (PIPELINE_OVERLAPPED, PipelineOptions::all()),
    ];
    println!(
        "# model digests — {} records x {} rounds, seed {}",
        workload.records, workload.rounds, workload.seed
    );
    for &p in &PARALLELISMS {
        for &(label, options) in &pipelines {
            let cells = four_algorithms!(&bundle, |algo| digest_one(
                algo,
                &bundle,
                p,
                workload.rounds,
                options
            ));
            for cell in cells {
                let (algo, digest) = cell?;
                println!("{algo}\t{label}\tp={p}\t{digest:016x}");
            }
        }
    }
    // `repro matrix`'s overload scenario: the sampled CluStream model.
    for p in [1, 4] {
        for &(label, options) in &pipelines {
            let digest = overload_digest(&bundle, p, options)?;
            println!("clustream\t{label}+overload\tp={p}\t{digest:016x}");
        }
    }
    Ok(true)
}
