//! Driver fault tolerance: checkpoint, crash, recover, continue.
//!
//! The paper inherits fault tolerance from Spark Streaming (§VI); this
//! repository's substrate provides the same guarantee through periodic
//! binary-codec checkpoints plus a write-ahead replay log — boundary steps
//! of the one `DistStreamJob` driver, so they work on any pipeline (here the
//! fully overlapped one). This example steps a stream through a job session,
//! "crashes" the driver mid-stream, recovers from the last checkpoint + log,
//! and shows the recovered model is identical to the lost one.
//!
//! ```sh
//! cargo run --example fault_tolerance --release
//! ```

use diststream::algorithms::{CluStream, CluStreamParams};
use diststream::core::{DistStreamJob, MemoryCheckpointStore, PipelineOptions, StreamClustering};
use diststream::datasets::covertype_like;
use diststream::engine::{ExecutionMode, MiniBatcher, StreamingContext, VecSource};
use diststream::types::{ClusteringConfig, DistStreamError};

fn main() -> Result<(), DistStreamError> {
    let dataset = covertype_like(8000, 21);
    let records = dataset.to_records(40.0);
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        premerge_distance: 0.5 * dataset.mean_intra_distance(),
        ..Default::default()
    });
    let ctx = StreamingContext::new(4, ExecutionMode::Simulated)?;

    let mut job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
    job.pipeline(PipelineOptions::all())
        .checkpoint_store(Box::new(MemoryCheckpointStore::new(2)?))
        .checkpoint_every(3);
    let mut driver = job.start(algo.init(&records[..300])?)?;

    let mut crashed_at = None;
    for (i, batch) in MiniBatcher::new(VecSource::new(records[300..].to_vec()), 10.0).enumerate() {
        driver.step(batch)?;
        let newest = job.store().manifest().first().copied();
        println!(
            "batch {:>2}: {:>3} micro-clusters | newest checkpoint cursor {:>2} | replay log {} batches",
            i,
            driver.model().len(),
            newest.unwrap_or(0),
            driver.replay_log_len(),
        );
        if i == 7 {
            crashed_at = Some(driver.model().clone());
            break; // 💥 the driver process dies here
        }
    }

    println!("\n-- driver crashed; restarting from checkpoint + replay log --\n");
    let recovered = driver.recover()?;
    let lost = crashed_at.expect("crash point recorded");
    assert_eq!(recovered, lost, "recovery must reproduce the lost model");
    println!(
        "recovered model: {} micro-clusters — identical to the state lost in the crash",
        recovered.len()
    );
    Ok(())
}
