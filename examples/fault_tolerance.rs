//! Driver fault tolerance: checkpoint, crash, recover, continue.
//!
//! The paper inherits fault tolerance from Spark Streaming (§VI); this
//! repository's substrate provides the same guarantee through periodic
//! binary-codec checkpoints plus a write-ahead replay log. This example
//! processes a stream, "crashes" the driver mid-stream, recovers from the
//! last checkpoint + log, and shows the recovered model is identical to the
//! lost one.
//!
//! ```sh
//! cargo run --example fault_tolerance --release
//! ```

use diststream::algorithms::{CluStream, CluStreamParams};
use diststream::core::{CheckpointingDriver, StreamClustering};
use diststream::datasets::covertype_like;
use diststream::engine::{ExecutionMode, MiniBatcher, StreamingContext, VecSource};
use diststream::types::DistStreamError;

fn main() -> Result<(), DistStreamError> {
    let dataset = covertype_like(8000, 21);
    let records = dataset.to_records(40.0);
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        premerge_distance: 0.5 * dataset.mean_intra_distance(),
        ..Default::default()
    });
    let ctx = StreamingContext::new(4, ExecutionMode::Simulated)?;

    let model = algo.init(&records[..300])?;
    let mut driver = CheckpointingDriver::new(&algo, &ctx, model, 3)?; // checkpoint every 3 batches

    let mut crashed_at = None;
    for (i, batch) in MiniBatcher::new(VecSource::new(records[300..].to_vec()), 10.0).enumerate() {
        driver.process_batch(batch)?;
        println!(
            "batch {:>2}: {:>3} micro-clusters | checkpoint @ batch {:>2} ({} bytes) | replay log {} batches",
            i,
            driver.model().len(),
            driver.checkpoint().batch_index,
            driver.checkpoint().len(),
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
