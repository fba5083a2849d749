//! Quickstart: cluster a synthetic evolving stream with DistStream-CluStream
//! in a few lines.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

use diststream::algorithms::offline::{kmeans, KmeansParams};
use diststream::algorithms::{CluStream, CluStreamParams};
use diststream::core::{DistStreamJob, StreamClustering};
use diststream::engine::{ExecutionMode, StreamingContext, VecSource};
use diststream::types::{ClusteringConfig, DistStreamError, Point, Record, Timestamp};

fn main() -> Result<(), DistStreamError> {
    // A little stream: four well-separated 2-D clusters, 20 records/s.
    let records: Vec<Record> = (0..2000)
        .map(|i| {
            let cluster = (i % 4) as f64;
            let jitter = ((i * 2654435761 % 1000) as f64 / 1000.0 - 0.5) * 0.8;
            Record::new(
                i,
                Point::from(vec![cluster * 5.0 + jitter, cluster * -3.0 + jitter]),
                Timestamp::from_secs(i as f64 / 20.0),
            )
        })
        .collect();

    // The algorithm: CluStream with a budget of 40 micro-clusters.
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 40,
        ..Default::default()
    });

    // The cluster: 4 task slots, run on one thread and timed as 4 idle slots
    // would run them.
    let ctx = StreamingContext::new(4, ExecutionMode::Simulated)?;

    // Online phase: mini-batches of 10 virtual seconds, order-aware updates.
    let result = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
        .init_records(100)
        .run(VecSource::new(records), |report| {
            println!(
                "batch {:>2} @ {:>5.0}s: {:>4} records, {} micro-clusters, {} outliers",
                report.batch_index,
                report.window_end.secs(),
                report.outcome.metrics.records,
                report.model.len(),
                report.outcome.outlier_records,
            );
        })?;

    // Offline phase: k-means over the micro-cluster snapshot.
    let macros = kmeans(&algo.snapshot(&result.model), KmeansParams::new(4));
    println!("\nfinal macro-clusters:");
    for (i, c) in macros.centroids.iter().enumerate() {
        println!("  cluster {i}: centroid {c:?}");
    }
    println!(
        "\nprocessed {} records at {:.0} records/s (4 simulated slots)",
        result.meter.records(),
        result.meter.records_per_sec()
    );
    Ok(())
}
