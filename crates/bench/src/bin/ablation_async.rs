//! **Extension (§VII-D2 future work)** — the asynchronous update protocol:
//! overlap the single-node global update with the next batch's parallel
//! steps, attacking the paper's first scalability bottleneck ("performing
//! the global update step in a single machine"). Compares throughput and
//! quality of the synchronous protocol vs `PipelineOptions::overlap` at
//! p = 32.

use diststream_algorithms::offline::{kmeans, KmeansParams};
use diststream_bench::{
    fmt_f64, print_table, run_throughput, throughput_context, Bundle, Cli, DatasetKind,
    ExecutorKind, Table,
};
use diststream_core::{DistStreamJob, PipelineOptions, StreamClustering};
use diststream_engine::{
    ExecutionMode, RepeatSource, StreamingContext, ThroughputMeter, VecSource,
};
use diststream_quality::{cmm, nearest_assignment_bounded, CmmParams};
use diststream_types::ClusteringConfig;

const PARALLELISM: usize = 32;
const ROUNDS: usize = 10;
const BATCH_SECS: f64 = 10.0;

/// A job on the asynchronous update protocol, everything else at the paper
/// defaults.
fn async_job<'a, A: StreamClustering>(
    algo: &'a A,
    bundle: &Bundle,
    ctx: &'a StreamingContext,
) -> DistStreamJob<'a, A> {
    let config = ClusteringConfig::builder()
        .batch_secs(BATCH_SECS)
        .build()
        .expect("config");
    let mut job = DistStreamJob::new(algo, ctx, config);
    job.init_records(bundle.init_records())
        .pipeline(PipelineOptions {
            overlap: true,
            ..PipelineOptions::sync()
        });
    job
}

/// Runs the asynchronous protocol over `ROUNDS` replays at the stress rate.
fn run_async_throughput<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
    ctx: &StreamingContext,
) -> ThroughputMeter {
    let source = RepeatSource::new(bundle.stress_records(), ROUNDS);
    async_job(algo, bundle, ctx)
        .run_to_end(source)
        .expect("async run")
        .meter
}

/// Average CMM of an async quality run at p = 1 (same methodology as Fig 6).
fn run_async_quality<A: StreamClustering>(algo: &A, bundle: &Bundle) -> f64 {
    let ctx = StreamingContext::new(1, ExecutionMode::Simulated).expect("p=1");
    let records = bundle.quality_records();
    let mut processed = bundle.init_records();
    let mut cmms = Vec::new();
    let params = CmmParams::default();
    async_job(algo, bundle, &ctx)
        .run(VecSource::new(records.clone()), |report| {
            processed += report.outcome.metrics.records;
            let macros = kmeans(
                &algo.snapshot(report.model),
                KmeansParams::new(bundle.kind.clusters()),
            );
            let upto = processed.min(records.len());
            let window = &records[upto.saturating_sub(params.horizon)..upto];
            let assignment =
                nearest_assignment_bounded(window, &macros.centroids, bundle.coverage_bound());
            cmms.push(cmm(window, &assignment, report.window_end, &params).cmm);
        })
        .expect("async run");
    cmms.iter().sum::<f64>() / cmms.len().max(1) as f64
}

fn main() {
    let cli = Cli::parse();
    let _telemetry = diststream_bench::TelemetrySession::from_cli(&cli);
    println!("# Extension — asynchronous update protocol at p = {PARALLELISM}");

    let mut table = Table::new([
        "dataset",
        "sync rec/s",
        "async rec/s",
        "speedup",
        "async avg CMM (p=1)",
    ]);
    for kind in DatasetKind::ALL {
        let records = cli.records_for(20_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        let algo = bundle.clustream();
        let ctx = throughput_context(&bundle, PARALLELISM).expect("context");

        let sync = run_throughput(
            &algo,
            &bundle,
            &ctx,
            ExecutorKind::OrderAware,
            BATCH_SECS,
            ROUNDS,
        )
        .expect("sync run");
        let asynchronous = run_async_throughput(&algo, &bundle, &ctx);
        let quality = run_async_quality(&algo, &bundle);

        table.row([
            format!("large-{}", kind.name()),
            format!("{:.0}", sync.records_per_sec),
            format!("{:.0}", asynchronous.records_per_sec()),
            fmt_f64(asynchronous.records_per_sec() / sync.records_per_sec, 2),
            fmt_f64(quality, 3),
        ]);
    }
    print_table(
        "Hiding the single-node global update behind the parallel steps lifts throughput; quality pays one batch of extra staleness",
        &table,
    );
}
