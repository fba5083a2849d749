//! The metric catalogue: every name the runner prints, with its unit. The
//! same names, units and bounds are declared in `BENCHMARK.json` by hand;
//! `tests/smoke.rs` holds the two together.

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change is rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Regression bound.
    pub bound: f64,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The end-to-end metrics, every one reported by every workload; each
/// value is the median over the run's child processes.
///
/// Bounds are set in `BENCHMARK.json` and derived in BASELINE.md.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", 0.25),
    e2e("throughput_rps", "1/s", 0.25),
    e2e("batch_p50_ms", "ms", 0.25),
    e2e("publish_latency_p50_ms", "ms", 0.25),
    e2e("record_latency_p50_ms", "ms", 0.25),
    e2e("predict_qps", "1/s", 0.25),
    e2e("predict_p50_us", "us", 0.25),
    e2e("peak_rss_mb", "MiB", 0.15),
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, bound }
}

/// A per-layer metric: `crate.module.metric`, unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

/// The per-layer metrics, every one reported by every workload on a traced
/// run (0 where a layer is absent from a workload).
pub const PER_LAYER: [PerLayer; 49] = [
    // Stepped traced run, totals over the fixed work of the timed phase.
    layer("engine.ingest.busy_s", "s"),
    layer("engine.ingest.records", "count"),
    layer("engine.reorder.dropped_late", "count"),
    layer("engine.reorder.dropped_dup", "count"),
    layer("engine.reorder.buffered_max", "count"),
    layer("engine.broadcast.busy_s", "s"),
    layer("engine.broadcast.bytes_per_batch", "B"),
    layer("core.assignment.busy_s", "s"),
    layer("core.assignment.task_cpu_s", "s"),
    layer("core.assignment.skew", "ratio"),
    layer("core.assignment.outlier_share", "ratio"),
    layer("core.local.busy_s", "s"),
    layer("core.local.task_cpu_s", "s"),
    layer("core.local.shuffle_bytes", "B"),
    layer("core.global.busy_s", "s"),
    layer("core.global.created", "count"),
    layer("core.global.premerged_share", "ratio"),
    layer("core.serving.publish_busy_s", "s"),
    layer("core.serving.snapshot_bytes", "B"),
    layer("core.pipeline.serial_share", "ratio"),
    layer("core.pipeline.unmetered_share", "ratio"),
    layer("core.pipelined.overlap_hidden_share", "ratio"),
    layer("trace.reconcile_err", "ratio"),
    layer("trace.overhead", "ratio"),
    // Micro section.
    layer("engine.source.ns_per_record", "ns"),
    layer("engine.reorder.ns_per_record", "ns"),
    layer("engine.batcher.ns_per_record", "ns"),
    layer("engine.partition.group_ns_per_pair", "ns"),
    layer("engine.partition.combine_ns_per_pair", "ns"),
    layer("engine.pool.dispatch_us", "us"),
    layer("engine.codec.encode_mb_s", "MB/s"),
    layer("engine.codec.decode_mb_s", "MB/s"),
    layer("engine.serving.publish_ns", "ns"),
    layer("engine.serving.read_ns", "ns"),
    layer("algorithms.init_s", "s"),
    layer("algorithms.assign_ns_per_record", "ns"),
    layer("algorithms.cf.nearest_ns_per_point", "ns"),
    layer("algorithms.snapshot_us", "us"),
    layer("algorithms.serving.predict_ns", "ns"),
    layer("algorithms.serving.rebuild_us", "us"),
    // Live counts of the untraced reference run.
    layer("algorithms.serving.predicts_total", "count"),
    layer("algorithms.serving.epochs_seen", "count"),
    layer("algorithms.serving.staleness_p95_us", "us"),
    layer("engine.source.generator_lag_p95_ms", "ms"),
    layer("core.pipeline.batches_over_window", "count"),
    // Tails of the reference run: demoted from the end-to-end list, their
    // run-to-run spread (up to 30 % for a p95, 60 % for a p99) is beyond
    // any bound the contract allows.
    layer("core.pipeline.batch_p95_ms", "ms"),
    layer("core.serving.publish_latency_p95_ms", "ms"),
    layer("core.pipeline.record_latency_p99_ms", "ms"),
    layer("algorithms.serving.predict_p99_us", "us"),
];

/// Unit of the metric called `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}
