//! Single source of truth for every telemetry name in the workspace.
//!
//! Span names, point-event names, and metric base names used anywhere in
//! DistStream are declared here and nowhere else. Call sites reference the
//! constants (compile-time safety); `cargo xtask analyze` additionally
//! verifies that every string literal reaching `span!`, `emit_point`,
//! [`counter`](crate::counter), [`gauge`](crate::gauge), or
//! [`histogram`](crate::histogram) resolves against this catalog — catching
//! typos in label-formatted names the type system cannot see — and that no
//! catalog entry is dead (declared but never emitted).
//!
//! Conventions:
//!
//! - span and point names are short snake_case phase names (they appear in
//!   the JSONL journal, once per event);
//! - metric names carry the `diststream_` prefix and Prometheus unit
//!   suffixes (`_total` for counters, `_secs` for time);
//! - labels are encoded Prometheus-style into the registered name
//!   (`name{key="value"}`); only the base name (up to `{`) is cataloged.

// --- Span names (open/close pairs in the journal) ---

/// A job's model initialization (`StreamClustering::init` over the leading
/// records) — the one serial phase before the first batch, at most once per
/// job and nested in nothing.
pub const SPAN_INIT: &str = "init";
/// One mini-batch end to end on the driver.
pub const SPAN_BATCH: &str = "batch";
/// Step 1: distance computation / assignment over the stale model.
pub const SPAN_ASSIGNMENT: &str = "assignment";
/// Step 2: order-aware local update (fold records into sketches).
pub const SPAN_LOCAL_UPDATE: &str = "local_update";
/// Step 3: global update on the driver.
pub const SPAN_GLOBAL_UPDATE: &str = "global_update";
/// Inside `global_update`, first: the copy-on-write of the model
/// (`Arc::make_mut`) — a copy of `Q_t` while the broadcast still shares it
/// (the asynchronous protocol), nothing otherwise.
pub const SPAN_GLOBAL_COPY: &str = "global_copy";
/// Step 3a, inside `global_update`: order-aware sort (or seeded shuffle) of
/// the batch's updated and created sketches.
pub const SPAN_GLOBAL_ORDER: &str = "global_order";
/// Step 3b, inside `global_update`: pre-merge of created sketches (§V-C).
pub const SPAN_GLOBAL_PREMERGE: &str = "global_premerge";
/// Step 3c, inside `global_update`: the algorithm's `apply_global`.
pub const SPAN_GLOBAL_APPLY: &str = "global_apply";
/// One parallel task step inside the engine (TaskPool or thread mode).
pub const SPAN_STEP_TASKS: &str = "step_tasks";
/// Background ingest/reorder of the next batch (overlapped pipeline).
pub const SPAN_PREFETCH: &str = "prefetch";
/// A spent batch freed by the prefetch worker that allocated its records.
pub const SPAN_RETIRE: &str = "retire";
/// Durable checkpoint frame write (encode + store persist).
pub const SPAN_CHECKPOINT_WRITE: &str = "checkpoint_write";
/// Checkpoint recovery walk (manifest scan + frame decode).
pub const SPAN_CHECKPOINT_RESTORE: &str = "checkpoint_restore";
/// Synthetic span emitted by the bench crate's telemetry-session self-test.
pub const SPAN_SESSION_TEST: &str = "session_test";
/// Elastic rebalance at a batch boundary (plan + replay + verify).
pub const SPAN_REBALANCE: &str = "rebalance";
/// Serving-snapshot publish at a batch boundary (encode + swap).
pub const SPAN_SNAPSHOT_PUBLISH: &str = "snapshot_publish";

/// Every span name, for this crate's conformance tests.
#[cfg(test)]
const ALL_SPANS: &[&str] = &[
    SPAN_INIT,
    SPAN_BATCH,
    SPAN_ASSIGNMENT,
    SPAN_LOCAL_UPDATE,
    SPAN_GLOBAL_UPDATE,
    SPAN_GLOBAL_COPY,
    SPAN_GLOBAL_ORDER,
    SPAN_GLOBAL_PREMERGE,
    SPAN_GLOBAL_APPLY,
    SPAN_STEP_TASKS,
    SPAN_PREFETCH,
    SPAN_RETIRE,
    SPAN_CHECKPOINT_WRITE,
    SPAN_CHECKPOINT_RESTORE,
    SPAN_SESSION_TEST,
    SPAN_REBALANCE,
    SPAN_SNAPSHOT_PUBLISH,
];

// --- Point-event names (single journal events with numeric fields) ---

/// Per-batch critical-path breakdown emitted once per mini-batch; its
/// fields are `record::BatchRecord`'s field table.
pub const POINT_BATCH_SUMMARY: &str = "batch_summary";
/// Per-batch event-time → model-integration latency percentiles.
pub const POINT_RECORD_LATENCY: &str = "record_latency";
/// One parallel task's effective duration (fields `step`, `index`, `secs`),
/// the raw material for what-if scaling replay in `trace-analyze`.
pub const POINT_TASK_DURATION: &str = "task_duration";
/// Per-batch overload-control summary (seen/kept/shed counts, keep-rate,
/// error bound, backlog, virtual latency) emitted when sampling is active.
pub const POINT_OVERLOAD_SUMMARY: &str = "overload_summary";

/// Every point-event name.
#[cfg(test)]
const ALL_POINTS: &[&str] = &[
    POINT_BATCH_SUMMARY,
    POINT_RECORD_LATENCY,
    POINT_TASK_DURATION,
    POINT_OVERLOAD_SUMMARY,
];

// --- Metric base names (registry counters/gauges/histograms) ---

/// Counter: mini-batches completed.
pub const METRIC_BATCHES_TOTAL: &str = "diststream_batches_total";
/// Counter: records folded into the model.
pub const METRIC_RECORDS_TOTAL: &str = "diststream_records_total";
/// Counter: model-broadcast bytes shipped driver → tasks.
pub const METRIC_BROADCAST_BYTES_TOTAL: &str = "diststream_broadcast_bytes_total";
/// Counter: shuffle bytes shipped between assignment and local update.
pub const METRIC_SHUFFLE_BYTES_TOTAL: &str = "diststream_shuffle_bytes_total";
/// Counter: tasks whose wall time crossed the straggler threshold.
pub const METRIC_STRAGGLER_TASKS_TOTAL: &str = "diststream_straggler_tasks_total";
/// Counter (labels `step`, `task`): straggler culprit attribution.
pub const METRIC_STRAGGLER_CULPRIT_TOTAL: &str = "diststream_straggler_culprit_total";
/// Gauge (label `step`): slowest-task / mean-task skew ratio.
pub const METRIC_STRAGGLER_SKEW_RATIO: &str = "diststream_straggler_skew_ratio";
/// Gauge (label `step`): non-compute fraction of a step's wall time.
pub const METRIC_STEP_OVERHEAD_FRACTION: &str = "diststream_step_overhead_fraction";
/// Histogram: end-to-end seconds per mini-batch.
pub const METRIC_BATCH_TOTAL_SECS: &str = "diststream_batch_total_secs";
/// Counter: tasks re-executed by the retry layer.
pub const METRIC_TASKS_RETRIED_TOTAL: &str = "diststream_tasks_retried_total";
/// Counter: tasks executed by the TaskPool.
pub const METRIC_POOL_TASKS_TOTAL: &str = "diststream_pool_tasks_total";
/// Histogram: per-task wall seconds in the TaskPool.
pub const METRIC_POOL_TASK_SECS: &str = "diststream_pool_task_secs";
/// Gauge: configured mini-batch window seconds.
pub const METRIC_BATCH_WINDOW_SECS: &str = "diststream_batch_window_secs";
/// Histogram: records per mini-batch.
pub const METRIC_BATCH_RECORDS: &str = "diststream_batch_records";
/// Gauge: reorder-buffer depth at release points.
pub const METRIC_REORDER_DEPTH: &str = "diststream_reorder_depth";
/// Histogram: event-time stall seconds in the reorder buffer.
pub const METRIC_REORDER_STALL_SECS: &str = "diststream_reorder_stall_secs";
/// Counter: records dropped for arriving past the lateness bound.
pub const METRIC_REORDER_DROPPED_LATE_TOTAL: &str = "diststream_reorder_dropped_late_total";
/// Counter: duplicate deliveries dropped at the release point.
pub const METRIC_REORDER_DROPPED_DUPLICATE_TOTAL: &str =
    "diststream_reorder_dropped_duplicate_total";
/// Counter: poisoned batches skipped after retry exhaustion.
pub const METRIC_BATCHES_SKIPPED_TOTAL: &str = "diststream_batches_skipped_total";
/// Counter: corrupt checkpoint frames skipped during recovery.
pub const METRIC_CHECKPOINT_FALLBACKS_TOTAL: &str = "diststream_checkpoint_fallbacks_total";
/// Counter: metric registrations rejected for a name/type conflict.
pub(crate) const METRIC_NAME_CONFLICTS_TOTAL: &str = "diststream_telemetry_name_conflicts_total";
/// Histogram: event-time to model-integration latency per record, seconds.
pub const METRIC_RECORD_LATENCY_SECS: &str = "diststream_record_latency_secs";
/// Counter: journal events lost to a missing sink or swallowed write errors.
pub(crate) const METRIC_JOURNAL_EVENTS_DROPPED_TOTAL: &str =
    "diststream_journal_events_dropped_total";
/// Counter: elastic rebalances executed at batch boundaries.
pub const METRIC_REBALANCE_TOTAL: &str = "diststream_rebalance_total";
/// Counter: checkpoint bytes replayed to verify an elastic rebalance.
pub const METRIC_REBALANCE_REPLAYED_BYTES_TOTAL: &str = "diststream_rebalance_replayed_bytes_total";
/// Counter: elastic rebalances rolled back after a mid-resize failure.
pub const METRIC_REBALANCE_ROLLBACKS_TOTAL: &str = "diststream_rebalance_rollbacks_total";
/// Counter: records offered to the stratified sampler.
pub const METRIC_SAMPLER_SEEN_TOTAL: &str = "diststream_sampler_seen_total";
/// Counter: records kept by the stratified sampler.
pub const METRIC_SAMPLER_KEPT_TOTAL: &str = "diststream_sampler_kept_total";
/// Counter: records shed by the stratified sampler.
pub const METRIC_SAMPLER_SHED_TOTAL: &str = "diststream_sampler_shed_total";
/// Gauge: current global sampler keep-rate, parts-per-million.
pub const METRIC_SAMPLER_RATE_PPM: &str = "diststream_sampler_rate_ppm";
/// Gauge: worst-case 95% Horvitz-Thompson error bound of the kept sample.
pub const METRIC_SAMPLER_ERROR_BOUND: &str = "diststream_sampler_error_bound";
/// Gauge: backpressure-modeled backlog, records queued beyond capacity.
pub const METRIC_BACKPRESSURE_BACKLOG_RECORDS: &str = "diststream_backpressure_backlog_records";
/// Gauge: virtual latency of the next record under the service model.
pub const METRIC_BACKPRESSURE_VIRTUAL_LATENCY_SECS: &str =
    "diststream_backpressure_virtual_latency_secs";
/// Counter: serving snapshots published at batch boundaries.
pub const METRIC_SERVING_PUBLISHES_TOTAL: &str = "diststream_serving_publishes_total";
/// Counter: nearest-cluster predicts answered from serving snapshots.
pub const METRIC_SERVING_PREDICTS_TOTAL: &str = "diststream_serving_predicts_total";
/// Gauge: epoch (batch index) of the latest published serving snapshot.
pub const METRIC_SERVING_EPOCH: &str = "diststream_serving_epoch";
/// Counter: DenStream absorption tests the closed-form screen could not
/// decide and the full per-dimension radius sum answered.
pub const METRIC_DENSTREAM_RADIUS_EXACT_TOTAL: &str = "diststream_denstream_radius_exact_total";
/// Counter: microseconds the driver waited for the prefetch worker to stage
/// its next batch (registered at zero by every traced prefetching run).
pub const METRIC_PREFETCH_DRIVER_WAIT_US_TOTAL: &str = "diststream_prefetch_driver_wait_us_total";
/// Counter: microseconds the prefetch worker waited for the driver to take a
/// staged batch (registered at zero by every traced prefetching run).
pub const METRIC_PREFETCH_WORKER_WAIT_US_TOTAL: &str = "diststream_prefetch_worker_wait_us_total";

/// Every metric base name.
#[cfg(test)]
const ALL_METRICS: &[&str] = &[
    METRIC_BATCHES_TOTAL,
    METRIC_RECORDS_TOTAL,
    METRIC_BROADCAST_BYTES_TOTAL,
    METRIC_SHUFFLE_BYTES_TOTAL,
    METRIC_STRAGGLER_TASKS_TOTAL,
    METRIC_STRAGGLER_CULPRIT_TOTAL,
    METRIC_STRAGGLER_SKEW_RATIO,
    METRIC_STEP_OVERHEAD_FRACTION,
    METRIC_BATCH_TOTAL_SECS,
    METRIC_TASKS_RETRIED_TOTAL,
    METRIC_POOL_TASKS_TOTAL,
    METRIC_POOL_TASK_SECS,
    METRIC_BATCH_WINDOW_SECS,
    METRIC_BATCH_RECORDS,
    METRIC_REORDER_DEPTH,
    METRIC_REORDER_STALL_SECS,
    METRIC_REORDER_DROPPED_LATE_TOTAL,
    METRIC_REORDER_DROPPED_DUPLICATE_TOTAL,
    METRIC_BATCHES_SKIPPED_TOTAL,
    METRIC_CHECKPOINT_FALLBACKS_TOTAL,
    METRIC_NAME_CONFLICTS_TOTAL,
    METRIC_RECORD_LATENCY_SECS,
    METRIC_JOURNAL_EVENTS_DROPPED_TOTAL,
    METRIC_REBALANCE_TOTAL,
    METRIC_REBALANCE_REPLAYED_BYTES_TOTAL,
    METRIC_REBALANCE_ROLLBACKS_TOTAL,
    METRIC_SAMPLER_SEEN_TOTAL,
    METRIC_SAMPLER_KEPT_TOTAL,
    METRIC_SAMPLER_SHED_TOTAL,
    METRIC_SAMPLER_RATE_PPM,
    METRIC_SAMPLER_ERROR_BOUND,
    METRIC_BACKPRESSURE_BACKLOG_RECORDS,
    METRIC_BACKPRESSURE_VIRTUAL_LATENCY_SECS,
    METRIC_SERVING_PUBLISHES_TOTAL,
    METRIC_SERVING_PREDICTS_TOTAL,
    METRIC_SERVING_EPOCH,
    METRIC_DENSTREAM_RADIUS_EXACT_TOTAL,
    METRIC_PREFETCH_DRIVER_WAIT_US_TOTAL,
    METRIC_PREFETCH_WORKER_WAIT_US_TOTAL,
];

/// Prometheus `# HELP` text per metric base name. The doc comments above are
/// the source of truth for humans; this table mirrors them at runtime so the
/// exposition endpoint can emit `# HELP` lines (doc comments are not
/// available to the compiled binary). A test below pins full coverage.
pub(crate) const METRIC_HELP: &[(&str, &str)] = &[
    (METRIC_BATCHES_TOTAL, "Mini-batches completed"),
    (METRIC_RECORDS_TOTAL, "Records folded into the model"),
    (
        METRIC_BROADCAST_BYTES_TOTAL,
        "Model-broadcast bytes shipped driver to tasks",
    ),
    (
        METRIC_SHUFFLE_BYTES_TOTAL,
        "Shuffle bytes shipped between assignment and local update",
    ),
    (
        METRIC_STRAGGLER_TASKS_TOTAL,
        "Tasks whose wall time crossed the straggler threshold",
    ),
    (
        METRIC_STRAGGLER_CULPRIT_TOTAL,
        "Straggler culprit attribution by step and task",
    ),
    (
        METRIC_STRAGGLER_SKEW_RATIO,
        "Slowest-task / mean-task skew ratio per step",
    ),
    (
        METRIC_STEP_OVERHEAD_FRACTION,
        "Non-compute fraction of a step's wall time",
    ),
    (METRIC_BATCH_TOTAL_SECS, "End-to-end seconds per mini-batch"),
    (
        METRIC_TASKS_RETRIED_TOTAL,
        "Tasks re-executed by the retry layer",
    ),
    (METRIC_POOL_TASKS_TOTAL, "Tasks executed by the TaskPool"),
    (
        METRIC_POOL_TASK_SECS,
        "Per-task wall seconds in the TaskPool",
    ),
    (
        METRIC_BATCH_WINDOW_SECS,
        "Configured mini-batch window seconds",
    ),
    (METRIC_BATCH_RECORDS, "Records per mini-batch"),
    (
        METRIC_REORDER_DEPTH,
        "Reorder-buffer depth at release points",
    ),
    (
        METRIC_REORDER_STALL_SECS,
        "Event-time stall seconds in the reorder buffer",
    ),
    (
        METRIC_REORDER_DROPPED_LATE_TOTAL,
        "Records dropped for arriving past the lateness bound",
    ),
    (
        METRIC_REORDER_DROPPED_DUPLICATE_TOTAL,
        "Duplicate deliveries dropped at the release point",
    ),
    (
        METRIC_BATCHES_SKIPPED_TOTAL,
        "Poisoned batches skipped after retry exhaustion",
    ),
    (
        METRIC_CHECKPOINT_FALLBACKS_TOTAL,
        "Corrupt checkpoint frames skipped during recovery",
    ),
    (
        METRIC_NAME_CONFLICTS_TOTAL,
        "Metric registrations rejected for a name/type conflict",
    ),
    (
        METRIC_RECORD_LATENCY_SECS,
        "Event-time to model-integration latency per record in seconds",
    ),
    (
        METRIC_JOURNAL_EVENTS_DROPPED_TOTAL,
        "Journal events lost to a missing sink or swallowed write errors",
    ),
    (
        METRIC_REBALANCE_TOTAL,
        "Elastic rebalances executed at batch boundaries",
    ),
    (
        METRIC_REBALANCE_REPLAYED_BYTES_TOTAL,
        "Checkpoint bytes replayed to verify an elastic rebalance",
    ),
    (
        METRIC_REBALANCE_ROLLBACKS_TOTAL,
        "Elastic rebalances rolled back after a mid-resize failure",
    ),
    (
        METRIC_SAMPLER_SEEN_TOTAL,
        "Records offered to the stratified sampler",
    ),
    (
        METRIC_SAMPLER_KEPT_TOTAL,
        "Records kept by the stratified sampler",
    ),
    (
        METRIC_SAMPLER_SHED_TOTAL,
        "Records shed by the stratified sampler",
    ),
    (
        METRIC_SAMPLER_RATE_PPM,
        "Current global sampler keep-rate in parts-per-million",
    ),
    (
        METRIC_SAMPLER_ERROR_BOUND,
        "Worst-case 95% Horvitz-Thompson error bound of the kept sample",
    ),
    (
        METRIC_BACKPRESSURE_BACKLOG_RECORDS,
        "Backpressure-modeled backlog in records queued beyond capacity",
    ),
    (
        METRIC_BACKPRESSURE_VIRTUAL_LATENCY_SECS,
        "Virtual latency of the next record under the service model",
    ),
    (
        METRIC_SERVING_PUBLISHES_TOTAL,
        "Serving snapshots published at batch boundaries",
    ),
    (
        METRIC_SERVING_PREDICTS_TOTAL,
        "Nearest-cluster predicts answered from serving snapshots",
    ),
    (
        METRIC_SERVING_EPOCH,
        "Epoch of the latest published serving snapshot",
    ),
    (
        METRIC_DENSTREAM_RADIUS_EXACT_TOTAL,
        "DenStream absorption tests decided by the full radius sum",
    ),
    (
        METRIC_PREFETCH_DRIVER_WAIT_US_TOTAL,
        "Microseconds the driver waited for a staged batch",
    ),
    (
        METRIC_PREFETCH_WORKER_WAIT_US_TOTAL,
        "Microseconds the prefetch worker waited to hand a batch over",
    ),
];

/// `# HELP` text for `name` — with any `{label="…"}` suffix stripped —
/// when the base name is cataloged.
pub fn help(name: &str) -> Option<&'static str> {
    let base = match name.find('{') {
        Some(idx) => &name[..idx],
        None => name,
    };
    METRIC_HELP
        .iter()
        .find(|(metric, _)| *metric == base)
        .map(|(_, text)| *text)
}

/// Whether `name` is a cataloged span name.
#[cfg(test)]
fn is_span(name: &str) -> bool {
    ALL_SPANS.contains(&name)
}

/// Whether `name` is a cataloged point-event name.
#[cfg(test)]
fn is_point(name: &str) -> bool {
    ALL_POINTS.contains(&name)
}

/// Whether `name` — with any `{label="…"}` suffix stripped — is a cataloged
/// metric base name.
#[cfg(test)]
fn is_metric(name: &str) -> bool {
    let base = match name.find('{') {
        Some(idx) => &name[..idx],
        None => name,
    };
    ALL_METRICS.contains(&base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_are_duplicate_free_and_sorted_membership_works() {
        for list in [ALL_SPANS, ALL_POINTS, ALL_METRICS] {
            let mut seen = std::collections::BTreeSet::new();
            for name in list {
                assert!(seen.insert(*name), "duplicate catalog entry {name:?}");
            }
        }
        assert!(is_span("batch"));
        assert!(!is_span("diststream_batches_total"));
        assert!(is_point("batch_summary"));
        assert!(is_metric("diststream_batches_total"));
        assert!(!is_metric("batch"));
    }

    #[test]
    fn metric_names_follow_conventions() {
        for name in ALL_METRICS {
            assert!(
                name.starts_with("diststream_"),
                "{name:?} lacks the diststream_ prefix"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name:?} has non-snake_case characters"
            );
        }
        for name in ALL_SPANS.iter().chain(ALL_POINTS) {
            assert!(
                !name.starts_with("diststream_"),
                "span/point {name:?} must not carry the metric prefix"
            );
        }
    }

    #[test]
    fn labeled_names_resolve_to_base() {
        assert!(is_metric(
            "diststream_straggler_culprit_total{step=\"assignment\",task=\"3\"}"
        ));
        assert!(!is_metric(
            "diststream_straggler_culprit_totale{step=\"x\"}"
        ));
    }

    #[test]
    fn every_metric_has_help_and_no_stray_help_entries() {
        for name in ALL_METRICS {
            let text = help(name).unwrap_or_else(|| panic!("{name:?} lacks # HELP text"));
            assert!(!text.is_empty(), "{name:?} has empty # HELP text");
            assert!(
                !text.contains('\n') && !text.contains('\\'),
                "{name:?} help needs no exposition escaping by construction"
            );
        }
        for (name, _) in METRIC_HELP {
            assert!(is_metric(name), "help entry {name:?} is not cataloged");
        }
        assert_eq!(help("no_such_metric"), None);
        // Labeled lookups resolve through the base name.
        assert_eq!(
            help("diststream_straggler_culprit_total{step=\"assignment\",task=\"3\"}"),
            help("diststream_straggler_culprit_total")
        );
    }
}
