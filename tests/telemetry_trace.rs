//! Trace-journal integrity tests: the guarantees `xtask check-trace`
//! enforces on journal files, verified in-process against the in-memory
//! capture sink.
//!
//! Telemetry state is process-global (one enable flag, one journal sink),
//! so every test serializes on a lock. Each integration-test file is its
//! own binary, so nothing outside this file can interleave.

use std::collections::BTreeMap;
use std::sync::Mutex;

use diststream::algorithms::{CluStream, CluStreamParams, DenStream, DenStreamParams};
use diststream::core::{DistStreamJob, PipelineOptions};
use diststream::datasets::{covertype_like, kdd98_like};
use diststream::engine::{ExecutionMode, StreamingContext, VecSource};
use diststream::telemetry::{self, Event, EventKind};
use diststream::types::{ClusteringConfig, Record};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn records() -> Vec<Record> {
    covertype_like(2000, 5).to_records(50.0)
}

/// Runs a full traced job at the given parallelism and returns every
/// journal event the run produced.
fn run_traced(threads: usize) -> Vec<Event> {
    telemetry::set_journal_capture();
    telemetry::set_enabled(true);
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    let ctx = StreamingContext::new(threads, ExecutionMode::Threads).expect("context");
    DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
        .init_records(150)
        .run_to_end(VecSource::new(records()))
        .expect("job");
    // The pipeline drains at every batch barrier; one more drain collects
    // anything recorded after the last batch.
    telemetry::barrier_drain();
    telemetry::set_enabled(false);
    telemetry::close_journal()
}

#[test]
fn every_open_span_closes_and_nests_lifo_per_thread() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let events = run_traced(4);
    assert!(!events.is_empty(), "traced run recorded no events");

    // Per-thread replay: (last seq, stack of open (name, depth)).
    type ThreadState = (Option<u64>, Vec<(&'static str, u16)>);
    let mut threads: BTreeMap<u64, ThreadState> = BTreeMap::new();
    for event in &events {
        let (last_seq, stack) = threads.entry(event.thread).or_default();
        if let Some(last) = *last_seq {
            assert!(
                event.seq > last,
                "seq {} not after {last} on thread {}",
                event.seq,
                event.thread
            );
        }
        *last_seq = Some(event.seq);
        match event.kind {
            EventKind::Open => {
                assert_eq!(
                    usize::from(event.depth),
                    stack.len(),
                    "open `{}` depth disagrees with the thread's open-span count",
                    event.name
                );
                stack.push((event.name, event.depth));
            }
            EventKind::Close => {
                let (open_name, open_depth) = stack
                    .pop()
                    .unwrap_or_else(|| panic!("close `{}` with no open span", event.name));
                assert_eq!(
                    (event.name, event.depth),
                    (open_name, open_depth),
                    "close does not match the innermost open span"
                );
            }
            EventKind::Point => {}
        }
    }
    for (thread, (_, stack)) in &threads {
        assert!(
            stack.is_empty(),
            "thread {thread} ended with unclosed spans: {stack:?}"
        );
    }

    // The engine's driver-side spans all show up.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == EventKind::Open)
        .map(|e| e.name)
        .collect();
    for expected in [
        "batch",
        "assignment",
        "local_update",
        "global_update",
        "global_copy",
        "global_order",
        "global_premerge",
        "global_apply",
        "step_tasks",
    ] {
        assert!(
            names.contains(&expected),
            "no `{expected}` span in the journal"
        );
    }
}

/// Spans are driver-side only, so the journal's span multiset must not
/// depend on the parallelism degree — `threads = 1` and `threads = 4`
/// record exactly the same spans for the same stream.
#[test]
fn span_multiset_is_parallelism_invariant() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let multiset = |events: &[Event]| -> Vec<(&'static str, Option<u64>, Option<u64>)> {
        let mut spans: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Open)
            .map(|e| (e.name, e.batch, e.task))
            .collect();
        spans.sort_unstable();
        spans
    };
    let serial = multiset(&run_traced(1));
    let parallel = multiset(&run_traced(4));
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "span multiset changed with the parallelism degree"
    );
}

/// Set-up is in the journal: every run, at every p, opens exactly one
/// `init` span, with nothing open around it, on the thread that then runs
/// the batches, and closes it before the first batch opens.
#[test]
fn each_run_records_one_init_span_before_its_first_batch() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2, 4] {
        let events = run_traced(threads);
        let find = |kind: EventKind, name: &str| {
            let mut hits = events.iter().filter(|e| e.kind == kind && e.name == name);
            (hits.next(), hits.count())
        };
        let (Some(open), 0) = find(EventKind::Open, telemetry::names::SPAN_INIT) else {
            panic!("p = {threads}: not exactly one `init` span");
        };
        let (Some(close), 0) = find(EventKind::Close, telemetry::names::SPAN_INIT) else {
            panic!("p = {threads}: `init` not closed exactly once");
        };
        let (Some(batch), _) = find(EventKind::Open, telemetry::names::SPAN_BATCH) else {
            panic!("p = {threads}: no batch");
        };
        assert_eq!(open.depth, 0, "p = {threads}: `init` nested in a span");
        assert_eq!((close.thread, batch.thread), (open.thread, open.thread));
        assert!(
            close.seq < batch.seq,
            "p = {threads}: a batch opened before set-up closed"
        );
    }
}

/// Point events (batch summaries) are also parallelism-invariant, and
/// every batch gets exactly one.
#[test]
fn each_batch_records_one_summary_point() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let events = run_traced(4);
    let batch_opens = events
        .iter()
        .filter(|e| e.kind == EventKind::Open && e.name == "batch")
        .count();
    let summaries: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Point && e.name == "batch_summary")
        .collect();
    assert!(batch_opens > 0);
    assert_eq!(summaries.len(), batch_opens, "one summary per batch");
    for summary in summaries {
        let field = |key: &str| -> f64 {
            summary
                .fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("batch_summary lacks `{key}`"))
        };
        // The same reconciliation xtask check-trace applies to files.
        let expected = telemetry::time_model::batch_critical_path(
            field("assignment_secs") + field("local_secs"),
            field("global_secs"),
            field("async_overlap") != 0.0,
        )
        .secs;
        let total = field("total_secs");
        assert!(
            (expected - total).abs() <= telemetry::time_model::reconcile_tolerance(total),
            "critical path {expected} does not reconcile with total {total}"
        );
        // The driver's own record handling rides along as wall-side
        // context: measured (so never negative), and outside the
        // reconciled critical path above.
        for key in ["assign_driver_secs", "local_driver_secs"] {
            let secs = field(key);
            assert!(secs.is_finite() && secs >= 0.0, "{key} = {secs}");
        }
    }
}

/// "What did the kernel decide": a traced DenStream run registers the
/// counter of absorption tests its closed-form radius screen left to the
/// full per-dimension sum — at zero if there were none, so the exposition
/// always answers — and on a clustered stream that is a vanishing share of
/// the records.
#[test]
fn traced_denstream_registers_its_exact_radius_counter() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let name = telemetry::names::METRIC_DENSTREAM_RADIUS_EXACT_TOTAL;
    let dataset = kdd98_like(3000, 5);
    let algo = DenStream::new(DenStreamParams {
        eps: 0.5 * dataset.mean_intra_distance(),
        ..Default::default()
    });
    let run = |records: Vec<Record>| {
        let ctx = StreamingContext::new(2, ExecutionMode::Threads).expect("context");
        DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
            .init_records(150)
            .run_to_end(VecSource::new(records))
            .expect("job");
    };
    // Untraced: the searcher touches no counter, registered or not.
    let before = telemetry::counter(name).get();
    run(dataset.to_records(50.0));
    assert_eq!(telemetry::counter(name).get(), before);

    telemetry::metrics::reset();
    assert!(!telemetry::expose().contains(name));
    telemetry::set_journal_capture();
    telemetry::set_enabled(true);
    run(dataset.to_records(50.0));
    telemetry::barrier_drain();
    telemetry::set_enabled(false);
    telemetry::close_journal();
    assert!(
        telemetry::expose().contains(name),
        "a traced DenStream run did not register {name}"
    );
    let exact = telemetry::counter(name).get();
    assert!(
        exact * 1000 < 3000,
        "{exact} exact radius sums for 3000 records"
    );
}

/// "Which side of the prefetch channel waits": a traced run with prefetch
/// on registers both wait counters, at zero if nobody waited; an untraced
/// one registers neither.
#[test]
fn traced_prefetching_run_registers_both_channel_wait_counters() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let names = [
        telemetry::names::METRIC_PREFETCH_DRIVER_WAIT_US_TOTAL,
        telemetry::names::METRIC_PREFETCH_WORKER_WAIT_US_TOTAL,
    ];
    let run = || {
        let algo = CluStream::new(CluStreamParams {
            max_micro_clusters: 70,
            ..Default::default()
        });
        let ctx = StreamingContext::new(2, ExecutionMode::Threads).expect("context");
        DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
            .init_records(150)
            .pipeline(PipelineOptions::all())
            .run_to_end(VecSource::new(records()))
            .expect("job");
    };
    telemetry::metrics::reset();
    run();
    for name in names {
        assert!(
            !telemetry::expose().contains(name),
            "untraced run registered {name}"
        );
    }

    telemetry::set_journal_capture();
    telemetry::set_enabled(true);
    run();
    telemetry::barrier_drain();
    telemetry::set_enabled(false);
    telemetry::close_journal();
    for name in names {
        assert!(
            telemetry::expose().contains(name),
            "a traced prefetching run did not register {name}"
        );
    }
}
