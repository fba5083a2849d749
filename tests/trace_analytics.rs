//! Trace-analytics determinism tests.
//!
//! The per-record event-time latency is measured in *virtual* time
//! (record timestamp → integrating batch's window end), so its percentile
//! digests must be bit-identical across repeated runs and across
//! parallelism degrees — for all four algorithms in both pipelines. The
//! analytics themselves (blame tables, what-if predictions, Chrome export)
//! are pure functions of the journal, pinned here on synthetic journals
//! whose numbers are hand-checkable. Tracing must also be a pure observer:
//! the final model bytes cannot depend on whether a journal was recorded.
//!
//! Telemetry state is process-global, so the tests that toggle it
//! serialize on a lock (each integration-test file is its own binary).

use std::sync::Mutex;

use diststream::algorithms::{
    CluStream, CluStreamParams, ClusTree, ClusTreeParams, DStream, DStreamParams, DenStream,
    DenStreamParams,
};
use diststream::core::{DistStreamJob, PipelineOptions, StreamClustering};
use diststream::datasets::covertype_like;
use diststream::engine::{
    encode, BatchRecord, ExecutionMode, RecordLatency, StreamingContext, VecSource,
};
use diststream::telemetry;
use diststream::types::{ClusteringConfig, Record};
use diststream_trace as trace;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn records() -> Vec<Record> {
    covertype_like(1500, 5).to_records(50.0)
}

/// Runs a full job and returns the per-batch latency digests in report
/// order plus the final model bytes.
fn run_latencies<A: StreamClustering>(
    algo: &A,
    threads: usize,
    pipeline: PipelineOptions,
) -> (Vec<RecordLatency>, Vec<u8>) {
    let ctx = StreamingContext::new(threads, ExecutionMode::Threads).expect("context");
    let mut digests = Vec::new();
    let result = DistStreamJob::new(algo, &ctx, ClusteringConfig::default())
        .init_records(150)
        .pipeline(pipeline)
        .run(VecSource::new(records()), |report| {
            if let Some(latency) = &report.outcome.latency {
                digests.push(latency.clone());
            }
        })
        .expect("job");
    (digests, encode(&result.model))
}

fn four_algorithms() -> (CluStream, DenStream, DStream, ClusTree) {
    (
        CluStream::new(CluStreamParams {
            max_micro_clusters: 70,
            ..Default::default()
        }),
        DenStream::new(DenStreamParams {
            eps: 2.5,
            ..Default::default()
        }),
        DStream::new(DStreamParams {
            cell_width: 6.0,
            grid_dims: 5,
            expected_cells: 500,
            ..Default::default()
        }),
        ClusTree::new(ClusTreeParams {
            max_micro_clusters: 70,
            singleton_radius: 2.5,
            premerge_distance: 2.5,
            ..Default::default()
        }),
    )
}

/// Latency percentiles are virtual-time quantities: bit-identical across
/// repeated runs and across `p = 1` vs `p = 4`, for all four algorithms in
/// both the synchronous and overlapped pipelines.
#[test]
fn latency_digests_identical_across_runs_and_parallelism() {
    // Serialized with the telemetry tests: a concurrent job in this binary
    // would otherwise leak its events into their journal sessions.
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (clustream, denstream, dstream, clustree) = four_algorithms();
    type Runner<'a> = &'a dyn Fn(usize, PipelineOptions) -> (Vec<RecordLatency>, Vec<u8>);
    let algos: [(&str, Runner); 4] = [
        ("clustream", &|p, opts| run_latencies(&clustream, p, opts)),
        ("denstream", &|p, opts| run_latencies(&denstream, p, opts)),
        ("dstream", &|p, opts| run_latencies(&dstream, p, opts)),
        ("clustree", &|p, opts| run_latencies(&clustree, p, opts)),
    ];
    for (name, run) in &algos {
        for (label, opts) in [
            ("sync", PipelineOptions::sync()),
            ("overlapped", PipelineOptions::all()),
        ] {
            let (base, _) = run(1, opts);
            assert!(!base.is_empty(), "{name} {label}: no latency digests");
            let total: usize = base.iter().map(|d| d.count).sum();
            assert!(total > 0, "{name} {label}: empty latency digests");
            for d in &base {
                assert!(
                    d.p50_secs <= d.p95_secs && d.p95_secs <= d.p99_secs,
                    "{name} {label}: unordered percentiles {d:?}"
                );
            }
            let (replay, _) = run(1, opts);
            assert_eq!(base, replay, "{name} {label}: latency diverged on replay");
            let (wide, _) = run(4, opts);
            assert_eq!(base, wide, "{name} {label}: latency diverged at p=4");
        }
    }
}

/// Tracing is a pure observer: running with a journal session must leave
/// the model bytes untouched — and the journal it writes must parse,
/// reconcile batch-by-batch, and agree with the untraced run's latency.
#[test]
fn traced_and_untraced_runs_produce_identical_models() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    let (plain_latencies, plain_model) = run_latencies(&algo, 2, PipelineOptions::sync());

    let dir = std::env::temp_dir().join("diststream-trace-analytics-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("traced.jsonl");
    telemetry::start_file_session(&path).expect("journal session");
    let (traced_latencies, traced_model) = run_latencies(&algo, 2, PipelineOptions::sync());
    telemetry::finish_file_session();

    assert_eq!(plain_model, traced_model, "tracing changed the model");
    assert_eq!(plain_latencies, traced_latencies);

    let journal = trace::parse_journal_file(&path).expect("journal parses");
    assert_eq!(journal.drops, 0, "journal lost events");
    let run = trace::analyze(&journal).expect("journal analyzes");
    assert_eq!(run.batches.len(), plain_latencies.len());
    for batch in &run.batches {
        batch.reconcile().unwrap_or_else(|(path_secs, total)| {
            panic!(
                "batch {} does not reconcile: path {path_secs} vs total {total}",
                batch.record.batch_index
            )
        });
        assert_eq!(batch.record.parallelism, 2);
        assert!(
            !batch.record.assignment.task_secs().is_empty(),
            "no task_duration points"
        );
        let digest = batch.latency.expect("record_latency point journaled");
        let in_process = plain_latencies
            .iter()
            .find(|d| d.source_batch == batch.record.batch_index)
            .expect("matching in-process digest");
        assert_eq!(digest.records, in_process.count as f64);
        assert_eq!(digest.p99_secs, in_process.p99_secs);
    }
    assert!(run.blame().dominant().is_some());
    let _ = std::fs::remove_file(&path);
}

/// The journal's span structure is an invariant of the workload, not the
/// parallelism degree: same span multiset, same per-batch latency points
/// at `p = 1` and `p = 4`.
#[test]
fn journal_structure_is_invariant_across_parallelism() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join("diststream-trace-analytics-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");

    let mut journals = Vec::new();
    for p in [1usize, 4] {
        let path = dir.join(format!("invariant-p{p}.jsonl"));
        telemetry::start_file_session(&path).expect("journal session");
        run_latencies(&algo, p, PipelineOptions::all());
        telemetry::finish_file_session();
        journals.push(trace::parse_journal_file(&path).expect("journal parses"));
        let _ = std::fs::remove_file(&path);
    }
    let [narrow, wide] = &journals[..] else {
        unreachable!()
    };
    assert_eq!(
        trace::span_multiset(narrow),
        trace::span_multiset(wide),
        "span structure changed with parallelism"
    );
    let latency = |j: &trace::Journal| {
        let run = trace::analyze(j).expect("journal analyzes");
        run.batches
            .iter()
            .map(|b| (b.record.batch_index, b.latency))
            .collect::<Vec<_>>()
    };
    assert_eq!(latency(narrow), latency(wide));
}

const META: &str = "{\"ev\":\"meta\",\"version\":2,\"clock\":\"monotonic-us\"}";

/// A synthetic two-batch sync journal with hand-checkable numbers: per
/// batch 2.0 s of assignment, 1.0 s of local update and 1.0 s of global
/// update, 4.0 s in all.
fn synthetic_journal() -> trace::Journal {
    let contents = format!(
        "{META}\n\
         {{\"ev\":\"point\",\"name\":\"batch_summary\",\"thread\":0,\"seq\":0,\"t_us\":1,\"batch\":0,\
          \"records\":100,\"assignment_secs\":2.0,\"local_secs\":1.0,\"global_secs\":1.0,\
          \"total_secs\":4.0,\"async_overlap\":0.0,\"broadcast_bytes\":0,\"shuffle_bytes\":0,\
          \"collect_bytes\":0,\"stragglers\":0,\"parallelism\":1,\"assign_driver_secs\":0.0,\
          \"local_driver_secs\":0.0}}\n\
         {{\"ev\":\"point\",\"name\":\"task_duration\",\"thread\":0,\"seq\":1,\"t_us\":2,\"batch\":0,\"step\":0,\"index\":0,\"secs\":2.0}}\n\
         {{\"ev\":\"point\",\"name\":\"task_duration\",\"thread\":0,\"seq\":2,\"t_us\":3,\"batch\":0,\"step\":1,\"index\":0,\"secs\":1.0}}\n\
         {{\"ev\":\"point\",\"name\":\"batch_summary\",\"thread\":0,\"seq\":3,\"t_us\":4,\"batch\":1,\
          \"records\":100,\"assignment_secs\":2.0,\"local_secs\":1.0,\"global_secs\":1.0,\
          \"total_secs\":4.0,\"async_overlap\":0.0,\"broadcast_bytes\":0,\"shuffle_bytes\":0,\
          \"collect_bytes\":0,\"stragglers\":0,\"parallelism\":1,\"assign_driver_secs\":0.0,\
          \"local_driver_secs\":0.0}}\n\
         {{\"ev\":\"point\",\"name\":\"task_duration\",\"thread\":0,\"seq\":4,\"t_us\":5,\"batch\":1,\"step\":0,\"index\":0,\"secs\":2.0}}\n\
         {{\"ev\":\"point\",\"name\":\"task_duration\",\"thread\":0,\"seq\":5,\"t_us\":6,\"batch\":1,\"step\":1,\"index\":0,\"secs\":1.0}}"
    );
    trace::parse_journal(&contents).expect("synthetic journal parses")
}

/// Blame tables and what-if predictions are pure functions of the journal:
/// identical across repeated analysis, with hand-checkable pinned values.
#[test]
fn blame_and_whatif_are_deterministic_with_pinned_values() {
    let journal = synthetic_journal();
    let run = trace::analyze(&journal).expect("journal analyzes");
    let replay = trace::analyze(&journal).expect("journal analyzes");
    assert_eq!(run, replay, "analyze is not deterministic");

    let blame = run.blame();
    assert_eq!(blame.render(), replay.blame().render());
    assert_eq!(blame.dominant(), Some(trace::Phase::Assignment));
    // 2 batches × 2.0s assignment on every critical path; run total 8.0s.
    let assignment = blame.row(trace::Phase::Assignment).expect("row");
    assert_eq!(assignment.secs, 4.0);
    assert_eq!(assignment.batches_on_path, 2);
    assert_eq!(blame.critical_secs, 8.0);

    // Each batch recorded one 2.0s + one 1.0s task at p=1 (no residual):
    // at p'=2 the divisible fallback predicts 1.0 + 0.5 parallel seconds,
    // plus 1.0s serial (global) → 2.5s/batch, 5.0s total.
    let predictions = trace::predict(&run, &[2]);
    assert_eq!(trace::predict(&run, &[2]), predictions);
    let p2 = predictions.first().expect("one prediction");
    assert!((p2.predicted_total_secs - 5.0).abs() < 1e-12);
    assert!((p2.speedup - 1.6).abs() < 1e-12);
    // Serial fraction: 1.0s of 4.0s per batch.
    assert!((p2.serial_fraction - 0.25).abs() < 1e-12);
}

/// A simulated step records its wall as the list makespan of its
/// task times — the schedule the what-if replay uses — so re-predicting
/// such a journal at its own degree gives the recorded run back, with
/// nothing left over as serial residual.
#[test]
fn a_simulated_journal_replays_at_its_own_degree_with_no_residual() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = 3;
    let ctx = StreamingContext::new(p, ExecutionMode::Simulated).expect("context");
    let work = |_task, n: u64| (0..n * 5_000).fold(0u64, |a, x| a.wrapping_mul(31) ^ x);
    let dir = std::env::temp_dir().join("diststream-trace-analytics-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("simulated.jsonl");
    telemetry::start_file_session(&path).expect("journal session");
    for batch_index in 0..3 {
        let (_, assignment) = ctx
            .run_tasks(vec![5, 1, 4, 2, 6, 3, 1], work)
            .expect("step 1");
        let (_, local) = ctx.run_tasks(vec![2, 7, 1], work).expect("step 2");
        BatchRecord {
            batch_index,
            records: 7,
            assignment,
            local,
            parallelism: p,
            ..BatchRecord::default()
        }
        .emit();
    }
    telemetry::finish_file_session();

    let run = trace::analyze(&trace::parse_journal_file(&path).expect("journal parses"))
        .expect("journal analyzes");
    let _ = std::fs::remove_file(&path);
    assert_eq!(run.batches.len(), 3);
    let same = trace::predict(&run, &[p])[0];
    assert_eq!(same.predicted_total_secs, run.total_secs());
    assert_eq!(same.serial_fraction, 0.0);
}

/// The Chrome export is byte-for-byte stable (golden test).
#[test]
fn chrome_export_matches_golden() {
    let contents = format!(
        "{META}\n\
         {{\"ev\":\"open\",\"span\":\"batch\",\"thread\":0,\"seq\":0,\"t_us\":100,\"depth\":0,\"batch\":0}}\n\
         {{\"ev\":\"open\",\"span\":\"assignment\",\"thread\":0,\"seq\":1,\"t_us\":150,\"depth\":1,\"batch\":0}}\n\
         {{\"ev\":\"close\",\"span\":\"assignment\",\"thread\":0,\"seq\":2,\"t_us\":350,\"depth\":1,\"dur_us\":200,\"batch\":0}}\n\
         {{\"ev\":\"point\",\"name\":\"batch_summary\",\"thread\":0,\"seq\":3,\"t_us\":390,\"batch\":0,\"records\":10,\"total_secs\":0.5}}\n\
         {{\"ev\":\"close\",\"span\":\"batch\",\"thread\":0,\"seq\":4,\"t_us\":400,\"depth\":0,\"dur_us\":300,\"batch\":0}}"
    );
    let journal = trace::parse_journal(&contents).expect("parses");
    let golden = "[\n\
        {\"name\":\"assignment\",\"ph\":\"X\",\"ts\":150,\"dur\":200,\"pid\":0,\"tid\":0,\"args\":{\"batch\":0}},\n\
        {\"name\":\"batch_summary\",\"ph\":\"i\",\"ts\":390,\"s\":\"t\",\"pid\":0,\"tid\":0,\"args\":{\"batch\":0,\"records\":10.0,\"total_secs\":0.5}},\n\
        {\"name\":\"batch\",\"ph\":\"X\",\"ts\":100,\"dur\":300,\"pid\":0,\"tid\":0,\"args\":{\"batch\":0}}\n\
        ]\n";
    assert_eq!(trace::chrome::export(&journal), golden);
}
