//! Regression tests for the typed-error refactor: `apply_global` returns
//! `Result<()>` and every execution layer — sequential, a job session's
//! batch step under both update protocols (and its `finish`), and the job
//! facade — must surface the algorithm's error instead of panicking.
//! Likewise a hostile
//! initialization record: the job refuses it with a typed error before any
//! algorithm's `init` can panic on it or build a model from it.

use diststream_algorithms::{
    CluStream, CluStreamParams, ClusTree, ClusTreeParams, DStream, DStreamParams, DenStream,
    DenStreamParams,
};
use diststream_core::reference::{NaiveClustering, NaiveModel, NaiveSketch};
use diststream_core::{
    Assignment, DistStreamJob, PipelineOptions, Searcher, SequentialExecutor, StreamClustering,
    WeightedPoint,
};
use diststream_engine::{ExecutionMode, MiniBatch, StreamingContext, VecSource};
use diststream_types::{ClusteringConfig, DistStreamError, Point, Record, Result, Timestamp};

fn rec(id: u64, x: f64, t: f64) -> Record {
    Record::new(id, Point::from(vec![x]), Timestamp::from_secs(t))
}

fn batch(index: usize, records: Vec<Record>) -> MiniBatch {
    let t0 = records.first().map_or(Timestamp::ZERO, |r| r.timestamp);
    let t1 = records.last().map_or(Timestamp::ZERO, |r| r.timestamp);
    MiniBatch {
        index,
        window_start: t0,
        window_end: t1,
        records,
    }
}

/// Delegates everything to [`NaiveClustering`] but fails every global
/// update with a typed invariant error, modeling an algorithm that detects
/// corrupted state on the driver.
struct FailingGlobal {
    inner: NaiveClustering,
}

impl FailingGlobal {
    fn new() -> Self {
        FailingGlobal {
            inner: NaiveClustering::new(1.0),
        }
    }
}

impl StreamClustering for FailingGlobal {
    type Model = NaiveModel;
    type Sketch = NaiveSketch;

    fn name(&self) -> &str {
        "failing-global"
    }

    fn init(&self, records: &[Record]) -> Result<NaiveModel> {
        self.inner.init(records)
    }

    fn assign(&self, model: &NaiveModel, record: &Record) -> Assignment {
        self.inner.assign(model, record)
    }

    fn searcher<'m>(&'m self, model: &'m NaiveModel) -> Searcher<'m> {
        self.inner.searcher(model)
    }

    fn sketch_of(&self, model: &NaiveModel, id: u64) -> NaiveSketch {
        self.inner.sketch_of(model, id)
    }

    fn create(&self, record: &Record) -> NaiveSketch {
        self.inner.create(record)
    }

    fn update(&self, sketch: &mut NaiveSketch, record: &Record) {
        self.inner.update(sketch, record);
    }

    fn apply_global(
        &self,
        _model: &mut NaiveModel,
        _updated: Vec<(u64, NaiveSketch)>,
        _created: Vec<NaiveSketch>,
        _now: Timestamp,
    ) -> Result<()> {
        Err(DistStreamError::Invariant("global update rejected".into()))
    }

    fn snapshot(&self, model: &NaiveModel) -> Vec<WeightedPoint> {
        self.inner.snapshot(model)
    }
}

/// The paper's configuration with the asynchronous update protocol on.
fn overlapped() -> PipelineOptions {
    PipelineOptions {
        overlap: true,
        ..PipelineOptions::sync()
    }
}

fn is_invariant(err: &DistStreamError) -> bool {
    matches!(err, DistStreamError::Invariant(msg) if msg == "global update rejected")
}

#[test]
fn sequential_executor_surfaces_apply_global_error() {
    let algo = FailingGlobal::new();
    let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
    let exec = SequentialExecutor::new(&algo);
    let err = exec
        .process_record(&mut model, &rec(1, 0.2, 1.0))
        .unwrap_err();
    assert!(is_invariant(&err), "got {err}");
}

#[test]
fn sequential_stream_stops_at_first_error() {
    let algo = FailingGlobal::new();
    let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
    let exec = SequentialExecutor::new(&algo);
    let source = VecSource::new(vec![rec(1, 0.2, 1.0), rec(2, 0.3, 2.0)]);
    let err = exec.process_stream(&mut model, source).unwrap_err();
    assert!(is_invariant(&err), "got {err}");
}

#[test]
fn sync_executor_surfaces_apply_global_error() {
    let algo = FailingGlobal::new();
    let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    let job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
    let mut session = job.start(algo.init(&[rec(0, 0.0, 0.0)]).unwrap()).unwrap();
    let err = session.step(batch(0, vec![rec(1, 0.2, 1.0)])).unwrap_err();
    assert!(is_invariant(&err), "got {err}");
}

#[test]
fn overlapped_executor_surfaces_error_one_batch_late() {
    // The asynchronous protocol queues batch 0's global update and applies
    // it during batch 1 — so the error surfaces there, not on batch 0.
    let algo = FailingGlobal::new();
    let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    let mut job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
    job.pipeline(overlapped());
    let mut session = job.start(algo.init(&[rec(0, 0.0, 0.0)]).unwrap()).unwrap();
    session
        .step(batch(0, vec![rec(1, 0.2, 1.0)]))
        .expect("batch 0 only queues the update");
    let err = session.step(batch(1, vec![rec(2, 0.3, 2.0)])).unwrap_err();
    assert!(is_invariant(&err), "got {err}");
}

#[test]
fn overlapped_flush_surfaces_pending_error() {
    // `finish` applies the update the last overlapped batch left pending.
    let algo = FailingGlobal::new();
    let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    let mut job = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
    job.pipeline(overlapped());
    let mut session = job.start(algo.init(&[rec(0, 0.0, 0.0)]).unwrap()).unwrap();
    session
        .step(batch(0, vec![rec(1, 0.2, 1.0)]))
        .expect("batch 0 only queues the update");
    let err = session.finish().unwrap_err();
    assert!(is_invariant(&err), "got {err}");
}

#[test]
fn job_facade_surfaces_apply_global_error() {
    let algo = FailingGlobal::new();
    let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    let records: Vec<Record> = (0..40)
        .map(|i| rec(i, (i % 3) as f64 * 5.0, i as f64 * 0.1))
        .collect();
    let err = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default())
        .init_records(10)
        .run(VecSource::new(records), |_| {})
        .unwrap_err();
    assert!(is_invariant(&err), "got {err}");
}

#[test]
fn orphaned_update_ids_are_replaced_without_error() {
    // Updates targeting ids the model no longer holds must take the
    // created-sketch placement path, not error or panic: under the
    // asynchronous protocol assignment snapshots are one update stale.
    let algo = NaiveClustering::new(1.0);
    let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
    let sketch = algo.create(&rec(9, 50.0, 1.0));
    algo.apply_global(
        &mut model,
        vec![(777, sketch)],
        vec![],
        Timestamp::from_secs(1.0),
    )
    .expect("orphaned update must be tolerated");
    assert_eq!(model.len(), 2, "orphan re-inserted as a new micro-cluster");
}

/// Id of the one bad record, inside the job's ten initialization records.
const BAD_ID: u64 = 4;

/// Runs a job over a well-formed 2-d stream whose record `BAD_ID` carries
/// `bad` instead, and returns the error it must fail with.
fn bad_init_error<A: StreamClustering>(algo: &A, bad: Vec<f64>) -> DistStreamError {
    let records: Vec<Record> = (0..40)
        .map(|i| {
            let coords = if i == BAD_ID {
                bad.clone()
            } else {
                vec![(i % 3) as f64 * 5.0, 1.0]
            };
            Record::new(i, Point::from(coords), Timestamp::from_secs(i as f64 * 0.1))
        })
        .collect();
    let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
    match DistStreamJob::new(algo, &ctx, ClusteringConfig::default())
        .init_records(10)
        .run(VecSource::new(records), |_| {})
    {
        Ok(_) => panic!("a bad initialization record must fail the job"),
        Err(err) => err,
    }
}

/// One test per algorithm × {NaN, +∞, −∞, dimension change} in an
/// initialization record.
macro_rules! bad_init_record_tests {
    ($($algorithm:ident => $algo:expr;)*) => {$(
        mod $algorithm {
            use super::*;

            #[test]
            fn nan_coordinate_is_a_typed_error() {
                let err = bad_init_error(&$algo, vec![f64::NAN, 1.0]);
                assert_eq!(err, DistStreamError::NonFiniteRecord { id: BAD_ID });
            }

            #[test]
            fn positive_infinity_is_a_typed_error() {
                let err = bad_init_error(&$algo, vec![f64::INFINITY, 1.0]);
                assert_eq!(err, DistStreamError::NonFiniteRecord { id: BAD_ID });
            }

            #[test]
            fn negative_infinity_is_a_typed_error() {
                let err = bad_init_error(&$algo, vec![0.0, f64::NEG_INFINITY]);
                assert_eq!(err, DistStreamError::NonFiniteRecord { id: BAD_ID });
            }

            #[test]
            fn dimension_change_is_a_typed_error() {
                let err = bad_init_error(&$algo, vec![0.0, 1.0, 2.0]);
                assert_eq!(
                    err,
                    DistStreamError::DimensionMismatch {
                        expected: 2,
                        got: 3
                    }
                );
            }
        }
    )*};
}

bad_init_record_tests! {
    clustream => CluStream::new(CluStreamParams {
        max_micro_clusters: 4,
        ..Default::default()
    });
    denstream => DenStream::new(DenStreamParams::default());
    dstream => DStream::new(DStreamParams::default());
    clustree => ClusTree::new(ClusTreeParams::default());
}
