//! Cross-crate integration tests: full pipelines over every algorithm,
//! parallelism invariance, execution-mode agreement, and the
//! one-record-at-a-time equivalence anchor.

use diststream::algorithms::{
    CluStream, CluStreamParams, ClusTree, ClusTreeParams, DStream, DStreamParams, DenStream,
    DenStreamParams,
};
use diststream::core::{DistStreamJob, SequentialExecutor, StreamClustering};
use diststream::datasets::covertype_like;
use diststream::engine::{ExecutionMode, MiniBatch, StreamingContext, VecSource};
use diststream::types::{ClusteringConfig, Record};

fn records() -> Vec<Record> {
    covertype_like(3000, 5).to_records(50.0)
}

fn final_snapshot<A: StreamClustering>(
    algo: &A,
    p: usize,
    mode: ExecutionMode,
) -> Vec<(Vec<f64>, f64)> {
    let ctx = StreamingContext::new(p, mode).expect("context");
    let result = DistStreamJob::new(algo, &ctx, ClusteringConfig::default())
        .init_records(150)
        .run_to_end(VecSource::new(records()))
        .expect("job");
    let mut snap: Vec<(Vec<f64>, f64)> = algo
        .snapshot(&result.model)
        .into_iter()
        .map(|wp| (wp.point.into_inner(), wp.weight))
        .collect();
    snap.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in snapshots"));
    snap
}

#[test]
fn clustream_pipeline_is_parallelism_invariant() {
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    let base = final_snapshot(&algo, 1, ExecutionMode::Simulated);
    assert!(!base.is_empty());
    for p in [2, 8, 32] {
        assert_eq!(
            final_snapshot(&algo, p, ExecutionMode::Simulated),
            base,
            "CluStream diverged at p={p}"
        );
    }
}

#[test]
fn denstream_pipeline_is_parallelism_invariant() {
    let algo = DenStream::new(DenStreamParams {
        eps: 2.5,
        ..Default::default()
    });
    let base = final_snapshot(&algo, 1, ExecutionMode::Simulated);
    assert!(!base.is_empty());
    for p in [3, 16] {
        assert_eq!(
            final_snapshot(&algo, p, ExecutionMode::Simulated),
            base,
            "DenStream diverged at p={p}"
        );
    }
}

#[test]
fn dstream_pipeline_is_parallelism_invariant() {
    let algo = DStream::new(DStreamParams {
        cell_width: 2.0,
        grid_dims: 6,
        ..Default::default()
    });
    let base = final_snapshot(&algo, 1, ExecutionMode::Simulated);
    assert!(!base.is_empty());
    assert_eq!(final_snapshot(&algo, 8, ExecutionMode::Simulated), base);
}

#[test]
fn clustree_pipeline_is_parallelism_invariant() {
    let algo = ClusTree::new(ClusTreeParams {
        max_micro_clusters: 70,
        singleton_radius: 2.5,
        ..Default::default()
    });
    let base = final_snapshot(&algo, 1, ExecutionMode::Simulated);
    assert!(!base.is_empty());
    assert_eq!(final_snapshot(&algo, 8, ExecutionMode::Simulated), base);
}

#[test]
fn thread_mode_matches_simulated_mode() {
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    assert_eq!(
        final_snapshot(&algo, 4, ExecutionMode::Threads),
        final_snapshot(&algo, 4, ExecutionMode::Simulated),
    );
}

/// The paper's correctness anchor: stepping an order-aware job session
/// with one-record batches (window_end = the record's timestamp)
/// performs exactly the same update sequence as the strict sequential
/// one-record-at-a-time model.
#[test]
fn single_record_batches_equal_sequential_execution() {
    fn check<A: StreamClustering>(algo: &A)
    where
        A::Model: PartialEq + std::fmt::Debug,
    {
        let recs = records();
        let init = 150;

        let mut seq_model = algo.init(&recs[..init]).expect("init");
        let seq = SequentialExecutor::new(algo);
        for r in &recs[init..] {
            seq.process_record(&mut seq_model, r).unwrap();
        }

        let ctx = StreamingContext::new(4, ExecutionMode::Simulated).expect("context");
        let job = DistStreamJob::new(algo, &ctx, ClusteringConfig::default());
        let mut session = job
            .start(algo.init(&recs[..init]).expect("init"))
            .expect("start");
        for (i, r) in recs[init..].iter().enumerate() {
            let batch = MiniBatch {
                index: i,
                window_start: r.timestamp,
                window_end: r.timestamp,
                records: vec![r.clone()],
            };
            session.step(batch).expect("batch");
        }
        assert_eq!(session.finish().expect("finish").model, seq_model);
    }

    check(&CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    }));
    check(&DenStream::new(DenStreamParams {
        eps: 2.5,
        ..Default::default()
    }));
    check(&DStream::new(DStreamParams {
        cell_width: 2.0,
        grid_dims: 6,
        ..Default::default()
    }));
}

#[test]
fn all_four_algorithms_survive_a_full_job() {
    let recs = records();
    let ctx = StreamingContext::new(4, ExecutionMode::Simulated).expect("context");
    let config = ClusteringConfig::default();

    let clu = CluStream::new(CluStreamParams {
        max_micro_clusters: 70,
        ..Default::default()
    });
    let den = DenStream::new(DenStreamParams {
        eps: 2.5,
        ..Default::default()
    });
    let dst = DStream::new(DStreamParams {
        cell_width: 2.0,
        grid_dims: 6,
        ..Default::default()
    });
    let tree = ClusTree::new(ClusTreeParams {
        max_micro_clusters: 70,
        singleton_radius: 2.5,
        ..Default::default()
    });

    macro_rules! run {
        ($algo:expr) => {{
            let result = DistStreamJob::new(&$algo, &ctx, config)
                .init_records(150)
                .run_to_end(VecSource::new(recs.clone()))
                .expect("job");
            assert_eq!(result.meter.records(), recs.len() - 150);
            assert!(!$algo.snapshot(&result.model).is_empty());
        }};
    }
    run!(clu);
    run!(den);
    run!(dst);
    run!(tree);
}
