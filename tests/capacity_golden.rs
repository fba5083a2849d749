//! Golden model digests under sustained capacity pressure.
//!
//! ClusTree and CluStream restore their micro-cluster budget by merging the
//! closest pair after every over-budget insertion, and merges are
//! irreversible (§IV-C2) — so *which* pair the scan picks, ties included,
//! is part of the model. These replays hold both algorithms at a small
//! budget on a bursty stream (one sync replay performs 1 557 ClusTree
//! merges; 463 CluStream merges and 52 horizon deletions) and compare the
//! FNV-1a digest of the final model's encoded bytes against values recorded
//! at commit 39f902e, before the closest-pair index replaced the per-merge
//! rescans. Any change to pair choice, orphan placement or absorb-or-insert
//! placement moves a digest.

use diststream::algorithms::{CluStream, CluStreamParams, ClusTree, ClusTreeParams};
use diststream::core::{DistStreamJob, PipelineOptions, StreamClustering};
use diststream::datasets::kdd99_like;
use diststream::engine::{encode, fnv1a_hash, ExecutionMode, StreamingContext, VecSource};
use diststream::types::{ClusteringConfig, Record};

const BUDGET: usize = 24;

/// 6 000 records of the bursty KDD-99 analog at 200 records/s: thirty
/// one-second batches, with attack waves emerging and vanishing throughout.
fn stream() -> (Vec<Record>, f64) {
    let dataset = kdd99_like(6000, 7);
    let scale = dataset.mean_intra_distance();
    (dataset.to_records(200.0), scale)
}

/// Replays the stream and returns `(digest, final micro-cluster count)`.
fn replay<A: StreamClustering>(
    algo: &A,
    records: &[Record],
    p: usize,
    pipeline: PipelineOptions,
) -> (u64, usize) {
    let ctx = StreamingContext::new(p, ExecutionMode::Simulated).expect("context");
    let config = ClusteringConfig::default()
        .with_batch_secs(1.0)
        .expect("batch width");
    let result = DistStreamJob::new(algo, &ctx, config)
        .init_records(200)
        .pipeline(pipeline)
        .run_to_end(VecSource::new(records.to_vec()))
        .expect("job");
    (
        fnv1a_hash(&encode(&result.model)),
        algo.snapshot(&result.model).len(),
    )
}

fn assert_golden<A: StreamClustering>(algo: &A, expected_sync: u64, expected_overlapped: u64) {
    let (records, _) = stream();
    for (label, pipeline, expected) in [
        ("sync", PipelineOptions::sync(), expected_sync),
        ("overlapped", PipelineOptions::all(), expected_overlapped),
    ] {
        for p in [1, 2, 4] {
            let (digest, size) = replay(algo, &records, p, pipeline);
            assert!(
                size <= BUDGET,
                "{} {label} p={p}: {size} micro-clusters",
                algo.name()
            );
            assert_eq!(
                digest,
                expected,
                "{} {label} p={p}: model digest {digest:016x} != golden {expected:016x}",
                algo.name()
            );
        }
    }
}

#[test]
fn clustree_digests_under_capacity_pressure() {
    let (_, scale) = stream();
    let algo = ClusTree::new(ClusTreeParams {
        max_micro_clusters: BUDGET,
        singleton_radius: 0.25 * scale,
        premerge_distance: 0.1 * scale,
        ..Default::default()
    });
    assert_golden(&algo, 0x1fb3_ee11_4957_bebb, 0x2f81_5125_ce60_2ef7);
}

#[test]
fn clustream_digests_under_capacity_pressure() {
    let (_, scale) = stream();
    let algo = CluStream::new(CluStreamParams {
        max_micro_clusters: BUDGET,
        boundary_factor: 1.3,
        horizon_secs: 4.0,
        premerge_distance: 0.1 * scale,
        ..Default::default()
    });
    assert_golden(&algo, 0xac55_4148_291b_85f7, 0xaa72_a650_f314_2bd7);
}
