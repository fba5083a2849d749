//! Edge cases of the borrowed, index-based batch path (DESIGN.md §16).
//!
//! Step 1 hands tasks contiguous slices of a batch they only borrow; step 2
//! groups, routes and sorts `u32` arrival positions. The degenerate shapes
//! of that index space — no records, one record, only outliers, one key,
//! more tasks than records — must behave with chunk scheduling on or off:
//! pairs come back in the order the records were given, and the model
//! equals the one-record-at-a-time `SequentialExecutor`'s.
//!
//! The equality is exact because the data is chosen so that the reference
//! algorithm's arithmetic is: timestamps are whole seconds (its decay
//! `2^-Δt` is then a power of two), records sit exactly on their cluster's
//! centroid (so a stale model assigns like a fresh one), and outliers are
//! far apart (so none absorbs or pre-merges with another). The order of
//! the folds still matters — decay skips records that arrive "in the
//! past" — so a grouping that lost the arrival order would be caught.
//!
//! (A batch of more than `u32::MAX` records cannot be built in a test; the
//! typed refusal is unit-tested beside the guard in `core/src/local.rs`.)

use diststream::core::reference::{NaiveClustering, NaiveModel};
use diststream::core::{
    assign_records_distributed, global_update, local_update_distributed, strategy_for, Assignment,
    LocalScratch, SequentialExecutor, StrategyKind, StreamClustering, UpdateOrdering,
};
use diststream::engine::{Broadcast, ExecutionMode, StreamingContext};
use diststream::types::{Point, Record, Timestamp};

fn rec(id: u64, x: f64, secs: u64) -> Record {
    Record::new(id, Point::from(vec![x]), Timestamp::from_secs(secs as f64))
}

/// Two clusters, at x = 0 (id 0) and x = 8 (id 1).
fn init_model(algo: &NaiveClustering) -> NaiveModel {
    algo.init(&[rec(0, 0.0, 0), rec(1, 8.0, 0)]).unwrap()
}

/// The model after feeding `records`, sorted into arrival order, through the
/// one-record-at-a-time feedback loop.
fn sequential(algo: &NaiveClustering, records: &[Record]) -> NaiveModel {
    let mut model = init_model(algo);
    let mut sorted = records.to_vec();
    sorted.sort_by_key(Record::arrival_key);
    let exec = SequentialExecutor::new(algo);
    for record in &sorted {
        exec.process_record(&mut model, record).unwrap();
    }
    model
}

/// One batch through the three steps at parallelism `p`, checking on the way
/// that step 1 returns the records in the order given.
fn distributed(
    algo: &NaiveClustering,
    records: &[Record],
    p: usize,
    mode: ExecutionMode,
    chunking: bool,
) -> NaiveModel {
    let ctx = StreamingContext::new(p, mode).unwrap();
    let mut model = init_model(algo);
    let bcast = Broadcast::new(model.clone());
    let placement = strategy_for(StrategyKind::RoundRobin);
    let what = format!("p={p} chunking={chunking}");

    let assigned =
        assign_records_distributed(&ctx, algo, &bcast, records.to_vec(), chunking, placement)
            .unwrap();
    let given: Vec<u64> = records.iter().map(|r| r.id).collect();
    let returned: Vec<u64> = assigned.pairs.iter().map(|(r, _)| r.id).collect();
    assert_eq!(returned, given, "pairs left arrival order ({what})");
    for (record, assignment) in &assigned.pairs {
        assert_eq!(*assignment, algo.assign(&model, record), "{what}");
    }

    let window_end = records
        .iter()
        .map(|r| r.timestamp)
        .max()
        .unwrap_or(Timestamp::ZERO);
    let local = local_update_distributed(
        &ctx,
        algo,
        &bcast,
        assigned.pairs,
        UpdateOrdering::OrderAware,
        Timestamp::ZERO,
        7,
        &mut LocalScratch::default(),
        false,
        placement,
    )
    .unwrap();
    let absorbed: usize = local.updated.iter().map(|u| u.absorbed).sum::<usize>()
        + local.created.iter().map(|c| c.absorbed).sum::<usize>();
    assert_eq!(
        absorbed,
        records.len(),
        "records lost or folded twice ({what})"
    );
    global_update(
        algo,
        &mut model,
        local,
        window_end,
        UpdateOrdering::OrderAware,
        true,
        7,
    )
    .unwrap();
    model
}

/// Runs `records` at parallelism `p` with chunking on and off and compares
/// each model with the sequential one.
fn check(name: &str, records: &[Record], p: usize) {
    let algo = NaiveClustering::new(1.0);
    let expected = sequential(&algo, records);
    for chunking in [false, true] {
        let got = distributed(&algo, records, p, ExecutionMode::Simulated, chunking);
        assert_eq!(got, expected, "{name}: p={p} chunking={chunking}");
    }
    // Once in real threads: the borrows cross the pool's scope.
    let got = distributed(&algo, records, p, ExecutionMode::Threads, true);
    assert_eq!(got, expected, "{name}: threads");
}

/// Arrival order (whole seconds, ids ascending), presented backwards — the
/// batch order the pairs must keep is the opposite of the fold order the
/// groups must restore.
fn reversed(mut records: Vec<Record>) -> Vec<Record> {
    records.reverse();
    records
}

#[test]
fn empty_batch() {
    check("empty", &[], 3);
}

#[test]
fn single_record() {
    check("single existing", &[rec(2, 8.0, 1)], 3);
    check("single outlier", &[rec(2, 100.0, 1)], 3);
}

#[test]
fn all_outlier_batch() {
    // 40 outliers, 16 apart: every record its own key and its own new
    // micro-cluster, created in arrival order.
    let records: Vec<Record> = (0..40)
        .map(|i| rec(2 + i, 100.0 + 16.0 * i as f64, 1 + i / 10))
        .collect();
    let algo = NaiveClustering::new(1.0);
    assert!(records
        .iter()
        .all(|r| matches!(algo.assign(&init_model(&algo), r), Assignment::New(_))));
    check("all outliers", &reversed(records), 3);
}

#[test]
fn every_record_on_one_key() {
    // 150 records on cluster 1 over four seconds: one group, one reducer
    // busy, the others idle — and chunked step 1 gets several chunks.
    let records: Vec<Record> = (0..150).map(|i| rec(2 + i, 8.0, 1 + i / 40)).collect();
    check("one key", &reversed(records), 4);
}

#[test]
fn more_tasks_than_records() {
    let records = vec![rec(2, 8.0, 1), rec(3, 100.0, 1), rec(4, 0.0, 2)];
    check("p > records", &reversed(records), 8);
}

#[test]
fn mixed_keys_and_outliers() {
    // The ordinary shape, for contrast: two existing keys interleaved with
    // scattered outliers.
    let records: Vec<Record> = (0..120)
        .map(|i| {
            let x = match i % 5 {
                0 | 1 => 0.0,
                2 | 3 => 8.0,
                _ => 200.0 + 16.0 * i as f64,
            };
            rec(2 + i, x, 1 + i / 30)
        })
        .collect();
    check("mixed", &reversed(records), 3);
}
