//! Allocation budget of the batch path: the guard that keeps per-record
//! copies from coming back.
//!
//! A record is allocated once by the source and only borrowed from there to
//! the end of the local step, so the number of heap allocations one
//! `JobSession::step` makes must not depend on how many records the batch
//! holds — only on how many keys and tasks it has. This test counts
//! allocations with a counting global allocator (hence its own test crate,
//! and a single `#[test]`: the count is process-wide), drives batches of
//! 1 024 and 8 192 records over the same grid cells, and requires the
//! count to grow by less than 0.05 per extra record. With the owning path
//! it grew by more than 3: a deep copy per record in each step's retry
//! clone, one in step 1's output merge, and a one-element `Vec` per record
//! in the map-side combine.
//!
//! Nothing in the shuffle grows with the batch any more. The index lists
//! it used to build — a `Vec<u32>` per key, or per `(chunk, key)` with the
//! combine, each doubling its buffer as it filled — are ranges of one flat
//! position buffer that the scratch recycles, so a wider key set or a
//! finer chunking costs no allocation either: the budget is held over four
//! grid cells and over 256, where the per-key lists at sixteen chunks
//! would have spent it thirty times over on doublings alone.
//!
//! The same bound is held for CluStream, whose step 1 searches a
//! `CentroidKernel`: on clustered rows the kernel buys its search index
//! part-way through every batch — a handful of allocations, plus one
//! pair-table row the first time a centroid wins, so at most one per
//! micro-cluster however long the batch; the indexed search itself
//! allocates nothing.
//!
//! And for ClusTree, whose step 1 flattens the model's tree and computes
//! every leaf's boundary once per batch: the searcher allocates when it is
//! built, never when it is asked.
//!
//! And for DenStream, whose step 1 builds a kernel, a role mask and the
//! closed-form radius rows once per batch: a record's absorption test reads
//! four numbers of its nearest row, and the rare fall-back to the full
//! radius sum borrows the model's own sketch.
//!
//! The same allocator also keeps the largest single allocation, for the
//! other half of the per-batch fixed cost: what a batch *reserves*. Batches
//! of about a thousand records cut from a replay a million records long
//! must reserve about what they hold, not a share of the whole run — the
//! batcher once sized every batch from the source's remaining-length hint
//! and reserved 2^20 records (48 MiB) for each.

// The one file in the workspace that needs `unsafe`: a `GlobalAlloc` cannot
// be implemented without it. Every other target is `forbid` (root manifest).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use diststream::algorithms::{
    CluStream, CluStreamParams, ClusTree, ClusTreeParams, DStream, DStreamParams, DenStream,
    DenStreamParams,
};
use diststream::core::{DistStreamJob, PipelineOptions, StreamClustering};
use diststream::engine::{
    ExecutionMode, MiniBatch, MiniBatcher, RecordSource, RepeatSource, StreamingContext,
};
use diststream::types::{ClusteringConfig, Point, Record, Timestamp};

/// Allocations (and reallocations) made by any thread since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The largest single allocation (or reallocation's new size), in bytes,
/// since it was last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are relaxed counter
// updates, which neither allocate nor touch the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`, with
        // `layout`; the caller upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DIMS: usize = 54;
const CELLS: u64 = 4;
const WIDE_CELLS: u64 = 256;

/// Record `id` of a D-Stream stream: 54-d, in grid cell `id % side²` of a
/// `side × side` block of the two gridded dimensions, one millisecond after
/// its predecessor.
fn record_in_block(id: u64, side: u64) -> Record {
    let cell = id % (side * side);
    let mut coords = vec![0.25; DIMS];
    coords[0] = (cell % side) as f64 + 0.5;
    coords[1] = (cell / side) as f64 + 0.5;
    Record::new(
        id,
        Point::from(coords),
        Timestamp::from_secs(id as f64 * 1e-3),
    )
}

/// The stream over [`CELLS`] grid cells.
fn grid_record(id: u64) -> Record {
    record_in_block(id, 2)
}

/// The stream over [`WIDE_CELLS`] grid cells.
fn wide_grid_record(id: u64) -> Record {
    record_in_block(id, 16)
}

const CLUSTERS: u64 = 12;

/// Record `id` of the CluStream stream: cluster `id % CLUSTERS` of 12 far
/// apart in 54-d, exactly 0.1 from the cluster's centre along a coordinate
/// and sign that rotate — so every micro-cluster has RMS radius 0.1 and
/// absorbs every later record of its cluster.
fn cluster_record(id: u64) -> Record {
    let (cluster, turn) = (id % CLUSTERS, id / CLUSTERS);
    let mut coords: Vec<f64> = (0..DIMS as u64)
        .map(|dim| ((cluster * 7 + dim * 13) % 11) as f64 * 10.0)
        .collect();
    coords[turn as usize / 2 % DIMS] += if turn % 2 == 0 { 0.1 } else { -0.1 };
    Record::new(
        id,
        Point::from(coords),
        Timestamp::from_secs(id as f64 * 1e-3),
    )
}

/// Allocations made by the third `step` of a fresh job session fed
/// `len`-record batches of `record` after `init_len` records of
/// initialization (the first two warm the scratch buffers and, when
/// overlapped, fill the pending slot), and the model they leave.
fn allocations_per_batch<A: StreamClustering>(
    algo: &A,
    record: fn(u64) -> Record,
    init_len: u64,
    options: &PipelineOptions,
    p: usize,
    len: u64,
) -> (u64, A::Model) {
    let ctx = StreamingContext::new(p, ExecutionMode::Threads).unwrap();
    let mut job = DistStreamJob::new(algo, &ctx, ClusteringConfig::default());
    job.pipeline(*options);
    let init: Vec<Record> = (0..init_len).map(record).collect();
    let mut session = job.start(algo.init(&init).unwrap()).unwrap();

    let mut measured = 0;
    for index in 0..3u64 {
        let first = init_len + index * len;
        let records: Vec<Record> = (first..first + len).map(record).collect();
        let batch = MiniBatch {
            index: index as usize,
            window_start: records[0].timestamp,
            window_end: records[records.len() - 1].timestamp + 1e-3,
            records,
        };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let outcome = session.step(batch).unwrap();
        measured = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(outcome.outlier_records, 0, "the key set must stay fixed");
    }
    (measured, session.model().clone())
}

/// Requires the allocations of one batch to grow by less than `budget` per
/// extra record between batches of `small` and `8 × small` records, for the
/// synchronous and the fully overlapped pipeline at p = 1 and p = 4.
/// Returns the last model.
fn assert_budget<A: StreamClustering>(
    algo: &A,
    record: fn(u64) -> Record,
    init_len: u64,
    small: u64,
    budget: f64,
) -> A::Model {
    let large = 8 * small;
    let mut last = None;
    for (name, options) in [
        ("sync", PipelineOptions::sync()),
        ("all", PipelineOptions::all()),
    ] {
        for p in [1, 4] {
            let (few, _) = allocations_per_batch(algo, record, init_len, &options, p, small);
            let (many, model) = allocations_per_batch(algo, record, init_len, &options, p, large);
            let per_extra_record = many.saturating_sub(few) as f64 / (large - small) as f64;
            assert!(
                per_extra_record < budget,
                "{name} p={p}: {few} allocations for {small} records, {many} for {large} \
                 — {per_extra_record:.3} per extra record"
            );
            last = Some(model);
        }
    }
    last.expect("four configurations ran")
}

/// Cuts one-second batches (about a thousand records each) out of a
/// replay whose length hint is over a million records and steps them
/// through an overlapped D-Stream job; requires no single allocation on
/// that path to exceed twice the largest batch's records plus 4 KiB — what
/// a `Vec` reserving the previous batch's length and doubling past it can
/// reach.
fn assert_batches_reserve_what_they_hold() {
    let base: Vec<Record> = (0..1024).map(grid_record).collect();
    let source = RepeatSource::new(base, 1024);
    assert!(source.len_hint().is_some_and(|n| n >= 1 << 20));
    let dstream = DStream::new(DStreamParams {
        grid_dims: 2,
        ..DStreamParams::default()
    });
    let ctx = StreamingContext::new(1, ExecutionMode::Threads).unwrap();
    let mut job = DistStreamJob::new(&dstream, &ctx, ClusteringConfig::default());
    job.pipeline(PipelineOptions::all());
    let init: Vec<Record> = (0..CELLS).map(grid_record).collect();
    let mut session = job.start(dstream.init(&init).unwrap()).unwrap();

    LARGEST.store(0, Ordering::Relaxed);
    let mut largest_batch = 0;
    for batch in MiniBatcher::new(source, 1.0).take(8) {
        largest_batch = largest_batch.max(batch.len());
        session.step(batch).unwrap();
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    let bound = 2 * largest_batch * size_of::<Record>() + 4096;
    assert!(
        (900..=1100).contains(&largest_batch),
        "one-second windows over millisecond spacing: {largest_batch} records"
    );
    assert!(
        largest <= bound,
        "a {largest}-byte allocation on the batch path of batches of at most \
         {largest_batch} records (bound {bound} bytes)"
    );
}

#[test]
fn allocations_per_batch_do_not_grow_with_the_batch() {
    assert_batches_reserve_what_they_hold();

    let dstream = DStream::new(DStreamParams {
        grid_dims: 2,
        ..DStreamParams::default()
    });
    assert_budget(&dstream, grid_record, CELLS, 1024, 0.05);
    // 64 times the keys (and, overlapped at p = 4, sixteen map chunks over
    // them) inside the same budget.
    assert_budget(&dstream, wide_grid_record, WIDE_CELLS, 1024, 0.05);

    let clustream = CluStream::new(CluStreamParams {
        max_micro_clusters: CLUSTERS as usize,
        ..CluStreamParams::default()
    });
    let model = assert_budget(&clustream, cluster_record, 16 * CLUSTERS, 8192, 0.027);

    // The same stream through ClusTree: twelve leaves under a fanout-3 tree,
    // every record inside its micro-cluster's boundary (2 × RMS 0.1).
    let clustree = ClusTree::new(ClusTreeParams {
        max_micro_clusters: CLUSTERS as usize,
        ..ClusTreeParams::default()
    });
    let tree_model = assert_budget(&clustree, cluster_record, 16 * CLUSTERS, 8192, 0.03);
    assert_eq!(tree_model.len(), CLUSTERS as usize);
    assert!(tree_model.tree_height() >= 3);

    // And through DenStream: every micro-cluster potential (sixteen records
    // or more each at initialization, well over β_p·μ = 2), every record 0.1
    // from its centroid against ε = 1, so the closed form decides them all.
    // Eleven micro-clusters: clusters 0 and 11 share a centre (7·11 ≡ 0).
    let denstream = DenStream::new(DenStreamParams::default());
    let den_model = assert_budget(&denstream, cluster_record, 16 * CLUSTERS, 8192, 0.03);
    assert_eq!(den_model.len(), CLUSTERS as usize - 1);
    assert_eq!(den_model.potential_count(), den_model.len());

    // CluStream's budget was held with the search index active: one row per
    // cluster, and `cf::tests::the_allocation_budgets_clusters_keep_their_index`
    // shows a kernel over these twelve clusters buys its index and keeps it.
    assert_eq!(clustream.snapshot(&model).len(), CLUSTERS as usize);
}
