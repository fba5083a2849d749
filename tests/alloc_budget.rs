//! Allocation budget of the batch path: the guard that keeps per-record
//! copies from coming back.
//!
//! A record is allocated once by the source and only borrowed from there to
//! the end of the local step, so the number of heap allocations one
//! `process_batch` makes must not depend on how many records the batch
//! holds — only on how many keys, tasks and chunks it has. This test counts
//! allocations with a counting global allocator (hence its own test crate,
//! and a single `#[test]`: the count is process-wide), drives batches of
//! 1 024 and 8 192 records over the same four grid cells, and requires the
//! count to grow by less than 0.05 per extra record. With the owning path
//! it grew by more than 3: a deep copy per record in each step's retry
//! clone, one in step 1's output merge, and a one-element `Vec` per record
//! in the map-side combine.
//!
//! What legitimately grows is logarithmic: an index list doubles its
//! buffer as it fills, once per key without the combine and once per
//! `(chunk, key)` with it — `keys × chunks × log2(8)` extra allocations
//! here, which is why the key set is kept small: sixteen keys at sixteen
//! chunks would spend the whole budget on doublings and mask the
//! per-record signal the test exists for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use diststream::algorithms::{DStream, DStreamParams};
use diststream::core::{DistStreamExecutor, PipelineOptions, StreamClustering};
use diststream::engine::{ExecutionMode, MiniBatch, StreamingContext};
use diststream::types::{Point, Record, Timestamp};

/// Allocations (and reallocations) made by any thread since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed counter
// increment, which neither allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Record `id` of the stream: 54-d, in grid cell `id % CELLS` of the two
/// gridded dimensions, one millisecond after its predecessor.
fn record(id: u64) -> Record {
    let cell = id % CELLS;
    let mut coords = vec![0.25; DIMS];
    coords[0] = (cell % 2) as f64 + 0.5;
    coords[1] = (cell / 2) as f64 + 0.5;
    Record::new(
        id,
        Point::from(coords),
        Timestamp::from_secs(id as f64 * 1e-3),
    )
}

/// Allocations made by the third `process_batch` of a fresh executor fed
/// `len`-record batches (the first two warm the scratch buffers and, when
/// overlapped, fill the pending slot).
fn allocations_per_batch(options: &PipelineOptions, p: usize, len: u64) -> u64 {
    let algo = DStream::new(DStreamParams {
        grid_dims: 2,
        ..DStreamParams::default()
    });
    let ctx = StreamingContext::new(p, ExecutionMode::Threads).unwrap();
    let mut exec = DistStreamExecutor::new(&algo, &ctx);
    exec.combine(options.combine)
        .chunking(options.chunking)
        .overlap(options.overlap)
        .strategy(options.strategy);
    let init: Vec<Record> = (0..CELLS).map(record).collect();
    let mut model = algo.init(&init).unwrap();

    let mut measured = 0;
    for index in 0..3u64 {
        let first = CELLS + index * len;
        let records: Vec<Record> = (first..first + len).map(record).collect();
        let batch = MiniBatch {
            index: index as usize,
            window_start: records[0].timestamp,
            window_end: records[records.len() - 1].timestamp + 1e-3,
            records,
        };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let outcome = exec.process_batch(&mut model, batch).unwrap();
        measured = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(outcome.outlier_records, 0, "the key set must stay fixed");
    }
    measured
}

#[test]
fn allocations_per_batch_do_not_grow_with_the_batch() {
    const SMALL: u64 = 1024;
    const LARGE: u64 = 8192;
    for (name, options) in [
        ("sync", PipelineOptions::sync()),
        ("all", PipelineOptions::all()),
    ] {
        for p in [1, 4] {
            let small = allocations_per_batch(&options, p, SMALL);
            let large = allocations_per_batch(&options, p, LARGE);
            let per_extra_record = large.saturating_sub(small) as f64 / (LARGE - SMALL) as f64;
            assert!(
                per_extra_record < 0.05,
                "{name} p={p}: {small} allocations for {SMALL} records, {large} for {LARGE} \
                 — {per_extra_record:.3} per extra record"
            );
        }
    }
}
