//! Microbenchmark for the vectorized [`CentroidKernel`] distance scans:
//! ns/point (per centroid row scanned) for the `nearest`,
//! `nearest_filtered`, and `nearest_squared` variants at the evaluation
//! dimensionalities d ∈ {2, 34, 54} (synthetic grid, KDD-99 numeric,
//! covertype) — and, because uniform rows have no neighbourhood to find,
//! a clustered case: the 230 × 54-d centroids a CluStream `init` leaves on
//! the KDD-99 analog, queried with the records that follow, through the
//! plain in-order scan and through the kernel's search index
//! (candidate-then-screen), with the share of rows whose distance each one
//! evaluates. Beside it, ClusTree on the same records: the model its
//! `init` leaves, asked record by record (`assign`: a `CfTree::nearest`
//! descent and a boundary computed per record) and as one batch
//! (`assign_many`: the tree flattened and the boundaries computed once).
//! And DenStream on the 315-d KDD-98 analog at the benchmark's `eps`: the
//! model its `init` leaves, asked record by record (`assign`: every
//! centroid distance, then the 315-term tentative radius) and as one batch
//! (`assign_many`: the kernel's search, then the radius in closed form from
//! the d² the search returned), with how often the batch path had to fall
//! back to the full radius sum.
//!
//! Informational only — the numbers land in the CI step summary but gate
//! nothing; kernel work is judged by `benchmark/`'s parent-vs-change pairs
//! (end-to-end throughput) and the `repro digest` bit-identity table. Every
//! case asserts that its paths answer alike before timing them.
//!
//! ```text
//! cargo run --release -p diststream-bench --bin repro -- kernel
//! ```

use std::time::Instant;

use diststream_algorithms::CentroidKernel;
use diststream_core::{Assignment, StreamClustering};
use diststream_telemetry as telemetry;
use diststream_types::{Point, Record, Result};

use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;

/// Dimensionalities matching the evaluation datasets.
const DIMS: [usize; 3] = [2, 34, 54];

/// Centroid rows per kernel — the KDD-99 CluStream default model size.
const ROWS: usize = 100;

/// Distinct query points cycled through each timing loop.
const QUERIES: usize = 64;

/// Timed scans per measurement (after an equal warmup).
const ITERS: usize = 20_000;

/// Deterministic coordinate stream (splitmix64 bits mapped into [0, 10)).
struct Gen(u64);

impl Gen {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 10.0
    }

    fn point(&mut self, dims: usize) -> Point {
        Point::from((0..dims).map(|_| self.next_f64()).collect::<Vec<_>>())
    }
}

/// A named scan variant of the kernel.
type Variant = (
    &'static str,
    fn(&CentroidKernel, &Point) -> Option<(usize, f64)>,
);

/// One timed variant: returns (ns per query scan, ns per centroid row),
/// with the accumulated best distance as an optimization sink.
fn time_variant(
    kernel: &CentroidKernel,
    queries: &[Point],
    mut scan: impl FnMut(&CentroidKernel, &Point) -> Option<(usize, f64)>,
) -> (f64, f64, f64) {
    let mut sink = 0.0;
    for i in 0..ITERS {
        if let Some((_, d)) = scan(kernel, &queries[i % queries.len()]) {
            sink += d;
        }
    }
    let start = Instant::now();
    for i in 0..ITERS {
        if let Some((_, d)) = scan(kernel, &queries[i % queries.len()]) {
            sink += d;
        }
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    let per_query = elapsed / ITERS as f64;
    (per_query, per_query / ROWS as f64, sink)
}

/// One search path of the clustered case.
struct Clustered {
    path: &'static str,
    ns_per_query: f64,
    /// Share of (query, row) pairs whose distance was evaluated rather than
    /// screened out.
    evaluated_share: f64,
}

/// Records of the KDD-99 analog behind the clustered case.
const CLUSTERED_RECORDS: usize = 48_000;

/// Queries per timed pass of the clustered case (about one
/// `clustream-kdd99` batch).
const CLUSTERED_QUERIES: usize = 9_716;

/// Timed passes per path; the median is reported.
const CLUSTERED_PASSES: usize = 9;

/// Plain vs indexed search over the centroids of a CluStream `init`.
///
/// A kernel buys its index once it has answered `rows / 2` queries, so the
/// plain path is timed on fresh clones (a clone starts unindexed) that
/// answer at most that many each, and the indexed path on one kernel past
/// that point. Both must return the same rows and distance bits.
fn clustered_case() -> Result<(usize, usize, [Clustered; 2])> {
    let bundle = Bundle::new(DatasetKind::Kdd99, CLUSTERED_RECORDS, 0x5eed);
    let records = bundle.stress_records();
    let (init, stream) = records.split_at(bundle.init_records());
    let algo = bundle.clustream();
    let model = algo.init(init)?;
    let mut kernel = CentroidKernel::new();
    for (idx, wp) in algo.snapshot(&model).iter().enumerate() {
        kernel.push_point(idx as u64, &wp.point);
    }
    let queries: Vec<&Point> = stream
        .iter()
        .take(CLUSTERED_QUERIES)
        .map(|r| &r.point)
        .collect();
    let rent = (kernel.len() / 2).max(1);
    let fresh =
        || -> Vec<CentroidKernel> { queries.chunks(rent).map(|_| kernel.clone()).collect() };
    let pairs = (queries.len() * kernel.len()) as f64;

    let plain_answers: Vec<_> = fresh()
        .iter()
        .zip(queries.chunks(rent))
        .flat_map(|(k, chunk)| chunk.iter().map(move |q| k.nearest_with_effort(q)))
        .collect();
    let indexed = kernel.clone();
    for q in queries.iter().take(rent + 1) {
        indexed.nearest(q);
    }
    let indexed_answers: Vec<_> = queries
        .iter()
        .map(|q| indexed.nearest_with_effort(q))
        .collect();
    let effort = |answers: &[Option<(usize, f64, usize)>]| {
        answers.iter().flatten().map(|a| a.2).sum::<usize>() as f64 / pairs
    };
    let same = plain_answers.iter().zip(&indexed_answers).all(|(p, i)| {
        p.map(|(row, d, _)| (row, d.to_bits())) == i.map(|(row, d, _)| (row, d.to_bits()))
    });
    assert!(
        same,
        "indexed search must answer exactly like the plain scan"
    );

    let median = |mut samples: Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2] * 1e9 / queries.len() as f64
    };
    let mut sink = 0.0;
    let plain_ns = median(
        (0..CLUSTERED_PASSES)
            .map(|_| {
                let kernels = fresh();
                let start = Instant::now();
                for (k, chunk) in kernels.iter().zip(queries.chunks(rent)) {
                    for q in chunk {
                        sink += k.nearest(q).map_or(0.0, |(_, d)| d);
                    }
                }
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let indexed_ns = median(
        (0..CLUSTERED_PASSES)
            .map(|_| {
                let start = Instant::now();
                for q in &queries {
                    sink += indexed.nearest(q).map_or(0.0, |(_, d)| d);
                }
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    assert!(sink.is_finite());
    Ok((
        kernel.len(),
        kernel.dims(),
        [
            Clustered {
                path: "plain",
                ns_per_query: plain_ns,
                evaluated_share: effort(&plain_answers),
            },
            Clustered {
                path: "indexed",
                ns_per_query: indexed_ns,
                evaluated_share: effort(&indexed_answers),
            },
        ],
    ))
}

/// ns/record by assignment path.
type Paths = [(&'static str, f64); 3];

/// Median ns/record of [`CLUSTERED_PASSES`] timed runs over `batch`, for
/// `assign` per record, `assign_many`, and building (and dropping) the
/// searcher alone.
fn time_assignment_paths<A: StreamClustering>(
    algo: &A,
    model: &A::Model,
    batch: &[Record],
    names: [&'static str; 3],
) -> Paths {
    let time = |run: &dyn Fn() -> usize| {
        let mut samples: Vec<f64> = (0..CLUSTERED_PASSES)
            .map(|_| {
                let start = Instant::now();
                assert_eq!(run(), batch.len());
                start.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2] * 1e9 / batch.len() as f64
    };
    let per_record = time(&|| {
        for record in batch {
            std::hint::black_box(algo.assign(model, record));
        }
        batch.len()
    });
    let per_batch = time(&|| algo.assign_many(model, batch).len());
    let build = time(&|| {
        drop(algo.searcher(model));
        batch.len()
    });
    [
        (names[0], per_record),
        (names[1], per_batch),
        (names[2], build),
    ]
}

/// Per-record descent vs the per-batch flat searcher over the tree of a
/// ClusTree `init`: `(micro-clusters, tree height, ns/record by path)`. Both
/// paths must decide every record alike.
fn clustree_case() -> Result<(usize, usize, Paths)> {
    let bundle = Bundle::new(DatasetKind::Kdd99, CLUSTERED_RECORDS, 0x5eed);
    let records = bundle.stress_records();
    let (init, stream) = records.split_at(bundle.init_records());
    let algo = bundle.clustree();
    let model = algo.init(init)?;
    let batch = &stream[..CLUSTERED_QUERIES.min(stream.len())];
    let per_record: Vec<_> = batch.iter().map(|r| algo.assign(&model, r)).collect();
    assert!(
        per_record == algo.assign_many(&model, batch),
        "the flat searcher must decide every record like the tree descent"
    );
    let names = [
        "CfTree::nearest per record",
        "flat searcher per batch",
        "of which building it",
    ];
    Ok((
        model.len(),
        model.tree_height(),
        time_assignment_paths(&algo, &model, batch, names),
    ))
}

/// Records of the KDD-98 analog behind the DenStream case (the base stream
/// of `denstream-kdd98-serve`).
const DENSTREAM_RECORDS: usize = 24_000;

/// Records per timed pass of the DenStream case (about one
/// `denstream-kdd98-serve` batch).
const DENSTREAM_QUERIES: usize = 2_500;

/// The DenStream case's findings.
struct DenStreamCase {
    micro_clusters: usize,
    dims: usize,
    /// Absorption tests the batch made, and how many of them the closed
    /// form left to the full radius sum.
    decisions: usize,
    exact: u64,
    paths: Paths,
}

/// The reference `assign` per record vs the searcher per batch over the
/// model a DenStream `init` leaves on the KDD-98 analog. Both must decide
/// every record alike.
fn denstream_case() -> Result<DenStreamCase> {
    let bundle = Bundle::new(DatasetKind::Kdd98, DENSTREAM_RECORDS, 0x5eed);
    let records = bundle.stress_records();
    let (init, stream) = records.split_at(bundle.init_records());
    let algo = bundle.denstream();
    let model = algo.init(init)?;
    let batch = &stream[..DENSTREAM_QUERIES.min(stream.len())];
    // The searcher counts its own fall-backs, on a telemetry counter and
    // only while telemetry is on: on for this one untimed pass.
    let counter = telemetry::counter(telemetry::names::METRIC_DENSTREAM_RADIUS_EXACT_TOTAL);
    let (was_enabled, before) = (telemetry::enabled(), counter.get());
    telemetry::set_enabled(true);
    let batched = algo.assign_many(&model, batch);
    telemetry::set_enabled(was_enabled);
    let exact = counter.get() - before;
    let per_record: Vec<_> = batch.iter().map(|r| algo.assign(&model, r)).collect();
    assert!(
        per_record == batched,
        "the screened searcher must decide every record like the full radius sum"
    );
    // One test per role that has a micro-cluster, potential first, until one
    // absorbs the record.
    let potential: Vec<_> = model.iter().filter(|(_, mc)| mc.potential).collect();
    let first = usize::from(!potential.is_empty());
    let both = first + usize::from(potential.len() < model.len());
    let decisions = batched
        .iter()
        .map(|assignment| match assignment {
            Assignment::Existing(id) if potential.iter().any(|(p, _)| *p == id) => first,
            _ => both,
        })
        .sum();
    let names = [
        "assign per record (full radius sum)",
        "searcher per batch (closed form)",
        "of which building it",
    ];
    Ok(DenStreamCase {
        micro_clusters: model.len(),
        dims: batch.first().map_or(0, |r| r.point.dims()),
        decisions,
        exact,
        paths: time_assignment_paths(&algo, &model, batch, names),
    })
}

pub(crate) fn kernel(_: &Cli) -> Result<bool> {
    let mut sink = 0.0;
    println!("# kernel microbench — {ROWS} centroids, {ITERS} scans per cell");
    for &dims in &DIMS {
        let mut gen = Gen(0x5eed ^ dims as u64);
        let mut kernel = CentroidKernel::with_capacity(ROWS, dims);
        for id in 0..ROWS {
            kernel.push_point(id as u64, &gen.point(dims));
        }
        let queries: Vec<Point> = (0..QUERIES).map(|_| gen.point(dims)).collect();
        let variants: [Variant; 3] = [
            ("nearest", |k, q| k.nearest(q)),
            // Filter half the rows: the shape assignment uses for
            // role-restricted scans (e.g. DenStream potential-first).
            ("filtered", |k, q| k.nearest_filtered(q, |i| i % 2 == 0)),
            ("squared", |k, q| k.nearest_squared(q)),
        ];
        for (name, scan) in variants {
            let (per_query, per_row, s) = time_variant(&kernel, &queries, scan);
            sink += s;
            println!("d={dims}\t{name}\t{per_query:.0} ns/query\t{per_row:.2} ns/point");
        }
    }
    let (c_rows, c_dims, clustered) = clustered_case()?;
    println!();
    println!(
        "# clustered case — {c_rows} x {c_dims}-d CluStream centroids, \
         {CLUSTERED_QUERIES} queries, median of {CLUSTERED_PASSES} passes"
    );
    for c in &clustered {
        println!(
            "{}\t{:.0} ns/query\t{:.1} % of rows evaluated",
            c.path,
            c.ns_per_query,
            c.evaluated_share * 100.0
        );
    }
    let (t_rows, t_height, tree_paths) = clustree_case()?;
    println!();
    println!(
        "# clustree case — {t_rows} micro-clusters, tree height {t_height}, \
         {CLUSTERED_QUERIES} records, median of {CLUSTERED_PASSES} passes"
    );
    for (path, ns) in &tree_paths {
        println!("{path}\t{ns:.0} ns/record");
    }
    let den = denstream_case()?;
    println!();
    println!(
        "# denstream case — {} micro-clusters x {}-d, {DENSTREAM_QUERIES} records, \
         median of {CLUSTERED_PASSES} passes",
        den.micro_clusters, den.dims
    );
    for (path, ns) in &den.paths {
        println!("{path}\t{ns:.0} ns/record");
    }
    println!(
        "exact radius sums\t{} of {} absorption tests ({:.3} %)",
        den.exact,
        den.decisions,
        den.exact as f64 * 100.0 / den.decisions.max(1) as f64
    );
    // Keep the accumulated distances observable so the scans cannot be
    // optimized away; NaN would indicate a broken kernel.
    assert!(sink.is_finite());
    Ok(true)
}
