//! The modeled matrix: records/sec and per-phase times for all four
//! algorithms at p ∈ {1, 2, 4, 8, 16} ([`PARALLELISMS`]), both pipelines,
//! every cell the median of [`REPETITIONS`] runs printed with its spread.
//!
//! Measurements use [`ExecutionMode::Simulated`], priced by nothing: every
//! task body really executes and is individually wall-timed, and the
//! reported step latency is the barrier makespan of those measured times
//! over `p` slots with no modeled overheads — the only way a 2-core host
//! can say anything about p = 16. What that model is worth is printed beside
//! it: at p ≤ [`WALL_MAX_PARALLELISM`] every cell also runs the same batches
//! on real threads ([`ExecutionMode::Threads`]) and the `sim/wall` column is
//! the modeled rate over the wall-clock rate of that job, clocked from its
//! first record past initialization to its end: ingest, batching, the driver
//! and the global update the overlapped *model* hides are all in it.
//!
//! Nothing here is compared with a committed number. The one thing the run
//! asserts about itself is host-independent: CluStream at p = 4 runs at
//! least [`OVERLAP_WIN_FACTOR`]× faster overlapped than synchronous *within
//! this run* ([`overlap_verdict`]); `repro matrix` exits non-zero iff that
//! fails. See DESIGN.md §9 for who owns every other check.

use std::time::Instant;

use diststream_core::{DistStreamJob, PipelineOptions, StreamClustering};
use diststream_engine::{ExecutionMode, RecordSource, RepeatSource, StreamingContext};
use diststream_types::{ClusteringConfig, DistStreamError, Record, Result};

use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::overload::measure_overload;
use crate::report::{fmt_f64, print_table, Table, MODELED_ROWS_NOTE};
use crate::serving::{measure_serving, READER_THREADS, SERVING_PARALLELISM};

/// Pipeline label for the paper's synchronous configuration.
pub(crate) const PIPELINE_SYNC: &str = "sync";

/// Pipeline label for the overlapped configuration (prefetch + combine +
/// chunk scheduling + asynchronous update protocol).
pub(crate) const PIPELINE_OVERLAPPED: &str = "overlapped";

/// Parallelism degrees measured for every algorithm.
pub(crate) const PARALLELISMS: [usize; 5] = [1, 2, 4, 8, 16];

/// Highest degree that also runs on real threads: the cores of the
/// smallest host this is expected to say something true on.
const WALL_MAX_PARALLELISM: usize = 2;

/// Runs per cell; the median is reported, the rest is its spread.
const REPETITIONS: usize = 5;

/// What the overlapped pipeline must win over the synchronous one at
/// CluStream p = 4, both medians taken from the same run.
const OVERLAP_WIN_FACTOR: f64 = 1.25;

/// Mini-batch width used by every matrix run.
pub(crate) const BATCH_SECS: f64 = 1.0;

/// The stream every cell runs: the KDD-99 analog, replayed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Workload {
    /// Generated records in the base stream.
    pub records: usize,
    /// Stream replays per run (as the paper's `large-*` stress sets do).
    pub rounds: usize,
    /// Dataset generation seed.
    pub seed: u64,
}

impl Workload {
    /// The matrix workload, with whatever the command line overrode.
    pub(crate) fn from_cli(cli: &Cli) -> Workload {
        Workload {
            records: cli.records.unwrap_or(12_000),
            rounds: cli.rounds.unwrap_or(3),
            seed: cli.seed,
        }
    }

    pub(crate) fn bundle(&self) -> Bundle {
        Bundle::new(DatasetKind::Kdd99, self.records, self.seed)
    }
}

/// Evaluates `$body` once per tuned algorithm of `$bundle`, with `$algo`
/// bound to it, in the order every table lists them.
macro_rules! four_algorithms {
    ($bundle:expr, |$algo:ident| $body:expr) => {{
        let bundle: &Bundle = $bundle;
        [
            {
                let $algo = &bundle.clustream();
                $body
            },
            {
                let $algo = &bundle.denstream();
                $body
            },
            {
                let $algo = &bundle.dstream();
                $body
            },
            {
                let $algo = &bundle.clustree();
                $body
            },
        ]
    }};
}
pub(crate) use four_algorithms;

/// One run of one cell.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    algo: String,
    /// Records processed (post-initialization).
    records: usize,
    /// Sum of assignment-step makespans.
    assignment_secs: f64,
    /// Sum of local-update-step makespans.
    local_secs: f64,
    /// Sum of driver-side global-update seconds.
    global_secs: f64,
    /// Sum of batch critical-path seconds.
    total_secs: f64,
    /// Wall-clock seconds from the first post-initialization record pulled
    /// to the end of the job.
    elapsed_secs: f64,
}

fn rate(records: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        records as f64 / secs
    } else {
        0.0
    }
}

/// The replayed stream, noting when the job pulls its first record past the
/// initialization prefix: where the wall clock of a run starts, so that it
/// covers the batches the modeled rate covers and nothing else.
struct Stream {
    records: RepeatSource,
    init_left: usize,
    streaming_since: Option<Instant>,
}

impl RecordSource for Stream {
    fn next_record(&mut self) -> Option<Record> {
        match self.init_left.checked_sub(1) {
            Some(left) => self.init_left = left,
            None => {
                self.streaming_since.get_or_insert_with(Instant::now);
            }
        }
        self.records.next_record()
    }

    fn len_hint(&self) -> Option<usize> {
        self.records.len_hint()
    }
}

fn measure<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
    workload: &Workload,
    p: usize,
    mode: ExecutionMode,
    options: PipelineOptions,
) -> Result<Sample> {
    let ctx = StreamingContext::new(p, mode)?;
    let config = ClusteringConfig::builder().batch_secs(BATCH_SECS).build()?;
    let mut job = DistStreamJob::new(algo, &ctx, config);
    job.init_records(bundle.init_records()).pipeline(options);
    let mut assignment_secs = 0.0;
    let mut local_secs = 0.0;
    let mut global_secs = 0.0;
    let mut stream = Stream {
        records: RepeatSource::new(bundle.stress_records(), workload.rounds),
        init_left: bundle.init_records(),
        streaming_since: None,
    };
    let result = job.run(&mut stream, |report| {
        let m = &report.outcome.metrics;
        assignment_secs += m.assignment.wall_secs();
        local_secs += m.local.wall_secs();
        global_secs += m.global_secs;
    })?;
    let elapsed_secs = stream
        .streaming_since
        .map_or(0.0, |since| since.elapsed().as_secs_f64());
    Ok(Sample {
        algo: algo.name().to_string(),
        records: result.meter.records(),
        assignment_secs,
        local_secs,
        global_secs,
        total_secs: result.meter.secs(),
        elapsed_secs,
    })
}

/// Median (upper, of an even count) and `(max − min) / median` of `values`.
fn median_and_spread(mut values: Vec<f64>) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let median = values.get(values.len() / 2).copied().unwrap_or(0.0);
    let range = values.last().unwrap_or(&0.0) - values.first().unwrap_or(&0.0);
    (median, if median > 0.0 { range / median } else { 0.0 })
}

/// One repetition of one `(algorithm, pipeline, parallelism)` cell: the
/// modeled run and, up to [`WALL_MAX_PARALLELISM`], the wall-clock rate of
/// the same job on real threads.
#[derive(Debug, Clone, PartialEq)]
struct Measured {
    pipeline: &'static str,
    parallelism: usize,
    sim: Sample,
    wall_rate: Option<f64>,
}

impl Measured {
    fn sim_rate(&self) -> f64 {
        rate(self.sim.records, self.sim.total_secs)
    }
}

/// One printed cell: the fold of its repetitions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    pub pipeline: &'static str,
    pub parallelism: usize,
    /// Median modeled throughput over the batch critical path.
    pub records_per_sec: f64,
    /// `(max − min) / median` of the repetitions' modeled throughput.
    pub spread: f64,
    /// The repetition whose throughput is the median: its algorithm label
    /// and phases are the row's.
    median_run: Sample,
    /// Median and spread of modeled over wall-clock rate, repetition by
    /// repetition; `None` above [`WALL_MAX_PARALLELISM`].
    pub sim_over_wall: Option<(f64, f64)>,
}

impl Row {
    /// Folds the repetitions of one cell (at least one).
    fn of(mut runs: Vec<&Measured>) -> Row {
        let ratios: Vec<f64> = runs
            .iter()
            .filter_map(|m| Some(m.sim_rate() / m.wall_rate?.max(f64::MIN_POSITIVE)))
            .collect();
        let (records_per_sec, spread) =
            median_and_spread(runs.iter().map(|m| m.sim_rate()).collect());
        runs.sort_by(|a, b| a.sim_rate().total_cmp(&b.sim_rate()));
        let median = runs[runs.len() / 2];
        Row {
            pipeline: median.pipeline,
            parallelism: median.parallelism,
            records_per_sec,
            spread,
            median_run: median.sim.clone(),
            sim_over_wall: (!ratios.is_empty()).then(|| median_and_spread(ratios)),
        }
    }
}

/// Runs every cell once: [`PARALLELISMS`] × `pipelines` × four algorithms,
/// always in that order.
fn run_repetition(
    bundle: &Bundle,
    workload: &Workload,
    pipelines: &[(&'static str, PipelineOptions)],
) -> Result<Vec<Measured>> {
    let mut cells = Vec::new();
    for &p in &PARALLELISMS {
        for &(pipeline, options) in pipelines {
            let run = |mode| {
                four_algorithms!(bundle, |algo| measure(
                    algo, bundle, workload, p, mode, options
                ))
            };
            let sims = run(ExecutionMode::Simulated);
            let mut walls = (p <= WALL_MAX_PARALLELISM)
                .then(|| run(ExecutionMode::Threads))
                .into_iter()
                .flatten();
            for sim in sims {
                let wall = walls.next().transpose()?;
                cells.push(Measured {
                    pipeline,
                    parallelism: p,
                    sim: sim?,
                    wall_rate: wall.map(|w| rate(w.records, w.elapsed_secs)),
                });
            }
        }
    }
    Ok(cells)
}

/// Cell `k` of every repetition becomes row `k`. Repetitions are the outer
/// loop of the run so that a slow stretch of the host lands on one
/// repetition of every cell rather than on every repetition of one.
fn fold(repetitions: &[Vec<Measured>]) -> Vec<Row> {
    let cells = repetitions.first().map_or(0, Vec::len);
    (0..cells)
        .map(|k| Row::of(repetitions.iter().map(|rep| &rep[k]).collect()))
        .collect()
}

/// The one timing fact the run asserts about itself: the ratio of the
/// CluStream p = 4 medians, overlapped over synchronous, and whether it
/// reaches [`OVERLAP_WIN_FACTOR`]. `Ok(None)` when only one pipeline was
/// measured (`--pipeline`): there is nothing to compare.
///
/// # Errors
///
/// A run over both pipelines that lacks either cell cannot be judged.
pub(crate) fn overlap_verdict(rows: &[Row], pipelines: usize) -> Result<Option<(f64, bool)>> {
    if pipelines < 2 {
        return Ok(None);
    }
    let median = |pipeline: &str| {
        rows.iter()
            .find(|r| {
                r.median_run.algo == "clustream" && r.pipeline == pipeline && r.parallelism == 4
            })
            .map(|r| r.records_per_sec)
            .filter(|&rps| rps > 0.0)
            .ok_or_else(|| {
                DistStreamError::Engine(format!(
                    "overlap verdict: no clustream p=4 {pipeline} cell in this run"
                ))
            })
    };
    let ratio = median(PIPELINE_OVERLAPPED)? / median(PIPELINE_SYNC)?;
    Ok(Some((ratio, ratio >= OVERLAP_WIN_FACTOR)))
}

fn print_rows(workload: &Workload, rows: &[Row]) {
    let mut table = Table::new([
        "algorithm",
        "pipeline",
        "p",
        "records",
        "records/s",
        "spread",
        "local rec/s",
        "assign s",
        "local s",
        "global s",
        "sim/wall",
    ]);
    for row in rows {
        let run = &row.median_run;
        table.row([
            run.algo.clone(),
            row.pipeline.to_string(),
            row.parallelism.to_string(),
            run.records.to_string(),
            fmt_f64(row.records_per_sec, 1),
            format!("±{:.0}%", 100.0 * row.spread),
            fmt_f64(rate(run.records, run.local_secs), 1),
            fmt_f64(run.assignment_secs, 3),
            fmt_f64(run.local_secs, 3),
            fmt_f64(run.global_secs, 3),
            row.sim_over_wall.map_or(String::new(), |(ratio, spread)| {
                format!("{ratio:.2} ±{:.0}%", 100.0 * spread)
            }),
        ]);
    }
    print_table(
        &format!(
            "The modeled matrix ({} on {} records x {} rounds; every cell the median of {} \
             repetitions, spread = (max - min) / median; sim/wall = modeled rate over the \
             wall-clock rate of the same job on real threads, p <= {} only)",
            DatasetKind::Kdd99.name(),
            workload.records,
            workload.rounds,
            REPETITIONS,
            WALL_MAX_PARALLELISM,
        ),
        &table,
    );
    println!("{MODELED_ROWS_NOTE}");
}

/// `repro matrix`: the table, the two report sections (overload, serving —
/// printed, not judged: their pass/fail belongs to the tests DESIGN.md §9
/// names), and the verdict, which is the return value.
///
/// # Errors
///
/// Propagates engine failures; a both-pipelines run that cannot be judged.
pub(crate) fn matrix(cli: &Cli) -> Result<bool> {
    let workload = Workload::from_cli(cli);
    let bundle = workload.bundle();
    let pipelines: Vec<(&'static str, PipelineOptions)> = [
        (PIPELINE_SYNC, PipelineOptions::sync()),
        (PIPELINE_OVERLAPPED, PipelineOptions::all()),
    ]
    .into_iter()
    .filter(|(label, _)| cli.pipeline.as_deref().is_none_or(|only| only == *label))
    .collect();

    let repetitions = (0..REPETITIONS)
        .map(|_| run_repetition(&bundle, &workload, &pipelines))
        .collect::<Result<Vec<_>>>()?;
    let rows = fold(&repetitions);
    print_rows(&workload, &rows);

    let o = measure_overload(&bundle)?;
    println!(
        "overload (capacity {}/batch, {:.2}s windows): shed {:.1}% — latency approx {:.2}s vs \
         exact {:.2}s (target {:.2}s), purity delta {:.4} within bound {:.4}, ssq delta {:+.3}, \
         {} measured / {} vacuous batches, digest {:016x} (p1 == p4)",
        o.capacity_per_batch,
        o.batch_secs,
        100.0 * o.shed_fraction,
        o.approx_latency_secs,
        o.exact_latency_secs,
        o.target_latency_secs,
        o.purity_delta,
        o.error_bound,
        o.ssq_delta,
        o.measured_batches,
        o.vacuous_batches,
        o.model_digest_p1,
    );
    let s = measure_serving(&bundle, workload.rounds)?;
    println!(
        "serving (p={SERVING_PARALLELISM}, {READER_THREADS} readers): {} predicts in {:.2}s \
         streaming — {:.0} predict/s, {} epochs published (final {})",
        s.predicts_total, s.streaming_secs, s.predict_qps, s.epochs_published, s.final_epoch,
    );

    Ok(match overlap_verdict(&rows, pipelines.len())? {
        None => true,
        Some((ratio, pass)) => {
            println!(
                "verdict: clustream p=4 overlapped/sync = {ratio:.2}x within this run \
                 (required {OVERLAP_WIN_FACTOR}x) — {}",
                if pass { "PASS" } else { "FAIL" }
            );
            pass
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A repetition that modeled `records_per_sec` (a whole number: one
    /// second's worth of records) and, if `wall_rate` is given, measured
    /// that on real threads.
    fn measured(
        algo: &str,
        pipeline: &'static str,
        parallelism: usize,
        records_per_sec: f64,
        wall_rate: Option<f64>,
    ) -> Measured {
        Measured {
            pipeline,
            parallelism,
            sim: Sample {
                algo: algo.into(),
                records: records_per_sec as usize,
                assignment_secs: 0.0,
                local_secs: 0.0,
                global_secs: 1.0,
                total_secs: 1.0,
                elapsed_secs: 0.0,
            },
            wall_rate,
        }
    }

    fn row(algo: &str, pipeline: &'static str, parallelism: usize, records_per_sec: f64) -> Row {
        Row::of(vec![&measured(
            algo,
            pipeline,
            parallelism,
            records_per_sec,
            None,
        )])
    }

    fn rows(sync: f64, overlapped: f64) -> Vec<Row> {
        vec![
            // Decoys: other algorithm, other degree.
            row("denstream", PIPELINE_OVERLAPPED, 4, 1.0),
            row("clustream", PIPELINE_OVERLAPPED, 8, 1.0),
            row("clustream", PIPELINE_SYNC, 4, sync),
            row("clustream", PIPELINE_OVERLAPPED, 4, overlapped),
        ]
    }

    #[test]
    fn verdict_is_the_ratio_of_the_two_clustream_p4_medians() {
        assert_eq!(
            overlap_verdict(&rows(100.0, 124.0), 2).unwrap(),
            Some((1.24, false))
        );
        assert_eq!(
            overlap_verdict(&rows(100.0, 125.0), 2).unwrap(),
            Some((1.25, true))
        );
        assert_eq!(
            overlap_verdict(&rows(200_000.0, 310_000.0), 2).unwrap(),
            Some((1.55, true))
        );
    }

    #[test]
    fn a_run_restricted_to_one_pipeline_has_no_verdict() {
        let sync_only = vec![row("clustream", PIPELINE_SYNC, 4, 100.0)];
        assert_eq!(overlap_verdict(&sync_only, 1).unwrap(), None);
        assert_eq!(overlap_verdict(&[], 1).unwrap(), None);
    }

    #[test]
    fn a_both_pipelines_run_missing_either_cell_is_an_error() {
        let mut missing_sync = rows(100.0, 150.0);
        missing_sync.remove(2);
        let err = overlap_verdict(&missing_sync, 2).unwrap_err().to_string();
        assert!(err.contains("p=4 sync"), "{err}");
        let mut missing_overlapped = rows(100.0, 150.0);
        missing_overlapped.pop();
        let err = overlap_verdict(&missing_overlapped, 2)
            .unwrap_err()
            .to_string();
        assert!(err.contains("p=4 overlapped"), "{err}");
        // A cell that measured nothing is as good as missing.
        assert!(overlap_verdict(&rows(0.0, 150.0), 2).is_err());
    }

    #[test]
    fn median_is_the_middle_run_and_spread_its_relative_range() {
        assert_eq!(
            median_and_spread(vec![5.0, 1.0, 4.0, 2.0, 3.0]),
            (3.0, 4.0 / 3.0)
        );
        assert_eq!(median_and_spread(vec![7.0]), (7.0, 0.0));
        assert_eq!(median_and_spread(Vec::new()), (0.0, 0.0));
    }

    #[test]
    fn fold_takes_cell_k_of_every_repetition() {
        let repetition = |a: f64, b: f64, wall: f64| {
            vec![
                measured("clustream", PIPELINE_SYNC, 1, a, Some(wall)),
                measured("clustream", PIPELINE_SYNC, 4, b, None),
            ]
        };
        let rows = fold(&[
            repetition(100.0, 500.0, 50.0),
            repetition(400.0, 250.0, 100.0),
            repetition(200.0, 1000.0, 200.0),
        ]);
        assert_eq!(rows.len(), 2);
        let (p1, p4) = (&rows[0], &rows[1]);
        assert_eq!((p1.parallelism, p4.parallelism), (1, 4));
        assert_eq!((p1.records_per_sec, p1.spread), (200.0, 1.5));
        assert_eq!((p4.records_per_sec, p4.spread), (500.0, 1.5));
        // The phase columns are the median repetition's own.
        assert_eq!((p1.median_run.records, p4.median_run.records), (200, 500));
        // sim/wall pairs each repetition with its own wall run: 2, 4, 1.
        assert_eq!(p1.sim_over_wall, Some((2.0, 1.5)));
        assert_eq!(p4.sim_over_wall, None);
        assert!(fold(&[]).is_empty());
    }

    #[test]
    fn tiny_matrix_repetition_measures_every_cell_with_its_audit() {
        let workload = Workload {
            records: 400,
            rounds: 1,
            seed: 7,
        };
        let pipelines = [
            (PIPELINE_SYNC, PipelineOptions::sync()),
            (PIPELINE_OVERLAPPED, PipelineOptions::all()),
        ];
        let cells = run_repetition(&workload.bundle(), &workload, &pipelines).unwrap();
        assert_eq!(cells.len(), 4 * PARALLELISMS.len() * 2);
        for m in &cells {
            assert!(m.sim.records > 0, "{} p={}", m.sim.algo, m.parallelism);
            assert!(m.sim_rate() > 0.0);
            assert_eq!(
                m.wall_rate.is_some(),
                m.parallelism <= WALL_MAX_PARALLELISM,
                "{} {} p={}",
                m.sim.algo,
                m.pipeline,
                m.parallelism
            );
            assert!(m.wall_rate.is_none_or(|wall| wall > 0.0));
        }
        // Every algorithm appears at every degree, in both pipelines.
        let rows = fold(&[cells]);
        for &p in &PARALLELISMS {
            for algo in ["clustream", "denstream", "dstream", "clustree"] {
                for pipeline in [PIPELINE_SYNC, PIPELINE_OVERLAPPED] {
                    assert!(rows.iter().any(|r| r.median_run.algo == algo
                        && r.parallelism == p
                        && r.pipeline == pipeline));
                }
            }
        }
        assert!(overlap_verdict(&rows, 2).unwrap().is_some());
    }
}
