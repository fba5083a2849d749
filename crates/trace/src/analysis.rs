//! Per-batch span-DAG construction, critical-path extraction, and the
//! run-level blame table.
//!
//! Every mini-batch's `batch_summary` point carries the three critical-path
//! components the executor measured (`assignment_secs`, `local_secs`,
//! `global_secs`) plus the protocol flag; [`BatchRecord::from_point`] reads
//! it back. The batch's dependency DAG is fixed by the protocol:
//!
//! ```text
//! sync:   ingest → assignment → local_update → global_update  (chain)
//! async:  ingest → assignment → local_update ─┐
//!                   global_update(B−1)       ─┴→ barrier      (diamond)
//! ```
//!
//! so the critical path is the chain of all three batch phases under the
//! synchronous protocol, and the *longer arm* of the diamond (parallel
//! steps vs. the overlapped global update) under the asynchronous one. Ingest never appears on a batch's critical path —
//! the batcher drains the source between batch spans (or a prefetch worker
//! hides it entirely) — so it is reported as a wall-side row computed from
//! the journal's span layout, not from `batch_summary`.
//!
//! The same goes for the driver's own record handling around the two
//! parallel steps (`assign_driver_secs`, `local_driver_secs`): measured, in
//! both execution modes, but outside the modeled critical path — so it is
//! a second wall-side row, `driver`.
//!
//! One level below phase, the driver-side global update is tiled by four
//! sub-spans (the model's copy-on-write, ordering, pre-merge,
//! `apply_global`); their journaled span time is summed per run and
//! rendered beneath the `global_update` row.
//!
//! Before any of that, each job's `init` span is its set-up: the serial
//! model initialization ahead of its first batch. It is on no batch's
//! critical path, so it is reported as one set-up line above the table and
//! taken out of the driver-thread gap it sits in, which would otherwise
//! read as ingest.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use diststream_telemetry::names::{POINT_BATCH_SUMMARY, POINT_TASK_DURATION};
use diststream_telemetry::record::BatchRecord;
use diststream_telemetry::time_model::{batch_critical_path, reconcile_tolerance, GLOBAL_SUBSPANS};

use crate::parse::{EventKind, Journal, ParseError};

/// Blame-table labels of the [`GLOBAL_SUBSPANS`], in the same order.
const GLOBAL_SUBSPAN_LABELS: [&str; GLOBAL_SUBSPANS.len()] =
    ["copy-on-write", "ordering", "pre-merge", "apply_global"];

/// A critical-path phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Source drain / reorder ahead of the batch (wall-side only).
    Ingest,
    /// Step 1: record-based parallel assignment.
    Assignment,
    /// Step 2: model-based parallel local update.
    LocalUpdate,
    /// Step 3: driver-side global update.
    GlobalUpdate,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 4] = [
        Phase::Ingest,
        Phase::Assignment,
        Phase::LocalUpdate,
        Phase::GlobalUpdate,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Ingest => "ingest",
            Phase::Assignment => "assignment",
            Phase::LocalUpdate => "local_update",
            Phase::GlobalUpdate => "global_update",
        }
    }
}

/// One critical-path segment of a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Segment {
    /// Which phase the time is charged to.
    pub phase: Phase,
    /// Seconds on the critical path.
    pub secs: f64,
}

/// Per-batch event-time latency percentiles, from the `record_latency`
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyDigest {
    /// Records covered.
    pub records: f64,
    /// Mean latency, seconds.
    pub mean_secs: f64,
    /// Median latency, seconds.
    pub p50_secs: f64,
    /// 95th percentile latency, seconds.
    pub p95_secs: f64,
    /// 99th percentile latency, seconds.
    pub p99_secs: f64,
}

/// Everything the journal recorded about one mini-batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchProfile {
    /// The batch as the run recorded it, its tasks included.
    pub record: BatchRecord,
    /// The `total_secs` the batch was journaled with.
    pub total_secs: f64,
    /// Event-time latency percentiles, when journaled.
    pub latency: Option<LatencyDigest>,
}

impl BatchProfile {
    /// The batch's critical path, in execution order: the phases on
    /// [`batch_critical_path`]'s path — the parallel steps, the global
    /// update, or both.
    pub(crate) fn critical_path(&self) -> Vec<Segment> {
        let r = &self.record;
        let (assignment, local) = (r.assignment.wall_secs(), r.local.wall_secs());
        let path = batch_critical_path(assignment + local, r.global_secs, r.async_overlap);
        let seg = |phase, secs| Segment { phase, secs };
        let mut segments = Vec::with_capacity(3);
        if path.parallel {
            segments.push(seg(Phase::Assignment, assignment));
            segments.push(seg(Phase::LocalUpdate, local));
        }
        if path.global {
            segments.push(seg(Phase::GlobalUpdate, r.global_secs));
        }
        segments
    }

    /// Checks that the record's critical path reproduces the journaled
    /// wall time within [`reconcile_tolerance`]. Returns the (path sum,
    /// recorded total) pair on failure.
    pub fn reconcile(&self) -> Result<(), (f64, f64)> {
        let path = self.record.total_secs();
        if (path - self.total_secs).abs() > reconcile_tolerance(self.total_secs) {
            Err((path, self.total_secs))
        } else {
            Ok(())
        }
    }
}

/// A whole run's profile: every batch plus journal-level context.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunProfile {
    /// Batches in journal order (a journal holding several back-to-back
    /// runs repeats batch indices; see [`analyze`]).
    pub batches: Vec<BatchProfile>,
    /// Wall-side ingest seconds: prefetch span time plus driver-thread gaps
    /// between consecutive batch spans (source drain in the unprefetched
    /// pipeline). Not part of any batch's critical path.
    pub ingest_secs: f64,
    /// Events the journal lost (from the `drops` trailer). A non-zero
    /// value means every number here is a lower bound.
    pub drops: u64,
    /// Span seconds inside the driver-side global update, one entry per
    /// [`GLOBAL_SUBSPANS`] row (all zero for a run without global updates).
    pub global_sub_secs: [f64; GLOBAL_SUBSPANS.len()],
    /// `init` spans in the journal: one per job that initialised a model.
    pub inits: usize,
    /// Their summed seconds — serial set-up, outside every batch.
    pub init_secs: f64,
}

impl RunProfile {
    /// Sum of recorded batch wall times.
    pub fn total_secs(&self) -> f64 {
        self.batches.iter().map(|b| b.total_secs).sum()
    }

    /// The set-up line printed above the blame table, or `None` for a
    /// journal without `init` spans.
    pub fn setup_line(&self) -> Option<String> {
        (self.inits > 0).then(|| {
            format!(
                "set-up: {} init span(s), {:.6}s serial before the first batch of each job",
                self.inits, self.init_secs
            )
        })
    }

    /// Builds the run-level blame table from every batch's critical path.
    pub fn blame(&self) -> BlameTable {
        let mut rows: Vec<BlameRow> = Phase::ALL
            .iter()
            .map(|&phase| BlameRow {
                phase,
                secs: 0.0,
                batches_on_path: 0,
            })
            .collect();
        for batch in &self.batches {
            for segment in batch.critical_path() {
                let row = rows
                    .iter_mut()
                    .find(|r| r.phase == segment.phase)
                    .expect("Phase::ALL covers every segment phase");
                row.secs += segment.secs;
                row.batches_on_path += 1;
            }
        }
        if let Some(row) = rows.iter_mut().find(|r| r.phase == Phase::Ingest) {
            row.secs = self.ingest_secs;
        }
        BlameTable {
            rows,
            critical_secs: self.total_secs(),
            batches: self.batches.len(),
            global_sub_secs: self.global_sub_secs,
            driver_secs: self
                .batches
                .iter()
                .map(|b| b.record.assign_driver_secs + b.record.local_driver_secs)
                .sum(),
        }
    }
}

/// One blame-table row: a phase's aggregate critical-path time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlameRow {
    /// The phase.
    pub phase: Phase,
    /// Total seconds this phase spent on batch critical paths (wall-side
    /// seconds for [`Phase::Ingest`]).
    pub secs: f64,
    /// Batches whose critical path included this phase.
    pub batches_on_path: usize,
}

/// The run-level blame table: where the wall time went.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameTable {
    /// Rows in pipeline order ([`Phase::ALL`]).
    pub rows: Vec<BlameRow>,
    /// Sum of recorded batch wall times (the denominator for shares).
    pub critical_secs: f64,
    /// Batches in the run.
    pub batches: usize,
    /// Span seconds of each [`GLOBAL_SUBSPANS`] row, rendered beneath the
    /// `global_update` phase.
    pub global_sub_secs: [f64; GLOBAL_SUBSPANS.len()],
    /// Wall-side seconds of driver record handling around the parallel
    /// steps (`assign_driver_secs` + `local_driver_secs`, summed over
    /// batches), rendered as the `driver` row beneath `local_update`.
    pub driver_secs: f64,
}

impl BlameTable {
    /// The dominant phase: the largest critical-path row (ingest excluded —
    /// it is wall-side context, not critical-path time). `None` for an
    /// empty run.
    pub fn dominant(&self) -> Option<Phase> {
        self.rows
            .iter()
            .filter(|r| r.phase != Phase::Ingest)
            .max_by(|a, b| a.secs.total_cmp(&b.secs))
            .filter(|r| r.secs > 0.0)
            .map(|r| r.phase)
    }

    /// A row by phase.
    pub fn row(&self, phase: Phase) -> Option<&BlameRow> {
        self.rows.iter().find(|r| r.phase == phase)
    }

    /// Renders the table for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>8} {:>10}",
            "phase", "path secs", "share", "on path"
        );
        for row in &self.rows {
            let share = if self.critical_secs > 0.0 && row.phase != Phase::Ingest {
                format!("{:.1}%", 100.0 * row.secs / self.critical_secs)
            } else {
                "-".to_string()
            };
            let on_path = if row.phase == Phase::Ingest {
                "wall".to_string()
            } else {
                format!("{}/{}", row.batches_on_path, self.batches)
            };
            let _ = writeln!(
                out,
                "{:<14} {:>12.6} {:>8} {:>10}",
                row.phase.name(),
                row.secs,
                share,
                on_path
            );
            if row.phase == Phase::LocalUpdate && self.driver_secs > 0.0 {
                let _ = writeln!(
                    out,
                    "{:<14} {:>12.6} {:>8} {:>10}",
                    "driver", self.driver_secs, "-", "wall"
                );
            }
            if row.phase == Phase::GlobalUpdate {
                self.render_global_breakdown(&mut out);
            }
        }
        if let Some(dominant) = self.dominant() {
            let _ = writeln!(out, "dominant phase: {}", dominant.name());
        }
        out
    }

    /// One indented row per global-update sub-span: its span seconds and
    /// its share of the four together. Span time, not critical-path time —
    /// under the asynchronous protocol the phase may be off the path.
    fn render_global_breakdown(&self, out: &mut String) {
        let phase_secs: f64 = self.global_sub_secs.iter().sum();
        if phase_secs <= 0.0 {
            return;
        }
        for (label, secs) in GLOBAL_SUBSPAN_LABELS.iter().zip(self.global_sub_secs) {
            let _ = writeln!(
                out,
                "  {:<13}{:>12.6} {:>8} {:>10}",
                label,
                secs,
                format!("{:.1}%", 100.0 * secs / phase_secs),
                "of phase"
            );
        }
    }
}

/// Builds a [`RunProfile`] from a parsed journal.
///
/// Batches come from `batch_summary` points and their tasks from
/// `task_duration` points, both read by [`BatchRecord`]; latency
/// percentiles from `record_latency` points; wall-side ingest from
/// `prefetch` spans plus the gaps between consecutive `batch` spans on each
/// thread that runs them.
///
/// # Errors
///
/// Names the batch and the field of a `batch_summary` or `task_duration`
/// point the record cannot be read from.
pub fn analyze(journal: &Journal) -> Result<RunProfile, ParseError> {
    let mut profile = RunProfile {
        drops: journal.drops,
        ..RunProfile::default()
    };
    let refuse = |batch: u64, message: String| ParseError {
        line: 0,
        message: format!("batch {batch}: {message}"),
    };

    // A journal may hold several runs back-to-back (the bench harness
    // traces its whole matrix into one file), so batch indices repeat.
    // Points therefore attach by *occurrence* in journal order: each
    // `batch_summary` opens a new occurrence of its index, `task_duration`
    // points follow their summary (the driver emits them right after it),
    // and `record_latency` precedes its summary under the synchronous
    // protocol (buffered until the summary arrives) but follows it under
    // the asynchronous one (attached to the still-latency-less occurrence).
    let mut current: BTreeMap<u64, usize> = BTreeMap::new();
    let mut pending_latency: BTreeMap<u64, LatencyDigest> = BTreeMap::new();
    for point in journal.events.iter().filter(|e| e.kind == EventKind::Point) {
        let field = |key: &str| point.field(key);
        let Some(batch) = point.batch else { continue };
        match point.name.as_str() {
            POINT_BATCH_SUMMARY => {
                let (record, total_secs) =
                    BatchRecord::from_point(batch, field).map_err(|e| refuse(batch, e))?;
                current.insert(batch, profile.batches.len());
                profile.batches.push(BatchProfile {
                    record,
                    total_secs,
                    latency: pending_latency.remove(&batch),
                });
            }
            POINT_TASK_DURATION => {
                if let Some(&pos) = current.get(&batch) {
                    profile.batches[pos]
                        .record
                        .push_task(field)
                        .map_err(|e| refuse(batch, e))?;
                }
            }
            "record_latency" => {
                let get = |key: &str| field(key).unwrap_or(0.0);
                let digest = LatencyDigest {
                    records: get("records"),
                    mean_secs: get("mean_secs"),
                    p50_secs: get("p50_secs"),
                    p95_secs: get("p95_secs"),
                    p99_secs: get("p99_secs"),
                };
                match current.get(&batch).map(|&pos| &mut profile.batches[pos]) {
                    Some(open) if open.latency.is_none() => open.latency = Some(digest),
                    _ => {
                        pending_latency.insert(batch, digest);
                    }
                }
            }
            _ => {}
        }
    }

    for close in journal.events.iter().filter(|e| e.kind == EventKind::Close) {
        if close.name == "init" {
            profile.inits += 1;
            profile.init_secs += close.dur_us as f64 / 1e6;
        }
        let row = GLOBAL_SUBSPANS.iter().position(|span| *span == close.name);
        if let Some(slot) = row.and_then(|row| profile.global_sub_secs.get_mut(row)) {
            *slot += close.dur_us as f64 / 1e6;
        }
    }

    profile.ingest_secs = ingest_secs(journal);
    Ok(profile)
}

/// Wall-side ingest estimate: total `prefetch` span time, plus on each
/// thread the gaps between a `batch` span's close and the next `batch`
/// span's open (where the unprefetched batcher drains the source), less any
/// `init` span inside the gap (the next job's set-up).
fn ingest_secs(journal: &Journal) -> f64 {
    let mut total_us: u64 = 0;
    // (thread, close t_us, init us since) of the last batch span seen.
    let mut last_batch_close: Vec<(u64, u64, u64)> = Vec::new();
    for event in &journal.events {
        if event.kind != EventKind::Close && event.kind != EventKind::Open {
            continue;
        }
        if event.name == "prefetch" && event.kind == EventKind::Close {
            total_us += event.dur_us;
            continue;
        }
        if event.name == "init" && event.kind == EventKind::Close {
            if let Some(gap) = last_batch_close
                .iter_mut()
                .find(|(t, _, _)| *t == event.thread)
            {
                gap.2 += event.dur_us;
            }
            continue;
        }
        if event.name != "batch" {
            continue;
        }
        match event.kind {
            EventKind::Open => {
                if let Some(pos) = last_batch_close
                    .iter()
                    .position(|(t, _, _)| *t == event.thread)
                {
                    let (_, closed_at, init_us) = last_batch_close.swap_remove(pos);
                    total_us += event.t_us.saturating_sub(closed_at).saturating_sub(init_us);
                }
            }
            EventKind::Close => {
                last_batch_close.retain(|(t, _, _)| *t != event.thread);
                last_batch_close.push((event.thread, event.t_us, 0));
            }
            EventKind::Point => {}
        }
    }
    total_us as f64 / 1e6
}

/// Multiset of span names in the journal (open events), sorted — a
/// structure fingerprint that must be invariant across parallelism degrees
/// and repeated runs of the same workload.
pub fn span_multiset(journal: &Journal) -> Vec<(String, usize)> {
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for event in &journal.events {
        if event.kind == EventKind::Open {
            *counts.entry(event.name.as_str()).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .map(|(name, count)| (name.to_string(), count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_journal;
    use diststream_telemetry::record::StepMetrics;

    const META: &str = "{\"ev\":\"meta\",\"version\":2,\"clock\":\"monotonic-us\"}";

    /// A version-2 `batch_summary` line with no driver seconds.
    fn summary(batch: u64, asg: f64, local: f64, global: f64, overlap: bool) -> String {
        summary_with_driver(batch, asg, local, global, overlap, (0.0, 0.0))
    }

    fn summary_with_driver(
        batch: u64,
        asg: f64,
        local: f64,
        global: f64,
        overlap: bool,
        (assign_driver, local_driver): (f64, f64),
    ) -> String {
        let total = batch_critical_path(asg + local, global, overlap).secs;
        format!(
            "{{\"ev\":\"point\",\"name\":\"batch_summary\",\"thread\":0,\"seq\":{seq},\"t_us\":{seq},\"batch\":{batch},\
             \"records\":100.0,\"assignment_secs\":{asg},\"local_secs\":{local},\"global_secs\":{global},\
             \"total_secs\":{total},\"async_overlap\":{ov},\
             \"broadcast_bytes\":0,\"shuffle_bytes\":0,\"collect_bytes\":0,\"stragglers\":0,\"parallelism\":4,\
             \"assign_driver_secs\":{assign_driver},\"local_driver_secs\":{local_driver}}}",
            seq = batch * 10,
            ov = if overlap { 1.0 } else { 0.0 },
        )
    }

    fn build(lines: &[String]) -> RunProfile {
        let mut contents = String::from(META);
        for line in lines {
            contents.push('\n');
            contents.push_str(line);
        }
        analyze(&parse_journal(&contents).expect("journal parses")).expect("journal analyzes")
    }

    #[test]
    fn sync_critical_path_chains_all_three_phases() {
        let run = build(&[summary(0, 1.0, 0.5, 0.5, false)]);
        assert_eq!(run.batches.len(), 1);
        let path = run.batches[0].critical_path();
        let phases: Vec<Phase> = path.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            [Phase::Assignment, Phase::LocalUpdate, Phase::GlobalUpdate]
        );
        assert!(run.batches[0].reconcile().is_ok());
    }

    #[test]
    fn async_critical_path_takes_the_longer_arm() {
        // Parallel arm dominates: global update is hidden.
        let run = build(&[summary(0, 1.0, 0.5, 0.25, true)]);
        let phases: Vec<Phase> = run.batches[0]
            .critical_path()
            .iter()
            .map(|s| s.phase)
            .collect();
        assert_eq!(phases, [Phase::Assignment, Phase::LocalUpdate]);
        assert!(run.batches[0].reconcile().is_ok());

        // Global arm dominates: the parallel steps are hidden.
        let run = build(&[summary(1, 1.0, 0.5, 5.0, true)]);
        let phases: Vec<Phase> = run.batches[0]
            .critical_path()
            .iter()
            .map(|s| s.phase)
            .collect();
        assert_eq!(phases, [Phase::GlobalUpdate]);
        assert!(run.batches[0].reconcile().is_ok());
    }

    #[test]
    fn reconcile_flags_inconsistent_summaries() {
        let bad = BatchProfile {
            record: BatchRecord {
                records: 1,
                assignment: StepMetrics::new(Vec::new(), 1.0),
                local: StepMetrics::new(Vec::new(), 1.0),
                global_secs: 1.0,
                parallelism: 1,
                ..BatchRecord::default()
            },
            total_secs: 9.0,
            latency: None,
        };
        let (path, total) = bad.reconcile().expect_err("inconsistent");
        assert_eq!(path, 3.0);
        assert_eq!(total, 9.0);
    }

    #[test]
    fn blame_table_aggregates_and_names_the_dominant_phase() {
        // Two sync batches dominated by assignment.
        let run = build(&[
            summary(0, 2.0, 0.5, 0.5, false),
            summary(1, 3.0, 0.5, 0.5, false),
        ]);
        let blame = run.blame();
        assert_eq!(blame.batches, 2);
        assert_eq!(blame.dominant(), Some(Phase::Assignment));
        let row = blame.row(Phase::Assignment).expect("assignment row");
        assert!((row.secs - 5.0).abs() < 1e-12);
        assert_eq!(row.batches_on_path, 2);
        // Run total = 3.0 + 4.0.
        assert!((blame.critical_secs - 7.0).abs() < 1e-12);
        let rendered = blame.render();
        assert!(
            rendered.contains("dominant phase: assignment"),
            "{rendered}"
        );
        assert!(rendered.contains("71.4%"), "{rendered}");
    }

    /// The driver's record handling is wall-side context: summed from the
    /// two `batch_summary` fields into one `driver` row beneath
    /// `local_update`, never on a critical path, and absent when the run
    /// spent none.
    #[test]
    fn driver_seconds_render_as_a_wall_side_row() {
        let with_driver = |batch, driver| summary_with_driver(batch, 1.0, 0.5, 0.5, false, driver);
        let run = build(&[with_driver(0, (0.25, 0.5)), with_driver(1, (0.125, 0.125))]);
        assert!(run.batches.iter().all(|b| b.reconcile().is_ok()));
        let blame = run.blame();
        assert!((blame.driver_secs - 1.0).abs() < 1e-12);
        assert!((blame.critical_secs - 4.0).abs() < 1e-12, "not on the path");
        let rendered = blame.render();
        let rows: Vec<&str> = rendered
            .lines()
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        let local_at = rows.iter().position(|r| *r == "local_update").unwrap();
        assert_eq!(rows[local_at + 1], "driver", "{rendered}");
        assert!(rendered.contains("1.000000"), "{rendered}");

        let idle = build(&[summary(0, 1.0, 0.5, 0.5, false)]).blame();
        assert_eq!(idle.driver_secs, 0.0);
        assert!(!idle.render().contains("driver"));
    }

    #[test]
    fn global_sub_spans_render_beneath_their_phase() {
        let close = |name: &str, seq: u64, dur: u64| {
            format!(
                "{{\"ev\":\"close\",\"span\":\"{name}\",\"thread\":0,\"seq\":{seq},\
                 \"t_us\":{seq},\"depth\":1,\"dur_us\":{dur}}}"
            )
        };
        let run = build(&[
            summary(0, 1.0, 0.5, 0.5, false),
            close("global_copy", 99, 50_000),
            close("global_order", 100, 10_000),
            close("global_premerge", 101, 40_000),
            close("global_apply", 102, 200_000),
        ]);
        assert_eq!(run.global_sub_secs, [0.05, 0.01, 0.04, 0.2]);
        let rendered = run.blame().render();
        let lines: Vec<&str> = rendered.lines().collect();
        let phase = lines
            .iter()
            .position(|l| l.starts_with("global_update"))
            .expect("phase row");
        assert!(
            lines[phase + 1].starts_with("  copy-on-write"),
            "{rendered}"
        );
        assert!(lines[phase + 2].starts_with("  ordering"), "{rendered}");
        assert!(lines[phase + 3].starts_with("  pre-merge"), "{rendered}");
        assert!(lines[phase + 4].starts_with("  apply_global"), "{rendered}");
        assert!(lines[phase + 4].contains("66.7%"), "{rendered}");
        assert!(lines[phase + 5].starts_with("dominant phase"), "{rendered}");

        // No sub-span time (no global update journaled): no breakdown rows.
        let plain = build(&[summary(0, 1.0, 0.5, 0.5, false)]).blame().render();
        assert!(!plain.contains("of phase"), "{plain}");
    }

    #[test]
    fn task_durations_and_latency_attach_to_their_batch() {
        let run = build(&[
            summary(0, 1.0, 0.5, 0.5, false),
            "{\"ev\":\"point\",\"name\":\"task_duration\",\"thread\":0,\"seq\":100,\"t_us\":100,\"batch\":0,\"step\":0,\"index\":0,\"secs\":0.6}".to_string(),
            "{\"ev\":\"point\",\"name\":\"task_duration\",\"thread\":0,\"seq\":101,\"t_us\":101,\"batch\":0,\"step\":0,\"index\":1,\"secs\":0.4}".to_string(),
            "{\"ev\":\"point\",\"name\":\"task_duration\",\"thread\":0,\"seq\":102,\"t_us\":102,\"batch\":0,\"step\":1,\"index\":0,\"secs\":0.5}".to_string(),
            "{\"ev\":\"point\",\"name\":\"record_latency\",\"thread\":0,\"seq\":103,\"t_us\":103,\"batch\":0,\
             \"records\":100.0,\"mean_secs\":2.5,\"min_secs\":1.0,\"max_secs\":5.0,\"p50_secs\":2.0,\"p95_secs\":4.5,\"p99_secs\":5.0}".to_string(),
        ]);
        let batch = &run.batches[0];
        assert_eq!(batch.record.assignment.task_secs(), [0.6, 0.4]);
        assert_eq!(batch.record.local.task_secs(), [0.5]);
        assert_eq!(batch.record.parallelism, 4);
        let latency = batch.latency.expect("latency digest");
        assert_eq!(latency.p95_secs, 4.5);
        assert_eq!(latency.records, 100.0);
    }

    #[test]
    fn repeated_batch_indices_attach_points_per_occurrence() {
        // Two back-to-back runs (the bench matrix shape), both using batch
        // index 0. Run 1 is synchronous: its record_latency point precedes
        // its summary. Run 2's task point follows run 2's summary and must
        // not leak back into run 1's profile.
        let run = build(&[
            "{\"ev\":\"point\",\"name\":\"record_latency\",\"thread\":0,\"seq\":1,\"t_us\":1,\"batch\":0,\
             \"records\":10.0,\"mean_secs\":1.0,\"min_secs\":1.0,\"max_secs\":1.0,\"p50_secs\":1.0,\"p95_secs\":1.0,\"p99_secs\":1.0}".to_string(),
            summary(0, 1.0, 0.5, 0.5, false),
            "{\"ev\":\"point\",\"name\":\"task_duration\",\"thread\":0,\"seq\":2,\"t_us\":2,\"batch\":0,\"step\":0,\"index\":0,\"secs\":0.9}".to_string(),
            // Second run, batch index 0 again.
            "{\"ev\":\"point\",\"name\":\"record_latency\",\"thread\":0,\"seq\":3,\"t_us\":3,\"batch\":0,\
             \"records\":20.0,\"mean_secs\":2.0,\"min_secs\":2.0,\"max_secs\":2.0,\"p50_secs\":2.0,\"p95_secs\":2.0,\"p99_secs\":2.0}".to_string(),
            summary(0, 3.0, 0.5, 0.5, false),
            "{\"ev\":\"point\",\"name\":\"task_duration\",\"thread\":0,\"seq\":4,\"t_us\":4,\"batch\":0,\"step\":0,\"index\":0,\"secs\":2.9}".to_string(),
        ]);
        assert_eq!(run.batches.len(), 2);
        assert_eq!(run.batches[0].record.assignment.task_secs(), [0.9]);
        assert_eq!(run.batches[1].record.assignment.task_secs(), [2.9]);
        assert_eq!(run.batches[0].latency.expect("run 1 latency").records, 10.0);
        assert_eq!(run.batches[1].latency.expect("run 2 latency").records, 20.0);
    }

    #[test]
    fn ingest_comes_from_prefetch_spans_and_batch_gaps() {
        let run = build(&[
            // 2000 us of prefetch on a worker thread.
            "{\"ev\":\"open\",\"span\":\"prefetch\",\"thread\":1,\"seq\":0,\"t_us\":0,\"depth\":0}".to_string(),
            "{\"ev\":\"close\",\"span\":\"prefetch\",\"thread\":1,\"seq\":1,\"t_us\":2000,\"depth\":0,\"dur_us\":2000}".to_string(),
            // Driver: batch 0 closes at 5000, batch 1 opens at 8000 → 3000 us gap.
            "{\"ev\":\"open\",\"span\":\"batch\",\"thread\":0,\"seq\":0,\"t_us\":1000,\"depth\":0,\"batch\":0}".to_string(),
            "{\"ev\":\"close\",\"span\":\"batch\",\"thread\":0,\"seq\":1,\"t_us\":5000,\"depth\":0,\"dur_us\":4000,\"batch\":0}".to_string(),
            "{\"ev\":\"open\",\"span\":\"batch\",\"thread\":0,\"seq\":2,\"t_us\":8000,\"depth\":0,\"batch\":1}".to_string(),
            "{\"ev\":\"close\",\"span\":\"batch\",\"thread\":0,\"seq\":3,\"t_us\":9000,\"depth\":0,\"dur_us\":1000,\"batch\":1}".to_string(),
        ]);
        assert!(
            (run.ingest_secs - 0.005).abs() < 1e-9,
            "{}",
            run.ingest_secs
        );
    }

    #[test]
    fn init_spans_are_set_up_not_ingest() {
        let span = |ev: &str, name: &str, seq: u64, t: u64, dur: u64| {
            format!(
                "{{\"ev\":\"{ev}\",\"span\":\"{name}\",\"thread\":0,\"seq\":{seq},\
                 \"t_us\":{t},\"depth\":0,\"dur_us\":{dur}}}"
            )
        };
        // Job 1: init 0..400, batch 500..1000. Job 2: init 1200..1700,
        // batch 1800..2000. Ingest is the 100 + 200 + 100 us around the
        // second init, not its 500 us.
        let run = build(&[
            span("open", "init", 0, 0, 0),
            span("close", "init", 1, 400, 400),
            span("open", "batch", 2, 500, 0),
            span("close", "batch", 3, 1000, 500),
            span("open", "init", 4, 1200, 0),
            span("close", "init", 5, 1700, 500),
            span("open", "batch", 6, 1800, 0),
            span("close", "batch", 7, 2000, 200),
        ]);
        assert_eq!(run.inits, 2);
        assert!((run.init_secs - 0.0009).abs() < 1e-12, "{}", run.init_secs);
        assert!(
            (run.ingest_secs - 0.0003).abs() < 1e-12,
            "{}",
            run.ingest_secs
        );
        let line = run.setup_line().expect("set-up line");
        assert!(line.contains("2 init span(s), 0.000900s"), "{line}");
        assert_eq!(build(&[]).setup_line(), None);
    }

    /// The journal's text form loses nothing: records emitted into a file
    /// and read back by `analyze` equal the originals bit for bit — at
    /// p ∈ {1, 3}, sync and overlapped, with task lists — and so does the
    /// journaled total. (The only test here that records a journal.)
    #[test]
    fn records_round_trip_through_a_journal_file() {
        let records: Vec<BatchRecord> = [(1, false), (1, true), (3, false), (3, true)]
            .into_iter()
            .enumerate()
            .map(|(i, (p, overlap))| {
                let tasks: Vec<f64> = (0..p + i).map(|t| (t + 1) as f64 / 3.0e3).collect();
                BatchRecord {
                    batch_index: i,
                    records: 999 + i,
                    assignment: StepMetrics::new(tasks.clone(), 0.1 / 3.0),
                    local: StepMetrics::new(tasks[..p].to_vec(), 0.2 / 7.0),
                    global_secs: 1.0 / 30.0 * i as f64,
                    async_overlap: overlap,
                    parallelism: p,
                    broadcast_bytes: 4_097 * p as u64,
                    shuffle_bytes: 65_537,
                    collect_bytes: 257 * i as u64,
                    assign_driver_secs: 1e-5 / 3.0,
                    local_driver_secs: 1e-5 / 7.0,
                }
            })
            .collect();
        let path = std::env::temp_dir().join(format!(
            "diststream-trace-round-trip-{}.jsonl",
            std::process::id()
        ));
        diststream_telemetry::start_file_session(&path).expect("journal session");
        for record in &records {
            record.emit();
        }
        diststream_telemetry::finish_file_session();
        let journal = crate::parse_journal_file(&path).expect("journal parses");
        let _ = std::fs::remove_file(&path);
        let run = analyze(&journal).expect("journal analyzes");
        let read: Vec<&BatchRecord> = run.batches.iter().map(|b| &b.record).collect();
        assert_eq!(read, records.iter().collect::<Vec<_>>());
        for batch in &run.batches {
            assert_eq!(
                batch.total_secs.to_bits(),
                batch.record.total_secs().to_bits()
            );
        }
    }

    #[test]
    fn a_summary_missing_a_field_is_refused_with_its_batch() {
        let line = summary(7, 1.0, 0.5, 0.5, false).replace("\"collect_bytes\":0,", "");
        let mut contents = String::from(META);
        contents.push('\n');
        contents.push_str(&line);
        let err = analyze(&parse_journal(&contents).expect("parses")).expect_err("refused");
        assert!(
            err.message.contains("batch 7") && err.message.contains("collect_bytes"),
            "{err}"
        );
    }

    #[test]
    fn span_multiset_counts_open_events() {
        let mut contents = String::from(META);
        for line in [
            "{\"ev\":\"open\",\"span\":\"batch\",\"thread\":0,\"seq\":0,\"t_us\":0,\"depth\":0}",
            "{\"ev\":\"close\",\"span\":\"batch\",\"thread\":0,\"seq\":1,\"t_us\":1,\"depth\":0,\"dur_us\":1}",
            "{\"ev\":\"open\",\"span\":\"batch\",\"thread\":0,\"seq\":2,\"t_us\":2,\"depth\":0}",
            "{\"ev\":\"close\",\"span\":\"batch\",\"thread\":0,\"seq\":3,\"t_us\":3,\"depth\":0,\"dur_us\":1}",
            "{\"ev\":\"open\",\"span\":\"assignment\",\"thread\":0,\"seq\":4,\"t_us\":4,\"depth\":0}",
            "{\"ev\":\"close\",\"span\":\"assignment\",\"thread\":0,\"seq\":5,\"t_us\":5,\"depth\":0,\"dur_us\":1}",
        ] {
            contents.push('\n');
            contents.push_str(line);
        }
        let journal = parse_journal(&contents).expect("parses");
        assert_eq!(
            span_multiset(&journal),
            vec![("assignment".to_string(), 1), ("batch".to_string(), 2)]
        );
    }
}
