//! What-if scaling prediction: replay recorded per-task durations through
//! a simulated schedule at a different parallelism degree.
//!
//! The model follows the Spark-Streaming simulation literature (see
//! PAPERS.md, "Modeling and Simulation of Spark Streaming"): a batch's
//! parallel step is a list-scheduling problem over `p` executor slots, the
//! driver-side global update and the charged overhead are serial, and the
//! prediction at `p′` replays the *recorded* task durations through the
//! list schedule the runtime itself uses — tasks in submission order, each
//! on the least-loaded slot ([`list_makespan`]) — and combines the phases
//! by the runtime's own critical path ([`batch_critical_path`]).
//!
//! Two corrections keep the replay honest:
//!
//! - **Residual overhead.** The recorded step wall time exceeds the
//!   makespan of its own tasks at the recorded parallelism (barrier cost,
//!   per-slot setup such as the searcher build). That residual is kept
//!   as-is in the prediction — no re-schedule can shrink it. A simulated
//!   step records exactly its makespan plus its setup, so replaying it at
//!   its own degree leaves only the setup as residual.
//! - **Divisible-work fallback.** Task count is fixed at record time by
//!   the recorded parallelism, so when `p′` exceeds the task count a
//!   replay cannot use the extra slots at all. Record-based steps *would*
//!   split finer at a real `p′`, so the model assumes divisible work
//!   there: `cpu_sum / p′`.
//!
//! Known error sources (documented in DESIGN.md §12): the fallback
//! over-estimates splittability for model-based steps with few keys, the
//! residual is assumed parallelism-independent, and overhead charged
//! from byte volumes does not change with `p′` even though broadcast
//! volume scales with it. Amdahl's law still bounds the result: the
//! reported serial fraction caps any achievable speedup at
//! `1 / serial_fraction`.

use diststream_telemetry::time_model::{batch_critical_path, list_makespan};

use crate::analysis::{BatchProfile, RunProfile};

/// Prediction for one hypothetical parallelism degree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIf {
    /// The hypothetical degree `p′`.
    pub parallelism: usize,
    /// Predicted run wall seconds at `p′`.
    pub predicted_total_secs: f64,
    /// Recorded wall seconds / predicted wall seconds.
    pub speedup: f64,
    /// Fraction of the *recorded* run that is serial (global update,
    /// overhead, and schedule residuals) — Amdahl's ceiling on any
    /// speedup is `1 / serial_fraction`.
    pub serial_fraction: f64,
}

/// The degree a batch ran at. Journals that predate the parallelism field
/// fall back to the task count, which the schedulers align to the slot
/// count.
fn recorded_parallelism(batch: &BatchProfile) -> usize {
    if batch.parallelism > 0 {
        batch.parallelism
    } else {
        batch.step_tasks[0].len().max(1)
    }
}

/// The part of a step's recorded wall time that its tasks' makespan at the
/// recorded degree does not explain. A step without task data (an old
/// journal or an empty step) is all residual: nothing to reschedule.
fn residual(tasks: &[f64], recorded_wall: f64, p_run: usize) -> f64 {
    if tasks.is_empty() {
        recorded_wall
    } else {
        (recorded_wall - list_makespan(tasks, p_run)).max(0.0)
    }
}

/// Predicted wall seconds of one parallel step at `p_prime` slots:
/// rescheduled task makespan plus the recorded schedule residual.
fn step_prediction(tasks: &[f64], recorded_wall: f64, p_run: usize, p_prime: usize) -> f64 {
    let makespan = if tasks.len() >= p_prime {
        list_makespan(tasks, p_prime)
    } else {
        // More slots than recorded tasks: assume divisible work — the real
        // system would split the records finer at p′ — giving the ideal
        // cpu_sum / p′.
        tasks.iter().sum::<f64>() / p_prime as f64
    };
    makespan + residual(tasks, recorded_wall, p_run)
}

/// Predicted wall seconds of one batch at `p_prime`.
pub(crate) fn predict_batch(batch: &BatchProfile, p_prime: usize) -> f64 {
    let p_run = recorded_parallelism(batch);
    let assignment = step_prediction(&batch.step_tasks[0], batch.assignment_secs, p_run, p_prime);
    let local = step_prediction(&batch.step_tasks[1], batch.local_secs, p_run, p_prime);
    batch_critical_path(
        assignment + local,
        batch.global_secs,
        batch.overhead_secs,
        batch.async_overlap,
    )
    .secs
}

/// The recorded run's serial seconds: what its critical path holds beyond
/// the parallel steps (the global update where it is on the path, and the
/// overhead), plus the steps' schedule residuals — the portion no added
/// parallelism can shrink.
fn serial_secs(batch: &BatchProfile) -> f64 {
    let p_run = recorded_parallelism(batch);
    let parallel = batch.assignment_secs + batch.local_secs;
    let path = batch_critical_path(
        parallel,
        batch.global_secs,
        batch.overhead_secs,
        batch.async_overlap,
    );
    (path.secs - parallel).max(0.0)
        + residual(&batch.step_tasks[0], batch.assignment_secs, p_run)
        + residual(&batch.step_tasks[1], batch.local_secs, p_run)
}

/// Predicts the run at each requested parallelism degree.
pub fn predict(run: &RunProfile, parallelisms: &[usize]) -> Vec<WhatIf> {
    let recorded = run.total_secs();
    let serial: f64 = run.batches.iter().map(serial_secs).sum();
    let serial_fraction = if recorded > 0.0 {
        (serial / recorded).clamp(0.0, 1.0)
    } else {
        0.0
    };
    parallelisms
        .iter()
        .map(|&p| {
            let predicted: f64 = run.batches.iter().map(|b| predict_batch(b, p.max(1))).sum();
            WhatIf {
                parallelism: p,
                predicted_total_secs: predicted,
                speedup: if predicted > 0.0 {
                    recorded / predicted
                } else {
                    0.0
                },
                serial_fraction,
            }
        })
        .collect()
}

/// Renders predictions for terminal output.
pub fn render(predictions: &[WhatIf], recorded_secs: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>14} {:>9} {:>15}",
        "p", "predicted secs", "speedup", "amdahl ceiling"
    );
    for p in predictions {
        let ceiling = if p.serial_fraction > 0.0 {
            format!("{:.2}x", 1.0 / p.serial_fraction)
        } else {
            "inf".to_string()
        };
        let _ = writeln!(
            out,
            "{:<6} {:>14.6} {:>8.2}x {:>15}",
            p.parallelism, p.predicted_total_secs, p.speedup, ceiling
        );
    }
    if let Some(first) = predictions.first() {
        let _ = writeln!(
            out,
            "recorded: {recorded_secs:.6}s, serial fraction {:.1}%",
            100.0 * first.serial_fraction
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn batch(
        tasks0: Vec<f64>,
        wall0: f64,
        tasks1: Vec<f64>,
        wall1: f64,
        global: f64,
        overhead: f64,
        p_run: usize,
        overlap: bool,
    ) -> BatchProfile {
        let total = batch_critical_path(wall0 + wall1, global, overhead, overlap).secs;
        BatchProfile {
            batch: 0,
            records: 100.0,
            assignment_secs: wall0,
            local_secs: wall1,
            global_secs: global,
            overhead_secs: overhead,
            total_secs: total,
            async_overlap: overlap,
            parallelism: p_run,
            stragglers: 0.0,
            step_tasks: [tasks0, tasks1],
            latency: None,
        }
    }

    /// The runtime schedules in submission order, so the replay must too:
    /// tasks `[1, 3, 2, 1.5]` recorded at p = 2 took 4.5 s (slot 0 runs 1,
    /// 2 and 1.5), and none of it is residual. At p′ = 4 each task has its
    /// own slot — 3.0 s, what a simulated run at p = 4 reports. A
    /// longest-first replay packs the recorded step into 4.0 s, books the
    /// other 0.5 s as serial residual and predicts 3.5 s.
    #[test]
    fn replay_schedules_in_submission_order_like_the_runtime() {
        let tasks = vec![1.0, 3.0, 2.0, 1.5];
        let wall = list_makespan(&tasks, 2);
        assert_eq!(wall, 4.5);
        let b = batch(tasks, wall, vec![], 0.0, 0.0, 0.0, 2, false);
        let run = RunProfile {
            batches: vec![b],
            ..RunProfile::default()
        };
        let predictions = predict(&run, &[2, 4]);
        assert_eq!(predictions[0].predicted_total_secs, 4.5);
        assert_eq!(predictions[1].predicted_total_secs, 3.0);
        assert_eq!(predictions[1].serial_fraction, 0.0);
    }

    #[test]
    fn prediction_scales_tasks_and_keeps_serial_parts() {
        // p=1 run: 4 assignment tasks of 1s each (wall 4s, no residual),
        // no local tasks, 0.5s global, 0.5s overhead → recorded 5s.
        let b = batch(vec![1.0; 4], 4.0, vec![], 0.0, 0.5, 0.5, 1, false);
        let run = RunProfile {
            batches: vec![b],
            ..RunProfile::default()
        };
        let predictions = predict(&run, &[2, 4, 8]);
        // p=2: makespan 2 + global 0.5 + overhead 0.5 = 3.
        assert!((predictions[0].predicted_total_secs - 3.0).abs() < 1e-12);
        assert!((predictions[0].speedup - 5.0 / 3.0).abs() < 1e-12);
        // p=4: makespan 1 → 2.
        assert!((predictions[1].predicted_total_secs - 2.0).abs() < 1e-12);
        // p=8 > task count: divisible fallback 4/8 = 0.5 → 1.5.
        assert!((predictions[2].predicted_total_secs - 1.5).abs() < 1e-12);
        // Serial fraction: (0.5 + 0.5) / 5 = 20% → Amdahl ceiling 5x.
        assert!((predictions[0].serial_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn residual_overhead_survives_rescheduling() {
        // Recorded at p=2: tasks {1, 1}, makespan 1, but wall 1.5 —
        // 0.5s of barrier residual that must persist at any p′.
        let b = batch(vec![1.0, 1.0], 1.5, vec![], 0.0, 0.0, 0.0, 2, false);
        let run = RunProfile {
            batches: vec![b],
            ..RunProfile::default()
        };
        let predictions = predict(&run, &[2]);
        // Re-predicting the recorded degree reproduces the recorded wall.
        assert!((predictions[0].predicted_total_secs - 1.5).abs() < 1e-12);
        assert!((predictions[0].speedup - 1.0).abs() < 1e-12);
        // The residual is serial.
        assert!((predictions[0].serial_fraction - 0.5 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn async_prediction_keeps_the_overlap_max() {
        // Parallel arm 2s (2 tasks × 1s at p=1), global 3s: recorded total
        // max(2, 3) + 0 = 3. At p=2 the parallel arm shrinks to 1s but the
        // global update still dominates: predicted stays 3.
        let b = batch(vec![1.0, 1.0], 2.0, vec![], 0.0, 3.0, 0.0, 1, true);
        let run = RunProfile {
            batches: vec![b],
            ..RunProfile::default()
        };
        let predictions = predict(&run, &[2]);
        assert!((predictions[0].predicted_total_secs - 3.0).abs() < 1e-12);
        assert!((predictions[0].speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn old_journals_without_task_points_predict_no_scaling() {
        let b = batch(vec![], 4.0, vec![], 0.0, 0.5, 0.5, 0, false);
        let run = RunProfile {
            batches: vec![b],
            ..RunProfile::default()
        };
        let predictions = predict(&run, &[8]);
        // Nothing to reschedule: prediction equals the recorded wall.
        assert!((predictions[0].predicted_total_secs - 5.0).abs() < 1e-12);
        assert!((predictions[0].serial_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_reports_speedup_and_ceiling() {
        let predictions = vec![WhatIf {
            parallelism: 4,
            predicted_total_secs: 2.0,
            speedup: 2.5,
            serial_fraction: 0.2,
        }];
        let out = render(&predictions, 5.0);
        assert!(out.contains("2.50x"), "{out}");
        assert!(out.contains("5.00x"), "{out}");
        assert!(out.contains("serial fraction 20.0%"), "{out}");
    }
}
