//! What-if scaling prediction: replay recorded per-task durations through
//! a simulated schedule at a different parallelism degree.
//!
//! The model follows the Spark-Streaming simulation literature (see
//! PAPERS.md, "Modeling and Simulation of Spark Streaming"): a batch's
//! parallel step is a list-scheduling problem over `p` executor slots and
//! the driver-side global update is serial. The prediction at `p′` is the
//! workspace's one replay, [`replay`] with no charges: the *recorded* task
//! durations rescheduled the way the runtime schedules them — tasks in
//! submission order, each on the least-loaded slot — each step keeping its
//! recorded residual (the wall time beyond its tasks' makespan at the
//! recorded degree: barrier cost, per-slot set-up), and the phases combined
//! by the runtime's own critical path. Where `p′` exceeds both the recorded
//! degree and a step's task count, the step's work is taken as divisible.
//!
//! Known error sources (documented in DESIGN.md §12): divisible work
//! over-estimates splittability for model-based steps with few keys, and
//! the residual is assumed parallelism-independent. Amdahl's law bounds the
//! result: the reported serial fraction caps any achievable speedup at
//! `1 / serial_fraction`.

use diststream_telemetry::record::BatchRecord;
use diststream_telemetry::time_model::{batch_critical_path, replay};

use crate::analysis::RunProfile;

/// Prediction for one hypothetical parallelism degree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIf {
    /// The hypothetical degree `p′`.
    pub parallelism: usize,
    /// Predicted run wall seconds at `p′`.
    pub predicted_total_secs: f64,
    /// Recorded wall seconds / predicted wall seconds.
    pub speedup: f64,
    /// Fraction of the *recorded* run that is serial (each batch's critical
    /// path with its parallel steps shrunk to their schedule residuals) —
    /// Amdahl's ceiling on any speedup is `1 / serial_fraction`.
    pub serial_fraction: f64,
}

/// The recorded batch's serial seconds: its critical path with each
/// parallel step shrunk to its schedule residual — the replay's limit as
/// `p′` grows, the portion no added parallelism can shrink. A synchronous
/// batch keeps the residuals and the global update; an overlapped one the
/// longer of the two arms.
fn serial_secs(record: &BatchRecord) -> f64 {
    let ran_at = record.parallelism.max(1);
    let residuals = record.assignment.residual_secs(ran_at) + record.local.residual_secs(ran_at);
    batch_critical_path(residuals, record.global_secs, record.async_overlap).secs
}

/// Predicts the run at each requested parallelism degree.
pub fn predict(run: &RunProfile, parallelisms: &[usize]) -> Vec<WhatIf> {
    let recorded = run.total_secs();
    let serial: f64 = run.batches.iter().map(|b| serial_secs(&b.record)).sum();
    let serial_fraction = if recorded > 0.0 {
        (serial / recorded).clamp(0.0, 1.0)
    } else {
        0.0
    };
    parallelisms
        .iter()
        .map(|&p| {
            let predicted: f64 = run
                .batches
                .iter()
                .map(|b| replay(&b.record, p, &mut |_| {}).total_secs())
                .sum();
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

    use crate::analysis::BatchProfile;
    use diststream_telemetry::record::StepMetrics;
    use diststream_telemetry::time_model::list_makespan;

    fn batch(
        tasks0: Vec<f64>,
        wall0: f64,
        tasks1: Vec<f64>,
        wall1: f64,
        global: f64,
        p_run: usize,
        overlap: bool,
    ) -> BatchProfile {
        let record = BatchRecord {
            records: 100,
            assignment: StepMetrics::new(tasks0, wall0),
            local: StepMetrics::new(tasks1, wall1),
            global_secs: global,
            async_overlap: overlap,
            parallelism: p_run,
            ..BatchRecord::default()
        };
        BatchProfile {
            total_secs: record.total_secs(),
            record,
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
        let b = batch(tasks, wall, vec![], 0.0, 0.0, 2, false);
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
        // no local tasks, 1s global → recorded 5s.
        let b = batch(vec![1.0; 4], 4.0, vec![], 0.0, 1.0, 1, false);
        let run = RunProfile {
            batches: vec![b],
            ..RunProfile::default()
        };
        let predictions = predict(&run, &[2, 4, 8]);
        // p=2: makespan 2 + global 1 = 3.
        assert!((predictions[0].predicted_total_secs - 3.0).abs() < 1e-12);
        assert!((predictions[0].speedup - 5.0 / 3.0).abs() < 1e-12);
        // p=4: makespan 1 → 2.
        assert!((predictions[1].predicted_total_secs - 2.0).abs() < 1e-12);
        // p=8 > task count: divisible fallback 4/8 = 0.5 → 1.5.
        assert!((predictions[2].predicted_total_secs - 1.5).abs() < 1e-12);
        // Serial fraction: 1 / 5 = 20% → Amdahl ceiling 5x.
        assert!((predictions[0].serial_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn residual_overhead_survives_rescheduling() {
        // Recorded at p=2: tasks {1, 1}, makespan 1, but wall 1.5 —
        // 0.5s of barrier residual that must persist at any p′.
        let b = batch(vec![1.0, 1.0], 1.5, vec![], 0.0, 0.0, 2, false);
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
        // max(2, 3) = 3. At p=2 the parallel arm shrinks to 1s but the
        // global update still dominates: predicted stays 3.
        let b = batch(vec![1.0, 1.0], 2.0, vec![], 0.0, 3.0, 1, true);
        let run = RunProfile {
            batches: vec![b],
            ..RunProfile::default()
        };
        let predictions = predict(&run, &[2]);
        assert!((predictions[0].predicted_total_secs - 3.0).abs() < 1e-12);
        assert!((predictions[0].speedup - 1.0).abs() < 1e-12);
    }

    /// An overlapped batch whose global update outlasts the parallel
    /// steps' residuals: tasks 1.0 + 0.5 s at p = 1 under a 2.0 s step-1
    /// wall (0.5 s residual), a 1.0 s global update — 2.0 s recorded. No
    /// degree can beat the 1.0 s global arm, so the ceiling is 2x; counting
    /// only the residuals as serial printed 4x beside a 2x prediction.
    #[test]
    fn the_amdahl_ceiling_bounds_an_overlapped_run() {
        let b = batch(vec![1.0, 0.5], 2.0, vec![], 0.0, 1.0, 1, true);
        let run = RunProfile {
            batches: vec![b],
            ..RunProfile::default()
        };
        let predictions = predict(&run, &[1, 2, 4, 1000, 1 << 20]);
        let ceiling = 1.0 / predictions[0].serial_fraction;
        for p in &predictions {
            assert!(
                p.speedup <= ceiling + 1e-12,
                "p={} predicts {}x past the {ceiling}x ceiling",
                p.parallelism,
                p.speedup
            );
        }
        let limit = predictions.last().unwrap().speedup;
        assert!((ceiling - limit).abs() < 1e-12, "{ceiling} vs {limit}");
        assert!((ceiling - 2.0).abs() < 1e-12, "{ceiling}");
        assert!(render(&predictions, 2.0).contains("2.00x"));
    }

    #[test]
    fn steps_without_tasks_predict_no_scaling() {
        let b = batch(vec![], 4.0, vec![], 0.0, 1.0, 0, false);
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
