//! Trace diffing: phase-by-phase comparison of two runs' blame tables, so
//! a regression report can say *which phase* slowed down instead of just
//! "throughput dropped".
//!
//! Comparisons use each phase's aggregate critical-path seconds. Absolute
//! seconds differ across hosts and calibrations, but the simulated cost
//! model scales every phase uniformly, so the *relative* per-phase deltas
//! stay attributable.

use std::fmt::Write as _;

use crate::analysis::{BlameTable, Phase};

/// One phase's change between a baseline run and a new run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseDelta {
    /// The phase.
    pub phase: Phase,
    /// Baseline critical-path seconds.
    pub base_secs: f64,
    /// New-run critical-path seconds.
    pub new_secs: f64,
}

impl PhaseDelta {
    /// Absolute change in seconds (positive = slower).
    pub fn delta_secs(&self) -> f64 {
        self.new_secs - self.base_secs
    }

    /// Relative change (positive = slower); 0.0 when the baseline phase
    /// recorded no time (a phase appearing from nothing is reported via
    /// `delta_secs`).
    pub fn rel_change(&self) -> f64 {
        if self.base_secs > 0.0 {
            self.delta_secs() / self.base_secs
        } else {
            0.0
        }
    }
}

/// Diffs two blame tables phase by phase, in pipeline order.
pub fn diff_blame(base: &BlameTable, new: &BlameTable) -> Vec<PhaseDelta> {
    Phase::ALL
        .iter()
        .map(|&phase| PhaseDelta {
            phase,
            base_secs: base.row(phase).map_or(0.0, |r| r.secs),
            new_secs: new.row(phase).map_or(0.0, |r| r.secs),
        })
        .collect()
}

/// The phase to blame for a slowdown: the largest absolute critical-path
/// growth (ingest excluded — it is wall-side, not critical-path time).
/// `None` when nothing grew.
pub fn attribute_regression(deltas: &[PhaseDelta]) -> Option<PhaseDelta> {
    deltas
        .iter()
        .filter(|d| d.phase != Phase::Ingest)
        .max_by(|a, b| a.delta_secs().total_cmp(&b.delta_secs()))
        .filter(|d| d.delta_secs() > 0.0)
        .copied()
}

/// Renders the phase-by-phase diff for terminal output.
pub fn render(deltas: &[PhaseDelta]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>11} {:>8}",
        "phase", "base secs", "new secs", "delta", "change"
    );
    for d in deltas {
        let change = if d.base_secs > 0.0 {
            format!("{:+.1}%", 100.0 * d.rel_change())
        } else if d.new_secs > 0.0 {
            "new".to_string()
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<14} {:>12.6} {:>12.6} {:>+11.6} {:>8}",
            d.phase.name(),
            d.base_secs,
            d.new_secs,
            d.delta_secs(),
            change
        );
    }
    if let Some(worst) = attribute_regression(deltas) {
        let _ = writeln!(
            out,
            "largest regression: {} ({:+.6}s, {:+.1}%)",
            worst.phase.name(),
            worst.delta_secs(),
            100.0 * worst.rel_change()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{BlameRow, BlameTable};

    fn table(assignment: f64, local: f64, global: f64) -> BlameTable {
        let secs = [0.0, assignment, local, global];
        BlameTable {
            rows: Phase::ALL
                .iter()
                .zip(secs)
                .map(|(&phase, secs)| BlameRow {
                    phase,
                    secs,
                    batches_on_path: 1,
                })
                .collect(),
            critical_secs: assignment + local + global,
            batches: 1,
            global_sub_secs: [0.0; 4],
            driver_secs: 0.0,
        }
    }

    #[test]
    fn diff_reports_per_phase_deltas() {
        let base = table(1.0, 0.5, 0.5);
        let new = table(1.0, 0.8, 0.5);
        let deltas = diff_blame(&base, &new);
        let local = deltas
            .iter()
            .find(|d| d.phase == Phase::LocalUpdate)
            .unwrap();
        assert!((local.delta_secs() - 0.3).abs() < 1e-12);
        assert!((local.rel_change() - 0.6).abs() < 1e-12);
        let unchanged = deltas
            .iter()
            .find(|d| d.phase == Phase::Assignment)
            .unwrap();
        assert_eq!(unchanged.delta_secs(), 0.0);
    }

    #[test]
    fn attribution_picks_the_largest_growth_and_ignores_improvements() {
        let base = table(1.0, 0.5, 0.5);
        let new = table(0.5, 0.9, 0.6);
        let worst = attribute_regression(&diff_blame(&base, &new)).expect("regression");
        assert_eq!(worst.phase, Phase::LocalUpdate);

        // Everything faster: nothing to blame.
        let faster = table(0.5, 0.4, 0.4);
        assert_eq!(attribute_regression(&diff_blame(&base, &faster)), None);
    }

    #[test]
    fn render_names_the_largest_regression() {
        let base = table(1.0, 0.5, 0.5);
        let new = table(1.0, 0.8, 0.5);
        let out = render(&diff_blame(&base, &new));
        assert!(out.contains("largest regression: local_update"), "{out}");
        assert!(out.contains("+60.0%"), "{out}");
    }
}
