//! Cost models for the simulated cluster: network transfers, scheduling
//! overheads, and stragglers.
//!
//! [`ExecutionMode::Simulated`] executes every task for real (serially) and
//! converts the measured task times into cluster wall-clock with these
//! models. The defaults are calibrated to the paper's testbed observations:
//!
//! - **Network**: 1 Gb/s links with ~0.5 ms per-message latency — a typical
//!   local cluster, consistent with the paper's analysis that record-based
//!   parallelism wins step 1 by avoiding an extra aggregation stage.
//! - **Scheduling**: a few milliseconds per task (start, serialize,
//!   schedule) and tens of milliseconds per batch (job submission) — the
//!   source of the paper's ~10.6% MOA-vs-mini-batch overhead at `p = 1`.
//! - **Stragglers**: per-task straggler probability `p/128`, matching the
//!   paper's measurement of 12% stragglers at `p = 16` and 25% at `p = 32`
//!   under the synchronous update protocol.
//!
//! [`ExecutionMode::Simulated`]: crate::ExecutionMode::Simulated

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Bandwidth/latency model of the cluster interconnect.
///
/// # Examples
///
/// ```
/// use diststream_engine::NetworkModel;
///
/// let net = NetworkModel::default();
/// // One 125 MB transfer in one message ≈ 1 second + latency on 1 Gb/s.
/// let secs = net.transfer_secs(125_000_000, 1);
/// assert!(secs > 1.0 && secs < 1.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Link bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed cost per message (framing + RTT share) in seconds.
    pub latency_secs: f64,
}

impl NetworkModel {
    /// Time to move `bytes` in `messages` discrete messages.
    pub fn transfer_secs(&self, bytes: u64, messages: u64) -> f64 {
        bytes as f64 / self.bytes_per_sec + messages as f64 * self.latency_secs
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            bytes_per_sec: 125_000_000.0, // 1 Gb/s
            latency_secs: 0.0005,
        }
    }
}

/// Random task slowdowns modelling JVM/OS noise on a shared cluster.
///
/// Each task independently becomes a straggler with probability
/// `min(max_prob, slots × prob_per_slot)` and is slowed by a factor drawn
/// uniformly from `[min_slowdown, max_slowdown]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerModel {
    /// Per-slot contribution to straggler probability (default `1/128`).
    pub prob_per_slot: f64,
    /// Probability ceiling (default 0.3).
    pub max_prob: f64,
    /// Minimum slowdown factor for a straggler (default 1.3).
    pub min_slowdown: f64,
    /// Maximum slowdown factor for a straggler (default 2.2).
    pub max_slowdown: f64,
}

impl StragglerModel {
    /// Straggler probability at a given parallelism degree.
    pub fn probability(&self, slots: usize) -> f64 {
        (slots as f64 * self.prob_per_slot).min(self.max_prob)
    }

    /// Applies random slowdowns in place to `task_secs`.
    pub(crate) fn inflate(&self, task_secs: &mut [f64], slots: usize, rng: &mut StdRng) {
        let prob = self.probability(slots);
        for t in task_secs {
            if rng.gen_bool(prob) {
                *t *= rng.gen_range(self.min_slowdown..=self.max_slowdown);
            }
        }
    }
}

impl Default for StragglerModel {
    fn default() -> Self {
        StragglerModel {
            prob_per_slot: 1.0 / 128.0,
            max_prob: 0.3,
            min_slowdown: 1.3,
            max_slowdown: 2.2,
        }
    }
}

/// Complete cost model for [`ExecutionMode::Simulated`].
///
/// [`ExecutionMode::Simulated`]: crate::ExecutionMode::Simulated
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimCostModel {
    /// Interconnect model used for broadcast/shuffle/collect charges.
    pub network: NetworkModel,
    /// Fixed scheduling cost per task (start + serialize + schedule).
    pub per_task_overhead_secs: f64,
    /// Fixed job-submission cost per mini-batch.
    pub per_batch_overhead_secs: f64,
    /// Straggler injection, or `None` to disable.
    pub straggler: Option<StragglerModel>,
    /// Workload scale factor for scaled-down replicas of a full workload.
    ///
    /// Experiments that shrink a stream by a factor `s` (fewer records,
    /// same batch count) multiply the *fixed* costs — scheduling overheads
    /// and model-broadcast time — by `s` so the overhead-to-compute ratio
    /// of the full-size deployment is preserved. Byte-proportional costs
    /// (shuffle, collect) scale with the data automatically. Default `1.0`.
    pub workload_scale: f64,
}

impl SimCostModel {
    /// A cost model with no overheads, no network cost, and no stragglers —
    /// useful for tests that need task times passed through unchanged.
    pub fn zero() -> Self {
        SimCostModel {
            network: NetworkModel {
                bytes_per_sec: f64::INFINITY,
                latency_secs: 0.0,
            },
            per_task_overhead_secs: 0.0,
            per_batch_overhead_secs: 0.0,
            straggler: None,
            workload_scale: 1.0,
        }
    }

    /// Converts measured serial task times into effective per-task times
    /// (per-task overhead, then straggler inflation) and the step's makespan
    /// over `slots` executor slots.
    ///
    /// Overhead is added *before* inflation: OS/JVM noise slows a task's
    /// whole slot occupancy — scheduling and serialization included — so a
    /// straggler's slowdown factor survives relative to the step mean even
    /// when the measured compute is tiny next to the fixed overhead. (The
    /// old order scaled only the measured component, which on fast hosts
    /// vanished under the 4 ms overhead and made straggler attribution a
    /// function of host speed.)
    ///
    /// Tasks are assigned greedily in submission order to the least-loaded
    /// slot — the dynamic scheduling a Spark executor pool performs. The
    /// makespan is the latest slot finish time, i.e. the barrier wait.
    pub(crate) fn step_wall_secs(
        &self,
        measured_task_secs: &[f64],
        slots: usize,
        rng: &mut StdRng,
    ) -> (Vec<f64>, f64) {
        assert!(slots > 0, "slot count must be at least 1");
        let mut effective = measured_task_secs.to_vec();
        for t in &mut effective {
            *t += self.per_task_overhead_secs * self.workload_scale;
        }
        if let Some(model) = &self.straggler {
            model.inflate(&mut effective, slots, rng);
        }
        let mut slot_load = vec![0.0_f64; slots];
        for &t in &effective {
            // Greedy: place on the currently least-loaded slot.
            let min_idx = slot_load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i);
            if let Some(min_idx) = min_idx {
                slot_load[min_idx] += t;
            }
        }
        let makespan = slot_load.iter().copied().fold(0.0, f64::max);
        (effective, makespan)
    }

    /// Network time to broadcast a `payload_bytes` model to `slots` tasks.
    ///
    /// Models a torrent-style broadcast (Spark's `TorrentBroadcast`): the
    /// payload crosses the wire `⌈log₂(slots + 1)⌉` times as peers re-share
    /// it, plus one control message per slot.
    pub fn broadcast_secs(&self, payload_bytes: u64, slots: usize) -> f64 {
        let rounds = ((slots + 1) as f64).log2().ceil();
        (payload_bytes as f64 / self.network.bytes_per_sec * rounds
            + slots as f64 * self.network.latency_secs)
            * self.workload_scale
    }

    /// Network time for an all-to-all shuffle of `bytes` across `slots`
    /// partitions: every node pushes its `bytes / slots` share over its own
    /// link concurrently, and each pair exchanges one message.
    pub fn shuffle_secs(&self, bytes: u64, slots: usize) -> f64 {
        let per_link = bytes as f64 / slots as f64;
        per_link / self.network.bytes_per_sec
            + slots as f64 * self.network.latency_secs * self.workload_scale
    }

    /// Network time to collect `bytes` of task output onto the driver.
    pub fn collect_secs(&self, bytes: u64, slots: usize) -> f64 {
        bytes as f64 / self.network.bytes_per_sec
            + slots as f64 * self.network.latency_secs * self.workload_scale
    }
}

impl Default for SimCostModel {
    fn default() -> Self {
        SimCostModel {
            network: NetworkModel::default(),
            per_task_overhead_secs: 0.004,
            per_batch_overhead_secs: 0.05,
            straggler: Some(StragglerModel::default()),
            workload_scale: 1.0,
        }
    }
}

/// A named simulated cluster shape: node count plus straggler regime.
///
/// Topologies parameterize the [`SimCostModel`] for the distribution-strategy
/// experiments: the same job runs against 10-, 32-, and 100-node clusters
/// (and a straggler-heavy variant of each) without hand-tuning individual
/// cost constants. Per-message latency grows with the node count — more
/// hops through shared switches — and the straggler-heavy placement models
/// a cluster where tasks land on oversubscribed hosts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// Number of simulated worker nodes.
    pub nodes: usize,
    /// Whether tasks are placed on oversubscribed (straggler-heavy) hosts.
    pub straggler_heavy: bool,
}

impl ClusterTopology {
    /// The standard topology sweep for strategy comparisons: 10, 32, and
    /// 100 nodes, matching the Spark Streaming modeling paper's simulated
    /// cluster sizes.
    pub const SWEEP_NODES: [usize; 3] = [10, 32, 100];

    /// A well-behaved cluster of `nodes` workers.
    pub fn simulated(nodes: usize) -> Self {
        ClusterTopology {
            nodes,
            straggler_heavy: false,
        }
    }

    /// The same cluster with straggler-heavy task placement: every slot
    /// contributes 4x the default straggler probability and the slowdown
    /// tail stretches to 4x.
    pub fn straggler_heavy(nodes: usize) -> Self {
        ClusterTopology {
            nodes,
            straggler_heavy: true,
        }
    }

    /// Short label for reports and journal attribution, e.g. `"n32"` or
    /// `"n32-straggler"`.
    pub fn label(&self) -> String {
        if self.straggler_heavy {
            format!("n{}-straggler", self.nodes)
        } else {
            format!("n{}", self.nodes)
        }
    }

    /// The cost model of this topology. Bandwidth stays at the default
    /// 1 Gb/s per link (links are point-to-point in the shuffle model);
    /// per-message latency grows logarithmically with the node count to
    /// reflect deeper switch fabrics.
    pub fn cost_model(&self) -> SimCostModel {
        let base = NetworkModel::default();
        let fabric_depth = ((self.nodes + 1) as f64).log2().ceil().max(1.0);
        let straggler = if self.straggler_heavy {
            StragglerModel {
                prob_per_slot: 4.0 / 128.0,
                max_prob: 0.6,
                min_slowdown: 1.5,
                max_slowdown: 4.0,
            }
        } else {
            StragglerModel::default()
        };
        SimCostModel {
            network: NetworkModel {
                bytes_per_sec: base.bytes_per_sec,
                latency_secs: base.latency_secs * fabric_depth,
            },
            straggler: Some(straggler),
            ..SimCostModel::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn transfer_time_includes_latency_per_message() {
        let net = NetworkModel {
            bytes_per_sec: 1000.0,
            latency_secs: 0.1,
        };
        assert!((net.transfer_secs(500, 2) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn straggler_probability_matches_paper_calibration() {
        let model = StragglerModel::default();
        assert!((model.probability(16) - 0.125).abs() < 1e-12); // ~12% at p=16
        assert!((model.probability(32) - 0.25).abs() < 1e-12); // ~25% at p=32
        assert_eq!(model.probability(1000), 0.3); // capped
    }

    #[test]
    fn straggler_inflation_only_slows_down() {
        let model = StragglerModel::default();
        let mut rng = StdRng::seed_from_u64(7);
        let original = vec![1.0_f64; 1000];
        let mut inflated = original.clone();
        model.inflate(&mut inflated, 32, &mut rng);
        let slowed = inflated.iter().filter(|&&t| t > 1.0).count();
        assert!(inflated.iter().all(|&t| t >= 1.0));
        // Expect roughly 25% stragglers at p=32.
        assert!((150..350).contains(&slowed), "slowed = {slowed}");
        assert!(inflated
            .iter()
            .all(|&t| t <= model.max_slowdown * 1.0 + 1e-12));
    }

    #[test]
    fn zero_model_passes_task_times_through() {
        let model = SimCostModel::zero();
        let mut rng = StdRng::seed_from_u64(0);
        let (eff, makespan) = model.step_wall_secs(&[2.0, 1.0, 3.0], 3, &mut rng);
        assert_eq!(eff, vec![2.0, 1.0, 3.0]);
        assert_eq!(makespan, 3.0);
        assert_eq!(model.broadcast_secs(1 << 20, 8), 0.0);
        assert_eq!(model.shuffle_secs(1 << 20, 8), 0.0);
    }

    #[test]
    fn makespan_with_one_slot_is_total_time() {
        let model = SimCostModel::zero();
        let mut rng = StdRng::seed_from_u64(0);
        let (_, makespan) = model.step_wall_secs(&[1.0, 2.0, 3.0], 1, &mut rng);
        assert_eq!(makespan, 6.0);
    }

    #[test]
    fn makespan_balances_across_slots() {
        let model = SimCostModel::zero();
        let mut rng = StdRng::seed_from_u64(0);
        // Greedy least-loaded: [4] on slot A; [3, 1] on slot B → makespan 4.
        let (_, makespan) = model.step_wall_secs(&[4.0, 3.0, 1.0], 2, &mut rng);
        assert_eq!(makespan, 4.0);
    }

    #[test]
    fn per_task_overhead_added_to_every_task() {
        let model = SimCostModel {
            per_task_overhead_secs: 0.5,
            ..SimCostModel::zero()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let (eff, makespan) = model.step_wall_secs(&[1.0, 1.0], 2, &mut rng);
        assert_eq!(eff, vec![1.5, 1.5]);
        assert_eq!(makespan, 1.5);
    }

    #[test]
    fn straggler_detection_survives_fast_hosts() {
        // Fast-host limit: measured compute is negligible next to the fixed
        // per-task overhead. Inflation must still spread the effective times
        // enough for relative straggler detection (> 1.2 × step mean), or
        // attribution becomes a function of host speed.
        let model = ClusterTopology::straggler_heavy(32).cost_model();
        let mut rng = StdRng::seed_from_u64(7);
        let measured = vec![1e-6_f64; 64];
        let (eff, _) = model.step_wall_secs(&measured, 8, &mut rng);
        let mean = eff.iter().sum::<f64>() / eff.len() as f64;
        let detected = eff.iter().filter(|&&t| t > 1.2 * mean).count();
        assert!(detected > 0, "no straggler detectable: mean={mean}");
    }

    #[test]
    fn broadcast_cost_scales_with_slots() {
        let model = SimCostModel {
            network: NetworkModel {
                bytes_per_sec: 1000.0,
                latency_secs: 0.0,
            },
            ..SimCostModel::zero()
        };
        // Torrent-style rounds: ⌈log₂(slots + 1)⌉ wire crossings.
        assert_eq!(model.broadcast_secs(1000, 1), 1.0);
        assert_eq!(model.broadcast_secs(1000, 4), 3.0);
        assert_eq!(model.broadcast_secs(1000, 31), 5.0);
    }

    #[test]
    #[should_panic(expected = "slot count")]
    fn zero_slots_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = SimCostModel::zero().step_wall_secs(&[1.0], 0, &mut rng);
    }

    #[test]
    fn topology_latency_grows_with_node_count() {
        let sweep: Vec<f64> = ClusterTopology::SWEEP_NODES
            .iter()
            .map(|&n| {
                ClusterTopology::simulated(n)
                    .cost_model()
                    .network
                    .latency_secs
            })
            .collect();
        assert!(sweep[0] < sweep[1] && sweep[1] < sweep[2], "{sweep:?}");
    }

    #[test]
    fn straggler_heavy_topology_is_strictly_worse() {
        let plain = ClusterTopology::simulated(32).cost_model();
        let heavy = ClusterTopology::straggler_heavy(32).cost_model();
        let (p, h) = (plain.straggler.unwrap(), heavy.straggler.unwrap());
        assert!(h.probability(32) > p.probability(32));
        assert!(h.max_slowdown > p.max_slowdown);
        assert_eq!(plain.network, heavy.network);
    }

    #[test]
    fn topology_labels_name_the_regime() {
        assert_eq!(ClusterTopology::simulated(10).label(), "n10");
        assert_eq!(
            ClusterTopology::straggler_heavy(100).label(),
            "n100-straggler"
        );
    }
}
