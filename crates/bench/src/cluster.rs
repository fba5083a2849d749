//! The modeled cluster: what a recorded run would have cost on the paper's
//! testbed, computed from the run's own [`BatchRecord`]s.
//!
//! The runtime measures and never prices. A [`Replay`] takes each recorded
//! batch of one run, in order, through the workspace's one replay
//! ([`replay`], at the batch's own `p`) with [`SimCostModel`]'s charges:
//! per-task scheduling overhead and seeded straggler slowdowns before the
//! list schedule of the slowed tasks over the batch's `p` slots, and the
//! network and job-submission overhead of the batch after its critical
//! path. The defaults are calibrated to the paper's testbed observations:
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
//! Because the model is computed from the same measured task times the run
//! recorded, a replay with no charges gives back the recorded batches: the
//! model's error is its charges, never a second measurement.

use diststream_engine::{BatchRecord, StepMetrics, ThroughputMeter};
use diststream_telemetry::time_model::replay;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bandwidth/latency model of the cluster interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NetworkModel {
    /// Link bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed cost per message (framing + RTT share) in seconds.
    pub latency_secs: f64,
}

impl NetworkModel {
    /// Time to move `bytes` in `messages` discrete messages.
    pub(crate) fn transfer_secs(&self, bytes: u64, messages: u64) -> f64 {
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StragglerModel {
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
    fn probability(&self, slots: usize) -> f64 {
        (slots as f64 * self.prob_per_slot).min(self.max_prob)
    }

    /// Applies random slowdowns in place to `task_secs`.
    fn inflate(&self, task_secs: &mut [f64], slots: usize, rng: &mut StdRng) {
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

/// The charges of the modeled cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SimCostModel {
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
    /// A cost model with no overheads, no network cost, and no stragglers:
    /// a replay under it gives back the recorded times.
    #[cfg(test)]
    pub(crate) fn zero() -> Self {
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

    /// The charges on one recorded step's tasks: per-task overhead, then
    /// straggler inflation. The replay then schedules them over `slots`
    /// and keeps the step's recorded residual.
    ///
    /// Overhead is added *before* inflation: OS/JVM noise slows a task's
    /// whole slot occupancy — scheduling and serialization included — so a
    /// straggler's slowdown factor survives relative to the step mean even
    /// when the measured compute is tiny next to the fixed overhead.
    fn charge_tasks(&self, tasks: &mut [f64], slots: usize, rng: &mut StdRng) {
        for t in tasks.iter_mut() {
            *t += self.per_task_overhead_secs * self.workload_scale;
        }
        if let Some(model) = &self.straggler {
            model.inflate(tasks, slots, rng);
        }
    }

    /// Network time to broadcast a `payload_bytes` model to `slots` tasks.
    ///
    /// Models a torrent-style broadcast (Spark's `TorrentBroadcast`): the
    /// payload crosses the wire `⌈log₂(slots + 1)⌉` times as peers re-share
    /// it, plus one control message per slot.
    fn broadcast_secs(&self, payload_bytes: u64, slots: usize) -> f64 {
        let rounds = ((slots + 1) as f64).log2().ceil();
        (payload_bytes as f64 / self.network.bytes_per_sec * rounds
            + slots as f64 * self.network.latency_secs)
            * self.workload_scale
    }

    /// Network time for an all-to-all shuffle of `bytes` across `slots`
    /// partitions: every node pushes its `bytes / slots` share over its own
    /// link concurrently, and each pair exchanges one message.
    fn shuffle_secs(&self, bytes: u64, slots: usize) -> f64 {
        let per_link = bytes as f64 / slots as f64;
        per_link / self.network.bytes_per_sec
            + slots as f64 * self.network.latency_secs * self.workload_scale
    }

    /// Network time to collect `bytes` of task output onto the driver.
    fn collect_secs(&self, bytes: u64, slots: usize) -> f64 {
        bytes as f64 / self.network.bytes_per_sec
            + slots as f64 * self.network.latency_secs * self.workload_scale
    }

    /// The network and scheduling overhead of one recorded batch: the fixed
    /// job submission, the broadcast of the model to every slot, the
    /// shuffle between the steps and, when the batch's critical path waits
    /// for it (the synchronous protocol), the collect onto the driver.
    fn batch_overhead_secs(&self, batch: &BatchRecord, slots: usize) -> f64 {
        let model_bytes = batch.broadcast_bytes / slots as u64;
        let mut secs = self.per_batch_overhead_secs * self.workload_scale
            + self.broadcast_secs(model_bytes, slots)
            + self.shuffle_secs(batch.shuffle_bytes, slots);
        if !batch.async_overlap {
            secs += self.collect_secs(batch.collect_bytes, slots);
        }
        secs
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

/// A recorded batch as the modeled cluster prices it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Priced {
    /// Step 1: the charged tasks and their wall on the recorded slots.
    pub(crate) assignment: StepMetrics,
    /// Step 2, likewise.
    pub(crate) local: StepMetrics,
    /// The batch's network and job-submission overhead.
    pub(crate) overhead_secs: f64,
    total_secs: f64,
}

impl Priced {
    /// The priced batch time: its critical path, then its overhead.
    pub(crate) fn total_secs(&self) -> f64 {
        self.total_secs
    }
}

/// Prices one run's recorded batches on the modeled cluster, in the order
/// the run recorded them, and meters the priced batches.
#[derive(Debug)]
pub(crate) struct Replay {
    cost: SimCostModel,
    /// The straggler draws of the whole run: step 1, then step 2, batch
    /// after batch.
    rng: StdRng,
    /// The recorded batches' seconds, summed as the run's meter sums them.
    recorded_secs: f64,
    priced: ThroughputMeter,
}

impl Replay {
    /// Seed of every run's straggler draws.
    const SEED: u64 = 0xD157_57E0;

    /// A replay of one run under `cost`.
    pub(crate) fn new(cost: SimCostModel) -> Self {
        Replay {
            cost,
            rng: StdRng::seed_from_u64(Self::SEED),
            recorded_secs: 0.0,
            priced: ThroughputMeter::new(),
        }
    }

    /// Prices the run's next recorded batch and meters it; returns the
    /// priced batch. Call once per batch, in batch order.
    pub(crate) fn batch(&mut self, recorded: &BatchRecord) -> Priced {
        let slots = recorded.parallelism.max(1);
        let (cost, rng) = (&self.cost, &mut self.rng);
        let mut charge = |tasks: &mut [f64]| cost.charge_tasks(tasks, slots, rng);
        let priced = replay(recorded, slots, &mut charge);
        let overhead_secs = cost.batch_overhead_secs(recorded, slots);
        let total_secs = priced.total_secs() + overhead_secs;
        self.recorded_secs += recorded.total_secs();
        self.priced.observe(&priced, total_secs);
        Priced {
            assignment: priced.assignment,
            local: priced.local,
            overhead_secs,
            total_secs,
        }
    }

    /// The run's priced meter. `run` is the run's own meter: its time
    /// beyond the recorded batches is the stream-end flush of an
    /// overlapped run (its last pending global update), charged once as
    /// measured.
    pub(crate) fn meter(mut self, run: &ThroughputMeter) -> ThroughputMeter {
        self.priced.observe_flush(run.secs() - self.recorded_secs);
        self.priced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_telemetry::time_model::list_makespan;

    /// What the runtime charged the fixture below while it still priced
    /// steps itself (per-task overhead and straggler draws in `run_tasks`,
    /// the set-up charge, then `batch_overhead_secs`), for
    /// `SimCostModel::default()` at workload scale 0.5: every priced task
    /// time, batch after batch (step 1's tasks, then step 2's).
    const TASKS: [f64; 82] = [
        0.003,
        0.0025,
        0.0032500000000000003,
        0.005,
        0.004,
        0.003,
        0.00475,
        0.00375,
        0.00903949057325773,
        0.0045000000000000005,
        0.004479677436342144,
        0.0035,
        0.004333333333333333,
        0.003,
        0.0038333333333333336,
        0.0025,
        0.0033333333333333335,
        0.0041666666666666675,
        0.0035,
        0.00525,
        0.009098040968975553,
        0.0032500000000000003,
        0.005,
        0.006491114043583247,
        0.003,
        0.009550040593055724,
        0.00375,
        0.0055,
        0.0045000000000000005,
        0.0035,
        0.00525,
        0.00425,
        0.0032500000000000003,
        0.005,
        0.004,
        0.003,
        0.00475,
        0.005620244251477607,
        0.0055,
        0.0045000000000000005,
        0.0035,
        0.00525,
        0.00425,
        0.0032500000000000003,
        0.005,
        0.004,
        0.004947142341820088,
        0.007725200940304204,
        0.004954111858452631,
        0.0055,
        0.0028333333333333335,
        0.003666666666666667,
        0.0045000000000000005,
        0.0031666666666666666,
        0.00784547225410834,
        0.0035144106352537766,
        0.005345609563841871,
        0.004333333333333333,
        0.004462599010774498,
        0.0038333333333333336,
        0.0025,
        0.0033333333333333335,
        0.0041666666666666675,
        0.0028333333333333335,
        0.003666666666666667,
        0.0045000000000000005,
        0.004663515952236572,
        0.004,
        0.0026666666666666666,
        0.0035,
        0.006911086237729806,
        0.003,
        0.0038333333333333336,
        0.0025,
        0.0033333333333333335,
        0.0041666666666666675,
        0.0028333333333333335,
        0.005977524970397823,
        0.0045000000000000005,
        0.005122878473780837,
        0.004,
        0.0026666666666666666,
    ];

    /// Per batch: step-1 wall, step-2 wall, `overhead_secs`, `total_secs`;
    /// the synchronous run, then the overlapped one.
    const ROWS: [[[f64; 4]; 3]; 2] = [
        [
            [0.0032500000000000003, 0.0025, 0.026942, 0.035692],
            [
                0.00928949057325773,
                0.004479677436342144,
                0.031859,
                0.05162816800959987,
            ],
            [
                0.009800040593055724,
                0.00784547225410834,
                0.0501215,
                0.07676701284716406,
            ],
        ],
        [
            [0.0032500000000000003, 0.0025, 0.02662, 0.03237],
            [
                0.00928949057325773,
                0.004479677436342144,
                0.029783,
                0.04355216800959988,
            ],
            [
                0.009800040593055724,
                0.00784547225410834,
                0.0420415,
                0.059687012847164066,
            ],
        ],
    ];

    /// Priced meter seconds (the overlapped run's 4 ms flush included) per
    /// run, and the straggler fraction both runs share.
    const METER_SECS: [f64; 2] = [0.16808718085676394, 0.13960918085676396];
    const STRAGGLER_FRACTION: f64 = 0.13414634146341464;

    /// Batch `b` of the fixture run as the runtime records it: `p` tasks
    /// per step, a 0.25 ms set-up residual on step 1, and non-zero
    /// broadcast, shuffle and collect bytes.
    fn recorded(b: usize, p: usize, overlap: bool) -> BatchRecord {
        let step1: Vec<f64> = (0..p)
            .map(|i| 1e-3 * (1.0 + ((i * 7 + b) % 11) as f64 / 4.0))
            .collect();
        let step2: Vec<f64> = (0..p)
            .map(|i| 5e-4 * (1.0 + ((i * 5 + b) % 13) as f64 / 3.0))
            .collect();
        let wall1 = list_makespan(&step1, p) + 2.5e-4;
        let wall2 = list_makespan(&step2, p);
        BatchRecord {
            batch_index: b,
            records: 1000,
            assignment: StepMetrics::new(step1, wall1),
            local: StepMetrics::new(step2, wall2),
            global_secs: 3e-3 * (1 + b) as f64,
            broadcast_bytes: (40_000 + 1_000 * b as u64) * p as u64,
            shuffle_bytes: 120_000 + 7_000 * b as u64,
            collect_bytes: 9_000 + 500 * b as u64,
            async_overlap: overlap,
            parallelism: p,
            ..BatchRecord::default()
        }
    }

    fn assert_close(got: f64, want: f64, what: &str) {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs(),
            "{what}: replayed {got:e}, pinned {want:e}"
        );
    }

    #[test]
    fn replay_prices_recorded_batches_as_the_runtime_charged_them() {
        let cost = SimCostModel {
            workload_scale: 0.5,
            ..SimCostModel::default()
        };
        for (run, overlap) in [false, true].into_iter().enumerate() {
            let mut replay = Replay::new(cost);
            let mut run_meter = ThroughputMeter::new();
            let mut tasks = Vec::new();
            for (b, p) in [1, 8, 32].into_iter().enumerate() {
                let batch = recorded(b, p, overlap);
                run_meter.observe(&batch, batch.total_secs());
                let priced = replay.batch(&batch);
                tasks.extend_from_slice(priced.assignment.task_secs());
                tasks.extend_from_slice(priced.local.task_secs());
                let got = [
                    priced.assignment.wall_secs(),
                    priced.local.wall_secs(),
                    priced.overhead_secs,
                    priced.total_secs(),
                ];
                for (k, (&got, &want)) in got.iter().zip(&ROWS[run][b]).enumerate() {
                    assert_close(got, want, &format!("overlap={overlap} batch={b} field={k}"));
                }
            }
            assert_eq!(tasks.len(), TASKS.len());
            for (i, (&got, &want)) in tasks.iter().zip(&TASKS).enumerate() {
                assert_close(got, want, &format!("overlap={overlap} task {i}"));
            }
            run_meter.observe_flush(4e-3);
            let meter = replay.meter(&run_meter);
            assert_close(meter.secs(), METER_SECS[run], "meter secs");
            assert_eq!(meter.straggler_fraction(), STRAGGLER_FRACTION);
        }
    }

    #[test]
    fn a_zero_cost_replay_gives_the_recorded_batches_back() {
        let mut replay = Replay::new(SimCostModel::zero());
        for (b, p) in [1, 8, 32].into_iter().enumerate() {
            let batch = recorded(b, p, false);
            let priced = replay.batch(&batch);
            assert_eq!(priced.assignment.task_secs(), batch.assignment.task_secs());
            assert_eq!(priced.local, batch.local);
            assert_close(
                priced.assignment.wall_secs(),
                batch.assignment.wall_secs(),
                "set-up residual",
            );
            assert_eq!(priced.overhead_secs, 0.0);
        }
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
        let mut inflated = vec![1.0_f64; 1000];
        model.inflate(&mut inflated, 32, &mut rng);
        let slowed = inflated.iter().filter(|&&t| t > 1.0).count();
        assert!(inflated.iter().all(|&t| t >= 1.0));
        // Expect roughly 25% stragglers at p=32.
        assert!((150..350).contains(&slowed), "slowed = {slowed}");
        assert!(inflated.iter().all(|&t| t <= model.max_slowdown + 1e-12));
    }

    #[test]
    fn straggler_detection_survives_fast_hosts() {
        // Fast-host limit: measured compute is negligible next to the fixed
        // per-task overhead. Inflation must still spread the priced times
        // enough for relative straggler detection (> 1.2 × step mean), or
        // attribution becomes a function of host speed. The placement is
        // straggler-heavy: four times the default probability per slot,
        // slowdowns up to 4×.
        let model = SimCostModel {
            straggler: Some(StragglerModel {
                prob_per_slot: 4.0 / 128.0,
                max_prob: 0.6,
                min_slowdown: 1.5,
                max_slowdown: 4.0,
            }),
            ..SimCostModel::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let recorded = BatchRecord {
            assignment: StepMetrics::new(vec![1e-6; 64], 8e-6),
            parallelism: 8,
            ..BatchRecord::default()
        };
        let mut charge = |tasks: &mut [f64]| model.charge_tasks(tasks, 8, &mut rng);
        let priced = replay(&recorded, 8, &mut charge).assignment;
        assert!(priced.straggler_fraction() > 0.0, "no straggler detectable");
    }

    #[test]
    fn network_charges_follow_bytes_slots_and_latency() {
        let net = NetworkModel {
            bytes_per_sec: 1000.0,
            latency_secs: 0.1,
        };
        assert!((net.transfer_secs(500, 2) - 0.7).abs() < 1e-12);
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
        assert_eq!(model.shuffle_secs(1000, 4), 0.25);
        assert_eq!(model.collect_secs(1000, 4), 1.0);
    }
}
