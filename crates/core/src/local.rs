//! Step 2 — local update with model-based parallelism (paper §V-B).
//!
//! The assignment step's `(record, assignment)` pairs are grouped by
//! micro-cluster key (`groupByKey`), the groups are distributed across `p`
//! tasks, and each task folds its groups' records into detached sketches.
//!
//! In order-aware mode the paper has "each task first sort[] the absorbed
//! records of each micro-cluster based on the timestamps to enforce the
//! update order", then fold them one record at a time. Here the batch
//! reaches step 2 already sorted by arrival key `(timestamp, id)` — an
//! in-order stream is, and the reorder buffer releases it so — and for such
//! a batch ascending arrival position within a group *is* that stable
//! sorted order. So a task neither copies nor sorts a group: it sweeps its
//! own records once, in arrival order, folding each into its group's
//! sketch. Groups are independent, so interleaving their folds changes no
//! sketch; each group still sees exactly the paper's per-group order, and
//! the batch is read front to back instead of once per micro-cluster. A
//! batch that is not in arrival order (a disordered stream with no reorder
//! buffer, or a hand-built call) is stably sorted by arrival key once per
//! task first, which gives the same per-group order. The unordered baseline
//! folds each group in a seeded-shuffle order instead.

use std::borrow::Cow;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use diststream_engine::{
    fnv1a_hash, Broadcast, FlatShuffle, ShufflePartition, StepMetrics, StreamingContext,
};
use diststream_types::{DistStreamError, Record, RecordId, Result, Timestamp};

use crate::api::{Assignment, MicroClusterId, StreamClustering, UpdateOrdering};
use crate::distribution::Placement;

/// Bytes a shuffle message's key envelope occupies on the wire: the
/// `(kind, key)` group key, two `u64`s. Charged once per record: every
/// record crosses the shuffle as its own keyed message, as under Spark's
/// `groupByKey`.
pub(crate) const SHUFFLE_KEY_BYTES: u64 = 16;

/// A micro-cluster that existed in `Q_t` and absorbed records this batch.
#[derive(Debug, Clone)]
pub struct UpdatedSketch<S> {
    /// Id of the micro-cluster within the model.
    pub id: MicroClusterId,
    /// The sketch after folding the batch's records.
    pub sketch: S,
    /// Arrival key of the last record folded (global-update ordering tag).
    pub last_arrival: (Timestamp, RecordId),
    /// Number of records absorbed.
    pub absorbed: usize,
}

/// A micro-cluster newly created for outlier records this batch.
#[derive(Debug, Clone)]
pub struct CreatedSketch<S> {
    /// The freshly created sketch.
    pub sketch: S,
    /// Arrival key of the record that created it (global-update ordering
    /// tag — the paper orders new micro-clusters by creation time).
    pub first_arrival: (Timestamp, RecordId),
    /// Number of records absorbed (≥ 1).
    pub absorbed: usize,
}

/// Output of the local update step.
#[derive(Debug, Clone)]
pub struct LocalOutcome<S> {
    /// Existing micro-clusters updated by this batch.
    pub updated: Vec<UpdatedSketch<S>>,
    /// New micro-clusters created by this batch (before pre-merge).
    pub created: Vec<CreatedSketch<S>>,
    /// Step timing (model-based parallel tasks).
    pub metrics: StepMetrics,
    /// Estimated bytes moved by the shuffle.
    pub shuffle_bytes: u64,
    /// Measured seconds the driver spent handling records around the
    /// parallel tasks — accounting, keying, grouping and routing (and
    /// dropping the previous batch, if nobody took it out of the scratch):
    /// the call's elapsed time minus the task pool's. The framework's own
    /// per-record cost, which no task metric shows.
    pub driver_secs: f64,
}

/// Reusable scratch for [`local_update_distributed`].
///
/// Holds the shuffle's buffers — group table, each partition's group list
/// and its arrival-order sweep, all rebuilt every batch and recycled at
/// steady state — and the last batch the step finished with, which leaves
/// through here because it should be freed by whoever allocated it, not by
/// the step.
#[derive(Debug, Default)]
pub struct LocalScratch {
    shuffle: FlatShuffle,
    spent: SpentBatch,
}

/// A batch the steps are done with, on its way back to its allocator.
pub(crate) type SpentBatch = Vec<(Record, Assignment)>;

impl LocalScratch {
    /// The batch the last successful [`local_update_distributed`] call
    /// finished with (empty if it was already taken). Left alone, it is
    /// dropped when the next call replaces it.
    pub(crate) fn take_spent(&mut self) -> SpentBatch {
        std::mem::take(&mut self.spent)
    }
}

/// The batch's arrival positions as the `u32` index space the shuffle works
/// in. A batch too long for it is refused, never truncated.
fn index_space(records: usize) -> Result<u32> {
    u32::try_from(records).map_err(|_| {
        DistStreamError::InvalidConfig(format!(
            "a mini-batch of {records} records exceeds the {} the local update can index; \
             shorten the batch window",
            u32::MAX
        ))
    })
}

/// Runs step 2: groups records by their chosen micro-cluster, distributes
/// the groups across tasks, and folds each group into a detached sketch in
/// the configured [`UpdateOrdering`].
///
/// The step owns the batch (`pairs`) and nothing in it copies a record:
/// what is keyed, routed and shipped to tasks is each record's `u32`
/// arrival position, and every task borrows the batch to fold
/// `&pairs[position]`. When the tasks are done the batch is parked in
/// `scratch`: the job's drive loop hands it back to the prefetch thread
/// that allocated it; any other caller drops it, on its own thread, with
/// the next call.
///
/// In [`UpdateOrdering::OrderAware`] each task makes one pass over its
/// records in arrival order and folds each into its group's sketch. Every
/// group therefore sees its records sorted by arrival key, as the paper's
/// per-group sort would leave them, when the batch is sorted by arrival key
/// — as every batch cut from an in-order stream or released by the reorder
/// buffer is. For a batch that is not, each task first sorts its records by
/// arrival key, stably, which again gives every group that order. A group's
/// `first_arrival` and `last_arrival` tags are its first and last records
/// in that order.
///
/// In [`UpdateOrdering::Unordered`] the baseline "does not distinguish the
/// data arrival orders" (paper §I): each group is folded in a seeded-shuffle
/// order **and** every record's timestamp is collapsed to `window_start`
/// (on the driver, before the tasks borrow the batch), so no within-batch
/// recency information reaches the sketches. `shuffle_seed`
/// drives the shuffles (combined with each group's key, so results are
/// deterministic for a given seed, independent of parallelism).
///
/// The grouping is one [`FlatShuffle`] pass: each partition's keys in
/// first-occurrence order and its records in arrival order, each tagged
/// with its group. The shuffle is charged as the paper's uncombined
/// `groupByKey`: every record's serialized payload plus a 16-byte key
/// envelope per record. `_combine` is unused: there is no map-side
/// combine, because no byte crosses a process boundary here. It stays until
/// ROADMAP item 8 drops it, with step 1's `_placement` and the benchmark's
/// stepped pass that calls both steps.
///
/// Each group goes to the reduce partition the `placement` hashes its key
/// to ([`Placement::reduce_partition`]); routing only moves whole groups
/// between reduce partitions, so under [`UpdateOrdering::OrderAware`] the
/// sketches are bit-identical at every parallelism degree.
///
/// # Errors
///
/// Propagates engine failures (task panics) as
/// [`DistStreamError::Engine`](diststream_types::DistStreamError::Engine),
/// and refuses a batch of more than `u32::MAX` records with
/// [`DistStreamError::InvalidConfig`].
#[allow(clippy::too_many_arguments)] // the step's inputs plus scratch, the unused combine flag and the placement
pub fn local_update_distributed<A: StreamClustering>(
    ctx: &StreamingContext,
    algo: &A,
    model: &Broadcast<A::Model>,
    mut pairs: Vec<(Record, Assignment)>,
    ordering: UpdateOrdering,
    window_start: Timestamp,
    shuffle_seed: u64,
    scratch: &mut LocalScratch,
    _combine: bool,
    placement: Placement,
) -> Result<LocalOutcome<A::Sketch>> {
    let entered = Instant::now(); // lint:allow(wallclock-entropy) driver-side timing feeds step metrics only
    let record_count = u64::from(index_space(pairs.len())?);
    // Shuffle accounting: each record's serialized payload crosses the wire
    // exactly once (to its key's destination partition), plus one key
    // envelope per record.
    let payload_bytes: u64 = pairs.iter().map(|(r, _)| r.wire_size()).sum();
    let shuffle_bytes = payload_bytes + SHUFFLE_KEY_BYTES * record_count;
    let p = ctx.parallelism();

    let partitions = scratch.shuffle.group(
        pairs.iter().map(|(_, assignment)| assignment.group_key()),
        p,
        |key| placement.reduce_partition(key, p),
    )?;

    // Whether a task's records in arrival position are already in
    // arrival-key order: true of every batch cut from an in-order stream or
    // released by the reorder buffer.
    let in_arrival_order = ordering == UpdateOrdering::OrderAware
        && pairs.is_sorted_by_key(|(record, _)| record.arrival_key());
    if ordering == UpdateOrdering::Unordered {
        // Collapse arrival times: the unordered baseline treats the whole
        // batch as one unordered bag.
        for (record, _) in &mut pairs {
            record.timestamp = window_start;
        }
    }

    // Tasks get views — their partition by reference, the batch by borrow —
    // so a panicking attempt has nothing of the batch to lose and its retry
    // reads the same view.
    let batch = pairs.as_slice();
    let arrival_at = |&(position, _): &(u32, u32)| {
        let record = batch.get(position as usize).map(|(record, _)| record);
        record.map(Record::arrival_key)
    };
    let views: Vec<&ShufflePartition> = partitions.iter().collect();
    let tasks_start = Instant::now(); // lint:allow(wallclock-entropy) driver-side timing feeds step metrics only
    let (outputs, metrics) = ctx.run_tasks(
        views,
        |_task, part: &ShufflePartition| -> TaskOut<A::Sketch> {
            let order = match ordering {
                UpdateOrdering::OrderAware if in_arrival_order => {
                    Cow::Borrowed(part.sweep.as_slice())
                }
                UpdateOrdering::OrderAware => {
                    let mut order = part.sweep.clone();
                    order.sort_by_key(arrival_at);
                    Cow::Owned(order)
                }
                UpdateOrdering::Unordered => Cow::Owned(shuffled_groups(part, shuffle_seed)),
            };
            // The whole order ascends in arrival key, so each group's does.
            #[cfg(feature = "debug_invariants")]
            assert!(
                ordering == UpdateOrdering::Unordered || order.is_sorted_by_key(arrival_at),
                "debug_invariants: step 2 folds a record before one that arrived earlier"
            );
            fold_in_order(algo, &model.handle(), batch, part, &order)
        },
    )?;
    let tasks_secs = tasks_start.elapsed().as_secs_f64();

    let mut updated = Vec::new();
    let mut created = Vec::new();
    for (u, c) in outputs {
        updated.extend(u);
        created.extend(c);
    }
    // Allocated once by the source, moved into the batch, borrowed ever
    // since — and freed by whoever takes the batch out of the scratch.
    scratch.spent = pairs;
    Ok(LocalOutcome {
        updated,
        created,
        metrics,
        shuffle_bytes,
        driver_secs: entered.elapsed().as_secs_f64() - tasks_secs,
    })
}

/// One reduce task's output: the micro-clusters its partition updated and
/// created, each list in the partition's group order.
type TaskOut<S> = (Vec<UpdatedSketch<S>>, Vec<CreatedSketch<S>>);

/// The unordered baseline's fold order: each group's records in a shuffle
/// seeded by the run's `shuffle_seed` and the group key (so the same at
/// every p), group after group.
fn shuffled_groups(part: &ShufflePartition, shuffle_seed: u64) -> Vec<(u32, u32)> {
    let mut order = Vec::with_capacity(part.sweep.len());
    let groups = (0u32..).zip(&part.groups).zip(part.positions_by_group());
    for ((slot, (kind, key)), mut positions) in groups {
        let seed = shuffle_seed ^ fnv1a_hash(&kind.to_le_bytes()) ^ fnv1a_hash(&key.to_le_bytes());
        // lint:allow(wallclock-entropy) the same shuffle, per-group seed from the driver's
        positions.shuffle(&mut StdRng::seed_from_u64(seed));
        order.extend(positions.into_iter().map(|position| (position, slot)));
    }
    order
}

/// A group's sketch part-way through a task's fold.
struct Folding<S> {
    sketch: S,
    first_arrival: (Timestamp, RecordId),
    last_arrival: (Timestamp, RecordId),
    absorbed: usize,
}

/// Folds `part`'s records into their groups' sketches in one pass, in the
/// order `order` lists them. A group's first record in `order` starts its
/// sketch — the model's copy folded with it for an existing micro-cluster,
/// `create` for a new one — and each later one is folded with `update`. A
/// group's arrival tags are the least and greatest arrival keys among its
/// records: in an order-aware fold, its first and its last.
fn fold_in_order<A: StreamClustering>(
    algo: &A,
    model: &A::Model,
    batch: &[(Record, Assignment)],
    part: &ShufflePartition,
    order: &[(u32, u32)],
) -> TaskOut<A::Sketch> {
    let mut folding: Vec<Option<Folding<A::Sketch>>> = Vec::with_capacity(part.groups.len());
    folding.resize_with(part.groups.len(), || None);
    for &(position, slot) in order {
        let (Some((record, _)), Some(&(kind, key)), Some(group)) = (
            batch.get(position as usize),
            part.groups.get(slot as usize),
            folding.get_mut(slot as usize),
        ) else {
            continue;
        };
        let arrival = record.arrival_key();
        match group {
            Some(group) => {
                algo.update(&mut group.sketch, record);
                group.first_arrival = group.first_arrival.min(arrival);
                group.last_arrival = group.last_arrival.max(arrival);
                group.absorbed += 1;
            }
            None => {
                let sketch = if kind == Assignment::KIND_EXISTING {
                    let mut sketch = algo.sketch_of(model, key);
                    algo.update(&mut sketch, record);
                    sketch
                } else {
                    algo.create(record)
                };
                *group = Some(Folding {
                    sketch,
                    first_arrival: arrival,
                    last_arrival: arrival,
                    absorbed: 1,
                });
            }
        }
    }
    let mut updated = Vec::new();
    let mut created = Vec::new();
    for (&(kind, key), group) in part.groups.iter().zip(folding) {
        // The shuffle makes no empty group; one would carry nothing.
        let Some(group) = group else {
            continue;
        };
        if kind == Assignment::KIND_EXISTING {
            updated.push(UpdatedSketch {
                id: key,
                sketch: group.sketch,
                last_arrival: group.last_arrival,
                absorbed: group.absorbed,
            });
        } else {
            created.push(CreatedSketch {
                sketch: group.sketch,
                first_arrival: group.first_arrival,
                absorbed: group.absorbed,
            });
        }
    }
    (updated, created)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MicroClusterId;
    use crate::api::Sketch;
    use crate::reference::{NaiveClustering, NaiveSketch};
    use diststream_engine::{group_by_key, serialized_size, ExecutionMode};
    use diststream_types::{ClassId, Point};

    fn rec(id: u64, x: f64, t: f64) -> Record {
        Record::new(id, Point::from(vec![x]), Timestamp::from_secs(t))
    }

    fn run_local(
        p: usize,
        ordering: UpdateOrdering,
        pairs: Vec<(Record, Assignment)>,
    ) -> LocalOutcome<crate::reference::NaiveSketch> {
        let algo = NaiveClustering::new(1.0);
        let model = algo.init(&[rec(0, 0.0, 0.0), rec(1, 10.0, 0.0)]).unwrap();
        let ctx = StreamingContext::new(p, ExecutionMode::Simulated).unwrap();
        let bcast = Broadcast::new(model);
        local_update_distributed(
            &ctx,
            &algo,
            &bcast,
            pairs,
            ordering,
            Timestamp::ZERO,
            7,
            &mut LocalScratch::default(),
            false,
            Placement,
        )
        .unwrap()
    }

    #[test]
    fn groups_fold_in_arrival_order() {
        // Records arrive shuffled within the batch pair list; order-aware
        // local update must still fold them by arrival key.
        let pairs = vec![
            (rec(4, 0.4, 4.0), Assignment::Existing(0)),
            (rec(2, 0.2, 2.0), Assignment::Existing(0)),
            (rec(3, 0.3, 3.0), Assignment::Existing(0)),
        ];
        let out = run_local(2, UpdateOrdering::OrderAware, pairs);
        assert_eq!(out.updated.len(), 1);
        let u = &out.updated[0];
        assert_eq!(u.absorbed, 3);
        assert_eq!(u.last_arrival, (Timestamp::from_secs(4.0), 4));
        // Reference fold: decay-then-add in order 2, 3, 4.
        let algo = NaiveClustering::new(1.0);
        let model = algo.init(&[rec(0, 0.0, 0.0), rec(1, 10.0, 0.0)]).unwrap();
        let mut expected = algo.sketch_of(&model, 0);
        for r in [rec(2, 0.2, 2.0), rec(3, 0.3, 3.0), rec(4, 0.4, 4.0)] {
            algo.update(&mut expected, &r);
        }
        assert_eq!(u.sketch, expected);
    }

    #[test]
    fn result_independent_of_parallelism() {
        let pairs: Vec<(Record, Assignment)> = (2..50)
            .map(|i| {
                let a = if i % 7 == 0 {
                    Assignment::New(i)
                } else {
                    Assignment::Existing(i % 2)
                };
                (rec(i, (i % 10) as f64 / 10.0, i as f64), a)
            })
            .collect();
        let baseline = run_local(1, UpdateOrdering::OrderAware, pairs.clone());
        for p in [2, 4, 8] {
            let out = run_local(p, UpdateOrdering::OrderAware, pairs.clone());
            let mut base_updated: Vec<_> = baseline
                .updated
                .iter()
                .map(|u| (u.id, u.sketch.clone()))
                .collect();
            let mut got_updated: Vec<_> = out
                .updated
                .iter()
                .map(|u| (u.id, u.sketch.clone()))
                .collect();
            base_updated.sort_by_key(|(id, _)| *id);
            got_updated.sort_by_key(|(id, _)| *id);
            assert_eq!(base_updated, got_updated, "parallelism {p}");
            let mut base_created: Vec<_> =
                baseline.created.iter().map(|c| c.first_arrival).collect();
            let mut got_created: Vec<_> = out.created.iter().map(|c| c.first_arrival).collect();
            base_created.sort();
            got_created.sort();
            assert_eq!(base_created, got_created, "parallelism {p}");
        }
    }

    #[test]
    fn outliers_with_same_key_coalesce() {
        let pairs = vec![
            (rec(2, 5.0, 2.0), Assignment::New(42)),
            (rec(3, 5.1, 3.0), Assignment::New(42)),
            (rec(4, 7.0, 4.0), Assignment::New(99)),
        ];
        let out = run_local(3, UpdateOrdering::OrderAware, pairs);
        assert_eq!(out.created.len(), 2);
        let big = out.created.iter().find(|c| c.absorbed == 2).unwrap();
        assert_eq!(big.first_arrival, (Timestamp::from_secs(2.0), 2));
    }

    #[test]
    fn unordered_mode_folds_differently() {
        // A group whose fold result is order-sensitive (decay between
        // records): ordered and unordered outputs should differ for some
        // seed. Records are spaced 1s apart so decay matters.
        let pairs: Vec<(Record, Assignment)> = (0..8)
            .map(|i| (rec(i + 2, i as f64, i as f64), Assignment::Existing(0)))
            .collect();
        let ordered = run_local(1, UpdateOrdering::OrderAware, pairs.clone());
        let unordered = run_local(1, UpdateOrdering::Unordered, pairs);
        assert_ne!(ordered.updated[0].sketch, unordered.updated[0].sketch);
    }

    #[test]
    fn unordered_mode_is_seed_deterministic() {
        let pairs: Vec<(Record, Assignment)> = (0..8)
            .map(|i| (rec(i + 2, i as f64, i as f64), Assignment::Existing(0)))
            .collect();
        let a = run_local(2, UpdateOrdering::Unordered, pairs.clone());
        let b = run_local(2, UpdateOrdering::Unordered, pairs);
        assert_eq!(a.updated[0].sketch, b.updated[0].sketch);
    }

    #[test]
    fn empty_pairs_produce_empty_outcome() {
        let out = run_local(2, UpdateOrdering::OrderAware, Vec::new());
        assert!(out.updated.is_empty());
        assert!(out.created.is_empty());
        assert_eq!(out.shuffle_bytes, 0);
    }

    #[test]
    fn shuffle_bytes_scale_with_records() {
        let pairs: Vec<(Record, Assignment)> = (0..10)
            .map(|i| (rec(i + 2, 0.0, i as f64), Assignment::Existing(0)))
            .collect();
        let out = run_local(1, UpdateOrdering::OrderAware, pairs);
        assert!(out.shuffle_bytes > 0);
        assert_eq!(out.shuffle_bytes % 10, 0);
    }

    /// Satellite regression: the shuffle must charge each record's
    /// serialized payload exactly once. The pre-fix accounting charged the
    /// *first* record's size for every record, so a batch of mixed-width
    /// points was misbilled.
    #[test]
    fn shuffle_bytes_charge_each_payload_exactly_once() {
        let labeled = Record::labeled(
            3,
            Point::from(vec![0.3]),
            Timestamp::from_secs(3.0),
            ClassId(1),
        );
        let pairs = vec![
            (rec(2, 0.2, 2.0), Assignment::Existing(0)),
            (labeled.clone(), Assignment::Existing(0)),
        ];
        let expected: u64 = pairs
            .iter()
            .map(|(r, _)| serialized_size(r) + SHUFFLE_KEY_BYTES)
            .sum();
        // Exact counts: a 1-dim unlabeled record is 33 bytes (id 8 + vec
        // header 8 + 1×8 coords + timestamp 8 + label tag 1), a labeled one
        // 37 (tag + u32 class); plus one 16-byte key envelope each. Unequal
        // sizes catch the old first-record-size × n accounting.
        assert_eq!(serialized_size(&pairs[0].0), 33);
        assert_eq!(serialized_size(&labeled), 37);
        assert_eq!(expected, (33 + 16) + (37 + 16));
        let out = run_local(1, UpdateOrdering::OrderAware, pairs);
        assert_eq!(out.shuffle_bytes, expected);
    }

    /// A batch longer than the `u32` index space is refused with a typed
    /// error — never indexed through a truncating cast. (Such a batch
    /// cannot be allocated in a test; the guard is the one place the
    /// length becomes a `u32`.)
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn batches_past_the_u32_index_space_are_refused() {
        assert_eq!(index_space(0).unwrap(), 0);
        assert_eq!(index_space(u32::MAX as usize).unwrap(), u32::MAX);
        for too_long in [u32::MAX as usize + 1, usize::MAX] {
            let err = index_space(too_long).unwrap_err();
            assert!(
                matches!(&err, DistStreamError::InvalidConfig(m) if m.contains("exceeds")),
                "{err}"
            );
        }
    }

    /// The spent batch leaves through the scratch, whole, for its allocator
    /// to free.
    #[test]
    fn the_spent_batch_is_parked_in_the_scratch() {
        let algo = NaiveClustering::new(1.0);
        let model = algo.init(&[rec(0, 0.0, 0.0), rec(1, 10.0, 0.0)]).unwrap();
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let mut scratch = LocalScratch::default();
        let pairs: Vec<(Record, Assignment)> = (2..9)
            .map(|i| (rec(i, 0.1, i as f64), Assignment::Existing(i % 2)))
            .collect();
        local_update_distributed(
            &ctx,
            &algo,
            &Broadcast::new(model),
            pairs.clone(),
            UpdateOrdering::OrderAware,
            Timestamp::ZERO,
            7,
            &mut scratch,
            false,
            Placement,
        )
        .unwrap();
        assert_eq!(scratch.take_spent(), pairs);
        assert!(scratch.take_spent().is_empty(), "taken once");
    }

    #[test]
    fn created_weight_accumulates() {
        let pairs = vec![
            (rec(2, 5.0, 2.0), Assignment::New(1)),
            (rec(3, 5.0, 2.0), Assignment::New(1)),
        ];
        let out = run_local(1, UpdateOrdering::OrderAware, pairs);
        assert_eq!(out.created.len(), 1);
        assert!((out.created[0].sketch.weight() - 2.0).abs() < 1e-12);
    }

    /// Everything a step-2 outcome says about its sketches, in output order:
    /// updated `(id, sketch bits, last_arrival, absorbed)` and created
    /// `(sketch bits, first_arrival, absorbed)`.
    type Told = (
        Vec<(MicroClusterId, Vec<u64>, (Timestamp, RecordId), usize)>,
        Vec<(Vec<u64>, (Timestamp, RecordId), usize)>,
    );

    fn told(out: &TaskOut<NaiveSketch>) -> Told {
        let bits = |s: &NaiveSketch| -> Vec<u64> {
            let scalars = [s.weight, s.updated_at.secs()];
            s.sum.iter().chain(&scalars).map(|v| v.to_bits()).collect()
        };
        let updated = out.0.iter();
        let created = out.1.iter();
        (
            updated
                .map(|u| (u.id, bits(&u.sketch), u.last_arrival, u.absorbed))
                .collect(),
            created
                .map(|c| (bits(&c.sketch), c.first_arrival, c.absorbed))
                .collect(),
        )
    }

    /// The per-group fold the sweep replaced, as the oracle: groups from the
    /// reference `group_by_key` under the default hash route, partition
    /// after partition; each group's positions copied, sorted by arrival key
    /// (or seed-shuffled), folded on their own, and tagged with their least
    /// and greatest arrival keys.
    fn per_group_oracle(
        p: usize,
        ordering: UpdateOrdering,
        mut pairs: Vec<(Record, Assignment)>,
    ) -> Told {
        if ordering == UpdateOrdering::Unordered {
            pairs
                .iter_mut()
                .for_each(|(r, _)| r.timestamp = Timestamp::ZERO);
        }
        let algo = NaiveClustering::new(1.0);
        let model = algo.init(&[rec(0, 0.0, 0.0), rec(1, 10.0, 0.0)]).unwrap();
        let record = |i: &u32| &pairs[*i as usize].0;
        let keyed = pairs
            .iter()
            .zip(0u32..)
            .map(|((_, a), i)| (a.group_key(), i));
        let mut out: TaskOut<NaiveSketch> = (Vec::new(), Vec::new());
        for ((kind, key), mut positions) in group_by_key(keyed, p).into_iter().flatten() {
            match ordering {
                UpdateOrdering::OrderAware => positions.sort_by_key(|i| record(i).arrival_key()),
                UpdateOrdering::Unordered => {
                    let seed = 7 ^ fnv1a_hash(&kind.to_le_bytes()) ^ fnv1a_hash(&key.to_le_bytes());
                    positions.shuffle(&mut StdRng::seed_from_u64(seed));
                }
            }
            let keys = || positions.iter().map(|i| record(i).arrival_key());
            let (first_arrival, last_arrival) = (keys().min().unwrap(), keys().max().unwrap());
            let absorbed = positions.len();
            let mut records = positions.iter().map(record);
            if kind == Assignment::KIND_EXISTING {
                let mut sketch = algo.sketch_of(&model, key);
                records.for_each(|r| algo.update(&mut sketch, r));
                out.0.push(UpdatedSketch {
                    id: key,
                    sketch,
                    last_arrival,
                    absorbed,
                });
            } else {
                let mut sketch = algo.create(records.next().unwrap());
                records.for_each(|r| algo.update(&mut sketch, r));
                out.1.push(CreatedSketch {
                    sketch,
                    first_arrival,
                    absorbed,
                });
            }
        }
        told(&out)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one-pass sweep leaves every sketch, tag, count and output
        /// position where the per-group fold does: on batches in and out of
        /// arrival order, with ties in arrival key, singleton and large
        /// groups of both kinds, at p ∈ {1, 2, 3, 8}, in both orderings.
        #[test]
        fn prop_sweep_folds_like_the_per_group_oracle(
            raw in proptest::collection::vec((0u64..40, 0u32..12, -3.0f64..3.0, 0u64..100), 1usize..301),
            sorted in proptest::prelude::any::<bool>(),
            p in 0usize..4,
            unordered in proptest::prelude::any::<bool>(),
        ) {
            let p = [1, 2, 3, 8][p];
            let ordering = if unordered {
                UpdateOrdering::Unordered
            } else {
                UpdateOrdering::OrderAware
            };
            let mut pairs: Vec<(Record, Assignment)> = raw
                .iter()
                .map(|&(id, t, x, code)| {
                    // Two large existing groups; sixty outlier keys.
                    let a = if code < 40 {
                        Assignment::Existing(code % 2)
                    } else {
                        Assignment::New(code)
                    };
                    (rec(id, x, f64::from(t)), a)
                })
                .collect();
            if sorted {
                pairs.sort_by_key(|(r, _)| r.arrival_key());
            }
            let expected = per_group_oracle(p, ordering, pairs.clone());
            let out = run_local(p, ordering, pairs);
            proptest::prop_assert_eq!(told(&(out.updated, out.created)), expected);
        }
    }
}
