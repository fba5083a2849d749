//! Pluggable distribution strategies: record partitioning, key placement,
//! and shuffle routing behind one trait.
//!
//! DistStream's evaluation fixes one topology — round-robin record
//! partitioning (§V-A) plus hash-shuffle `groupByKey` (§V-B) — but the
//! order-aware update protocol never depends on *where* records or keys are
//! placed: step 1 restores arrival order when task outputs merge, and the
//! order-aware local/global updates sort by arrival key before folding. A
//! [`DistributionStrategy`] exploits that freedom. It owns the three
//! placement decisions of a batch:
//!
//! 1. **Record partitioning** (step 1): which arrival positions of the
//!    batch each of the `p` assignment tasks reads, and how the per-task
//!    assignment lists merge back into arrival order. A strategy lays out
//!    *positions* ([`Stride`]s) — the records themselves stay where the
//!    source put them and every task borrows them.
//! 2. **Key placement** (step 2): which reduce partition owns each distinct
//!    `(kind, key)` group key of the batch.
//! 3. **Shuffle routing**: the byte-accounting consequence of placement —
//!    messages whose modeled map partition equals their key's reduce
//!    partition never cross the wire.
//!
//! The determinism contract (DESIGN.md §13): every method must be a pure
//! function of its arguments. Strategies observe only the current batch's
//! records and keys — never wall-clock time, never task timings, never the
//! model — so a run is reproducible record-for-record and placement can be
//! replayed after a failure or an elastic resize. Under
//! [`UpdateOrdering::OrderAware`](crate::UpdateOrdering::OrderAware) the
//! model is bit-identical for *any* strategy and any parallelism; strategies
//! only move task layout, simulated wall-clock, and shuffle-byte accounting.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use diststream_engine::{BlockPartitioner, HashPartitioner, RoundRobinPartitioner, Stride};
use diststream_types::Record;

use crate::api::Assignment;

/// Selects a [`DistributionStrategy`] per job.
///
/// Carried by value in
/// [`PipelineOptions`](crate::PipelineOptions) and resolved to the shared
/// strategy object with [`strategy_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// The paper's configuration: round-robin record split, FNV hash key
    /// placement, full-charge shuffle accounting. The default.
    #[default]
    RoundRobin,
    /// Contiguous key ranges over the batch's sorted distinct keys; records
    /// split into contiguous arrival-order blocks.
    KeyRange,
    /// Each key is placed on the map partition that produced most of its
    /// bytes, so the dominant share of every group's records never crosses
    /// the shuffle.
    Locality,
    /// Key-range placement for existing micro-clusters (stable shards),
    /// locality-affine placement for newly created outlier keys.
    Hybrid,
}

impl StrategyKind {
    /// Every selectable strategy, in CLI/report order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::RoundRobin,
        StrategyKind::KeyRange,
        StrategyKind::Locality,
        StrategyKind::Hybrid,
    ];

    /// Stable lowercase label used in CLI flags, bench reports, and the
    /// `strategy` telemetry label.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::RoundRobin => "roundrobin",
            StrategyKind::KeyRange => "keyrange",
            StrategyKind::Locality => "locality",
            StrategyKind::Hybrid => "hybrid",
        }
    }

    /// Parses a [`StrategyKind::label`] back into the kind.
    pub fn parse(label: &str) -> Option<StrategyKind> {
        StrategyKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One batch's key placement: the reduce partition that owns each distinct
/// group key, produced by [`DistributionStrategy::place_keys`].
///
/// Keys a strategy did not place explicitly fall back to the deterministic
/// hash route, so a placement is total over the key space.
#[derive(Debug, Clone)]
pub struct ShufflePlacement {
    partitions: usize,
    route: Option<BTreeMap<(u64, u64), usize>>,
}

impl ShufflePlacement {
    /// Pure hash placement over `partitions` reducers (the default
    /// strategy's routing).
    pub fn hashed(partitions: usize) -> Self {
        assert!(partitions > 0, "partition count must be at least 1");
        ShufflePlacement {
            partitions,
            route: None,
        }
    }

    /// Explicit placement: `route` maps each placed key to its reducer.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero or any routed index is out of range.
    pub fn explicit(route: BTreeMap<(u64, u64), usize>, partitions: usize) -> Self {
        assert!(partitions > 0, "partition count must be at least 1");
        assert!(
            route.values().all(|&p| p < partitions),
            "placement routes a key out of range",
        );
        ShufflePlacement {
            partitions,
            route: Some(route),
        }
    }

    /// The reduce partition that owns `key`.
    pub(crate) fn reduce_partition(&self, key: &(u64, u64)) -> usize {
        match &self.route {
            Some(map) => map
                .get(key)
                .copied()
                .unwrap_or_else(|| HashPartitioner.partition_of(key, self.partitions)),
            None => HashPartitioner.partition_of(key, self.partitions),
        }
    }

    /// Number of reduce partitions this placement targets.
    pub fn partitions(&self) -> usize {
        self.partitions
    }
}

/// The modeled map partition of the record at arrival position `index`.
///
/// Shuffle-byte accounting needs a *map side* to measure locality against.
/// The model is the paper's round-robin record layout — arrival position
/// `i` maps to task `i % p` — used uniformly for every strategy so charged
/// bytes are comparable across strategies regardless of the chunking the
/// task scheduler actually used.
pub(crate) fn modeled_map_partition(index: usize, partitions: usize) -> usize {
    index % partitions.max(1)
}

/// A distribution strategy: record partitioning, key placement, and the
/// shuffle-accounting policy, as one pluggable unit.
///
/// Implementations must uphold the determinism obligations spelled out in
/// DESIGN.md §13:
///
/// - **Purity** — outputs depend only on the arguments; no clocks, RNGs
///   (unseeded), task timings, or external state.
/// - **Order restoration** — [`merge_assigned`](Self::merge_assigned) must
///   invert [`split_records`](Self::split_records): merging the per-task
///   outputs yields the records in exact arrival order.
/// - **Totality** — [`place_keys`](Self::place_keys) must route every key
///   of the batch to a partition `< partitions`.
///
/// Strategies may observe the batch's records and group keys. They may
/// *not* observe the model, the execution mode, task timings, or anything
/// that differs between parallelism degrees other than `partitions` itself.
pub trait DistributionStrategy: fmt::Debug + Send + Sync {
    /// Which [`StrategyKind`] this strategy implements.
    fn kind(&self) -> StrategyKind;

    /// Stable label for reports and the `strategy` telemetry label.
    fn label(&self) -> &'static str {
        self.kind().label()
    }

    /// Step-1 record partitioning: the arrival positions of a batch of
    /// `len` records that each of the `partitions` assignment tasks reads.
    /// Every position must appear in exactly one stride, and every stride
    /// ascends, so each task preserves arrival order.
    fn split_records(&self, len: usize, partitions: usize) -> Vec<Stride>;

    /// Merges the per-task assignment lists (task `i` produced one
    /// [`Assignment`] per position of stride `i`) back into arrival order —
    /// the exact inverse of [`split_records`](Self::split_records).
    fn merge_assigned(&self, parts: Vec<Vec<Assignment>>) -> Vec<Assignment>;

    /// Step-2 key placement: the reduce partition for every distinct
    /// [group key](Assignment::group_key) of this batch, given the assigned
    /// pairs in arrival order.
    fn place_keys(&self, pairs: &[(Record, Assignment)], partitions: usize) -> ShufflePlacement;

    /// Whether shuffle-byte accounting discounts map-local messages
    /// (payloads whose modeled map partition equals the key's reduce
    /// partition). The default round-robin strategy charges every message
    /// in full — the paper's accounting, preserved bit-for-bit so existing
    /// baselines stay comparable.
    fn accounts_locality(&self) -> bool {
        self.kind() != StrategyKind::RoundRobin
    }
}

/// Resolves a [`StrategyKind`] to its shared strategy object.
pub fn strategy_for(kind: StrategyKind) -> &'static dyn DistributionStrategy {
    match kind {
        StrategyKind::RoundRobin => &RoundRobinStrategy,
        StrategyKind::KeyRange => &KeyRangeStrategy,
        StrategyKind::Locality => &LocalityStrategy,
        StrategyKind::Hybrid => &HybridStrategy,
    }
}

/// The paper's fixed topology: round-robin record split (§V-A), hash key
/// placement (§V-B), full-charge shuffle accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinStrategy;

impl DistributionStrategy for RoundRobinStrategy {
    fn kind(&self) -> StrategyKind {
        StrategyKind::RoundRobin
    }

    fn split_records(&self, len: usize, partitions: usize) -> Vec<Stride> {
        RoundRobinPartitioner.strides(len, partitions)
    }

    fn merge_assigned(&self, parts: Vec<Vec<Assignment>>) -> Vec<Assignment> {
        RoundRobinPartitioner.interleave(parts)
    }

    fn place_keys(&self, _pairs: &[(Record, Assignment)], partitions: usize) -> ShufflePlacement {
        ShufflePlacement::hashed(partitions)
    }
}

/// Key-range sharding: the batch's distinct keys are sorted and cut into
/// `p` contiguous ranges, one per reducer; records split into contiguous
/// arrival blocks. Range placement keeps adjacent keys on the same worker —
/// the layout a range-sharded store (or a keyed state backend) would use.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyRangeStrategy;

/// Contiguous-range placement over the sorted distinct `keys`.
fn key_range_route(
    keys: impl IntoIterator<Item = (u64, u64)>,
    partitions: usize,
) -> BTreeMap<(u64, u64), usize> {
    let sorted: BTreeSet<(u64, u64)> = keys.into_iter().collect();
    let n = sorted.len();
    let mut route = BTreeMap::new();
    if n == 0 {
        return route;
    }
    // Ceil division: the first ranges absorb the remainder, every range
    // contiguous in sorted key order.
    let per = n.div_ceil(partitions);
    for (i, key) in sorted.into_iter().enumerate() {
        route.insert(key, (i / per).min(partitions - 1));
    }
    route
}

impl DistributionStrategy for KeyRangeStrategy {
    fn kind(&self) -> StrategyKind {
        StrategyKind::KeyRange
    }

    fn split_records(&self, len: usize, partitions: usize) -> Vec<Stride> {
        BlockPartitioner.strides(len, partitions)
    }

    fn merge_assigned(&self, parts: Vec<Vec<Assignment>>) -> Vec<Assignment> {
        BlockPartitioner.concat(parts)
    }

    fn place_keys(&self, pairs: &[(Record, Assignment)], partitions: usize) -> ShufflePlacement {
        let route = key_range_route(pairs.iter().map(|(_, a)| a.group_key()), partitions);
        ShufflePlacement::explicit(route, partitions)
    }
}

/// Per-key byte totals per modeled map partition, the input to the
/// locality-affine placement decision.
fn bytes_by_map_partition(
    pairs: &[(Record, Assignment)],
    partitions: usize,
) -> BTreeMap<(u64, u64), Vec<u64>> {
    let mut per_key: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
    for (index, (record, assignment)) in pairs.iter().enumerate() {
        let map_p = modeled_map_partition(index, partitions);
        let per_partition = per_key
            .entry(assignment.group_key())
            .or_insert_with(|| vec![0; partitions]);
        if let Some(slot) = per_partition.get_mut(map_p) {
            *slot += record.wire_size();
        }
    }
    per_key
}

/// The argmax map partition for one key's byte vector; ties break to the
/// lowest index so the decision is deterministic.
fn affine_partition(bytes: &[u64]) -> usize {
    let mut best = 0usize;
    let mut best_bytes = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        if b > best_bytes {
            best = i;
            best_bytes = b;
        }
    }
    best
}

/// Locality-affine placement: each key reduces on the map partition that
/// produced most of its bytes (ties to the lowest index), so the dominant
/// share of every group's payloads stays node-local.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalityStrategy;

impl DistributionStrategy for LocalityStrategy {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Locality
    }

    fn split_records(&self, len: usize, partitions: usize) -> Vec<Stride> {
        RoundRobinPartitioner.strides(len, partitions)
    }

    fn merge_assigned(&self, parts: Vec<Vec<Assignment>>) -> Vec<Assignment> {
        RoundRobinPartitioner.interleave(parts)
    }

    fn place_keys(&self, pairs: &[(Record, Assignment)], partitions: usize) -> ShufflePlacement {
        let route = bytes_by_map_partition(pairs, partitions)
            .into_iter()
            .map(|(key, bytes)| (key, affine_partition(&bytes)))
            .collect();
        ShufflePlacement::explicit(route, partitions)
    }
}

/// Hybrid placement: existing micro-cluster keys (kind 0) shard by key
/// range — their ids are stable across batches, so range shards stay warm —
/// while newly created outlier keys (kind 1) follow the data with
/// locality-affine placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridStrategy;

impl DistributionStrategy for HybridStrategy {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Hybrid
    }

    fn split_records(&self, len: usize, partitions: usize) -> Vec<Stride> {
        BlockPartitioner.strides(len, partitions)
    }

    fn merge_assigned(&self, parts: Vec<Vec<Assignment>>) -> Vec<Assignment> {
        BlockPartitioner.concat(parts)
    }

    fn place_keys(&self, pairs: &[(Record, Assignment)], partitions: usize) -> ShufflePlacement {
        let mut route = key_range_route(
            pairs
                .iter()
                .map(|(_, a)| a.group_key())
                .filter(|(kind, _)| *kind == Assignment::KIND_EXISTING),
            partitions,
        );
        for (key, bytes) in bytes_by_map_partition(pairs, partitions) {
            if key.0 != Assignment::KIND_EXISTING {
                route.insert(key, affine_partition(&bytes));
            }
        }
        ShufflePlacement::explicit(route, partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_types::{Point, Timestamp};

    fn rec(id: u64, t: f64) -> Record {
        Record::new(id, Point::from(vec![id as f64]), Timestamp::from_secs(t))
    }

    /// Assigned pairs whose group keys are `keys`, in that arrival order.
    fn keyed(keys: &[(u64, u64)]) -> Vec<(Record, Assignment)> {
        keys.iter()
            .enumerate()
            .map(|(i, &(kind, key))| {
                let assignment = if kind == Assignment::KIND_EXISTING {
                    Assignment::Existing(key)
                } else {
                    Assignment::New(key)
                };
                (rec(i as u64, i as f64), assignment)
            })
            .collect()
    }

    #[test]
    fn labels_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(kind.label()), Some(kind));
            assert_eq!(strategy_for(kind).kind(), kind);
        }
        assert_eq!(StrategyKind::parse("nonsense"), None);
    }

    #[test]
    fn every_strategy_restores_arrival_order() {
        let records: Vec<Record> = (0..23).map(|i| rec(i, i as f64)).collect();
        for kind in StrategyKind::ALL {
            let strategy = strategy_for(kind);
            // p = 29 > records: the trailing tasks read nothing.
            for p in [1, 2, 3, 5, 29] {
                let strides = strategy.split_records(records.len(), p);
                assert_eq!(strides.len(), p, "{kind} p={p}");
                // Tag every position with the id of the record a task read
                // there; the merge must put the tags back in arrival order.
                let assigned: Vec<Vec<Assignment>> = strides
                    .iter()
                    .map(|s| s.of(&records).map(|r| Assignment::New(r.id)).collect())
                    .collect();
                let merged = strategy.merge_assigned(assigned);
                let expected: Vec<Assignment> = (0..23).map(Assignment::New).collect();
                assert_eq!(merged, expected, "{kind} p={p}");
            }
        }
    }

    #[test]
    fn every_strategy_routes_in_range_and_deterministically() {
        let pairs = keyed(&[(0, 9), (1, 3), (0, 2), (1, 3), (0, 9), (1, 40)]);
        for kind in StrategyKind::ALL {
            let strategy = strategy_for(kind);
            for p in [1, 2, 4] {
                let a = strategy.place_keys(&pairs, p);
                let b = strategy.place_keys(&pairs, p);
                for key in pairs.iter().map(|(_, a)| a.group_key()) {
                    let route = a.reduce_partition(&key);
                    assert!(route < p, "{kind} p={p} key={key:?}");
                    assert_eq!(route, b.reduce_partition(&key), "{kind} placement drifted");
                }
            }
        }
    }

    #[test]
    fn key_range_placement_is_contiguous_over_sorted_keys() {
        let pairs = keyed(&[(0, 50), (0, 10), (0, 30), (0, 20), (1, 5), (1, 6)]);
        let placement = KeyRangeStrategy.place_keys(&pairs, 2);
        let mut sorted: Vec<(u64, u64)> = pairs.iter().map(|(_, a)| a.group_key()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let routes: Vec<usize> = sorted
            .iter()
            .map(|k| placement.reduce_partition(k))
            .collect();
        // Monotone non-decreasing: contiguous ranges in sorted key order.
        assert!(routes.windows(2).all(|w| w[0] <= w[1]), "{routes:?}");
        assert_eq!(*routes.first().unwrap(), 0);
        assert_eq!(*routes.last().unwrap(), 1);
    }

    #[test]
    fn locality_places_key_on_dominant_map_partition() {
        // Key (0, 7) appears at arrival positions 0 and 2 → both map to
        // partition 0 of 2. Key (0, 8) appears only at position 1 →
        // partition 1.
        let pairs = keyed(&[(0, 7), (0, 8), (0, 7)]);
        let placement = LocalityStrategy.place_keys(&pairs, 2);
        assert_eq!(placement.reduce_partition(&(0, 7)), 0);
        assert_eq!(placement.reduce_partition(&(0, 8)), 1);
    }

    #[test]
    fn locality_tie_breaks_to_lowest_partition() {
        assert_eq!(affine_partition(&[5, 5, 5]), 0);
        assert_eq!(affine_partition(&[1, 7, 7]), 1);
    }

    #[test]
    fn hybrid_splits_policy_by_key_kind() {
        // Existing keys range-shard; the new key at position 2 maps to
        // partition 0 (2 % 2) and locality keeps it there even though hash
        // or range placement could differ.
        let pairs = keyed(&[(0, 1), (0, 100), (1, 55)]);
        let placement = HybridStrategy.place_keys(&pairs, 2);
        assert_eq!(placement.reduce_partition(&(0, 1)), 0);
        assert_eq!(placement.reduce_partition(&(0, 100)), 1);
        assert_eq!(placement.reduce_partition(&(1, 55)), 0);
    }

    #[test]
    fn unplaced_keys_fall_back_to_hash_routing() {
        let placement = ShufflePlacement::explicit(BTreeMap::new(), 4);
        let hashed = ShufflePlacement::hashed(4);
        let key = (0u64, 12345u64);
        assert_eq!(
            placement.reduce_partition(&key),
            hashed.reduce_partition(&key)
        );
    }

    #[test]
    fn only_round_robin_charges_full_shuffle() {
        for kind in StrategyKind::ALL {
            let accounts = strategy_for(kind).accounts_locality();
            assert_eq!(accounts, kind != StrategyKind::RoundRobin, "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explicit_placement_rejects_out_of_range_routes() {
        let mut route = BTreeMap::new();
        route.insert((0u64, 0u64), 9usize);
        let _ = ShufflePlacement::explicit(route, 2);
    }
}
