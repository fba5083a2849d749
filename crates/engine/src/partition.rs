//! Partitioners for model-based parallelism: deterministic hash
//! partitioning and the [`FlatShuffle`] grouping (`group_by_key` is its
//! reference; `combine_by_key` stays for `benchmark/src/micro.rs`).
//! Record-based parallelism needs no partitioner: step 1's tasks read
//! contiguous slices of the batch.

// lint:allow(nondeterministic-collection) lookup only, never iterated
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use diststream_types::{DistStreamError, Result};

/// Deterministic 64-bit FNV-1a hash.
///
/// The engine never uses `std`'s randomized `RandomState` for partitioning:
/// task placement must be reproducible run-to-run so quality results are
/// bit-for-bit deterministic at any parallelism degree.
///
/// # Examples
///
/// ```
/// use diststream_engine::fnv1a_hash;
/// assert_eq!(fnv1a_hash(b"abc"), fnv1a_hash(b"abc"));
/// assert_ne!(fnv1a_hash(b"abc"), fnv1a_hash(b"abd"));
/// ```
pub fn fnv1a_hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a hasher.
///
/// FNV-1a folds one byte at a time, so feeding a value in chunks produces
/// the same hash as feeding the concatenated bytes — which lets hot paths
/// hash composite keys (e.g. a grid cell's coordinate vector) without
/// materializing an intermediate byte buffer.
///
/// # Examples
///
/// ```
/// use diststream_engine::{fnv1a_hash, Fnv1a};
///
/// let mut h = Fnv1a::new();
/// h.write(b"ab");
/// h.write(b"c");
/// assert_eq!(h.finish(), fnv1a_hash(b"abc"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds `bytes` into the hash state.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Hash-partitions keyed items deterministically across `p` partitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashPartitioner;

impl HashPartitioner {
    /// The partition index for `key` out of `partitions`.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn partition_of<K: KeyBytes>(&self, key: &K, partitions: usize) -> usize {
        assert!(partitions > 0, "partition count must be at least 1");
        (fnv1a_hash(&key.key_bytes()) % partitions as u64) as usize
    }
}

/// Keys that can expose stable bytes for deterministic hashing.
///
/// Implemented for the integer key types the framework shuffles on. (The
/// blanket `Hash` trait is unusable here because `std`'s hasher seeds are
/// randomized per-process.)
pub trait KeyBytes {
    /// A stable byte representation of the key.
    fn key_bytes(&self) -> Vec<u8>;
}

impl KeyBytes for u64 {
    fn key_bytes(&self) -> Vec<u8> {
        self.to_le_bytes().to_vec()
    }
}

impl KeyBytes for u32 {
    fn key_bytes(&self) -> Vec<u8> {
        self.to_le_bytes().to_vec()
    }
}

impl KeyBytes for usize {
    fn key_bytes(&self) -> Vec<u8> {
        (*self as u64).to_le_bytes().to_vec()
    }
}

impl KeyBytes for (u64, u64) {
    fn key_bytes(&self) -> Vec<u8> {
        let mut v = self.0.to_le_bytes().to_vec();
        v.extend_from_slice(&self.1.to_le_bytes());
        v
    }
}

/// Groups `(key, value)` pairs by key and assigns each group to one of
/// `partitions` shuffle partitions — the `groupByKey` step of model-based
/// parallelism (§V-B).
///
/// Within a partition, groups appear in first-occurrence order of their key
/// and values keep their input order, so the result is fully deterministic.
///
/// No shipping path calls this: step 2 groups through [`FlatShuffle`]. It
/// stays as the reference the flat grouping is property-tested against, and
/// because `benchmark/src/micro.rs` times it (ROADMAP item 1(a) retires it).
///
/// # Panics
///
/// Panics if `partitions` is zero.
///
/// # Examples
///
/// ```
/// use diststream_engine::group_by_key;
///
/// let pairs = vec![(1u64, "a"), (2, "b"), (1, "c")];
/// let parts = group_by_key(pairs, 1);
/// assert_eq!(parts[0], vec![(1, vec!["a", "c"]), (2, vec!["b"])]);
/// ```
pub fn group_by_key<K, V>(
    pairs: impl IntoIterator<Item = (K, V)>,
    partitions: usize,
) -> Vec<Vec<(K, Vec<V>)>>
where
    K: Eq + Hash + Clone + KeyBytes,
{
    assert!(partitions > 0, "partition count must be at least 1");
    // key -> (partition, position within partition)
    // lint:allow(nondeterministic-collection) lookup only, never iterated
    let mut slots: HashMap<K, (usize, usize)> = HashMap::new();
    let mut out: Vec<Vec<(K, Vec<V>)>> = (0..partitions).map(|_| Vec::new()).collect();
    for (key, value) in pairs {
        match slots.get(&key) {
            Some(&(p, idx)) => out[p][idx].1.push(value),
            None => {
                let p = HashPartitioner.partition_of(&key, partitions);
                let idx = out[p].len();
                out[p].push((key.clone(), vec![value]));
                slots.insert(key, (p, idx));
            }
        }
    }
    out
}

/// A map-side combiner: merges shuffle values for the same key task-locally
/// before they cross the hash shuffle (Spark's `combineByKey` role).
///
/// `lift` turns a single shuffle value into a partial aggregate; `push`
/// folds one more value into a partial, map-side; `merge` folds one partial
/// into another. [`combine_by_key`] merges partials for the same key in a
/// fixed order — ascending map-partition index, with each map partition
/// contributing at most one partial per key — so the result is
/// deterministic regardless of which worker produced which partial.
pub trait Combiner<V> {
    /// The per-key partial aggregate that crosses the shuffle.
    type Partial;
    /// Wraps one value into a fresh partial.
    fn lift(&self, value: V) -> Self::Partial;
    /// Folds one more value of the same map partition into `acc`. Must
    /// equal `merge(acc, lift(value))`, which is the default; override it
    /// when that detour allocates.
    fn push(&self, acc: &mut Self::Partial, value: V) {
        let lifted = self.lift(value);
        self.merge(acc, lifted);
    }
    /// Folds `other` into `acc`. Called in ascending map-partition order.
    fn merge(&self, acc: &mut Self::Partial, other: Self::Partial);
}

/// The identity combiner: partials are plain value vectors and merging is
/// concatenation. Combining with this is *exactly* `groupByKey` — when the
/// map partitions are contiguous slices of the input, the combined output
/// is byte-identical to [`group_by_key`] over the flattened input (verified
/// by property test). No shipping path combines; kept, with
/// [`combine_by_key`], for `benchmark/src/micro.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendCombiner;

impl<V> Combiner<V> for AppendCombiner {
    type Partial = Vec<V>;
    fn lift(&self, value: V) -> Vec<V> {
        vec![value]
    }
    fn push(&self, acc: &mut Vec<V>, value: V) {
        acc.push(value);
    }
    fn merge(&self, acc: &mut Vec<V>, mut other: Vec<V>) {
        acc.append(&mut other);
    }
}

/// What a map-side combine would save: entry counts before and after the
/// task-local merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CombineStats {
    /// Total `(key, value)` pairs fed in — the uncombined shuffle message
    /// count.
    pub input_pairs: usize,
    /// Distinct `(map partition, key)` entries — the combined shuffle
    /// message count (each entry crosses the wire once).
    pub combined_entries: usize,
}

/// Grouped shuffle partitions plus the [`CombineStats`] of the map-side
/// combine that produced them.
pub type CombinedShuffle<K, P> = (Vec<Vec<(K, P)>>, CombineStats);

/// `group_by_key` with a map-side combine stage (§V-B with Spark's
/// map-side-combine optimization).
///
/// Each map partition is first combined task-locally: values for the same
/// key within a partition collapse into one partial via [`Combiner::lift`]
/// and [`Combiner::merge`], in first-occurrence order. The partials then
/// cross the shuffle and merge into the final grouped output in ascending
/// map-partition index — a fixed merge order, so the result is independent
/// of task scheduling. Group placement follows the same first-occurrence
/// rule as [`group_by_key`]: with the [`AppendCombiner`] and map partitions
/// that are contiguous slices of an input list, the output equals
/// `group_by_key(flattened input)` exactly.
///
/// Returns the grouped shuffle partitions plus [`CombineStats`]. No
/// shipping path calls this: step 2 groups through [`FlatShuffle`] and
/// charges the uncombined shuffle, and `benchmark/src/micro.rs` is this
/// function's one caller outside tests.
///
/// # Panics
///
/// Panics if `partitions` is zero.
///
/// # Examples
///
/// ```
/// use diststream_engine::{combine_by_key, group_by_key, AppendCombiner};
///
/// let chunks = vec![vec![(1u64, "a"), (2, "b")], vec![(1, "c")]];
/// let (parts, stats) = combine_by_key(chunks.clone(), 1, &AppendCombiner);
/// assert_eq!(parts, group_by_key(chunks.into_iter().flatten(), 1));
/// assert_eq!(stats.input_pairs, 3);
/// assert_eq!(stats.combined_entries, 3); // no intra-chunk duplicates here
/// ```
pub fn combine_by_key<K, V, C>(
    map_partitions: impl IntoIterator<Item = impl IntoIterator<Item = (K, V)>>,
    partitions: usize,
    combiner: &C,
) -> CombinedShuffle<K, C::Partial>
where
    K: Eq + Hash + Clone + KeyBytes,
    C: Combiner<V>,
{
    assert!(partitions > 0, "partition count must be at least 1");
    let mut stats = CombineStats::default();
    // key -> (partition, position) in the final grouped output.
    // lint:allow(nondeterministic-collection) lookup only, never iterated
    let mut slots: HashMap<K, (usize, usize)> = HashMap::new();
    let mut out: Vec<Vec<(K, C::Partial)>> = (0..partitions).map(|_| Vec::new()).collect();
    // Scratch for one map partition's local combine; keyed by position so
    // the chunk's first-occurrence order is preserved into the merge.
    // lint:allow(nondeterministic-collection) lookup only, never iterated
    let mut local_slots: HashMap<K, usize> = HashMap::new();
    let mut local: Vec<(K, C::Partial)> = Vec::new();
    for chunk in map_partitions {
        // Map side: combine within the chunk, first-occurrence order.
        local_slots.clear();
        for (key, value) in chunk {
            stats.input_pairs += 1;
            match local_slots.get(&key) {
                Some(&idx) => combiner.push(&mut local[idx].1, value),
                None => {
                    local_slots.insert(key.clone(), local.len());
                    local.push((key, combiner.lift(value)));
                }
            }
        }
        stats.combined_entries += local.len();
        // Reduce side: each chunk contributes at most one partial per key,
        // and chunks are consumed in ascending index — the fixed merge
        // order that makes the grouped result schedule-independent.
        for (key, partial) in local.drain(..) {
            match slots.get(&key) {
                Some(&(p, idx)) => combiner.merge(&mut out[p][idx].1, partial),
                None => {
                    let p = HashPartitioner.partition_of(&key, partitions);
                    let idx = out[p].len();
                    out[p].push((key.clone(), partial));
                    slots.insert(key, (p, idx));
                }
            }
        }
    }
    (out, stats)
}

/// Two multiply-rotate rounds over a `(u64, u64)` group key: the
/// [`FlatShuffle`] table is probed once per record, and SipHash was a third
/// of the grouping time. Not collision-resistant, which is safe here — the
/// table is never iterated, so a bad spread costs time and reorders nothing.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One reduce partition of a [`FlatShuffle`]: its groups, and its records in
/// the order they arrived.
#[derive(Debug, Default)]
pub struct ShufflePartition {
    /// The partition's group keys in first-occurrence order. A group's index
    /// in this list is its *slot*.
    pub groups: Vec<(u64, u64)>,
    /// The partition's records as `(arrival position, group slot)`, in
    /// ascending arrival position.
    pub sweep: Vec<(u32, u32)>,
}

impl ShufflePartition {
    /// Each group's arrival positions, ascending, in slot order —
    /// [`group_by_key`]'s value lists.
    pub fn positions_by_group(&self) -> Vec<Vec<u32>> {
        let mut lists = vec![Vec::new(); self.groups.len()];
        for &(position, slot) in &self.sweep {
            if let Some(list) = lists.get_mut(slot as usize) {
                list.push(position);
            }
        }
        lists
    }
}

/// The step-2 shuffle as index arithmetic over recycled buffers, in one pass
/// over the batch: the groups of [`group_by_key`] over `(key, arrival
/// position)` pairs — same keys, same first-occurrence order, same values
/// in arrival order — as each partition's group list plus its records in
/// arrival order, each tagged with its group's slot. A batch no wider (in
/// records, keys and partitions) than one already seen allocates nothing.
///
/// ```
/// let mut shuffle = diststream_engine::FlatShuffle::default();
/// let partitions = shuffle.group([(0, 7), (0, 3), (0, 7)].into_iter(), 1, |_| 0)?;
/// assert_eq!(partitions[0].groups, [(0, 7), (0, 3)]);
/// assert_eq!(partitions[0].sweep, [(0, 0), (1, 1), (2, 0)]);
/// assert_eq!(partitions[0].positions_by_group(), [vec![0, 2], vec![1]]);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug, Default)]
pub struct FlatShuffle {
    // lint:allow(nondeterministic-collection) lookup only, never iterated
    ids: HashMap<(u64, u64), u32, BuildHasherDefault<KeyHasher>>,
    /// Per group id: its partition and its slot there.
    slots: Vec<(usize, u32)>,
    partitions: Vec<ShufflePartition>,
}

impl FlatShuffle {
    /// Groups a batch whose record at arrival position `i` has group key
    /// `keys[i]`. `route(key)`, asked once per distinct key, names its reduce
    /// partition. Returns the reduce partitions, borrowed from the buffers.
    ///
    /// # Errors
    ///
    /// [`DistStreamError::Invariant`] if `route` names a partition that does
    /// not exist — a misbehaving placement must not take the driver down —
    /// and [`DistStreamError::InvalidConfig`] past `u32::MAX` records.
    pub fn group(
        &mut self,
        keys: impl ExactSizeIterator<Item = (u64, u64)>,
        partitions: usize,
        route: impl Fn(&(u64, u64)) -> usize,
    ) -> Result<&[ShufflePartition]> {
        let records = u32::try_from(keys.len()).map_err(|_| {
            DistStreamError::InvalidConfig("a shuffle indexes at most u32::MAX records".into())
        })?;
        self.ids.clear();
        self.slots.clear();
        self.partitions
            .resize_with(partitions, ShufflePartition::default);
        for part in &mut self.partitions {
            part.groups.clear();
            part.sweep.clear();
        }
        // One pass: name every record's group, and append the record to its
        // partition's sweep — which therefore ascends in arrival position.
        for (position, key) in (0..records).zip(keys) {
            let next_id = self.slots.len() as u32;
            let id = *self.ids.entry(key).or_insert(next_id);
            if id == next_id {
                let partition = route(&key);
                let Some(part) = self.partitions.get_mut(partition) else {
                    return Err(DistStreamError::Invariant(format!(
                        "shuffle route out of range: partition {partition} of {partitions}"
                    )));
                };
                self.slots.push((partition, part.groups.len() as u32));
                part.groups.push(key);
            }
            let (partition, slot) = self.slots[id as usize];
            self.partitions[partition].sweep.push((position, slot));
        }
        #[cfg(feature = "debug_invariants")]
        {
            // Completeness: every position sits in exactly one sweep, each
            // sweep ascends and names slots its partition has, and no key is
            // listed twice (so none is in two partitions).
            let keys: std::collections::BTreeSet<_> =
                self.partitions.iter().flat_map(|p| &p.groups).collect();
            let listed: usize = self.partitions.iter().map(|p| p.groups.len()).sum();
            assert_eq!(keys.len(), listed, "debug_invariants: key twice");
            for part in &self.partitions {
                let ascending = part.sweep.windows(2).all(|w| w[0].0 < w[1].0);
                assert!(ascending, "debug_invariants: a sweep out of arrival order");
                let known = part
                    .sweep
                    .iter()
                    .all(|s| (s.1 as usize) < part.groups.len());
                assert!(known, "debug_invariants: a sweep names a missing slot");
            }
            let mut placed: Vec<u32> = self
                .partitions
                .iter()
                .flat_map(|p| p.sweep.iter().map(|s| s.0))
                .collect();
            placed.sort_unstable();
            let complete = placed.into_iter().eq(0..records);
            assert!(complete, "debug_invariants: position lost or grouped twice");
        }
        Ok(&self.partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        for key in 0u64..100 {
            let p = HashPartitioner.partition_of(&key, 7);
            assert!(p < 7);
            assert_eq!(p, HashPartitioner.partition_of(&key, 7));
        }
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        let mut counts = vec![0usize; 4];
        for key in 0u64..1000 {
            counts[HashPartitioner.partition_of(&key, 4)] += 1;
        }
        for &c in &counts {
            assert!(c > 150, "partition unexpectedly starved: {counts:?}");
        }
    }

    #[test]
    fn group_by_key_groups_values_in_order() {
        let pairs = vec![(5u64, 1), (3, 2), (5, 3), (3, 4), (9, 5)];
        let parts = group_by_key(pairs, 2);
        let all: Vec<(u64, Vec<i32>)> = parts.into_iter().flatten().collect();
        let five = all.iter().find(|(k, _)| *k == 5).unwrap();
        assert_eq!(five.1, vec![1, 3]);
        let three = all.iter().find(|(k, _)| *k == 3).unwrap();
        assert_eq!(three.1, vec![2, 4]);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn group_by_key_single_partition_keeps_first_seen_order() {
        let pairs = vec![(2u64, "x"), (1, "y"), (2, "z")];
        let parts = group_by_key(pairs, 1);
        let keys: Vec<u64> = parts[0].iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 1]);
    }

    #[test]
    fn combine_by_key_collapses_intra_chunk_duplicates() {
        let chunks = vec![
            vec![(7u64, 1), (7, 2), (3, 3)],
            vec![(3, 4), (7, 5), (7, 6)],
        ];
        let (parts, stats) = combine_by_key(chunks, 2, &AppendCombiner);
        assert_eq!(stats.input_pairs, 6);
        // chunk 0: {7: [1,2], 3: [3]} = 2 entries; chunk 1: {3: [4], 7: [5,6]} = 2.
        assert_eq!(stats.combined_entries, 4);
        let all: Vec<(u64, Vec<i32>)> = parts.into_iter().flatten().collect();
        let seven = all.iter().find(|(k, _)| *k == 7).unwrap();
        assert_eq!(seven.1, vec![1, 2, 5, 6]);
        let three = all.iter().find(|(k, _)| *k == 3).unwrap();
        assert_eq!(three.1, vec![3, 4]);
    }

    /// A lossy combiner (sum) must still merge partials in fixed
    /// chunk-index order: sums are order-independent, but the first-seen
    /// group placement must match the flattened first occurrence.
    #[test]
    fn combine_by_key_supports_reducing_combiners() {
        struct Sum;
        impl Combiner<i64> for Sum {
            type Partial = i64;
            fn lift(&self, v: i64) -> i64 {
                v
            }
            fn merge(&self, acc: &mut i64, other: i64) {
                *acc += other;
            }
        }
        let chunks = vec![vec![(2u64, 10), (1, 1)], vec![(1, 2), (2, 30)]];
        let (parts, stats) = combine_by_key(chunks, 1, &Sum);
        assert_eq!(parts[0], vec![(2, 40), (1, 3)]);
        assert_eq!(stats.combined_entries, 4);
    }

    /// Borrowed map partitions (chunks of a recycled buffer) combine to
    /// exactly what owned chunk `Vec`s do.
    #[test]
    fn combine_by_key_accepts_borrowed_chunks() {
        let pairs = [(7u64, 1u32), (3, 2), (7, 3), (3, 4), (9, 5)];
        let owned: Vec<Vec<(u64, u32)>> = pairs.chunks(2).map(<[_]>::to_vec).collect();
        let borrowed = pairs.chunks(2).map(|c| c.iter().copied());
        assert_eq!(
            combine_by_key(borrowed, 2, &AppendCombiner),
            combine_by_key(owned, 2, &AppendCombiner),
        );
    }

    /// A [`FlatShuffle`] result spelled out in [`group_by_key`]'s shape.
    type Spelled = Vec<Vec<((u64, u64), Vec<u32>)>>;

    fn flat_group(
        shuffle: &mut FlatShuffle,
        keys: &[(u64, u64)],
        partitions: usize,
        route: impl Fn(&(u64, u64)) -> usize,
    ) -> Result<Spelled> {
        let out = shuffle.group(keys.iter().copied(), partitions, route)?;
        let spell = |part: &ShufflePartition| {
            // A task folds its sweep front to back: it must be arrival order.
            assert!(part.sweep.windows(2).all(|w| w[0].0 < w[1].0));
            let lists = part.positions_by_group();
            part.groups.iter().copied().zip(lists).collect()
        };
        Ok(out.iter().map(spell).collect())
    }

    #[test]
    fn flat_shuffle_honors_custom_route() {
        let keys = [(0, 5), (0, 3), (0, 5)];
        // Route everything to partition 1 of 2.
        let parts = flat_group(&mut FlatShuffle::default(), &keys, 2, |_| 1).unwrap();
        assert!(parts[0].is_empty());
        assert_eq!(parts[1], vec![((0, 5), vec![0, 2]), ((0, 3), vec![1])]);
    }

    /// The old grouping `assert!`ed here — on the driver thread, on a value
    /// the caller's route computes.
    #[test]
    fn flat_shuffle_refuses_an_out_of_range_route_with_a_typed_error() {
        let mut shuffle = FlatShuffle::default();
        let err = flat_group(&mut shuffle, &[(0, 1)], 2, |_| 2).unwrap_err();
        assert!(
            matches!(&err, DistStreamError::Invariant(m) if m.contains("out of range")),
            "{err}"
        );
        // No partition at all is out of range for every key.
        let err = flat_group(&mut shuffle, &[(0, 1)], 0, |_| 0).unwrap_err();
        assert!(matches!(err, DistStreamError::Invariant(_)), "{err}");
        // The refused call leaves nothing behind that a later one can see.
        let parts = flat_group(&mut shuffle, &[(0, 1)], 2, |_| 1).unwrap();
        assert_eq!(parts, vec![vec![], vec![((0, 1), vec![0])]]);
    }

    #[test]
    fn flat_shuffle_of_nothing_is_empty_partitions() {
        let parts = flat_group(&mut FlatShuffle::default(), &[], 3, |_| 0).unwrap();
        assert_eq!(parts, vec![vec![], vec![], vec![]]);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a_hash(b""), 0xcbf2_9ce4_8422_2325);
    }

    proptest! {
        #[test]
        fn prop_group_by_key_conserves_values(
            pairs in prop::collection::vec((0u64..20, 0i32..1000), 0..200),
            p in 1usize..6,
        ) {
            let parts = group_by_key(pairs.clone(), p);
            let mut collected: Vec<i32> = parts.iter().flatten().flat_map(|(_, vs)| vs.iter().copied()).collect();
            let mut expected: Vec<i32> = pairs.iter().map(|&(_, v)| v).collect();
            collected.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(collected, expected);
        }

        /// The satellite property: map-side combine with the append
        /// combiner and a fixed merge order produces *byte-identical*
        /// grouped values to the uncombined shuffle, for arbitrary
        /// key/value multisets and any contiguous chunking.
        #[test]
        fn prop_combine_equals_uncombined_shuffle(
            pairs in prop::collection::vec((0u64..12, 0i32..1000), 0..200),
            p in 1usize..6,
            chunk_size in 1usize..40,
        ) {
            let chunks: Vec<Vec<(u64, i32)>> =
                pairs.chunks(chunk_size).map(<[_]>::to_vec).collect();
            let (combined, stats) = combine_by_key(chunks, p, &AppendCombiner);
            let uncombined = group_by_key(pairs.clone(), p);
            prop_assert_eq!(combined, uncombined);
            prop_assert_eq!(stats.input_pairs, pairs.len());
            prop_assert!(stats.combined_entries <= stats.input_pairs);
        }

        /// Chunk boundaries change how much the combine saves, never what
        /// it produces.
        #[test]
        fn prop_combine_is_chunking_invariant(
            pairs in prop::collection::vec((0u64..8, 0i32..100), 0..120),
            p in 1usize..5,
            a in 1usize..30,
            b in 1usize..30,
        ) {
            let chunk = |size: usize| -> Vec<Vec<(u64, i32)>> {
                pairs.chunks(size).map(<[_]>::to_vec).collect()
            };
            let (ga, _) = combine_by_key(chunk(a), p, &AppendCombiner);
            let (gb, _) = combine_by_key(chunk(b), p, &AppendCombiner);
            prop_assert_eq!(ga, gb);
        }

        /// The flat grouping is `group_by_key` without the `Vec`s: the
        /// same keys in the same first-occurrence order holding the same
        /// arrival positions, under the hash route. Run twice through one
        /// `FlatShuffle`, so recycled buffers are shown to carry nothing
        /// over from a batch of another shape.
        #[test]
        fn prop_flat_shuffle_equals_group_by_key(
            batches in prop::collection::vec(
                (prop::collection::vec((0u64..2, 0u64..12), 0..200), 1usize..6),
                2,
            ),
        ) {
            let mut shuffle = FlatShuffle::default();
            for (keys, p) in batches {
                let pairs = keys.iter().copied().zip(0u32..);
                let flat = flat_group(&mut shuffle, &keys, p, |key| {
                    HashPartitioner.partition_of(key, p)
                })
                .unwrap();
                prop_assert_eq!(flat, group_by_key(pairs, p));
            }
        }

        /// Routing only moves whole groups between partitions: under an
        /// arbitrary route, partition `q` lists exactly the groups routed
        /// to it, in the order the one-partition grouping has them.
        #[test]
        fn prop_flat_shuffle_routes_whole_groups_in_first_occurrence_order(
            keys in prop::collection::vec((0u64..2, 0u64..12), 0..200),
            table in prop::collection::vec(0usize..5, 24),
        ) {
            let p = 5;
            let route = |key: &(u64, u64)| table[(key.0 * 12 + key.1) as usize];
            let flat = flat_group(&mut FlatShuffle::default(), &keys, p, route).unwrap();
            let pairs = keys.iter().copied().zip(0u32..);
            let all = group_by_key(pairs, 1).remove(0);
            for (q, part) in flat.iter().enumerate() {
                let expected: Vec<_> = all.iter().filter(|(key, _)| route(key) == q).cloned().collect();
                prop_assert_eq!(part, &expected);
            }
        }

        #[test]
        fn prop_group_by_key_each_key_once(
            pairs in prop::collection::vec((0u64..20, 0i32..1000), 0..200),
            p in 1usize..6,
        ) {
            let parts = group_by_key(pairs, p);
            let mut seen = std::collections::HashSet::new();
            for (k, _) in parts.iter().flatten() {
                prop_assert!(seen.insert(*k), "key {} appeared in two groups", k);
            }
        }
    }
}
