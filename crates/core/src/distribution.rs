//! Placement: where a batch's records and keys go.
//!
//! DistStream's evaluation fixes one topology — round-robin record
//! partitioning (§V-A) plus hash-shuffle `groupByKey` (§V-B) — and this is
//! it. The order-aware update protocol never depends on *where* records or
//! keys are placed: step 1 restores arrival order when task outputs merge,
//! and the order-aware local and global updates sort by arrival key before
//! folding. [`Placement`] owns the two placement decisions of a batch:
//!
//! 1. **Record partitioning** (step 1): which arrival positions of the
//!    batch each of the `p` assignment tasks reads, and how the per-task
//!    assignment lists merge back into arrival order. Placement lays out
//!    *positions* ([`Stride`]s) — the records themselves stay where the
//!    source put them and every task borrows them.
//! 2. **Key placement** (step 2): which reduce partition owns each distinct
//!    `(kind, key)` group key of the batch.
//!
//! Both are pure functions of their arguments (DESIGN.md §13), so a run is
//! reproducible record for record and placement can be replayed after a
//! failure or an elastic resize.

use diststream_engine::{HashPartitioner, RoundRobinPartitioner, Stride};

use crate::api::Assignment;

/// Names the job's placement. The paper's is the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// Round-robin record split, FNV hash key placement.
    #[default]
    RoundRobin,
}

/// Resolves a [`StrategyKind`] to its placement.
pub fn strategy_for(kind: StrategyKind) -> Placement {
    match kind {
        StrategyKind::RoundRobin => Placement,
    }
}

/// The paper's fixed topology: round-robin record split (§V-A), hash key
/// placement (§V-B).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Placement;

impl Placement {
    /// Step-1 record partitioning: the arrival positions of a batch of
    /// `len` records that each of the `partitions` assignment tasks reads.
    /// Every position appears in exactly one stride, and every stride
    /// ascends, so each task preserves arrival order.
    pub fn split_records(self, len: usize, partitions: usize) -> Vec<Stride> {
        RoundRobinPartitioner.strides(len, partitions)
    }

    /// Merges the per-task assignment lists (task `i` produced one
    /// [`Assignment`] per position of stride `i`) back into arrival order —
    /// the exact inverse of [`split_records`](Self::split_records).
    pub fn merge_assigned(self, parts: Vec<Vec<Assignment>>) -> Vec<Assignment> {
        RoundRobinPartitioner.interleave(parts)
    }

    /// Step-2 key placement: the reduce partition, out of `partitions`,
    /// that owns the [group key](Assignment::group_key) `key`.
    pub fn reduce_partition(self, key: &(u64, u64), partitions: usize) -> usize {
        HashPartitioner.partition_of(key, partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_types::{Point, Record, Timestamp};

    fn rec(id: u64, t: f64) -> Record {
        Record::new(id, Point::from(vec![id as f64]), Timestamp::from_secs(t))
    }

    #[test]
    fn every_strategy_restores_arrival_order() {
        let records: Vec<Record> = (0..23).map(|i| rec(i, i as f64)).collect();
        let placement = strategy_for(StrategyKind::RoundRobin);
        // p = 29 > records: the trailing tasks read nothing.
        for p in [1, 2, 3, 5, 29] {
            let strides = placement.split_records(records.len(), p);
            assert_eq!(strides.len(), p, "p={p}");
            // Tag every position with the id of the record a task read
            // there; the merge must put the tags back in arrival order.
            let assigned: Vec<Vec<Assignment>> = strides
                .iter()
                .map(|s| s.of(&records).map(|r| Assignment::New(r.id)).collect())
                .collect();
            let merged = placement.merge_assigned(assigned);
            let expected: Vec<Assignment> = (0..23).map(Assignment::New).collect();
            assert_eq!(merged, expected, "p={p}");
        }
    }

    #[test]
    fn every_strategy_routes_in_range_and_deterministically() {
        let keys = [(0, 9), (1, 3), (0, 2), (1, 3), (0, 9), (1, 40)];
        for p in [1, 2, 4] {
            for key in &keys {
                let route = Placement.reduce_partition(key, p);
                assert!(route < p, "p={p} key={key:?}");
                assert_eq!(route, Placement.reduce_partition(key, p));
                assert_eq!(route, HashPartitioner.partition_of(key, p));
            }
        }
    }
}
