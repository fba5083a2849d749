//! Placement: where a batch's keys go.
//!
//! DistStream's evaluation fixes one topology — round-robin record
//! partitioning (§V-A) plus hash-shuffle `groupByKey` (§V-B). The
//! order-aware update protocol never depends on *where* records or keys
//! are placed: the round-robin split only keeps arrival order recoverable,
//! which contiguous slices do as well, so step 1's tasks read contiguous
//! slices of the batch and their outputs concatenate back into arrival
//! order ([`assign_records_distributed`](crate::assign_records_distributed));
//! the order-aware local and global updates sort by arrival key before
//! folding. What is left to place is step 2's: [`Placement`] decides which
//! reduce partition owns each distinct `(kind, key)` group key of the
//! batch.
//!
//! That decision is a pure function of its arguments (DESIGN.md §13), so a
//! run is reproducible record for record and placement can be replayed
//! after a failure or an elastic resize.

use diststream_engine::HashPartitioner;

/// Names the job's placement. The paper's is the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// FNV hash key placement (step 1's split is contiguous either way).
    #[default]
    RoundRobin,
}

/// Resolves a [`StrategyKind`] to its placement.
pub fn strategy_for(kind: StrategyKind) -> Placement {
    match kind {
        StrategyKind::RoundRobin => Placement,
    }
}

/// The paper's hash key placement (§V-B). Step 1's record split needs no
/// placement: its tasks read contiguous slices of the batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Placement;

impl Placement {
    /// Step-2 key placement: the reduce partition, out of `partitions`,
    /// that owns the [group key](crate::Assignment::group_key) `key`.
    pub fn reduce_partition(self, key: &(u64, u64), partitions: usize) -> usize {
        HashPartitioner.partition_of(key, partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
