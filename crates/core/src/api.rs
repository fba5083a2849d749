//! The four developer APIs (paper §VI).
//!
//! DistStream "exposes four APIs, including micro-cluster representation,
//! distance computation, local update, and global update, which abstract the
//! computational flow of distributed stream clustering algorithms". Here
//! those four APIs are the methods of [`StreamClustering`]:
//!
//! | Paper API | Trait member |
//! |---|---|
//! | micro-cluster representation | [`StreamClustering::Model`], [`StreamClustering::Sketch`], [`Sketch`] |
//! | distance computation | [`StreamClustering::assign`] |
//! | local update | [`StreamClustering::create`], [`StreamClustering::update`] |
//! | global update | [`StreamClustering::apply_global`] |
//!
//! Any algorithm that follows the online-offline paradigm — the paper
//! implements CluStream, DenStream, D-Stream, and ClusTree — plugs into the
//! framework by implementing this trait; the executors in this crate drive
//! the order-aware mini-batch loop generically.

use serde::Serialize;

use diststream_types::{Point, Record, Result, Timestamp};

/// Identifier of a micro-cluster within a model.
pub type MicroClusterId = u64;

/// A prepared assignment function over one broadcast model snapshot: calling
/// it returns exactly what [`StreamClustering::assign`] returns for the same
/// record, with any per-model search structure (flattened centroid buffers,
/// precomputed boundaries) built once up front instead of per call. Shared
/// read-only across every assignment task of a batch.
pub type Searcher<'m> = Box<dyn Fn(&Record) -> Assignment + Send + Sync + 'm>;

/// Step-1 decision for one record (distance computation + outlier check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// The record falls within the maximum boundary of this existing
    /// micro-cluster.
    Existing(MicroClusterId),
    /// The record is an outlier; a new micro-cluster must be created.
    ///
    /// The payload is a *coalescing key*: outlier records carrying the same
    /// key within a batch are folded into one new micro-cluster in the local
    /// update step. Centroid-based algorithms (CluStream, DenStream,
    /// ClusTree) use the record id — one fresh micro-cluster per outlier,
    /// later reduced by the pre-merge optimization. Grid-based D-Stream uses
    /// the grid-cell hash so records landing in the same new cell coalesce
    /// immediately.
    New(u64),
}

impl Assignment {
    /// [`group_key`](Self::group_key) kind of an existing micro-cluster.
    pub(crate) const KIND_EXISTING: u64 = 0;
    /// [`group_key`](Self::group_key) kind of a coalescing outlier key.
    pub(crate) const KIND_NEW: u64 = 1;

    /// The `(kind, key)` pair the local update's shuffle groups by: the
    /// micro-cluster id for absorbed records, the coalescing key for
    /// outliers, kept apart by the kind so the two id spaces cannot collide.
    pub fn group_key(self) -> (u64, u64) {
        match self {
            Assignment::Existing(id) => (Self::KIND_EXISTING, id),
            Assignment::New(key) => (Self::KIND_NEW, key),
        }
    }
}

/// Whether the executors preserve arrival order (the paper's contribution)
/// or process updates in arbitrary order (the unordered baseline [13]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateOrdering {
    /// Order-aware: local updates fold records by arrival order; global
    /// update applies micro-clusters by creation/update time.
    #[default]
    OrderAware,
    /// Unordered baseline: records within a group and micro-clusters in the
    /// global step are processed in a seeded-shuffle order.
    Unordered,
}

/// A micro-cluster centroid with its weight, the unit handed to the offline
/// phase (macro-clustering).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WeightedPoint {
    /// Centroid of the micro-cluster.
    pub point: Point,
    /// Temporal weight (record count or decayed weight).
    pub weight: f64,
}

/// The detachable micro-cluster sketch a local-update task operates on.
///
/// A sketch is the additive statistical structure `q = {S, T, N}` of §II-A:
/// it can be copied out of the model, folded with records on a worker, moved
/// back to the driver, and merged with another sketch.
pub trait Sketch: Clone + Send + Sync + Serialize {
    /// Current centroid of the sketch.
    fn centroid(&self) -> Point;

    /// Temporal weight (e.g. record count `N` or decayed weight `W`).
    fn weight(&self) -> f64;

    /// Merges `other` into `self` using the additivity property.
    fn merge(&mut self, other: &Self);
}

/// A stream clustering algorithm expressed through the four DistStream APIs.
///
/// Implementations must be cheap to share across tasks (`Send + Sync`); all
/// mutable state lives in the `Model`.
pub trait StreamClustering: Send + Sync {
    /// The full micro-cluster model (`Q_t`): broadcast to tasks at the start
    /// of every batch, mutated only by the global update on the driver.
    type Model: Clone + Send + Sync + Serialize;

    /// The detached micro-cluster sketch local updates operate on.
    type Sketch: Sketch;

    /// Human-readable algorithm name (for reports).
    fn name(&self) -> &str;

    /// Builds the initial model from the first records of the stream, e.g.
    /// by running batch k-means (§II-B "for initialization ...").
    ///
    /// # Errors
    ///
    /// Returns an error if `records` is empty or inconsistent.
    fn init(&self, records: &[Record]) -> Result<Self::Model>;

    /// **API: distance computation.** Finds the closest micro-cluster of
    /// `record` in the (possibly stale) `model` and performs the outlier
    /// check against its maximum boundary.
    fn assign(&self, model: &Self::Model, record: &Record) -> Assignment;

    /// **API: distance computation, prepared.** Builds a [`Searcher`] over
    /// one stale model snapshot. The returned function must be equivalent to
    /// [`StreamClustering::assign`] on the same model — the assignment step
    /// relies on this equivalence for its determinism guarantees — and must
    /// be safe to share read-only across tasks. Algorithms override the
    /// default (a plain `assign` closure) to hoist per-model search
    /// structures such as flattened centroid buffers out of the per-record
    /// path; the framework builds the searcher **once per batch** and reuses
    /// it across every task chunk, so the build cost is amortized over the
    /// whole batch rather than paid per task.
    fn searcher<'m>(&'m self, model: &'m Self::Model) -> Searcher<'m> {
        Box::new(move |record| self.assign(model, record))
    }

    /// **API: distance computation, batched.** Assigns every record of a
    /// task partition against one stale model snapshot. Must return exactly
    /// `records.len()` assignments, element `i` equal to what
    /// [`StreamClustering::assign`] returns for `records[i]`. The default
    /// builds one [`StreamClustering::searcher`] and maps it over the
    /// partition.
    fn assign_many(&self, model: &Self::Model, records: &[Record]) -> Vec<Assignment> {
        let searcher = self.searcher(model);
        records.iter().map(searcher).collect()
    }

    /// Detaches a copy of micro-cluster `id` from the model for local
    /// update.
    ///
    /// # Panics
    ///
    /// May panic if `id` does not exist in `model`; the framework only
    /// passes ids produced by [`StreamClustering::assign`] on the same
    /// model.
    fn sketch_of(&self, model: &Self::Model, id: MicroClusterId) -> Self::Sketch;

    /// **API: local update (creation).** Creates a fresh micro-cluster from
    /// an outlier record.
    fn create(&self, record: &Record) -> Self::Sketch;

    /// **API: local update (fold).** Updates a sketch with one record in
    /// arrival order: `q ← λ(Δt)·q + Δx` with the algorithm's decay and
    /// increment definitions.
    fn update(&self, sketch: &mut Self::Sketch, record: &Record);

    /// Whether two newly-created outlier sketches are close enough to
    /// pre-merge (§V-C optimization). The default declines all pre-merges.
    fn can_premerge(&self, _a: &Self::Sketch, _b: &Self::Sketch) -> bool {
        false
    }

    /// **API: global update.** Merges the batch's updated and newly created
    /// micro-clusters into the model: replace updated sketches, decay
    /// untouched micro-clusters to `now`, delete outdated ones, and merge
    /// the closest pairs to respect capacity bounds.
    ///
    /// `updated` and `created` arrive already arranged by the framework
    /// according to the active [`UpdateOrdering`]; implementations should
    /// apply them in the given order because deletion/merging are
    /// irreversible (§IV-C2).
    ///
    /// # Errors
    ///
    /// Returns a typed [`DistStreamError`](diststream_types::DistStreamError)
    /// — e.g. `UnknownMicroCluster` for an update whose target id the
    /// algorithm cannot place, or `Invariant` for a violated internal
    /// invariant — instead of panicking, so the driver's fault model can
    /// contain the failure (the panic-path audit bans `unwrap`/`expect` in
    /// shipping algorithm code).
    fn apply_global(
        &self,
        model: &mut Self::Model,
        updated: Vec<(MicroClusterId, Self::Sketch)>,
        created: Vec<Self::Sketch>,
        now: Timestamp,
    ) -> Result<()>;

    /// Exports the model's micro-clusters for the offline phase.
    fn snapshot(&self, model: &Self::Model) -> Vec<WeightedPoint>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_variants_compare() {
        assert_eq!(Assignment::Existing(3), Assignment::Existing(3));
        assert_ne!(Assignment::Existing(3), Assignment::New(3));
    }

    #[test]
    fn default_ordering_is_order_aware() {
        assert_eq!(UpdateOrdering::default(), UpdateOrdering::OrderAware);
    }

    #[test]
    fn weighted_point_holds_weight() {
        let wp = WeightedPoint {
            point: Point::zeros(2),
            weight: 4.5,
        };
        assert_eq!(wp.weight, 4.5);
        assert_eq!(wp.point.dims(), 2);
    }
}
