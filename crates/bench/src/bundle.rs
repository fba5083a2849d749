//! Dataset bundles: a dataset analog plus dataset-tuned algorithm
//! parameters, arrival rates, and evaluation bounds.

use diststream_algorithms::{
    CluStream, CluStreamParams, ClusTree, ClusTreeParams, DStream, DStreamParams, DenStream,
    DenStreamParams,
};
use diststream_datasets::{
    covertype_like, kdd98_like, kdd99_like, Dataset, COVERTYPE_RECORDS, KDD98_RECORDS,
    KDD99_RECORDS,
};
use diststream_types::Record;

/// The three evaluation datasets of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DatasetKind {
    /// KDD-99 network-intrusion analog (dynamic).
    Kdd99,
    /// CoverType forest-mapping analog (moderately changing).
    CoverType,
    /// KDD-98 donation analog (stable, high-dimensional).
    Kdd98,
}

impl DatasetKind {
    /// All three datasets in the paper's order.
    pub(crate) const ALL: [DatasetKind; 3] = [
        DatasetKind::Kdd99,
        DatasetKind::CoverType,
        DatasetKind::Kdd98,
    ];

    /// Dataset name as used in the paper.
    pub(crate) fn name(self) -> &'static str {
        match self {
            DatasetKind::Kdd99 => "KDD-99",
            DatasetKind::CoverType => "CoverType",
            DatasetKind::Kdd98 => "KDD-98",
        }
    }

    /// Record count of the real dataset (Table I).
    pub(crate) fn full_records(self) -> usize {
        match self {
            DatasetKind::Kdd99 => KDD99_RECORDS,
            DatasetKind::CoverType => COVERTYPE_RECORDS,
            DatasetKind::Kdd98 => KDD98_RECORDS,
        }
    }

    /// Ground-truth cluster count (Table I).
    pub(crate) fn clusters(self) -> usize {
        match self {
            DatasetKind::Kdd99 => 23,
            DatasetKind::CoverType => 7,
            DatasetKind::Kdd98 => 5,
        }
    }

    /// The paper's quality-run streaming rate: 1K records/s (§VII-B1).
    pub(crate) fn quality_rate(self) -> f64 {
        1000.0
    }

    /// The paper's maximum stable Kafka rate for the stress tests:
    /// 100K/s on the low-dimensional datasets, 10K/s on KDD-98 (§VII-C1).
    pub(crate) fn stress_rate(self) -> f64 {
        match self {
            DatasetKind::Kdd98 => 10_000.0,
            _ => 100_000.0,
        }
    }
}

/// A generated dataset plus everything the experiments need to drive it.
#[derive(Debug, Clone)]
pub(crate) struct Bundle {
    /// Which Table-I dataset this is.
    pub(crate) kind: DatasetKind,
    /// The generated analog.
    pub(crate) dataset: Dataset,
    /// Fraction of the real dataset's records generated (`1.0` = full).
    pub(crate) scale: f64,
    /// The dataset's intra-cluster distance scale (drives ε/radii).
    pub(crate) distance_scale: f64,
}

impl Bundle {
    /// Generates a bundle with `records` records.
    ///
    /// Rates are scaled by `records / full_records` so the virtual stream
    /// *duration* — and therefore decay/batch dynamics — matches the paper
    /// regardless of scale.
    pub(crate) fn new(kind: DatasetKind, records: usize, seed: u64) -> Bundle {
        let dataset = match kind {
            DatasetKind::Kdd99 => kdd99_like(records, seed),
            DatasetKind::CoverType => covertype_like(records, seed),
            DatasetKind::Kdd98 => kdd98_like(records, seed),
        };
        let distance_scale = dataset.mean_intra_distance();
        Bundle {
            kind,
            dataset,
            scale: records as f64 / kind.full_records() as f64,
            distance_scale,
        }
    }

    /// Number of generated records.
    pub(crate) fn records(&self) -> usize {
        self.dataset.points.len()
    }

    /// Records stamped at the (scaled) quality rate of 1K records/s.
    pub(crate) fn quality_records(&self) -> Vec<Record> {
        self.dataset
            .to_records(self.kind.quality_rate() * self.scale)
    }

    /// Records stamped at the (scaled) stress rate.
    pub(crate) fn stress_records(&self) -> Vec<Record> {
        self.dataset
            .to_records(self.kind.stress_rate() * self.scale)
    }

    /// Initialization prefix size: 2% of the stream, at least 200 records.
    pub(crate) fn init_records(&self) -> usize {
        (self.records() / 50).max(200).min(self.records())
    }

    /// Coverage bound for quality evaluation: records farther than this
    /// from every macro-centroid count as missed.
    pub(crate) fn coverage_bound(&self) -> f64 {
        1.5 * self.distance_scale
    }

    /// CluStream tuned for this dataset: q = 10 × real clusters (§VII
    /// intro), boundary factor 2.
    pub(crate) fn clustream(&self) -> CluStream {
        CluStream::new(CluStreamParams {
            max_micro_clusters: 10 * self.kind.clusters(),
            boundary_factor: 2.0,
            horizon_secs: 100.0,
            relevance_z: 1.0,
            // Tuned to the clump granularity of the dataset analogs: a
            // micro-cluster summarizes one sub-clump (~scale/3 radius).
            premerge_distance: 0.5 * self.distance_scale,
            seed: 0xC105,
        })
    }

    /// DenStream tuned for this dataset: β = 2^0.25, μ = 10 (§VII intro).
    pub(crate) fn denstream(&self) -> DenStream {
        DenStream::new(DenStreamParams {
            // ε at clump granularity: a micro-cluster covers one sub-clump.
            eps: 0.5 * self.distance_scale,
            ..Default::default()
        })
    }

    /// D-Stream tuned for this dataset: a 6-dimensional projected grid with
    /// cells sized to the intra-cluster scale.
    pub(crate) fn dstream(&self) -> DStream {
        let grid_dims = 6usize;
        let dims = self.dataset.points.first().map_or(1, |p| p.point.dims());
        // Per-dimension spread of one cluster, widened so a cluster lands
        // in a handful of cells along each gridded axis.
        let per_dim = self.distance_scale / (dims as f64).sqrt();
        DStream::new(DStreamParams {
            cell_width: 3.0 * per_dim,
            grid_dims,
            expected_cells: 500,
            ..Default::default()
        })
    }

    /// ClusTree tuned for this dataset.
    pub(crate) fn clustree(&self) -> ClusTree {
        ClusTree::new(ClusTreeParams {
            max_micro_clusters: 10 * self.kind.clusters(),
            boundary_factor: 2.0,
            singleton_radius: 0.5 * self.distance_scale,
            premerge_distance: 0.5 * self.distance_scale,
            ..Default::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_algorithms::CentroidKernel;
    use diststream_core::{Assignment, StreamClustering};

    #[test]
    fn bundle_scales_rates_with_records() {
        let b = Bundle::new(DatasetKind::Kdd99, KDD99_RECORDS / 10, 1);
        assert!((b.scale - 0.1).abs() < 1e-6);
        let recs = b.quality_records();
        // Duration stays the paper's ~494s regardless of scale.
        let duration = recs.last().unwrap().timestamp.secs();
        assert!((duration - 494.0).abs() < 5.0, "duration {duration}");
    }

    #[test]
    fn stress_rate_depends_on_dimensionality() {
        assert_eq!(DatasetKind::Kdd98.stress_rate(), 10_000.0);
        assert_eq!(DatasetKind::Kdd99.stress_rate(), 100_000.0);
    }

    #[test]
    fn tuned_algorithms_construct() {
        let b = Bundle::new(DatasetKind::CoverType, 5000, 2);
        assert_eq!(b.clustream().params().max_micro_clusters, 70);
        assert!(b.denstream().params().eps > 0.0);
        assert!(b.dstream().params().cell_width > 0.0);
        assert_eq!(b.clustree().params().max_micro_clusters, 70);
        assert!(b.init_records() >= 200);
    }

    // -- the searchers against their references, on the dataset analogs ----

    /// `records` of `kind`'s analog at the stress rate, split into the
    /// initialization prefix and the first `batch` records after it.
    fn split(
        kind: DatasetKind,
        records: usize,
        batch: usize,
    ) -> (Bundle, Vec<Record>, Vec<Record>) {
        let bundle = Bundle::new(kind, records, 0x5eed);
        let mut stream = bundle.stress_records();
        let init: Vec<Record> = stream.drain(..bundle.init_records()).collect();
        stream.truncate(batch);
        (bundle, init, stream)
    }

    /// A kernel over the 230 × 54-d centroids a CluStream `init` leaves on
    /// the KDD-99 analog, once past its rent (`rows / 2` queries buy the
    /// search index and put it on trial), answers like the plain scan, row
    /// and distance bits. The plain answers come from fresh clones that
    /// each answer at most the rent: a clone starts unindexed.
    #[test]
    fn a_kernel_past_its_rent_answers_like_the_plain_scan() {
        let (bundle, init, batch) = split(DatasetKind::Kdd99, 48_000, 2_000);
        let algo = bundle.clustream();
        let model = algo.init(&init).expect("init");
        let mut kernel = CentroidKernel::new();
        for (idx, wp) in algo.snapshot(&model).iter().enumerate() {
            kernel.push_point(idx as u64, &wp.point);
        }
        assert_eq!(kernel.len(), 230);
        let bits = |found: Option<(usize, f64)>| found.map(|(row, d)| (row, d.to_bits()));
        let rent = kernel.len() / 2;
        let mut plain = Vec::with_capacity(batch.len());
        for chunk in batch.chunks(rent) {
            let fresh = kernel.clone();
            plain.extend(chunk.iter().map(|r| bits(fresh.nearest(&r.point))));
        }
        for record in &batch[..=rent] {
            kernel.nearest(&record.point);
        }
        let indexed: Vec<_> = batch
            .iter()
            .map(|r| bits(kernel.nearest(&r.point)))
            .collect();
        let first_difference = plain.iter().zip(&indexed).position(|(p, i)| p != i);
        assert_eq!(
            first_difference, None,
            "indexed search differs from the plain scan"
        );
    }

    /// ClusTree's per-batch flat searcher decides every record like the
    /// per-record tree descent, over the tree its `init` leaves on the
    /// KDD-99 analog.
    #[test]
    fn clustree_assigns_a_batch_like_record_by_record() {
        let (bundle, init, batch) = split(DatasetKind::Kdd99, 48_000, 9_716);
        let algo = bundle.clustree();
        let model = algo.init(&init).expect("init");
        assert!(model.tree_height() > 1);
        let per_record: Vec<_> = batch.iter().map(|r| algo.assign(&model, r)).collect();
        assert!(per_record == algo.assign_many(&model, &batch));
    }

    /// D-Stream's cell-table searcher decides every record like `assign`,
    /// over the grids its `init` leaves on the CoverType analog at the
    /// bundle's 6-d grid (the `dstream-covertype-disorder` tuning): records
    /// the table finds and records it leaves to `assign` alike.
    #[test]
    fn dstream_assigns_a_batch_like_record_by_record() {
        let (bundle, init, batch) = split(DatasetKind::CoverType, 50_000, 10_000);
        let algo = bundle.dstream();
        let model = algo.init(&init).expect("init");
        let per_record: Vec<_> = batch.iter().map(|r| algo.assign(&model, r)).collect();
        assert!(per_record == algo.assign_many(&model, &batch));
        let found = per_record
            .iter()
            .filter(|a| matches!(a, Assignment::Existing(_)))
            .count();
        assert!(
            found > batch.len() / 2 && found < batch.len(),
            "{found} found"
        );
    }

    /// DenStream's screened searcher decides every record like the full
    /// radius sum, over the model its `init` leaves on the 315-d KDD-98
    /// analog at the bundle's `eps`.
    #[test]
    fn denstream_assigns_a_batch_like_record_by_record() {
        let (bundle, init, batch) = split(DatasetKind::Kdd98, 24_000, 2_500);
        let algo = bundle.denstream();
        let model = algo.init(&init).expect("init");
        assert_eq!(batch[0].point.dims(), 315);
        let per_record: Vec<_> = batch.iter().map(|r| algo.assign(&model, r)).collect();
        assert!(per_record == algo.assign_many(&model, &batch));
    }
}
