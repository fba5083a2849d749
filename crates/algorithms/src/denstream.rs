//! DenStream (Cao et al., SDM 2006) on the DistStream APIs.
//!
//! DenStream maintains exponentially decayed micro-clusters in two roles:
//! *potential* micro-clusters (weight ≥ β_p·μ) that feed the offline DBSCAN
//! phase, and *outlier* micro-clusters buffering possible new clusters.
//! A record joins the nearest micro-cluster if the tentative insertion keeps
//! the radius within `ε`; otherwise it founds a new outlier micro-cluster.
//! Every `T_p` seconds, light potential micro-clusters and stale outlier
//! micro-clusters are pruned.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use diststream_core::{
    telemetry, Assignment, MicroClusterId, Searcher, StreamClustering, WeightedPoint,
};
use diststream_types::{DistStreamError, Record, Result, Timestamp};

use crate::cf::{CentroidKernel, CfVector, RadiusScreen};

/// Tuning parameters for [`DenStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenStreamParams {
    /// Decay base `β` (> 1): weights decay as `β^{-Δt}`. The paper sets
    /// `β = 2^{0.25} ≈ 1.19`.
    pub beta: f64,
    /// Radius threshold `ε`: the maximum micro-cluster radius.
    pub eps: f64,
    /// Core weight threshold `μ` (paper default 10).
    pub mu: f64,
    /// Potential factor `β_p ∈ (0, 1]`: a micro-cluster is *potential* when
    /// its weight reaches `β_p·μ`.
    pub potential_factor: f64,
}

impl Default for DenStreamParams {
    fn default() -> Self {
        DenStreamParams {
            beta: 2f64.powf(0.25),
            eps: 1.0,
            mu: 10.0,
            potential_factor: 0.2,
        }
    }
}

impl DenStreamParams {
    /// The pruning period `T_p = ⌈log_β(β_p·μ / (β_p·μ − 1))⌉` from the
    /// DenStream paper: the minimal time for a potential micro-cluster that
    /// stops receiving records to fall below the potential threshold.
    pub(crate) fn prune_period_secs(&self) -> f64 {
        let bm = self.potential_factor * self.mu;
        if bm <= 1.0 {
            return 1.0;
        }
        ((bm / (bm - 1.0)).ln() / self.beta.ln()).ceil().max(1.0)
    }
}

/// One DenStream micro-cluster: a decayed CF vector plus its role.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenStreamMc {
    /// The decayed CF sketch.
    pub cf: CfVector,
    /// `true` for potential micro-clusters, `false` for outlier buffers.
    pub potential: bool,
}

/// The DenStream model: decayed micro-clusters in potential/outlier roles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DenStreamModel {
    mcs: BTreeMap<MicroClusterId, DenStreamMc>,
    next_id: MicroClusterId,
    last_prune_secs: f64,
}

impl DenStreamModel {
    /// Total number of micro-clusters (both roles).
    pub fn len(&self) -> usize {
        self.mcs.len()
    }

    /// Whether the model holds no micro-clusters.
    pub fn is_empty(&self) -> bool {
        self.mcs.is_empty()
    }

    /// Number of potential micro-clusters.
    pub fn potential_count(&self) -> usize {
        self.mcs.values().filter(|m| m.potential).count()
    }

    /// Iterates over `(id, micro-cluster)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&MicroClusterId, &DenStreamMc)> {
        self.mcs.iter()
    }

    fn insert_new(&mut self, mc: DenStreamMc) -> MicroClusterId {
        let id = self.next_id;
        self.next_id += 1;
        self.mcs.insert(id, mc);
        id
    }
}

/// DenStream implemented through the four DistStream APIs.
///
/// # Examples
///
/// ```
/// use diststream_algorithms::{DenStream, DenStreamParams};
/// use diststream_core::StreamClustering;
/// use diststream_types::{Point, Record, Timestamp};
///
/// let algo = DenStream::new(DenStreamParams::default());
/// let init: Vec<Record> = (0..30)
///     .map(|i| Record::new(i, Point::from(vec![(i % 2) as f64 * 8.0]), Timestamp::from_secs(i as f64 * 0.1)))
///     .collect();
/// let model = algo.init(&init)?;
/// assert!(model.potential_count() >= 1);
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DenStream {
    params: DenStreamParams,
}

impl DenStream {
    /// Creates DenStream with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `beta ≤ 1`, `eps ≤ 0`, `mu ≤ 0`, or `potential_factor`
    /// is outside `(0, 1]`.
    pub fn new(params: DenStreamParams) -> Self {
        assert!(params.beta > 1.0, "decay base must exceed 1");
        assert!(params.eps > 0.0, "radius threshold must be positive");
        assert!(params.mu > 0.0, "core weight threshold must be positive");
        assert!(
            params.potential_factor > 0.0 && params.potential_factor <= 1.0,
            "potential factor must be in (0, 1]"
        );
        DenStream { params }
    }

    /// The active parameters.
    pub fn params(&self) -> &DenStreamParams {
        &self.params
    }

    fn lambda(&self, dt: f64) -> f64 {
        self.params.beta.powf(-dt)
    }

    fn potential_threshold(&self) -> f64 {
        self.params.potential_factor * self.params.mu
    }

    /// DenStream's outlier lower-weight bound `ξ(t, t_0)`: the minimum
    /// weight an outlier micro-cluster created at `t_0` must have
    /// accumulated by `t` to still be on track to become potential.
    fn outlier_bound(&self, now_secs: f64, created_secs: f64) -> f64 {
        let tp = self.params.prune_period_secs();
        let num = self.lambda(now_secs - created_secs + tp) - 1.0;
        let den = self.lambda(tp) - 1.0;
        if den == 0.0 {
            1.0
        } else {
            num / den
        }
    }

    fn prune(&self, model: &mut DenStreamModel, now: Timestamp) {
        let threshold = self.potential_threshold();
        let now_secs = now.secs();
        model.mcs.retain(|_, mc| {
            if mc.potential {
                mc.cf.weight() >= threshold
            } else {
                mc.cf.weight() >= self.outlier_bound(now_secs, mc.cf.created_at().secs())
            }
        });
        model.last_prune_secs = now_secs;
    }
}

impl StreamClustering for DenStream {
    type Model = DenStreamModel;
    type Sketch = CfVector;

    fn name(&self) -> &str {
        "denstream"
    }

    fn init(&self, records: &[Record]) -> Result<DenStreamModel> {
        if records.is_empty() {
            return Err(DistStreamError::EmptyStream);
        }
        // Sequentially absorb the initial records (the DenStream paper runs
        // DBSCAN on the first points; incremental absorption with the same
        // ε bound produces the equivalent micro-cluster seeding).
        let mut model = DenStreamModel::default();
        for record in records {
            match self.assign(&model, record) {
                Assignment::Existing(id) => {
                    let mc = model
                        .mcs
                        .get_mut(&id)
                        .ok_or(DistStreamError::UnknownMicroCluster { id })?;
                    let dt = record.timestamp.saturating_since(mc.cf.updated_at());
                    let lambda = self.lambda(dt);
                    mc.cf.insert(record, lambda);
                }
                Assignment::New(_) => {
                    model.insert_new(DenStreamMc {
                        cf: CfVector::from_record(record),
                        potential: false,
                    });
                }
            }
        }
        // Promote heavy seeds.
        let threshold = self.potential_threshold();
        for mc in model.mcs.values_mut() {
            if mc.cf.weight() >= threshold {
                mc.potential = true;
            }
        }
        Ok(model)
    }

    fn assign(&self, model: &DenStreamModel, record: &Record) -> Assignment {
        // Try the nearest potential micro-cluster first, then the nearest
        // outlier micro-cluster; accept whichever keeps the radius within ε.
        for want_potential in [true, false] {
            let candidate = model
                .mcs
                .iter()
                .filter(|(_, mc)| mc.potential == want_potential)
                .map(|(id, mc)| (*id, mc, mc.cf.squared_distance_to(&record.point)))
                .min_by(|a, b| a.2.total_cmp(&b.2));
            if let Some((id, mc, _)) = candidate {
                if mc.cf.radius_with(&record.point) <= self.params.eps {
                    return Assignment::Existing(id);
                }
            }
        }
        Assignment::New(record.id)
    }

    fn searcher<'m>(&'m self, model: &'m DenStreamModel) -> Searcher<'m> {
        // One flattened-centroid kernel per model snapshot, with the
        // potential/outlier role mask alongside so the two preference passes
        // of `assign` become filtered scans over the same dense buffer, and
        // the radius test in closed form per row: the search hands back the
        // d² the test needs, so a record costs no second pass over its
        // coordinates unless it lands within rounding of the ε boundary.
        let rows = model.mcs.len();
        let dims = model.mcs.values().next().map_or(0, |mc| mc.cf.dims());
        let mut kernel = CentroidKernel::with_capacity(rows, dims);
        let mut screen = RadiusScreen::new(rows, dims, self.params.eps);
        let mut potential = Vec::with_capacity(rows);
        for (id, mc) in model.mcs.iter() {
            kernel.push_cf(*id, &mc.cf);
            screen.push(&mc.cf);
            potential.push(mc.potential);
        }
        // Registered (at zero) by every traced batch; the screened path
        // touches no shared state.
        let exact = telemetry::enabled()
            .then(|| telemetry::counter(telemetry::names::METRIC_DENSTREAM_RADIUS_EXACT_TOTAL));
        Box::new(move |record| {
            for want_potential in [true, false] {
                // lint:allow(index-in-hot-path) one `potential` flag was pushed per kernel row above, and the filter is asked about rows only
                let in_role = |idx: usize| potential[idx] == want_potential;
                if let Some((idx, d2)) = kernel.nearest_squared_filtered(&record.point, in_role) {
                    let id = kernel.id(idx);
                    let absorbs = screen.within(idx, d2).unwrap_or_else(|| {
                        if let Some(exact) = &exact {
                            exact.inc();
                        }
                        // lint:allow(index-in-hot-path) the kernel's ids are the keys of `model.mcs` it was filled from
                        model.mcs[&id].cf.radius_with(&record.point) <= self.params.eps
                    });
                    if absorbs {
                        return Assignment::Existing(id);
                    }
                }
            }
            Assignment::New(record.id)
        })
    }

    fn sketch_of(&self, model: &DenStreamModel, id: MicroClusterId) -> CfVector {
        // lint:allow(index-in-hot-path) the trait's documented panic: `id` is one `assign` returned on this model
        model.mcs[&id].cf.clone()
    }

    fn create(&self, record: &Record) -> CfVector {
        CfVector::from_record(record)
    }

    fn update(&self, sketch: &mut CfVector, record: &Record) {
        let dt = record.timestamp.saturating_since(sketch.updated_at());
        let lambda = self.lambda(dt);
        sketch.insert(record, lambda);
    }

    fn can_premerge(&self, a: &CfVector, b: &CfVector) -> bool {
        a.centroid_distance(b) <= self.params.eps
    }

    fn apply_global(
        &self,
        model: &mut DenStreamModel,
        updated: Vec<(MicroClusterId, CfVector)>,
        created: Vec<CfVector>,
        now: Timestamp,
    ) -> Result<()> {
        for (id, cf) in updated {
            if let Some(mc) = model.mcs.get_mut(&id) {
                mc.cf = cf;
            }
        }
        for cf in created {
            model.insert_new(DenStreamMc {
                cf,
                potential: false,
            });
        }
        // Role transitions on the stored (lazily decayed) weights.
        let threshold = self.potential_threshold();
        for mc in model.mcs.values_mut() {
            mc.potential = mc.cf.weight() >= threshold;
        }
        // Periodic maintenance: untouched micro-clusters are decayed lazily,
        // only at prune boundaries — decaying the whole model on every call
        // would make the one-record-at-a-time baseline O(n·d) per record,
        // which real DenStream implementations avoid the same way.
        if now.secs() - model.last_prune_secs >= self.params.prune_period_secs() {
            for mc in model.mcs.values_mut() {
                let dt = now.saturating_since(mc.cf.updated_at());
                if dt > 0.0 {
                    mc.cf.decay(self.lambda(dt), now);
                }
            }
            for mc in model.mcs.values_mut() {
                mc.potential = mc.cf.weight() >= threshold;
            }
            self.prune(model, now);
        }
        Ok(())
    }

    fn snapshot(&self, model: &DenStreamModel) -> Vec<WeightedPoint> {
        let potentials: Vec<WeightedPoint> = model
            .mcs
            .values()
            .filter(|mc| mc.potential)
            .map(|mc| mc.cf.to_weighted_point())
            .collect();
        if potentials.is_empty() {
            // Fall back to everything rather than an empty offline input.
            model
                .mcs
                .values()
                .map(|mc| mc.cf.to_weighted_point())
                .collect()
        } else {
            potentials
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_types::Point;
    use proptest::test_runner::TestRng;

    fn rec(id: u64, x: f64, t: f64) -> Record {
        Record::new(id, Point::from(vec![x]), Timestamp::from_secs(t))
    }

    fn algo() -> DenStream {
        DenStream::new(DenStreamParams::default())
    }

    #[test]
    fn prune_period_matches_denstream_formula() {
        let p = DenStreamParams::default();
        // β_p·μ = 2 → T_p = ⌈log_β 2⌉ = ⌈4⌉ for β = 2^0.25; floating-point
        // noise in powf/ln may push the pre-ceil value a hair above 4.
        let tp = p.prune_period_secs();
        assert!((4.0..=5.0).contains(&tp), "T_p = {tp}");
    }

    #[test]
    fn init_promotes_heavy_clusters() {
        let algo = algo();
        // 30 records at the same spot, same time: weight 30 ≥ 2.
        let records: Vec<Record> = (0..30).map(|i| rec(i, 0.0, 0.0)).collect();
        let model = algo.init(&records).unwrap();
        assert_eq!(model.potential_count(), 1);
        assert_eq!(model.len(), model.potential_count());
    }

    #[test]
    fn assign_prefers_potential_micro_clusters() {
        let algo = algo();
        let mut model = DenStreamModel::default();
        // A potential cluster at 0 and an outlier cluster slightly closer to
        // the probe point: the potential one is tried first and accepted.
        let mut heavy = CfVector::from_record(&rec(0, 0.0, 0.0));
        for i in 1..20 {
            heavy.insert(&rec(i, 0.0, 0.0), 1.0);
        }
        let p_id = model.insert_new(DenStreamMc {
            cf: heavy,
            potential: true,
        });
        model.insert_new(DenStreamMc {
            cf: CfVector::from_record(&rec(20, 0.4, 0.0)),
            potential: false,
        });
        let probe = rec(21, 0.3, 1.0);
        assert_eq!(algo.assign(&model, &probe), Assignment::Existing(p_id));
    }

    #[test]
    fn assign_many_matches_per_record_assign() {
        let algo = algo();
        // Seed a model holding both potential and outlier micro-clusters at
        // interleaved positions so probes hit every branch of `assign`.
        let mut model = DenStreamModel::default();
        for (k, &(x, potential)) in [
            (0.0, true),
            (0.4, false),
            (2.0, true),
            (2.6, false),
            (5.0, false),
            (7.0, true),
        ]
        .iter()
        .enumerate()
        {
            let base = (k * 30) as u64;
            let mut cf = CfVector::from_record(&rec(base, x, 0.0));
            if potential {
                for j in 1..20 {
                    cf.insert(&rec(base + j, x, 0.0), 1.0);
                }
            }
            model.insert_new(DenStreamMc { cf, potential });
        }
        assert!(model.potential_count() > 0 && model.potential_count() < model.len());
        let probes: Vec<Record> = (0..150)
            .map(|i| rec(1000 + i, (i % 23) as f64 * 0.35, 4.0 + i as f64 * 0.01))
            .collect();
        let batched = algo.assign_many(&model, &probes);
        for (r, got) in probes.iter().zip(batched) {
            assert_eq!(got, algo.assign(&model, r), "record {:?}", r.id);
        }
    }

    /// A model built to sit badly with a closed-form radius: `dims`
    /// dimensions around a common `offset` (at 10⁶ the mean dwarfs the
    /// spread and `S2 − S1²/w` cancels to its last bits), every third
    /// dimension of zero variance (its cancellation residue has either
    /// sign, so the clamp fires), decay factors and record counts that
    /// differ per sketch, and weights scaled to span 10⁻⁶ … 10⁶. Roles
    /// alternate; centres are ten spreads apart along dimension 0.
    fn adversarial_model(rng: &mut TestRng, dims: usize, offset: f64) -> DenStreamModel {
        let mut model = DenStreamModel::default();
        for k in 0..6u64 {
            let coords = |rng: &mut TestRng| -> Vec<f64> {
                (0..dims)
                    .map(|dim| {
                        let centre = offset + if dim == 0 { k as f64 * 10.0 } else { 0.1 };
                        let flat = dim % 3 == 2;
                        centre + if flat { 0.0 } else { rng.unit_f64() - 0.5 }
                    })
                    .collect()
            };
            let mut cf =
                CfVector::from_record(&Record::new(0, Point::from(coords(rng)), Timestamp::ZERO));
            let lambda = [1.0, 0.97, 0.5][k as usize % 3];
            for i in 1..=(3 + 4 * k) {
                let at = Timestamp::from_secs(i as f64 * 0.01);
                cf.insert(&Record::new(i, Point::from(coords(rng)), at), lambda);
            }
            match k {
                // Down to ~10⁻⁶ of a record...
                0 | 1 => cf.decay(1e-6, Timestamp::from_secs(1.0)),
                // ...and up to ~10⁶: twenty doublings.
                4 | 5 => (0..20).for_each(|_| cf.add(&cf.clone())),
                _ => {}
            }
            model.insert_new(DenStreamMc {
                cf,
                potential: k % 2 == 0,
            });
        }
        model
    }

    /// `centroid + t · direction`.
    fn along(centroid: &Point, direction: &[f64], t: f64) -> Point {
        let coords = centroid.iter().zip(direction).map(|(c, u)| c + t * u);
        Point::from(coords.collect::<Vec<f64>>())
    }

    /// Probes for every micro-cluster of `model`: its centroid, points a
    /// random step away, and — the ones that matter — points bisected along
    /// a random direction until two neighbouring step lengths straddle
    /// `radius_with(x) <= eps`, with a few more within rounding of those.
    fn boundary_probes(rng: &mut TestRng, model: &DenStreamModel, eps: f64) -> Vec<Record> {
        let mut probes = Vec::new();
        for (_, mc) in model.iter() {
            let centroid = mc.cf.centroid();
            let direction: Vec<f64> = (0..mc.cf.dims()).map(|_| rng.unit_f64() - 0.5).collect();
            let absorbs = |t: f64| mc.cf.radius_with(&along(&centroid, &direction, t)) <= eps;
            let mut steps = vec![0.0, rng.unit_f64(), rng.unit_f64() * 30.0];
            if absorbs(0.0) {
                let (mut inside, mut outside) = (0.0, 1.0);
                while absorbs(outside) && outside < 1e12 {
                    outside *= 2.0;
                }
                for _ in 0..200 {
                    let mid = inside + (outside - inside) / 2.0;
                    if mid <= inside || mid >= outside {
                        break;
                    }
                    if absorbs(mid) {
                        inside = mid;
                    } else {
                        outside = mid;
                    }
                }
                for edge in [inside, outside] {
                    steps.extend((-2..=2).map(|ulps| edge * (1.0 + ulps as f64 * f64::EPSILON)));
                }
            }
            for t in steps {
                let id = probes.len() as u64;
                let point = along(&centroid, &direction, t);
                probes.push(Record::new(id, point, Timestamp::from_secs(2.0)));
            }
        }
        probes
    }

    /// The searcher's screen must never change a decision: on sketches and
    /// points chosen to make the closed form and the 315-term sum disagree
    /// if anything can, `assign_many` (the screen, then the sum where the
    /// screen abstains) answers exactly as `assign` (the sum) does — in
    /// both roles, since a record the nearest potential micro-cluster turns
    /// away is judged again by the nearest outlier one.
    #[test]
    fn searcher_decides_like_assign_on_adversarial_geometry() {
        let mut rng = TestRng::from_seed(0x22);
        let (mut existing, mut created, mut second_pass) = (0, 0, 0);
        for dims in [1, 2, 54, 315] {
            for offset in [0.0, 1e3, 1e6] {
                let model = adversarial_model(&mut rng, dims, offset);
                // About the spread of one sketch, so both outcomes occur.
                for eps in [0.05, 0.3 * (dims as f64).sqrt(), 3.0] {
                    let algo = DenStream::new(DenStreamParams {
                        eps,
                        ..DenStreamParams::default()
                    });
                    let probes = boundary_probes(&mut rng, &model, eps);
                    let batched = algo.assign_many(&model, &probes);
                    for (probe, got) in probes.iter().zip(batched) {
                        let want = algo.assign(&model, probe);
                        assert_eq!(got, want, "d={dims} offset={offset} eps={eps} {probe:?}");
                        match want {
                            Assignment::Existing(id) if id % 2 == 1 => second_pass += 1,
                            Assignment::Existing(_) => existing += 1,
                            Assignment::New(_) => created += 1,
                        }
                    }
                }
            }
        }
        // Every branch was exercised many times over.
        assert!(existing > 100 && created > 100 && second_pass > 100);
    }

    /// The bisected points are the ones the screen cannot decide: there —
    /// and, on well-conditioned sketches, only there — the searcher falls
    /// back to the full sum, and says so on the telemetry counter.
    #[test]
    fn boundary_points_take_the_exact_radius_and_are_counted() {
        let mut rng = TestRng::from_seed(0x23);
        let model = adversarial_model(&mut rng, 54, 0.0);
        let eps = 0.3 * 54f64.sqrt();
        let probes = boundary_probes(&mut rng, &model, eps);
        let mut screen = RadiusScreen::new(model.len(), 54, eps);
        let mut abstained = 0;
        for (row, (_, mc)) in model.iter().enumerate() {
            screen.push(&mc.cf);
            for probe in &probes {
                let d2 = mc.cf.squared_distance_to(&probe.point);
                match screen.within(row, d2) {
                    Some(absorbs) => {
                        assert_eq!(absorbs, mc.cf.radius_with(&probe.point) <= eps);
                    }
                    None => abstained += 1,
                }
            }
        }
        // Each sketch abstains on its own ten boundary points, and decides
        // its interior points and everything about the other sketches.
        let pairs = model.len() * probes.len();
        assert!(abstained >= 10 * model.len(), "{abstained} of {pairs}");
        assert!(abstained * 4 < pairs, "{abstained} of {pairs}");

        let algo = DenStream::new(DenStreamParams {
            eps,
            ..DenStreamParams::default()
        });
        let counter = telemetry::counter(telemetry::names::METRIC_DENSTREAM_RADIUS_EXACT_TOTAL);
        let before = counter.get();
        telemetry::set_enabled(true);
        let decisions = algo.assign_many(&model, &probes);
        telemetry::set_enabled(false);
        assert_eq!(decisions.len(), probes.len());
        assert!(counter.get() > before);
    }

    /// NaN, infinite and overflowing coordinates, an emptied sketch, a
    /// one-record sketch and one at 10²⁰⁰ get from the searcher what
    /// `assign` gives them. One micro-cluster per role, so the candidate is
    /// the same on both sides whatever the distances are: which of several
    /// rows a search returns when every distance is NaN is the kernel's
    /// business (`hostile_coordinates_take_the_plain_scan`), and it is not
    /// the reference's first row.
    #[test]
    fn hostile_input_is_assigned_as_the_reference_assigns_it() {
        let algo = algo();
        let mut heavy = CfVector::from_record(&rec(0, 0.0, 0.0));
        for i in 1..20 {
            heavy.insert(&rec(i, 0.1 * (i % 3) as f64, 0.0), 1.0);
        }
        let mut emptied = CfVector::from_record(&rec(20, 4.0, 0.0));
        emptied.decay(0.0, Timestamp::from_secs(1.0));
        let sketches = [
            heavy,
            emptied,
            CfVector::from_record(&rec(21, 8.0, 0.0)),
            CfVector::from_record(&rec(22, 1e200, 0.0)),
        ];
        let coords = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e200,
            -1e200,
            1e155,
            0.05,
            4.0,
            4.5,
            8.0,
            9.9,
            10.1,
        ];
        let probes: Vec<Record> = coords
            .iter()
            .enumerate()
            .map(|(i, &x)| rec(100 + i as u64, x, 2.0))
            .collect();
        let mut absorbed = 0;
        for (p, potential) in sketches.iter().enumerate() {
            for (o, outlier) in sketches.iter().enumerate().filter(|(o, _)| *o != p) {
                let mut model = DenStreamModel::default();
                for (cf, potential) in [(potential, true), (outlier, false)] {
                    model.insert_new(DenStreamMc {
                        cf: cf.clone(),
                        potential,
                    });
                }
                let batched = algo.assign_many(&model, &probes);
                for (probe, got) in probes.iter().zip(batched) {
                    assert_eq!(got, algo.assign(&model, probe), "{p}/{o} {probe:?}");
                    absorbed += usize::from(matches!(got, Assignment::Existing(_)));
                }
            }
        }
        assert!(absorbed > 0 && absorbed < 12 * probes.len());
    }

    #[test]
    fn assign_rejects_radius_violations() {
        let algo = algo();
        let mut model = DenStreamModel::default();
        model.insert_new(DenStreamMc {
            cf: CfVector::from_record(&rec(0, 0.0, 0.0)),
            potential: true,
        });
        // Tentative radius after inserting x=10 is 5 > ε=1 → outlier.
        assert_eq!(algo.assign(&model, &rec(1, 10.0, 1.0)), Assignment::New(1));
    }

    #[test]
    fn update_decays_by_arrival_interval() {
        let algo = algo();
        let mut cf = algo.create(&rec(0, 1.0, 0.0));
        algo.update(&mut cf, &rec(1, 1.0, 4.0));
        // After 4s at β = 2^0.25: λ = 2^{-1} = 0.5 → weight 1×0.5 + 1 = 1.5.
        assert!((cf.weight() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn global_update_promotes_and_demotes() {
        let algo = algo();
        let mut model = DenStreamModel::default();
        let id = model.insert_new(DenStreamMc {
            cf: CfVector::from_record(&rec(0, 0.0, 0.0)),
            potential: false,
        });
        // Updated sketch got heavy → promoted.
        let mut heavy = CfVector::from_record(&rec(0, 0.0, 0.0));
        for i in 1..5 {
            heavy.insert(&rec(i, 0.0, 0.0), 1.0);
        }
        algo.apply_global(&mut model, vec![(id, heavy)], vec![], Timestamp::ZERO)
            .unwrap();
        assert_eq!(model.potential_count(), 1);
        // Long silence decays it below threshold → demoted/pruned.
        algo.apply_global(&mut model, vec![], vec![], Timestamp::from_secs(50.0))
            .unwrap();
        assert_eq!(model.potential_count(), 0);
    }

    #[test]
    fn stale_outliers_pruned() {
        let algo = algo();
        let mut model = DenStreamModel::default();
        model.insert_new(DenStreamMc {
            cf: CfVector::from_record(&rec(0, 0.0, 0.0)),
            potential: false,
        });
        // Far beyond T_p with weight ~0 → pruned by the ξ bound.
        algo.apply_global(&mut model, vec![], vec![], Timestamp::from_secs(100.0))
            .unwrap();
        assert!(model.is_empty());
    }

    #[test]
    fn snapshot_prefers_potentials() {
        let algo = algo();
        let records: Vec<Record> = (0..40)
            .map(|i| rec(i, if i < 30 { 0.0 } else { 50.0 + i as f64 * 3.0 }, 0.0))
            .collect();
        let model = algo.init(&records).unwrap();
        assert!(model.potential_count() >= 1);
        assert_eq!(algo.snapshot(&model).len(), model.potential_count());
    }

    #[test]
    fn fresh_outliers_survive_pruning() {
        let algo = algo();
        let mut model = DenStreamModel::default();
        let created = vec![CfVector::from_record(&rec(0, 0.0, 10.0))];
        algo.apply_global(&mut model, vec![], created, Timestamp::from_secs(10.0))
            .unwrap();
        assert_eq!(model.len(), 1);
    }

    #[test]
    #[should_panic(expected = "decay base")]
    fn rejects_non_decaying_beta() {
        let _ = DenStream::new(DenStreamParams {
            beta: 1.0,
            ..Default::default()
        });
    }
}
