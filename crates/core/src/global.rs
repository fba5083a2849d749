//! Step 3 — the global update on the driver, with order-aware application
//! and the pre-merge optimization (paper §IV-C2 and §V-C).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use diststream_engine::serialized_size;
use diststream_telemetry as telemetry;
use diststream_types::{Result, Timestamp};

use crate::api::{Sketch, StreamClustering, UpdateOrdering};
use crate::local::{CreatedSketch, LocalOutcome, UpdatedSketch};

/// Statistics from one global update.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalOutcome {
    /// Measured driver-side execution time in seconds.
    pub global_secs: f64,
    /// New (outlier) micro-clusters produced by the local step.
    pub created_before_premerge: usize,
    /// New micro-clusters remaining after the pre-merge optimization.
    pub created_after_premerge: usize,
    /// Estimated bytes collected from tasks onto the driver.
    pub collect_bytes: u64,
}

/// Runs step 3 on the driver: orders the batch's updated and created
/// micro-clusters, optionally pre-merges outlier micro-clusters, and hands
/// them to the algorithm's global update.
///
/// Ordering (paper §IV-C2): deletion and merging are irreversible, so
/// micro-clusters must be applied "by the order of their updated/created
/// time". In [`UpdateOrdering::OrderAware`] mode updated sketches are sorted
/// by the arrival key of their last absorbed record and created sketches by
/// the arrival key of their founding record. The unordered baseline
/// shuffles both lists with `shuffle_seed`.
///
/// Pre-merge (paper §V-C): when `premerge` is enabled, each newly created
/// micro-cluster is merged into the earliest previously-created one that the
/// algorithm's [`StreamClustering::can_premerge`] accepts, reducing the
/// number of outlier micro-clusters the global update must place.
///
/// # Errors
///
/// Propagates the algorithm's [`StreamClustering::apply_global`] error.
pub fn global_update<A: StreamClustering>(
    algo: &A,
    model: &mut A::Model,
    local: LocalOutcome<A::Sketch>,
    now: Timestamp,
    ordering: UpdateOrdering,
    premerge: bool,
    shuffle_seed: u64,
) -> Result<GlobalOutcome> {
    let LocalOutcome {
        mut updated,
        mut created,
        ..
    } = local;

    let collect_bytes = collect_size(&updated, &created);
    let start = Instant::now(); // lint:allow(wallclock-entropy) driver-side timing feeds step metrics only

    // These three sub-spans, after the session's `global_copy`, tile the
    // driver phase so a journal shows where inside `global_update` the time
    // went; with no telemetry session each guard is one atomic load.
    {
        let _span = telemetry::span!(telemetry::names::SPAN_GLOBAL_ORDER);
        match ordering {
            UpdateOrdering::OrderAware => {
                updated.sort_by_key(|u| (u.last_arrival, u.id));
                created.sort_by_key(|c| c.first_arrival);
            }
            UpdateOrdering::Unordered => {
                // lint:allow(wallclock-entropy) the unordered baseline's shuffle, seeded by the driver
                let mut rng = StdRng::seed_from_u64(shuffle_seed);
                updated.shuffle(&mut rng);
                created.shuffle(&mut rng);
            }
        }
    }

    let created_before_premerge = created.len();
    let created_sketches: Vec<A::Sketch> = {
        let _span = telemetry::span!(telemetry::names::SPAN_GLOBAL_PREMERGE);
        if premerge {
            premerge_created(algo, created)
        } else {
            created.into_iter().map(|c| c.sketch).collect()
        }
    };
    let created_after_premerge = created_sketches.len();

    {
        let _span = telemetry::span!(telemetry::names::SPAN_GLOBAL_APPLY);
        let updated_pairs: Vec<_> = updated.into_iter().map(|u| (u.id, u.sketch)).collect();
        algo.apply_global(model, updated_pairs, created_sketches, now)?;
    }

    Ok(GlobalOutcome {
        global_secs: start.elapsed().as_secs_f64(),
        created_before_premerge,
        created_after_premerge,
        collect_bytes,
    })
}

/// Merges each new outlier micro-cluster into the earliest compatible
/// previously-created one ("letting current outlier micro-cluster merge with
/// the previously created outlier micro-clusters").
fn premerge_created<A: StreamClustering>(
    algo: &A,
    created: Vec<CreatedSketch<A::Sketch>>,
) -> Vec<A::Sketch> {
    let mut accepted: Vec<A::Sketch> = Vec::with_capacity(created.len());
    for candidate in created {
        match accepted
            .iter_mut()
            .find(|earlier| algo.can_premerge(earlier, &candidate.sketch))
        {
            Some(earlier) => earlier.merge(&candidate.sketch),
            None => accepted.push(candidate.sketch),
        }
    }
    accepted
}

fn collect_size<S: Sketch>(updated: &[UpdatedSketch<S>], created: &[CreatedSketch<S>]) -> u64 {
    let sketch_bytes = updated
        .first()
        .map(|u| &u.sketch)
        .or_else(|| created.first().map(|c| &c.sketch))
        .map_or(0, |s| serialized_size(s) + 24);
    sketch_bytes * (updated.len() + created.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::StreamClustering;
    use crate::local::LocalOutcome;
    use crate::reference::{NaiveClustering, NaiveSketch};
    use diststream_engine::StepMetrics;
    use diststream_types::{Point, Record};

    fn rec(id: u64, x: f64, t: f64) -> Record {
        Record::new(id, Point::from(vec![x]), Timestamp::from_secs(t))
    }

    fn created(algo: &NaiveClustering, id: u64, x: f64, t: f64) -> CreatedSketch<NaiveSketch> {
        CreatedSketch {
            sketch: algo.create(&rec(id, x, t)),
            first_arrival: (Timestamp::from_secs(t), id),
            absorbed: 1,
        }
    }

    fn outcome(
        updated: Vec<UpdatedSketch<NaiveSketch>>,
        created: Vec<CreatedSketch<NaiveSketch>>,
    ) -> LocalOutcome<NaiveSketch> {
        LocalOutcome {
            updated,
            created,
            metrics: StepMetrics::default(),
            shuffle_bytes: 0,
            driver_secs: 0.0,
        }
    }

    #[test]
    fn premerge_coalesces_nearby_outliers() {
        let algo = NaiveClustering::new(1.0);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        // Three outliers: two near x=5, one far at x=20.
        let local = outcome(
            vec![],
            vec![
                created(&algo, 1, 5.0, 1.0),
                created(&algo, 2, 5.2, 2.0),
                created(&algo, 3, 20.0, 3.0),
            ],
        );
        let g = global_update(
            &algo,
            &mut model,
            local,
            Timestamp::from_secs(3.0),
            UpdateOrdering::OrderAware,
            true,
            0,
        )
        .unwrap();
        assert_eq!(g.created_before_premerge, 3);
        assert_eq!(g.created_after_premerge, 2);
    }

    #[test]
    fn premerge_disabled_keeps_all() {
        let algo = NaiveClustering::new(1.0);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let local = outcome(
            vec![],
            vec![created(&algo, 1, 5.0, 1.0), created(&algo, 2, 5.2, 2.0)],
        );
        let g = global_update(
            &algo,
            &mut model,
            local,
            Timestamp::from_secs(2.0),
            UpdateOrdering::OrderAware,
            false,
            0,
        )
        .unwrap();
        assert_eq!(g.created_after_premerge, 2);
    }

    #[test]
    fn premerge_merges_later_into_earlier() {
        // The paper: the *current* outlier merges into *previously created*
        // ones, so the earliest sketch survives as the merge target.
        let algo = NaiveClustering::new(1.0);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let local = outcome(
            vec![],
            vec![created(&algo, 2, 5.2, 2.0), created(&algo, 1, 5.0, 1.0)],
        );
        global_update(
            &algo,
            &mut model,
            local,
            Timestamp::from_secs(2.0),
            UpdateOrdering::OrderAware,
            true,
            0,
        )
        .unwrap();
        // Merged sketch exists with weight 2 (decayed alignment applies).
        let merged = model.iter().find(|(_, s)| s.weight > 1.1).unwrap();
        assert!(merged.1.weight <= 2.0);
    }

    #[test]
    fn ordering_sorts_created_by_creation_time() {
        // With a capacity-free reference algorithm the visible effect of
        // ordering is the premerge direction: the earliest-created sketch is
        // the merge target. Feed creations out of order and check the
        // surviving centroid is the earliest record's.
        let algo = NaiveClustering::new(10.0);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let local = outcome(
            vec![],
            vec![created(&algo, 5, 108.0, 5.0), created(&algo, 1, 100.0, 1.0)],
        );
        global_update(
            &algo,
            &mut model,
            local,
            Timestamp::from_secs(5.0),
            UpdateOrdering::OrderAware,
            true,
            0,
        )
        .unwrap();
        // Premerge target should be the t=1 sketch (earliest creation).
        assert_eq!(model.len(), 2);
    }

    #[test]
    fn unordered_is_shuffle_seed_deterministic() {
        let algo = NaiveClustering::new(1.0);
        let run = |seed: u64| {
            let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
            let local = outcome(
                vec![],
                vec![
                    created(&algo, 1, 5.0, 1.0),
                    created(&algo, 2, 6.0, 2.0),
                    created(&algo, 3, 7.0, 3.0),
                ],
            );
            global_update(
                &algo,
                &mut model,
                local,
                Timestamp::from_secs(3.0),
                UpdateOrdering::Unordered,
                true,
                seed,
            )
            .unwrap();
            format!("{model:?}")
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn collect_bytes_counted() {
        let algo = NaiveClustering::new(1.0);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let local = outcome(vec![], vec![created(&algo, 1, 5.0, 1.0)]);
        let g = global_update(
            &algo,
            &mut model,
            local,
            Timestamp::from_secs(1.0),
            UpdateOrdering::OrderAware,
            false,
            0,
        )
        .unwrap();
        assert!(g.collect_bytes > 0);
    }

    #[test]
    fn updated_sketches_replace_model_state() {
        let algo = NaiveClustering::new(1.0);
        let mut model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let mut sketch = algo.sketch_of(&model, 0);
        algo.update(&mut sketch, &rec(1, 0.5, 0.5));
        let local = outcome(
            vec![UpdatedSketch {
                id: 0,
                sketch: sketch.clone(),
                last_arrival: (Timestamp::from_secs(0.5), 1),
                absorbed: 1,
            }],
            vec![],
        );
        global_update(
            &algo,
            &mut model,
            local,
            Timestamp::from_secs(0.5),
            UpdateOrdering::OrderAware,
            true,
            0,
        )
        .unwrap();
        let (_, stored) = model.iter().next().unwrap();
        assert_eq!(stored, &sketch);
    }
}
