//! Criterion micro-benchmarks of the three mini-batch steps: assignment
//! (record-based parallel), local update (model-based parallel), and the
//! driver-side global update with and without pre-merge — plus the
//! `global_update` group, which prices one over-budget insertion (the
//! capacity merge) for ClusTree and CluStream.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use diststream_bench::{Bundle, DatasetKind};
use diststream_core::{
    assign_records_distributed, global_update, local_update_distributed, strategy_for,
    CreatedSketch, LocalOutcome, LocalScratch, StrategyKind, StreamClustering, UpdateOrdering,
};
use diststream_engine::{
    Broadcast, ExecutionMode, MiniBatcher, StepMetrics, StreamingContext, VecSource,
};
use diststream_types::{Point, Record, Timestamp};

fn bench_steps(c: &mut Criterion) {
    let bundle = Bundle::new(DatasetKind::Kdd99, 12_000, 42);
    let algo = bundle.clustream();
    let records = bundle.quality_records();
    let init = bundle.init_records();
    let model = algo.init(&records[..init]).expect("init");
    let ctx = StreamingContext::new(4, ExecutionMode::Simulated).expect("context");

    // One representative mini-batch (10 virtual seconds).
    let batch = MiniBatcher::new(VecSource::new(records[init..].to_vec()), 10.0)
        .next()
        .expect("at least one batch");
    let bcast = Broadcast::new(model.clone());
    let strategy = strategy_for(StrategyKind::RoundRobin);
    let assign = |records| {
        assign_records_distributed(&ctx, &algo, &bcast, records, false, strategy).expect("assign")
    };
    let local = |pairs| {
        local_update_distributed(
            &ctx,
            &algo,
            &bcast,
            pairs,
            UpdateOrdering::OrderAware,
            batch.window_start,
            7,
            &mut LocalScratch::default(),
            false,
            strategy,
        )
        .expect("local")
    };

    let mut group = c.benchmark_group("steps");
    group.sample_size(20);

    group.bench_function("assignment (record-based)", |b| {
        b.iter_batched(|| batch.records.clone(), assign, BatchSize::LargeInput)
    });

    let assignment = assign(batch.records.clone());
    group.bench_function("local update (model-based, ordered)", |b| {
        b.iter_batched(|| assignment.pairs.clone(), local, BatchSize::LargeInput)
    });

    for premerge in [true, false] {
        let label = if premerge {
            "global update (pre-merge on)"
        } else {
            "global update (pre-merge off)"
        };
        group.bench_function(label, |b| {
            b.iter_batched(
                || (model.clone(), local(assignment.pairs.clone())),
                |(mut m, local)| {
                    global_update(
                        &algo,
                        &mut m,
                        local,
                        batch.window_end,
                        UpdateOrdering::OrderAware,
                        premerge,
                        7,
                    )
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();

    // The §IV-D bound computation, for completeness.
    c.bench_function("max_batch_secs", |b| {
        let cfg = diststream_types::ClusteringConfig::default();
        b.iter(|| std::hint::black_box(cfg.max_batch_secs()))
    });
}

/// Over-budget creations per measured `global_update` call — about what one
/// `clustree-kdd99` batch hands `apply_global` after pre-merge.
const CREATIONS_PER_CALL: usize = 60;

/// A record far from every dataset cluster and from every other `k`. The
/// spacing grows with `k`, so record `k` lies outside the boundary of
/// singleton `k - 1` (CluStream: the distance to *its* nearest neighbour)
/// and is inserted rather than absorbed.
fn far_record(template: &Record, k: usize, now: Timestamp) -> Record {
    let mut coords = template.point.as_slice().to_vec();
    if let Some(first) = coords.first_mut() {
        *first += 1_000.0 * ((k + 1) * (k + 1)) as f64;
    }
    Record::new(template.id + k as u64, Point::from(coords), now)
}

/// Fills `model` to the algorithm's budget with far-apart singletons, then
/// measures `global_update` placing [`CREATIONS_PER_CALL`] more: every one
/// lands over budget and costs a closest-pair merge.
fn bench_capacity<A: StreamClustering>(
    c: &mut Criterion,
    label: &str,
    algo: &A,
    mut model: A::Model,
    budget: usize,
    len: impl Fn(&A::Model) -> usize,
    template: &Record,
) {
    let now = template.timestamp;
    let mut next = 0usize;
    while len(&model) < budget {
        let filler = vec![algo.create(&far_record(template, next, now))];
        algo.apply_global(&mut model, vec![], filler, now)
            .expect("fill to budget");
        next += 1;
    }
    let created: Vec<CreatedSketch<A::Sketch>> = (0..CREATIONS_PER_CALL)
        .map(|k| {
            let record = far_record(template, next + k, now);
            CreatedSketch {
                sketch: algo.create(&record),
                first_arrival: (now, record.id),
                absorbed: 1,
            }
        })
        .collect();

    let mut group = c.benchmark_group("global_update");
    group.sample_size(20);
    group.bench_function(label, |b| {
        b.iter_batched(
            || {
                let local = LocalOutcome {
                    updated: Vec::new(),
                    created: created.clone(),
                    metrics: StepMetrics::empty(),
                    shuffle_bytes: 0,
                    driver_secs: 0.0,
                };
                (model.clone(), local)
            },
            |(mut m, local)| {
                global_update(
                    algo,
                    &mut m,
                    local,
                    now,
                    UpdateOrdering::OrderAware,
                    false,
                    7,
                )
                .expect("global update");
                assert_eq!(len(&m), budget, "every creation must force a merge");
                m
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_global_update(c: &mut Criterion) {
    let bundle = Bundle::new(DatasetKind::Kdd99, 12_000, 42);
    let records = bundle.quality_records();
    let init = &records[..bundle.init_records()];
    let template = &records[bundle.init_records()];

    let clustree = bundle.clustree();
    let budget = clustree.params().max_micro_clusters;
    let label = format!("clustree at budget {budget}, {CREATIONS_PER_CALL} creations");
    let model = clustree.init(init).expect("init");
    bench_capacity(c, &label, &clustree, model, budget, |m| m.len(), template);

    let clustream = bundle.clustream();
    let budget = clustream.params().max_micro_clusters;
    let label = format!("clustream at budget {budget}, {CREATIONS_PER_CALL} creations");
    let model = clustream.init(init).expect("init");
    bench_capacity(c, &label, &clustream, model, budget, |m| m.len(), template);
}

criterion_group!(benches, bench_steps, bench_global_update);
criterion_main!(benches);
