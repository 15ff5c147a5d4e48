//! Full-vs-incremental plan scoring micro-benchmarks.
//!
//! Quantifies the solver hot-path win on the Fig. 7 workload (100 jobs):
//! a neighbour rescore through [`IncrementalEval`]'s ledger + memo against
//! a full [`evaluate`] call, and a whole annealing solve on each scoring
//! substrate. Also prints the measured solve-loop speedup (the acceptance
//! target is ≥5×).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cast_cloud::tier::Tier;
use cast_cloud::Catalog;
use cast_estimator::model::{CapacityCurve, ModelMatrix, PhaseBw};
use cast_estimator::mrcute::ClusterSpec;
use cast_estimator::Estimator;
use cast_solver::neighbor::NeighborGen;
use cast_solver::{evaluate, AnnealConfig, Annealer, EvalContext, IncrementalEval, TieringPlan};
use cast_workload::apps::AppKind;
use cast_workload::profile::ProfileSet;
use cast_workload::synth;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn synthetic_estimator(nvm: usize) -> Estimator {
    let mut matrix = ModelMatrix::new();
    for app in AppKind::ALL {
        for tier in Tier::ALL {
            let samples: Vec<(f64, PhaseBw)> = (1..=5)
                .map(|i| {
                    let cap = 120.0 * i as f64;
                    (
                        cap,
                        PhaseBw {
                            map: cap / 35.0,
                            shuffle_reduce: cap / 45.0,
                        },
                    )
                })
                .collect();
            matrix.insert(app, tier, CapacityCurve::fit(&samples).expect("fit"));
        }
    }
    Estimator {
        matrix,
        catalog: Catalog::google_cloud(),
        cluster: ClusterSpec {
            nvm,
            map_slots: 16,
            reduce_slots: 8,
            task_startup_secs: 1.5,
        },
        profiles: ProfileSet::defaults(),
    }
}

/// One neighbour rescore, both ways: the full oracle re-derives every
/// tier's capacity and every job's time; the incremental path re-derives
/// only what the move touched and memoises `reg`.
fn bench_rescore(c: &mut Criterion) {
    let spec = synth::facebook_workload(Default::default()).expect("synthesis");
    let est = synthetic_estimator(25);
    let ctx = EvalContext::new(&est, &spec);
    let plan = TieringPlan::uniform(&spec, Tier::PersSsd);
    let gen = NeighborGen::new(spec.jobs.iter().map(|j| j.id).collect(), Vec::new());

    let mut group = c.benchmark_group("solver_eval/rescore_100_jobs");
    group.bench_function("full_evaluate", |b| {
        b.iter(|| {
            evaluate(black_box(&plan), &ctx)
                .expect("evaluation")
                .utility
        })
    });
    group.bench_function("incremental_move", |b| {
        let mut state = IncrementalEval::new(&ctx, &plan).expect("state");
        let mut rng = StdRng::seed_from_u64(0xCA57);
        let mut moves = Vec::new();
        let mut undo = Vec::new();
        b.iter(|| {
            let current = state.assignments();
            gen.propose(|p| Some(current[p]), &mut rng, None, &mut moves);
            state.apply(&moves, &mut undo).expect("grid move");
            let score = state.score().expect("score");
            state.restore(&undo);
            black_box(score)
        })
    });
    group.finish();
}

/// A whole annealing solve on each substrate: `solve_with` scoring every
/// neighbour through the full oracle (the pre-incremental hot path) vs
/// `solve` going through the ledger + memo.
fn bench_solve_loop(c: &mut Criterion) {
    // The real Fig. 7 substrate: the profiled paper estimator (cached in
    // results/model_matrix.json) over the Facebook-trace workload.
    let spec = synth::facebook_workload(Default::default()).expect("synthesis");
    let est = cast_bench::paper_estimator();
    let ctx = EvalContext::new(&est, &spec);
    let init = TieringPlan::uniform(&spec, Tier::PersSsd);
    let cfg = AnnealConfig {
        iterations: 500,
        ..AnnealConfig::default()
    };
    let gen = NeighborGen::new(spec.jobs.iter().map(|j| j.id).collect(), Vec::new());

    let mut group = c.benchmark_group("solver_eval/anneal_500_iters");
    group.sample_size(10);
    group.bench_function("full_scoring", |b| {
        b.iter(|| {
            Annealer::new(cfg)
                .solve_with(
                    init.clone(),
                    &gen,
                    |p| evaluate(p, &ctx).map(|e| e.utility),
                    None,
                )
                .expect("anneal")
        })
    });
    group.bench_function("incremental", |b| {
        b.iter(|| {
            Annealer::new(cfg)
                .solve(&ctx, init.clone())
                .expect("anneal")
        })
    });
    group.finish();

    // Headline ratio at the real Fig. 7 solve budget (the default 12k
    // iterations), measured directly so it survives in CI logs. Longer
    // chains amortise the cold start and keep the ledger + memo warm, so
    // this is the number the acceptance target (≥5×) is about.
    let full_cfg = AnnealConfig::default();
    let t0 = Instant::now();
    Annealer::new(full_cfg)
        .solve_with(
            init.clone(),
            &gen,
            |p| evaluate(p, &ctx).map(|e| e.utility),
            None,
        )
        .expect("anneal");
    let full = t0.elapsed();
    let t1 = Instant::now();
    Annealer::new(full_cfg)
        .solve(&ctx, init.clone())
        .expect("anneal");
    let incremental = t1.elapsed();
    eprintln!(
        "solver_eval: Fig. 7 solve-loop ({} iters) speedup {:.1}x (full {:?} vs incremental {:?})",
        full_cfg.iterations,
        full.as_secs_f64() / incremental.as_secs_f64().max(f64::MIN_POSITIVE),
        full,
        incremental,
    );
}

criterion_group!(benches, bench_rescore, bench_solve_loop);
criterion_main!(benches);
