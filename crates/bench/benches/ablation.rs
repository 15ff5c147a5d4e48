//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Each group times the solver/simulator variant; achieved solution quality
//! (estimated utility, simulated runtime) is printed once per variant on
//! stderr so a bench run doubles as a quality ablation report:
//!
//! * all-or-nothing vs fine-grained placement (§3.2),
//! * simulated annealing vs greedy at several iteration budgets,
//! * geometric vs linear cooling,
//! * reuse awareness on/off (CAST vs CAST++ Enhancement 1),
//! * monotone spline REG vs naive two-point linear interpolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::DataSize;
use cast_cloud::Catalog;
use cast_estimator::MonotoneSpline;
use cast_sim::config::SimConfig;
use cast_sim::placement::{JobPlacement, PlacementMap, SplitPlacement};
use cast_sim::Sim;
use cast_solver::{
    evaluate, greedy_plan, AnnealConfig, Annealer, Cooling, EvalContext, GreedyMode,
};
use cast_workload::apps::AppKind;
use cast_workload::job::JobId;
use cast_workload::synth;

/// §3.2: placing a fraction of a job's blocks on a slow tier vs
/// all-or-nothing.
fn ablation_placement_granularity(c: &mut Criterion) {
    let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(6.0));
    let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
    *agg.get_mut(Tier::EphSsd) = DataSize::from_gb(375.0);
    *agg.get_mut(Tier::PersHdd) = DataSize::from_gb(100.0);
    let cfg =
        SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 1, &agg).expect("provision");
    let mut group = c.benchmark_group("ablation/placement_granularity");
    for (label, frac) in [
        ("all_or_nothing", 1.0),
        ("90pct_fast", 0.9),
        ("50pct_fast", 0.5),
    ] {
        let mut placement = JobPlacement::all_on(Tier::EphSsd);
        placement.stage_in_from = None;
        placement.stage_out_to = None;
        placement.input =
            SplitPlacement::split(Tier::EphSsd, frac, Tier::PersHdd).expect("fraction in [0, 1]");
        let mut placements = PlacementMap::new();
        placements.set(JobId(0), placement);
        let runtime = Sim::builder(&cfg)
            .jobs(&spec, &placements)
            .build()
            .and_then(|s| s.run())
            .expect("sim")
            .makespan;
        eprintln!("[ablation] placement {label}: simulated runtime {runtime}");
        group.bench_function(label, |b| {
            b.iter(|| {
                Sim::builder(&cfg)
                    .jobs(&spec, &placements)
                    .build()
                    .and_then(|s| s.run())
                    .expect("sim")
            })
        });
    }
    group.finish();
}

/// Algorithm 2 vs Algorithm 1 at several iteration budgets, on the real
/// profiled estimator (the synthetic matrix has no cross-job coupling for
/// the annealer to exploit; the profiled one does).
fn ablation_solver_quality(c: &mut Criterion) {
    let spec = synth::facebook_workload(Default::default()).expect("synthesis");
    let est = cast_bench::harness::paper_estimator();
    let ctx = EvalContext::new(&est, &spec);
    let greedy = greedy_plan(&ctx, GreedyMode::OverProvisioned).expect("greedy");
    let greedy_u = evaluate(&greedy, &ctx).expect("eval").utility;
    eprintln!("[ablation] greedy over-prov estimated utility: {greedy_u:.4e}");
    let mut group = c.benchmark_group("ablation/sa_budget");
    group.sample_size(10);
    for iterations in [250usize, 1000, 4000] {
        let cfg = AnnealConfig {
            iterations,
            ..AnnealConfig::default()
        };
        let out = Annealer::new(cfg)
            .solve(&ctx, greedy.clone())
            .expect("anneal");
        eprintln!(
            "[ablation] SA {iterations} iters: utility {:.4e} ({:+.1}% over greedy)",
            out.eval.utility,
            (out.eval.utility / greedy_u - 1.0) * 100.0
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(iterations),
            &iterations,
            |b, _| {
                b.iter(|| {
                    Annealer::new(cfg)
                        .solve(&ctx, greedy.clone())
                        .expect("anneal")
                })
            },
        );
    }
    group.finish();
}

/// Cooling schedule comparison at a fixed budget.
fn ablation_cooling(c: &mut Criterion) {
    let spec = synth::facebook_workload(Default::default()).expect("synthesis");
    let est = cast_bench::harness::paper_estimator();
    let ctx = EvalContext::new(&est, &spec);
    let greedy = greedy_plan(&ctx, GreedyMode::OverProvisioned).expect("greedy");
    let mut group = c.benchmark_group("ablation/cooling");
    group.sample_size(10);
    for (label, cooling) in [
        ("geometric", Cooling::Geometric { alpha: 0.998 }),
        (
            "linear",
            Cooling::Linear {
                step: 0.3 / 2000.0,
                min: 1e-4,
            },
        ),
    ] {
        let cfg = AnnealConfig {
            iterations: 2000,
            cooling,
            ..AnnealConfig::default()
        };
        let out = Annealer::new(cfg)
            .solve(&ctx, greedy.clone())
            .expect("anneal");
        eprintln!(
            "[ablation] cooling {label}: utility {:.4e}, acceptance {:.2}",
            out.eval.utility,
            out.diagnostics.acceptance_rate()
        );
        group.bench_function(label, |b| {
            b.iter(|| {
                Annealer::new(cfg)
                    .solve(&ctx, greedy.clone())
                    .expect("anneal")
            })
        });
    }
    group.finish();
}

/// Eq. 7 reuse awareness on/off over a workload with 30% sharing.
fn ablation_reuse_awareness(c: &mut Criterion) {
    let spec = synth::facebook_workload(cast_workload::synth::FacebookConfig {
        share_fraction: 0.30,
        seed: 42,
    })
    .expect("synthesis");
    let est = cast_bench::harness::paper_estimator();
    let mut group = c.benchmark_group("ablation/reuse_awareness");
    group.sample_size(10);
    for (label, aware) in [("off", false), ("on", true)] {
        let ctx = if aware {
            EvalContext::new(&est, &spec).with_reuse_awareness()
        } else {
            EvalContext::new(&est, &spec)
        };
        let greedy = greedy_plan(&ctx, GreedyMode::OverProvisioned).expect("greedy");
        let cfg = AnnealConfig {
            iterations: 2000,
            ..AnnealConfig::default()
        };
        let out = Annealer::new(cfg)
            .solve(&ctx, greedy.clone())
            .expect("anneal");
        eprintln!(
            "[ablation] reuse awareness {label}: utility {:.4e}, cost {}",
            out.eval.utility,
            out.eval.cost.total()
        );
        group.bench_function(label, |b| {
            b.iter(|| {
                Annealer::new(cfg)
                    .solve(&ctx, greedy.clone())
                    .expect("anneal")
            })
        });
    }
    group.finish();
}

/// Monotone cubic Hermite spline vs naive endpoint-linear interpolation.
fn ablation_regression_model(c: &mut Criterion) {
    // Ground truth: the Table 1 persSSD scaling curve with its cap.
    let svc = Catalog::google_cloud();
    let truth = |gb: f64| {
        svc.service(Tier::PersSsd)
            .throughput(DataSize::from_gb(gb))
            .mb_per_sec()
    };
    let knots: Vec<(f64, f64)> = [50.0, 150.0, 400.0, 700.0, 1000.0]
        .iter()
        .map(|&x| (x, truth(x)))
        .collect();
    let spline = MonotoneSpline::fit(&knots).expect("fit");
    let linear = |x: f64| {
        let (x0, y0) = knots[0];
        let (x1, y1) = *knots.last().expect("nonempty");
        y0 + (y1 - y0) * ((x - x0) / (x1 - x0)).clamp(0.0, 1.0)
    };
    let grid: Vec<f64> = (1..=100).map(|i| 10.0 * i as f64).collect();
    let err = |f: &dyn Fn(f64) -> f64| {
        grid.iter()
            .map(|&x| ((f(x) - truth(x)) / truth(x)).abs())
            .sum::<f64>()
            / grid.len() as f64
    };
    eprintln!(
        "[ablation] REG spline MAPE {:.2}% vs endpoint-linear {:.2}%",
        err(&|x| spline.eval(x)) * 100.0,
        err(&linear) * 100.0
    );
    c.bench_function("ablation/spline_vs_linear_eval", |b| {
        b.iter(|| grid.iter().map(|&x| spline.eval(x)).sum::<f64>())
    });
}

criterion_group!(
    benches,
    ablation_placement_granularity,
    ablation_solver_quality,
    ablation_cooling,
    ablation_reuse_awareness,
    ablation_regression_model
);
criterion_main!(benches);
