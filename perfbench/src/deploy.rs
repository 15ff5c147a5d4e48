//! `deploy-4k`: the paper's offline plan → deploy pipeline at 40× scale.
//!
//! Untimed-layer path: `Cast::plan(PlanStrategy::Cast)` then
//! `Cast::deploy` on the 25-VM cluster. Traced path: the same work as
//! the façade, one public call at a time — `best_init`,
//! `Annealer::solve`, `TieringPlan::capacities` + `provision_round`,
//! `Sim::builder(..).build()` and `run_with_stats` — each timed here.

use std::time::Instant;

use cast_cloud::CostModel;
use cast_core::framework::best_init;
use cast_core::{Cast, PlanStrategy};
use cast_sim::{Sim, SimConfig, SimReport};
use cast_solver::objective::provision_round;
use cast_solver::{AnnealConfig, Annealer, EvalContext};
use cast_workload::spec::WorkloadSpec;
use cast_workload::synth::{facebook_workload, FacebookConfig};
use cast_workload::tenant::splitmix64;
use cast_workload::{DatasetId, JobId};

use crate::out::{fastest, median, Check, Digest, Metrics, Window};
use crate::setup::{Clock, Input, Setup};

/// Copies of the 100-job Facebook workload merged into one tenant.
pub const COPIES: u32 = 40;
pub const JOBS: usize = 100 * COPIES as usize;

/// `COPIES` id-offset copies of the paper's 100-job workload (Table 4
/// bins, 15% shared inputs), copy `c` drawn with a seed derived from
/// `(seed, c)`.
pub fn workload(seed: u64) -> Result<WorkloadSpec, cast_workload::WorkloadError> {
    let mut spec = WorkloadSpec::empty();
    let mut job_base = 0u32;
    let mut ds_base = 0u32;
    for c in 0..COPIES {
        let copy = facebook_workload(FacebookConfig {
            share_fraction: 0.15,
            seed: splitmix64(seed ^ u64::from(c).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        })?;
        spec.profiles = copy.profiles.clone();
        let job_span = copy.jobs.iter().map(|j| j.id.0 + 1).max().unwrap_or(0);
        let ds_span = copy.datasets.iter().map(|d| d.id.0 + 1).max().unwrap_or(0);
        for mut j in copy.jobs {
            j.id = JobId(j.id.0 + job_base);
            j.dataset = DatasetId(j.dataset.0 + ds_base);
            spec.jobs.push(j);
        }
        for mut d in copy.datasets {
            d.id = DatasetId(d.id.0 + ds_base);
            spec.datasets.push(d);
        }
        job_base += job_span;
        ds_base += ds_span;
    }
    spec.validate()?;
    Ok(spec)
}

fn spec_of(setup: &Setup) -> &WorkloadSpec {
    match &setup.input {
        Input::Deploy { spec } => spec,
        Input::Fleet { .. } => unreachable!("deploy-4k is set up with a workload spec"),
    }
}

/// The deterministic outputs of one deployment: makespan and cost bits
/// plus every job's completion time.
fn digest(report: &SimReport, cost_usd: f64) -> u64 {
    let mut d = Digest::default();
    d.f64(report.makespan.secs()).f64(cost_usd);
    for m in &report.jobs {
        d.u64(u64::from(m.job.0)).f64(m.finished.secs());
    }
    d.finish()
}

/// Invariants of a finished deployment.
fn check_report(report: &SimReport, cost_usd: f64, check: &mut Check) {
    check.expect(report.jobs.len() == JOBS, || {
        format!("deploy-4k completed {} of {JOBS} jobs", report.jobs.len())
    });
    check.expect(
        report
            .jobs
            .iter()
            .all(|m| m.finished.secs().is_finite() && m.finished.secs() <= report.makespan.secs()),
        || "a job finished after the makespan".into(),
    );
    check.expect(cost_usd.is_finite() && cost_usd > 0.0, || {
        format!("deploy cost {cost_usd} is not a positive finite number")
    });
}

struct Pass {
    wall_s: f64,
    report: SimReport,
    cost_usd: f64,
}

/// One façade pass: plan with CAST, deploy, on the clock.
fn facade_pass(cast: &Cast, spec: &WorkloadSpec) -> Result<(Pass, f64), cast_core::CastError> {
    let t = Instant::now();
    let planned = cast.plan(spec, PlanStrategy::Cast)?;
    let plan_s = t.elapsed().as_secs_f64();
    let out = cast.deploy(spec, &planned.plan)?;
    let wall_s = t.elapsed().as_secs_f64();
    Ok((
        Pass {
            wall_s,
            cost_usd: out.cost.total().dollars(),
            report: out.report,
        },
        plan_s,
    ))
}

/// End-to-end run: a fresh set-up and a façade pass, repeated within a
/// `seconds` window (at least twice, so the repeat check has a pair to
/// compare). Only the last pass's report is kept, so retained memory does
/// not grow with the number of passes.
pub fn measure(
    clock: &mut Clock,
    seconds: f64,
    metrics: &mut Metrics,
    check: &mut Check,
) -> Result<u64, Box<dyn std::error::Error>> {
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    let mut window = Window::new(seconds, 2);
    while window.more() {
        let setup = clock.setup(check)?;
        let spec = spec_of(&setup);
        let cast = Cast::builder().build_with_estimator(setup.estimator.clone());
        let (pass, _) = facade_pass(&cast, spec)?;
        check_report(&pass.report, pass.cost_usd, check);
        walls.push(pass.wall_s);
        digests.push(digest(&pass.report, pass.cost_usd));
        last = Some(pass);
    }
    check.expect(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("deploy-4k outputs differ across repeats: {digests:x?}")
    });
    println!("# digest {:016x}", digests[0]);
    println!("# pass walls (s) {walls:.3?}");

    let last = last.expect("two passes");
    let jobs = last.report.jobs.len() as f64;
    metrics.set("tenants_per_s", 1.0 / fastest(&walls));
    metrics.set("jobs_per_s", jobs / fastest(&walls));
    metrics.set("jobs_completed", jobs);
    metrics.set("on_time_frac", 1.0);
    metrics.set("served_frac", 1.0);
    metrics.set("cost_usd", last.cost_usd);
    Ok(walls.len() as u64)
}

/// Per-layer times of one traced pass, in seconds.
#[derive(Default, Clone, Copy)]
struct Layers {
    init: f64,
    anneal: f64,
    provision: f64,
    build: f64,
    run: f64,
    total: f64,
}

impl Layers {
    /// Share of the pass's wall time no layer accounts for.
    fn unattributed(&self) -> f64 {
        1.0 - (self.init + self.anneal + self.provision + self.build + self.run) / self.total
    }
}

struct Traced {
    layers: Layers,
    report: SimReport,
    cost_usd: f64,
    iterations: usize,
    acceptance: f64,
    steps: u64,
    scratch_reallocs: u64,
}

/// One traced pass: the façade's work, one public call at a time.
fn traced_pass(setup: &Setup, spec: &WorkloadSpec) -> Result<Traced, Box<dyn std::error::Error>> {
    let est = &setup.estimator;
    let mut l = Layers::default();
    let t_total = Instant::now();

    let t = Instant::now();
    let ctx = EvalContext::new(est, spec);
    let init = best_init(&ctx)?;
    l.init = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let solved = Annealer::new(AnnealConfig::default()).solve(&ctx, init)?;
    l.anneal = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let raw = solved.plan.capacities(spec, true)?;
    let capacities = provision_round(est, &raw);
    let nvm = est.cluster.nvm;
    let cfg = SimConfig::with_aggregate_capacity(est.catalog.clone(), nvm, &capacities)?;
    l.provision = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let placements = solved.plan.to_placements();
    let sim = Sim::builder(&cfg).jobs(spec, &placements).build()?;
    l.build = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (report, stats) = sim.run_with_stats()?;
    l.run = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let cost_usd = CostModel::new(&est.catalog, nvm)
        .breakdown(&capacities, report.makespan)
        .total()
        .dollars();
    l.provision += t.elapsed().as_secs_f64();
    l.total = t_total.elapsed().as_secs_f64();

    Ok(Traced {
        layers: l,
        report,
        cost_usd,
        iterations: solved.diagnostics.iterations,
        acceptance: solved.diagnostics.acceptance_rate(),
        steps: stats.steps,
        scratch_reallocs: stats.scratch_reallocs,
    })
}

/// Traced run: a fresh set-up, then a traced pass and an untraced façade
/// pass, repeated within a `seconds` window (at least once); every traced
/// pass must reproduce the façade's outputs bit for bit.
pub fn trace(
    clock: &mut Clock,
    seconds: f64,
    metrics: &mut Metrics,
    check: &mut Check,
) -> Result<u64, Box<dyn std::error::Error>> {
    let mut traced = Vec::new();
    let mut facade_walls = Vec::new();
    let mut plan_walls = Vec::new();
    let mut deploy_walls = Vec::new();
    let mut reference = None;
    let mut window = Window::new(seconds, 1);
    while window.more() {
        let setup = clock.setup(check)?;
        let spec = spec_of(&setup);
        let cast = Cast::builder().build_with_estimator(setup.estimator.clone());
        let t = traced_pass(&setup, spec)?;
        let (f, plan_s) = facade_pass(&cast, spec)?;
        let want = digest(&f.report, f.cost_usd);
        let got = digest(&t.report, t.cost_usd);
        check.expect(got == want, || {
            format!("traced deploy-4k digest {got:016x} differs from Cast::deploy's {want:016x}")
        });
        check.expect(*reference.get_or_insert(want) == want, || {
            "deploy-4k outputs differ across repeats".into()
        });
        check_report(&t.report, t.cost_usd, check);
        facade_walls.push(f.wall_s);
        plan_walls.push(plan_s);
        deploy_walls.push(f.wall_s - plan_s);
        traced.push(t);
    }
    println!("# digest {:016x}", reference.unwrap_or(0));

    let med =
        |f: fn(&Layers) -> f64| median(&traced.iter().map(|t| f(&t.layers)).collect::<Vec<_>>());
    let last = traced.last().expect("one traced pass");
    let run = med(|l| l.run);
    let total = med(|l| l.total);
    metrics.set("solver.init_s", med(|l| l.init));
    metrics.set("solver.anneal_s", med(|l| l.anneal));
    metrics.set("solver.iterations", last.iterations as f64);
    metrics.set("solver.acceptance_rate", last.acceptance);
    metrics.set("cloud.provision_s", med(|l| l.provision));
    metrics.set("sim.build_s", med(|l| l.build));
    metrics.set("sim.run_s", run);
    metrics.set("sim.steps", last.steps as f64);
    metrics.set("sim.events_per_s", last.steps as f64 / run);
    metrics.set("sim.scratch_reallocs", last.scratch_reallocs as f64);
    metrics.set("sim.makespan_s", last.report.makespan.secs());
    metrics.set("core.plan_s", median(&plan_walls));
    metrics.set("core.deploy_s", median(&deploy_walls));
    metrics.set("workload.stream_s", clock.synth_s());
    metrics.set("traced.total_s", total);
    metrics.set("traced.unattributed_frac", med(Layers::unattributed));
    metrics.set("traced.overhead_frac", total / median(&facade_walls) - 1.0);
    Ok(traced.len() as u64)
}
