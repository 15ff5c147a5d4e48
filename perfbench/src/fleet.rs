//! `fleet-steady` and `fleet-contended`: one sharded region of 2048
//! tenants served to completion by `cast_fleet::Fleet`.
//!
//! The end-to-end run calls `Fleet::run` with `workers = nproc`. The
//! traced run re-drives the same epoch loop on one thread with public
//! calls only — `TenantSpec::stream`, the `TenantSession` stages, exact
//! grouping on `PendingPlan::{signature, inputs}` and `admit_epoch` over
//! a fresh `CapacityLedger` per shard — timing every call from here. Its
//! `FleetReport` must equal `Fleet::run`'s bit for bit, or the per-layer
//! numbers would describe some other program.

use std::collections::HashMap;
use std::time::Instant;

use cast_cloud::tier::PerTier;
use cast_cloud::units::{DataSize, Duration};
use cast_cloud::CapacityLedger;
use cast_estimator::Estimator;
use cast_fleet::{
    admit_epoch, Admission, AdmissionRequest, Fleet, FleetConfig, FleetOutcome, FleetReport,
    ShardReport, TenantRegistry, TenantSummary,
};
use cast_runtime::{
    PendingPlan, PlanPhase, PlanProvenance, PlannedEpoch, ReplanPolicy, RuntimeConfig, SkipPolicy,
    TenantSession,
};
use cast_solver::AnnealConfig;

use crate::out::{fastest, median, p99, Check, Digest, Metrics, Window};
use crate::setup::{Clock, Input, Setup};

/// Fixed solver seed (the workload seed only shapes the inputs).
const SOLVER_SEED: u64 = 0xCA57_0712;

/// The fleet configuration of both fleet workloads: 30-minute epochs,
/// hysteresis 0.02, the drift-gated skip (0.4 / 0.10) and a 600-iteration
/// single-restart anneal. Dedup and candidate scoring are the product
/// defaults.
pub fn config(workers: usize, shard_capacity_tb: f64) -> FleetConfig {
    FleetConfig {
        workers,
        shard_capacity: PerTier::from_fn(|_| DataSize::from_tb(shard_capacity_tb)),
        runtime: RuntimeConfig {
            epoch: Duration::from_mins(30.0),
            policy: ReplanPolicy::Hysteresis { min_gain: 0.02 },
            skip: SkipPolicy {
                enabled: true,
                max_drift: 0.4,
                max_score_delta: 0.10,
            },
            ..RuntimeConfig::default()
        },
        anneal: AnnealConfig {
            iterations: 600,
            restarts: 1,
            seed: SOLVER_SEED,
            ..AnnealConfig::default()
        },
        ..FleetConfig::default()
    }
}

fn input_of(setup: &Setup) -> (&TenantRegistry, f64) {
    match &setup.input {
        Input::Fleet {
            registry,
            shard_capacity_tb,
        } => (registry, *shard_capacity_tb),
        Input::Deploy { .. } => unreachable!("fleet workloads are set up with a registry"),
    }
}

/// Digest of a report's deterministic content: its JSON plus the exact
/// bits of every float (the JSON may round them).
pub fn digest(report: &FleetReport) -> Result<u64, serde_json::Error> {
    let mut d = Digest::default();
    d.bytes(serde_json::to_string(report)?.as_bytes());
    d.f64(report.total_cost);
    for t in &report.tenants {
        d.u64(u64::from(t.tenant))
            .u64(t.jobs_completed as u64)
            .u64(t.deadline_misses as u64)
            .u64(t.rejected as u64)
            .f64(t.total_cost)
            .f64(t.mean_grant);
    }
    for s in &report.shards {
        d.u64(s.admitted as u64)
            .u64(s.deferred as u64)
            .u64(s.rejected_batches as u64)
            .f64(s.peak_utilization);
    }
    Ok(d.finish())
}

/// Batches that requested admission, over all shards.
fn requests(report: &FleetReport) -> usize {
    report
        .shards
        .iter()
        .map(|s| s.admitted + s.deferred + s.rejected_batches)
        .sum()
}

/// Deadline-bearing workflows in the tenants' arrival streams. This is
/// the denominator of `on_time_frac`; it depends on the input alone.
fn deadline_workflows(registry: &TenantRegistry) -> Result<usize, cast_workload::WorkloadError> {
    let mut n = 0;
    for spec in registry.specs() {
        n += spec
            .stream()?
            .arrivals
            .iter()
            .filter(|a| a.workflow.is_some())
            .count();
    }
    Ok(n)
}

/// Invariants every fleet report must satisfy.
fn check_report(report: &FleetReport, registry: &TenantRegistry, check: &mut Check) {
    let t = &report.tenants;
    check.expect(t.len() == registry.len(), || {
        format!(
            "{} tenant summaries for {} tenants",
            t.len(),
            registry.len()
        )
    });
    check.expect(
        t.iter().map(|x| x.jobs_completed).sum::<usize>() == report.jobs_completed
            && t.iter().map(|x| x.deadline_misses).sum::<usize>() == report.deadline_misses
            && t.iter().map(|x| x.rejected).sum::<usize>() == report.rejected
            && t.iter().map(|x| x.deferrals).sum::<usize>() == report.deferrals,
        || "per-tenant sums differ from the report totals".into(),
    );
    check.expect(
        t.iter()
            .all(|x| x.total_cost.is_finite() && x.total_cost >= 0.0)
            && report.total_cost.is_finite(),
        || "a tenant cost is negative or not finite".into(),
    );
    for s in &report.shards {
        let members = t.iter().filter(|x| x.shard == s.shard);
        let (admitted, deferred) = members.fold((0, 0), |(a, d), x| {
            (a + x.admitted_full + x.admitted_partial, d + x.deferrals)
        });
        check.expect(admitted == s.admitted && deferred == s.deferred, || {
            format!("shard {} verdicts disagree with its tenants", s.shard)
        });
        check.expect(s.tenants == registry.shard_tenants(s.shard).len(), || {
            format!("shard {} tenant count is wrong", s.shard)
        });
    }
    check.expect(report.jobs_completed > 0, || {
        "the fleet completed no jobs".into()
    });
}

/// One `Fleet::run`, timed from here.
fn untraced(
    est: &Estimator,
    registry: &TenantRegistry,
    workers: usize,
    capacity_tb: f64,
) -> Result<(FleetOutcome, f64), cast_fleet::FleetError> {
    let t = Instant::now();
    let out = Fleet::new(est, config(workers, capacity_tb)).run(registry)?;
    Ok((out, t.elapsed().as_secs_f64()))
}

/// End-to-end run: a fresh set-up and one `Fleet::run` on `workers`
/// threads, repeated within a `seconds` window (at least twice, so the
/// repeat check has a pair).
pub fn measure(
    clock: &mut Clock,
    workers: usize,
    seconds: f64,
    metrics: &mut Metrics,
    check: &mut Check,
) -> Result<u64, Box<dyn std::error::Error>> {
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    let mut workflows = 0;
    let mut window = Window::new(seconds, 2);
    while window.more() {
        let setup = clock.setup(check)?;
        let (registry, capacity_tb) = input_of(&setup);
        if walls.is_empty() {
            workflows = deadline_workflows(registry)?;
        }
        let (out, wall) = untraced(&setup.estimator, registry, workers, capacity_tb)?;
        check_report(&out.report, registry, check);
        // Every admitted batch executes. The full verdict invariant
        // (verdicts = batches that requested admission) needs the
        // per-epoch requests, which only the traced run sees.
        let admitted: usize = out.report.shards.iter().map(|s| s.admitted).sum();
        check.expect(admitted == out.stats.executed_epochs, || {
            format!(
                "{admitted} batches admitted but {} executed",
                out.stats.executed_epochs
            )
        });
        walls.push(wall);
        digests.push(digest(&out.report)?);
        last = Some(out.report);
    }
    check.expect(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("fleet outputs differ across repeats: {digests:x?}")
    });
    let report = last.expect("two passes");
    check.expect(report.deadline_misses <= workflows, || {
        format!(
            "{} deadline misses among {workflows} deadline-bearing workflows",
            report.deadline_misses
        )
    });
    println!("# digest {:016x}", digests[0]);
    println!("# pass walls (s) {walls:.3?}");

    let n = report.tenants.len() as f64;
    let jobs = report.jobs_completed as f64;
    let asked = requests(&report);
    let refused: usize = report.shards.iter().map(|s| s.rejected_batches).sum();
    metrics.set("tenants_per_s", n / fastest(&walls));
    metrics.set("jobs_per_s", jobs / fastest(&walls));
    metrics.set("jobs_completed", jobs);
    metrics.set(
        "on_time_frac",
        1.0 - report.deadline_misses as f64 / workflows as f64,
    );
    metrics.set("served_frac", 1.0 - refused as f64 / asked.max(1) as f64);
    metrics.set("cost_usd", report.total_cost);
    Ok(asked as u64 * walls.len() as u64)
}

/// Wall seconds per layer of one traced run, and its work counts.
#[derive(Default)]
struct Traced {
    stream: f64,
    begin: f64,
    group: f64,
    solve: f64,
    finish: f64,
    admit: f64,
    settle: f64,
    execute: f64,
    total: f64,
    solve_us: Vec<f64>,
    execute_us: Vec<f64>,
    solves: u64,
    fanouts: u64,
    skipped: u64,
    executed: u64,
    adopted: u64,
    replan_moves: u64,
    sim_makespan_s: f64,
    /// Batches that requested admission, per shard.
    requested: Vec<usize>,
    report: Option<FleetReport>,
}

#[derive(Clone, Copy, Default)]
struct Accum {
    admitted_full: usize,
    admitted_partial: usize,
    deferrals: usize,
    grant_sum: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Serve the registry on one thread through public calls, timing each
/// layer. Mirrors `Fleet::run`'s plan → admit → settle → execute loop.
fn traced(
    est: &Estimator,
    registry: &TenantRegistry,
    capacity_tb: f64,
) -> Result<Traced, Box<dyn std::error::Error>> {
    let cfg = config(1, capacity_tb);
    let mut tr = Traced::default();
    let t_total = Instant::now();
    let n = registry.len();
    tr.requested = vec![0; registry.shards() as usize];

    let t = Instant::now();
    let mut sessions = Vec::with_capacity(n);
    for spec in registry.specs() {
        sessions.push(TenantSession::new(
            est,
            cfg.anneal,
            cfg.runtime,
            spec.stream()?,
        ));
    }
    let epochs = sessions.iter().map(|s| s.epoch_count()).max().unwrap_or(1);
    let mut consec_defer = vec![0usize; n];
    let mut tacc = vec![Accum::default(); n];
    let mut sacc: Vec<ShardReport> = (0..registry.shards())
        .map(|shard| ShardReport {
            shard,
            tenants: registry.shard_tenants(shard).len(),
            admitted: 0,
            deferred: 0,
            rejected_batches: 0,
            peak_utilization: 0.0,
        })
        .collect();
    tr.stream = secs(t);

    for k in 0..epochs {
        // runtime: stage 1 for every tenant.
        let t = Instant::now();
        let mut plans: Vec<Option<PlannedEpoch>> = Vec::with_capacity(n);
        let mut pendings: Vec<Option<Box<PendingPlan>>> = Vec::with_capacity(n);
        for s in sessions.iter_mut() {
            let (plan, pending) = match s.begin_epoch(k)? {
                PlanPhase::Idle => (None, None),
                PlanPhase::Planned(p) => (Some(p), None),
                PlanPhase::Solve(pp) => (None, Some(pp)),
            };
            plans.push(plan);
            pendings.push(pending);
        }
        tr.begin += secs(t);

        // fleet: exact grouping in tenant order; the first member of
        // each content-equal group is its representative.
        let t = Instant::now();
        let mut by_sig: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, p) in pendings.iter().enumerate() {
            if let Some(p) = p {
                by_sig.entry(p.signature()).or_default().push(i);
            }
        }
        let mut sigs: Vec<u64> = by_sig.keys().copied().collect();
        sigs.sort_unstable();
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for sig in sigs {
            let mut subs: Vec<(usize, Vec<usize>)> = Vec::new();
            for &i in &by_sig[&sig] {
                let inputs = pendings[i].as_ref().expect("grouped").inputs();
                match subs
                    .iter_mut()
                    .find(|(rep, _)| pendings[*rep].as_ref().expect("rep").inputs() == inputs)
                {
                    Some((_, members)) => members.push(i),
                    None => subs.push((i, Vec::new())),
                }
            }
            groups.extend(subs);
        }
        tr.solves += groups.len() as u64;
        tr.fanouts += groups.iter().map(|(_, m)| m.len() as u64).sum::<u64>();
        tr.group += secs(t);

        // runtime: stage 2, one solve per group.
        let t = Instant::now();
        let mut products = Vec::with_capacity(groups.len());
        for (rep, _) in &groups {
            let t1 = Instant::now();
            products.push(sessions[*rep].solve_pending(pendings[*rep].as_ref().expect("rep"))?);
            tr.solve_us.push(t1.elapsed().as_secs_f64() * 1e6);
        }
        tr.solve += secs(t);

        // runtime: stage 3, every member adopts its group's product.
        let t = Instant::now();
        for ((rep, members), product) in groups.iter().zip(&products) {
            for &i in members {
                let pending = pendings[i].take().expect("member");
                plans[i] =
                    Some(sessions[i].finish_epoch(*pending, product, PlanProvenance::Deduped)?);
            }
            let pending = pendings[*rep].take().expect("rep");
            plans[*rep] =
                Some(sessions[*rep].finish_epoch(*pending, product, PlanProvenance::Fresh)?);
        }
        tr.skipped += plans
            .iter()
            .flatten()
            .filter(|p| p.provenance() == PlanProvenance::Skipped)
            .count() as u64;
        tr.finish += secs(t);

        // fleet: priority admission per shard over a fresh ledger.
        let t = Instant::now();
        let mut verdicts: Vec<Option<Admission>> = vec![None; n];
        for shard in 0..registry.shards() {
            let idxs: Vec<usize> = registry
                .shard_tenants(shard)
                .iter()
                .copied()
                .filter(|&i| plans[i].is_some())
                .collect();
            if idxs.is_empty() {
                continue;
            }
            let requests: Vec<AdmissionRequest> = idxs
                .iter()
                .map(|&i| {
                    let spec = &registry.specs()[i];
                    AdmissionRequest {
                        tenant: spec.id.0,
                        priority: spec.priority(),
                        weight: spec.weight(),
                        demand: *plans[i].as_ref().expect("filtered").demand(),
                        deferrals: consec_defer[i],
                    }
                })
                .collect();
            let mut ledger = CapacityLedger::new(cfg.shard_capacity);
            let vs = admit_epoch(&mut ledger, &cfg.admission, &requests);
            let s = &mut sacc[shard as usize];
            s.peak_utilization = s.peak_utilization.max(ledger.utilization());
            tr.requested[shard as usize] += idxs.len();
            for (i, v) in idxs.into_iter().zip(vs) {
                verdicts[i] = Some(v);
            }
        }
        tr.admit += secs(t);

        // fleet: settle verdicts in (shard, tenant) order.
        let t = Instant::now();
        let mut queue: Vec<(usize, PlannedEpoch, f64)> = Vec::new();
        for shard in 0..registry.shards() {
            for &i in registry.shard_tenants(shard) {
                let Some(v) = verdicts[i] else { continue };
                let p = plans[i].take().expect("verdict implies plan");
                let s = &mut sacc[shard as usize];
                match v {
                    Admission::Admitted { frac } => {
                        consec_defer[i] = 0;
                        if frac >= 1.0 {
                            tacc[i].admitted_full += 1;
                        } else {
                            tacc[i].admitted_partial += 1;
                        }
                        tacc[i].grant_sum += frac;
                        s.admitted += 1;
                        queue.push((i, p, frac));
                    }
                    Admission::Deferred => {
                        consec_defer[i] += 1;
                        tacc[i].deferrals += 1;
                        s.deferred += 1;
                        sessions[i].defer_epoch(p);
                    }
                    Admission::Rejected => {
                        consec_defer[i] = 0;
                        s.rejected_batches += 1;
                        sessions[i].reject_epoch(p);
                    }
                }
            }
        }
        tr.settle += secs(t);

        // runtime: execute the admitted batches under their grants.
        let t = Instant::now();
        for (i, p, frac) in queue {
            let t1 = Instant::now();
            sessions[i].execute_epoch(p, frac)?;
            tr.execute_us.push(t1.elapsed().as_secs_f64() * 1e6);
            tr.executed += 1;
        }
        tr.execute += secs(t);
    }

    // fleet: final settlement, per-tenant rollups in id order.
    let t = Instant::now();
    let mut tenants = Vec::with_capacity(n);
    for (i, (session, spec)) in sessions.into_iter().zip(registry.specs()).enumerate() {
        let online = session.finish();
        tr.adopted += online.adoptions() as u64;
        tr.replan_moves += online.replan_moves as u64;
        tr.sim_makespan_s += online.epochs.iter().map(|e| e.makespan_secs).sum::<f64>();
        let a = tacc[i];
        let admitted = a.admitted_full + a.admitted_partial;
        tenants.push(TenantSummary {
            tenant: spec.id.0,
            shard: registry.shard_of_index(i),
            class: spec.class.label().to_string(),
            epochs_served: online.epochs.len(),
            admitted_full: a.admitted_full,
            admitted_partial: a.admitted_partial,
            deferrals: a.deferrals,
            mean_grant: if admitted > 0 {
                a.grant_sum / admitted as f64
            } else {
                0.0
            },
            jobs_completed: online.jobs_completed,
            deadline_misses: online.deadline_misses,
            rejected: online.rejected,
            total_cost: online.total_cost,
        });
    }
    tr.report = Some(FleetReport {
        epochs,
        shard_count: registry.shards(),
        jobs_completed: tenants.iter().map(|t| t.jobs_completed).sum(),
        deadline_misses: tenants.iter().map(|t| t.deadline_misses).sum(),
        rejected: tenants.iter().map(|t| t.rejected).sum(),
        deferrals: tenants.iter().map(|t| t.deferrals).sum(),
        total_cost: tenants.iter().map(|t| t.total_cost).sum(),
        tenants,
        shards: sacc,
    });
    tr.settle += secs(t);
    tr.total = secs(t_total);
    Ok(tr)
}

impl Traced {
    fn attributed(&self) -> f64 {
        self.stream
            + self.begin
            + self.group
            + self.solve
            + self.finish
            + self.admit
            + self.settle
            + self.execute
    }
}

/// Traced run: one `Fleet::run` on `workers` threads as the reference,
/// then, within a `seconds` window (at least once), a fresh set-up, a
/// traced one-thread run and an untraced one-worker `Fleet::run`. Every
/// report must match the reference bit for bit.
pub fn trace(
    clock: &mut Clock,
    workers: usize,
    seconds: f64,
    metrics: &mut Metrics,
    check: &mut Check,
) -> Result<u64, Box<dyn std::error::Error>> {
    let mut window = Window::new(seconds, 1);
    let first = clock.setup(check)?;
    let (registry, capacity_tb) = input_of(&first);
    let reference = untraced(&first.estimator, registry, workers, capacity_tb)?.0;
    check_report(&reference.report, registry, check);
    let want = digest(&reference.report)?;
    println!("# digest {want:016x}");
    let stats = &reference.stats;

    let mut runs: Vec<Traced> = Vec::new();
    let mut one_worker = Vec::new();
    while window.more() {
        let setup = clock.setup(check)?;
        let (registry, capacity_tb) = input_of(&setup);
        let est = &setup.estimator;
        let tr = traced(est, registry, capacity_tb)?;
        let got = digest(tr.report.as_ref().expect("report"))?;
        check.expect(got == want, || {
            format!("traced report {got:016x} differs from Fleet::run's {want:016x} ({workers} workers)")
        });
        check.expect(
            (tr.solves, tr.fanouts, tr.skipped, tr.executed as usize)
                == (stats.solves, stats.dedup_fanouts, stats.replans_skipped, stats.executed_epochs),
            || {
                format!(
                    "traced counters (solves, fan-outs, skips, executed) {:?} differ from FleetStats {:?}",
                    (tr.solves, tr.fanouts, tr.skipped, tr.executed),
                    (stats.solves, stats.dedup_fanouts, stats.replans_skipped, stats.executed_epochs)
                )
            },
        );
        let shards = &tr.report.as_ref().expect("report").shards;
        for (s, &asked) in shards.iter().zip(&tr.requested) {
            check.expect(
                s.admitted + s.deferred + s.rejected_batches == asked,
                || {
                    format!(
                        "shard {} settled a different number of batches than requested admission",
                        s.shard
                    )
                },
            );
        }
        let (out, wall) = untraced(est, registry, 1, capacity_tb)?;
        let got = digest(&out.report)?;
        check.expect(got == want, || {
            format!(
                "one-worker report {got:016x} differs from the {workers}-worker one {want:016x}"
            )
        });
        one_worker.push(wall);
        runs.push(tr);
    }

    let med = |f: fn(&Traced) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let last = runs.last().expect("one traced run");
    let report = &reference.report;
    let deferred: usize = report.shards.iter().map(|s| s.deferred).sum();
    let rejected: usize = report.shards.iter().map(|s| s.rejected_batches).sum();
    let solves = last.solves.max(1) as f64;
    metrics.set("runtime.begin_s", med(|t| t.begin));
    metrics.set("runtime.solve_s", med(|t| t.solve));
    metrics.set("runtime.finish_s", med(|t| t.finish));
    metrics.set("runtime.solve_p99_us", med(|t| p99(&t.solve_us)));
    metrics.set("runtime.execute_s", med(|t| t.execute));
    metrics.set("runtime.execute_p99_us", med(|t| p99(&t.execute_us)));
    metrics.set("runtime.adoption_ratio", last.adopted as f64 / solves);
    metrics.set("runtime.replan_moves", last.replan_moves as f64);
    metrics.set("fleet.group_s", med(|t| t.group));
    metrics.set("fleet.admit_s", med(|t| t.admit));
    metrics.set("fleet.settle_s", med(|t| t.settle));
    metrics.set("fleet.solves", last.solves as f64);
    metrics.set("fleet.dedup_fanouts", last.fanouts as f64);
    metrics.set("fleet.replans_skipped", last.skipped as f64);
    metrics.set(
        "fleet.dedup_ratio",
        last.fanouts as f64 / (last.solves + last.fanouts).max(1) as f64,
    );
    metrics.set("fleet.executed", last.executed as f64);
    metrics.set("fleet.deferred", deferred as f64);
    metrics.set("fleet.rejected_batches", rejected as f64);
    metrics.set("fleet.deadline_misses", report.deadline_misses as f64);
    metrics.set("sim.makespan_s", last.sim_makespan_s);
    metrics.set("workload.stream_s", clock.synth_s() + med(|t| t.stream));
    metrics.set("traced.total_s", med(|t| t.total));
    metrics.set(
        "traced.unattributed_frac",
        med(|t| 1.0 - t.attributed() / t.total),
    );
    metrics.set(
        "traced.overhead_frac",
        med(|t| t.total) / median(&one_worker) - 1.0,
    );
    Ok(runs.len() as u64)
}
