//! The fleet scheduler: dispatching per-tenant replan epochs across a
//! worker pool with shared-capacity admission between plan and execute.
//!
//! Each region epoch runs four phases:
//!
//! 1. **Plan (parallel with a sequential grouping step)** — every
//!    tenant's [`TenantSession::begin_epoch`] fans out over
//!    [`cast_sim::par::run_indexed_mut`]'s work-stealing pool. Batches
//!    that still need the annealer come back as `PendingPlan`s; the
//!    fleet groups them by solve signature, confirms each member's
//!    canonical [`cast_runtime::SolveInputs`] equal its group
//!    representative's, solves **one representative per group** in
//!    parallel ([`TenantSession::solve_pending`] takes `&self`), and
//!    fans the winning assignment out via
//!    [`TenantSession::finish_epoch`] — bit-identical to a fresh solve
//!    because the solver seed is content-derived.
//! 2. **Admit (parallel across shards)** — each shard's planned demands
//!    meet its own [`CapacityLedger`] under priority admission
//!    ([`crate::admission::admit_epoch`]): guaranteed tenants get full
//!    grants or defer; best-effort tenants split the leftovers by
//!    weighted max-min fair share. Shards are independent pure
//!    functions of `(capacity, config, requests)`, so the fan-out
//!    changes wall time only; verdicts merge in shard order.
//! 3. **Execute (parallel)** — admitted batches run
//!    [`TenantSession::execute_epoch`] under their granted fraction;
//!    deferred batches re-enter the next boundary; rejected batches are
//!    turned away.
//! 4. **Settle (sequential)** — verdicts land in the fleet collector as
//!    `tenant_epoch` trace events (tagged with the plan's provenance:
//!    fresh / deduped / skipped) and in the per-tenant/per-shard
//!    accumulators, always in (shard, tenant-id) order.
//!
//! The parallel stages run under the `run_indexed` determinism contract
//! (outputs depend only on the index, never on worker count or claim
//! order), and every merge is a single-threaded walk in fixed order —
//! so the merged [`FleetReport`] serialises byte-identically across 1,
//! 2 or 8 workers, and across [`DedupMode::Exact`] vs
//! [`DedupMode::Off`] ([`DedupMode::Class`] is a deliberate
//! approximation for template-derived fleets; clones within it stay
//! exact). Wall-clock measurements and plan-cache counters are
//! quarantined in [`FleetStats`].

use std::time::Instant;

use cast_cloud::tier::PerTier;
use cast_cloud::units::DataSize;
use cast_cloud::CapacityLedger;
use cast_estimator::Estimator;
use cast_obs::{Collector, EventBody};
use cast_runtime::{
    PendingPlan, PlanPhase, PlanProvenance, PlannedEpoch, RuntimeConfig, SolveProduct,
    TenantSession,
};
use cast_sim::par::{run_indexed, run_indexed_mut};
use cast_solver::AnnealConfig;

use crate::admission::{admit_epoch, Admission, AdmissionConfig, AdmissionRequest};
use crate::error::FleetError;
use crate::report::{FleetReport, FleetStats, ShardReport, TenantSummary};
use crate::shard::TenantRegistry;

/// Knobs of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads for the parallel plan/execute phases. Any value
    /// produces the same [`FleetReport`]; this only trades wall time.
    pub workers: usize,
    /// Capacity each shard provisions per tier — the pool tenants draw
    /// epoch grants from.
    pub shard_capacity: PerTier<DataSize>,
    /// Priority-admission knobs shared by every shard.
    pub admission: AdmissionConfig,
    /// Per-tenant runtime configuration (epoch cadence, replan policy,
    /// protocol, scoring).
    pub runtime: RuntimeConfig,
    /// Cold-start anneal schedule per tenant (replans use
    /// `runtime.warm`).
    pub anneal: AnnealConfig,
    /// Cross-tenant solve dedup mode (see [`DedupMode`]).
    pub dedup: DedupMode,
}

/// How the fleet groups pending solves for cross-tenant dedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupMode {
    /// Every pending solve runs its own annealer.
    Off,
    /// Group by the exact solve signature and verify each member's
    /// canonical [`cast_runtime::SolveInputs`] equal the group
    /// representative's. The solver seed is content-derived, so the
    /// merged report is byte-identical to [`DedupMode::Off`] — exact
    /// dedup only trades throughput for simpler accounting.
    #[default]
    Exact,
    /// Group by the quantized class signature and verify each member's
    /// [`cast_runtime::ClassInputs`] — the per-job equivalence classes
    /// (coarse drift bucket × init placement) and warm flag — equal the
    /// representative's. Members whose exact
    /// byte counts differ adopt the representative's positional
    /// assignment anyway; each member's own hysteresis judgement then
    /// re-scores that candidate on its *real* batch, vetoing transfers
    /// that don't genuinely pay. Tenants whose exact inputs also match
    /// (clones) remain byte-identical to fresh solves; for the rest
    /// this is a deliberate approximation — the throughput mode for
    /// large fleets of template-derived tenants.
    Class,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: cast_sim::par::default_workers(),
            shard_capacity: PerTier::from_fn(|_| DataSize::from_tb(2.0)),
            admission: AdmissionConfig::default(),
            runtime: RuntimeConfig::default(),
            anneal: AnnealConfig::default(),
            dedup: DedupMode::Exact,
        }
    }
}

/// What a fleet run returns: the deterministic merged report and the
/// wall-clock side channel.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Deterministic merged result (byte-identical across workers).
    pub report: FleetReport,
    /// Wall-clock measurements (never deterministic, never merged into
    /// the report).
    pub stats: FleetStats,
}

/// The multi-tenant tiering service for one region.
pub struct Fleet<'a> {
    estimator: &'a Estimator,
    cfg: FleetConfig,
    obs: Collector,
}

/// `tenant_epoch` settlement events land in the attached collector, in
/// deterministic (shard, tenant) order per epoch — the fleet's span
/// dimension on top of each tenant's own (unattached) instrumentation.
impl cast_obs::Observe for Fleet<'_> {
    fn collector_slot(&mut self) -> &mut Collector {
        &mut self.obs
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TenantAccum {
    admitted_full: usize,
    admitted_partial: usize,
    deferrals: usize,
    grant_sum: f64,
}

impl<'a> Fleet<'a> {
    /// A fleet over `estimator`'s cloud with the given knobs.
    pub fn new(estimator: &'a Estimator, cfg: FleetConfig) -> Self {
        Fleet {
            estimator,
            cfg,
            obs: Collector::noop(),
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Serve every registered tenant's stream to completion.
    pub fn run(&self, registry: &TenantRegistry) -> Result<FleetOutcome, FleetError> {
        let t_run = Instant::now();
        let cfg = &self.cfg;
        if cfg.workers == 0 {
            return Err(FleetError::Config("workers must be > 0"));
        }
        let n = registry.len();
        let mut sessions: Vec<TenantSession<'a>> = Vec::with_capacity(n);
        for spec in registry.specs() {
            sessions.push(TenantSession::new(
                self.estimator,
                cfg.anneal,
                cfg.runtime,
                spec.stream()?,
            ));
        }
        let epochs = sessions.iter().map(|s| s.epoch_count()).max().unwrap_or(1);

        let mut consec_defer = vec![0usize; n];
        let mut tacc = vec![TenantAccum::default(); n];
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
        let mut stats = FleetStats::default();

        for k in 0..epochs {
            // Phase 1a — assemble every tenant's boundary in parallel.
            // Epochs the skip gates or replan policy sealed come back
            // `Planned`; the rest surface their solve inputs.
            let t_plan = Instant::now();
            let outcomes = run_indexed_mut(cfg.workers, &mut sessions, |_, s| {
                let t = Instant::now();
                let r = s.begin_epoch(k);
                (r, t.elapsed().as_secs_f64())
            });
            let mut plans: Vec<Option<PlannedEpoch>> = Vec::with_capacity(n);
            let mut walls: Vec<f64> = Vec::with_capacity(n);
            let mut pendings: Vec<Option<Box<PendingPlan>>> = Vec::with_capacity(n);
            for (r, wall) in outcomes {
                let (plan, pending) = match r? {
                    PlanPhase::Idle => (None, None),
                    PlanPhase::Planned(p) => (Some(p), None),
                    PlanPhase::Solve(pp) => (None, Some(pp)),
                };
                plans.push(plan);
                pendings.push(pending);
                walls.push(wall);
            }

            // Phase 1b — group pending solves (sequential, cheap). The
            // signature — exact or class-quantized per the dedup mode —
            // is a grouping hint only: each member's canonical content
            // must equal the representative's, or it falls out into its
            // own group — a digest collision can cost a solve, never
            // correctness. Grouping walks tenants in id order, so the
            // representative choice is deterministic regardless of
            // worker count.
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            if cfg.dedup == DedupMode::Off {
                for (i, p) in pendings.iter().enumerate() {
                    if p.is_some() {
                        groups.push((i, Vec::new()));
                    }
                }
            } else {
                let sig_of = |p: &PendingPlan| match cfg.dedup {
                    DedupMode::Exact => p.signature(),
                    DedupMode::Class => p.class_set_signature(),
                    DedupMode::Off => unreachable!("handled above"),
                };
                let same = |a: &PendingPlan, b: &PendingPlan| match cfg.dedup {
                    DedupMode::Exact => a.inputs() == b.inputs(),
                    DedupMode::Class => a.class_set_matches(b),
                    DedupMode::Off => unreachable!("handled above"),
                };
                let mut by_sig: std::collections::HashMap<u64, Vec<usize>> =
                    std::collections::HashMap::new();
                for (i, p) in pendings.iter().enumerate() {
                    if let Some(p) = p {
                        by_sig.entry(sig_of(p)).or_default().push(i);
                    }
                }
                let mut sigs: Vec<u64> = by_sig.keys().copied().collect();
                sigs.sort_unstable();
                for sig in sigs {
                    let members = &by_sig[&sig];
                    // Members arrive in tenant order; the first becomes
                    // the representative, and any member whose content
                    // differs (collision) seeds a new sub-group.
                    let mut subs: Vec<(usize, Vec<usize>)> = Vec::new();
                    for &i in members {
                        let p = pendings[i].as_ref().expect("grouped Some");
                        match subs
                            .iter_mut()
                            .find(|(rep, _)| same(pendings[*rep].as_ref().expect("rep Some"), p))
                        {
                            Some((_, v)) => v.push(i),
                            None => subs.push((i, Vec::new())),
                        }
                    }
                    groups.extend(subs);
                }
            }
            let fanouts = groups.iter().map(|(_, v)| v.len() as u64).sum::<u64>();
            stats.cache_groups += groups.len() as u64;
            stats.solves += groups.len() as u64;
            stats.dedup_fanouts += fanouts;
            self.obs
                .counter("fleet.plan.solves")
                .add(groups.len() as u64);
            self.obs.counter("fleet.plan.deduped").add(fanouts);

            // Phase 1c — solve one representative per group in
            // parallel. `solve_pending` holds the sessions immutably.
            let sessions_ref = &sessions;
            let pendings_ref = &pendings;
            let groups_ref = &groups;
            let solve_results: Vec<(Result<SolveProduct, _>, f64)> =
                run_indexed(cfg.workers, groups.len(), |g| {
                    let rep = groups_ref[g].0;
                    let t = Instant::now();
                    let r = sessions_ref[rep]
                        .solve_pending(pendings_ref[rep].as_ref().expect("rep Some"));
                    (r, t.elapsed().as_secs_f64())
                });

            // Phase 1d — seal every pending epoch in parallel: each
            // tenant adopts its group's product (the representative as
            // Fresh, the rest as Deduped) and runs its own hysteresis
            // judgement, migration diff and demand aggregation.
            let mut finish_work: Vec<Option<(Box<PendingPlan>, SolveProduct, PlanProvenance)>> =
                (0..n).map(|_| None).collect();
            for (g, (result, solve_wall)) in solve_results.into_iter().enumerate() {
                let (rep, members) = &groups[g];
                let product = result?;
                walls[*rep] += solve_wall;
                for &i in members {
                    // Class members adopt through the class transfer
                    // (permutation when multisets match, per-class
                    // lookup otherwise); exact members share the
                    // positional layout, so the product moves as-is.
                    let member_product = if cfg.dedup == DedupMode::Class {
                        cast_runtime::transfer_class_product(
                            pendings[*rep].as_ref().expect("rep Some"),
                            &product,
                            pendings[i].as_ref().expect("member Some"),
                        )
                    } else {
                        product.clone()
                    };
                    finish_work[i] = Some((
                        pendings[i].take().expect("member Some"),
                        member_product,
                        PlanProvenance::Deduped,
                    ));
                }
                finish_work[*rep] = Some((
                    pendings[*rep].take().expect("rep Some"),
                    product,
                    PlanProvenance::Fresh,
                ));
            }
            let mut work: Vec<_> = sessions.iter_mut().zip(finish_work).collect();
            let finished = run_indexed_mut(cfg.workers, &mut work, |_, (s, w)| match w.take() {
                Some((pending, product, prov)) => {
                    let t = Instant::now();
                    let r = s.finish_epoch(*pending, &product, prov).map(Some);
                    (r, t.elapsed().as_secs_f64())
                }
                None => (Ok(None), 0.0),
            });
            for (i, (r, wall)) in finished.into_iter().enumerate() {
                if let Some(p) = r? {
                    walls[i] += wall;
                    plans[i] = Some(p);
                }
            }
            for (i, p) in plans.iter().enumerate() {
                if let Some(p) = p {
                    stats.replan_wall_secs.push(walls[i]);
                    if p.provenance() == PlanProvenance::Skipped {
                        stats.replans_skipped += 1;
                        self.obs.counter("fleet.plan.skipped").inc();
                    }
                }
            }
            stats.plan_wall_secs += t_plan.elapsed().as_secs_f64();

            // Phase 2 — shard-local priority admission over per-shard
            // ledgers, fanned out across shards (each shard is a pure
            // function of its own requests; merge order is fixed).
            let t_admit = Instant::now();
            let plans_ref = &plans;
            let defer_ref = &consec_defer;
            let shard_verdicts: Vec<(Vec<(usize, Admission)>, f64)> =
                run_indexed(cfg.workers, registry.shards() as usize, |shard| {
                    let shard = shard as u32;
                    let idxs: Vec<usize> = registry
                        .shard_tenants(shard)
                        .iter()
                        .copied()
                        .filter(|&i| plans_ref[i].is_some())
                        .collect();
                    if idxs.is_empty() {
                        return (Vec::new(), 0.0);
                    }
                    let requests: Vec<AdmissionRequest> = idxs
                        .iter()
                        .map(|&i| {
                            let spec = &registry.specs()[i];
                            AdmissionRequest {
                                tenant: spec.id.0,
                                priority: spec.priority(),
                                weight: spec.weight(),
                                demand: *plans_ref[i].as_ref().expect("filtered Some").demand(),
                                deferrals: defer_ref[i],
                            }
                        })
                        .collect();
                    let mut ledger = CapacityLedger::new(cfg.shard_capacity);
                    let vs = admit_epoch(&mut ledger, &cfg.admission, &requests);
                    (idxs.into_iter().zip(vs).collect(), ledger.utilization())
                });
            let mut verdicts: Vec<Option<Admission>> = vec![None; n];
            for (shard, (vs, utilization)) in shard_verdicts.into_iter().enumerate() {
                let s = &mut sacc[shard];
                s.peak_utilization = s.peak_utilization.max(utilization);
                for (i, v) in vs {
                    verdicts[i] = Some(v);
                }
            }
            stats.admit_wall_secs += t_admit.elapsed().as_secs_f64();

            // Phase 4a — settle verdicts in (shard, tenant) order:
            // trace events, accumulators, defer/reject bookkeeping; the
            // admitted batches queue for parallel execution.
            let mut exec_work: Vec<Option<(PlannedEpoch, f64)>> = (0..n).map(|_| None).collect();
            let boundary_secs = cfg.runtime.epoch.secs() * (k + 1) as f64;
            for shard in 0..registry.shards() {
                for &i in registry.shard_tenants(shard) {
                    let Some(v) = verdicts[i] else { continue };
                    let p = plans[i].take().expect("verdict implies plan");
                    self.obs.emit(
                        boundary_secs,
                        EventBody::TenantEpoch {
                            tenant: registry.specs()[i].id.0,
                            shard,
                            epoch: k,
                            admission: v.label().to_string(),
                            granted_frac: v.granted_frac(),
                            planned: p.provenance().label().to_string(),
                        },
                    );
                    match v {
                        Admission::Admitted { frac } => {
                            consec_defer[i] = 0;
                            if frac >= 1.0 {
                                tacc[i].admitted_full += 1;
                            } else {
                                tacc[i].admitted_partial += 1;
                            }
                            tacc[i].grant_sum += frac;
                            sacc[shard as usize].admitted += 1;
                            exec_work[i] = Some((p, frac));
                        }
                        Admission::Deferred => {
                            consec_defer[i] += 1;
                            tacc[i].deferrals += 1;
                            sacc[shard as usize].deferred += 1;
                            sessions[i].defer_epoch(p);
                        }
                        Admission::Rejected => {
                            consec_defer[i] = 0;
                            sacc[shard as usize].rejected_batches += 1;
                            sessions[i].reject_epoch(p);
                        }
                    }
                }
            }

            // Phase 3 — execute admitted batches in parallel under their
            // grants.
            let t_exec = Instant::now();
            let mut work: Vec<_> = sessions.iter_mut().zip(exec_work).collect();
            let results = run_indexed_mut(cfg.workers, &mut work, |_, (s, w)| match w.take() {
                Some((p, frac)) => s.execute_epoch(p, frac).map(|_| true),
                None => Ok(false),
            });
            for r in results {
                if r? {
                    stats.executed_epochs += 1;
                }
            }
            stats.exec_wall_secs += t_exec.elapsed().as_secs_f64();
        }

        // Final settlement: per-tenant rollups in id order, region totals.
        let mut tenants = Vec::with_capacity(n);
        for (i, (session, spec)) in sessions.into_iter().zip(registry.specs()).enumerate() {
            let report = session.finish();
            let admitted = tacc[i].admitted_full + tacc[i].admitted_partial;
            tenants.push(TenantSummary {
                tenant: spec.id.0,
                shard: registry.shard_of_index(i),
                class: spec.class.label().to_string(),
                epochs_served: report.epochs.len(),
                admitted_full: tacc[i].admitted_full,
                admitted_partial: tacc[i].admitted_partial,
                deferrals: tacc[i].deferrals,
                mean_grant: if admitted > 0 {
                    tacc[i].grant_sum / admitted as f64
                } else {
                    0.0
                },
                jobs_completed: report.jobs_completed,
                deadline_misses: report.deadline_misses,
                rejected: report.rejected,
                total_cost: report.total_cost,
            });
        }
        let report = FleetReport {
            epochs,
            shard_count: registry.shards(),
            jobs_completed: tenants.iter().map(|t| t.jobs_completed).sum(),
            deadline_misses: tenants.iter().map(|t| t.deadline_misses).sum(),
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            deferrals: tenants.iter().map(|t| t.deferrals).sum(),
            total_cost: tenants.iter().map(|t| t.total_cost).sum(),
            tenants,
            shards: sacc,
        };
        stats.total_wall_secs = t_run.elapsed().as_secs_f64();
        Ok(FleetOutcome { report, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::tier::Tier;
    use cast_cloud::units::Duration;
    use cast_cloud::Catalog;
    use cast_estimator::model::{CapacityCurve, ModelMatrix, PhaseBw};
    use cast_estimator::mrcute::ClusterSpec;
    use cast_obs::Observe;
    use cast_runtime::{OnlineRuntime, ReplanPolicy};
    use cast_workload::profile::ProfileSet;
    use cast_workload::{tenant_fleet, AppKind, FleetWorkloadConfig, TenantClass};

    fn estimator(nvm: usize) -> Estimator {
        let mut matrix = ModelMatrix::new();
        for app in AppKind::ALL {
            for tier in Tier::ALL {
                matrix.insert(
                    app,
                    tier,
                    CapacityCurve::fit(&[(
                        375.0,
                        PhaseBw {
                            map: 10.0,
                            shuffle_reduce: 10.0,
                        },
                    )])
                    .unwrap(),
                );
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

    fn small_fleet(tenants: usize, seed: u64) -> TenantRegistry {
        let specs = tenant_fleet(&FleetWorkloadConfig {
            seed,
            tenants,
            horizon: Duration::from_mins(60.0),
            base_jobs_per_hour: 6.0,
            max_bin: 3,
            ..FleetWorkloadConfig::default()
        })
        .unwrap();
        TenantRegistry::new(specs, 2).unwrap()
    }

    fn quick_cfg(capacity_tb: f64) -> FleetConfig {
        FleetConfig {
            workers: 2,
            shard_capacity: PerTier::from_fn(|_| DataSize::from_tb(capacity_tb)),
            runtime: RuntimeConfig {
                epoch: Duration::from_mins(30.0),
                policy: ReplanPolicy::Hysteresis { min_gain: 0.02 },
                ..RuntimeConfig::default()
            },
            anneal: AnnealConfig {
                iterations: 300,
                restarts: 1,
                ..AnnealConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn ample_capacity_serves_everyone_uncontended() {
        let est = estimator(4);
        let reg = small_fleet(10, 0xA11);
        let out = Fleet::new(&est, quick_cfg(100.0)).run(&reg).unwrap();
        assert_eq!(out.report.tenants.len(), 10);
        assert_eq!(out.report.deferrals, 0);
        // With capacity to spare every admitted epoch is a full grant.
        assert_eq!(out.report.uncontended_tenants().count(), 10);
        assert!(out.report.jobs_completed > 0);
        assert!(out.report.total_cost > 0.0);
        assert!(out.stats.executed_epochs > 0);
        assert!(out.stats.total_wall_secs > 0.0);
    }

    #[test]
    fn uncontended_tenant_matches_its_solo_baseline() {
        // The fleet's full-grant path must be bit-identical to serving
        // the tenant alone — same jobs, same misses, same cost.
        let est = estimator(4);
        let reg = small_fleet(6, 0xB22);
        let cfg = quick_cfg(100.0);
        let out = Fleet::new(&est, cfg.clone()).run(&reg).unwrap();
        for (spec, summary) in reg.specs().iter().zip(out.report.tenants.iter()) {
            let solo = OnlineRuntime::new(&est, cfg.anneal, cfg.runtime)
                .run(&spec.stream().unwrap())
                .unwrap();
            assert_eq!(summary.jobs_completed, solo.jobs_completed, "t{}", spec.id);
            assert_eq!(
                summary.deadline_misses, solo.deadline_misses,
                "t{}",
                spec.id
            );
            assert!(
                (summary.total_cost - solo.total_cost).abs() < 1e-12,
                "t{}",
                spec.id
            );
        }
    }

    #[test]
    fn scarce_capacity_throttles_best_effort_first() {
        let est = estimator(4);
        let reg = small_fleet(10, 0xC33);
        // A pool small enough that epochs contend.
        let out = Fleet::new(&est, quick_cfg(0.05)).run(&reg).unwrap();
        let contended: usize = out
            .report
            .tenants
            .iter()
            .map(|t| t.admitted_partial + t.deferrals)
            .sum();
        assert!(contended > 0, "a 50 GB shard pool must contend");
        // Guaranteed (interactive) tenants are never partially granted.
        for (spec, t) in reg.specs().iter().zip(out.report.tenants.iter()) {
            if spec.class == TenantClass::Interactive {
                assert_eq!(t.admitted_partial, 0, "t{} throttled", spec.id);
            }
        }
        // Shard books saw real utilization.
        assert!(out.report.shards.iter().any(|s| s.peak_utilization > 0.5));
    }

    #[test]
    fn settlement_emits_tenant_epoch_spans_in_order() {
        let est = estimator(4);
        let reg = small_fleet(6, 0xD44);
        let col = Collector::recording();
        let fleet = Fleet::new(&est, quick_cfg(100.0)).observe(col.clone());
        fleet.run(&reg).unwrap();
        let events = col.events();
        assert!(!events.is_empty());
        let mut last = (0u32, 0u32, 0u32);
        let mut seen = 0;
        for e in &events {
            if let EventBody::TenantEpoch {
                tenant,
                shard,
                epoch,
                admission,
                granted_frac,
                planned,
            } = &e.body
            {
                seen += 1;
                assert_eq!(admission, "admitted");
                assert_eq!(*granted_frac, 1.0);
                assert!(
                    ["fresh", "deduped", "skipped"].contains(&planned.as_str()),
                    "unexpected provenance {planned}"
                );
                let key = (*epoch, *shard, *tenant);
                assert!(key > last || seen == 1, "{key:?} after {last:?}");
                last = key;
            }
        }
        assert!(seen > 0, "settlement must trace tenant epochs");
    }

    #[test]
    fn plan_cache_counters_land_in_the_metrics_registry() {
        // FleetStats is the wall-clock side channel; the same plan-cache
        // tallies must also flow through the attached collector so fleet
        // dashboards see them without holding a FleetOutcome.
        let est = estimator(4);
        let reg = small_fleet(6, 0xE55);
        let col = Collector::recording();
        let fleet = Fleet::new(&est, quick_cfg(100.0)).observe(col.clone());
        let out = fleet.run(&reg).unwrap();
        let snap = col.snapshot();
        assert!(out.stats.solves > 0);
        assert_eq!(snap.counter("fleet.plan.solves"), Some(out.stats.solves));
        assert_eq!(
            snap.counter("fleet.plan.deduped").unwrap_or(0),
            out.stats.dedup_fanouts
        );
        assert_eq!(
            snap.counter("fleet.plan.skipped").unwrap_or(0),
            out.stats.replans_skipped
        );
    }

    #[test]
    fn zero_workers_is_a_config_error() {
        let est = estimator(4);
        let reg = small_fleet(2, 1);
        let cfg = FleetConfig {
            workers: 0,
            ..quick_cfg(1.0)
        };
        assert!(matches!(
            Fleet::new(&est, cfg).run(&reg),
            Err(FleetError::Config(_))
        ));
    }
}
