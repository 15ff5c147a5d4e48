//! What-if candidate scoring against a live simulation.
//!
//! At a replan point the runtime holds a mid-stream simulation and a set
//! of candidate plans, each expressed as placement overrides for jobs
//! that have not started yet. Two scoring backends share one candidate
//! semantics ("redirect still-waiting jobs at the replan horizon"):
//!
//! * [`score_cold`] — the pre-snapshot way: one fresh simulation per
//!   candidate, re-simulating from the epoch boundary up to the horizon
//!   before applying the overrides. O(candidates × full-run).
//! * [`score_forked`] — simulate the shared prefix once, snapshot, and
//!   fork one simulation per candidate ([`EngineSnapshot::fork`]); each
//!   fork scores only the tail. O(full-run + candidates × tail).
//!
//! Fork equivalence (a fork resumes bit-identically to an uninterrupted
//! run) guarantees the two backends return byte-identical reports, so
//! the winner — [`pick_winner`], smallest makespan under `f64` total
//! order, ties to the lowest candidate index — is the same plan either
//! way. Both backends fan out through [`crate::par::run_indexed`], whose
//! index-ordered merge keeps results deterministic across worker counts.

use std::cmp::Ordering;

use cast_workload::job::JobId;

use crate::config::SimConfig;
use crate::engine::EngineSnapshot;
use crate::error::SimError;
use crate::jobrun::{JobPhase, JobRun};
use crate::metrics::SimReport;
use crate::par::run_indexed;
use crate::placement::JobPlacement;
use crate::sim::Sim;

/// One placement override inside a candidate plan: redirect `job` to
/// `placement` — applied only if the job is still waiting at the replan
/// point (work already in flight keeps its committed placement).
#[derive(Debug, Clone)]
pub struct CandidateOverride {
    /// Workload job to redirect.
    pub job: JobId,
    /// The placement the candidate gives it.
    pub placement: JobPlacement,
}

/// Apply a candidate's overrides to a live simulation. Jobs past
/// `Waiting` (or absent from the run table) are skipped —
/// deterministically, since phase-at-horizon is itself deterministic.
fn apply_candidate(sim: &mut Sim<'_>, overrides: &[CandidateOverride]) {
    for o in overrides {
        if let Some(idx) = sim.jobs().iter().position(|r| r.job.id == o.job) {
            if sim.jobs()[idx].phase == JobPhase::Waiting {
                sim.set_placement(idx, o.placement.clone())
                    .expect("waiting job accepts placement");
            }
        }
    }
}

/// Cold-restart scoring: per candidate, a fresh simulation over a clone of
/// `runs` advances to `horizon`, applies the overrides, and runs to
/// completion. The shared prefix is re-simulated once per candidate —
/// this is the baseline [`score_forked`] eliminates.
pub fn score_cold(
    cfg: &SimConfig,
    runs: &[JobRun],
    candidates: &[Vec<CandidateOverride>],
    horizon: f64,
    workers: usize,
) -> Result<Vec<SimReport>, SimError> {
    run_indexed(workers, candidates.len(), |i| {
        let mut sim = Sim::builder(cfg).runs(runs.to_vec()).build()?;
        sim.run_until(horizon)?;
        apply_candidate(&mut sim, &candidates[i]);
        sim.run()
    })
    .into_iter()
    .collect()
}

/// Fork-backed scoring: one fork per candidate off a snapshot taken at
/// the replan point, scored against the actual in-flight state. Byte-
/// identical to [`score_cold`] over the same prepared runs and horizon.
pub fn score_forked(
    snapshot: &EngineSnapshot,
    candidates: &[Vec<CandidateOverride>],
    workers: usize,
) -> Result<Vec<SimReport>, SimError> {
    run_indexed(workers, candidates.len(), |i| {
        let mut sim = snapshot.fork();
        apply_candidate(&mut sim, &candidates[i]);
        sim.run()
    })
    .into_iter()
    .collect()
}

/// Deterministic winner selection: smallest makespan under `f64` total
/// order; ties break to the lowest candidate index. `None` only for an
/// empty slate.
pub fn pick_winner(reports: &[SimReport]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, r) in reports.iter().enumerate() {
        let better = match best {
            None => true,
            Some(b) => r.makespan.secs().total_cmp(&reports[b].makespan.secs()) == Ordering::Less,
        };
        if better {
            best = Some(i);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, VmCrash};
    use crate::placement::PlacementMap;
    use crate::runner::prepare_runs;
    use cast_cloud::tier::{PerTier, Tier};
    use cast_cloud::units::DataSize;
    use cast_cloud::Catalog;
    use cast_workload::synth;

    fn setup() -> (Vec<JobRun>, SimConfig, Vec<Vec<CandidateOverride>>) {
        let spec = synth::workflow_suite(0xC0FFEE);
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersHdd);
        let agg = PerTier::from_fn(|_| DataSize::from_gb(4000.0));
        let mut cfg = SimConfig::with_aggregate_capacity(Catalog::aws_like(), 8, &agg).unwrap();
        cfg.jitter = 0.0;
        cfg.concurrency = crate::config::Concurrency::Parallel;
        cfg.faults = FaultPlan {
            seed: 11,
            task_failure_prob: 0.05,
            max_task_attempts: 12,
            vm_crashes: vec![VmCrash {
                vm: 2,
                at_secs: 30.0,
                down_secs: Some(90.0),
            }],
            ..FaultPlan::default()
        };
        let runs = prepare_runs(&spec, &placements, &[], &cfg).unwrap();
        let candidates: Vec<Vec<CandidateOverride>> = [Tier::PersHdd, Tier::PersSsd, Tier::EphSsd]
            .iter()
            .map(|&t| {
                spec.jobs
                    .iter()
                    .map(|j| CandidateOverride {
                        job: j.id,
                        placement: JobPlacement::all_on(t),
                    })
                    .collect()
            })
            .collect();
        (runs, cfg, candidates)
    }

    #[test]
    fn cold_and_forked_scoring_are_byte_identical() {
        let (runs, cfg, candidates) = setup();
        let horizon = 60.0;
        let cold = score_cold(&cfg, &runs, &candidates, horizon, 2).unwrap();
        let mut live = Sim::builder(&cfg).runs(runs.clone()).build().unwrap();
        live.run_until(horizon).unwrap();
        let snap = live.snapshot();
        let forked = score_forked(&snap, &candidates, 2).unwrap();
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&forked).unwrap()
        );
        assert_eq!(pick_winner(&cold), pick_winner(&forked));
    }

    #[test]
    fn winner_is_stable_across_worker_counts() {
        let (runs, cfg, candidates) = setup();
        let mut live = Sim::builder(&cfg).runs(runs.clone()).build().unwrap();
        live.run_until(45.0).unwrap();
        let snap = live.snapshot();
        let baseline = score_forked(&snap, &candidates, 1).unwrap();
        for workers in [2, 8] {
            let got = score_forked(&snap, &candidates, workers).unwrap();
            assert_eq!(
                serde_json::to_string(&baseline).unwrap(),
                serde_json::to_string(&got).unwrap(),
                "worker count {workers} changed scoring output"
            );
            assert_eq!(pick_winner(&baseline), pick_winner(&got));
        }
    }

    #[test]
    fn pick_winner_ties_break_low() {
        let (runs, cfg, _) = setup();
        let report = Sim::builder(&cfg)
            .runs(runs)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let same = vec![report.clone(), report];
        assert_eq!(pick_winner(&same), Some(0));
        assert_eq!(pick_winner(&[]), None);
    }
}
