//! Property-based safety tests for the migration protocol: under
//! copy→verify→retire no fault schedule — any rate, any seed, any
//! attempt budget — may ever destroy a dataset. Rolled-back moves must
//! park their readers on the incumbent placement instead. Also pins that
//! sessions sharing a thread's engine scratch cannot see each other.

use proptest::prelude::*;

use cast_cloud::tier::Tier;
use cast_cloud::units::{DataSize, Duration};
use cast_cloud::Catalog;
use cast_estimator::model::{CapacityCurve, ModelMatrix, PhaseBw};
use cast_estimator::mrcute::ClusterSpec;
use cast_estimator::Estimator;
use cast_obs::Collector;
use cast_runtime::migrate::MigrationSchedule;
use cast_runtime::{
    execute_schedule, EpochReport, MigrationProtocol, OnlineRuntime, ReplanPolicy, RuntimeConfig,
    TenantSession,
};
use cast_sim::runner::MigrationSpec;
use cast_solver::AnnealConfig;
use cast_workload::apps::AppKind;
use cast_workload::dataset::DatasetId;
use cast_workload::job::JobId;
use cast_workload::profile::ProfileSet;
use cast_workload::{ArrivalConfig, ArrivalProcess, ArrivalStream, DriftConfig};

fn arb_tier() -> impl Strategy<Value = Tier> {
    prop::sample::select(Tier::ALL.to_vec())
}

/// An arbitrary migration batch: 1–5 moves of 1–50 GB between arbitrary
/// tiers, each blocking one reader job.
fn arb_schedule() -> impl Strategy<Value = MigrationSchedule> {
    prop::collection::vec((arb_tier(), arb_tier(), 1.0f64..50.0), 1..5).prop_map(|moves| {
        let mut sched = MigrationSchedule {
            moves: Vec::new(),
            datasets: Vec::new(),
            total: DataSize::ZERO,
            churn: 0,
        };
        for (i, (from, to, gb)) in moves.into_iter().enumerate() {
            let bytes = DataSize::from_gb(gb);
            sched.total += bytes;
            sched.moves.push(MigrationSpec {
                id: i as u32,
                bytes,
                from,
                to,
                blocks: vec![JobId(i as u32)],
                after: vec![],
            });
            sched.datasets.push(DatasetId(i as u32));
        }
        sched
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Copy→verify→retire never reports a lost dataset, whatever the
    /// fault rate, seed or attempt budget: every move either commits
    /// (copy + chained verify) or rolls back with its readers reverted.
    #[test]
    fn cvr_never_loses_a_dataset(
        sched in arb_schedule(),
        fault_prob in 0.0f64..1.0,
        seed in 0u64..1_000_000,
        epoch in 0u32..64,
        max_attempts in 1u32..5,
    ) {
        let protocol = MigrationProtocol::CopyVerifyRetire {
            max_attempts,
            backoff_secs: 2.0,
        };
        let out = execute_schedule(
            &sched,
            protocol,
            fault_prob,
            seed,
            epoch,
            &Collector::noop(),
        );
        prop_assert!(
            out.lost.is_empty(),
            "copy-verify-retire destroyed {:?} at p={fault_prob}",
            out.lost
        );
        // Every move is accounted for: committed or rolled back.
        prop_assert_eq!(out.committed + out.rollbacks, sched.moves.len());
        // A rolled-back reader must be one of the schedule's blocked jobs.
        for j in &out.rolled_back_jobs {
            prop_assert!(
                sched.moves.iter().any(|m| m.blocks.contains(j)),
                "rolled back a job no move blocked: {j:?}"
            );
        }
        // Verification never reads more than the bytes actually committed.
        prop_assert!(out.verify_mb <= sched.total.mb() + 1e-6);
        // `after`-chains reference only earlier flows in the batch.
        for (i, f) in out.flows.iter().enumerate() {
            for dep in &f.after {
                prop_assert!(
                    out.flows[..i].iter().any(|p| p.id == *dep),
                    "flow {} depends on a later/missing flow {dep}",
                    f.id
                );
            }
        }
    }

    /// The protocol executor is a pure function of its inputs.
    #[test]
    fn protocol_execution_is_deterministic(
        sched in arb_schedule(),
        fault_prob in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        for protocol in [MigrationProtocol::Unsafe, MigrationProtocol::safe()] {
            let a = execute_schedule(&sched, protocol, fault_prob, seed, 3, &Collector::noop());
            let b = execute_schedule(&sched, protocol, fault_prob, seed, 3, &Collector::noop());
            prop_assert_eq!(a.flows, b.flows);
            prop_assert_eq!(a.lost, b.lost);
            prop_assert_eq!(
                (a.committed, a.retries, a.rollbacks),
                (b.committed, b.retries, b.rollbacks)
            );
        }
    }
}

/// Flat-bandwidth estimator, same shape as the runtime's unit tests.
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

fn stream(seed: u64) -> ArrivalStream {
    stream_at(seed, 10.0, 4)
}

fn stream_at(seed: u64, jobs_per_hour: f64, max_bin: usize) -> ArrivalStream {
    cast_workload::arrival::generate(&ArrivalConfig {
        seed,
        horizon: Duration::from_mins(90.0),
        process: ArrivalProcess::Poisson { jobs_per_hour },
        drift: DriftConfig {
            app_shift: 0.5,
            size_growth: 0.5,
        },
        workflow_fraction: 0.2,
        max_bin,
    })
    .unwrap()
}

/// Sessions simulate their epochs in one engine scratch per thread, so
/// a tenant's epoch may run in buffers a larger, different tenant just
/// grew. Its reports must be bit-identical to running alone on a fresh
/// thread.
#[test]
fn epoch_reports_do_not_depend_on_the_thread_scratch_history() {
    let est = estimator(4);
    let anneal = AnnealConfig {
        iterations: 300,
        restarts: 1,
        ..AnnealConfig::default()
    };
    let cfg = RuntimeConfig::default();
    let (small, large) = (stream(11), stream_at(12, 60.0, 7));
    // Serves every listed session one boundary at a time, in list order,
    // on the calling thread.
    let serve = |streams: &[&ArrivalStream]| -> Vec<Vec<EpochReport>> {
        let mut sessions: Vec<TenantSession> = streams
            .iter()
            .map(|s| TenantSession::new(&est, anneal, cfg, (*s).clone()))
            .collect();
        for k in 0..sessions[0].epoch_count() {
            for s in &mut sessions {
                if let Some(planned) = s.plan_epoch(k).unwrap() {
                    s.execute_epoch(planned, 1.0).unwrap();
                }
            }
        }
        sessions.into_iter().map(|s| s.finish().epochs).collect()
    };
    let on_fresh_thread = |streams: &[&ArrivalStream]| {
        std::thread::scope(|scope| scope.spawn(|| serve(streams)).join().unwrap())
    };
    let alone = on_fresh_thread(&[&small]).remove(0);
    let shared = on_fresh_thread(&[&large, &small]);
    let jobs = |r: &[EpochReport]| r.iter().map(|e| e.jobs).sum::<usize>();
    assert!(jobs(&alone) > 0, "the small tenant must execute epochs");
    assert!(
        jobs(&shared[0]) > 2 * jobs(&alone),
        "the tenant sharing the scratch must be the larger one"
    );
    // Debug renders every f64 in shortest round-trip form, so equal
    // strings mean equal bits.
    assert_eq!(format!("{alone:?}"), format!("{:?}", shared[1]));
}

proptest! {
    // Full online runs are expensive; a handful of seeded cases over
    // aggressive fault rates is enough to exercise many epochs each.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// End-to-end: no completed epoch of a copy→verify→retire run ever
    /// contains a destroyed dataset (its readers would be below the
    /// redundancy scheme's read threshold), for arbitrary stream seeds
    /// and fault rates.
    #[test]
    fn cvr_epochs_never_complete_with_lost_datasets(
        stream_seed in 0u64..1_000,
        fault_prob in prop::sample::select(vec![0.3f64, 0.6, 0.9]),
    ) {
        let est = estimator(4);
        let anneal = AnnealConfig {
            iterations: 400,
            restarts: 1,
            ..AnnealConfig::default()
        };
        let cfg = RuntimeConfig {
            epoch: Duration::from_mins(30.0),
            policy: ReplanPolicy::Periodic,
            protocol: MigrationProtocol::safe(),
            migration_fault_prob: fault_prob,
            ..RuntimeConfig::default()
        };
        let report = OnlineRuntime::new(&est, anneal, cfg)
            .run(&stream(stream_seed))
            .expect("online run");
        prop_assert_eq!(report.datasets_lost, 0);
        for e in &report.epochs {
            prop_assert!(
                e.datasets_lost == 0,
                "epoch {} completed with a lost dataset at p={}",
                e.epoch,
                fault_prob
            );
        }
    }
}
