//! Set-up: profile the estimator from code and synthesize the workload.
//! Every repetition of a run starts with a fresh, timed set-up, so the
//! set-up samples are spread over the whole measuring window; `setup_s`
//! is their median.

use std::time::Instant;

use cast_cloud::units::Duration;
use cast_cloud::Catalog;
use cast_estimator::mrcute::ClusterSpec;
use cast_estimator::profiler::{profile_all, ProfilerConfig};
use cast_estimator::Estimator;
use cast_fleet::TenantRegistry;
use cast_workload::profile::ProfileSet;
use cast_workload::spec::WorkloadSpec;
use cast_workload::{tenant_fleet, FleetWorkloadConfig};

use crate::out::{median, Check, Digest};
use crate::Workload;

/// Tenants in both fleet workloads.
pub const FLEET_TENANTS: usize = 2048;
/// Shards the fleet's tenants hash onto.
pub const FLEET_SHARDS: u32 = 16;

/// The synthesized input of one workload.
pub enum Input {
    Fleet {
        registry: TenantRegistry,
        /// Per-tier capacity of each shard, in TB.
        shard_capacity_tb: f64,
    },
    Deploy {
        spec: WorkloadSpec,
    },
}

pub struct Setup {
    pub estimator: Estimator,
    pub input: Input,
}

/// Builds the set-up of one workload and seed, and times every build.
pub struct Clock {
    workload: Workload,
    seed: u64,
    /// Digest of the first build; every later one must equal it.
    digest: Option<u64>,
    totals: Vec<f64>,
    profiles: Vec<f64>,
    synths: Vec<f64>,
}

/// The estimator of the paper's setting: the profiling campaign run on
/// Google Cloud's catalog for the 25-VM cluster of §5.
fn estimator() -> Result<Estimator, Box<dyn std::error::Error>> {
    let catalog = Catalog::google_cloud();
    let profiles = ProfileSet::defaults();
    let matrix = profile_all(&catalog, &profiles, &ProfilerConfig::default())?;
    Ok(Estimator {
        matrix,
        catalog,
        cluster: ClusterSpec::paper(),
        profiles,
    })
}

fn input(workload: Workload, seed: u64) -> Result<Input, Box<dyn std::error::Error>> {
    Ok(match workload {
        Workload::FleetSteady | Workload::FleetContended => {
            let specs = tenant_fleet(&FleetWorkloadConfig {
                seed,
                tenants: FLEET_TENANTS,
                horizon: Duration::from_hours(4.0),
                base_jobs_per_hour: 6.0,
                max_bin: 3,
                ..FleetWorkloadConfig::default()
            })?;
            Input::Fleet {
                registry: TenantRegistry::new(specs, FLEET_SHARDS)?,
                shard_capacity_tb: if workload == Workload::FleetSteady {
                    100.0
                } else {
                    1.0
                },
            }
        }
        Workload::Deploy4k => Input::Deploy {
            spec: crate::deploy::workload(seed)?,
        },
    })
}

/// A digest of everything set-up produced, to check repetitions agree.
fn digest(est: &Estimator, input: &Input) -> Result<u64, serde_json::Error> {
    let mut d = Digest::default();
    d.bytes(serde_json::to_string(&est.matrix)?.as_bytes());
    match input {
        Input::Fleet { registry, .. } => {
            for spec in registry.specs() {
                d.u64(u64::from(spec.id.0)).u64(spec.planning_signature());
            }
            for i in 0..registry.len() {
                d.u64(u64::from(registry.shard_of_index(i)));
            }
        }
        Input::Deploy { spec } => {
            d.bytes(serde_json::to_string(spec)?.as_bytes());
        }
    }
    Ok(d.finish())
}

impl Clock {
    pub fn new(workload: Workload, seed: u64) -> Clock {
        Clock {
            workload,
            seed,
            digest: None,
            totals: Vec::new(),
            profiles: Vec::new(),
            synths: Vec::new(),
        }
    }

    /// Build the set-up once, on the clock, and check it equals the
    /// first build.
    pub fn setup(&mut self, check: &mut Check) -> Result<Setup, Box<dyn std::error::Error>> {
        let t = Instant::now();
        let estimator = estimator()?;
        let profile_s = t.elapsed().as_secs_f64();
        let t_synth = Instant::now();
        let input = input(self.workload, self.seed)?;
        self.synths.push(t_synth.elapsed().as_secs_f64());
        self.totals.push(t.elapsed().as_secs_f64());
        self.profiles.push(profile_s);
        let d = digest(&estimator, &input)?;
        let first = *self.digest.get_or_insert(d);
        check.expect(d == first, || {
            format!(
                "set-up {} differs from the first: {d:016x} vs {first:016x}",
                self.totals.len()
            )
        });
        Ok(Setup { estimator, input })
    }

    /// Time of every set-up so far.
    pub fn totals(&self) -> &[f64] {
        &self.totals
    }

    /// Median time of a whole set-up.
    pub fn setup_s(&self) -> f64 {
        median(&self.totals)
    }

    /// Median time of `profile_all`.
    pub fn profile_s(&self) -> f64 {
        median(&self.profiles)
    }

    /// Median time of workload synthesis (plus the registry).
    pub fn synth_s(&self) -> f64 {
        median(&self.synths)
    }
}
