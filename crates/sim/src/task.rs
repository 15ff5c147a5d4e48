//! Task and stage representations.
//!
//! A task is a sequence of stages. Each stage has an optional fixed-latency
//! prefix (request/connection overheads — not bandwidth-consuming) followed
//! by a streaming part measured in *units* (MB of the stage's reference
//! stream). Resource ratios convert units to bytes on each touched
//! resource: a map task whose intermediate selectivity is 0.5 writes half a
//! megabyte of spill per megabyte of input streamed.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use cast_cloud::tier::Tier;

use crate::resources::{ResKey, ResKind, ShareRegistry, GLOBAL_VM};

/// What part of job execution a stage belongs to (metrics attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageLabel {
    /// Input download / cross-tier transfer before the job proper.
    StageIn,
    /// Map phase.
    Map,
    /// Shuffle fetch.
    Shuffle,
    /// Reduce stream.
    Reduce,
    /// Output upload after the job proper.
    StageOut,
}

/// Which slot pool a task occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotKind {
    /// Occupies a map slot.
    Map,
    /// Occupies a reduce slot.
    Reduce,
    /// Staging/transfer stream; does not occupy task slots.
    Transfer,
}

impl SlotKind {
    /// Short name, e.g. `"map"` (the `slot` label of task trace events).
    pub(crate) fn label(self) -> &'static str {
        match self {
            SlotKind::Map => "map",
            SlotKind::Reduce => "reduce",
            SlotKind::Transfer => "transfer",
        }
    }
}

/// Unbound stage description (no VM assigned yet).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Metrics attribution.
    pub label: StageLabel,
    /// Fixed latency before streaming starts, seconds.
    pub fixed: f64,
    /// Streaming volume in reference-units (MB).
    pub units: f64,
    /// Storage read: `(tier, bytes-per-unit)`.
    pub read: Option<(Tier, f64)>,
    /// Storage write: `(tier, bytes-per-unit)`.
    pub write: Option<(Tier, f64)>,
    /// NIC bytes-per-unit (0 = NIC untouched).
    pub net_ratio: f64,
    /// Upper bound on the streaming rate in units/s (per-task client cap
    /// and/or application processing rate, jitter included).
    pub rate_cap: f64,
}

/// Unbound task description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTemplate {
    /// Slot pool the task needs.
    pub slot: SlotKind,
    /// Stages in execution order.
    pub stages: Vec<StageSpec>,
}

impl TaskTemplate {
    /// Total streaming units across all stages (the denominator for
    /// fault-injection "fail after a fraction of the work" draws).
    pub fn total_units(&self) -> f64 {
        self.stages.iter().map(|s| s.units).sum()
    }
}

/// A stage bound to a VM's resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundStage {
    /// Metrics attribution.
    pub label: StageLabel,
    /// Remaining fixed latency, seconds.
    pub fixed_remaining: f64,
    /// Remaining streaming units, MB.
    pub units_remaining: f64,
    /// Storage read registration.
    pub read: Option<(ResKey, f64)>,
    /// Storage write registration.
    pub write: Option<(ResKey, f64)>,
    /// NIC registration.
    pub net: Option<(ResKey, f64)>,
    /// Cluster-global object-store ceiling registration (total objStore
    /// bytes per unit across this stage's reads and writes).
    pub global: Option<(ResKey, f64)>,
    /// Rate cap in units/s.
    pub rate_cap: f64,
}

impl BoundStage {
    /// Whether the stage is still in its fixed-latency prefix.
    #[inline]
    pub fn is_latent(&self) -> bool {
        self.fixed_remaining > 0.0
    }

    /// Whether nothing remains.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.fixed_remaining <= 0.0 && self.units_remaining <= 1e-9
    }

    /// The stage's potential flow slots in canonical order (read, write,
    /// net, global). Slots with zero demand are `None`-equivalent for
    /// registration purposes but kept positional so engines can pair each
    /// slot with a persistent flow handle.
    #[inline]
    pub fn flow_parts(&self) -> [Option<(ResKey, f64)>; 4] {
        [self.read, self.write, self.net, self.global]
    }

    /// Register this stage's streaming flows, weighted by their
    /// bytes-per-unit demand.
    pub fn register(&self, reg: &mut ShareRegistry) {
        for (key, ratio) in self.flow_parts().into_iter().flatten() {
            if ratio > 0.0 {
                reg.register(key, ratio);
            }
        }
    }

    /// Streaming rate in units/s given current resource loads: the minimum
    /// of the per-task cap and each touched resource's demand-weighted
    /// units rate.
    pub fn rate(&self, reg: &ShareRegistry) -> f64 {
        let mut rate = self.rate_cap;
        for (key, ratio) in self.flow_parts().into_iter().flatten() {
            if ratio > 0.0 {
                rate = rate.min(reg.unit_rate(key));
            }
        }
        rate
    }
}

/// A task in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningTask {
    /// Index of the owning job in the engine's job table.
    pub job: usize,
    /// VM the task is pinned to.
    pub vm: u32,
    /// Slot pool occupied.
    pub slot: SlotKind,
    /// Remaining stages (front = current).
    pub stages: VecDeque<BoundStage>,
    /// Stable identity across attempts (fault injection). Zero when no
    /// fault plan is active.
    pub uid: u64,
    /// Which attempt this is (1 = first run).
    pub attempt: u32,
    /// For a speculative backup: the uid of the original it shadows.
    pub backup_of: Option<u64>,
    /// Whether a speculative backup of this task is (or was) in flight.
    pub speculated: bool,
    /// Fault injection: streaming units left until this attempt fails
    /// (`None` = the attempt will not fail).
    pub doom_units: Option<f64>,
    /// The unbound template, retained when retries may need to re-bind
    /// this task on another VM.
    pub template: Option<Box<TaskTemplate>>,
}

/// Bind one stage spec to a VM's resources. Single source of binding
/// truth: [`RunningTask::bind`] and the engine's arena-backed dispatch
/// both go through here, so tier→key mapping can never diverge between
/// the engines.
pub(crate) fn bind_spec(vm: u32, s: &StageSpec) -> BoundStage {
    let obj_ratio = s
        .read
        .iter()
        .chain(s.write.iter())
        .filter(|&&(t, _)| t == Tier::ObjStore)
        .map(|&(_, r)| r)
        .sum::<f64>();
    BoundStage {
        label: s.label,
        fixed_remaining: s.fixed,
        units_remaining: s.units,
        read: s.read.map(|(t, r)| {
            (
                ResKey {
                    vm,
                    kind: ResKind::Volume(t),
                },
                r,
            )
        }),
        write: s.write.map(|(t, r)| {
            (
                ResKey {
                    vm,
                    kind: ResKind::Volume(t),
                },
                r,
            )
        }),
        net: (s.net_ratio > 0.0).then_some((
            ResKey {
                vm,
                kind: ResKind::Nic,
            },
            s.net_ratio,
        )),
        global: (obj_ratio > 0.0).then_some((
            ResKey {
                vm: GLOBAL_VM,
                kind: ResKind::Volume(Tier::ObjStore),
            },
            obj_ratio,
        )),
        rate_cap: s.rate_cap,
    }
}

impl RunningTask {
    /// Bind a template to a VM.
    pub fn bind(job: usize, vm: u32, template: &TaskTemplate) -> RunningTask {
        let stages = template.stages.iter().map(|s| bind_spec(vm, s)).collect();
        RunningTask {
            job,
            vm,
            slot: template.slot,
            stages,
            uid: 0,
            attempt: 1,
            backup_of: None,
            speculated: false,
            doom_units: None,
            template: None,
        }
    }

    /// The stage currently executing.
    #[inline]
    pub fn current(&self) -> Option<&BoundStage> {
        self.stages.front()
    }

    /// Mutable access to the current stage.
    #[inline]
    pub fn current_mut(&mut self) -> Option<&mut BoundStage> {
        self.stages.front_mut()
    }

    /// Whether all stages are complete.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.stages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use cast_cloud::tier::PerTier;
    use cast_cloud::units::DataSize;
    use cast_cloud::Catalog;

    fn registry() -> ShareRegistry {
        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(1000.0);
        let cfg = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 1, &agg).unwrap();
        ShareRegistry::new(&cfg)
    }

    fn spec() -> StageSpec {
        StageSpec {
            label: StageLabel::Map,
            fixed: 1.0,
            units: 100.0,
            read: Some((Tier::PersSsd, 1.0)),
            write: Some((Tier::PersSsd, 0.5)),
            net_ratio: 1.5,
            rate_cap: 50.0,
        }
    }

    #[test]
    fn bind_maps_tiers_to_keys() {
        let t = TaskTemplate {
            slot: SlotKind::Map,
            stages: vec![spec()],
        };
        let task = RunningTask::bind(3, 0, &t);
        let st = task.current().unwrap();
        assert!(st.is_latent());
        assert_eq!(st.read.unwrap().0.kind, ResKind::Volume(Tier::PersSsd));
        assert_eq!(st.net.unwrap().0.kind, ResKind::Nic);
        assert_eq!(task.job, 3);
    }

    #[test]
    fn rate_respects_cap_and_loads() {
        let mut reg = registry();
        let t = TaskTemplate {
            slot: SlotKind::Map,
            stages: vec![spec()],
        };
        let task = RunningTask::bind(0, 0, &t);
        let st = task.current().unwrap();
        // Unloaded resources: the 50 units/s cap wins.
        assert!((st.rate(&reg) - 50.0).abs() < 1e-9);
        // Congest the volume with 15 unit-weight flows plus this task's
        // own read (1.0) and write (0.5): load 16.5.
        let key = st.read.unwrap().0;
        for _ in 0..15 {
            reg.register(key, 1.0);
        }
        st.register(&mut reg);
        let expected = reg.capacity(key) / reg.load(key);
        assert!((st.rate(&reg) - expected).abs() < 1e-9);
        assert!((reg.load(key) - 16.5).abs() < 1e-12);
    }

    #[test]
    fn zero_units_stage_is_done_after_latency() {
        let mut s = spec();
        s.units = 0.0;
        s.fixed = 0.0;
        let t = TaskTemplate {
            slot: SlotKind::Transfer,
            stages: vec![s],
        };
        let task = RunningTask::bind(0, 0, &t);
        assert!(task.current().unwrap().is_done());
    }
}
