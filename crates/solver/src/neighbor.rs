//! Neighbour generation for the annealing search.
//!
//! A neighbour of a plan differs in one job's assignment: either the tier
//! flips to another service, or the over-provisioning factor is nudged
//! along a geometric grid. When reuse groups are active (CAST++), a tier
//! flip applies to the whole group so Eq. 7 stays satisfied by
//! construction.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;

use cast_cloud::tier::Tier;
use cast_workload::job::JobId;

use crate::plan::Assignment;

/// Over-provisioning grid explored by the solver. Factor 1 = exact fit
/// (Eq. 3 floor); larger factors buy bandwidth on capacity-scaled tiers.
pub const OVERPROV_GRID: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Generates neighbours of the current plan.
///
/// Jobs are addressed by their *position* in the generator's job list:
/// moves name positions, the current assignments are queried by position,
/// and [`NeighborGen::job`] maps a position back to its [`JobId`]. The
/// annealer builds its generator in spec order, so positions are also
/// [`IncrementalEval`](crate::IncrementalEval) indices.
#[derive(Debug, Clone)]
pub struct NeighborGen {
    /// Jobs that may be mutated, in mutation order.
    jobs: Vec<JobId>,
    /// The cohort of each position (its reuse group, or just itself) as a
    /// `start..end` span of `members`.
    cohorts: Vec<(usize, usize)>,
    /// Cohort member positions; each reuse group is stored once.
    members: Vec<usize>,
}

impl NeighborGen {
    /// Build a generator over `jobs`; `groups` lists reuse groups (may be
    /// empty when reuse awareness is off). Mutating any member re-tiers its
    /// whole group; a job in several groups moves with the first, and group
    /// members outside `jobs` are never moved.
    pub fn new(jobs: Vec<JobId>, groups: Vec<Vec<JobId>>) -> NeighborGen {
        let mut group_of: Vec<Option<(usize, usize)>> = vec![None; jobs.len()];
        let mut members = Vec::new();
        if !groups.is_empty() {
            let mut pos_of: HashMap<JobId, usize> = HashMap::with_capacity(jobs.len());
            for (p, &j) in jobs.iter().enumerate() {
                pos_of.entry(j).or_insert(p);
            }
            for group in &groups {
                let start = members.len();
                members.extend(group.iter().filter_map(|j| pos_of.get(j).copied()));
                let span = (start, members.len());
                for &m in &members[start..] {
                    group_of[m].get_or_insert(span);
                }
            }
        }
        let cohorts = group_of
            .into_iter()
            .enumerate()
            .map(|(p, span)| {
                span.unwrap_or_else(|| {
                    members.push(p);
                    (members.len() - 1, members.len())
                })
            })
            .collect();
        NeighborGen {
            jobs,
            cohorts,
            members,
        }
    }

    /// The job at position `pos`.
    pub fn job(&self, pos: usize) -> JobId {
        self.jobs[pos]
    }

    /// Propose a random move against the current assignments (queried by
    /// position via `current`), writing the changed `(position, new
    /// assignment)` pairs into `out`. The job mutated is the one at
    /// `cursor` (CAST++'s DFS traversal) or a random one when `cursor` is
    /// `None`.
    ///
    /// A move that would leave every assignment bit-for-bit as it is — an
    /// over-provisioning nudge past the edge of [`OVERPROV_GRID`] — is
    /// emitted as an empty `out`, so the caller can reuse the current
    /// score. The RNG draws depend only on the current assignments, never
    /// on whether the move turns out empty.
    pub fn propose(
        &self,
        current: impl Fn(usize) -> Option<Assignment>,
        rng: &mut StdRng,
        cursor: Option<usize>,
        out: &mut Vec<(usize, Assignment)>,
    ) {
        out.clear();
        if self.jobs.is_empty() {
            return;
        }
        let pos = cursor.unwrap_or_else(|| rng.gen_range(0..self.jobs.len())) % self.jobs.len();
        let Some(now) = current(pos) else {
            return;
        };
        // Half the moves flip the tier (jointly drawing a fresh capacity
        // factor — tier and provisioning are coupled decisions: a job
        // moved to a capacity-scaled tier at exact-fit capacity may be
        // starved, and the two-step path through that valley is hard for
        // the annealer to cross), half nudge the capacity factor alone.
        if rng.gen_bool(0.5) {
            let n = rng.gen_range(0..Tier::ALL.len() - 1);
            let tier = Tier::ALL
                .iter()
                .copied()
                .filter(|&t| t != now.tier)
                .nth(n)
                .expect("three non-current tiers");
            let overprov = OVERPROV_GRID[rng.gen_range(0..OVERPROV_GRID.len())];
            let (start, end) = self.cohorts[pos];
            for &member in &self.members[start..end] {
                if current(member).is_some() {
                    out.push((member, Assignment { tier, overprov }));
                }
            }
        } else {
            let step = OVERPROV_GRID
                .iter()
                .position(|&f| (f - now.overprov).abs() < 1e-9)
                .unwrap_or(0);
            let next_step = if rng.gen_bool(0.5) {
                (step + 1).min(OVERPROV_GRID.len() - 1)
            } else {
                step.saturating_sub(1)
            };
            let overprov = OVERPROV_GRID[next_step];
            if overprov.to_bits() != now.overprov.to_bits() {
                out.push((
                    pos,
                    Assignment {
                        tier: now.tier,
                        overprov,
                    },
                ));
            }
        }
    }

    /// Number of mutable jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether there is nothing to mutate.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Apply one proposal to a positional assignment vector, returning
    /// the positions it changed.
    fn step(
        gen: &NeighborGen,
        plan: &mut [Assignment],
        rng: &mut StdRng,
        cursor: Option<usize>,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        gen.propose(|p| plan.get(p).copied(), rng, cursor, &mut out);
        for &(p, a) in &out {
            plan[p] = a;
        }
        out.iter().map(|&(p, _)| p).collect()
    }

    fn ids(n: u32) -> Vec<JobId> {
        (0..n).map(JobId).collect()
    }

    #[test]
    fn neighbor_differs_in_exactly_one_cohort() {
        let gen = NeighborGen::new(ids(3), vec![]);
        let mut p = vec![Assignment::exact(Tier::PersSsd); 3];
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let before = p.clone();
            let moved = step(&gen, &mut p, &mut rng, None);
            assert!(moved.len() <= 1, "one-job mutation, got {moved:?}");
            let changed = (0..3).filter(|&i| p[i] != before[i]).count();
            assert_eq!(changed, moved.len(), "every emitted change is real");
        }
    }

    #[test]
    fn group_moves_together() {
        let gen = NeighborGen::new(ids(3), vec![vec![JobId(0), JobId(1)]]);
        let mut p = vec![Assignment::exact(Tier::PersSsd); 3];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            step(&gen, &mut p, &mut rng, None);
            assert_eq!(p[0].tier, p[1].tier, "reuse group must stay on one tier");
        }
    }

    #[test]
    fn cohorts_follow_group_membership_not_position() {
        // Job 3 sits at position 0; its group partner job 1 at position 2.
        let gen = NeighborGen::new(
            vec![JobId(3), JobId(0), JobId(1)],
            vec![vec![JobId(1), JobId(3)], vec![JobId(9)]],
        );
        assert_eq!(gen.job(0), JobId(3));
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(2);
        let plan = [Assignment::exact(Tier::PersHdd); 3];
        let mut saw_flip = false;
        for _ in 0..64 {
            gen.propose(|p| plan.get(p).copied(), &mut rng, Some(0), &mut out);
            if out.len() > 1 {
                let moved: Vec<usize> = out.iter().map(|&(p, _)| p).collect();
                assert_eq!(moved, vec![2, 0], "group order, positions only");
                saw_flip = true;
            }
        }
        assert!(saw_flip);
    }

    #[test]
    fn factors_stay_on_grid_and_above_one() {
        let gen = NeighborGen::new(ids(1), vec![]);
        let mut p = vec![Assignment::exact(Tier::PersSsd)];
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            step(&gen, &mut p, &mut rng, None);
            let f = p[0].overprov;
            assert!(OVERPROV_GRID.contains(&f), "off-grid factor {f}");
        }
    }

    #[test]
    fn nudge_past_the_grid_edge_is_an_empty_move() {
        let gen = NeighborGen::new(ids(1), vec![]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = Vec::new();
        let (mut empty, mut nonempty) = (0, 0);
        for edge in [OVERPROV_GRID[0], OVERPROV_GRID[OVERPROV_GRID.len() - 1]] {
            let a = Assignment {
                tier: Tier::PersSsd,
                overprov: edge,
            };
            for _ in 0..200 {
                gen.propose(|_| Some(a), &mut rng, None, &mut out);
                if out.is_empty() {
                    empty += 1;
                } else {
                    nonempty += 1;
                    assert_ne!(out[0].1, a, "a non-empty move changes something");
                }
            }
        }
        assert!(empty > 0 && nonempty > 0, "{empty} empty, {nonempty} not");
    }

    #[test]
    fn off_grid_factor_nudges_onto_the_grid() {
        let gen = NeighborGen::new(ids(1), vec![]);
        let a = Assignment {
            tier: Tier::PersSsd,
            overprov: 1.5,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = Vec::new();
        for _ in 0..50 {
            gen.propose(|_| Some(a), &mut rng, None, &mut out);
            assert_eq!(out.len(), 1, "an off-grid factor always moves");
            assert!(OVERPROV_GRID.contains(&out[0].1.overprov));
        }
    }

    #[test]
    fn cursor_targets_specific_job() {
        let gen = NeighborGen::new(ids(2), vec![]);
        let mut p = vec![Assignment::exact(Tier::PersSsd); 2];
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let moved = step(&gen, &mut p, &mut rng, Some(1));
            assert!(moved.iter().all(|&pos| pos == 1), "only job 1 may change");
        }
    }

    #[test]
    fn empty_generator_proposes_nothing() {
        let gen = NeighborGen::new(vec![], vec![]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = vec![(0, Assignment::exact(Tier::PersSsd))];
        gen.propose(|_| None, &mut rng, None, &mut out);
        assert!(out.is_empty());
    }
}
