//! Iterative modulo scheduling (IMS) — a heuristic time-phase
//! alternative to the SMT search.
//!
//! Classic Rau-style IMS (the paper's reference [28], and the family
//! behind CRIMSON/PathSeeker in its related work): operations are
//! scheduled in priority order; when no legal slot exists, a conflicting
//! operation is evicted and rescheduled later, within a global budget.
//! This implementation additionally enforces the paper's **capacity**
//! and **connectivity** constraints at admission time, so a successful
//! heuristic schedule enjoys the same §IV-D monomorphism guarantee as an
//! SMT one — making "heuristic time + monomorphism space" a meaningful
//! hybrid (exercised by the `ablation` binary).
//!
//! Being heuristic, it can fail where the SMT search would succeed; the
//! mapper treats a failure like an UNSAT at that `(II, slack)` level.

use cgra_arch::OpClass;
use cgra_dfg::{Dfg, EdgeKind, NodeId};

use crate::{Mobility, TimeSolution, TimeSolverConfig};

/// Work budget multiplier: each node may be (re)scheduled this many
/// times before the attempt is abandoned.
const BUDGET_PER_NODE: usize = 32;

/// Attempts to find a modulo schedule for `dfg` at `ii` satisfying the
/// dependence, capacity and connectivity constraints of `config`, using
/// iterative modulo scheduling.
///
/// Returns `None` when the budget is exhausted (no completeness
/// guarantee — use [`crate::TimeSolver`] for an exact answer).
pub fn ims_schedule(dfg: &Dfg, ii: usize, config: &TimeSolverConfig) -> Option<TimeSolution> {
    if ii == 0 || config.capacity == 0 {
        return None;
    }
    let mobility = Mobility::compute(dfg).ok()?;
    let n = dfg.num_nodes();
    let lo: Vec<usize> = dfg.nodes().map(|v| mobility.asap(v)).collect();
    let hi: Vec<usize> = dfg
        .nodes()
        .map(|v| mobility.alap(v) + config.window_slack * ii)
        .collect();
    // Height-based priority: deeper (smaller ALAP slack) first.
    let height: Vec<usize> = dfg
        .nodes()
        .map(|v| mobility.length() - mobility.alap(v))
        .collect();

    let adj = dfg.adjacency();
    let neighbors: Vec<Vec<NodeId>> = dfg.nodes().map(|v| adj.undirected_neighbors(v)).collect();
    let classes: Vec<OpClass> = dfg.nodes().map(|v| dfg.op(v).op_class()).collect();

    let mut time: Vec<Option<usize>> = vec![None; n];
    let mut prev_time: Vec<Option<usize>> = vec![None; n];
    let mut budget = n.max(4) * BUDGET_PER_NODE;

    // Worklist ordered by (height desc, index) each round.
    loop {
        let next = (0..n)
            .filter(|&v| time[v].is_none())
            .max_by_key(|&v| (height[v], usize::MAX - v));
        let Some(v) = next else {
            break; // all scheduled
        };
        if budget == 0 {
            return None;
        }
        budget -= 1;

        // Earliest start from scheduled predecessors.
        let mut earliest = lo[v] as i64;
        for e in adj.in_edges(NodeId::from_index(v)) {
            if e.src.index() == v {
                continue;
            }
            if let Some(ts) = time[e.src.index()] {
                let bound = match e.kind {
                    EdgeKind::Data => ts as i64 + 1,
                    EdgeKind::LoopCarried { distance } => {
                        ts as i64 + 1 - (distance as i64) * (ii as i64)
                    }
                };
                earliest = earliest.max(bound);
            }
        }
        let start = earliest.max(lo[v] as i64) as usize;
        if start > hi[v] {
            // The window cannot satisfy the predecessors: evict the
            // latest predecessor and retry.
            let worst = adj
                .in_edges(NodeId::from_index(v))
                .filter(|e| e.src.index() != v)
                .filter_map(|e| time[e.src.index()].map(|t| (t, e.src.index())))
                .max();
            match worst {
                Some((_, u)) => {
                    time[u] = None;
                    continue;
                }
                None => return None, // window infeasible outright
            }
        }

        // Scan the whole remaining window for an admissible time.
        let mut placed = false;
        for t in start..=hi[v] {
            if admissible(dfg, &neighbors, &classes, &time, config, ii, v, t) {
                time[v] = Some(t);
                prev_time[v] = Some(t);
                placed = true;
                break;
            }
        }
        if placed {
            continue;
        }
        // Forced placement with eviction, IMS style: avoid re-forcing
        // the same spot by advancing past the previous choice (Rau).
        let forced = match prev_time[v] {
            Some(p) if start <= p => p + 1,
            _ => start,
        };
        let t = if forced > hi[v] { start } else { forced };
        time[v] = Some(t);
        prev_time[v] = Some(t);
        evict_conflicts(
            dfg, &neighbors, &classes, &mut time, config, ii, v, t, &height,
        );
    }

    // Final consistency pass (evictions guarantee local repairs; verify
    // globally before claiming success).
    let times: Vec<usize> = time.into_iter().collect::<Option<Vec<_>>>()?;
    let solution = TimeSolution::from_times(ii, times);
    if solution.validate(dfg, config).is_ok() {
        Some(solution)
    } else {
        None
    }
}

/// Would scheduling `v` at `t` keep every constraint satisfied?
#[allow(clippy::too_many_arguments)]
fn admissible(
    dfg: &Dfg,
    neighbors: &[Vec<NodeId>],
    classes: &[OpClass],
    time: &[Option<usize>],
    config: &TimeSolverConfig,
    ii: usize,
    v: usize,
    t: usize,
) -> bool {
    let slot = t % ii;
    // Dependences against *all* scheduled partners (succs included —
    // IMS schedules in priority order but windows overlap).
    for e in dfg.edges() {
        if e.src == e.dst {
            continue;
        }
        let (u, w) = (e.src.index(), e.dst.index());
        let (ts, td) = if u == v {
            match time[w] {
                Some(td) => (t as i64, td as i64),
                None => continue,
            }
        } else if w == v {
            match time[u] {
                Some(ts) => (ts as i64, t as i64),
                None => continue,
            }
        } else {
            continue;
        };
        let ok = match e.kind {
            EdgeKind::Data => td > ts,
            EdgeKind::LoopCarried { distance } => td >= ts + 1 - (distance as i64) * (ii as i64),
        };
        if !ok {
            return false;
        }
    }
    // Capacity: total, then v's operation class on restricted grids.
    if config.capacity_constraints {
        let count = time
            .iter()
            .enumerate()
            .filter(|&(u, tu)| u != v && tu.map(|x| x % ii) == Some(slot))
            .count();
        if count + 1 > config.capacity {
            return false;
        }
        if let Some(&(_, cap)) = config
            .class_capacities
            .iter()
            .find(|&&(class, _)| class == classes[v])
        {
            let count = time
                .iter()
                .enumerate()
                .filter(|&(u, tu)| {
                    u != v && classes[u] == classes[v] && tu.map(|x| x % ii) == Some(slot)
                })
                .count();
            if count + 1 > cap {
                return false;
            }
        }
    }
    // Connectivity: this placement adds v to S_u^slot for each
    // neighbour u.
    if config.connectivity_constraints {
        for &u in &neighbors[v] {
            let count = neighbors[u.index()]
                .iter()
                .filter(|&&w| w.index() != v && time[w.index()].map(|x| x % ii) == Some(slot))
                .count()
                + 1;
            let bound =
                if config.strict_connectivity && time[u.index()].map(|x| x % ii) == Some(slot) {
                    config.degree - 1
                } else {
                    config.degree
                };
            if count > bound {
                return false;
            }
        }
        // And v's own row must already hold (it does not depend on t,
        // but check the slot where strictness may newly bind).
        if config.strict_connectivity {
            let count = neighbors[v]
                .iter()
                .filter(|&&w| time[w.index()].map(|x| x % ii) == Some(slot))
                .count();
            if count > config.degree - 1 {
                return false;
            }
        }
    }
    true
}

/// After a forced placement of `v` at `t`, unschedule the cheapest
/// conflicting operations (lowest height first).
#[allow(clippy::too_many_arguments)]
fn evict_conflicts(
    dfg: &Dfg,
    neighbors: &[Vec<NodeId>],
    classes: &[OpClass],
    time: &mut [Option<usize>],
    config: &TimeSolverConfig,
    ii: usize,
    v: usize,
    t: usize,
    height: &[usize],
) {
    let slot = t % ii;
    // Dependence violations involving v.
    let mut to_evict: Vec<usize> = Vec::new();
    for e in dfg.edges() {
        if e.src == e.dst {
            continue;
        }
        let (u, w) = (e.src.index(), e.dst.index());
        let other = if u == v {
            w
        } else if w == v {
            u
        } else {
            continue;
        };
        let Some(to) = time[other] else { continue };
        let (ts, td) = if u == v {
            (t as i64, to as i64)
        } else {
            (to as i64, t as i64)
        };
        let ok = match e.kind {
            EdgeKind::Data => td > ts,
            EdgeKind::LoopCarried { distance } => td >= ts + 1 - (distance as i64) * (ii as i64),
        };
        if !ok {
            to_evict.push(other);
        }
    }
    // Capacity overflow in v's slot: evict lowest-height co-residents.
    if config.capacity_constraints {
        let mut residents: Vec<usize> = (0..time.len())
            .filter(|&u| u != v && time[u].map(|x| x % ii) == Some(slot))
            .collect();
        residents.sort_by_key(|&u| height[u]);
        let overflow = (residents.len() + 1).saturating_sub(config.capacity);
        to_evict.extend(residents.into_iter().take(overflow));
        // Per-class overflow on restricted grids: evict same-class
        // co-residents beyond the class's provider count.
        if let Some(&(_, cap)) = config
            .class_capacities
            .iter()
            .find(|&&(class, _)| class == classes[v])
        {
            let mut same_class: Vec<usize> = (0..time.len())
                .filter(|&u| {
                    u != v && classes[u] == classes[v] && time[u].map(|x| x % ii) == Some(slot)
                })
                .collect();
            same_class.sort_by_key(|&u| height[u]);
            let overflow = (same_class.len() + 1).saturating_sub(cap);
            to_evict.extend(same_class.into_iter().take(overflow));
        }
    }
    // Connectivity overflow around v's neighbours.
    if config.connectivity_constraints {
        for &u in &neighbors[v] {
            let mut same_slot: Vec<usize> = neighbors[u.index()]
                .iter()
                .map(|w| w.index())
                .filter(|&w| w != v && time[w].map(|x| x % ii) == Some(slot))
                .collect();
            same_slot.sort_by_key(|&w| height[w]);
            let overflow = (same_slot.len() + 1).saturating_sub(config.degree);
            to_evict.extend(same_slot.into_iter().take(overflow));
        }
    }
    for u in to_evict {
        time[u] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Cgra;
    use cgra_dfg::examples::{accumulator, running_example};
    use monomap_frontend::suite;

    fn cfg(size: usize) -> TimeSolverConfig {
        TimeSolverConfig::for_cgra(&Cgra::new(size, size).unwrap())
    }

    #[test]
    fn running_example_at_mii_with_slack() {
        // At slack 0 the instance is razor tight (14 nodes in 16 cells,
        // singleton windows) and greedy IMS legitimately fails where
        // the exact SMT search succeeds — the motivating gap for
        // CRIMSON-style randomised scheduling. One slack level is
        // enough for IMS.
        let dfg = running_example();
        let tight = cfg(2);
        assert!(ims_schedule(&dfg, 4, &tight).is_none());
        let config = cfg(2).with_window_slack(1);
        let sol = ims_schedule(&dfg, 4, &config).expect("IMS schedules with slack 1");
        sol.validate(&dfg, &config).unwrap();
        assert_eq!(sol.ii(), 4);
    }

    #[test]
    fn accumulator_at_two() {
        let dfg = accumulator();
        let config = cfg(2);
        let sol = ims_schedule(&dfg, 2, &config).expect("IMS schedules the accumulator");
        sol.validate(&dfg, &config).unwrap();
    }

    #[test]
    fn below_mii_fails_cleanly() {
        let dfg = running_example();
        let config = cfg(2);
        assert!(ims_schedule(&dfg, 3, &config).is_none());
    }

    #[test]
    fn suite_kernels_schedule_on_5x5() {
        // IMS should succeed at (or near) mII for most suite kernels.
        let cgra = Cgra::new(5, 5).unwrap();
        let config = TimeSolverConfig::for_cgra(&cgra).with_window_slack(1);
        let mut ok = 0;
        for name in suite::names() {
            let dfg = suite::generate(name);
            let mii = crate::min_ii(&dfg, &cgra);
            for ii in mii..mii + 4 {
                if let Some(sol) = ims_schedule(&dfg, ii, &config) {
                    sol.validate(&dfg, &config).unwrap();
                    ok += 1;
                    break;
                }
            }
        }
        assert!(ok >= 14, "IMS scheduled only {ok}/17 kernels within mII+3");
    }

    #[test]
    fn respects_capacity_with_slack() {
        // Eight independent nodes, capacity 4: needs slot spreading.
        let mut b = cgra_dfg::DfgBuilder::new();
        for i in 0..8 {
            b.input(format!("x{i}"));
        }
        let dfg = b.build().unwrap();
        let config = cfg(2).with_window_slack(1);
        let sol = ims_schedule(&dfg, 2, &config).expect("slack allows spreading");
        sol.validate(&dfg, &config).unwrap();
    }

    #[test]
    fn zero_ii_rejected() {
        let dfg = accumulator();
        assert!(ims_schedule(&dfg, 0, &cfg(2)).is_none());
    }

    #[test]
    fn respects_class_capacity_on_heterogeneous_grids() {
        use cgra_arch::CapabilityProfile;
        // Four loads on a 2×2 with one memory column (2 memory PEs):
        // IMS must never pack more than two loads into one slot.
        let mut b = cgra_dfg::DfgBuilder::new();
        let x = b.input("x");
        for i in 0..4 {
            b.load(format!("ld{i}"), x);
        }
        let dfg = b.build().unwrap();
        let het = Cgra::new(2, 2)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        let config = TimeSolverConfig::for_cgra(&het).with_window_slack(2);
        let sol = ims_schedule(&dfg, 2, &config).expect("two slots × two memory PEs fit");
        sol.validate(&dfg, &config).unwrap();
        for slot in 0..2 {
            let mem = dfg
                .nodes()
                .filter(|&v| dfg.op(v).is_memory() && sol.slot(v) == slot)
                .count();
            assert!(mem <= 2, "slot {slot} packs {mem} loads on 2 memory PEs");
        }
    }
}
