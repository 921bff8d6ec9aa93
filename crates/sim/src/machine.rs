//! Cycle-accurate functional execution of a mapping on the CGRA.

use std::collections::BTreeMap;

use cgra_arch::{Cgra, PeId};
use cgra_dfg::{Dfg, EdgeKind, NodeId, Operation};
use monomap_core::Mapping;

use crate::{ExecRecord, MemoryReorder, SimEnv, SimError};

/// Executes a [`Mapping`] on the modelled CGRA.
///
/// Each node instance `(v, k)` runs on `mapping.pe(v)` at machine cycle
/// `mapping.time(v) + k · II` (software pipelining: consecutive
/// iterations start `II` cycles apart). Before anything executes,
///
/// * every node's PE is checked to provide the operation's
///   functional-unit class (heterogeneous grids), and
/// * every dependence is checked to have a real shortest path of at
///   most the route bound on the concrete topology — measured by an
///   independent BFS over the raw link offsets, not the mapper's
///   cached reachability masks;
///
/// and every operand read checks that the producing instance already
/// executed (schedule timing).
///
/// Memory operations execute in machine-cycle order (ties broken by
/// iteration, then data-flow order). Same-word accesses that this order
/// runs opposite to the interpreter's are recorded in
/// [`ExecRecord::reorders`] (see the crate docs).
#[derive(Clone, Debug)]
pub struct MachineSimulator<'a> {
    cgra: &'a Cgra,
    dfg: &'a Dfg,
    mapping: &'a Mapping,
    max_route_hops: usize,
}

impl<'a> MachineSimulator<'a> {
    /// Prepares a simulator for one mapping, accepting routes up to the
    /// mapping's own declared bound
    /// ([`Mapping::declared_route_bound`]): one hop for classic
    /// mappings, the longest recorded route for routed ones.
    pub fn new(cgra: &'a Cgra, dfg: &'a Dfg, mapping: &'a Mapping) -> Self {
        let max_route_hops = mapping.declared_route_bound();
        MachineSimulator {
            cgra,
            dfg,
            mapping,
            max_route_hops,
        }
    }

    /// Overrides the route bound, e.g. to re-check a routed mapping
    /// against the strict one-hop architectural assumption.
    ///
    /// # Panics
    ///
    /// Panics when `max_route_hops` is zero.
    #[must_use]
    pub fn with_max_route_hops(mut self, max_route_hops: usize) -> Self {
        assert!(max_route_hops >= 1, "route bound must be at least one hop");
        self.max_route_hops = max_route_hops;
        self
    }

    /// Shortest-path link distances from `src` to every PE, by BFS over
    /// the raw [`cgra_arch::Topology`] offsets. Deliberately re-derived
    /// from first principles rather than read from the arch crate's
    /// precomputed reachability tiers, so the simulator second-guesses
    /// the mapper's routing model instead of trusting it.
    fn route_distances(&self, src: PeId) -> Vec<Option<usize>> {
        let (rows, cols) = (self.cgra.rows() as i32, self.cgra.cols() as i32);
        let topology = self.cgra.topology();
        let mut dist = vec![None; self.cgra.num_pes()];
        dist[src.index()] = Some(0);
        let mut frontier = vec![src.index()];
        let mut next = Vec::new();
        let mut hops = 0usize;
        while !frontier.is_empty() {
            hops += 1;
            for &p in &frontier {
                let (r, c) = (p as i32 / cols, p as i32 % cols);
                for &(dr, dc) in topology.offsets() {
                    let (mut nr, mut nc) = (r + dr, c + dc);
                    if topology.wraps() {
                        nr = nr.rem_euclid(rows);
                        nc = nc.rem_euclid(cols);
                    } else if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
                        continue;
                    }
                    let q = (nr * cols + nc) as usize;
                    if dist[q].is_none() {
                        dist[q] = Some(hops);
                        next.push(q);
                    }
                }
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        dist
    }

    /// Runs `iterations` pipelined iterations.
    ///
    /// # Errors
    ///
    /// [`SimError::OperandNotReady`], [`SimError::RouteTooLong`] or
    /// [`SimError::IncapablePe`] pinpoint mapping bugs; all are
    /// impossible for mappings that pass [`Mapping::validate_routed`]
    /// under the simulator's route bound.
    pub fn run(&self, env: &SimEnv, iterations: usize) -> Result<ExecRecord, SimError> {
        let dfg = self.dfg;
        let n = dfg.num_nodes();
        let ii = self.mapping.ii();
        // Heterogeneity: a PE only executes instructions its functional
        // units cover. Checked once per node up front (every iteration
        // instance runs on the same PE), independently of the mapper,
        // so a mapper bug that ignores capabilities cannot go unnoticed
        // here — and is reported before any store mutates memory.
        for v in dfg.nodes() {
            let pe = self.mapping.pe(v);
            let class = dfg.op(v).op_class();
            if !self.cgra.supports(pe, class) {
                return Err(SimError::IncapablePe { node: v, pe, class });
            }
        }
        // Routing: every dependence must have a real shortest path of
        // at most `max_route_hops` links on the concrete topology
        // (same-PE values are held in the producer's own register
        // file). Distances come from an independent BFS (see
        // [`Self::route_distances`]); like the capability check, this
        // refuses the mapping before any store mutates memory.
        let mut dist_cache: BTreeMap<usize, Vec<Option<usize>>> = BTreeMap::new();
        for e in dfg.edges() {
            let (ps, pd) = (self.mapping.pe(e.src), self.mapping.pe(e.dst));
            if e.src == e.dst || ps == pd {
                continue;
            }
            let dist = dist_cache
                .entry(ps.index())
                .or_insert_with(|| self.route_distances(ps));
            let hops = dist[pd.index()];
            if hops.is_none_or(|h| h > self.max_route_hops) {
                return Err(SimError::RouteTooLong {
                    src: e.src,
                    dst: e.dst,
                    hops,
                    max: self.max_route_hops,
                });
            }
        }
        let topo = dfg.topo_order().map_err(|_| SimError::MalformedNode {
            node: NodeId::from_index(0),
        })?;
        let mut topo_pos = vec![0usize; n];
        for (i, &v) in topo.iter().enumerate() {
            topo_pos[v.index()] = i;
        }

        // Event list: (cycle, iteration, topo position, node).
        let mut events: Vec<(usize, usize, usize, NodeId)> = Vec::with_capacity(n * iterations);
        for k in 0..iterations {
            for v in dfg.nodes() {
                let cycle = self.mapping.time(v) + k * ii;
                events.push((cycle, k, topo_pos[v.index()], v));
            }
        }
        events.sort_unstable();

        // values[k][v] with a computed flag.
        let mut values: Vec<Vec<Option<i64>>> = vec![vec![None; n]; iterations];
        let mut memory = env.memory.clone();
        let mut outputs = BTreeMap::new();
        let mut last_cycle = 0usize;
        // Per word: the access latest in interpreter order `(iteration,
        // topological position, node)` run so far — among stores, and
        // among all accesses. A load behind a later store, or a store
        // behind any later access, ran out of order.
        type Access = (usize, usize, NodeId);
        let mut latest: BTreeMap<usize, (Option<Access>, Access)> = BTreeMap::new();
        let mut reorders = Vec::new();

        for (cycle, k, pos, v) in events {
            last_cycle = cycle;
            let op = dfg.op(v);
            let arity = op.arity();
            let mut operands = vec![None; arity];
            let mut lc_initial = false;
            for e in dfg.in_edges(v) {
                let slot = e.operand as usize;
                if slot >= arity {
                    return Err(SimError::MalformedNode { node: v });
                }
                let (src_iter, available) = match e.kind {
                    EdgeKind::Data => (Some(k), true),
                    EdgeKind::LoopCarried { distance } => {
                        let d = distance as usize;
                        if k >= d {
                            (Some(k - d), true)
                        } else {
                            (None, false)
                        }
                    }
                };
                if !available {
                    lc_initial = true;
                    continue;
                }
                let src_iter = src_iter.expect("available implies an iteration");
                // Timing: the producer must have executed already.
                // (Register-file reachability — the paper's mono3 /
                // routing validity — was checked up front.)
                let val = values[src_iter][e.src.index()].ok_or(SimError::OperandNotReady {
                    node: v,
                    iteration: k,
                })?;
                // Producer's cycle must be strictly earlier (same-cycle
                // register reads would need a bypass network).
                let src_cycle = self.mapping.time(e.src) + src_iter * ii;
                if src_cycle >= cycle {
                    return Err(SimError::OperandNotReady {
                        node: v,
                        iteration: k,
                    });
                }
                operands[slot] = Some(val);
            }

            let value = match op {
                Operation::Const(c) => c,
                Operation::Input(ch) => env.input(ch, k),
                Operation::Phi(init) => {
                    if lc_initial {
                        init
                    } else {
                        operands[0].ok_or(SimError::MalformedNode { node: v })?
                    }
                }
                Operation::Load | Operation::Store => {
                    let addr = operands[0].ok_or(SimError::MalformedNode { node: v })?;
                    let address = env.wrap(addr);
                    let access = (k, pos, v);
                    let is_store = op == Operation::Store;
                    let (store, any) = latest.entry(address).or_insert((None, access));
                    let ahead = if is_store { Some(*any) } else { *store };
                    if let Some((early_k, _, early)) = ahead.filter(|&a| a > access) {
                        reorders.push(MemoryReorder {
                            address,
                            early: (early, early_k),
                            late: (v, k),
                        });
                    }
                    *any = (*any).max(access);
                    if is_store {
                        *store = (*store).max(Some(access));
                        let val = operands[1].ok_or(SimError::MalformedNode { node: v })?;
                        memory[address] = val;
                        val
                    } else {
                        memory[address]
                    }
                }
                pure => {
                    let ops: Option<Vec<i64>> = operands.into_iter().collect();
                    let ops = ops.ok_or(SimError::MalformedNode { node: v })?;
                    pure.eval_pure(&ops)
                }
            };
            values[k][v.index()] = Some(value);
            if op == Operation::Output {
                outputs.insert((v.index(), k), value);
            }
        }

        Ok(ExecRecord {
            outputs,
            memory,
            cycles: last_cycle + 1,
            reorders,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret;
    use cgra_dfg::examples::{accumulator, running_example, stream_scale};
    use monomap_core::{DecoupledMapper, Placement};

    fn map_on(cgra: &Cgra, dfg: &Dfg) -> Mapping {
        DecoupledMapper::new(cgra).map(dfg).unwrap().mapping
    }

    #[test]
    fn accumulator_machine_matches_reference() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = accumulator();
        let mapping = map_on(&cgra, &dfg);
        let env = SimEnv::new(4).with_input_stream(vec![5, -2, 7, 1, 9]);
        let reference = interpret(&dfg, &env, 5).unwrap();
        let machine = MachineSimulator::new(&cgra, &dfg, &mapping)
            .run(&env, 5)
            .unwrap();
        assert_eq!(reference.outputs, machine.outputs);
        assert_eq!(reference.memory, machine.memory);
        assert!(machine.cycles >= 5 * mapping.ii());
    }

    #[test]
    fn stream_scale_machine_matches_reference() {
        let cgra = Cgra::new(3, 3).unwrap();
        let dfg = stream_scale();
        let mapping = map_on(&cgra, &dfg);
        let env = SimEnv::new(16).with_memory((0..16).map(|i| i as i64 * 7).collect());
        let reference = interpret(&dfg, &env, 8).unwrap();
        let machine = MachineSimulator::new(&cgra, &dfg, &mapping)
            .run(&env, 8)
            .unwrap();
        assert_eq!(reference.outputs, machine.outputs);
        assert_eq!(reference.memory, machine.memory);
    }

    #[test]
    fn running_example_machine_matches_reference() {
        // Inputs chosen so load addresses (0..16) and store addresses
        // (wrapped complements, 48..63) never alias — see crate docs.
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = running_example();
        let mapping = map_on(&cgra, &dfg);
        let env = SimEnv::new(64)
            .with_memory((0..64).map(|i| i as i64).collect())
            .with_input_stream(vec![3, 7, 11, 15]) // in0: load addrs
            .with_input_stream(vec![2, 4, 6, 8]) // in1
            .with_input_stream(vec![1, 5, 9, 13]); // in2
        let reference = interpret(&dfg, &env, 4).unwrap();
        let machine = MachineSimulator::new(&cgra, &dfg, &mapping)
            .run(&env, 4)
            .unwrap();
        assert_eq!(reference.outputs, machine.outputs);
        assert_eq!(reference.memory, machine.memory);
    }

    #[test]
    fn corrupted_placement_is_caught() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = accumulator();
        let good = map_on(&cgra, &dfg);
        // Move one node to a diagonal (unreachable) PE.
        let mut placements: Vec<Placement> = good.placements().to_vec();
        // Node 2 (sum) consumes node 0 (x) and node 1 (phi): put sum on
        // the PE diagonal from x's.
        let x_pe = placements[0].pe.index();
        let diag = match x_pe {
            0 => 3,
            3 => 0,
            1 => 2,
            _ => 1,
        };
        placements[2] = Placement {
            pe: cgra_arch::PeId::from_index(diag),
            ..placements[2]
        };
        let bad = Mapping::new("bad", good.ii(), placements);
        let env = SimEnv::new(4).with_input_stream(vec![1, 2]);
        let err = MachineSimulator::new(&cgra, &dfg, &bad)
            .run(&env, 2)
            .unwrap_err();
        // The diagonal pair is two links apart on the 2x2 torus; the
        // independent BFS refuses it under the default one-hop bound.
        assert!(matches!(
            err,
            SimError::RouteTooLong {
                hops: Some(2),
                max: 1,
                ..
            }
        ));
    }

    #[test]
    fn widened_route_bound_accepts_the_two_hop_placement() {
        // The same diagonal "corruption" is a legal placement under a
        // two-hop routing model: the run must succeed and still match
        // the reference interpreter (timing is untouched).
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = accumulator();
        let good = map_on(&cgra, &dfg);
        let mut placements: Vec<Placement> = good.placements().to_vec();
        let x_pe = placements[0].pe.index();
        let diag = match x_pe {
            0 => 3,
            3 => 0,
            1 => 2,
            _ => 1,
        };
        placements[2] = Placement {
            pe: cgra_arch::PeId::from_index(diag),
            ..placements[2]
        };
        let routed = Mapping::new(dfg.name().to_string(), good.ii(), placements);
        let env = SimEnv::new(4).with_input_stream(vec![5, -2, 7, 1]);
        let reference = interpret(&dfg, &env, 4).unwrap();
        let machine = MachineSimulator::new(&cgra, &dfg, &routed)
            .with_max_route_hops(2)
            .run(&env, 4)
            .unwrap();
        assert_eq!(reference.outputs, machine.outputs);
        assert_eq!(reference.memory, machine.memory);
    }

    #[test]
    fn declared_route_bound_is_honoured_by_default() {
        // A routed mapping carries its own bound in `route_hops`; the
        // simulator picks it up without an explicit override.
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = accumulator();
        let good = map_on(&cgra, &dfg);
        let mut placements: Vec<Placement> = good.placements().to_vec();
        let x_pe = placements[0].pe.index();
        let diag = match x_pe {
            0 => 3,
            3 => 0,
            1 => 2,
            _ => 1,
        };
        placements[2] = Placement {
            pe: cgra_arch::PeId::from_index(diag),
            ..placements[2]
        };
        let routed = Mapping::new(dfg.name().to_string(), good.ii(), placements)
            .with_route_hops(vec![2; dfg.num_edges()]);
        let env = SimEnv::new(4).with_input_stream(vec![1, 2]);
        MachineSimulator::new(&cgra, &dfg, &routed)
            .run(&env, 2)
            .unwrap();
    }

    #[test]
    fn corrupted_timing_is_caught() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = accumulator();
        let good = map_on(&cgra, &dfg);
        let mut placements = good.placements().to_vec();
        // Make the consumer run before its producer.
        let src_time = placements[0].time;
        placements[2] = Placement {
            time: src_time, // same cycle as its operand: not ready
            slot: src_time % good.ii(),
            ..placements[2]
        };
        let bad = Mapping::new("bad", good.ii(), placements);
        let env = SimEnv::new(4).with_input_stream(vec![1]);
        let err = MachineSimulator::new(&cgra, &dfg, &bad)
            .run(&env, 1)
            .unwrap_err();
        assert!(matches!(err, SimError::OperandNotReady { .. }));
    }

    #[test]
    fn heterogeneous_mapping_executes_and_matches_reference() {
        use cgra_arch::CapabilityProfile;
        let cgra = Cgra::new(3, 3)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard);
        let dfg = stream_scale();
        let mapping = map_on(&cgra, &dfg);
        let env = SimEnv::new(16).with_memory((0..16).map(|i| i as i64 * 7).collect());
        let reference = interpret(&dfg, &env, 8).unwrap();
        let machine = MachineSimulator::new(&cgra, &dfg, &mapping)
            .run(&env, 8)
            .unwrap();
        assert_eq!(reference.outputs, machine.outputs);
        assert_eq!(reference.memory, machine.memory);
    }

    #[test]
    fn incapable_pe_is_refused() {
        use cgra_arch::{OpClass, OpClassSet, PeId};
        // Map on a homogeneous grid, then re-run the same mapping on a
        // grid where the load's PE lost its memory port: the simulator
        // must refuse to execute the load there.
        let cgra = Cgra::new(3, 3).unwrap();
        let dfg = stream_scale();
        let mapping = map_on(&cgra, &dfg);
        let load_node = dfg
            .nodes()
            .find(|&v| dfg.op(v) == cgra_dfg::Operation::Load)
            .unwrap();
        let load_pe = mapping.pe(load_node);
        let mut caps = vec![OpClassSet::all(); 9];
        caps[load_pe.index()] = OpClassSet::only(OpClass::Alu).with(OpClass::Mul);
        let stripped = Cgra::new(3, 3).unwrap().with_pe_capabilities(caps).unwrap();
        let err = MachineSimulator::new(&stripped, &dfg, &mapping)
            .run(&SimEnv::new(16), 2)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::IncapablePe {
                node: load_node,
                pe: PeId::from_index(load_pe.index()),
                class: OpClass::Mem
            }
        );
    }

    #[test]
    fn overlapped_same_word_accesses_are_reported_as_reorders() {
        // mem[a] = mem[a] + 1 at II 1: iteration 1's load (cycle 2)
        // runs before iteration 0's store (cycle 3) to the same word,
        // so the machine reads the stale value.
        use cgra_dfg::DfgBuilder;
        let mut b = DfgBuilder::new();
        let a = b.input("a");
        let ld = b.load("ld", a);
        let one = b.constant("one", 1);
        let sum = b.binary("sum", Operation::Add, ld, one);
        let st = b.store("st", a, sum);
        let dfg = b.build().unwrap();
        let at = |pe: usize, time: usize| Placement {
            pe: PeId::from_index(pe),
            slot: 0,
            time,
        };
        let mut placements = vec![at(0, 0); dfg.num_nodes()];
        for (v, pe, time) in [(a, 4, 0), (ld, 1, 1), (one, 2, 0), (sum, 0, 2), (st, 3, 3)] {
            placements[v.index()] = at(pe, time);
        }
        let mapping = Mapping::new(dfg.name().to_string(), 1, placements);
        let cgra = Cgra::new(3, 3).unwrap();
        let env = SimEnv::new(1).with_memory(vec![5]);
        let reference = interpret(&dfg, &env, 2).unwrap();
        let machine = MachineSimulator::new(&cgra, &dfg, &mapping)
            .run(&env, 2)
            .unwrap();
        assert!(reference.reorders.is_empty());
        assert_eq!((reference.memory[0], machine.memory[0]), (7, 6));
        assert_eq!(
            machine.reorders,
            vec![MemoryReorder {
                address: 0,
                early: (ld, 1),
                late: (st, 0),
            }]
        );
    }

    #[test]
    fn zero_iterations_is_empty() {
        let cgra = Cgra::new(2, 2).unwrap();
        let dfg = accumulator();
        let mapping = map_on(&cgra, &dfg);
        let rec = MachineSimulator::new(&cgra, &dfg, &mapping)
            .run(&SimEnv::new(4), 0)
            .unwrap();
        assert!(rec.outputs.is_empty());
    }
}
