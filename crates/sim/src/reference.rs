//! Iteration-major reference interpretation of a DFG.

use std::collections::BTreeMap;

use cgra_dfg::{Dfg, EdgeKind, NodeId, Operation};

use crate::{ExecRecord, SimEnv, SimError};

/// Executes `iterations` iterations of the loop body directly on the
/// DFG (no CGRA involved): the semantic ground truth that the mapped
/// machine must reproduce.
///
/// # Errors
///
/// Returns [`SimError::MalformedNode`] if a node's operands are not
/// fully wired (pre-empted by [`Dfg::validate`]).
pub fn interpret(dfg: &Dfg, env: &SimEnv, iterations: usize) -> Result<ExecRecord, SimError> {
    let order = dfg.topo_order().map_err(|_| SimError::MalformedNode {
        node: NodeId::from_index(0),
    })?;
    let n = dfg.num_nodes();
    let mut memory = env.memory.clone();
    let mut values: Vec<Vec<i64>> = Vec::with_capacity(iterations);
    let mut outputs = BTreeMap::new();

    for k in 0..iterations {
        let mut cur = vec![0i64; n];
        for &v in &order {
            let op = dfg.op(v);
            let arity = op.arity();
            let mut operands = vec![None; arity];
            let mut lc_pending = false;
            for e in dfg.in_edges(v) {
                let slot = e.operand as usize;
                if slot >= arity {
                    return Err(SimError::MalformedNode { node: v });
                }
                operands[slot] = match e.kind {
                    EdgeKind::Data => Some(cur[e.src.index()]),
                    EdgeKind::LoopCarried { distance } => {
                        let d = distance as usize;
                        if k >= d {
                            Some(values[k - d][e.src.index()])
                        } else {
                            lc_pending = true;
                            None
                        }
                    }
                };
            }
            let value = match op {
                Operation::Const(c) => c,
                Operation::Input(ch) => env.input(ch, k),
                Operation::Phi(init) => {
                    if lc_pending {
                        init
                    } else {
                        operands[0].ok_or(SimError::MalformedNode { node: v })?
                    }
                }
                Operation::Load => {
                    let addr = operands[0].ok_or(SimError::MalformedNode { node: v })?;
                    memory[env.wrap(addr)]
                }
                Operation::Store => {
                    let addr = operands[0].ok_or(SimError::MalformedNode { node: v })?;
                    let val = operands[1].ok_or(SimError::MalformedNode { node: v })?;
                    memory[env.wrap(addr)] = val;
                    val
                }
                pure => {
                    let ops: Option<Vec<i64>> = operands.into_iter().collect();
                    let ops = ops.ok_or(SimError::MalformedNode { node: v })?;
                    pure.eval_pure(&ops)
                }
            };
            cur[v.index()] = value;
            if op == Operation::Output {
                outputs.insert((v.index(), k), value);
            }
        }
        values.push(cur);
    }
    Ok(ExecRecord {
        outputs,
        memory,
        cycles: 0,
        reorders: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::examples::{accumulator, stream_scale};
    use cgra_dfg::{DfgBuilder, Operation as Op};

    #[test]
    fn accumulator_sums_inputs() {
        let dfg = accumulator();
        let env = SimEnv::new(4).with_input_stream(vec![1, 2, 3, 4]);
        let rec = interpret(&dfg, &env, 4).unwrap();
        // Output node is index 3; values are prefix sums.
        let sums: Vec<i64> = (0..4).map(|k| rec.outputs[&(3, k)]).collect();
        assert_eq!(sums, vec![1, 3, 6, 10]);
    }

    #[test]
    fn stream_scale_writes_memory() {
        let dfg = stream_scale();
        let env = SimEnv::new(8).with_memory((0..8).map(|i| i as i64 * 10).collect());
        let rec = interpret(&dfg, &env, 4).unwrap();
        // Iteration i loads mem[i], scales by 3, clamps at 255, stores
        // back to mem[i].
        assert_eq!(rec.memory[0], 0);
        assert_eq!(rec.memory[1], 30);
        assert_eq!(rec.memory[2], 60);
        assert_eq!(rec.memory[3], 90);
        assert_eq!(rec.memory[4], 40, "untouched beyond 4 iterations");
    }

    #[test]
    fn phi_distance_two() {
        // out[k] = x[k-2] (0 for the first two iterations, via phi
        // initial value 0).
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let prev = b.phi("prev", 0);
        b.loop_carried(x, prev, 2);
        b.output("o", prev);
        let dfg = b.build().unwrap();
        let env = SimEnv::new(1).with_input_stream(vec![10, 20, 30, 40]);
        let rec = interpret(&dfg, &env, 4).unwrap();
        let outs: Vec<i64> = (0..4).map(|k| rec.outputs[&(2, k)]).collect();
        assert_eq!(outs, vec![0, 0, 10, 20]);
    }

    #[test]
    fn select_branches() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let hi = b.constant("hi", 100);
        let lo = b.constant("lo", -100);
        let zero = b.constant("z", 0);
        let cond = b.binary("cond", Op::Lt, x, zero);
        let sel = b.select("sel", cond, lo, hi);
        b.output("o", sel);
        let dfg = b.build().unwrap();
        let env = SimEnv::new(1).with_input_stream(vec![-5, 5]);
        let rec = interpret(&dfg, &env, 2).unwrap();
        assert_eq!(rec.outputs[&(6, 0)], -100);
        assert_eq!(rec.outputs[&(6, 1)], 100);
    }
}
