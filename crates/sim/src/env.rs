//! Simulation environment, results and errors.

use std::collections::BTreeMap;
use std::fmt;

use cgra_arch::{OpClass, PeId};
use cgra_dfg::NodeId;

/// The loop's environment: data memory and per-iteration live-in input
/// streams.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimEnv {
    /// Data memory (addresses wrap modulo its length).
    pub memory: Vec<i64>,
    /// `inputs[channel][iteration]` live-in values; iterations beyond a
    /// stream's length cycle through it.
    pub inputs: Vec<Vec<i64>>,
}

impl SimEnv {
    /// An environment with `mem_size` zeroed memory words and no
    /// inputs.
    pub fn new(mem_size: usize) -> Self {
        SimEnv {
            memory: vec![0; mem_size],
            inputs: Vec::new(),
        }
    }

    /// Adds the next input channel's stream (channel indices are
    /// assigned in call order).
    pub fn with_input_stream(mut self, stream: Vec<i64>) -> Self {
        self.inputs.push(stream);
        self
    }

    /// Replaces the memory contents.
    pub fn with_memory(mut self, memory: Vec<i64>) -> Self {
        self.memory = memory;
        self
    }

    /// The live-in value of `channel` at `iteration`.
    ///
    /// Missing channels yield 0; finite streams repeat cyclically.
    pub fn input(&self, channel: u32, iteration: usize) -> i64 {
        match self.inputs.get(channel as usize) {
            None => 0,
            Some(s) if s.is_empty() => 0,
            Some(s) => s[iteration % s.len()],
        }
    }

    /// Wraps an address into the memory (empty memory maps all
    /// addresses to 0 with a 1-word shadow; avoided by sizing memory).
    pub fn wrap(&self, addr: i64) -> usize {
        if self.memory.is_empty() {
            0
        } else {
            addr.rem_euclid(self.memory.len() as i64) as usize
        }
    }
}

/// The observable result of executing a loop: live-out values per
/// (node, iteration), and the final memory image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecRecord {
    /// Values of [`cgra_dfg::Operation::Output`] nodes, keyed by
    /// `(node index, iteration)`.
    pub outputs: BTreeMap<(usize, usize), i64>,
    /// Final memory contents.
    pub memory: Vec<i64>,
    /// Total machine cycles executed (0 for the reference interpreter).
    pub cycles: usize,
    /// Same-word memory accesses the machine ran in the opposite order
    /// from the reference interpreter, in machine order (always empty
    /// for the interpreter).
    pub reorders: Vec<MemoryReorder>,
}

/// Two accesses to one memory word, at least one of them a store, that
/// the pipelined machine ran in the opposite order from the reference
/// interpreter. The interpreter orders accesses by `(iteration,
/// topological position)`; the DFG carries no memory edges, so nothing
/// stops a schedule from overlapping iterations across such a pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryReorder {
    /// The wrapped address both accesses touch.
    pub address: usize,
    /// `(node, iteration)` of the access the machine ran first although
    /// the interpreter runs it second.
    pub early: (NodeId, usize),
    /// `(node, iteration)` of the access the machine ran second.
    pub late: (NodeId, usize),
}

impl fmt::Display for MemoryReorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ((e, ek), (l, lk)) = (self.early, self.late);
        write!(
            f,
            "{e} of iteration {ek} touched address {} before {l} of iteration {lk}",
            self.address
        )
    }
}

/// An execution failure — each variant indicates a way the mapping (or
/// environment) is broken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A consumer executed before its operand was produced: the modulo
    /// schedule's timing is wrong.
    OperandNotReady {
        /// The consuming node.
        node: NodeId,
        /// The consuming iteration.
        iteration: usize,
    },
    /// A node is missing an operand edge (the DFG failed validation).
    MalformedNode {
        /// The offending node.
        node: NodeId,
    },
    /// An operation was mapped onto a PE whose functional units cannot
    /// execute it: the placement ignores the CGRA's heterogeneity. The
    /// simulator refuses to execute such instructions, independently
    /// policing the mapper.
    IncapablePe {
        /// The offending node.
        node: NodeId,
        /// The PE the node was placed on.
        pe: PeId,
        /// The functional-unit class the operation needs.
        class: OpClass,
    },
    /// A dependence's endpoints are farther apart on the concrete
    /// topology than the declared route bound: the placement claims a
    /// route the machine cannot provide. The distance is measured by
    /// an independent BFS over the topology links, not the mapper's
    /// cached reachability masks.
    RouteTooLong {
        /// Producing node.
        src: NodeId,
        /// Consuming node.
        dst: NodeId,
        /// The actual shortest-path distance (`None`: disconnected).
        hops: Option<usize>,
        /// The route bound the simulator was configured with.
        max: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OperandNotReady { node, iteration } => {
                write!(f, "operand of {node} not ready in iteration {iteration}")
            }
            SimError::MalformedNode { node } => write!(f, "node {node} is malformed"),
            SimError::IncapablePe { node, pe, class } => {
                write!(f, "{node} needs a {class} unit but {pe} provides none")
            }
            SimError::RouteTooLong {
                src,
                dst,
                hops,
                max,
            } => match hops {
                Some(h) => write!(
                    f,
                    "{src} -> {dst} needs a {h}-hop route but the bound is {max}"
                ),
                None => write!(f, "{src} -> {dst} are disconnected on this topology"),
            },
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_streams_cycle() {
        let env = SimEnv::new(4).with_input_stream(vec![7, 8]);
        assert_eq!(env.input(0, 0), 7);
        assert_eq!(env.input(0, 1), 8);
        assert_eq!(env.input(0, 2), 7);
        assert_eq!(env.input(1, 0), 0, "missing channel defaults to 0");
    }

    #[test]
    fn address_wrapping() {
        let env = SimEnv::new(8);
        assert_eq!(env.wrap(9), 1);
        assert_eq!(env.wrap(-1), 7);
        assert_eq!(SimEnv::new(0).wrap(5), 0);
    }

    #[test]
    fn builders_compose() {
        let env = SimEnv::new(2)
            .with_memory(vec![1, 2, 3])
            .with_input_stream(vec![5]);
        assert_eq!(env.memory, vec![1, 2, 3]);
        assert_eq!(env.input(0, 10), 5);
    }
}
