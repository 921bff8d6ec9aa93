//! The space-time mapping produced by the mapper, with full validation.

use serde::{Deserialize, Serialize};

use cgra_arch::{Cgra, PeId, MAX_ROUTE_HOPS};
use cgra_dfg::{Dfg, EdgeKind, NodeId};

use crate::MappingError;

/// Where and when one DFG node executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// The processing element.
    pub pe: PeId,
    /// The kernel slot (`time mod II`).
    pub slot: usize,
    /// The absolute schedule time within the unrolled schedule.
    pub time: usize,
}

/// A complete space-time mapping: one [`Placement`] per DFG node, for a
/// kernel of `II` cycles.
///
/// Produced by [`crate::DecoupledMapper`]; check any externally supplied
/// mapping with [`Mapping::validate`] (or [`Mapping::validate_routed`]
/// when it was produced under a k-hop routing model).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mapping {
    dfg_name: String,
    ii: usize,
    placements: Vec<Placement>,
    /// Chosen route length per DFG edge (in `dfg.edges()` order;
    /// self-dependences count 0). Empty on mappings produced under the
    /// classic one-hop model, so their wire form — and the golden
    /// snapshots locking it — is unchanged.
    route_hops: Vec<usize>,
}

impl Mapping {
    /// Assembles a mapping from parts (used by the mapper and by tests;
    /// run [`Mapping::validate`] to check it).
    pub fn new(dfg_name: impl Into<String>, ii: usize, placements: Vec<Placement>) -> Self {
        Mapping {
            dfg_name: dfg_name.into(),
            ii,
            placements,
            route_hops: Vec::new(),
        }
    }

    /// Attaches the chosen route length of every DFG edge (in
    /// `dfg.edges()` order). The mapper records these only under a
    /// routing model wider than one hop.
    #[must_use]
    pub fn with_route_hops(mut self, route_hops: Vec<usize>) -> Self {
        self.route_hops = route_hops;
        self
    }

    /// Chosen route length per DFG edge; empty when the mapping was
    /// produced under the one-hop model (no routing decisions to
    /// record).
    pub fn route_hops(&self) -> &[usize] {
        &self.route_hops
    }

    /// The route bound this mapping claims for itself: the longest
    /// recorded route, or 1 for one-hop mappings (empty
    /// [`route_hops`](Self::route_hops)). Clamped into
    /// `1..=`[`MAX_ROUTE_HOPS`] so hostile wire data cannot smuggle an
    /// unbounded claim past [`validate_routed`](Self::validate_routed).
    pub fn declared_route_bound(&self) -> usize {
        self.route_hops
            .iter()
            .copied()
            .max()
            .unwrap_or(1)
            .clamp(1, MAX_ROUTE_HOPS)
    }

    /// The name of the DFG this mapping is for.
    pub fn dfg_name(&self) -> &str {
        &self.dfg_name
    }

    /// The iteration interval achieved.
    pub fn ii(&self) -> usize {
        self.ii
    }

    /// The placement of a node.
    pub fn placement(&self, v: NodeId) -> Placement {
        self.placements[v.index()]
    }

    /// The PE of a node.
    pub fn pe(&self, v: NodeId) -> PeId {
        self.placements[v.index()].pe
    }

    /// The kernel slot of a node.
    pub fn slot(&self, v: NodeId) -> usize {
        self.placements[v.index()].slot
    }

    /// The absolute schedule time of a node.
    pub fn time(&self, v: NodeId) -> usize {
        self.placements[v.index()].time
    }

    /// All placements, indexed by node.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The schedule length (largest time + 1): prologue + one kernel.
    pub fn schedule_length(&self) -> usize {
        self.placements
            .iter()
            .map(|p| p.time + 1)
            .max()
            .unwrap_or(0)
    }

    /// Checks every mapping invariant under the paper's one-hop
    /// routing model; equivalent to
    /// [`Mapping::validate_routed`]`(dfg, cgra, 1)`. See there for the
    /// invariant list.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, dfg: &Dfg, cgra: &Cgra) -> Result<(), MappingError> {
        self.validate_routed(dfg, cgra, 1)
    }

    /// Checks every mapping invariant against the DFG and CGRA under a
    /// `max_route_hops`-hop routing model:
    ///
    /// * mono1 — no two nodes share `(PE, slot)`;
    /// * mono2 — `slot == time mod II` for every node;
    /// * capability — every node's PE provides the node's operation
    ///   class (trivially true on homogeneous grids);
    /// * mono3 / routing — every dependence's endpoints lie on the same
    ///   PE or within `max_route_hops` topology hops (the consumer can
    ///   reach the producer's register file through at most `k - 1`
    ///   forwarding hops);
    /// * modulo-schedule timing of every data and loop-carried edge.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= max_route_hops <= MAX_ROUTE_HOPS`.
    pub fn validate_routed(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        max_route_hops: usize,
    ) -> Result<(), MappingError> {
        assert!(
            (1..=MAX_ROUTE_HOPS).contains(&max_route_hops),
            "max_route_hops must be in 1..={MAX_ROUTE_HOPS}"
        );
        if self.placements.len() != dfg.num_nodes() {
            return Err(MappingError::WrongArity {
                got: self.placements.len(),
                expected: dfg.num_nodes(),
            });
        }
        for v in dfg.nodes() {
            let p = self.placement(v);
            if p.pe.index() >= cgra.num_pes() {
                return Err(MappingError::UnknownPe { node: v });
            }
            if p.slot != p.time % self.ii {
                return Err(MappingError::LabelMismatch { node: v });
            }
            let class = dfg.op(v).op_class();
            if !cgra.supports(p.pe, class) {
                return Err(MappingError::IncapablePe { node: v, class });
            }
        }
        // mono1: injectivity over (pe, slot).
        let mut seen = std::collections::HashMap::new();
        for v in dfg.nodes() {
            let p = self.placement(v);
            if let Some(&other) = seen.get(&(p.pe, p.slot)) {
                return Err(MappingError::NotInjective { a: other, b: v });
            }
            seen.insert((p.pe, p.slot), v);
        }
        // Edges: timing + reachability.
        for e in dfg.edges() {
            if e.src == e.dst {
                continue; // own register file, always readable
            }
            let ps = self.placement(e.src);
            let pd = self.placement(e.dst);
            let ok_time = match e.kind {
                EdgeKind::Data => pd.time as i64 > ps.time as i64,
                EdgeKind::LoopCarried { distance } => {
                    pd.time as i64 >= ps.time as i64 + 1 - (distance as i64) * (self.ii as i64)
                }
            };
            if !ok_time {
                return Err(MappingError::DependenceViolated {
                    src: e.src,
                    dst: e.dst,
                });
            }
            let within_reach = match cgra.hop_distance(ps.pe, pd.pe) {
                Some(0) => true, // own register file, held across slots
                Some(d) => d <= max_route_hops,
                None => false,
            };
            if !within_reach {
                return Err(MappingError::Unreachable {
                    src: e.src,
                    dst: e.dst,
                });
            }
            // Same-slot edges additionally require distinct, adjacent
            // PEs — same PE would collide in the kernel.
            if ps.slot == pd.slot && ps.pe == pd.pe {
                return Err(MappingError::NotInjective { a: e.src, b: e.dst });
            }
        }
        Ok(())
    }

    /// Per-PE operation counts (kernel occupancy).
    pub fn pe_occupancy(&self, cgra: &Cgra) -> Vec<usize> {
        let mut occ = vec![0usize; cgra.num_pes()];
        for p in &self.placements {
            occ[p.pe.index()] += 1;
        }
        occ
    }
}

// Hand-written so that `route_hops` is omitted when empty: every
// mapping produced under the classic one-hop model keeps the exact
// pre-routing wire form (the golden snapshots assert this byte for
// byte), and pre-routing JSON decodes into a mapping with no recorded
// routes.
impl Serialize for Mapping {
    fn write_json(&self, out: &mut String) {
        serde::ser::write_map(out, |entry| {
            entry("dfg_name", &self.dfg_name);
            entry("ii", &self.ii);
            entry("placements", &self.placements);
            if !self.route_hops.is_empty() {
                entry("route_hops", &self.route_hops);
            }
        });
    }
}

impl Deserialize for Mapping {
    fn from_json(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::de::Error> {
        use serde::de::{field, optional, read_field};
        if r.peek() != Some(b'{') {
            return Err(r.expected("map"));
        }
        let (mut dfg_name, mut ii, mut placements, mut route_hops) = (None, None, None, None);
        r.map(|r, key| match &*key {
            "dfg_name" => read_field(&mut dfg_name, r),
            "ii" => read_field(&mut ii, r),
            "placements" => read_field(&mut placements, r),
            "route_hops" => read_field(&mut route_hops, r),
            _ => r.skip_value(),
        })?;
        let route_hops = optional(route_hops, "route_hops")?.unwrap_or_default();
        Ok(Mapping {
            dfg_name: field(dfg_name, "dfg_name")?,
            ii: field(ii, "ii")?,
            placements: field(placements, "placements")?,
            route_hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::{DfgBuilder, Operation as Op};

    fn tiny() -> (Dfg, Cgra) {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.unary("y", Op::Neg, x);
        b.output("o", y);
        (b.build().unwrap(), Cgra::new(2, 2).unwrap())
    }

    fn place(pe: usize, time: usize, ii: usize) -> Placement {
        Placement {
            pe: PeId::from_index(pe),
            slot: time % ii,
            time,
        }
    }

    #[test]
    fn valid_chain_mapping() {
        let (dfg, cgra) = tiny();
        // x on PE0@0, y on PE1@1, o on PE0@2 (PE0 and PE1 adjacent).
        let m = Mapping::new(
            "tiny",
            3,
            vec![place(0, 0, 3), place(1, 1, 3), place(0, 2, 3)],
        );
        m.validate(&dfg, &cgra).unwrap();
        assert_eq!(m.schedule_length(), 3);
        assert_eq!(m.pe_occupancy(&cgra), vec![2, 1, 0, 0]);
    }

    #[test]
    fn detects_non_injective() {
        let (dfg, cgra) = tiny();
        // x and o both on PE0 slot 0 (times 0 and 3, ii 3).
        let m = Mapping::new(
            "tiny",
            3,
            vec![place(0, 0, 3), place(1, 1, 3), place(0, 3, 3)],
        );
        assert!(matches!(
            m.validate(&dfg, &cgra),
            Err(MappingError::NotInjective { .. })
        ));
    }

    #[test]
    fn detects_label_mismatch() {
        let (dfg, cgra) = tiny();
        let mut bad = place(1, 1, 3);
        bad.slot = 2;
        let m = Mapping::new("tiny", 3, vec![place(0, 0, 3), bad, place(0, 2, 3)]);
        assert_eq!(
            m.validate(&dfg, &cgra),
            Err(MappingError::LabelMismatch {
                node: NodeId::from_index(1)
            })
        );
    }

    #[test]
    fn detects_unreachable_pes() {
        let (dfg, cgra) = tiny();
        // PE0 and PE3 are diagonal: not adjacent on a 2x2 torus.
        let m = Mapping::new(
            "tiny",
            3,
            vec![place(0, 0, 3), place(3, 1, 3), place(3, 2, 3)],
        );
        assert_eq!(
            m.validate(&dfg, &cgra),
            Err(MappingError::Unreachable {
                src: NodeId::from_index(0),
                dst: NodeId::from_index(1)
            })
        );
    }

    #[test]
    fn detects_timing_violation() {
        let (dfg, cgra) = tiny();
        let m = Mapping::new(
            "tiny",
            3,
            vec![place(0, 2, 3), place(1, 1, 3), place(1, 2, 3)],
        );
        assert!(matches!(
            m.validate(&dfg, &cgra),
            Err(MappingError::DependenceViolated { .. })
        ));
    }

    #[test]
    fn detects_wrong_arity() {
        let (dfg, cgra) = tiny();
        let m = Mapping::new("tiny", 3, vec![place(0, 0, 3)]);
        assert!(matches!(
            m.validate(&dfg, &cgra),
            Err(MappingError::WrongArity { .. })
        ));
    }

    #[test]
    fn detects_unknown_pe() {
        let (dfg, cgra) = tiny();
        let m = Mapping::new(
            "tiny",
            3,
            vec![place(9, 0, 3), place(1, 1, 3), place(0, 2, 3)],
        );
        assert!(matches!(
            m.validate(&dfg, &cgra),
            Err(MappingError::UnknownPe { .. })
        ));
    }

    #[test]
    fn loop_carried_timing_uses_distance() {
        let mut b = DfgBuilder::new();
        let p = b.phi("p", 0);
        let s = b.unary("s", Op::Neg, p);
        b.loop_carried(s, p, 1);
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(2, 2).unwrap();
        // II = 2: s at time 1, phi at time 0: 0 >= 1 + 1 - 2 holds.
        let m = Mapping::new("acc", 2, vec![place(0, 0, 2), place(1, 1, 2)]);
        m.validate(&dfg, &cgra).unwrap();
        // II = 1 would need 0 >= 1 + 1 - 1 = 1: violated.
        let m = Mapping::new(
            "acc",
            1,
            vec![
                Placement {
                    pe: PeId::from_index(0),
                    slot: 0,
                    time: 0,
                },
                Placement {
                    pe: PeId::from_index(1),
                    slot: 0,
                    time: 1,
                },
            ],
        );
        assert!(matches!(
            m.validate(&dfg, &cgra),
            Err(MappingError::DependenceViolated { .. })
        ));
    }

    #[test]
    fn detects_incapable_pe() {
        use cgra_arch::{OpClass, OpClassSet};
        // A load placed on an ALU-only PE.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let ld = b.load("ld", x);
        b.output("o", ld);
        let dfg = b.build().unwrap();
        let mut caps = vec![OpClassSet::all(); 4];
        caps[1] = OpClassSet::only(OpClass::Alu);
        let cgra = Cgra::new(2, 2).unwrap().with_pe_capabilities(caps).unwrap();
        // x on PE0@0, ld on PE1@1 (ALU-only!), o on PE0@2.
        let m = Mapping::new(
            "het",
            3,
            vec![place(0, 0, 3), place(1, 1, 3), place(0, 2, 3)],
        );
        assert_eq!(
            m.validate(&dfg, &cgra),
            Err(MappingError::IncapablePe {
                node: NodeId::from_index(1),
                class: OpClass::Mem
            })
        );
        // The same placement on PE2 (full capability) is fine.
        let m = Mapping::new(
            "het",
            3,
            vec![place(0, 0, 3), place(2, 1, 3), place(0, 2, 3)],
        );
        m.validate(&dfg, &cgra).unwrap();
    }

    #[test]
    fn serde_roundtrip() {
        let m = Mapping::new("tiny", 3, vec![place(0, 0, 3)]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Mapping = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn route_hops_roundtrip_and_wire_compat() {
        // Routed mappings carry their per-edge route lengths...
        let m = Mapping::new("tiny", 3, vec![place(0, 0, 3)]).with_route_hops(vec![0, 2, 1]);
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("route_hops"));
        let back: Mapping = serde_json::from_str(&json).unwrap();
        assert_eq!(back.route_hops(), &[0, 2, 1]);
        assert_eq!(back.declared_route_bound(), 2);
        assert_eq!(m, back);
        // ...one-hop mappings keep the pre-routing wire form...
        let plain = Mapping::new("tiny", 3, vec![place(0, 0, 3)]);
        assert!(!serde_json::to_string(&plain)
            .unwrap()
            .contains("route_hops"));
        // ...and pre-routing JSON still decodes.
        let old = r#"{"dfg_name":"tiny","ii":3,"placements":[{"pe":0,"slot":0,"time":0}]}"#;
        let back: Mapping = serde_json::from_str(old).unwrap();
        assert_eq!(back, plain);
        assert!(back.route_hops().is_empty());
        assert_eq!(back.declared_route_bound(), 1);
    }

    #[test]
    fn validate_routed_widens_reachability() {
        let (dfg, cgra) = tiny();
        // PE0 and PE3 are diagonal on the 2x2 torus: distance 2.
        let m = Mapping::new(
            "tiny",
            3,
            vec![place(0, 0, 3), place(3, 1, 3), place(3, 2, 3)],
        );
        assert!(matches!(
            m.validate_routed(&dfg, &cgra, 1),
            Err(MappingError::Unreachable { .. })
        ));
        m.validate_routed(&dfg, &cgra, 2).unwrap();
        // validate() is exactly the k=1 case.
        assert_eq!(m.validate(&dfg, &cgra), m.validate_routed(&dfg, &cgra, 1));
    }
}
