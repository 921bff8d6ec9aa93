//! The CGRA grid: dimensions, topology, adjacency and connectivity
//! degree.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{CapabilityProfile, OpClass, OpClassSet, PeId, PeSet, Topology};

/// An error constructing a [`Cgra`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArchError {
    /// The grid had zero rows or columns.
    EmptyGrid,
    /// The grid exceeds the supported PE count (65 536).
    TooLarge {
        /// Requested number of PEs.
        requested: usize,
    },
    /// A capability map covers a different number of PEs than the grid.
    CapabilityMapSize {
        /// PEs in the supplied map.
        got: usize,
        /// PEs in the grid.
        expected: usize,
    },
    /// A PE was given an empty capability set (it could execute
    /// nothing, which no mapper or simulator semantics cover).
    EmptyCapabilitySet {
        /// Row-major index of the offending PE.
        pe: usize,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::EmptyGrid => write!(f, "CGRA grid must have at least one row and column"),
            ArchError::TooLarge { requested } => {
                write!(
                    f,
                    "CGRA grid of {requested} PEs exceeds the supported 65536"
                )
            }
            ArchError::CapabilityMapSize { got, expected } => {
                write!(f, "capability map covers {got} PEs, grid has {expected}")
            }
            ArchError::EmptyCapabilitySet { pe } => {
                write!(f, "PE{pe} has an empty capability set")
            }
        }
    }
}

impl std::error::Error for ArchError {}

/// Largest `max_route_hops` any routing model may use. Reachability
/// masks for every distance up to this bound are precomputed on each
/// [`Cgra`], so the bound keeps the per-PE mask storage (and the
/// configuration space a service must validate) small and fixed. Four
/// hops cross a whole 8×8 mesh quadrant; anything beyond stops being
/// "a value parked in a register file along the way" and becomes a
/// routing network the architecture model does not have.
pub const MAX_ROUTE_HOPS: usize = 4;

/// A coarse-grain reconfigurable array: a `rows × cols` grid of PEs.
///
/// Each PE has an ALU and a register file; per the paper's architectural
/// assumption, a PE can read the register files of its topological
/// neighbours, so a value never needs multi-hop routing — its consumers
/// only need to be placed on the producing PE or one of its neighbours.
///
/// # Examples
///
/// ```
/// use cgra_arch::{Cgra, Topology};
///
/// let cgra = Cgra::with_topology(3, 3, Topology::Torus)?;
/// assert_eq!(cgra.num_pes(), 9);
/// assert_eq!(cgra.connectivity_degree(), 5); // 4 neighbours + self
/// # Ok::<(), cgra_arch::ArchError>(())
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(try_from = "CgraSpec", into = "CgraSpec")]
pub struct Cgra {
    rows: usize,
    cols: usize,
    topology: Topology,
    register_file_size: usize,
    capabilities: Vec<OpClassSet>,
    neighbors: Vec<Vec<PeId>>,
    masks: Vec<PeSet>,
    masks_with_self: Vec<PeSet>,
    /// `hop_tiers[d - 1][pe]` = PEs at shortest-path distance exactly
    /// `d` from `pe`, for `d ∈ 1..=MAX_ROUTE_HOPS` (tier 1 mirrors
    /// `masks`). Precomputed by BFS in `rebuild_adjacency`; derived
    /// state, excluded from `PartialEq` like the other caches.
    hop_tiers: Vec<Vec<PeSet>>,
}

/// Serialisable description of a [`Cgra`]; adjacency caches are rebuilt
/// on deserialisation. The `capabilities` field is omitted entirely for
/// homogeneous grids and defaults to homogeneous when absent, so
/// architectures serialised before heterogeneity existed round-trip
/// unchanged. (The serde impls are hand-written because the vendored
/// derive stub has no `#[serde(default)]` support.)
#[derive(Clone, Debug)]
struct CgraSpec {
    rows: usize,
    cols: usize,
    topology: Topology,
    register_file_size: usize,
    capabilities: Option<Vec<OpClassSet>>,
}

impl Serialize for CgraSpec {
    fn write_json(&self, out: &mut String) {
        serde::ser::write_map(out, |entry| {
            entry("rows", &self.rows);
            entry("cols", &self.cols);
            entry("topology", &self.topology);
            entry("register_file_size", &self.register_file_size);
            if let Some(caps) = &self.capabilities {
                entry("capabilities", caps);
            }
        });
    }
}

impl Deserialize for CgraSpec {
    fn from_json(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::de::Error> {
        use serde::de::{field, optional, read_field};
        if r.peek() != Some(b'{') {
            return Err(r.expected("map"));
        }
        let (mut rows, mut cols, mut topology, mut register_file_size) = (None, None, None, None);
        let mut capabilities = None;
        r.map(|r, key| match &*key {
            "rows" => read_field(&mut rows, r),
            "cols" => read_field(&mut cols, r),
            "topology" => read_field(&mut topology, r),
            "register_file_size" => read_field(&mut register_file_size, r),
            "capabilities" => read_field(&mut capabilities, r),
            _ => r.skip_value(),
        })?;
        Ok(CgraSpec {
            rows: field(rows, "rows")?,
            cols: field(cols, "cols")?,
            topology: field(topology, "topology")?,
            register_file_size: field(register_file_size, "register_file_size")?,
            // Absent and explicit-null both mean homogeneous.
            capabilities: optional(capabilities, "capabilities")?,
        })
    }
}

impl From<Cgra> for CgraSpec {
    fn from(c: Cgra) -> CgraSpec {
        CgraSpec {
            rows: c.rows,
            cols: c.cols,
            topology: c.topology,
            register_file_size: c.register_file_size,
            capabilities: if c.is_homogeneous() {
                None
            } else {
                Some(c.capabilities)
            },
        }
    }
}

impl TryFrom<CgraSpec> for Cgra {
    type Error = ArchError;

    fn try_from(s: CgraSpec) -> Result<Cgra, ArchError> {
        let cgra = Cgra::with_topology(s.rows, s.cols, s.topology)?
            .with_register_file_size(s.register_file_size);
        match s.capabilities {
            Some(caps) => cgra.with_pe_capabilities(caps),
            None => Ok(cgra),
        }
    }
}

impl Cgra {
    /// Creates a CGRA with the default (paper-faithful) torus topology.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::EmptyGrid`] for zero dimensions and
    /// [`ArchError::TooLarge`] above 65 536 PEs.
    pub fn new(rows: usize, cols: usize) -> Result<Self, ArchError> {
        Cgra::with_topology(rows, cols, Topology::default())
    }

    /// Creates a CGRA with an explicit topology.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cgra::new`].
    pub fn with_topology(rows: usize, cols: usize, topology: Topology) -> Result<Self, ArchError> {
        if rows == 0 || cols == 0 {
            return Err(ArchError::EmptyGrid);
        }
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n <= u16::MAX as usize + 1)
            .ok_or(ArchError::TooLarge {
                requested: rows.saturating_mul(cols),
            })?;
        let mut cgra = Cgra {
            rows,
            cols,
            topology,
            register_file_size: 8,
            capabilities: vec![OpClassSet::all(); n],
            neighbors: Vec::with_capacity(n),
            masks: Vec::with_capacity(n),
            masks_with_self: Vec::with_capacity(n),
            hop_tiers: Vec::with_capacity(MAX_ROUTE_HOPS),
        };
        cgra.rebuild_adjacency();
        Ok(cgra)
    }

    /// Sets the per-PE register-file size (used by the simulator's
    /// register-pressure accounting; default 8).
    pub fn with_register_file_size(mut self, size: usize) -> Self {
        self.register_file_size = size;
        self
    }

    /// Sets an explicit per-PE capability map (row-major, one
    /// [`OpClassSet`] per PE), making the grid heterogeneous.
    ///
    /// # Errors
    ///
    /// [`ArchError::CapabilityMapSize`] when the map does not cover
    /// exactly the grid's PEs, and [`ArchError::EmptyCapabilitySet`]
    /// when any PE would be left unable to execute anything.
    ///
    /// # Examples
    ///
    /// ```
    /// use cgra_arch::{Cgra, OpClass, OpClassSet};
    ///
    /// // A 1×2 grid: PE0 does everything, PE1 is ALU-only.
    /// let caps = vec![OpClassSet::all(), OpClassSet::only(OpClass::Alu)];
    /// let cgra = Cgra::new(1, 2)?.with_pe_capabilities(caps)?;
    /// assert!(!cgra.is_homogeneous());
    /// assert!(!cgra.capability(cgra.pe(0, 1)).contains(OpClass::Mul));
    /// # Ok::<(), cgra_arch::ArchError>(())
    /// ```
    pub fn with_pe_capabilities(
        mut self,
        capabilities: Vec<OpClassSet>,
    ) -> Result<Self, ArchError> {
        if capabilities.len() != self.num_pes() {
            return Err(ArchError::CapabilityMapSize {
                got: capabilities.len(),
                expected: self.num_pes(),
            });
        }
        if let Some(pe) = capabilities.iter().position(|c| c.is_empty()) {
            return Err(ArchError::EmptyCapabilitySet { pe });
        }
        self.capabilities = capabilities;
        Ok(self)
    }

    /// Applies a preset [`CapabilityProfile`] (infallible: presets
    /// always cover the grid and keep every PE's ALU).
    pub fn with_capability_profile(self, profile: CapabilityProfile) -> Self {
        let caps = profile.capabilities(self.rows, self.cols);
        self.with_pe_capabilities(caps)
            .expect("presets cover the grid with non-empty sets")
    }

    fn rebuild_adjacency(&mut self) {
        let n = self.num_pes();
        self.neighbors.clear();
        self.masks.clear();
        self.masks_with_self.clear();
        for idx in 0..n {
            let r = (idx / self.cols) as i32;
            let c = (idx % self.cols) as i32;
            let mut nbrs: Vec<PeId> = Vec::new();
            for &(dr, dc) in self.topology.offsets() {
                let (nr, nc) = if self.topology.wraps() {
                    (
                        (r + dr).rem_euclid(self.rows as i32),
                        (c + dc).rem_euclid(self.cols as i32),
                    )
                } else {
                    let nr = r + dr;
                    let nc = c + dc;
                    if nr < 0 || nr >= self.rows as i32 || nc < 0 || nc >= self.cols as i32 {
                        continue;
                    }
                    (nr, nc)
                };
                let nid = PeId::from_index(nr as usize * self.cols + nc as usize);
                if nid.index() != idx && !nbrs.contains(&nid) {
                    nbrs.push(nid);
                }
            }
            nbrs.sort_unstable();
            let mut mask = PeSet::new(n);
            for &p in &nbrs {
                mask.insert(p);
            }
            let mut mask_self = mask.clone();
            mask_self.insert(PeId::from_index(idx));
            self.neighbors.push(nbrs);
            self.masks.push(mask);
            self.masks_with_self.push(mask_self);
        }
        // Per-PE k-hop reachability tiers: breadth-first frontier
        // expansion over the adjacency masks. Tier 1 is adjacency
        // itself; tier d is the union of the neighbours of tier d-1
        // minus everything already reached (including the PE itself).
        self.hop_tiers.clear();
        self.hop_tiers.push(self.masks.clone());
        let mut visited = self.masks_with_self.clone();
        for _ in 2..=MAX_ROUTE_HOPS {
            let prev = self.hop_tiers.last().expect("tier 1 pushed above");
            let mut tier = Vec::with_capacity(n);
            for idx in 0..n {
                let mut next = PeSet::new(n);
                for p in prev[idx].iter() {
                    next.union_with(&self.masks[p.index()]);
                }
                next.subtract(&visited[idx]);
                tier.push(next);
            }
            for (idx, t) in tier.iter().enumerate() {
                visited[idx].union_with(t);
            }
            self.hop_tiers.push(tier);
        }
    }

    /// Number of grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The interconnect topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Per-PE register-file size.
    pub fn register_file_size(&self) -> usize {
        self.register_file_size
    }

    /// The capability set of one PE.
    pub fn capability(&self, pe: PeId) -> OpClassSet {
        self.capabilities[pe.index()]
    }

    /// The full per-PE capability map, row-major.
    pub fn capabilities(&self) -> &[OpClassSet] {
        &self.capabilities
    }

    /// True when every PE provides every operation class — the default,
    /// and the fast path the mapper keeps byte-identical.
    pub fn is_homogeneous(&self) -> bool {
        self.capabilities.iter().all(|c| c.is_all())
    }

    /// Number of PEs providing `class` (the per-class capacity that
    /// bounds the resource mII of operations needing that class).
    pub fn providers(&self, class: OpClass) -> usize {
        self.capabilities
            .iter()
            .filter(|c| c.contains(class))
            .count()
    }

    /// Whether a specific PE can execute operations of `class`.
    pub fn supports(&self, pe: PeId, class: OpClass) -> bool {
        self.capabilities[pe.index()].contains(class)
    }

    /// Total number of PEs (`|V_Mi|` in the paper).
    pub fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// The PE at the given grid coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn pe(&self, row: usize, col: usize) -> PeId {
        assert!(
            row < self.rows && col < self.cols,
            "PE ({row},{col}) out of range"
        );
        PeId::from_index(row * self.cols + col)
    }

    /// Grid coordinates of a PE.
    pub fn coords(&self, pe: PeId) -> (usize, usize) {
        (pe.index() / self.cols, pe.index() % self.cols)
    }

    /// Iterates over all PEs in row-major order.
    pub fn pes(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.num_pes()).map(PeId::from_index)
    }

    /// The distinct neighbours of a PE (excluding the PE itself).
    pub fn neighbors(&self, pe: PeId) -> &[PeId] {
        &self.neighbors[pe.index()]
    }

    /// Neighbour set of a PE as a bit mask (excluding the PE itself).
    pub fn neighbor_mask(&self, pe: PeId) -> &PeSet {
        &self.masks[pe.index()]
    }

    /// Neighbour set of a PE including the PE itself — the set of PEs
    /// whose register files a consumer placed there could read a value
    /// from, or equivalently the placement candidates for a consumer of a
    /// value produced at `pe`.
    pub fn neighbor_mask_with_self(&self, pe: PeId) -> &PeSet {
        &self.masks_with_self[pe.index()]
    }

    /// Whether two distinct PEs are directly connected.
    pub fn adjacent(&self, a: PeId, b: PeId) -> bool {
        self.masks[a.index()].contains(b)
    }

    /// Whether a consumer on `b` can read a value held on `a` (same PE or
    /// neighbouring PE).
    pub fn reachable(&self, a: PeId, b: PeId) -> bool {
        a == b || self.adjacent(a, b)
    }

    /// PEs at shortest-path distance exactly `hops` from `pe`.
    ///
    /// Tier 1 equals [`Cgra::neighbor_mask`]; higher tiers are the BFS
    /// frontiers precomputed up to [`MAX_ROUTE_HOPS`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= hops <= MAX_ROUTE_HOPS`.
    pub fn hop_tier(&self, pe: PeId, hops: usize) -> &PeSet {
        assert!(
            (1..=MAX_ROUTE_HOPS).contains(&hops),
            "hop tier {hops} out of range 1..={MAX_ROUTE_HOPS}"
        );
        &self.hop_tiers[hops - 1][pe.index()]
    }

    /// Shortest-path hop distance between two PEs: `Some(0)` for the
    /// PE itself, `Some(d)` for `d <= MAX_ROUTE_HOPS`, and `None` when
    /// the distance exceeds the precomputed bound (or `b` is
    /// unreachable altogether).
    pub fn hop_distance(&self, a: PeId, b: PeId) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        self.hop_tiers
            .iter()
            .position(|tier| tier[a.index()].contains(b))
            .map(|i| i + 1)
    }

    /// The connectivity degree `D_M` used by the paper's connectivity
    /// constraint: the number of PEs that can observe a given PE's
    /// register file, *including the PE itself*, minimised over the grid
    /// so the monomorphism-existence argument stays sound on non-uniform
    /// topologies.
    ///
    /// On a torus this is uniform: 3 on a 2×2, 5 on 3×3 and larger,
    /// matching the paper's quoted values.
    pub fn connectivity_degree(&self) -> usize {
        self.neighbors
            .iter()
            .map(|n| n.len() + 1)
            .min()
            .unwrap_or(1)
    }

    /// The maximum connectivity degree over the grid (equals
    /// [`Cgra::connectivity_degree`] on uniform topologies).
    pub fn max_connectivity_degree(&self) -> usize {
        self.neighbors
            .iter()
            .map(|n| n.len() + 1)
            .max()
            .unwrap_or(1)
    }

    /// A short human-readable description like `4x4 torus`.
    pub fn describe(&self) -> String {
        format!("{}x{} {}", self.rows, self.cols, self.topology)
    }
}

impl fmt::Display for Cgra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

impl PartialEq for Cgra {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.topology == other.topology
            && self.capabilities == other.capabilities
    }
}

impl Eq for Cgra {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_grid() {
        assert_eq!(Cgra::new(0, 3).unwrap_err(), ArchError::EmptyGrid);
        assert_eq!(Cgra::new(3, 0).unwrap_err(), ArchError::EmptyGrid);
    }

    #[test]
    fn torus_2x2_matches_paper_degree() {
        let cgra = Cgra::new(2, 2).unwrap();
        // Wrap-around makes up/down collapse to the same PE, so each PE
        // has exactly 2 distinct neighbours; D_M = 3 as in the paper.
        for pe in cgra.pes() {
            assert_eq!(cgra.neighbors(pe).len(), 2);
        }
        assert_eq!(cgra.connectivity_degree(), 3);
    }

    #[test]
    fn torus_3x3_and_larger_match_paper_degree() {
        for n in [3, 4, 5, 10] {
            let cgra = Cgra::new(n, n).unwrap();
            assert_eq!(cgra.connectivity_degree(), 5, "{n}x{n}");
            assert_eq!(cgra.max_connectivity_degree(), 5, "{n}x{n}");
        }
    }

    #[test]
    fn mesh_has_nonuniform_degree() {
        let cgra = Cgra::with_topology(3, 3, Topology::Mesh).unwrap();
        // Corner: 2 neighbours; centre: 4.
        assert_eq!(cgra.neighbors(cgra.pe(0, 0)).len(), 2);
        assert_eq!(cgra.neighbors(cgra.pe(1, 1)).len(), 4);
        assert_eq!(cgra.connectivity_degree(), 3);
        assert_eq!(cgra.max_connectivity_degree(), 5);
    }

    #[test]
    fn diagonal_center_has_eight() {
        let cgra = Cgra::with_topology(3, 3, Topology::Diagonal).unwrap();
        assert_eq!(cgra.neighbors(cgra.pe(1, 1)).len(), 8);
        assert_eq!(cgra.neighbors(cgra.pe(0, 0)).len(), 3);
    }

    #[test]
    fn adjacency_is_symmetric() {
        for topo in [Topology::Torus, Topology::Mesh, Topology::Diagonal] {
            let cgra = Cgra::with_topology(4, 5, topo).unwrap();
            for a in cgra.pes() {
                for b in cgra.pes() {
                    assert_eq!(cgra.adjacent(a, b), cgra.adjacent(b, a), "{topo} {a} {b}");
                }
                assert!(!cgra.adjacent(a, a), "no self loops in neighbour lists");
                assert!(cgra.reachable(a, a), "self reachability via own RF");
            }
        }
    }

    #[test]
    fn mesh_adjacency_expected_pairs() {
        let cgra = Cgra::with_topology(2, 3, Topology::Mesh).unwrap();
        // Layout: 0 1 2 / 3 4 5
        assert!(cgra.adjacent(cgra.pe(0, 0), cgra.pe(0, 1)));
        assert!(cgra.adjacent(cgra.pe(0, 0), cgra.pe(1, 0)));
        assert!(!cgra.adjacent(cgra.pe(0, 0), cgra.pe(1, 1)));
        assert!(!cgra.adjacent(cgra.pe(0, 0), cgra.pe(0, 2)));
    }

    #[test]
    fn torus_wraps_edges() {
        let cgra = Cgra::new(3, 3).unwrap();
        assert!(cgra.adjacent(cgra.pe(0, 0), cgra.pe(0, 2)));
        assert!(cgra.adjacent(cgra.pe(0, 0), cgra.pe(2, 0)));
    }

    #[test]
    fn single_pe_grid() {
        let cgra = Cgra::new(1, 1).unwrap();
        assert_eq!(cgra.num_pes(), 1);
        assert!(cgra.neighbors(cgra.pe(0, 0)).is_empty());
        assert_eq!(cgra.connectivity_degree(), 1);
    }

    #[test]
    fn neighbor_masks_match_lists() {
        let cgra = Cgra::new(4, 4).unwrap();
        for pe in cgra.pes() {
            let from_mask: Vec<PeId> = cgra.neighbor_mask(pe).iter().collect();
            assert_eq!(from_mask, cgra.neighbors(pe));
            assert!(cgra.neighbor_mask_with_self(pe).contains(pe));
            assert!(!cgra.neighbor_mask(pe).contains(pe));
        }
    }

    #[test]
    fn coords_roundtrip() {
        let cgra = Cgra::new(5, 7).unwrap();
        for pe in cgra.pes() {
            let (r, c) = cgra.coords(pe);
            assert_eq!(cgra.pe(r, c), pe);
        }
    }

    #[test]
    fn describe_and_display() {
        let cgra = Cgra::new(4, 4).unwrap();
        assert_eq!(cgra.to_string(), "4x4 torus");
    }

    #[test]
    fn equality_ignores_caches() {
        let a = Cgra::new(4, 4).unwrap();
        let b = Cgra::new(4, 4).unwrap().with_register_file_size(16);
        assert_eq!(a, b);
    }

    #[test]
    fn default_grid_is_homogeneous() {
        let cgra = Cgra::new(3, 3).unwrap();
        assert!(cgra.is_homogeneous());
        for pe in cgra.pes() {
            assert!(cgra.capability(pe).is_all());
            for class in OpClass::ALL {
                assert!(cgra.supports(pe, class));
            }
        }
        assert_eq!(cgra.providers(OpClass::Mem), 9);
    }

    #[test]
    fn capability_map_size_mismatch_rejected() {
        let err = Cgra::new(2, 2)
            .unwrap()
            .with_pe_capabilities(vec![OpClassSet::all(); 3])
            .unwrap_err();
        assert_eq!(
            err,
            ArchError::CapabilityMapSize {
                got: 3,
                expected: 4
            }
        );
    }

    #[test]
    fn empty_capability_set_rejected() {
        let mut caps = vec![OpClassSet::all(); 4];
        caps[2] = OpClassSet::empty();
        let err = Cgra::new(2, 2)
            .unwrap()
            .with_pe_capabilities(caps)
            .unwrap_err();
        assert_eq!(err, ArchError::EmptyCapabilitySet { pe: 2 });
    }

    #[test]
    fn profile_builder_and_providers() {
        let cgra = Cgra::new(4, 4)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard);
        assert!(!cgra.is_homogeneous());
        assert_eq!(cgra.providers(OpClass::Alu), 16);
        assert_eq!(cgra.providers(OpClass::Mem), 4);
        assert_eq!(cgra.providers(OpClass::Mul), 8);
        assert!(cgra.supports(cgra.pe(1, 0), OpClass::Mem));
        assert!(!cgra.supports(cgra.pe(1, 1), OpClass::Mem));
    }

    #[test]
    fn equality_sees_capabilities() {
        let a = Cgra::new(4, 4).unwrap();
        let b = Cgra::new(4, 4)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        assert_ne!(a, b);
    }

    #[test]
    fn serde_roundtrip_preserves_capabilities() {
        let het = Cgra::new(3, 3)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MulCheckerboard);
        let json = serde_json::to_string(&het).unwrap();
        let back: Cgra = serde_json::from_str(&json).unwrap();
        assert_eq!(back, het);
        assert_eq!(back.capabilities(), het.capabilities());

        // Homogeneous grids serialise without a capability field, so
        // their JSON is exactly the pre-heterogeneity format.
        let homo = Cgra::new(2, 2).unwrap();
        let json = serde_json::to_string(&homo).unwrap();
        assert!(!json.contains("capabilities"), "{json}");
        let back: Cgra = serde_json::from_str(&json).unwrap();
        assert!(back.is_homogeneous());
        assert_eq!(back, homo);
    }

    #[test]
    fn hop_tier_one_is_adjacency() {
        for topo in [Topology::Torus, Topology::Mesh, Topology::Diagonal] {
            let cgra = Cgra::with_topology(3, 4, topo).unwrap();
            for pe in cgra.pes() {
                assert_eq!(
                    cgra.hop_tier(pe, 1).iter().collect::<Vec<_>>(),
                    cgra.neighbor_mask(pe).iter().collect::<Vec<_>>(),
                    "{topo} {pe}"
                );
            }
        }
    }

    #[test]
    fn hop_tiers_are_disjoint_bfs_frontiers() {
        for topo in [Topology::Torus, Topology::Mesh, Topology::Diagonal] {
            let cgra = Cgra::with_topology(4, 4, topo).unwrap();
            for a in cgra.pes() {
                let mut seen = vec![a];
                for d in 1..=MAX_ROUTE_HOPS {
                    for b in cgra.hop_tier(a, d).iter() {
                        assert!(!seen.contains(&b), "{topo}: {b} in two tiers of {a}");
                        seen.push(b);
                        assert_eq!(cgra.hop_distance(a, b), Some(d), "{topo} {a}->{b}");
                        assert_eq!(cgra.hop_distance(b, a), Some(d), "{topo}: symmetric");
                    }
                }
                assert_eq!(cgra.hop_distance(a, a), Some(0));
            }
        }
    }

    #[test]
    fn mesh_corner_to_corner_distance() {
        // 3x3 mesh: (0,0) -> (2,2) needs 4 orthogonal hops; the same
        // pair on the torus wraps in 2; diagonal crosses in 2.
        let mesh = Cgra::with_topology(3, 3, Topology::Mesh).unwrap();
        assert_eq!(mesh.hop_distance(mesh.pe(0, 0), mesh.pe(2, 2)), Some(4));
        let torus = Cgra::with_topology(3, 3, Topology::Torus).unwrap();
        assert_eq!(torus.hop_distance(torus.pe(0, 0), torus.pe(2, 2)), Some(2));
        let diag = Cgra::with_topology(3, 3, Topology::Diagonal).unwrap();
        assert_eq!(diag.hop_distance(diag.pe(0, 0), diag.pe(2, 2)), Some(2));
    }

    #[test]
    fn distance_beyond_precomputed_bound_is_none() {
        // 1x7 mesh line: PE0 to PE6 is 6 hops, past MAX_ROUTE_HOPS.
        let line = Cgra::with_topology(1, 7, Topology::Mesh).unwrap();
        assert_eq!(
            line.hop_distance(line.pe(0, 0), line.pe(0, 4)),
            Some(4),
            "exactly at the bound"
        );
        assert_eq!(line.hop_distance(line.pe(0, 0), line.pe(0, 5)), None);
        assert_eq!(line.hop_distance(line.pe(0, 0), line.pe(0, 6)), None);
    }

    #[test]
    fn pre_heterogeneity_json_still_loads() {
        // A Cgra serialised before the capability field existed (no
        // `capabilities` key at all) must deserialise as homogeneous.
        let old = r#"{"rows":2,"cols":2,"topology":"Torus","register_file_size":8}"#;
        let back: Cgra = serde_json::from_str(old).unwrap();
        assert!(back.is_homogeneous());
        assert_eq!(back, Cgra::new(2, 2).unwrap());
    }
}
