//! Pattern and target graph representations for the search.

use std::fmt;

use cgra_base::DenseBitSet;

/// The (small) pattern graph: undirected, vertex-labelled.
///
/// For the CGRA mapper this is the scheduled DFG with labels
/// `l_G(v) = T_v mod II`.
#[derive(Clone, Debug)]
pub struct Pattern {
    labels: Vec<u32>,
    adj: Vec<Vec<usize>>,
    num_edges: usize,
    /// Per-vertex requirement bitmasks (empty = unconstrained); see
    /// [`Pattern::with_requirements`].
    requirements: Vec<u32>,
}

impl Pattern {
    /// Builds a pattern from labels and undirected edges.
    ///
    /// Self-loops and duplicate edges are ignored (a self-loop imposes
    /// no constraint under an injective map into a target whose
    /// self-relations are implicit).
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex out of range.
    pub fn new(labels: Vec<u32>, edges: Vec<(usize, usize)>) -> Self {
        let n = labels.len();
        let mut adj = vec![Vec::new(); n];
        let mut num_edges = 0;
        for (a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
            if a == b || adj[a].contains(&b) {
                continue;
            }
            adj[a].push(b);
            adj[b].push(a);
            num_edges += 1;
        }
        for row in &mut adj {
            row.sort_unstable();
        }
        Pattern {
            labels,
            adj,
            num_edges,
            requirements: Vec::new(),
        }
    }

    /// Attaches per-vertex *requirement* bitmasks: vertex `u` may only
    /// map to a target vertex `t` whose capability mask (see
    /// [`Target::with_capabilities`]) contains every bit of
    /// `requirements[u]`. A mask of `0` leaves the vertex
    /// unconstrained; a pattern without requirements behaves exactly as
    /// before, so label-only callers are unaffected.
    ///
    /// For the CGRA mapper the bits are operation classes and the
    /// target masks are per-PE functional-unit capabilities.
    ///
    /// # Panics
    ///
    /// Panics if `requirements` does not cover every vertex.
    #[must_use]
    pub fn with_requirements(mut self, requirements: Vec<u32>) -> Self {
        assert_eq!(
            requirements.len(),
            self.labels.len(),
            "one requirement mask per vertex"
        );
        self.requirements = requirements;
        self
    }

    /// The requirement bitmask of a vertex (`0` when unconstrained).
    pub fn requirement(&self, v: usize) -> u32 {
        self.requirements.get(v).copied().unwrap_or(0)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of distinct undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The label of a vertex.
    pub fn label(&self, v: usize) -> u32 {
        self.labels[v]
    }

    /// The distinct neighbours of a vertex.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// The degree of a vertex.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }
}

/// The (large) target graph: undirected, vertex-labelled, with bit-set
/// adjacency rows.
///
/// Any labelled graph can be a target. `monomap-core` builds the dense
/// MRRG in this form as the oracle its [`LayeredTarget`] is tested
/// against. Under a k-hop routing model the edge relation is "related
/// via a route of at most `k` hops": the rows the search consults are
/// the *cumulative union* over route lengths, so the consistency check
/// remains a single bitset test for any `k`, and the per-distance
/// structure (when built via [`Target::from_tiers`]) is kept alongside
/// for [`Target::route_length`].
#[derive(Clone)]
pub struct Target {
    labels: Vec<u32>,
    rows: Vec<DenseBitSet>,
    /// Per-distance reachability rows: `tiers[d][v]` = vertices related
    /// to `v` via a shortest route of exactly `d` hops (tier 0 is the
    /// held-value / same-resource relation). Empty for targets built
    /// from a plain adjacency relation.
    tiers: Vec<Vec<DenseBitSet>>,
    /// Per-vertex capability bitmasks (empty = every vertex accepts any
    /// requirement); see [`Target::with_capabilities`].
    capabilities: Vec<u32>,
}

impl fmt::Debug for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Target")
            .field("num_vertices", &self.labels.len())
            .finish()
    }
}

impl Target {
    /// Creates a target with the given labels and no edges.
    pub fn new(labels: Vec<u32>) -> Self {
        let n = labels.len();
        Target {
            labels,
            rows: vec![DenseBitSet::new(n); n],
            tiers: Vec::new(),
            capabilities: Vec::new(),
        }
    }

    /// Creates a target from labels and prebuilt adjacency rows.
    ///
    /// # Panics
    ///
    /// Panics if row count or capacities disagree with the label count.
    /// Symmetry is the caller's responsibility (checked in debug builds).
    pub fn from_rows(labels: Vec<u32>, rows: Vec<DenseBitSet>) -> Self {
        let n = labels.len();
        assert_eq!(rows.len(), n, "one adjacency row per vertex");
        for row in &rows {
            assert_eq!(row.capacity(), n, "row capacity must equal vertex count");
        }
        #[cfg(debug_assertions)]
        for a in 0..n {
            for b in rows[a].iter() {
                debug_assert!(rows[b].contains(a), "adjacency must be symmetric");
                debug_assert_ne!(a, b, "self loops are implicit");
            }
        }
        Target {
            labels,
            rows,
            tiers: Vec::new(),
            capabilities: Vec::new(),
        }
    }

    /// Creates a target from labels and per-distance reachability
    /// tiers: `tiers[d]` gives, for each vertex, the set of vertices
    /// related to it via a shortest route of exactly `d` hops (tier 0
    /// is the held-value / same-resource relation and may be empty
    /// rows). The edge rows consumed by the DFS are the cumulative
    /// union of every tier — a vertex pair is "adjacent" when *some*
    /// route within the bound relates it — so the search itself is
    /// oblivious to the route bound; [`Target::route_length`] exposes
    /// the distance structure to callers that record routes.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty, a tier does not cover every vertex,
    /// or a row capacity disagrees with the label count. Tier
    /// disjointness and symmetry are the caller's responsibility
    /// (checked in debug builds).
    pub fn from_tiers(labels: Vec<u32>, tiers: Vec<Vec<DenseBitSet>>) -> Self {
        let n = labels.len();
        assert!(!tiers.is_empty(), "at least one tier");
        let mut rows = vec![DenseBitSet::new(n); n];
        for tier in &tiers {
            assert_eq!(tier.len(), n, "one tier row per vertex");
            for (v, t) in tier.iter().enumerate() {
                assert_eq!(t.capacity(), n, "row capacity must equal vertex count");
                #[cfg(debug_assertions)]
                debug_assert!(
                    rows[v].iter().all(|b| !t.contains(b)),
                    "tiers must be disjoint (vertex {v})"
                );
                rows[v].union_with(t);
            }
        }
        #[cfg(debug_assertions)]
        for a in 0..n {
            for b in rows[a].iter() {
                debug_assert!(rows[b].contains(a), "reachability must be symmetric");
                debug_assert_ne!(a, b, "self relations are implicit");
            }
        }
        Target {
            labels,
            rows,
            tiers,
            capabilities: Vec::new(),
        }
    }

    /// Attaches per-vertex *capability* bitmasks, the counterpart of
    /// [`Pattern::with_requirements`]: a pattern vertex with
    /// requirement `r` is only a candidate for target vertices whose
    /// mask contains every bit of `r`. A target without capabilities
    /// accepts every requirement (as if every mask were all-ones).
    ///
    /// # Panics
    ///
    /// Panics if `capabilities` does not cover every vertex.
    #[must_use]
    pub fn with_capabilities(mut self, capabilities: Vec<u32>) -> Self {
        assert_eq!(
            capabilities.len(),
            self.labels.len(),
            "one capability mask per vertex"
        );
        self.capabilities = capabilities;
        self
    }

    /// The capability bitmask of a vertex (all-ones when the target
    /// carries no capability map).
    pub fn capability(&self, v: usize) -> u32 {
        self.capabilities.get(v).copied().unwrap_or(u32::MAX)
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range vertices, self-loops, or targets built
    /// with per-distance tiers (their relation is fixed at
    /// construction; mutating the union rows would desynchronise the
    /// distance structure).
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "self loops are implicit in the target");
        assert!(self.tiers.is_empty(), "tiered targets are immutable");
        self.rows[a].insert(b);
        self.rows[b].insert(a);
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// The label of a vertex.
    pub fn label(&self, v: usize) -> u32 {
        self.labels[v]
    }

    /// The adjacency row of a vertex.
    pub fn row(&self, v: usize) -> &DenseBitSet {
        &self.rows[v]
    }

    /// The degree of a vertex.
    pub fn degree(&self, v: usize) -> usize {
        self.rows[v].len()
    }

    /// Adjacency test.
    pub fn adjacent(&self, a: usize, b: usize) -> bool {
        self.rows[a].contains(b)
    }

    /// The length of the shortest route relating `a` and `b`, when they
    /// are related at all: the index of the first tier containing the
    /// pair. Targets built without tiers ([`Target::new`],
    /// [`Target::from_rows`]) model the classic one-hop relation and
    /// report every related pair as length 1.
    pub fn route_length(&self, a: usize, b: usize) -> Option<usize> {
        if self.tiers.is_empty() {
            return self.rows[a].contains(b).then_some(1);
        }
        self.tiers.iter().position(|tier| tier[a].contains(b))
    }
}

/// A target whose vertices come in identically wired *layers*: vertex
/// `(layer, i)` carries label `layer`, and whether two vertices are
/// adjacent depends only on their indices and on whether they share a
/// layer. Two relations over `width` indices therefore describe a
/// target of any number of layers, and a search reads `width`-bit rows
/// however many layers the pattern's labels name.
///
/// For the CGRA mapper this is the MRRG as it really is — layer = kernel
/// slot, index = PE, `same` = "within the route bound, excluding the PE
/// itself", `cross` = the same plus the PE itself — so one structure,
/// independent of II, serves every iteration interval. A found map
/// reports vertex `(layer, i)` as `layer · width + i`, the numbering of
/// the equivalent dense [`Target`].
#[derive(Clone, Debug)]
pub struct LayeredTarget {
    /// `same[i]`: indices adjacent to `i` within one layer.
    pub(crate) same: Vec<DenseBitSet>,
    /// `cross[i]`: indices adjacent to `i` in every other layer.
    pub(crate) cross: Vec<DenseBitSet>,
    /// The indices grouped by `(capability, |same[i]|, |cross[i]|)`, the
    /// only facts a search's initial domains read: one profile on a
    /// homogeneous torus, three on a mesh (corners, edges, interior).
    pub(crate) profiles: Vec<Profile>,
    /// Candidates of the first-placed pattern vertex; see
    /// [`LayeredTarget::with_roots`].
    pub(crate) roots: Option<DenseBitSet>,
}

/// The indices of a [`LayeredTarget`] that share a capability mask and
/// both degrees, so that every pattern vertex either fits all of them
/// or none.
#[derive(Clone, Debug)]
pub(crate) struct Profile {
    /// The capability mask of every member.
    pub(crate) capability: u32,
    /// Neighbours of every member within its layer.
    pub(crate) same: usize,
    /// Neighbours of every member in each other layer.
    pub(crate) cross: usize,
    /// The members, as a set over the width.
    pub(crate) members: DenseBitSet,
}

impl LayeredTarget {
    /// Builds a layered target from its same-layer and cross-layer
    /// relations and one capability mask per index.
    ///
    /// # Panics
    ///
    /// Panics if the three vectors disagree in length or a row's
    /// capacity is not that length. Symmetry of both relations is the
    /// caller's responsibility (checked in debug builds).
    pub fn new(same: Vec<DenseBitSet>, cross: Vec<DenseBitSet>, capabilities: Vec<u32>) -> Self {
        let n = capabilities.len();
        assert_eq!(same.len(), n, "one same-layer row per index");
        assert_eq!(cross.len(), n, "one cross-layer row per index");
        for rows in [&same, &cross] {
            for (a, row) in rows.iter().enumerate() {
                assert_eq!(row.capacity(), n, "row capacity must equal the width");
                debug_assert!(
                    row.iter().all(|b| rows[b].contains(a)),
                    "relations must be symmetric (index {a})"
                );
            }
        }
        let mut profiles: Vec<Profile> = Vec::new();
        for (a, &capability) in capabilities.iter().enumerate() {
            let (s, c) = (same[a].len(), cross[a].len());
            let at = profiles
                .iter()
                .position(|p| (p.capability, p.same, p.cross) == (capability, s, c))
                .unwrap_or_else(|| {
                    profiles.push(Profile {
                        capability,
                        same: s,
                        cross: c,
                        members: DenseBitSet::new(n),
                    });
                    profiles.len() - 1
                });
            profiles[at].members.insert(a);
        }
        LayeredTarget {
            same,
            cross,
            profiles,
            roots: None,
        }
    }

    /// Restricts the first pattern vertex a search places to `roots`.
    ///
    /// Sound — no embeddable pattern is reported [`Exhausted`] — when
    /// `roots` holds one index per orbit of a group of permutations
    /// that preserve both relations and the capability masks: such a
    /// permutation applied to every layer at once is an automorphism of
    /// the whole target, so any embedding can be moved until its first
    /// vertex sits on its orbit's representative. Enumeration
    /// ([`Searcher::find_all`]) then reports one embedding per orbit of
    /// embeddings rather than all of them.
    ///
    /// [`Exhausted`]: crate::MonoOutcome::Exhausted
    /// [`Searcher::find_all`]: crate::Searcher::find_all
    ///
    /// # Panics
    ///
    /// Panics if the capacity of `roots` is not the width.
    #[must_use]
    pub fn with_roots(mut self, roots: DenseBitSet) -> Self {
        assert_eq!(roots.capacity(), self.width(), "one root bit per index");
        self.roots = Some(roots);
        self
    }

    /// Indices per layer.
    pub fn width(&self) -> usize {
        self.same.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_dedups_and_sorts() {
        let p = Pattern::new(vec![0, 0, 1], vec![(0, 1), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(p.num_edges(), 2);
        assert_eq!(p.neighbors(1), &[0, 2]);
        assert_eq!(p.degree(1), 2);
        assert_eq!(p.label(2), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pattern_rejects_bad_edge() {
        let _ = Pattern::new(vec![0], vec![(0, 1)]);
    }

    #[test]
    fn target_edges_symmetric() {
        let mut t = Target::new(vec![0, 1, 2]);
        t.add_edge(0, 2);
        assert!(t.adjacent(0, 2));
        assert!(t.adjacent(2, 0));
        assert!(!t.adjacent(0, 1));
        assert_eq!(t.degree(0), 1);
    }

    #[test]
    fn target_from_rows() {
        let mut rows = vec![DenseBitSet::new(2), DenseBitSet::new(2)];
        rows[0].insert(1);
        rows[1].insert(0);
        let t = Target::from_rows(vec![5, 5], rows);
        assert!(t.adjacent(0, 1));
        assert_eq!(t.label(0), 5);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn target_rejects_self_loop() {
        let mut t = Target::new(vec![0]);
        t.add_edge(0, 0);
    }

    /// A 4-vertex path 0—1—2—3 expressed as distance tiers up to 2:
    /// the union rows relate pairs at distance ≤ 2 and `route_length`
    /// recovers the per-pair distance.
    fn path_tiers() -> Target {
        let n = 4;
        let tier0 = vec![DenseBitSet::new(n); n]; // no held-value pairs
        let mut tier1 = vec![DenseBitSet::new(n); n];
        let mut tier2 = vec![DenseBitSet::new(n); n];
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            tier1[a].insert(b);
            tier1[b].insert(a);
        }
        for (a, b) in [(0, 2), (1, 3)] {
            tier2[a].insert(b);
            tier2[b].insert(a);
        }
        Target::from_tiers(vec![0; n], vec![tier0, tier1, tier2])
    }

    #[test]
    fn tiered_target_unions_rows_and_reports_route_lengths() {
        let t = path_tiers();
        // The DFS-facing relation is the cumulative union.
        assert!(t.adjacent(0, 1));
        assert!(t.adjacent(0, 2));
        assert!(!t.adjacent(0, 3));
        assert_eq!(t.degree(1), 3);
        // The distance structure survives for route recording.
        assert_eq!(t.route_length(0, 1), Some(1));
        assert_eq!(t.route_length(2, 0), Some(2));
        assert_eq!(t.route_length(0, 3), None);
        assert_eq!(t.route_length(1, 1), None);
    }

    #[test]
    fn untier_target_reports_unit_route_lengths() {
        let mut t = Target::new(vec![0, 0, 0]);
        t.add_edge(0, 2);
        assert_eq!(t.route_length(0, 2), Some(1));
        assert_eq!(t.route_length(0, 1), None);
    }

    #[test]
    #[should_panic(expected = "immutable")]
    fn tiered_target_rejects_add_edge() {
        let mut t = path_tiers();
        t.add_edge(0, 3);
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn from_tiers_rejects_empty() {
        let _ = Target::from_tiers(vec![0, 0], Vec::new());
    }
}
