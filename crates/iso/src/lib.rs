//! # cgra-iso — subgraph monomorphism search
//!
//! The spatial half of the `monomap` mapper (paper §IV-C): given the
//! scheduled DFG (an undirected graph whose vertices are labelled with
//! kernel slots) and the MRRG (a much larger labelled graph), find an
//! **injective, label-preserving, edge-preserving** map — a
//! monomorphism (paper §IV-A, properties mono1–mono3).
//!
//! The engine is a propagating backtracking search — forward checking
//! with an all-different count, the pruning a coupled SAT encoding gets
//! from unit propagation — specialised to the structure of the problem:
//!
//! * every unplaced pattern vertex keeps a live candidate domain, a bit
//!   set over the target vertices of *its own label* only (every DFG
//!   node can only map into its own MRRG time layer);
//! * placing a vertex intersects the domains of its unplaced neighbours
//!   with the neighbourhood row of the chosen target vertex, under a
//!   trail; injectivity costs one used-mask per label;
//! * a vertex left without a candidate, or a label with more unplaced
//!   vertices than candidates in the union of their domains, fails the
//!   branch at once;
//! * the next vertex is always the one with the fewest live candidates;
//! * requirement/capability masks and per-label degrees filter the
//!   domains up front, followed by an arc-consistency pass whenever
//!   that filter removed anything;
//! * a step budget (one step = one placement, stopped exactly) and a
//!   cancellation flag make the search interruptible.
//!
//! A target is either a general labelled graph ([`Target`]) or a
//! [`LayeredTarget`], whose layers are wired identically — the MRRG's
//! real shape, described by two relations over the PEs whatever the II.
//! Both run through the same [`Searcher`] loop. Apart from that shape
//! the crate is independent of CGRA specifics.
//!
//! ## Example
//!
//! ```
//! use cgra_iso::{Pattern, Target, find_monomorphism};
//!
//! // Pattern: a labelled path a(0) - b(1) - c(0).
//! let pattern = Pattern::new(vec![0, 1, 0], vec![(0, 1), (1, 2)]);
//! // Target: a labelled square with one diagonal.
//! let mut target = Target::new(vec![0, 1, 0, 1]);
//! for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)] {
//!     target.add_edge(a, b);
//! }
//! let m = find_monomorphism(&pattern, &target).expect("embeddable");
//! assert_eq!(m.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod search;

pub use graph::{LayeredTarget, Pattern, Target};
pub use search::{
    count_monomorphisms, find_monomorphism, is_monomorphism, MonoOutcome, MonoStats, SearchConfig,
    Searcher,
};
