//! An encode's allocation budget, counted rather than timed: once a
//! thread has encoded the suite, re-encoding any suite kernel at its mII
//! (`TimeSolver::new`, then the drop) allocates at most
//! [`PER_NODE`] times per DFG node, however many clauses the formula
//! has. The SAT store, the clause arena and the encoder's buffers are
//! recycled per thread; what is left is the per-level `validate`,
//! `Mobility` and adjacency index, a fixed count per encode. A clause
//! store that allocates per clause (one `Vec` per clause costs about
//! three allocations each) fails at once.
//!
//! The counting allocator is this binary's global allocator, so the
//! binary holds this one test: another test running beside it would
//! add its allocations to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cgra_arch::{CapabilityProfile, Cgra};
use cgra_dfg::Dfg;
use cgra_sched::{min_ii, TimeSolver, TimeSolverConfig};
use monomap_frontend::suite;

/// Counts `alloc` and `realloc` calls while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed per DFG node for one warmed encode. Measured: 20
/// per encode on every grid and kernel, whatever its clause count, which
/// is 2.9 per node on the smallest kernel (`bitcount`, 7 nodes).
const PER_NODE: u64 = 3;

/// Allocations made by encoding `dfg` at `ii` and dropping the solver.
fn encode_allocations(dfg: &Dfg, ii: usize, config: &TimeSolverConfig) -> (u64, usize) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let solver = TimeSolver::new(dfg, ii, config.clone()).expect("suite kernels encode");
    let clauses = solver.stats().clauses;
    drop(solver);
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), clauses)
}

#[test]
fn a_warmed_encode_allocates_a_fixed_count_per_node() {
    let grids = [
        ("hom2", Cgra::new(2, 2).unwrap()),
        ("hom4", Cgra::new(4, 4).unwrap()),
        ("hom20", Cgra::new(20, 20).unwrap()),
        (
            "het4",
            Cgra::new(4, 4)
                .unwrap()
                .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard),
        ),
    ];
    let kernels: Vec<Dfg> = suite::generate_all();
    for (grid, cgra) in &grids {
        let config = TimeSolverConfig::for_cgra(cgra);
        let cells: Vec<(&Dfg, usize)> = kernels.iter().map(|d| (d, min_ii(d, cgra))).collect();
        // Warm this thread's store on every formula of the grid.
        for &(dfg, ii) in &cells {
            encode_allocations(dfg, ii, &config);
        }
        let mut total_allocations = 0;
        let mut total_clauses = 0;
        for &(dfg, ii) in &cells {
            let (allocations, clauses) = encode_allocations(dfg, ii, &config);
            let nodes = dfg.num_nodes() as u64;
            println!(
                "{grid}\t{}\tnodes {nodes}\tclauses {clauses}\tallocations {allocations}",
                dfg.name()
            );
            assert!(
                allocations <= PER_NODE * nodes,
                "{grid} {}: {allocations} allocations for {nodes} nodes ({clauses} clauses)",
                dfg.name()
            );
            total_allocations += allocations;
            total_clauses += clauses;
        }
        println!("{grid}\ttotal\tclauses {total_clauses}\tallocations {total_allocations}");
    }
}
