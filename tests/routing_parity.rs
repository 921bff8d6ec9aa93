//! Routing-parity lock: at the default `max_route_hops = 1` the
//! routing-aware space phase must reproduce the committed serial
//! mappings **byte for byte**, for every suite kernel on the
//! homogeneous and the heterogeneous 4×4, across all three engines.
//!
//! The golden battery (`tests/golden/routing_parity.tsv`) is captured
//! by `cargo run --release -p cgra-bench --bin routing_goldens`;
//! regenerate it the same way if a *deliberate* behaviour change ever
//! invalidates it. The coupled and annealing lines date from the commit
//! immediately before the k-hop reachability model; the decoupled lines
//! were re-captured once, when the propagating monomorphism search
//! replaced the static-order DFS — kernel, grid, status and II of every
//! line unchanged, 28 of the 34 placements another embedding of the
//! same II. The whole file was re-captured when the suite became the
//! compiled `kernels/*.mk`, whose node numbering differs from the
//! retired generator's: 76 lines kept status and II with another
//! placement, and two decoupled and eight annealing lines moved II or
//! status (every coupled line kept both).
//!
//! The decoupled engine is cheap enough to re-run everywhere; the
//! coupled SAT battery (50k conflicts per attempt) and the annealer
//! only run under `cargo test --release`.

use std::collections::BTreeMap;

use cgra_arch::{CapabilityProfile, Cgra, Topology};
use cgra_dfg::Dfg;
use cgra_sched::min_ii;
use cgra_sim::{interpret, simulate_report, MachineSimulator, SimEnv};
use monomap_bench::{
    annealing_golden_line, coupled_golden_line, decoupled_golden_line, routing_golden_lines,
};
use monomap_core::api::{EngineId, MapRequest, MappingService};
use monomap_core::{DecoupledMapper, MapperConfig, Mapping};
use monomap_frontend::suite;

const GOLDEN: &str = include_str!("golden/routing_parity.tsv");

fn grids() -> Vec<(&'static str, Cgra)> {
    vec![
        ("hom4", Cgra::new(4, 4).unwrap()),
        (
            "het4",
            Cgra::new(4, 4)
                .unwrap()
                .with_capability_profile(CapabilityProfile::MemLeftMulCheckerboard),
        ),
    ]
}

/// The committed battery, keyed by `(engine, grid, kernel)`.
fn golden_lines() -> BTreeMap<(String, String, String), String> {
    let mut map = BTreeMap::new();
    for line in GOLDEN.lines() {
        let mut parts = line.splitn(4, '\t');
        let engine = parts.next().expect("engine field").to_string();
        let grid = parts.next().expect("grid field").to_string();
        let kernel = parts.next().expect("kernel field").to_string();
        let prev = map.insert((engine, grid, kernel), line.to_string());
        assert!(prev.is_none(), "duplicate golden line: {line}");
    }
    assert_eq!(
        map.len(),
        3 * 2 * suite::names().len(),
        "battery covers engines x grids x kernels"
    );
    map
}

#[test]
fn decoupled_k1_matches_the_pre_routing_goldens() {
    let golden = golden_lines();
    for (grid, cgra) in grids() {
        for kernel in suite::names() {
            let line = decoupled_golden_line(&cgra, grid, kernel);
            let key = (
                "decoupled".to_string(),
                grid.to_string(),
                kernel.to_string(),
            );
            assert_eq!(
                golden.get(&key),
                Some(&line),
                "decoupled/{grid}/{kernel} diverged from the golden mapping"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the coupled SAT battery is release-only: cargo test --release"
)]
fn coupled_k1_matches_the_pre_routing_goldens() {
    let golden = golden_lines();
    for (grid, cgra) in grids() {
        for kernel in suite::names() {
            let line = coupled_golden_line(&cgra, grid, kernel);
            let key = ("coupled".to_string(), grid.to_string(), kernel.to_string());
            assert_eq!(
                golden.get(&key),
                Some(&line),
                "coupled/{grid}/{kernel} diverged from the golden mapping"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the annealing battery is release-only: cargo test --release"
)]
fn annealing_k1_matches_the_pre_routing_goldens() {
    let golden = golden_lines();
    for (grid, cgra) in grids() {
        for kernel in suite::names() {
            let line = annealing_golden_line(&cgra, grid, kernel);
            let key = (
                "annealing".to_string(),
                grid.to_string(),
                kernel.to_string(),
            );
            assert_eq!(
                golden.get(&key),
                Some(&line),
                "annealing/{grid}/{kernel} diverged from the golden mapping"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the full battery is release-only: cargo test --release"
)]
fn full_battery_is_byte_identical() {
    // The strongest form of the lock: regenerating the whole file in
    // suite order reproduces the committed bytes exactly (field order,
    // line order, trailing newline and all).
    let mut lines = Vec::new();
    let grids = grids();
    for kernel in suite::names() {
        for (grid, cgra) in &grids {
            lines.extend(routing_golden_lines(cgra, grid, kernel));
        }
    }
    assert_eq!(GOLDEN, lines.join("\n") + "\n");
}

/// Seed of the memory image the routed-mapping tests simulate on,
/// chosen so that no kernel and route bound in this file reorders a
/// same-word memory access (which `simulated_ii` asserts).
const MEMORY_SEED: u64 = 1;

/// The 4×4 mesh and the inputs the routed-mapping tests simulate on.
fn mesh_and_env() -> (Cgra, SimEnv) {
    let mesh = Cgra::with_topology(4, 4, Topology::Mesh).unwrap();
    // xorshift64: 256 words spread over a wider range than the memory,
    // so addresses computed from them rarely collide.
    let mut state = MEMORY_SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let memory = (0..256)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 4096) as i64
        })
        .collect();
    let env = SimEnv::new(256)
        .with_memory(memory)
        .with_input_stream(vec![3, 7, 11, 15])
        .with_input_stream(vec![2, 4, 6, 8])
        .with_input_stream(vec![1, 5, 9, 13])
        .with_input_stream(vec![6, 2, 8, 4]);
    (mesh, env)
}

/// Maps `dfg` on `mesh` under a `hops`-hop route bound and checks the
/// mapping with the routed validator.
fn map_on_mesh(mesh: &Cgra, dfg: &Dfg, hops: usize) -> Mapping {
    let cfg = MapperConfig::new()
        .with_max_ii(16)
        .with_max_route_hops(hops);
    let mapping = DecoupledMapper::with_config(mesh, cfg)
        .map(dfg)
        .unwrap()
        .mapping;
    mapping.validate_routed(dfg, mesh, hops).unwrap();
    mapping
}

/// Maps `kernel` as [`map_on_mesh`] does, runs the mapping on the
/// machine simulator — whose independent BFS refuses over-long routes —
/// checks that it kept every same-word memory access in interpreter
/// order and then matches the reference interpreter, and returns the
/// achieved II.
fn simulated_ii(mesh: &Cgra, env: &SimEnv, kernel: &str, hops: usize) -> usize {
    let dfg = suite::generate(kernel);
    let mapping = map_on_mesh(mesh, &dfg, hops);
    let machine = MachineSimulator::new(mesh, &dfg, &mapping)
        .with_max_route_hops(hops)
        .run(env, 4)
        .unwrap_or_else(|e| panic!("{kernel} k={hops}: machine refused the mapping: {e:?}"));
    assert_eq!(machine.reorders, [], "{kernel} k={hops}");
    let reference = interpret(&dfg, env, 4).unwrap();
    assert_eq!(machine.outputs, reference.outputs, "{kernel} k={hops}");
    assert_eq!(machine.memory, reference.memory, "{kernel} k={hops}");
    mapping.ii()
}

#[test]
fn two_hop_routes_close_the_mesh_vs_torus_gap() {
    // What the wider model buys (the retired routing_ablation numbers):
    // a 4x4 mesh lacks the torus's wrap-around links, and a two-hop
    // bound wins the II back — susan 3 -> 2.
    let (mesh, env) = mesh_and_env();
    assert_eq!(simulated_ii(&mesh, &env, "susan", 1), 3);
    assert_eq!(simulated_ii(&mesh, &env, "susan", 2), 2);
}

#[test]
fn hotspot3d_maps_on_the_one_hop_mesh_at_its_mii() {
    // This row used to read 5 -> 4 in the gap test above: the
    // static-order DFS ran into the step limit on every II-4 schedule
    // and escalated. The propagating search embeds one, so the one-hop
    // mesh reaches mII = 4 (the torus II) and there is no gap left for
    // two hops to close. The II is new, so the mapping behind it is
    // validated and simulated here, in debug and release alike.
    let (mesh, env) = mesh_and_env();
    assert_eq!(min_ii(&suite::generate("hotspot3D"), &mesh), 4);
    assert_eq!(simulated_ii(&mesh, &env, "hotspot3D", 1), 4);
    assert_eq!(simulated_ii(&mesh, &env, "hotspot3D", 2), 4);
}

#[test]
fn hotspot3d_reorders_memory_on_the_all_zero_image() {
    // hotspot3D has no memory edges, and with every word zero its
    // addresses collapse onto a few words, so the pipelined machine
    // runs same-word accesses out of interpreter order and the final
    // memories differ. The simulator must report the race, and the
    // report check must name it, rather than leave a match to luck.
    let (mesh, env) = mesh_and_env();
    let env = env.with_memory(vec![0; 256]);
    let dfg = suite::generate("hotspot3D");
    for hops in [1, 2] {
        let cfg = MapperConfig::new()
            .with_max_ii(16)
            .with_max_route_hops(hops);
        let report = MappingService::new(&mesh)
            .map(&MapRequest::new(EngineId::Decoupled, dfg.clone()).with_config(cfg));
        let mapping = report.mapping.as_ref().expect("hotspot3D maps");
        let machine = MachineSimulator::new(&mesh, &dfg, mapping)
            .run(&env, 4)
            .unwrap();
        assert_eq!(machine.reorders.len(), 10, "k={hops}");
        assert_ne!(machine.memory, interpret(&dfg, &env, 4).unwrap().memory);
        let first = machine.reorders[0].to_string();
        assert_eq!(
            first,
            "n20 of iteration 2 touched address 0 before n41 of iteration 0"
        );
        let err = simulate_report(&dfg, &mesh, &report, &env, 4).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("simulation divergence: final memories differ (first memory reorder: {first})")
        );
    }
}
