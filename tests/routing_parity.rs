//! Routing-parity lock: at the default `max_route_hops = 1` the
//! routing-aware space phase must reproduce the pre-routing serial
//! mappings **byte for byte**, for every suite kernel on the
//! homogeneous and the heterogeneous 4×4, across all three engines.
//!
//! The golden battery (`tests/golden/routing_parity.tsv`) was captured
//! at the commit immediately before the k-hop reachability model was
//! introduced, by `cargo run --release -p cgra-bench --bin
//! routing_goldens`; regenerate it the same way if a *deliberate*
//! behaviour change ever invalidates it.
//!
//! The decoupled engine is cheap enough to re-run everywhere; the
//! coupled SAT battery (50k conflicts per attempt) and the annealer
//! only run under `cargo test --release`.

use std::collections::BTreeMap;

use cgra_arch::{CapabilityProfile, Cgra, Topology};
use cgra_dfg::suite;
use cgra_sim::{interpret, MachineSimulator, SimEnv};
use monomap_bench::{
    annealing_golden_line, coupled_golden_line, decoupled_golden_line, routing_golden_lines,
};
use monomap_core::{DecoupledMapper, MapperConfig};

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
            // The two kernels that escalate through every II on the
            // heterogeneous grid dominate an unoptimised run; they stay
            // covered by the release battery.
            if cfg!(debug_assertions) && grid == "het4" && matches!(kernel, "cfd" | "hotspot3D") {
                continue;
            }
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

#[test]
fn two_hop_routes_close_the_mesh_vs_torus_gap() {
    // What the wider model buys (the retired routing_ablation numbers):
    // a 4x4 mesh lacks the torus's wrap-around links, and a two-hop
    // bound wins the II back — hotspot3D 5 -> 4 (the torus II), susan
    // 3 -> 2. Every routed mapping runs on the machine simulator, whose
    // independent BFS refuses over-long routes, and matches the
    // reference interpreter.
    let mesh = Cgra::with_topology(4, 4, Topology::Mesh).unwrap();
    let env = SimEnv::new(256)
        .with_input_stream(vec![3, 7, 11, 15])
        .with_input_stream(vec![2, 4, 6, 8])
        .with_input_stream(vec![1, 5, 9, 13])
        .with_input_stream(vec![6, 2, 8, 4]);
    for (kernel, ii_k1, ii_k2) in [("hotspot3D", 5, 4), ("susan", 3, 2)] {
        // Escalating hotspot3D on the mesh dominates an unoptimised
        // run; it stays covered under `cargo test --release`.
        if cfg!(debug_assertions) && kernel == "hotspot3D" {
            continue;
        }
        let dfg = suite::generate(kernel);
        let map = |k| {
            let cfg = MapperConfig::new().with_max_ii(16).with_max_route_hops(k);
            DecoupledMapper::with_config(&mesh, cfg).map(&dfg).unwrap()
        };
        assert_eq!(map(1).mapping.ii(), ii_k1, "{kernel} at k=1");
        let routed = map(2).mapping;
        assert_eq!(routed.ii(), ii_k2, "{kernel} at k=2");
        routed.validate_routed(&dfg, &mesh, 2).unwrap();
        let machine = MachineSimulator::new(&mesh, &dfg, &routed)
            .with_max_route_hops(2)
            .run(&env, 4)
            .unwrap_or_else(|e| panic!("{kernel}: machine refused the routed mapping: {e:?}"));
        let reference = interpret(&dfg, &env, 4).unwrap();
        assert_eq!(machine.outputs, reference.outputs, "{kernel}");
        assert_eq!(machine.memory, reference.memory, "{kernel}");
    }
}
