//! The achieved II may only fall: every `kernels/*.mk` under four
//! seeded renumberings on the 4×4 torus maps at or below the II the
//! mapper reached before the propagating search and the step-budget
//! ladder, and every one of those mappings — whose placements are all
//! new — passes the routed validator and runs on the machine simulator.
//!
//! A renumbering changes neither the kernel nor its mII, only the
//! variable order the mapper sees, which is what makes the II vary at
//! all: a search that runs out of steps on one numbering escalates the
//! II where another numbering embeds.

use monomap::core::TimeStrategy;
use monomap::prelude::*;

mod common;
use common::{assert_mapping_invariants, renumbered};

/// `(kernel, II per renumbering seed 1..=4)`, captured at the commit
/// before the search was replaced (`PRINT_II_TABLE=1` prints the
/// current one in this form).
const PARENT_II: [(&str, [usize; 4]); 17] = [
    ("aes", [14, 14, 14, 14]),
    ("backprop", [5, 5, 5, 5]),
    ("basicmath", [7, 7, 7, 7]),
    ("bitcount", [3, 3, 3, 3]),
    ("cfd", [4, 4, 4, 4]),
    ("crc32", [8, 8, 8, 8]),
    ("fft", [7, 7, 7, 7]),
    ("gsm", [4, 4, 4, 4]),
    ("heartwall", [3, 3, 3, 3]),
    ("hotspot3D", [4, 4, 4, 4]),
    ("lud", [3, 3, 3, 3]),
    ("nw", [3, 3, 3, 3]),
    ("particlefilter", [9, 9, 9, 9]),
    ("sha1", [2, 2, 2, 2]),
    ("sha2", [7, 7, 7, 7]),
    ("stringsearch", [3, 3, 3, 3]),
    ("susan", [3, 2, 3, 3]),
];

fn print_table() -> bool {
    std::env::var_os("PRINT_II_TABLE").is_some()
}

#[test]
fn renumbered_kernels_never_map_at_a_higher_ii() {
    let cgra = Cgra::new(4, 4).unwrap();
    let env = SimEnv::new(256)
        .with_memory((0..256).map(|i| i * 3).collect())
        .with_input_stream((0..16).collect())
        .with_input_stream((16..32).collect())
        .with_input_stream((5..21).collect())
        .with_input_stream((7..23).collect());
    let mut kernels: Vec<_> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/kernels"))
        .expect("kernels/ exists")
        .map(|e| e.unwrap().path())
        .collect();
    kernels.sort();
    assert_eq!(kernels.len(), PARENT_II.len());
    for (k, path) in kernels.iter().enumerate() {
        let source = std::fs::read_to_string(path).unwrap();
        let compiled = monomap_frontend::compile_one(&source).expect("suite kernels compile");
        let mut row = [0; 4];
        for seed in 1..=4u64 {
            let dfg = renumbered(&compiled, seed);
            assert_eq!(dfg.digest(), compiled.digest(), "same kernel");
            let mapping = DecoupledMapper::new(&cgra)
                .map(&dfg)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", dfg.name()))
                .mapping;
            assert_mapping_invariants(&dfg, &cgra, &mapping);
            MachineSimulator::new(&cgra, &dfg, &mapping)
                .run(&env, 4)
                .unwrap_or_else(|e| panic!("{} seed {seed}: sim fault {e}", dfg.name()));
            row[seed as usize - 1] = mapping.ii();
        }
        if print_table() {
            println!("    ({:?}, {row:?}),", compiled.name());
            continue;
        }
        let (name, parent) = PARENT_II[k];
        assert_eq!(name, compiled.name());
        for (seed, (ii, parent_ii)) in row.iter().zip(parent).enumerate() {
            assert!(
                ii <= &parent_ii,
                "{name} seed {}: II {ii} above the parent's {parent_ii}",
                seed + 1
            );
        }
    }
}

#[test]
fn heuristic_maps_hotspot3d_on_5x5_at_its_mii() {
    // The row where IMS beats the SMT time phase, in this numbering of
    // hotspot3D: IMS's one schedule at mII 3 embeds on the first
    // attempt, while none of SMT's schedules at 3 does and it settles
    // at II 4 after 11–13 s and 35.6 M search steps (not run here). In
    // the suite's own numbering SMT reaches 3 as well.
    let cgra = Cgra::new(5, 5).unwrap();
    let dfg = renumbered(&suite::generate("hotspot3D"), 1);
    let cfg = MapperConfig::new().with_time_strategy(TimeStrategy::Heuristic);
    let result = DecoupledMapper::with_config(&cgra, cfg).map(&dfg).unwrap();
    assert_mapping_invariants(&dfg, &cgra, &result.mapping);
    assert_eq!(result.stats.mii, 3);
    assert_eq!(result.mapping.ii(), 3);
    assert_eq!(result.stats.space_attempts, 1);
}

#[test]
fn cancel_mid_map_reports_timeout_not_no_solution() {
    // Regression: a flag raised while a level was blocked inside the
    // SMT enumeration used to fall through as level exhaustion and
    // could surface as NoSolution. This numbering of hotspot3D searches
    // for seconds on 5×5 (it ends at II 4 after 68 attempts and 35.6 M
    // steps), so a flag raised at 50 ms always lands mid-map: the
    // error must be Timeout, and the return prompt.
    let cgra = Cgra::new(5, 5).unwrap();
    let dfg = renumbered(&suite::generate("hotspot3D"), 1);
    let mut mapper = DecoupledMapper::new(&cgra);
    let flag = CancelFlag::new();
    mapper.set_cancel(flag.clone());
    let started = std::time::Instant::now();
    let result = std::thread::scope(|scope| {
        scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            flag.cancel();
        });
        mapper.map(&dfg)
    });
    assert!(
        matches!(result, Err(MapError::Timeout { .. })),
        "{result:?}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "a cancelled map must return promptly, took {:?}",
        started.elapsed()
    );
}
