//! Integration tests of the content-addressed mapping cache: the
//! ISSUE-5 acceptance battery — concurrent hammering with
//! byte-identical reports, digest collision sanity (renumbered
//! isomorphic kernels hit, one-edge-different kernels miss), and the
//! capacity bound under eviction churn.

use std::sync::Arc;

use cgra_arch::Cgra;
use cgra_baseline::standard_service;
use cgra_dfg::examples::{accumulator, running_example};
use cgra_dfg::{Dfg, DfgBuilder, NodeId, Operation};
use monomap_core::api::{EngineId, MapRequest, MappingService};
use monomap_core::MapReport;
use monomap_frontend::suite;
use monomap_service::{CacheDisposition, CachedMappingService, MapCache};

fn cached_service(capacity: usize) -> CachedMappingService {
    let cgra = Cgra::new(2, 2).unwrap();
    CachedMappingService::new(standard_service(&cgra), capacity)
}

/// JSON form with the wall-clock stats fields zeroed: the cache
/// guarantee is byte-identity *modulo timing*, and a cached report
/// replays the original solve's timings while a fresh reference solve
/// measures its own.
fn json_modulo_timing(report: &MapReport) -> String {
    let mut r = report.clone();
    r.stats.total_seconds = 0.0;
    r.stats.time_phase_seconds = 0.0;
    r.stats.time_encode_seconds = 0.0;
    r.stats.time_solve_seconds = 0.0;
    r.stats.space_phase_seconds = 0.0;
    serde_json::to_string(&r).unwrap()
}

/// Renumbers `dfg` by `perm` (`perm[old] = new`), fresh names.
fn renumber(dfg: &Dfg, perm: &[usize]) -> Dfg {
    let mut g = Dfg::new(dfg.name().to_string());
    let mut old_at = vec![0usize; dfg.num_nodes()];
    for (old, &new) in perm.iter().enumerate() {
        old_at[new] = old;
    }
    for &old in &old_at {
        let v = NodeId::from_index(old);
        g.add_node(dfg.op(v), dfg.node_name(v).to_string());
    }
    for e in dfg.edges() {
        g.add_edge(
            NodeId::from_index(perm[e.src.index()]),
            NodeId::from_index(perm[e.dst.index()]),
            e.operand,
            e.kind,
        );
    }
    g
}

fn reversal(n: usize) -> Vec<usize> {
    (0..n).map(|i| n - 1 - i).collect()
}

#[test]
fn concurrent_hammering_returns_byte_identical_input_order_reports() {
    let svc = Arc::new(cached_service(64));
    let kernels = [running_example(), accumulator()];
    // Serial references, computed on a *separate* uncached service.
    let reference_service = MappingService::new(&Cgra::new(2, 2).unwrap());
    let references: Vec<String> = kernels
        .iter()
        .map(|k| {
            json_modulo_timing(
                &reference_service.map(&MapRequest::new(EngineId::Decoupled, k.clone())),
            )
        })
        .collect();

    const THREADS: usize = 8;
    const ROUNDS: usize = 6;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let svc = Arc::clone(&svc);
            let kernels = &kernels;
            let references = &references;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Every thread interleaves kernels differently.
                    let order = if (t + round) % 2 == 0 { [0, 1] } else { [1, 0] };
                    let requests: Vec<MapRequest> = order
                        .iter()
                        .map(|&i| MapRequest::new(EngineId::Decoupled, kernels[i].clone()))
                        .collect();
                    let results = svc.map_batch(&requests);
                    for (&i, (report, _)) in order.iter().zip(&results) {
                        assert_eq!(report.dfg_name, kernels[i].name(), "reports in input order");
                        assert_eq!(
                            json_modulo_timing(report),
                            references[i],
                            "cached reports are byte-identical to the serial solve"
                        );
                    }
                }
            });
        }
    });
    let stats = svc.stats();
    let lookups = (THREADS * ROUNDS * 2) as u64;
    assert_eq!(stats.hits + stats.misses, lookups);
    assert!(
        stats.hits >= lookups - (THREADS as u64) * 2,
        "all but the racing cold solves hit: {stats:?}"
    );
    assert_eq!(stats.collisions, 0);
}

#[test]
fn renumbered_isomorphic_kernel_hits_and_translates() {
    let svc = cached_service(64);
    for name in ["susan", "sha1"] {
        let original = suite::generate(name);
        let (first, d1) = svc.map(&MapRequest::new(EngineId::Decoupled, original.clone()));
        assert_eq!(d1, CacheDisposition::Miss, "{name}");
        assert!(first.outcome.is_mapped(), "{name}: {:?}", first.outcome);

        let perm = reversal(original.num_nodes());
        let renumbered = renumber(&original, &perm);
        renumbered
            .validate()
            .expect("renumbering preserves validity");
        let (second, d2) = svc.map(&MapRequest::new(EngineId::Decoupled, renumbered.clone()));
        assert_eq!(
            d2,
            CacheDisposition::Hit,
            "{name}: isomorphic kernel must hit"
        );
        assert_eq!(second.outcome.ii(), first.outcome.ii(), "same II");
        // The translated mapping is valid for the *renumbered* graph.
        let mapping = second.mapping.expect("hit carries the mapping");
        mapping
            .validate(&renumbered, svc.inner().cgra())
            .expect("translated placements are valid for the new numbering");
        // And node-for-node it is the original mapping, permuted.
        let original_mapping = first.mapping.unwrap();
        for v in original.nodes() {
            let w = NodeId::from_index(perm[v.index()]);
            assert_eq!(
                original_mapping.placement(v),
                mapping.placement(w),
                "{name}: node {v} placement survives the renumbering"
            );
        }
    }
}

#[test]
fn one_edge_difference_misses() {
    let svc = cached_service(64);
    // A small chain kernel and the same chain with one extra edge.
    let build = |extra_edge: bool| {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let a = b.binary("a", Operation::Add, x, y);
        let m = b.binary("m", Operation::Max, a, y);
        let out_src = if extra_edge {
            b.binary("s", Operation::Sub, m, x)
        } else {
            m
        };
        b.output("out", out_src);
        b.build().unwrap()
    };
    let (_, d1) = svc.map(&MapRequest::new(EngineId::Decoupled, build(false)));
    let (_, d2) = svc.map(&MapRequest::new(EngineId::Decoupled, build(true)));
    assert_eq!(d1, CacheDisposition::Miss);
    assert_eq!(
        d2,
        CacheDisposition::Miss,
        "a structurally different kernel must not hit"
    );
    assert_eq!(svc.stats().hits, 0);
}

#[test]
fn engines_do_not_share_entries() {
    let svc = cached_service(64);
    let (_, d1) = svc.map(&MapRequest::new(EngineId::Decoupled, accumulator()));
    let (_, d2) = svc.map(&MapRequest::new(EngineId::Coupled, accumulator()));
    let (_, d3) = svc.map(&MapRequest::new(EngineId::Coupled, accumulator()));
    assert_eq!(d1, CacheDisposition::Miss);
    assert_eq!(d2, CacheDisposition::Miss, "engine id is part of the key");
    assert_eq!(d3, CacheDisposition::Hit);
}

#[test]
fn cgra_override_is_part_of_the_key() {
    let svc = cached_service(64);
    let (_, d1) = svc.map(&MapRequest::new(EngineId::Decoupled, accumulator()));
    let bigger = Cgra::new(3, 3).unwrap();
    let (report, d2) =
        svc.map(&MapRequest::new(EngineId::Decoupled, accumulator()).with_cgra(bigger.clone()));
    assert_eq!(d1, CacheDisposition::Miss);
    assert_eq!(
        d2,
        CacheDisposition::Miss,
        "different target, different entry"
    );
    report
        .mapping
        .expect("maps")
        .validate(&accumulator(), &bigger)
        .unwrap();
}

#[test]
fn eviction_respects_the_capacity_bound() {
    // A deliberately tiny, single-shard cache under churn from many
    // distinct kernels.
    let cgra = Cgra::new(2, 2).unwrap();
    let svc =
        CachedMappingService::with_cache(standard_service(&cgra), MapCache::with_shards(4, 1));
    // 12 structurally distinct chain kernels (different lengths).
    let chain = |len: usize| {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let mut cur = x;
        for i in 0..len {
            cur = b.unary(format!("n{i}"), Operation::Neg, cur);
        }
        b.output("out", cur);
        b.build().unwrap()
    };
    for len in 1..=12 {
        svc.map(&MapRequest::new(EngineId::Decoupled, chain(len)));
        assert!(
            svc.cache().len() <= svc.cache().capacity(),
            "capacity bound violated at len {len}"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.entries, 4, "cache is full");
    assert_eq!(stats.insertions, 12);
    assert_eq!(stats.evictions, 8, "8 of 12 were displaced");
    // Re-mapping an evicted early kernel is a miss (it was displaced),
    // re-mapping a resident one is a hit.
    let (_, d_old) = svc.map(&MapRequest::new(EngineId::Decoupled, chain(1)));
    assert_eq!(d_old, CacheDisposition::Miss, "chain(1) was evicted");
    let (_, d_new) = svc.map(&MapRequest::new(EngineId::Decoupled, chain(12)));
    assert_eq!(d_new, CacheDisposition::Hit, "chain(12) is resident");
}

#[test]
fn hammering_one_kernel_from_cold_never_corrupts() {
    // All threads race the same cold key: exactly one (or a few, if
    // they interleave before the first insert) solve; everyone gets an
    // equivalent report.
    let svc = Arc::new(cached_service(16));
    let reference = json_modulo_timing(
        &MappingService::new(&Cgra::new(2, 2).unwrap())
            .map(&MapRequest::new(EngineId::Decoupled, running_example())),
    );
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let svc = Arc::clone(&svc);
            let reference = &reference;
            scope.spawn(move || {
                let (report, _) = svc.map(&MapRequest::new(EngineId::Decoupled, running_example()));
                assert_eq!(&json_modulo_timing(&report), reference);
            });
        }
    });
    assert!(svc.stats().insertions >= 1);
    assert_eq!(svc.cache().len(), 1, "one kernel, one entry");
}
