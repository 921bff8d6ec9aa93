//! One mapper serves every request of a service from the same CGRA and
//! the same space engines. Sharing them must change no answer: each
//! report equals the one a fresh `DecoupledMapper::with_config` per
//! request gives — the same outcome, the same mapping and the same
//! search counts — whatever the route bound, the CGRA override or the
//! worker that ran the request.

use monomap::prelude::*;

/// Every `MapStats` field except the wall-clock timings.
fn counts(s: &MapStats) -> impl PartialEq + std::fmt::Debug {
    (
        (s.mii, s.achieved_ii, s.time_solutions, s.space_attempts),
        (s.mono_steps, s.iis_tried, s.solver_reuses, s.window_slack),
        (s.time_strategy, s.space_parallelism, s.sat_vars, s.clauses),
        s.route_hops_histogram,
    )
}

#[test]
fn a_shared_engine_gives_every_answer_a_fresh_mapper_gives() {
    let torus = Cgra::new(4, 4).unwrap();
    let mesh = Cgra::with_topology(6, 6, Topology::Mesh).unwrap();
    for (home, away) in [(&torus, &mesh), (&mesh, &torus)] {
        let service = MappingService::new(home).with_parallelism(2);
        // Route bounds 1 and 2 interleave, and every third request
        // carries the other grid as an override.
        let requests: Vec<MapRequest> = suite::generate_all()
            .into_iter()
            .enumerate()
            .map(|(i, dfg)| {
                let config = MapperConfig::new().with_max_route_hops(1 + i % 2);
                let req = MapRequest::new(EngineId::Decoupled, dfg).with_config(config);
                if i % 3 == 2 {
                    req.with_cgra(away.clone())
                } else {
                    req
                }
            })
            .collect();
        let reports = service.map_batch(&requests);
        for (req, shared) in requests.iter().zip(&reports) {
            let cgra = req.cgra.as_ref().unwrap_or(home);
            let result = DecoupledMapper::with_config(cgra, req.config.clone()).map(&req.dfg);
            let fresh = MapReport::from_result(EngineId::Decoupled, &req.dfg, result);
            let what = format!("{} on {} hops", req.dfg.name(), req.config.max_route_hops);
            assert_eq!(shared.outcome, fresh.outcome, "{what}");
            assert_eq!(shared.mapping, fresh.mapping, "{what}");
            assert_eq!(counts(&shared.stats), counts(&fresh.stats), "{what}");
        }
    }
}
