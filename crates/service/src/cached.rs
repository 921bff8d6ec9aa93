//! [`CachedMappingService`]: the mapping service with the
//! content-addressed cache in front of it.

use std::borrow::Cow;
use std::sync::Arc;

use cgra_dfg::{CanonicalDfg, Dfg};
use monomap_core::api::{fingerprint, MapReport, MapRequest, MappingService};
use monomap_core::{MapError, MapOutcome, Mapping};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheKey, CacheStatsSnapshot, MapCache};
use crate::store::{PersistenceStatsSnapshot, TieredCache};

/// How the cache participated in answering one request. Returned next
/// to every report and surfaced on the wire as the `X-Monomap-Cache`
/// response header.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheDisposition {
    /// Served from the cache, no engine ran.
    Hit,
    /// Looked up, not found; the engine ran (and the result was stored
    /// if cacheable).
    Miss,
    /// The lookup was skipped — the request carries an observer, whose
    /// progress events only exist when the engine actually runs. The
    /// solved result is still stored for future hits.
    Bypass,
}

impl CacheDisposition {
    /// Stable lowercase name (the wire header value).
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Bypass => "bypass",
        }
    }

    /// Parses the wire header value.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "hit" => Some(CacheDisposition::Hit),
            "miss" => Some(CacheDisposition::Miss),
            "bypass" => Some(CacheDisposition::Bypass),
            _ => None,
        }
    }
}

impl std::fmt::Display for CacheDisposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The cheap-path work already done for a request that still needs an
/// engine: its canonical form and cache key. Produced by
/// [`CachedMappingService::probe`], consumed by
/// [`CachedMappingService::solve_prepared`] — splitting the two lets a
/// front end run the digest + lookup on a fast path (e.g. the event
/// loop's cheap pool) and hand only genuine misses to a solve pool,
/// without canonicalizing twice.
#[derive(Debug)]
pub struct PreparedRequest {
    key: CacheKey,
    canon: CanonicalDfg,
}

/// How the cheap path resolved a request: answered outright (hit or
/// structurally invalid), or prepared for an engine run.
#[derive(Debug)]
pub enum CacheProbe {
    /// Served from the cache; no engine needs to run.
    Hit(MapReport),
    /// The DFG failed structural validation; the report is the
    /// (never-cached) `InvalidDfg` failure.
    Invalid(MapReport),
    /// Not cached: the engine must run (then store via
    /// [`CachedMappingService::solve_prepared`]).
    Miss(PreparedRequest),
    /// The request carries an observer, so the lookup was skipped; the
    /// engine must run, and the result still populates the cache.
    Bypass(PreparedRequest),
}

impl CacheProbe {
    /// Splits a probe into a finished answer or the work left for an
    /// engine, each with the disposition the client will be shown. An
    /// invalid DFG was looked at and not found, so it reports `Miss`.
    fn resolve(self) -> Result<(MapReport, CacheDisposition), (PreparedRequest, CacheDisposition)> {
        match self {
            CacheProbe::Hit(report) => Ok((report, CacheDisposition::Hit)),
            CacheProbe::Invalid(report) => Ok((report, CacheDisposition::Miss)),
            CacheProbe::Miss(prepared) => Err((prepared, CacheDisposition::Miss)),
            CacheProbe::Bypass(prepared) => Err((prepared, CacheDisposition::Bypass)),
        }
    }
}

/// A batch after the cheap path: the answers already known, in input
/// order, plus the requests that still need an engine. Produced by
/// [`CachedMappingService::probe_batch`], consumed by
/// [`CachedMappingService::solve_batch`]; it owns what is pending, so a
/// front end can carry it from a cheap pool to a solve pool as is.
#[derive(Debug, Default)]
pub struct ProbedBatch {
    /// One slot per request; `None` until its engine run fills it.
    slots: Vec<Option<(MapReport, CacheDisposition)>>,
    /// The requests behind the `None` slots, contiguous for the wrapped
    /// service's batch entry point.
    pending: Vec<MapRequest>,
    /// Parallel to `pending`: the slot to fill, the key to store under
    /// and the disposition to report.
    prepared: Vec<(usize, PreparedRequest, CacheDisposition)>,
}

impl ProbedBatch {
    /// Whether any request of the batch still has to run an engine.
    pub fn needs_engine(&self) -> bool {
        !self.pending.is_empty()
    }
}

/// A [`MappingService`] fronted by a [`MapCache`]: repeated kernels
/// (the common case in compiler fleets) are answered without paying
/// for a second SMT + monomorphism solve.
///
/// # Consistency guarantees
///
/// * **Exact resubmission** — a request byte-identical to a previously
///   solved one is served the stored report, which is byte-identical
///   (including search statistics, which describe the original solve)
///   to what the engine returned the first time.
/// * **Isomorphic resubmission** — a kernel that differs only by node
///   numbering (and diagnostic names) hits the same entry: the cached
///   mapping is stored in canonical node order and translated through
///   the request's own canonical permutation, so the served placements
///   are valid for the request's numbering at the same II.
/// * **Never wrong-kernel** — a 128-bit digest collision is detected
///   by comparing full canonical bytes and served as a miss.
///
/// # What is cached
///
/// Only deterministic outcomes ([`MapReport::is_cacheable`]):
/// successful mappings and engine failures that re-occur on every
/// retry (`NoSolution`, `UnsupportedOpClass`). Timeouts, rejections
/// and invalid-DFG reports are never stored — the latter because
/// their error payload names nodes in the submitter's numbering,
/// which an isomorphic hit would garble (and validation is cheap to
/// re-run).
pub struct CachedMappingService {
    inner: MappingService,
    tiers: TieredCache,
    cgra_fp: u64,
}

impl CachedMappingService {
    /// Wraps `inner` with a memory-only cache of at least `capacity`
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: MappingService, capacity: usize) -> Self {
        CachedMappingService::with_cache(inner, MapCache::new(capacity))
    }

    /// Wraps `inner` with an explicitly configured (memory-only) cache.
    pub fn with_cache(inner: MappingService, cache: MapCache) -> Self {
        CachedMappingService::with_tiers(inner, TieredCache::new(cache))
    }

    /// Wraps `inner` with a full tier stack (memory → disk log → peer
    /// fleet); see [`TieredCache`]. Call
    /// [`CachedMappingService::warm_start`] before serving to replay
    /// durable tiers into memory.
    pub fn with_tiers(inner: MappingService, tiers: TieredCache) -> Self {
        let cgra_fp = fingerprint(inner.cgra());
        CachedMappingService {
            inner,
            tiers,
            cgra_fp,
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &MappingService {
        &self.inner
    }

    /// The in-memory hot tier (for diagnostics; prefer
    /// [`CachedMappingService::stats`]).
    pub fn cache(&self) -> &MapCache {
        self.tiers.hot()
    }

    /// The full tier stack.
    pub fn tiers(&self) -> &TieredCache {
        &self.tiers
    }

    /// Replays the durable tiers into memory (daemon boot); returns
    /// the number of entries replayed.
    pub fn warm_start(&self) -> u64 {
        self.tiers.warm_start()
    }

    /// Reads one cache-resident entry — canonical bytes plus the
    /// canonical-order report — without verification or hit/miss
    /// accounting. This is the export path behind `GET
    /// /cache/<digest>`: memory and local durable tiers only, never
    /// peers (the *requesting* peer verifies the bytes).
    pub fn export(&self, key: &CacheKey) -> Option<(Arc<[u8]>, MapReport)> {
        self.tiers.export(key)
    }

    /// A point-in-time copy of the hot-tier cache counters.
    pub fn stats(&self) -> CacheStatsSnapshot {
        self.tiers.hot().snapshot()
    }

    /// A point-in-time copy of the persistence/peer tier counters.
    pub fn persistence_stats(&self) -> PersistenceStatsSnapshot {
        self.tiers.snapshot()
    }

    fn key_for(&self, req: &MapRequest, canon: &CanonicalDfg) -> CacheKey {
        CacheKey {
            digest: canon.digest(),
            engine: req.engine,
            cgra: req.cgra.as_ref().map(fingerprint).unwrap_or(self.cgra_fp),
            config: fingerprint(&req.config),
        }
    }

    /// Rejects structurally invalid DFGs before canonicalization (the
    /// canonicalizer assumes in-range node ids; the engines would
    /// reject the request with the same error anyway, only later).
    fn validate_early(req: &MapRequest) -> Option<MapReport> {
        req.dfg.validate().err().map(|e| {
            MapReport::from_error(
                req.engine,
                &req.dfg,
                MapError::InvalidDfg(e),
                Default::default(),
            )
        })
    }

    /// The cheap path: validate, canonicalize, digest and look up —
    /// everything short of running an engine. A [`CacheProbe::Hit`] or
    /// [`CacheProbe::Invalid`] is a complete answer; a
    /// [`CacheProbe::Miss`]/[`CacheProbe::Bypass`] carries the prepared
    /// canonical form for [`CachedMappingService::solve_prepared`].
    pub fn probe(&self, req: &MapRequest) -> CacheProbe {
        if let Some(report) = Self::validate_early(req) {
            return CacheProbe::Invalid(report);
        }
        let canon = req.dfg.canonical_form();
        let key = self.key_for(req, &canon);
        if req.observer.is_some() {
            return CacheProbe::Bypass(PreparedRequest { key, canon });
        }
        match self.tiers.lookup(&key, canon.bytes()) {
            Some(cached) => CacheProbe::Hit(rehydrate(cached, &req.dfg, &canon)),
            None => CacheProbe::Miss(PreparedRequest { key, canon }),
        }
    }

    /// The solve path: runs the wrapped service on a request the cheap
    /// path already probed, then stores the (cacheable) result under
    /// the prepared key.
    pub fn solve_prepared(&self, req: &MapRequest, prepared: &PreparedRequest) -> MapReport {
        let report = self.inner.map(req);
        self.store(&prepared.key, &prepared.canon, &report);
        report
    }

    /// Maps one request through the cache. Returns the report and how
    /// the cache participated.
    pub fn map(&self, req: &MapRequest) -> (MapReport, CacheDisposition) {
        match self.probe(req).resolve() {
            Ok(answer) => answer,
            Err((prepared, disposition)) => (self.solve_prepared(req, &prepared), disposition),
        }
    }

    /// The cheap path over a whole batch: every request is probed, hits
    /// and invalid DFGs are answered in place, and the rest are kept —
    /// moved when the caller hands over [`Cow::Owned`] requests, cloned
    /// only when it lends them — for [`CachedMappingService::solve_batch`].
    pub fn probe_batch<'a>(
        &self,
        requests: impl IntoIterator<Item = Cow<'a, MapRequest>>,
    ) -> ProbedBatch {
        let mut batch = ProbedBatch::default();
        for req in requests {
            match self.probe(&req).resolve() {
                Ok(answer) => batch.slots.push(Some(answer)),
                Err((prepared, disposition)) => {
                    batch
                        .prepared
                        .push((batch.slots.len(), prepared, disposition));
                    batch.pending.push(req.into_owned());
                    batch.slots.push(None);
                }
            }
        }
        batch
    }

    /// The solve path over a probed batch: runs what is pending through
    /// the wrapped service's [`map_batch`](MappingService::map_batch)
    /// (its worker pool sees real solves only), stores the cacheable
    /// results and returns `(report, disposition)` per request **in
    /// input order**. With nothing pending it only unwraps the answers.
    pub fn solve_batch(&self, batch: ProbedBatch) -> Vec<(MapReport, CacheDisposition)> {
        let ProbedBatch {
            mut slots,
            pending,
            prepared,
        } = batch;
        let reports = self.inner.map_batch(&pending);
        for (report, (slot, prepared, disposition)) in reports.into_iter().zip(prepared) {
            self.store(&prepared.key, &prepared.canon, &report);
            slots[slot] = Some((report, disposition));
        }
        slots
            .into_iter()
            .map(|s| s.expect("every request answered"))
            .collect()
    }

    /// Maps a batch, returning `(report, disposition)` per request **in
    /// input order**: [`CachedMappingService::probe_batch`] then
    /// [`CachedMappingService::solve_batch`].
    pub fn map_batch(&self, requests: &[MapRequest]) -> Vec<(MapReport, CacheDisposition)> {
        self.solve_batch(self.probe_batch(requests.iter().map(Cow::Borrowed)))
    }

    fn store(&self, key: &CacheKey, canon: &CanonicalDfg, report: &MapReport) {
        if !report.is_cacheable()
            || matches!(&report.outcome, MapOutcome::Failed(MapError::InvalidDfg(_)))
        {
            return;
        }
        let bytes: Arc<[u8]> = Arc::from(canon.bytes().to_vec().into_boxed_slice());
        self.tiers
            .insert(*key, bytes, canonicalize_report(report, canon));
    }
}

impl std::fmt::Debug for CachedMappingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedMappingService")
            .field("inner", &self.inner)
            .field("tiers", &self.tiers)
            .finish()
    }
}

/// Rewrites a solved report into cache-resident (canonical) form: the
/// mapping's placements are permuted into canonical node order and the
/// diagnostic names are replaced by the digest hex (names are not part
/// of kernel identity, so a stored entry must not remember them).
fn canonicalize_report(report: &MapReport, canon: &CanonicalDfg) -> MapReport {
    let neutral = canon.digest().to_hex();
    let mut stored = report.clone();
    stored.dfg_name = neutral.clone();
    stored.mapping = report.mapping.as_ref().map(|m| {
        Mapping::new(
            neutral.clone(),
            m.ii(),
            canon.permute_to_canonical(m.placements()),
        )
    });
    stored
}

/// Translates a cache-resident report back into the numbering (and
/// names) of the requesting DFG. The inverse of [`canonicalize_report`]
/// when the request numbering equals the stored one.
fn rehydrate(stored: MapReport, dfg: &Dfg, canon: &CanonicalDfg) -> MapReport {
    let mut report = stored;
    report.dfg_name = dfg.name().to_string();
    report.mapping = report.mapping.map(|m| {
        Mapping::new(
            dfg.name(),
            m.ii(),
            canon.permute_from_canonical(m.placements()),
        )
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Cgra;
    use cgra_dfg::examples::{accumulator, running_example};
    use monomap_core::api::EngineId;
    use monomap_core::MapperConfig;
    use std::time::Duration;

    fn service(capacity: usize) -> CachedMappingService {
        let cgra = Cgra::new(2, 2).unwrap();
        CachedMappingService::new(MappingService::new(&cgra), capacity)
    }

    #[test]
    fn repeat_request_hits_and_is_byte_identical() {
        let svc = service(16);
        let req = MapRequest::new(EngineId::Decoupled, running_example());
        let (first, d1) = svc.map(&req);
        let (second, d2) = svc.map(&req);
        assert_eq!(d1, CacheDisposition::Miss);
        assert_eq!(d2, CacheDisposition::Hit);
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "a hit is byte-identical to the original solve"
        );
        assert_eq!(svc.stats().hits, 1);
    }

    #[test]
    fn different_config_is_a_different_entry() {
        let svc = service(16);
        let base = MapRequest::new(EngineId::Decoupled, running_example());
        let slacker = MapRequest::new(EngineId::Decoupled, running_example())
            .with_config(MapperConfig::new().with_max_window_slack(1));
        svc.map(&base);
        let (_, d) = svc.map(&slacker);
        assert_eq!(d, CacheDisposition::Miss, "config is part of the key");
    }

    #[test]
    fn deadline_is_not_part_of_the_key() {
        let svc = service(16);
        let (_, d1) = svc.map(&MapRequest::new(EngineId::Decoupled, accumulator()));
        let (report, d2) = svc.map(
            &MapRequest::new(EngineId::Decoupled, accumulator())
                .with_deadline(Duration::from_nanos(1)),
        );
        assert_eq!(d1, CacheDisposition::Miss);
        assert_eq!(
            d2,
            CacheDisposition::Hit,
            "a hit beats an impossible deadline: the engine never runs"
        );
        assert!(report.outcome.is_mapped());
    }

    #[test]
    fn timeouts_are_not_stored() {
        let svc = service(16);
        // An already-raised cancel flag: the engine deterministically
        // reports Timeout at its first cancellation point. (A zero
        // deadline would do the same: it is raised before the solve
        // starts.)
        let cancelled = cgra_base::CancelFlag::new();
        cancelled.cancel();
        let req = MapRequest::new(EngineId::Decoupled, running_example()).with_cancel(cancelled);
        let (report, d) = svc.map(&req);
        assert!(!report.outcome.is_mapped(), "{:?}", report.outcome);
        assert_eq!(d, CacheDisposition::Miss);
        assert_eq!(svc.stats().insertions, 0, "timeout must not be memoized");
        // Without the raised flag the solve succeeds and is stored.
        let (ok, _) = svc.map(&MapRequest::new(EngineId::Decoupled, running_example()));
        assert!(ok.outcome.is_mapped());
        assert_eq!(svc.stats().insertions, 1);
    }

    #[test]
    fn deterministic_failures_are_stored() {
        let svc = service(16);
        let req = MapRequest::new(EngineId::Decoupled, running_example())
            .with_config(MapperConfig::new().with_max_ii(2));
        let (first, d1) = svc.map(&req);
        let (second, d2) = svc.map(&req);
        assert!(first.outcome.error().is_some());
        assert_eq!((d1, d2), (CacheDisposition::Miss, CacheDisposition::Hit));
        assert_eq!(first, second);
    }

    #[test]
    fn observer_requests_bypass_but_still_populate() {
        use monomap_core::api::EventCollector;
        let svc = service(16);
        let collector = Arc::new(EventCollector::new());
        let observed = MapRequest::new(EngineId::Decoupled, running_example())
            .with_observer(collector.clone());
        let (_, d1) = svc.map(&observed);
        assert_eq!(d1, CacheDisposition::Bypass);
        assert!(!collector.events().is_empty(), "the engine really ran");
        // A later plain request hits the entry the bypass stored.
        let (_, d2) = svc.map(&MapRequest::new(EngineId::Decoupled, running_example()));
        assert_eq!(d2, CacheDisposition::Hit);
        // And a second observed request runs the engine again.
        let (_, d3) = svc.map(&observed);
        assert_eq!(d3, CacheDisposition::Bypass);
    }

    #[test]
    fn invalid_dfg_is_rejected_before_canonicalization() {
        // Regression: an out-of-range edge used to reach the
        // canonicalizer (which indexes by node id) and panic; it must
        // come back as an InvalidDfg report instead, on both entry
        // points, and never be memoized.
        use cgra_dfg::{Dfg, EdgeKind, NodeId, Operation};
        let mut bad = Dfg::new("bad");
        bad.add_node(Operation::Input(0), "x");
        bad.add_edge(
            NodeId::from_index(99),
            NodeId::from_index(0),
            0,
            EdgeKind::Data,
        );
        let svc = service(16);
        let (report, d) = svc.map(&MapRequest::new(EngineId::Decoupled, bad.clone()));
        assert!(
            matches!(
                report.outcome,
                monomap_core::MapOutcome::Failed(MapError::InvalidDfg(_))
            ),
            "{:?}",
            report.outcome
        );
        assert_eq!(d, CacheDisposition::Miss);
        let batch = svc.map_batch(&[
            MapRequest::new(EngineId::Decoupled, bad),
            MapRequest::new(EngineId::Decoupled, accumulator()),
        ]);
        assert!(batch[0].0.outcome.error().is_some());
        assert!(batch[1].0.outcome.is_mapped(), "valid neighbour unaffected");
        assert_eq!(svc.stats().insertions, 1, "only the valid solve stored");
    }

    #[test]
    fn batch_mixes_hits_and_misses_in_input_order() {
        let svc = service(16);
        svc.map(&MapRequest::new(EngineId::Decoupled, running_example()));
        let requests = vec![
            MapRequest::new(EngineId::Decoupled, accumulator()), // miss
            MapRequest::new(EngineId::Decoupled, running_example()), // hit
            // Miss too: looked up before #0's solve completes (both
            // copies are solved once each, then stored).
            MapRequest::new(EngineId::Decoupled, accumulator()),
        ];
        let results = svc.map_batch(&requests);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].0.dfg_name, "accumulator");
        assert_eq!(results[1].1, CacheDisposition::Hit);
        assert!(results.iter().all(|(r, _)| r.outcome.is_mapped()));
        // Input order preserved.
        for (req, (rep, _)) in requests.iter().zip(&results) {
            assert_eq!(rep.dfg_name, req.dfg.name());
        }
    }
}
