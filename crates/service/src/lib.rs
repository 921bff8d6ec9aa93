//! # monomap-service — the content-addressed mapping cache and the
//! `monomapd` network front end
//!
//! The paper's decoupled mapper is fast *per request*; this crate makes
//! repeated requests nearly free. Compiler fleets resubmit the same
//! kernels constantly (same loop, same target, new build), and prior
//! mappers — SAT-MapIt, ILP-based coupled mappers — treat every
//! submission as a fresh minutes-scale batch job. Here a kernel is
//! identified by the canonical content digest of its DFG
//! ([`cgra_dfg::DfgDigest`]), so a resubmission — even renumbered by a
//! different front end — is answered from memory without paying for a
//! second SMT + monomorphism solve.
//!
//! Four layers, each usable on its own:
//!
//! * [`MapCache`] — a sharded, capacity-bounded (clock-evicting)
//!   in-memory store keyed by `(DFG digest, engine, CGRA fingerprint,
//!   config fingerprint)`, with hit/miss/eviction counters;
//! * [`TieredCache`] + [`CacheStore`] — pluggable storage tiers below
//!   the memory cache: an append-only, checksummed, crash-recovering
//!   [`DiskLog`] (warm-start replay across daemon restarts) and a
//!   [`PeerStore`] that fills local misses from sibling daemons with
//!   digest-sharded ownership — every fill re-verified against the
//!   requester's full canonical bytes;
//! * [`CachedMappingService`] — a
//!   [`MappingService`](monomap_core::api::MappingService) wrapper that
//!   consults the cache, translates cached mappings through the
//!   request's canonical node permutation, and only memoizes
//!   deterministic outcomes;
//! * [`Server`]/[`Client`] — a dependency-free HTTP/1.1 daemon (and
//!   matching client) exposing `POST /map`, `POST /map_batch`,
//!   `GET /stats` and `GET /healthz` over the existing JSON envelope.
//!   The daemon is a readiness-driven event loop (hand-rolled epoll,
//!   no `libc`/`mio`) that splits the request path in two: a cheap
//!   pool answers cache hits in microseconds while a fixed solve pool
//!   behind a *bounded* admission queue runs engines — overflow is
//!   shed with `429` + `Retry-After` instead of queueing unboundedly,
//!   and a client that disconnects mid-solve cancels it (readable-EOF
//!   on the reactor raises the request's `CancelFlag`). The `monomapd`
//!   binary in the workspace root is a thin CLI over [`Server`].
//!
//! ## Example
//!
//! ```
//! use cgra_arch::Cgra;
//! use cgra_dfg::examples::running_example;
//! use monomap_core::api::{EngineId, MapRequest, MappingService};
//! use monomap_service::{CacheDisposition, CachedMappingService};
//!
//! let cgra = Cgra::new(2, 2)?;
//! let service = CachedMappingService::new(MappingService::new(&cgra), 1024);
//!
//! let request = MapRequest::new(EngineId::Decoupled, running_example());
//! let (first, cold) = service.map(&request);
//! let (again, warm) = service.map(&request);
//!
//! assert_eq!(cold, CacheDisposition::Miss);
//! assert_eq!(warm, CacheDisposition::Hit);
//! assert_eq!(first, again); // a hit replays the original report
//! assert_eq!(service.stats().hits, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: the epoll shim in `reactor::sys` is the
// one narrowly-scoped, documented exception (plain `extern "C"` into
// the C library std already links — no new dependency).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod eventloop;
mod reactor;
mod routes;
mod wire;

pub mod cache;
pub mod cached;
pub mod client;
pub mod disklog;
pub mod http;
pub mod peer;
pub mod store;

pub use cache::{CacheKey, CacheStatsSnapshot, MapCache};
pub use cached::{
    CacheDisposition, CacheProbe, CachedMappingService, PreparedRequest, ProbedBatch,
};
pub use client::{ClassDemand, Client, ClientError, CompileResponse, MapResponse};
pub use disklog::DiskLog;
pub use http::{Server, ServerConfig, ServerHandle, ServerStatsSnapshot, StatsSnapshot};
pub use peer::PeerStore;
pub use store::{CacheStore, PersistenceStatsSnapshot, StoreKind, StoreStats, TieredCache};
