//! The unified mapping API: one request/report envelope, one
//! object-safe [`Mapper`] trait in front of every engine, and a batch
//! [`MappingService`].
//!
//! The workspace grew three mapping engines — the paper's decoupled
//! SMT+monomorphism mapper ([`crate::DecoupledMapper`]), and the
//! coupled-SAT and simulated-annealing baselines of `cgra-baseline` —
//! each with its own constructor shape and stats struct. This module
//! is the single stable surface in front of all of them:
//!
//! * [`MapRequest`] — a serde-ready envelope carrying the DFG, an
//!   optional CGRA override, a [`MapperConfig`], a wall-clock deadline
//!   and (non-serialized) a [`CancelFlag`] and a [`MapObserver`];
//! * [`MapReport`] — engine id, a [`MapOutcome`] unifying success and
//!   every [`MapError`] across engines, the unified
//!   [`MapStats`] superset, and the mapping itself. Requests and
//!   reports round-trip through JSON;
//! * [`Mapper`] — `fn map(&self, req: &MapRequest) -> MapReport`,
//!   object-safe, so heterogeneous engines live behind
//!   `Box<dyn Mapper>`;
//! * [`MappingService`] — owns a CGRA and an engine registry, and runs
//!   batches of requests across a scoped thread pool, returning
//!   reports in input order.
//!
//! # Example
//!
//! ```
//! use cgra_arch::Cgra;
//! use cgra_dfg::examples::running_example;
//! use monomap_core::api::{EngineId, MapRequest, MappingService};
//!
//! let cgra = Cgra::new(2, 2)?;
//! let service = MappingService::new(&cgra);
//!
//! // Requests are plain data: they round-trip through JSON, so they
//! // can arrive over the wire.
//! let request = MapRequest::new(EngineId::Decoupled, running_example());
//! let json = serde_json::to_string(&request)?;
//! let request: MapRequest = serde_json::from_str(&json)?;
//!
//! let report = service.map(&request);
//! assert_eq!(report.outcome.ii(), Some(4)); // the paper's Fig. 2b
//! let _wire = serde_json::to_string(&report)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Calling an engine directly
//!
//! The inherent `DecoupledMapper::map(&Dfg)` predates the trait and
//! shadows it on the concrete type; to push a [`MapRequest`] through a
//! concrete engine, call through the trait (`Mapper::map(&engine,
//! &request)`) or a `Box<dyn Mapper>`.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use cgra_arch::Cgra;
use cgra_base::CancelFlag;
use cgra_dfg::Dfg;

use crate::space::SpaceOutcome;
use crate::{DecoupledMapper, MapError, MapResult, MapStats, MapperConfig, Mapping};

// ---------------------------------------------------------------------
// Engine identity
// ---------------------------------------------------------------------

/// Identifies a mapping engine in requests, reports and the
/// [`MappingService`] registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineId {
    /// The paper's decoupled SMT + monomorphism mapper
    /// ([`crate::DecoupledMapper`]).
    Decoupled,
    /// The SAT-MapIt-style coupled space-time baseline
    /// (`cgra_baseline::CoupledMapper`).
    Coupled,
    /// The DRESC-style simulated-annealing baseline
    /// (`cgra_baseline::AnnealingMapper`).
    Annealing,
}

impl EngineId {
    /// Short lowercase name (stable; used in logs and tables).
    pub fn name(self) -> &'static str {
        match self {
            EngineId::Decoupled => "decoupled",
            EngineId::Coupled => "coupled",
            EngineId::Annealing => "annealing",
        }
    }

    /// Parses the stable lowercase name (the inverse of
    /// [`EngineId::name`]; used by CLI flags and URL query strings).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "decoupled" => Some(EngineId::Decoupled),
            "coupled" => Some(EngineId::Coupled),
            "annealing" => Some(EngineId::Annealing),
            _ => None,
        }
    }
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------
// Observer
// ---------------------------------------------------------------------

/// Outcome of one monomorphism (space-phase) attempt, as reported to
/// observers. The payload-free mirror of [`SpaceOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpaceAttemptOutcome {
    /// A monomorphism was found.
    Found,
    /// The search space was exhausted.
    Exhausted,
    /// The step budget ran out.
    LimitReached,
    /// The cancellation flag interrupted the search.
    Cancelled,
}

impl From<&SpaceOutcome> for SpaceAttemptOutcome {
    fn from(o: &SpaceOutcome) -> Self {
        match o {
            SpaceOutcome::Found(_) => SpaceAttemptOutcome::Found,
            SpaceOutcome::Exhausted => SpaceAttemptOutcome::Exhausted,
            SpaceOutcome::LimitReached => SpaceAttemptOutcome::LimitReached,
            SpaceOutcome::Cancelled => SpaceAttemptOutcome::Cancelled,
        }
    }
}

/// A structured progress event emitted by the engines while a request
/// maps.
///
/// The decoupled engine's event stream is deterministic: one
/// [`MapEvent::SpaceAttempt`] per monomorphism search, in search order.
///
/// The decoupled engine searches one II under a rising ladder of step
/// budgets (a thousandth, a hundredth, a tenth of
/// `MapperConfig::mono_step_limit`, then the limit). The first rung
/// reads as the plain loop: per slack level, `TimeSolutionFound` /
/// `SpaceAttempt` pairs closed by one [`MapEvent::Escalated`]. A
/// `SpaceAttempt` ending `LimitReached` there decided nothing — its
/// schedule is kept. After the II's last `Escalated`, each further rung
/// emits one bare `SpaceAttempt` (no `TimeSolutionFound`: nothing is
/// solved again) per kept schedule, carrying the slack of the level
/// that found it; only when the last rung is through
/// does the next [`MapEvent::IiStarted`] follow.
///
/// The baselines reuse the same vocabulary: the coupled mapper reports
/// each joint `(II, slack)` SAT attempt as a `SpaceAttempt` (it has no
/// separate time phase), the annealer reports each restart.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapEvent {
    /// The search started attempting a new iteration interval.
    IiStarted {
        /// The iteration interval.
        ii: usize,
    },
    /// The time phase produced a schedule at this `(II, slack)` level.
    TimeSolutionFound {
        /// The iteration interval.
        ii: usize,
        /// The window slack of the level.
        slack: usize,
    },
    /// A space-phase attempt finished: the monomorphism search of one
    /// schedule.
    SpaceAttempt {
        /// The iteration interval.
        ii: usize,
        /// The window slack of the level.
        slack: usize,
        /// How the attempt ended.
        outcome: SpaceAttemptOutcome,
    },
    /// An `(II, slack)` level ran out of schedules — or reached the
    /// enumeration cap — without a mapping and the search moved on: to
    /// the next slack, or after the last slack to re-searching the
    /// schedules left undecided at this II and then to the next II.
    Escalated {
        /// The exhausted iteration interval.
        ii: usize,
        /// The exhausted window slack.
        slack: usize,
    },
    /// The search finished (the final event of every observed map).
    Finished {
        /// Whether a mapping was produced.
        mapped: bool,
        /// The achieved II, when mapped.
        ii: Option<usize>,
    },
}

/// A callback receiving [`MapEvent`]s as a request maps.
///
/// [`MappingService::map_batch`] runs requests, and the observers they
/// carry, on worker threads, hence the `Send + Sync` bound.
/// Implementations should be cheap; they run on the search's critical
/// path.
pub trait MapObserver: Send + Sync {
    /// Called once per progress event.
    fn on_event(&self, event: &MapEvent);
}

/// A [`MapObserver`] that records every event, for tests and
/// diagnostics.
#[derive(Debug, Default)]
pub struct EventCollector {
    events: Mutex<Vec<MapEvent>>,
}

impl EventCollector {
    /// An empty collector.
    pub fn new() -> Self {
        EventCollector::default()
    }

    /// A snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<MapEvent> {
        self.events.lock().expect("event log lock").clone()
    }
}

impl MapObserver for EventCollector {
    fn on_event(&self, event: &MapEvent) {
        self.events.lock().expect("event log lock").push(*event);
    }
}

// ---------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------

/// One mapping request: the serializable envelope every engine
/// accepts.
///
/// The `cancel` and `observer` handles are runtime-only: they are
/// skipped by serialization and come back as `None`, everything else
/// round-trips through JSON. Deserialization treats absent optional
/// fields as their defaults, so wire requests only name what they
/// override.
#[derive(Clone)]
pub struct MapRequest {
    /// Which engine should run this request.
    pub engine: EngineId,
    /// The kernel to map.
    pub dfg: Dfg,
    /// The `.mk` source the DFG was compiled from, when the request
    /// entered through the text front door ([`MapRequest::from_source`]
    /// or a wire request carrying `source` instead of `dfg`). Engines
    /// never read it; it is kept so the request re-serializes the same
    /// way it arrived.
    pub source: Option<String>,
    /// Target CGRA; `None` uses the engine's (or service's) own.
    pub cgra: Option<Cgra>,
    /// Mapper configuration. The request is authoritative on the trait
    /// path: engines run with this configuration, not the one they
    /// were constructed with.
    pub config: MapperConfig,
    /// Wall-clock deadline in seconds; when it expires the engine's
    /// cancellation flag is raised and the search returns
    /// [`MapError::Timeout`] at its next cancellation point.
    pub deadline_seconds: Option<f64>,
    /// Cooperative cancellation handle (runtime-only, not serialized).
    pub cancel: Option<CancelFlag>,
    /// Progress observer (runtime-only, not serialized).
    pub observer: Option<Arc<dyn MapObserver>>,
}

impl MapRequest {
    /// A request for `engine` with the default configuration.
    pub fn new(engine: EngineId, dfg: Dfg) -> Self {
        MapRequest {
            engine,
            dfg,
            source: None,
            cgra: None,
            config: MapperConfig::default(),
            deadline_seconds: None,
            cancel: None,
            observer: None,
        }
    }

    /// A request whose kernel arrives as `.mk` source text (see
    /// `monomap_frontend`): the source is compiled to a DFG here, and
    /// kept so the request serializes as `source` rather than `dfg`.
    ///
    /// # Errors
    ///
    /// Returns the frontend's [`monomap_frontend::ParseError`] when the
    /// source does not compile or does not hold exactly one kernel.
    pub fn from_source(
        engine: EngineId,
        source: impl Into<String>,
    ) -> Result<Self, monomap_frontend::ParseError> {
        let source = source.into();
        let dfg = monomap_frontend::compile_one(&source)?;
        let mut req = MapRequest::new(engine, dfg);
        req.source = Some(source);
        Ok(req)
    }

    /// Overrides the target CGRA (otherwise the engine's own is used).
    pub fn with_cgra(mut self, cgra: Cgra) -> Self {
        self.cgra = Some(cgra);
        self
    }

    /// Sets the mapper configuration.
    pub fn with_config(mut self, config: MapperConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline_seconds = Some(deadline.as_secs_f64());
        self
    }

    /// Installs a cooperative cancellation handle.
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Installs a progress observer.
    pub fn with_observer(mut self, observer: Arc<dyn MapObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The deadline as a [`Duration`], if one is set. A negative value
    /// (a wire client's already-elapsed remaining time) clamps to zero
    /// — an immediately-expired deadline, not an unbounded search. One
    /// too large for a `Duration` (above about 1.8e19 s) saturates to
    /// [`Duration::MAX`], a deadline that never fires.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline_seconds
            .filter(|s| s.is_finite())
            .map(|s| Duration::try_from_secs_f64(s.max(0.0)).unwrap_or(Duration::MAX))
    }
}

impl fmt::Debug for MapRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapRequest")
            .field("engine", &self.engine)
            .field("dfg", &self.dfg.name())
            .field("source", &self.source.is_some())
            .field("cgra", &self.cgra)
            .field("config", &self.config)
            .field("deadline_seconds", &self.deadline_seconds)
            .field("cancel", &self.cancel.is_some())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl MapRequest {
    /// The wire entries, in order, listed once for both serialization
    /// paths. A text-born request serializes back as `source` (the DFG
    /// is re-derived on deserialization); a DFG-born request emits
    /// exactly the entries it always has — no `source: null` — so
    /// pre-frontend wire bytes are unchanged.
    fn entries(&self, entry: serde::ser::Entry<'_>) {
        entry("engine", &self.engine);
        match &self.source {
            Some(source) => entry("source", source),
            None => entry("dfg", &self.dfg),
        }
        entry("cgra", &self.cgra);
        entry("config", &self.config);
        entry("deadline_seconds", &self.deadline_seconds);
    }
}

impl Serialize for MapRequest {
    fn to_value(&self) -> serde::Value {
        serde::ser::map_value(|entry| self.entries(entry))
    }

    fn write_json(&self, out: &mut String) {
        serde::ser::write_map(out, |entry| self.entries(entry));
    }
}

impl Deserialize for MapRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let entries = v
            .as_map()
            .ok_or_else(|| serde::de::Error::expected("map", v))?;
        let opt = |name: &str| v.get(name).filter(|f| **f != serde::Value::Null);
        let source = opt("source")
            .map(String::from_value)
            .transpose()
            .map_err(|e| serde::de::Error::custom(format!("field `source`: {e}")))?;
        let dfg = match (&source, opt("dfg")) {
            (Some(_), Some(_)) => {
                return Err(serde::de::Error::custom(
                    "request carries both `source` and `dfg`; send exactly one",
                ));
            }
            (Some(source), None) => monomap_frontend::compile_one(source).map_err(|e| {
                serde::de::Error::custom(format!("source:{}:{}: {}", e.line, e.col, e.message))
            })?,
            (None, _) => serde::de::field(entries, "dfg")?,
        };
        Ok(MapRequest {
            engine: serde::de::field(entries, "engine")?,
            dfg,
            source,
            cgra: opt("cgra")
                .map(Cgra::from_value)
                .transpose()
                .map_err(|e| serde::de::Error::custom(format!("field `cgra`: {e}")))?,
            config: opt("config")
                .map(MapperConfig::from_value)
                .transpose()
                .map_err(|e| serde::de::Error::custom(format!("field `config`: {e}")))?
                .unwrap_or_default(),
            deadline_seconds: opt("deadline_seconds")
                .map(f64::from_value)
                .transpose()
                .map_err(|e| serde::de::Error::custom(format!("field `deadline_seconds`: {e}")))?,
            cancel: None,
            observer: None,
        })
    }

    fn from_json(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::de::Error> {
        use serde::de::read_field;
        // Each slot is `Some(None)` for an explicit `null`.
        let mut engine = None;
        let mut dfg: Option<Option<Dfg>> = None;
        let mut source: Option<Option<String>> = None;
        let mut cgra: Option<Option<Cgra>> = None;
        let mut config: Option<Option<MapperConfig>> = None;
        let mut deadline: Option<Option<f64>> = None;
        r.map(|r, key| match &*key {
            "engine" => read_field(&mut engine, r),
            "dfg" => read_field(&mut dfg, r),
            "source" => read_field(&mut source, r),
            "cgra" => read_field(&mut cgra, r),
            "config" => read_field(&mut config, r),
            "deadline_seconds" => read_field(&mut deadline, r),
            _ => r.skip_value(),
        })?;
        let source = source.flatten();
        let dfg = match (&source, dfg.flatten()) {
            (None, Some(dfg)) => dfg,
            (Some(source), None) => monomap_frontend::compile_one(source)
                .map_err(|e| serde::de::Error::custom(e.message))?,
            _ => {
                return Err(serde::de::Error::custom(
                    "not exactly one of `dfg`, `source`",
                ))
            }
        };
        Ok(MapRequest {
            engine: serde::de::required(engine, "engine")?,
            dfg,
            source,
            cgra: cgra.flatten(),
            config: config.flatten().unwrap_or_default(),
            deadline_seconds: deadline.flatten(),
            cancel: None,
            observer: None,
        })
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// How a request ended — the success/failure enum shared by every
/// engine (and the service itself).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapOutcome {
    /// A valid mapping was produced at the reported II.
    Mapped {
        /// The achieved iteration interval.
        ii: usize,
    },
    /// The engine ran and failed; the [`MapError`] is the structured
    /// cause (II range exhausted, timeout, invalid DFG, …).
    Failed(MapError),
    /// The service could not dispatch the request (e.g. the engine is
    /// not registered); no engine ran.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
}

impl MapOutcome {
    /// True when a mapping was produced.
    pub fn is_mapped(&self) -> bool {
        matches!(self, MapOutcome::Mapped { .. })
    }

    /// The achieved II, if mapped.
    pub fn ii(&self) -> Option<usize> {
        match self {
            MapOutcome::Mapped { ii } => Some(*ii),
            _ => None,
        }
    }

    /// The engine error, if the engine ran and failed.
    pub fn error(&self) -> Option<&MapError> {
        match self {
            MapOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// The result envelope of one [`MapRequest`]: engine id, unified
/// outcome, the unified [`MapStats`] superset, and the mapping itself
/// when one was found. Round-trips through JSON.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MapReport {
    /// The engine that ran.
    pub engine: EngineId,
    /// Name of the mapped DFG.
    pub dfg_name: String,
    /// How the request ended.
    pub outcome: MapOutcome,
    /// Search statistics (fields an engine does not produce stay at
    /// their defaults).
    pub stats: MapStats,
    /// The mapping, present exactly when `outcome` is
    /// [`MapOutcome::Mapped`].
    pub mapping: Option<Mapping>,
}

impl MapReport {
    /// True when this report may be memoized and replayed for an
    /// identical request: the outcome is a deterministic function of
    /// `(DFG, CGRA, config, engine)` alone.
    ///
    /// Successful mappings and deterministic failures ([`MapError`]
    /// variants that re-occur on every retry: invalid DFG, unsupported
    /// operation class, exhausted II range) are cacheable. A
    /// [`MapError::Timeout`] depends on the deadline, the cancel flag
    /// and machine load, and a [`MapOutcome::Rejected`] request never
    /// ran an engine — neither may be replayed from a cache.
    pub fn is_cacheable(&self) -> bool {
        match &self.outcome {
            MapOutcome::Mapped { .. } => true,
            MapOutcome::Failed(e) => !matches!(e, MapError::Timeout { .. }),
            MapOutcome::Rejected { .. } => false,
        }
    }

    /// Assembles a report from an engine's native result.
    pub fn from_result(engine: EngineId, dfg: &Dfg, result: Result<MapResult, MapError>) -> Self {
        match result {
            Ok(r) => MapReport {
                engine,
                dfg_name: dfg.name().to_string(),
                outcome: MapOutcome::Mapped { ii: r.mapping.ii() },
                stats: r.stats,
                mapping: Some(r.mapping),
            },
            Err(e) => MapReport {
                engine,
                dfg_name: dfg.name().to_string(),
                outcome: MapOutcome::Failed(e),
                stats: MapStats::default(),
                mapping: None,
            },
        }
    }

    /// Assembles a failure report with explicit statistics (engines
    /// that meter their failed searches use this instead of
    /// [`MapReport::from_result`]).
    pub fn from_error(engine: EngineId, dfg: &Dfg, error: MapError, stats: MapStats) -> Self {
        MapReport {
            engine,
            dfg_name: dfg.name().to_string(),
            outcome: MapOutcome::Failed(error),
            stats,
            mapping: None,
        }
    }
}

// ---------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------

/// The unified, object-safe mapping interface implemented by every
/// engine.
///
/// An implementation must honour the request end to end: the request's
/// configuration, CGRA override, cancellation handle, deadline and
/// observer — its own construction-time configuration applies only to
/// the engine's native (non-trait) entry points.
pub trait Mapper: Send + Sync {
    /// The engine's identity (stamped into reports and used as the
    /// [`MappingService`] registry key).
    fn engine_id(&self) -> EngineId;

    /// Maps one request, never panicking on failure: every error is
    /// folded into the report's [`MapOutcome`].
    fn map(&self, req: &MapRequest) -> MapReport;
}

/// Forwards one progress event to the observer, if one is installed —
/// the shared observer-plumbing helper of every engine.
pub fn emit(obs: Option<&dyn MapObserver>, event: MapEvent) {
    if let Some(o) = obs {
        o.on_event(&event);
    }
}

/// A stable 64-bit fingerprint of any serializable value, computed over
/// its serde data-model tree (FNV-1a; map entries hashed in their
/// deterministic serialization order).
///
/// The `monomap-service` mapping cache keys entries by
/// `(DFG digest, engine, fingerprint(CGRA), fingerprint(config))`:
/// two requests agree on a component exactly when their wire forms
/// agree, so the fingerprint is the memoization-safe identity of the
/// CGRA and of the [`MapperConfig`]. Not cryptographic.
///
/// ```
/// use cgra_arch::Cgra;
/// use monomap_core::api::fingerprint;
///
/// let a = Cgra::new(4, 4)?;
/// assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
/// assert_ne!(fingerprint(&a), fingerprint(&Cgra::new(4, 5)?));
/// # Ok::<(), cgra_arch::ArchError>(())
/// ```
pub fn fingerprint<T: serde::Serialize>(value: &T) -> u64 {
    hash_value(&value.to_value(), cgra_base::FNV64_OFFSET)
}

use cgra_base::fnv64;

fn hash_value(v: &serde::Value, h: u64) -> u64 {
    use serde::Value;
    match v {
        Value::Null => fnv64(h, b"\x00"),
        Value::Bool(b) => fnv64(h, &[1, u8::from(*b)]),
        Value::Int(i) => fnv64(fnv64(h, b"\x02"), &i.to_le_bytes()),
        Value::UInt(u) => fnv64(fnv64(h, b"\x03"), &u.to_le_bytes()),
        Value::Float(x) => fnv64(fnv64(h, b"\x04"), &x.to_bits().to_le_bytes()),
        Value::Str(s) => {
            let h = fnv64(fnv64(h, b"\x05"), &(s.len() as u64).to_le_bytes());
            fnv64(h, s.as_bytes())
        }
        Value::Seq(items) => {
            let mut h = fnv64(fnv64(h, b"\x06"), &(items.len() as u64).to_le_bytes());
            for item in items {
                h = hash_value(item, h);
            }
            h
        }
        Value::Map(entries) => {
            let mut h = fnv64(fnv64(h, b"\x07"), &(entries.len() as u64).to_le_bytes());
            for (k, val) in entries {
                h = fnv64(fnv64(h, &(k.len() as u64).to_le_bytes()), k.as_bytes());
                h = hash_value(val, h);
            }
            h
        }
    }
}

/// How often the deadline watchdog re-checks the caller's cancellation
/// flag while forwarding it into the engine-side flag.
const DEADLINE_POLL: Duration = Duration::from_millis(5);

/// Resolves the engine-side cancellation flag for `req` and runs `f`
/// with it, enforcing the request's wall-clock deadline. Engine
/// [`Mapper`] impls share this helper so cancellation and deadline
/// semantics are identical across engines.
///
/// Without a deadline, `f` receives the caller's own flag (or a fresh
/// one). With a deadline, `f` receives a **derived** flag: a watchdog
/// thread raises it when the deadline expires *or* when the caller's
/// flag is raised (forwarded within a few milliseconds), and the
/// search unwinds cooperatively at its next cancellation point. The
/// caller's flag itself is never raised by the watchdog — a
/// per-request deadline must not cancel the controller's (possibly
/// service-wide, shared) flag. The watchdog exits promptly when `f`
/// finishes first.
pub fn run_request<R>(req: &MapRequest, f: impl FnOnce(CancelFlag) -> R) -> R {
    let Some(deadline) = req.deadline() else {
        return f(req.cancel.clone().unwrap_or_default());
    };
    let engine_flag = CancelFlag::new();
    // An already-expired deadline (zero, or negative on the wire) or an
    // already-raised caller flag must time out deterministically: raise
    // the flag before the engine starts rather than racing its first
    // solve against the watchdog thread getting scheduled.
    if deadline.is_zero() || req.cancel.as_ref().is_some_and(CancelFlag::is_cancelled) {
        engine_flag.cancel();
        return f(engine_flag);
    }
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let caller = req.cancel.clone();
        let watchdog_flag = engine_flag.clone();
        scope.spawn(move || {
            let started = std::time::Instant::now();
            loop {
                let remaining = deadline.saturating_sub(started.elapsed());
                if remaining.is_zero() || caller.as_ref().is_some_and(CancelFlag::is_cancelled) {
                    watchdog_flag.cancel();
                    return;
                }
                // Ok / Disconnected => f finished first: exit without
                // touching any flag.
                match done_rx.recv_timeout(remaining.min(DEADLINE_POLL)) {
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }
        });
        let result = f(engine_flag.clone());
        drop(done_tx);
        result
    })
}

impl Mapper for DecoupledMapper {
    fn engine_id(&self) -> EngineId {
        EngineId::Decoupled
    }

    /// Runs the request on this mapper's CGRA and engines under the
    /// request's configuration; a request that overrides the CGRA gets a
    /// fresh mapper, and so a fresh engine, of its own.
    fn map(&self, req: &MapRequest) -> MapReport {
        let mut inner = match &req.cgra {
            Some(cgra) => DecoupledMapper::with_config(cgra, req.config.clone()),
            None => self.reconfigured(req.config.clone()),
        };
        let result = run_request(req, |flag| {
            inner.set_cancel(flag);
            inner.map_observed(&req.dfg, req.observer.as_deref())
        });
        MapReport::from_result(EngineId::Decoupled, &req.dfg, result)
    }
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// A batch-mapping front end: owns a CGRA and a registry of engines,
/// dispatches [`MapRequest`]s by [`EngineId`], and runs batches across
/// a scoped thread pool.
///
/// [`MappingService::new`] registers the decoupled engine;
/// `cgra_baseline::standard_service` builds a service with all three
/// engines. Dispatching an unregistered engine id yields a
/// [`MapOutcome::Rejected`] report rather than an error, so one bad
/// request never poisons a batch.
///
/// Cancellation: a request's own [`MapRequest::cancel`] handle wins;
/// requests without one inherit the service-level flag installed by
/// [`MappingService::with_cancel`], letting a controller release a
/// whole batch at once.
pub struct MappingService {
    cgra: Cgra,
    engines: Vec<Box<dyn Mapper>>,
    parallelism: usize,
    cancel: Option<CancelFlag>,
}

impl MappingService {
    /// A service over `cgra` with the decoupled engine registered and
    /// serial batch execution.
    pub fn new(cgra: &Cgra) -> Self {
        MappingService {
            cgra: cgra.clone(),
            engines: vec![Box::new(DecoupledMapper::new(cgra))],
            parallelism: 1,
            cancel: None,
        }
    }

    /// The service's CGRA (the default target of every request without
    /// a [`MapRequest::cgra`] override).
    pub fn cgra(&self) -> &Cgra {
        &self.cgra
    }

    /// Registers an engine, replacing any engine with the same id.
    pub fn register(&mut self, engine: Box<dyn Mapper>) {
        match self
            .engines
            .iter_mut()
            .find(|e| e.engine_id() == engine.engine_id())
        {
            Some(slot) => *slot = engine,
            None => self.engines.push(engine),
        }
    }

    /// Builder-style [`MappingService::register`].
    pub fn with_engine(mut self, engine: Box<dyn Mapper>) -> Self {
        self.register(engine);
        self
    }

    /// Sets the worker-thread count of [`MappingService::map_batch`]
    /// (`1`, the default, runs batches serially in input order).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        assert!(workers > 0, "service parallelism must be at least 1");
        self.parallelism = workers;
        self
    }

    /// Installs a service-level cancellation flag inherited by every
    /// request that does not carry its own.
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// The registered engine ids, in registration order.
    pub fn engine_ids(&self) -> Vec<EngineId> {
        self.engines.iter().map(|e| e.engine_id()).collect()
    }

    /// The registered engine for `id`, if any.
    pub fn engine(&self, id: EngineId) -> Option<&dyn Mapper> {
        self.engines
            .iter()
            .find(|e| e.engine_id() == id)
            .map(Box::as_ref)
    }

    /// Maps one request on the calling thread.
    pub fn map(&self, req: &MapRequest) -> MapReport {
        let Some(engine) = self.engine(req.engine) else {
            return MapReport {
                engine: req.engine,
                dfg_name: req.dfg.name().to_string(),
                outcome: MapOutcome::Rejected {
                    reason: format!("engine `{}` is not registered", req.engine),
                },
                stats: MapStats::default(),
                mapping: None,
            };
        };
        if req.cancel.is_none() {
            if let Some(service_flag) = &self.cancel {
                let mut req = req.clone();
                req.cancel = Some(service_flag.clone());
                return engine.map(&req);
            }
        }
        engine.map(req)
    }

    /// Maps a batch of requests, returning one report per request **in
    /// input order**, regardless of which worker finished first.
    ///
    /// With [`MappingService::with_parallelism`] above 1 the requests
    /// are pulled from a shared queue by that many scoped worker
    /// threads; each request runs on a single worker.
    pub fn map_batch(&self, requests: &[MapRequest]) -> Vec<MapReport> {
        let workers = self.parallelism.min(requests.len());
        if workers <= 1 {
            return requests.iter().map(|r| self.map(r)).collect();
        }
        let next = AtomicUsize::new(0);
        let (report_tx, report_rx) = mpsc::channel::<(usize, MapReport)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let report_tx = report_tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests.len() {
                        break;
                    }
                    let _ = report_tx.send((i, self.map(&requests[i])));
                });
            }
        });
        drop(report_tx);
        let mut slots: Vec<Option<MapReport>> = requests.iter().map(|_| None).collect();
        for (i, report) in report_rx {
            slots[i] = Some(report);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every request produces exactly one report"))
            .collect()
    }
}

impl fmt::Debug for MappingService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappingService")
            .field("cgra", &self.cgra)
            .field("engines", &self.engine_ids())
            .field("parallelism", &self.parallelism)
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::examples::{accumulator, running_example};

    #[test]
    fn request_roundtrips_through_json() {
        let req = MapRequest::new(EngineId::Decoupled, running_example())
            .with_cgra(Cgra::new(2, 2).unwrap())
            .with_config(MapperConfig::new().with_max_ii(9))
            .with_deadline(Duration::from_secs(5));
        let json = serde_json::to_string(&req).unwrap();
        let back: MapRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.engine, EngineId::Decoupled);
        assert_eq!(back.dfg.name(), req.dfg.name());
        assert_eq!(back.dfg.num_nodes(), req.dfg.num_nodes());
        assert_eq!(back.cgra.as_ref().map(Cgra::num_pes), Some(4));
        assert_eq!(back.config.max_ii, Some(9));
        assert_eq!(back.deadline_seconds, Some(5.0));
        assert!(back.cancel.is_none(), "runtime handle is not serialized");
        assert!(back.observer.is_none(), "runtime handle is not serialized");
        // Second round trip is a fixpoint.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn source_request_compiles_on_the_wire() {
        let req = MapRequest::from_source(
            EngineId::Decoupled,
            "kernel dot { i32 a = in(0); i32 b = in(1); rec i32 s = 0; s = s + a * b; out(s); }",
        )
        .unwrap();
        assert_eq!(req.dfg.name(), "dot");
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"source\""), "{json}");
        assert!(
            !json.contains("\"dfg\""),
            "source form replaces the DFG: {json}"
        );
        let back: MapRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dfg.digest(), req.dfg.digest());
        // Second round trip is a fixpoint.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn source_errors_carry_their_position() {
        let err =
            MapRequest::from_source(EngineId::Decoupled, "kernel k {\n  i32 x = ;\n}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 11));

        // The same failure over the wire mentions the position too.
        let json = r#"{"engine":"Decoupled","source":"kernel k {\n  i32 x = ;\n}"}"#;
        let err = serde_json::from_str::<MapRequest>(json).unwrap_err();
        assert!(err.to_string().contains("source:2:11"), "{err}");
    }

    #[test]
    fn source_and_dfg_together_are_rejected() {
        let dfg_json = serde_json::to_string(&accumulator()).unwrap();
        let json = format!(
            r#"{{"engine":"Decoupled","dfg":{dfg_json},"source":"kernel k {{ out(in(0)); }}"}}"#
        );
        let err = serde_json::from_str::<MapRequest>(&json).unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
    }

    #[test]
    fn minimal_wire_request_parses() {
        let dfg_json = serde_json::to_string(&accumulator()).unwrap();
        let json = format!(r#"{{"engine":"Decoupled","dfg":{dfg_json}}}"#);
        let req: MapRequest = serde_json::from_str(&json).unwrap();
        assert!(req.cgra.is_none());
        assert_eq!(req.config.max_window_slack, 2, "defaults apply");
        assert!(req.deadline().is_none());
    }

    #[test]
    fn retired_config_keys_are_ignored() {
        // Old clients still send switches this build no longer has: the
        // request parses on both JSON paths, maps, never re-emits the
        // key, and shares the default config's cache identity.
        use serde::de::Reader;
        let dfg_json = serde_json::to_string(&running_example()).unwrap();
        let service = MappingService::new(&Cgra::new(2, 2).unwrap());
        for (key, value) in [
            ("time_incremental", "false"),
            ("space_parallelism", "0"),
            ("space_parallelism", "4"),
            ("space_parallelism", "4096"),
        ] {
            let json = format!(
                r#"{{"engine":"Decoupled","dfg":{dfg_json},"config":{{"{key}":{value}}}}}"#
            );
            let direct = MapRequest::from_json(&mut Reader::new(&json)).unwrap();
            let tree: serde::Value = serde_json::from_str(&json).unwrap();
            let tree = MapRequest::from_value(&tree).unwrap();
            for req in [direct, tree] {
                assert!(!serde_json::to_string(&req).unwrap().contains(key));
                assert_eq!(
                    fingerprint(&req.config),
                    fingerprint(&MapperConfig::default()),
                    "{key}: {value}"
                );
                assert_eq!(service.map(&req).outcome.ii(), Some(4), "{key}: {value}");
            }
        }
    }

    #[test]
    fn report_roundtrips_including_errors() {
        let cgra = Cgra::new(2, 2).unwrap();
        let service = MappingService::new(&cgra);
        // Success.
        let ok = service.map(&MapRequest::new(EngineId::Decoupled, running_example()));
        assert_eq!(ok.outcome.ii(), Some(4));
        let json = serde_json::to_string(&ok).unwrap();
        let back: MapReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ok);
        // Engine failure (II cap below mII).
        let err = service.map(
            &MapRequest::new(EngineId::Decoupled, running_example())
                .with_config(MapperConfig::new().with_max_ii(2)),
        );
        assert_eq!(
            err.outcome.error(),
            Some(&MapError::NoSolution { mii: 4, max_ii: 2 })
        );
        assert!(err.mapping.is_none());
        let json = serde_json::to_string(&err).unwrap();
        let back: MapReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, err);
    }

    #[test]
    fn unregistered_engine_is_rejected_not_panicking() {
        let cgra = Cgra::new(2, 2).unwrap();
        let service = MappingService::new(&cgra); // decoupled only
        let report = service.map(&MapRequest::new(EngineId::Coupled, accumulator()));
        assert!(matches!(report.outcome, MapOutcome::Rejected { .. }));
        // Rejection reports round-trip too.
        let json = serde_json::to_string(&report).unwrap();
        let back: MapReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn request_cgra_override_wins() {
        // Service over a 2x2, request overrides with a 3x3: the report
        // must reflect the override (accumulator still maps, and the
        // mapping validates against the 3x3).
        let service = MappingService::new(&Cgra::new(2, 2).unwrap());
        let big = Cgra::new(3, 3).unwrap();
        let report = service
            .map(&MapRequest::new(EngineId::Decoupled, accumulator()).with_cgra(big.clone()));
        let mapping = report.mapping.expect("maps");
        mapping.validate(&accumulator(), &big).unwrap();
    }

    #[test]
    fn deadline_zero_times_out() {
        let cgra = Cgra::new(2, 2).unwrap();
        let service = MappingService::new(&cgra);
        let report = service.map(
            &MapRequest::new(EngineId::Decoupled, running_example()).with_deadline(Duration::ZERO),
        );
        assert!(
            matches!(report.outcome, MapOutcome::Failed(MapError::Timeout { .. })),
            "{:?}",
            report.outcome
        );
    }

    #[test]
    fn negative_deadline_is_already_expired() {
        // A wire client computing `deadline - now` can send a negative
        // remainder: that is an expired deadline, not an unbounded
        // search.
        let cgra = Cgra::new(2, 2).unwrap();
        let service = MappingService::new(&cgra);
        let mut req = MapRequest::new(EngineId::Decoupled, running_example());
        req.deadline_seconds = Some(-0.3);
        assert_eq!(req.deadline(), Some(Duration::ZERO));
        let report = service.map(&req);
        assert!(
            matches!(report.outcome, MapOutcome::Failed(MapError::Timeout { .. })),
            "{:?}",
            report.outcome
        );
    }

    #[test]
    fn deadline_beyond_a_duration_never_fires() {
        // Regression: `Duration::from_secs_f64` panics above ≈ 1.8e19 s,
        // and the daemon answered such a request with a 500.
        for seconds in [1e30, 1.9e19, f64::MAX] {
            let mut req = MapRequest::new(EngineId::Decoupled, running_example());
            req.deadline_seconds = Some(seconds);
            assert_eq!(req.deadline(), Some(Duration::MAX), "{seconds}");
            let report = MappingService::new(&Cgra::new(2, 2).unwrap()).map(&req);
            assert_eq!(report.outcome.ii(), Some(4), "{seconds}");
        }
    }

    #[test]
    fn request_deadline_never_raises_the_service_flag() {
        // Regression: the deadline watchdog used to raise the flag the
        // engine inherited — with a service-level flag installed, one
        // request's deadline cancelled every other request. The
        // watchdog must raise only a derived, request-local flag.
        let cgra = Cgra::new(2, 2).unwrap();
        let controller = CancelFlag::new();
        let service = MappingService::new(&cgra).with_cancel(controller.clone());
        let expired = service.map(
            &MapRequest::new(EngineId::Decoupled, running_example()).with_deadline(Duration::ZERO),
        );
        assert!(matches!(
            expired.outcome,
            MapOutcome::Failed(MapError::Timeout { .. })
        ));
        assert!(
            !controller.is_cancelled(),
            "a request deadline must not raise the shared service flag"
        );
        // The service keeps working for later requests.
        let next = service.map(&MapRequest::new(EngineId::Decoupled, accumulator()));
        assert!(next.outcome.is_mapped(), "{:?}", next.outcome);
    }

    #[test]
    fn caller_cancel_is_forwarded_under_a_deadline() {
        // With a deadline installed the engine runs on a derived flag;
        // a caller cancellation must still propagate into it promptly.
        let cgra = Cgra::new(2, 2).unwrap();
        let service = MappingService::new(&cgra);
        let caller = CancelFlag::new();
        caller.cancel();
        let report = service.map(
            &MapRequest::new(EngineId::Decoupled, running_example())
                .with_deadline(Duration::from_secs(600))
                .with_cancel(caller),
        );
        assert!(
            matches!(report.outcome, MapOutcome::Failed(MapError::Timeout { .. })),
            "{:?}",
            report.outcome
        );
    }

    #[test]
    fn deadline_watchdog_does_not_cancel_after_completion() {
        // A roomy deadline: the map finishes first, and the
        // caller-supplied flag must stay un-raised for reuse.
        let flag = CancelFlag::new();
        let cgra = Cgra::new(2, 2).unwrap();
        let service = MappingService::new(&cgra);
        let report = service.map(
            &MapRequest::new(EngineId::Decoupled, accumulator())
                .with_deadline(Duration::from_secs(600))
                .with_cancel(flag.clone()),
        );
        assert!(report.outcome.is_mapped());
        assert!(!flag.is_cancelled(), "completion must not raise the flag");
    }

    #[test]
    fn service_cancel_flag_releases_requests_without_their_own() {
        let cgra = Cgra::new(2, 2).unwrap();
        let flag = CancelFlag::new();
        flag.cancel();
        let service = MappingService::new(&cgra).with_cancel(flag);
        let report = service.map(&MapRequest::new(EngineId::Decoupled, running_example()));
        assert!(matches!(
            report.outcome,
            MapOutcome::Failed(MapError::Timeout { .. })
        ));
    }

    #[test]
    fn batch_reports_come_back_in_input_order() {
        let cgra = Cgra::new(2, 2).unwrap();
        let service = MappingService::new(&cgra).with_parallelism(4);
        let kernels = [
            running_example(),
            accumulator(),
            running_example(),
            accumulator(),
            running_example(),
            accumulator(),
        ];
        let requests: Vec<MapRequest> = kernels
            .iter()
            .map(|k| MapRequest::new(EngineId::Decoupled, k.clone()))
            .collect();
        let reports = service.map_batch(&requests);
        assert_eq!(reports.len(), requests.len());
        for (req, rep) in requests.iter().zip(&reports) {
            assert_eq!(rep.dfg_name, req.dfg.name(), "input order preserved");
            assert!(rep.outcome.is_mapped());
        }
        // Batch results equal the serial per-request results (the
        // decoupled engine is deterministic per request).
        let serial: Vec<MapReport> = requests.iter().map(|r| service.map(r)).collect();
        for (a, b) in reports.iter().zip(&serial) {
            assert_eq!(a.mapping, b.mapping);
        }
    }

    #[test]
    fn fingerprint_tracks_wire_identity() {
        let cgra = Cgra::new(4, 4).unwrap();
        assert_eq!(fingerprint(&cgra), fingerprint(&cgra.clone()));
        assert_ne!(fingerprint(&cgra), fingerprint(&Cgra::new(4, 5).unwrap()));
        let config = MapperConfig::default();
        assert_eq!(fingerprint(&config), fingerprint(&MapperConfig::new()));
        assert_ne!(
            fingerprint(&config),
            fingerprint(&MapperConfig::new().with_max_ii(9))
        );
        // A round trip through JSON preserves the fingerprint (the
        // cache may be keyed from a wire request or a native one).
        let json = serde_json::to_string(&config).unwrap();
        let back: MapperConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(fingerprint(&back), fingerprint(&config));
    }

    #[test]
    fn cacheability_follows_determinism() {
        let cgra = Cgra::new(2, 2).unwrap();
        let service = MappingService::new(&cgra);
        let mapped = service.map(&MapRequest::new(EngineId::Decoupled, running_example()));
        assert!(mapped.is_cacheable(), "successful mappings are cacheable");
        let no_solution = service.map(
            &MapRequest::new(EngineId::Decoupled, running_example())
                .with_config(MapperConfig::new().with_max_ii(2)),
        );
        assert!(
            no_solution.is_cacheable(),
            "exhausted II range is deterministic"
        );
        let timeout = service.map(
            &MapRequest::new(EngineId::Decoupled, running_example()).with_deadline(Duration::ZERO),
        );
        assert!(!timeout.is_cacheable(), "timeouts depend on the deadline");
        let rejected = service.map(&MapRequest::new(EngineId::Coupled, running_example()));
        assert!(!rejected.is_cacheable(), "no engine ran");
    }

    #[test]
    fn trait_object_replaces_engine_glue() {
        let cgra = Cgra::new(2, 2).unwrap();
        let boxed: Box<dyn Mapper> = Box::new(DecoupledMapper::new(&cgra));
        assert_eq!(boxed.engine_id(), EngineId::Decoupled);
        let report = boxed.map(&MapRequest::new(EngineId::Decoupled, running_example()));
        assert_eq!(report.outcome.ii(), Some(4));
    }

    #[test]
    fn observer_receives_deterministic_serial_events() {
        let cgra = Cgra::new(2, 2).unwrap();
        let service = MappingService::new(&cgra);
        let run = || {
            let collector = Arc::new(EventCollector::new());
            let report = service.map(
                &MapRequest::new(EngineId::Decoupled, running_example())
                    .with_observer(collector.clone()),
            );
            assert!(report.outcome.is_mapped());
            collector.events()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "serial event stream is deterministic");
        assert!(matches!(a.first(), Some(MapEvent::IiStarted { ii: 4 })));
        assert!(matches!(
            a.last(),
            Some(MapEvent::Finished {
                mapped: true,
                ii: Some(4)
            })
        ));
        assert!(a
            .iter()
            .any(|e| matches!(e, MapEvent::TimeSolutionFound { .. })));
        assert!(a.iter().any(|e| matches!(
            e,
            MapEvent::SpaceAttempt {
                outcome: SpaceAttemptOutcome::Found,
                ..
            }
        )));
    }
}
