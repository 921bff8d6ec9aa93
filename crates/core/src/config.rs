//! Mapper configuration.

use serde::{Deserialize, Serialize};

use cgra_arch::MAX_ROUTE_HOPS;
use cgra_base::Budget;

/// Which algorithm produces time solutions (phase 1 of the decoupled
/// mapper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TimeStrategy {
    /// The paper's SMT search: exact, and able to enumerate alternative
    /// schedules through blocking clauses.
    #[default]
    Smt,
    /// Rau-style iterative modulo scheduling with the paper's capacity
    /// and connectivity admission checks
    /// ([`cgra_sched::ims_schedule`]): heuristic and single-shot per
    /// `(II, slack)` level, but allocation-free fast. An extension
    /// beyond the paper, in the spirit of its CRIMSON/PathSeeker
    /// related work.
    Heuristic,
}

/// Tuning knobs of the [`crate::DecoupledMapper`].
///
/// The defaults follow the paper: both constraint families on, the
/// paper's (non-strict) connectivity bound, escalating II from `mII`.
/// The window-slack retries and the time-solution enumeration cap are
/// implementation-level completeness nets documented in DESIGN.md §6.
#[derive(Clone, Debug)]
pub struct MapperConfig {
    /// Largest II to attempt; `None` means `mII + 16`.
    pub max_ii: Option<usize>,
    /// Maximum window slack (ALAP extension in multiples of II) to try
    /// per II before escalating the II.
    pub max_window_slack: usize,
    /// Maximum number of alternative time solutions to try per
    /// `(II, slack)` before widening.
    pub max_time_solutions: usize,
    /// The most placements one monomorphism search may try — exactly:
    /// a search stops *at* this many, not one past it. Within one II
    /// the mapper first searches every schedule under a thousandth, a
    /// hundredth and a tenth of the limit and re-searches only the
    /// schedules still undecided, so each has had this full budget
    /// before the II rises, at no more than 11.1 % extra steps.
    pub mono_step_limit: u64,
    /// Enable the capacity constraint family (ablation switch).
    pub capacity_constraints: bool,
    /// Enable the connectivity constraint family (ablation switch).
    pub connectivity_constraints: bool,
    /// Use the tight same-slot connectivity bound instead of the
    /// paper's uniform `D_M` (ablation switch).
    pub strict_connectivity: bool,
    /// Optional SAT budget per time-solve call.
    pub time_budget: Option<Budget>,
    /// Which algorithm produces time solutions.
    pub time_strategy: TimeStrategy,
    /// Route-length bound `k` of the routing model: a dependence may
    /// place producer and consumer up to `k` topology hops apart (one
    /// register-file forward per hop). `1` is the paper's
    /// neighbour-readable model and the default; higher values relax
    /// the space phase at the cost of occupying route-through
    /// resources the model does not charge for (documented in
    /// ARCHITECTURE.md §Routing model). Bounded by
    /// [`cgra_arch::MAX_ROUTE_HOPS`].
    pub max_route_hops: usize,
    /// Worker threads racing monomorphism searches over the time
    /// solutions of one `(II, slack)` level (portfolio mode).
    ///
    /// `1` (the default) is the fully deterministic serial path:
    /// solutions are tried in enumeration order and results are
    /// byte-identical run to run. Values above 1 pull schedules from
    /// the SMT enumerator in batches of this size (up to
    /// [`MapperConfig::max_time_solutions`] in total) and race each
    /// batch's space searches across that many threads; the first
    /// success cancels the rest. The achieved II is unaffected (every
    /// raced schedule shares the level's II) — only which of the
    /// equally-good placements wins may vary.
    pub space_parallelism: usize,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            max_ii: None,
            max_window_slack: 2,
            max_time_solutions: 16,
            mono_step_limit: 2_000_000,
            capacity_constraints: true,
            connectivity_constraints: true,
            strict_connectivity: false,
            time_budget: None,
            time_strategy: TimeStrategy::Smt,
            max_route_hops: 1,
            space_parallelism: 1,
        }
    }
}

impl MapperConfig {
    /// The paper-faithful default configuration.
    pub fn new() -> Self {
        MapperConfig::default()
    }

    /// Caps the II search range.
    ///
    /// A cap below the instance's lower bound `mII` is a contract
    /// violation: [`crate::DecoupledMapper::map`] returns
    /// [`crate::MapError::NoSolution`] immediately (no II is searched)
    /// rather than silently widening the cap.
    pub fn with_max_ii(mut self, max_ii: usize) -> Self {
        self.max_ii = Some(max_ii);
        self
    }

    /// Sets the window-slack ceiling.
    pub fn with_max_window_slack(mut self, slack: usize) -> Self {
        self.max_window_slack = slack;
        self
    }

    /// Sets the per-`(II, slack)` time-solution enumeration cap.
    pub fn with_max_time_solutions(mut self, n: usize) -> Self {
        self.max_time_solutions = n;
        self
    }

    /// Sets the per-search monomorphism step limit (see
    /// [`MapperConfig::mono_step_limit`]).
    pub fn with_mono_step_limit(mut self, steps: u64) -> Self {
        self.mono_step_limit = steps;
        self
    }

    /// Toggles the capacity constraint family (§IV-B2; ablation
    /// switch — the paper's default is on).
    pub fn with_capacity_constraints(mut self, enable: bool) -> Self {
        self.capacity_constraints = enable;
        self
    }

    /// Toggles the connectivity constraint family (§IV-B3; ablation
    /// switch — the paper's default is on).
    pub fn with_connectivity_constraints(mut self, enable: bool) -> Self {
        self.connectivity_constraints = enable;
        self
    }

    /// Toggles the strict same-slot connectivity bound.
    pub fn with_strict_connectivity(mut self, strict: bool) -> Self {
        self.strict_connectivity = strict;
        self
    }

    /// Sets a SAT budget per time-solve call.
    pub fn with_time_budget(mut self, budget: Budget) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Chooses the time-phase algorithm.
    pub fn with_time_strategy(mut self, strategy: TimeStrategy) -> Self {
        self.time_strategy = strategy;
        self
    }

    /// Sets the route-length bound `k` of the routing model; `1` (the
    /// default) is the paper's adjacency model.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= MAX_ROUTE_HOPS`.
    pub fn with_max_route_hops(mut self, k: usize) -> Self {
        assert!(
            (1..=MAX_ROUTE_HOPS).contains(&k),
            "max_route_hops must be in 1..={MAX_ROUTE_HOPS}"
        );
        self.max_route_hops = k;
        self
    }

    /// Sets the space-phase portfolio width (worker threads racing the
    /// monomorphism searches of one `(II, slack)` level); `1` keeps the
    /// deterministic serial path.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_space_parallelism(mut self, workers: usize) -> Self {
        assert!(workers > 0, "space_parallelism must be at least 1");
        self.space_parallelism = workers;
        self
    }
}

// The serde impls are hand-written for two reasons: `Budget` lives in
// the zero-dependency `cgra-base` crate (so it cannot derive the
// vendored serde traits), and deserialisation should treat every absent
// field as its default so request JSON only has to name the knobs it
// overrides.
impl MapperConfig {
    /// The wire entries, in order, listed once for both serialization
    /// paths.
    fn entries(&self, entry: serde::ser::Entry<'_>) {
        entry("max_ii", &self.max_ii);
        entry("max_window_slack", &self.max_window_slack);
        entry("max_time_solutions", &self.max_time_solutions);
        entry("mono_step_limit", &self.mono_step_limit);
        entry("capacity_constraints", &self.capacity_constraints);
        entry("connectivity_constraints", &self.connectivity_constraints);
        entry("strict_connectivity", &self.strict_connectivity);
        entry("time_budget", &self.time_budget.as_ref().map(BudgetWire));
        entry("time_strategy", &self.time_strategy);
        entry("space_parallelism", &self.space_parallelism);
        // Emitted only when it departs from the default so that
        // pre-routing wire messages — and their fingerprints — are
        // byte-identical to what this build produces at `k = 1`.
        if self.max_route_hops != 1 {
            entry("max_route_hops", &self.max_route_hops);
        }
    }
}

/// A [`Budget`] as it crosses the wire.
struct BudgetWire<'a>(&'a Budget);

impl BudgetWire<'_> {
    fn entries(&self, entry: serde::ser::Entry<'_>) {
        entry("max_conflicts", &self.0.max_conflicts);
        entry("max_propagations", &self.0.max_propagations);
    }

    /// The direct decoder of a `time_budget` value (`null` is `None`).
    fn read(r: &mut serde::de::Reader<'_>) -> Result<Option<Budget>, serde::de::Error> {
        if r.null() {
            return Ok(None);
        }
        let mut conflicts: Option<Option<u64>> = None;
        let mut propagations: Option<Option<u64>> = None;
        r.map(|r, key| match &*key {
            "max_conflicts" => serde::de::read_field(&mut conflicts, r),
            "max_propagations" => serde::de::read_field(&mut propagations, r),
            _ => r.skip_value(),
        })?;
        Ok(Some(Budget {
            max_conflicts: conflicts.flatten(),
            max_propagations: propagations.flatten(),
        }))
    }
}

impl Serialize for BudgetWire<'_> {
    fn to_value(&self) -> serde::Value {
        serde::ser::map_value(|entry| self.entries(entry))
    }

    fn write_json(&self, out: &mut String) {
        serde::ser::write_map(out, |entry| self.entries(entry));
    }
}

impl Serialize for MapperConfig {
    fn to_value(&self) -> serde::Value {
        serde::ser::map_value(|entry| self.entries(entry))
    }

    fn write_json(&self, out: &mut String) {
        serde::ser::write_map(out, |entry| self.entries(entry));
    }
}

/// Reads an optional field: absent and explicit-null both yield `None`.
fn opt_field<T: Deserialize>(v: &serde::Value, name: &str) -> Result<Option<T>, serde::de::Error> {
    v.get(name)
        .map(Option::<T>::from_value)
        .transpose()
        .map_err(|e| serde::de::Error::custom(format!("field `{name}`: {e}")))
        .map(Option::flatten)
}

impl Deserialize for MapperConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        if v.as_map().is_none() {
            return Err(serde::de::Error::expected("map", v));
        }
        let d = MapperConfig::default();
        let time_budget = match v.get("time_budget").filter(|b| **b != serde::Value::Null) {
            Some(b) => Some(Budget {
                max_conflicts: opt_field(b, "max_conflicts")?,
                max_propagations: opt_field(b, "max_propagations")?,
            }),
            None => None,
        };
        let space_parallelism =
            opt_field::<usize>(v, "space_parallelism")?.unwrap_or(d.space_parallelism);
        if space_parallelism == 0 {
            return Err(serde::de::Error::custom(
                "space_parallelism must be at least 1",
            ));
        }
        // Absent on old-wire requests: the adjacency model.
        let max_route_hops = opt_field::<usize>(v, "max_route_hops")?.unwrap_or(d.max_route_hops);
        if !(1..=MAX_ROUTE_HOPS).contains(&max_route_hops) {
            return Err(serde::de::Error::custom(format!(
                "max_route_hops must be in 1..={MAX_ROUTE_HOPS}"
            )));
        }
        Ok(MapperConfig {
            max_ii: opt_field(v, "max_ii")?,
            max_window_slack: opt_field(v, "max_window_slack")?.unwrap_or(d.max_window_slack),
            max_time_solutions: opt_field(v, "max_time_solutions")?.unwrap_or(d.max_time_solutions),
            mono_step_limit: opt_field(v, "mono_step_limit")?.unwrap_or(d.mono_step_limit),
            capacity_constraints: opt_field(v, "capacity_constraints")?
                .unwrap_or(d.capacity_constraints),
            connectivity_constraints: opt_field(v, "connectivity_constraints")?
                .unwrap_or(d.connectivity_constraints),
            strict_connectivity: opt_field(v, "strict_connectivity")?
                .unwrap_or(d.strict_connectivity),
            time_budget,
            time_strategy: opt_field(v, "time_strategy")?.unwrap_or(d.time_strategy),
            max_route_hops,
            space_parallelism,
        })
    }

    fn from_json(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::de::Error> {
        use serde::de::read_field;
        // Each slot is `Some(None)` for an explicit `null`.
        let mut max_ii: Option<Option<usize>> = None;
        let mut slack: Option<Option<usize>> = None;
        let mut solutions: Option<Option<usize>> = None;
        let mut steps: Option<Option<u64>> = None;
        let mut capacity: Option<Option<bool>> = None;
        let mut connectivity: Option<Option<bool>> = None;
        let mut strict: Option<Option<bool>> = None;
        let mut budget: Option<Option<Budget>> = None;
        let mut strategy: Option<Option<TimeStrategy>> = None;
        let mut hops: Option<Option<usize>> = None;
        let mut parallelism: Option<Option<usize>> = None;
        r.map(|r, key| match &*key {
            "max_ii" => read_field(&mut max_ii, r),
            "max_window_slack" => read_field(&mut slack, r),
            "max_time_solutions" => read_field(&mut solutions, r),
            "mono_step_limit" => read_field(&mut steps, r),
            "capacity_constraints" => read_field(&mut capacity, r),
            "connectivity_constraints" => read_field(&mut connectivity, r),
            "strict_connectivity" => read_field(&mut strict, r),
            "time_budget" if budget.is_none() => {
                budget = Some(BudgetWire::read(r)?);
                Ok(())
            }
            "time_strategy" => read_field(&mut strategy, r),
            "max_route_hops" => read_field(&mut hops, r),
            "space_parallelism" => read_field(&mut parallelism, r),
            "time_budget" => Err(serde::de::Error::custom("duplicate field")),
            _ => r.skip_value(),
        })?;
        let d = MapperConfig::default();
        let config = MapperConfig {
            max_ii: max_ii.flatten(),
            max_window_slack: slack.flatten().unwrap_or(d.max_window_slack),
            max_time_solutions: solutions.flatten().unwrap_or(d.max_time_solutions),
            mono_step_limit: steps.flatten().unwrap_or(d.mono_step_limit),
            capacity_constraints: capacity.flatten().unwrap_or(d.capacity_constraints),
            connectivity_constraints: connectivity.flatten().unwrap_or(d.connectivity_constraints),
            strict_connectivity: strict.flatten().unwrap_or(d.strict_connectivity),
            time_budget: budget.flatten(),
            time_strategy: strategy.flatten().unwrap_or(d.time_strategy),
            max_route_hops: hops.flatten().unwrap_or(d.max_route_hops),
            space_parallelism: parallelism.flatten().unwrap_or(d.space_parallelism),
        };
        if config.space_parallelism == 0 || !(1..=MAX_ROUTE_HOPS).contains(&config.max_route_hops) {
            return Err(serde::de::Error::custom("out of range"));
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_faithful() {
        let c = MapperConfig::default();
        assert!(c.capacity_constraints);
        assert!(c.connectivity_constraints);
        assert!(!c.strict_connectivity);
        assert_eq!(c.max_ii, None);
        assert_eq!(c.space_parallelism, 1, "serial (deterministic) default");
    }

    #[test]
    fn space_parallelism_builder() {
        let c = MapperConfig::new().with_space_parallelism(4);
        assert_eq!(c.space_parallelism, 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_space_parallelism_rejected() {
        let _ = MapperConfig::new().with_space_parallelism(0);
    }

    #[test]
    fn builder_methods_chain() {
        let c = MapperConfig::new()
            .with_max_ii(9)
            .with_max_window_slack(1)
            .with_max_time_solutions(4)
            .with_mono_step_limit(10)
            .with_strict_connectivity(true)
            .with_capacity_constraints(false)
            .with_connectivity_constraints(false);
        assert_eq!(c.max_ii, Some(9));
        assert_eq!(c.max_window_slack, 1);
        assert_eq!(c.max_time_solutions, 4);
        assert_eq!(c.mono_step_limit, 10);
        assert!(c.strict_connectivity);
        assert!(!c.capacity_constraints);
        assert!(!c.connectivity_constraints);
    }

    fn roundtrip(c: &MapperConfig) -> MapperConfig {
        let json = serde_json::to_string(c).unwrap();
        serde_json::from_str(&json).unwrap()
    }

    fn assert_config_eq(a: &MapperConfig, b: &MapperConfig) {
        // MapperConfig has no PartialEq (Budget has none); compare the
        // canonical JSON forms instead.
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap()
        );
    }

    #[test]
    fn serde_roundtrip_default() {
        let c = MapperConfig::default();
        assert_config_eq(&roundtrip(&c), &c);
    }

    #[test]
    fn serde_roundtrip_customised() {
        let c = MapperConfig::new()
            .with_max_ii(7)
            .with_max_window_slack(1)
            .with_time_budget(Budget::conflicts(123))
            .with_time_strategy(TimeStrategy::Heuristic)
            .with_space_parallelism(3)
            .with_capacity_constraints(false);
        let back = roundtrip(&c);
        assert_eq!(back.max_ii, Some(7));
        assert_eq!(back.time_budget.as_ref().unwrap().max_conflicts, Some(123));
        assert_eq!(back.time_strategy, TimeStrategy::Heuristic);
        assert_eq!(back.space_parallelism, 3);
        assert!(!back.capacity_constraints);
        assert_config_eq(&back, &c);
    }

    #[test]
    fn serde_absent_fields_default() {
        // A request only names the knobs it overrides.
        let c: MapperConfig = serde_json::from_str(r#"{"max_ii": 8}"#).unwrap();
        assert_eq!(c.max_ii, Some(8));
        assert_eq!(c.max_window_slack, MapperConfig::default().max_window_slack);
        assert_eq!(c.space_parallelism, 1);
    }

    #[test]
    fn serde_rejects_zero_parallelism() {
        assert!(serde_json::from_str::<MapperConfig>(r#"{"space_parallelism": 0}"#).is_err());
    }

    #[test]
    fn route_hops_roundtrips_and_defaults_from_old_wire() {
        // Round-trip of a non-default bound.
        let c = MapperConfig::new().with_max_route_hops(3);
        assert_eq!(roundtrip(&c).max_route_hops, 3);
        assert_config_eq(&roundtrip(&c), &c);
        // A pre-routing wire message (no such field) still decodes, to
        // the adjacency model.
        let old = r#"{"max_ii": 6, "strict_connectivity": true}"#;
        let c: MapperConfig = serde_json::from_str(old).unwrap();
        assert_eq!(c.max_route_hops, 1);
        assert_eq!(c.max_ii, Some(6));
        // And the default config never mentions the field on the wire,
        // so pre-routing peers can decode what this build emits.
        let json = serde_json::to_string(&MapperConfig::default()).unwrap();
        assert!(!json.contains("max_route_hops"), "{json}");
    }

    #[test]
    fn serde_rejects_out_of_range_route_hops() {
        assert!(serde_json::from_str::<MapperConfig>(r#"{"max_route_hops": 0}"#).is_err());
        let too_far = format!("{{\"max_route_hops\": {}}}", MAX_ROUTE_HOPS + 1);
        assert!(serde_json::from_str::<MapperConfig>(&too_far).is_err());
    }

    #[test]
    #[should_panic(expected = "max_route_hops")]
    fn builder_rejects_zero_route_hops() {
        let _ = MapperConfig::new().with_max_route_hops(0);
    }
}
