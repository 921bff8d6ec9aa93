//! Finite-domain integer variables and constraints over the SAT core.

use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use cgra_base::Budget;
use cgra_sat::{Lit, SatResult, Solver};

use crate::cardinality;

/// Handle to a finite-domain integer variable inside an [`FdSolver`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntVar(u32);

impl IntVar {
    /// Dense index of this variable inside its solver.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for IntVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Where an integer variable's domain lives in [`FdSolver`]'s flat
/// `values`/`lits` arrays.
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Sizes of the encoded formula, for reporting and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FdStats {
    /// Number of finite-domain integer variables.
    pub int_vars: usize,
    /// Number of SAT variables allocated (indicators + auxiliaries).
    pub sat_vars: usize,
    /// Number of clauses alive in the SAT core.
    pub clauses: usize,
}

/// A finite-domain constraint solver ("mini-SMT") encoding onto CDCL SAT.
///
/// See the crate-level documentation for an example. All constraint
/// methods add clauses immediately (eager encoding); the solver can then
/// be queried repeatedly and incrementally. Every domain lives in two
/// flat arrays shared by all variables, so [`FdSolver::clear`] can
/// recycle the whole store for the next formula.
pub struct FdSolver {
    sat: Solver,
    /// Per variable, its run of `values` and `lits`.
    vars: Vec<Span>,
    /// Sorted domain values, each variable's a contiguous run.
    values: Vec<i64>,
    /// The indicator literal `[x = value]` of each entry of `values`.
    lits: Vec<Lit>,
    /// Scratch clause for `block_current`.
    buf: Vec<Lit>,
}

impl fmt::Debug for FdSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FdSolver")
            .field("int_vars", &self.vars.len())
            .field("sat", &self.sat)
            .finish()
    }
}

impl Default for FdSolver {
    fn default() -> Self {
        FdSolver::new()
    }
}

impl FdSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        FdSolver {
            sat: Solver::new(),
            vars: Vec::new(),
            values: Vec::new(),
            lits: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Returns the solver to the state of [`FdSolver::new`] (see
    /// [`Solver::clear`]), keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.sat.clear();
        self.vars.clear();
        self.values.clear();
        self.lits.clear();
        self.buf.clear();
    }

    /// Appends `domain`, sorted and deduplicated, to `values`, and
    /// returns where it starts.
    fn push_domain<I>(&mut self, domain: I) -> usize
    where
        I: IntoIterator<Item = i64>,
    {
        let start = self.values.len();
        self.values.extend(domain);
        self.values[start..].sort_unstable();
        let mut kept = start;
        for i in start..self.values.len() {
            if kept == start || self.values[i] != self.values[kept - 1] {
                self.values[kept] = self.values[i];
                kept += 1;
            }
        }
        self.values.truncate(kept);
        start
    }

    /// Gives `values[start..]` fresh indicator literals and registers
    /// them as a new variable.
    fn push_var(&mut self, start: usize) -> IntVar {
        assert!(
            self.values.len() > start,
            "integer variable needs a non-empty domain"
        );
        for _ in start..self.values.len() {
            let l = self.sat.new_var().pos();
            self.lits.push(l);
        }
        let v = IntVar(self.vars.len() as u32);
        self.vars.push(Span {
            start: start as u32,
            len: (self.values.len() - start) as u32,
        });
        v
    }

    /// The domain values and indicator literals of `v`.
    fn entries(&self, v: IntVar) -> (&[i64], &[Lit]) {
        let range = self.vars[v.index()].range();
        (&self.values[range.clone()], &self.lits[range])
    }

    /// Adds `[!a ∨ !b]`, with `!guard` when guarded, for every value
    /// pair of `(a, b)` that `pred` rejects and `keep` selects by domain
    /// index, in `a`-major order.
    fn forbid_pairs<F, K>(&mut self, guard: Option<Lit>, a: IntVar, b: IntVar, keep: K, pred: F)
    where
        F: Fn(i64, i64) -> bool,
        K: Fn(usize, usize) -> bool,
    {
        let (ra, rb) = (self.vars[a.index()].range(), self.vars[b.index()].range());
        for ia in ra.clone() {
            for ib in rb.clone() {
                if keep(ia - ra.start, ib - rb.start) && !pred(self.values[ia], self.values[ib]) {
                    let (la, lb) = (self.lits[ia], self.lits[ib]);
                    match guard {
                        Some(g) => self.sat.add_clause([!g, !la, !lb]),
                        None => self.sat.add_clause([!la, !lb]),
                    };
                }
            }
        }
    }

    /// Creates an integer variable over the given domain values.
    ///
    /// Duplicate values are merged; the domain is sorted. An exactly-one
    /// constraint over the indicator literals is added immediately.
    ///
    /// # Panics
    ///
    /// Panics if the domain is empty.
    pub fn new_int<I>(&mut self, domain: I) -> IntVar
    where
        I: IntoIterator<Item = i64>,
    {
        let start = self.push_domain(domain);
        let v = self.push_var(start);
        let lits = &self.lits[start..];
        self.sat.add_clause(lits.iter().copied());
        cardinality::at_most_one(&mut self.sat, lits);
        v
    }

    /// Creates an integer variable whose at-least-one constraint is
    /// conditioned on `guard`.
    ///
    /// Like [`FdSolver::new_int`], except that the "some value must be
    /// taken" clause becomes `guard → (l₀ ∨ l₁ ∨ …)`; the at-most-one
    /// side stays unconditional (holding vacuously when no value is
    /// taken). Solving with `guard` assumed reproduces the plain
    /// `new_int` semantics, while leaving `guard` free keeps the
    /// variable optional — the hook on which [`FdSolver::extend_int`]
    /// builds incremental domain widening.
    ///
    /// # Panics
    ///
    /// Panics if the domain is empty.
    pub fn new_int_guarded<I>(&mut self, domain: I, guard: Lit) -> IntVar
    where
        I: IntoIterator<Item = i64>,
    {
        let start = self.push_domain(domain);
        let v = self.push_var(start);
        let lits = &self.lits[start..];
        self.sat
            .add_clause(std::iter::once(!guard).chain(lits.iter().copied()));
        cardinality::at_most_one(&mut self.sat, lits);
        v
    }

    /// Widens the domain of `v` with values strictly above its current
    /// maximum, re-guarding the at-least-one constraint on `guard`.
    ///
    /// This is the monotone widening step of incremental solving: the
    /// new values get fresh indicator literals, pairwise at-most-one
    /// clauses against every existing indicator keep the exactly-one
    /// invariant, and a new clause `guard → (all indicators)` covers the
    /// grown domain. The previous guard (from [`FdSolver::new_int_guarded`]
    /// or an earlier `extend_int`) should be permanently negated by the
    /// caller once it stops being assumed — its at-least-one clause is
    /// then vacuously satisfied and the new one takes over. Nothing is
    /// removed or rebuilt, so learnt clauses in the SAT core stay valid.
    ///
    /// Returns the number of values actually added (duplicates of
    /// existing values are not permitted — see Panics).
    ///
    /// # Panics
    ///
    /// Panics if any new value is not strictly greater than the current
    /// domain maximum (widening must be append-only so existing
    /// indicator indices stay stable).
    pub fn extend_int<I>(&mut self, v: IntVar, new_values: I, guard: Lit) -> usize
    where
        I: IntoIterator<Item = i64>,
    {
        // The grown domain must stay one run: move the old one to the
        // end of the arrays unless it is already there.
        let mut span = self.vars[v.index()];
        let old = span.range();
        if old.end != self.values.len() {
            span.start = self.values.len() as u32;
            self.values.extend_from_within(old.clone());
            self.lits.extend_from_within(old);
        }
        let current_max = *self.values.last().expect("domains are never empty");
        let first_new = self.push_domain(new_values);
        assert!(
            self.values
                .get(first_new)
                .is_none_or(|&first| first > current_max),
            "extend_int must append values strictly above the current maximum"
        );
        let added = self.values.len() - first_new;
        for _ in 0..added {
            let l = self.sat.new_var().pos();
            self.lits.push(l);
        }
        // At-most-one across the grown domain: the old encoding already
        // covers old×old pairs, so only pairs touching a new literal are
        // missing.
        let old_lits = span.start as usize..first_new;
        for i in first_new..self.lits.len() {
            let nl = self.lits[i];
            for k in old_lits.clone() {
                self.sat.add_clause([!self.lits[k], !nl]);
            }
            for k in i + 1..self.lits.len() {
                self.sat.add_clause([!nl, !self.lits[k]]);
            }
        }
        span.len += added as u32;
        self.vars[v.index()] = span;
        let lits = &self.lits[span.range()];
        self.sat
            .add_clause(std::iter::once(!guard).chain(lits.iter().copied()));
        added
    }

    /// Like [`FdSolver::require_binary`], but only over value pairs that
    /// involve a domain index of `a` at or beyond `from_a`, or of `b` at
    /// or beyond `from_b`.
    ///
    /// After [`FdSolver::extend_int`] grows a domain, passing the
    /// pre-extension lengths here adds exactly the clauses the original
    /// `require_binary` call would now emit on top of what it already
    /// did — the incremental delta.
    pub fn require_binary_from<F>(
        &mut self,
        a: IntVar,
        b: IntVar,
        from_a: usize,
        from_b: usize,
        pred: F,
    ) where
        F: Fn(i64, i64) -> bool,
    {
        self.forbid_pairs(None, a, b, |ia, ib| ia >= from_a || ib >= from_b, pred);
    }

    /// Creates a fresh free Boolean literal.
    pub fn new_bool(&mut self) -> Lit {
        self.sat.new_var().pos()
    }

    /// The sorted domain of a variable.
    pub fn domain(&self, v: IntVar) -> &[i64] {
        self.entries(v).0
    }

    /// The indicator literal for `v == value`, if `value` is in the
    /// domain.
    pub fn eq_lit(&self, v: IntVar, value: i64) -> Option<Lit> {
        let (values, lits) = self.entries(v);
        values.binary_search(&value).ok().map(|i| lits[i])
    }

    /// Indicator literals of `v` paired with their domain values.
    pub fn indicator_lits(&self, v: IntVar) -> impl Iterator<Item = (i64, Lit)> + '_ {
        let (values, lits) = self.entries(v);
        values.iter().copied().zip(lits.iter().copied())
    }

    /// Adds a raw clause over Boolean literals.
    pub fn add_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        self.sat.add_clause(lits);
    }

    /// Restricts `v` to domain values satisfying `pred`.
    pub fn require_unary<F>(&mut self, v: IntVar, pred: F)
    where
        F: Fn(i64) -> bool,
    {
        for i in self.vars[v.index()].range() {
            if !pred(self.values[i]) {
                self.sat.add_clause([!self.lits[i]]);
            }
        }
    }

    /// Requires the relation `pred(a, b)` to hold between the values of
    /// `a` and `b`, by forbidding every violating value pair.
    ///
    /// Complexity is `|dom(a)| · |dom(b)|` binary clauses in the worst
    /// case — intended for the small schedule-window domains of the CGRA
    /// time formulation.
    pub fn require_binary<F>(&mut self, a: IntVar, b: IntVar, pred: F)
    where
        F: Fn(i64, i64) -> bool,
    {
        self.forbid_pairs(None, a, b, |_, _| true, pred);
    }

    /// Requires `pred(a, b)` to hold whenever `guard` is true.
    pub fn require_binary_if<F>(&mut self, guard: Lit, a: IntVar, b: IntVar, pred: F)
    where
        F: Fn(i64, i64) -> bool,
    {
        self.forbid_pairs(Some(guard), a, b, |_, _| true, pred);
    }

    /// Returns a literal defined (via Tseitin) to be the disjunction of
    /// `lits`.
    pub fn or_lit(&mut self, lits: &[Lit]) -> Lit {
        if lits.len() == 1 {
            return lits[0];
        }
        let y = self.sat.new_var().pos();
        for &l in lits {
            self.sat.add_clause([!l, y]);
        }
        self.sat
            .add_clause(std::iter::once(!y).chain(lits.iter().copied()));
        y
    }

    /// Returns a literal defined (via Tseitin) to be the conjunction of
    /// `lits`.
    pub fn and_lit(&mut self, lits: &[Lit]) -> Lit {
        if lits.len() == 1 {
            return lits[0];
        }
        let y = self.sat.new_var().pos();
        for &l in lits {
            self.sat.add_clause([!y, l]);
        }
        self.sat
            .add_clause(std::iter::once(y).chain(lits.iter().map(|&l| !l)));
        y
    }

    /// At most `k` of `lits` may be true.
    pub fn at_most_k(&mut self, lits: &[Lit], k: usize) {
        cardinality::at_most_k(&mut self.sat, lits, k);
    }

    /// At least `k` of `lits` must be true.
    pub fn at_least_k(&mut self, lits: &[Lit], k: usize) {
        cardinality::at_least_k(&mut self.sat, lits, k);
    }

    /// Exactly `k` of `lits` must be true.
    pub fn exactly_k(&mut self, lits: &[Lit], k: usize) {
        cardinality::exactly_k(&mut self.sat, lits, k);
    }

    /// Decides the accumulated constraints.
    pub fn solve(&mut self) -> SatResult {
        self.sat.solve()
    }

    /// Decides under a resource budget; returns
    /// [`SatResult::Unknown`](cgra_sat::SatResult::Unknown) when exhausted.
    pub fn solve_limited(&mut self, budget: &Budget) -> SatResult {
        self.sat.solve_limited(&[], budget)
    }

    /// Decides under assumption literals.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.sat.solve_with_assumptions(assumptions)
    }

    /// Decides under assumption literals and a resource budget.
    pub fn solve_with_assumptions_limited(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
    ) -> SatResult {
        self.sat.solve_limited(assumptions, budget)
    }

    /// When the last assumption solve returned Unsat, the subset of
    /// assumption literals (negated) proven contradictory (see
    /// [`cgra_sat::Solver::unsat_core`]).
    pub fn unsat_core(&self) -> &[Lit] {
        self.sat.unsat_core()
    }

    /// Installs a cooperative cancellation flag (see
    /// [`cgra_sat::Solver::set_cancel_flag`]).
    pub fn set_cancel_flag(&mut self, flag: Arc<AtomicBool>) {
        self.sat.set_cancel_flag(flag);
    }

    /// The value of `v` in the current model.
    ///
    /// # Panics
    ///
    /// Panics if the last `solve` did not return Sat, or if the model is
    /// no longer current (e.g. clauses were added since).
    pub fn value(&self, v: IntVar) -> i64 {
        self.values[self.model_index(v)]
    }

    /// The index in `values`/`lits` of `v`'s value in the current model.
    fn model_index(&self, v: IntVar) -> usize {
        self.vars[v.index()]
            .range()
            .find(|&i| self.sat.lit_value(self.lits[i]).is_true())
            .unwrap_or_else(|| panic!("no model value for {v:?}: call solve() first"))
    }

    /// The truth value of a Boolean literal in the current model.
    pub fn bool_value(&self, l: Lit) -> bool {
        self.sat.lit_value(l).is_true()
    }

    /// Adds a blocking clause excluding the current assignment of `vars`,
    /// enabling solution enumeration over that projection.
    ///
    /// Must be called while a model is current; reads the model before
    /// modifying the clause database.
    pub fn block_current(&mut self, vars: &[IntVar]) {
        let mut clause = std::mem::take(&mut self.buf);
        clause.clear();
        clause.extend(vars.iter().map(|&v| !self.lits[self.model_index(v)]));
        self.sat.add_clause(clause.iter().copied());
        self.buf = clause;
    }

    /// Sizes of the current encoding.
    pub fn stats(&self) -> FdStats {
        FdStats {
            int_vars: self.vars.len(),
            sat_vars: self.sat.num_vars(),
            clauses: self.sat.num_clauses(),
        }
    }

    /// Borrows the underlying SAT solver (for advanced encodings).
    pub fn sat_mut(&mut self) -> &mut Solver {
        &mut self.sat
    }

    /// Borrows the underlying SAT solver immutably (stats inspection).
    pub fn sat(&self) -> &Solver {
        &self.sat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value_domain() {
        let mut fd = FdSolver::new();
        let x = fd.new_int([7]);
        assert_eq!(fd.solve(), SatResult::Sat);
        assert_eq!(fd.value(x), 7);
    }

    #[test]
    fn domains_are_sorted_and_deduped() {
        let mut fd = FdSolver::new();
        let x = fd.new_int([3, 1, 2, 3, 1]);
        assert_eq!(fd.domain(x), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "non-empty domain")]
    fn empty_domain_panics() {
        let mut fd = FdSolver::new();
        let _ = fd.new_int([]);
    }

    #[test]
    fn unary_constraint_prunes() {
        let mut fd = FdSolver::new();
        let x = fd.new_int(0..10);
        fd.require_unary(x, |v| v % 2 == 0 && v > 5);
        assert_eq!(fd.solve(), SatResult::Sat);
        let v = fd.value(x);
        assert!(v % 2 == 0 && v > 5);
    }

    #[test]
    fn unsat_unary() {
        let mut fd = FdSolver::new();
        let x = fd.new_int(0..5);
        fd.require_unary(x, |v| v > 10);
        assert_eq!(fd.solve(), SatResult::Unsat);
    }

    #[test]
    fn binary_ordering_chain() {
        // x0 < x1 < x2 < x3 over 0..4 forces the identity assignment.
        let mut fd = FdSolver::new();
        let xs: Vec<IntVar> = (0..4).map(|_| fd.new_int(0..4)).collect();
        for w in xs.windows(2) {
            fd.require_binary(w[0], w[1], |a, b| a < b);
        }
        assert_eq!(fd.solve(), SatResult::Sat);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(fd.value(x), i as i64);
        }
    }

    #[test]
    fn guarded_binary_constraint() {
        let mut fd = FdSolver::new();
        let g = fd.new_bool();
        let x = fd.new_int(0..3);
        let y = fd.new_int(0..3);
        fd.require_binary_if(g, x, y, |a, b| a == b);
        fd.require_binary(x, y, |a, b| a != b || a == 2);
        // With the guard on, x == y == 2 is the only option.
        fd.add_clause([g]);
        assert_eq!(fd.solve(), SatResult::Sat);
        assert_eq!(fd.value(x), 2);
        assert_eq!(fd.value(y), 2);
    }

    #[test]
    fn enumeration_counts_solutions() {
        // x + y == 3 over 0..=3 has exactly 4 solutions.
        let mut fd = FdSolver::new();
        let x = fd.new_int(0..=3);
        let y = fd.new_int(0..=3);
        fd.require_binary(x, y, |a, b| a + b == 3);
        let mut n = 0;
        while fd.solve() == SatResult::Sat {
            n += 1;
            assert!(n <= 4, "too many solutions");
            fd.block_current(&[x, y]);
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn or_and_lits() {
        let mut fd = FdSolver::new();
        let x = fd.new_int([0, 1]);
        let y = fd.new_int([0, 1]);
        let x1 = fd.eq_lit(x, 1).unwrap();
        let y1 = fd.eq_lit(y, 1).unwrap();
        let both = fd.and_lit(&[x1, y1]);
        let either = fd.or_lit(&[x1, y1]);
        fd.add_clause([either]);
        fd.add_clause([!both]);
        assert_eq!(fd.solve(), SatResult::Sat);
        assert_ne!(fd.value(x), fd.value(y));
    }

    #[test]
    fn cardinality_over_indicators() {
        // Five variables over 0..3; at most 2 may take the value 0.
        let mut fd = FdSolver::new();
        let xs: Vec<IntVar> = (0..5).map(|_| fd.new_int(0..3)).collect();
        let zeros: Vec<Lit> = xs.iter().map(|&x| fd.eq_lit(x, 0).unwrap()).collect();
        fd.at_most_k(&zeros, 2);
        // Force three of them to 0 => unsat.
        for &x in xs.iter().take(3) {
            fd.require_unary(x, |v| v == 0);
        }
        assert_eq!(fd.solve(), SatResult::Unsat);
    }

    #[test]
    fn eq_lit_for_out_of_domain_value() {
        let mut fd = FdSolver::new();
        let x = fd.new_int([1, 3, 5]);
        assert!(fd.eq_lit(x, 2).is_none());
        assert!(fd.eq_lit(x, 3).is_some());
    }

    #[test]
    fn guarded_int_behaves_like_plain_under_its_guard() {
        let mut fd = FdSolver::new();
        let g = fd.new_bool();
        let x = fd.new_int_guarded(0..3, g);
        fd.require_unary(x, |v| v == 2);
        // Guard off: x may take no value at all — satisfiable.
        assert_eq!(fd.solve_with_assumptions(&[!g]), SatResult::Sat);
        // Guard on: x must take a value, and only 2 remains.
        assert_eq!(fd.solve_with_assumptions(&[g]), SatResult::Sat);
        assert_eq!(fd.value(x), 2);
    }

    #[test]
    fn extend_int_widens_monotonically() {
        // Start with a window that is too tight, then widen it on the
        // same instance instead of rebuilding.
        let mut fd = FdSolver::new();
        let g0 = fd.new_bool();
        let x = fd.new_int_guarded(0..3, g0);
        let y = fd.new_int_guarded(0..3, g0);
        fd.require_binary(x, y, |a, b| b >= a + 3);
        assert_eq!(fd.solve_with_assumptions(&[g0]), SatResult::Unsat);
        assert!(fd.unsat_core().iter().all(|&l| l == !g0));
        // Widen y to 0..6 under a fresh guard; retire g0 permanently.
        let g1 = fd.new_bool();
        let old_len = fd.domain(y).len();
        assert_eq!(fd.extend_int(y, 3..6, g1), 3);
        fd.extend_int(x, std::iter::empty(), g1);
        fd.add_clause([!g0]);
        fd.require_binary_from(x, y, old_len, old_len, |a, b| b >= a + 3);
        assert_eq!(fd.domain(y), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(fd.solve_with_assumptions(&[g1]), SatResult::Sat);
        let (vx, vy) = (fd.value(x), fd.value(y));
        assert!(vy >= vx + 3, "x={vx} y={vy}");
    }

    #[test]
    fn extend_int_keeps_at_most_one() {
        let mut fd = FdSolver::new();
        let g0 = fd.new_bool();
        let x = fd.new_int_guarded([0, 1], g0);
        let g1 = fd.new_bool();
        fd.extend_int(x, [2, 3], g1);
        fd.add_clause([!g0]);
        // No pair of indicators may hold together, across old and new.
        let lits: Vec<Lit> = fd.indicator_lits(x).map(|(_, l)| l).collect();
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                assert_eq!(
                    fd.solve_with_assumptions(&[g1, lits[i], lits[j]]),
                    SatResult::Unsat,
                    "values {i} and {j} held together"
                );
            }
        }
        // Every single value is still reachable.
        for (val, l) in fd.indicator_lits(x).collect::<Vec<_>>() {
            assert_eq!(fd.solve_with_assumptions(&[g1, l]), SatResult::Sat);
            assert_eq!(fd.value(x), val);
        }
    }

    #[test]
    #[should_panic(expected = "strictly above")]
    fn extend_int_rejects_non_appending_values() {
        let mut fd = FdSolver::new();
        let g = fd.new_bool();
        let x = fd.new_int_guarded(0..3, g);
        fd.extend_int(x, [2, 5], g);
    }

    #[test]
    fn require_binary_from_adds_exactly_the_delta() {
        // Full-domain require_binary on one solver vs incremental
        // base + delta on another must accept/reject the same pairs.
        let reference = {
            let mut fd = FdSolver::new();
            let x = fd.new_int(0..5);
            let y = fd.new_int(0..5);
            fd.require_binary(x, y, |a, b| a + b != 4);
            let mut pairs = Vec::new();
            while fd.solve() == SatResult::Sat {
                pairs.push((fd.value(x), fd.value(y)));
                fd.block_current(&[x, y]);
            }
            pairs.sort_unstable();
            pairs
        };
        let incremental = {
            let mut fd = FdSolver::new();
            let g0 = fd.new_bool();
            let x = fd.new_int_guarded(0..3, g0);
            let y = fd.new_int_guarded(0..3, g0);
            fd.require_binary(x, y, |a, b| a + b != 4);
            let g1 = fd.new_bool();
            fd.extend_int(x, 3..5, g1);
            fd.extend_int(y, 3..5, g1);
            fd.add_clause([!g0]);
            fd.require_binary_from(x, y, 3, 3, |a, b| a + b != 4);
            let mut pairs = Vec::new();
            while fd.solve_with_assumptions(&[g1]) == SatResult::Sat {
                pairs.push((fd.value(x), fd.value(y)));
                fd.block_current(&[x, y]);
            }
            pairs.sort_unstable();
            pairs
        };
        assert_eq!(reference, incremental);
    }

    #[test]
    fn assumption_budget_reports_unknown() {
        let mut fd = FdSolver::new();
        let g = fd.new_bool();
        let xs: Vec<IntVar> = (0..6).map(|_| fd.new_int_guarded(0..5, g)).collect();
        for i in 0..xs.len() {
            for j in (i + 1)..xs.len() {
                fd.require_binary(xs[i], xs[j], |a, b| a != b);
            }
        }
        let r = fd.solve_with_assumptions_limited(&[g], &Budget::conflicts(0));
        assert_eq!(r, SatResult::Unknown);
        // The same instance still resolves once given room.
        assert_eq!(fd.solve_with_assumptions(&[g]), SatResult::Unsat);
    }

    /// A small scheduling-like formula: ordered variables over
    /// overlapping windows, widened once, and a cardinality row.
    /// Returns its stats and every solution in enumeration order.
    fn enumerate_small_formula(fd: &mut FdSolver) -> (FdStats, Vec<Vec<i64>>) {
        let xs: Vec<IntVar> = (0..5).map(|i| fd.new_int(i..i + 4)).collect();
        for w in xs.windows(2) {
            fd.require_binary(w[0], w[1], |a, b| b > a);
        }
        let g = fd.new_bool();
        let y = fd.new_int_guarded([1, 3], g);
        fd.extend_int(y, [5, 7], g);
        fd.require_binary_if(g, xs[0], y, |a, b| b >= a);
        let ones: Vec<Lit> = xs.iter().filter_map(|&x| fd.eq_lit(x, 4)).collect();
        fd.at_most_k(&ones, 1);
        let either = fd.or_lit(&ones);
        fd.add_clause([either, g]);
        let stats = fd.stats();
        let mut all = xs.clone();
        all.push(y);
        let mut solutions = Vec::new();
        while fd.solve_with_assumptions(&[g]) == SatResult::Sat {
            solutions.push(all.iter().map(|&v| fd.value(v)).collect());
            fd.block_current(&all);
        }
        (stats, solutions)
    }

    #[test]
    fn a_cleared_solver_encodes_and_enumerates_as_a_new_one() {
        let reference = enumerate_small_formula(&mut FdSolver::new());
        assert!(reference.1.len() > 1);
        let mut fd = FdSolver::new();
        // Dirty the store: an Unsat formula with a raised cancel flag,
        // then a Sat one with a model left on the trail.
        let x = fd.new_int(0..6);
        let y = fd.new_int(0..6);
        fd.require_binary(x, y, |a, b| a + b == 20);
        assert_eq!(fd.solve(), SatResult::Unsat);
        fd.set_cancel_flag(Arc::new(AtomicBool::new(true)));
        fd.clear();
        enumerate_small_formula(&mut fd);
        let z = fd.new_int(0..3);
        assert_eq!(fd.solve(), SatResult::Sat);
        let _ = fd.value(z);
        for _ in 0..2 {
            fd.clear();
            assert_eq!(enumerate_small_formula(&mut fd), reference);
        }
    }

    #[test]
    fn stats_report_sizes() {
        let mut fd = FdSolver::new();
        let _ = fd.new_int(0..8);
        let s = fd.stats();
        assert_eq!(s.int_vars, 1);
        assert!(s.sat_vars >= 8);
        assert!(s.clauses > 0);
    }
}
