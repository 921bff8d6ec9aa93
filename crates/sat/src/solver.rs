//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The implementation follows the MiniSat lineage: two-watched-literal
//! propagation, first-UIP conflict analysis with local clause
//! minimisation, VSIDS branching with phase saving, Luby restarts and
//! activity-based learnt-clause database reduction. It supports
//! incremental use (adding clauses between `solve` calls) and solving
//! under assumptions.

use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use cgra_base::{Budget, CancelFlag};

use crate::luby::luby;
use crate::types::{LBool, Lit, SatResult, Var};

/// Reference to a clause: the index of its header. References stay
/// valid for the solver's lifetime (until [`Solver::clear`]); compacting
/// the literal arena moves literals, never headers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ClauseRef(u32);

/// Where a clause's literals live in the arena, and its bookkeeping.
#[derive(Clone, Copy, Debug)]
struct Clause {
    start: u32,
    len: u32,
    activity: f32,
    learnt: bool,
    deleted: bool,
}

impl Clause {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: ClauseRef,
    /// A literal of the clause other than the watched one; if it is
    /// already true the clause is satisfied and the watch scan can skip
    /// the clause without touching its memory.
    blocker: Lit,
}

/// Counters describing the work performed by the solver so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts analysed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of times the clause arena was compacted.
    pub compactions: u64,
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} conflicts={} restarts={} learnt={} deleted={} compactions={}",
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.learnt_clauses,
            self.deleted_clauses,
            self.compactions
        )
    }
}

/// A CDCL SAT solver over clauses of [`Lit`]s.
///
/// Resource limits for a single `solve_limited` call come from the
/// workspace-wide [`Budget`]; when a limit is hit the solver returns
/// [`SatResult::Unknown`].
///
/// # Incremental solving
///
/// A solver instance is designed to be kept alive across many solve
/// calls:
///
/// * **Variables and clauses may be added after a solve.** Both
///   [`Solver::new_var`] and [`Solver::add_clause`] are valid at any
///   point; `add_clause` drops any model left on the trail by a prior
///   `Sat` answer and simplifies the clause against the level-zero
///   assignment before attaching it. Additions are monotone: they can
///   only shrink the model set, never invalidate learnt clauses.
/// * **Learnt clauses and branching state persist.** Clauses learnt by
///   conflict analysis, VSIDS activities and saved phases all survive
///   into subsequent [`Solver::solve`]/[`Solver::solve_with_assumptions`]
///   calls, so re-solving a grown formula resumes from everything the
///   previous search discovered instead of starting cold.
///   [`Solver::num_learnts`] reports the live learnt-clause count so
///   callers can observe how much state is being carried over.
/// * **Assumptions are per-call.** `solve_with_assumptions` treats its
///   literals as temporary pseudo-decisions; nothing about them is
///   baked into the clause database. Encoding retractable facts as
///   guard literals and flipping which guards are assumed is therefore
///   the idiomatic way to move between related problems on one
///   instance. On `Unsat`, [`Solver::unsat_core`] identifies the
///   assumptions actually responsible, which lets a caller distinguish
///   "the guarded facts are contradictory" from "the base formula is".
///
/// # Examples
///
/// ```
/// use cgra_sat::{Solver, SatResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause([a.pos(), b.pos()]);
/// solver.add_clause([a.neg()]);
/// assert_eq!(solver.solve(), SatResult::Sat);
/// assert!(solver.value(b).is_true());
/// ```
pub struct Solver {
    /// Clause headers, indexed by [`ClauseRef`], in creation order.
    clauses: Vec<Clause>,
    /// Every clause's literals, back to back in clause order.
    arena: Vec<Lit>,
    /// Arena literals that belong to deleted clauses; the arena is
    /// compacted once they are more than half of it.
    dead_lits: usize,
    /// Indexed by literal code: clauses in which that literal is watched.
    /// May be longer than `2 * num_vars()` after [`Solver::clear`]; the
    /// lists past the live variables are empty and kept for reuse.
    watches: Vec<Vec<Watcher>>,
    /// Variable assignment values.
    assigns: Vec<LBool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause that implied each variable (None for decisions).
    reason: Vec<Option<ClauseRef>>,
    /// Assignment trail in chronological order.
    trail: Vec<Lit>,
    /// Trail indices at which each decision level starts.
    trail_lim: Vec<usize>,
    /// Head of the propagation queue within the trail.
    qhead: usize,

    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    var_decay: f64,
    /// Binary max-heap of unassigned variables ordered by activity.
    heap: Vec<Var>,
    heap_index: Vec<i32>,

    /// Saved phases for phase-saving.
    polarity: Vec<bool>,

    cla_inc: f32,

    /// False once an empty clause has been derived at level zero.
    ok: bool,

    /// Scratch flags used by conflict analysis.
    seen: Vec<bool>,

    /// Final conflict clause over the assumptions, in terms of the failed
    /// assumption literals (all negated), when `solve_with_assumptions`
    /// returns Unsat.
    conflict: Vec<Lit>,

    stats: SolverStats,
    cancel: Option<CancelFlag>,

    learnt_cap: usize,

    // Scratch buffers, reused across calls so that steady-state clause
    // addition and conflict analysis do not allocate.
    /// `add_clause`'s input, simplified in place.
    add_buf: Vec<Lit>,
    /// The clause being learnt by `analyze`.
    learnt: Vec<Lit>,
    /// `analyze`'s literals before minimisation, whose seen flags are
    /// cleared afterwards.
    to_clear: Vec<Lit>,
    /// `reduce_db`'s learnt clauses by activity.
    reduce_buf: Vec<(f32, u32)>,
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("num_vars", &self.num_vars())
            .field("num_clauses", &self.clauses.len())
            .field("ok", &self.ok)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables and no clauses.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            arena: Vec::new(),
            dead_lits: 0,
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            var_decay: 0.95,
            heap: Vec::new(),
            heap_index: Vec::new(),
            polarity: Vec::new(),
            cla_inc: 1.0,
            ok: true,
            seen: Vec::new(),
            conflict: Vec::new(),
            stats: SolverStats::default(),
            cancel: None,
            learnt_cap: 4000,
            add_buf: Vec::new(),
            learnt: Vec::new(),
            to_clear: Vec::new(),
            reduce_buf: Vec::new(),
        }
    }

    /// Returns the solver to the state of [`Solver::new`] — no
    /// variables, no clauses, no learnt state, statistics zeroed, no
    /// cancellation flag — while keeping the capacity of every buffer,
    /// so a formula of similar size can be encoded again without
    /// allocating.
    pub fn clear(&mut self) {
        let live_watches = 2 * self.num_vars();
        for ws in &mut self.watches[..live_watches] {
            ws.clear();
        }
        self.clauses.clear();
        self.arena.clear();
        self.dead_lits = 0;
        self.assigns.clear();
        self.level.clear();
        self.reason.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.activity.clear();
        self.var_inc = 1.0;
        self.var_decay = 0.95;
        self.heap.clear();
        self.heap_index.clear();
        self.polarity.clear();
        self.cla_inc = 1.0;
        self.ok = true;
        self.seen.clear();
        self.conflict.clear();
        self.stats = SolverStats::default();
        self.cancel = None;
        self.learnt_cap = 4000;
        self.add_buf.clear();
        self.learnt.clear();
        self.to_clear.clear();
        self.reduce_buf.clear();
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses currently alive (problem + learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// Work counters accumulated over the lifetime of the solver.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of learnt clauses currently alive in the database (net of
    /// reduction), i.e. the search state retained for the next
    /// incremental solve call.
    pub fn num_learnts(&self) -> usize {
        self.stats.learnt_clauses as usize
    }

    /// Installs a cooperative cancellation flag.
    ///
    /// When the flag becomes `true`, the current and subsequent `solve`
    /// calls return [`SatResult::Unknown`] at the next restart check.
    pub fn set_cancel_flag(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = Some(CancelFlag::from_arc(flag));
    }

    /// Creates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.heap_index.push(-1);
        // Lists past the live variables are empty (see `clear`).
        if self.watches.len() < 2 * self.assigns.len() {
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
        }
        self.heap_insert(v);
        v
    }

    /// Creates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Current value of a variable (meaningful after a Sat answer, or for
    /// level-zero implied variables at any time).
    pub fn value(&self, v: Var) -> LBool {
        self.assigns[v.index()]
    }

    /// Current value of a literal.
    pub fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].under_sign(l.is_positive())
    }

    /// The satisfying assignment as a vector of `bool` indexed by
    /// variable, valid after [`SatResult::Sat`].
    ///
    /// Unassigned variables (possible when they occur in no clause) are
    /// reported as `false`.
    pub fn model(&self) -> Vec<bool> {
        self.assigns.iter().map(|v| v.is_true()).collect()
    }

    /// When `solve_with_assumptions` returned Unsat, the subset of
    /// assumption literals (negated) proven contradictory — an
    /// unsatisfiable core over the assumptions.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver is already in an unsatisfiable state
    /// (including via this clause being empty after simplification).
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that was not created by
    /// this solver.
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        let mut ps = std::mem::take(&mut self.add_buf);
        ps.clear();
        ps.extend(lits);
        for l in &ps {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l:?} refers to an unknown variable"
            );
        }
        let ok = self.add_simplified(&mut ps);
        self.add_buf = ps;
        ok
    }

    /// `add_clause` after the variable check, simplifying `ps` in place.
    fn add_simplified(&mut self, ps: &mut Vec<Lit>) -> bool {
        if !self.ok {
            return false;
        }
        // Incremental use: drop any model left on the trail by a previous
        // Sat answer before touching the clause database.
        self.cancel_until(0);

        // Simplify: sort, drop duplicates, drop false literals, detect
        // tautologies and satisfied clauses. Kept literals move down to
        // `kept`, never past the unread `ps[i + 1]`.
        ps.sort_unstable();
        ps.dedup();
        let mut kept = 0;
        for i in 0..ps.len() {
            let l = ps[i];
            if i + 1 < ps.len() && ps[i + 1] == !l {
                return true; // tautology: l and !l both present
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop
                LBool::Undef => {
                    ps[kept] = l;
                    kept += 1;
                }
            }
        }
        ps.truncate(kept);

        match ps.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(ps[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(ps, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = ClauseRef(self.clauses.len() as u32);
        let w0 = Watcher {
            clause: cref,
            blocker: lits[1],
        };
        let w1 = Watcher {
            clause: cref,
            blocker: lits[0],
        };
        self.watches[lits[0].code()].push(w0);
        self.watches[lits[1].code()].push(w1);
        if learnt {
            self.stats.learnt_clauses += 1;
        }
        self.clauses.push(Clause {
            start: self.arena.len() as u32,
            len: lits.len() as u32,
            activity: 0.0,
            learnt,
            deleted: false,
        });
        self.arena.extend_from_slice(lits);
        cref
    }

    /// The first literal of a clause (the implied one, for a reason).
    fn first_lit(&self, c: ClauseRef) -> Lit {
        self.arena[self.clauses[c.0 as usize].start as usize]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l).is_undef());
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Two-watched-literal Boolean constraint propagation.
    ///
    /// Returns the conflicting clause if a conflict is found.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let not_p = !p;
            // Visit clauses watching !p (they may have just become unit
            // or conflicting).
            let mut ws = std::mem::take(&mut self.watches[not_p.code()]);
            let mut kept = 0;
            let mut idx = 0;
            'watches: while idx < ws.len() {
                let w = ws[idx];
                idx += 1;
                // Blocker fast path.
                if self.lit_value(w.blocker).is_true() {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let clause = self.clauses[w.clause.0 as usize];
                if clause.deleted {
                    continue; // drop the watcher entirely
                }
                let (start, end) = (clause.start as usize, (clause.start + clause.len) as usize);
                // Normalise: watched literals live at positions 0 and 1;
                // put !p at position 1.
                if self.arena[start] == not_p {
                    self.arena.swap(start, start + 1);
                }
                debug_assert_eq!(self.arena[start + 1], not_p);
                let first = self.arena[start];
                let new_watcher = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && self.lit_value(first).is_true() {
                    ws[kept] = new_watcher;
                    kept += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in start + 2..end {
                    let lk = self.arena[k];
                    if !self.lit_value(lk).is_false() {
                        self.arena.swap(start + 1, k);
                        self.watches[lk.code()].push(new_watcher);
                        continue 'watches;
                    }
                }
                // No replacement: clause is unit or conflicting.
                ws[kept] = new_watcher;
                kept += 1;
                if self.lit_value(first).is_false() {
                    // Conflict: keep remaining watchers and stop.
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    while idx < ws.len() {
                        ws[kept] = ws[idx];
                        kept += 1;
                        idx += 1;
                    }
                } else {
                    self.unchecked_enqueue(first, Some(w.clause));
                }
            }
            ws.truncate(kept);
            debug_assert!(self.watches[not_p.code()].is_empty());
            self.watches[not_p.code()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.assigns[v.index()] = LBool::Undef;
            self.polarity[v.index()] = l.is_positive();
            self.reason[v.index()] = None;
            self.heap_insert(v);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    // ----- VSIDS heap -------------------------------------------------

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        if self.heap_index[v.index()] >= 0 {
            return;
        }
        self.heap.push(v);
        self.heap_index[v.index()] = (self.heap.len() - 1) as i32;
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_index[self.heap[i].index()] = i as i32;
        self.heap_index[self.heap[j].index()] = j as i32;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.len() - 1;
        self.heap_swap(0, last);
        self.heap.pop();
        self.heap_index[top.index()] = -1;
        if !self.heap.is_empty() {
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let hi = self.heap_index[v.index()];
        if hi >= 0 {
            self.heap_sift_up(hi as usize);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.var_decay;
        self.cla_inc /= 0.999;
    }

    fn bump_clause(&mut self, c: ClauseRef) {
        let cl = &mut self.clauses[c.0 as usize];
        cl.activity += self.cla_inc;
        if cl.activity > 1e20 {
            for cl in self.clauses.iter_mut().filter(|c| c.learnt) {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    // ----- conflict analysis -------------------------------------------

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `self.learnt` and returns the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit(0)); // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut index = self.trail.len();
        let current = self.decision_level();

        loop {
            if self.clauses[confl.0 as usize].learnt {
                self.bump_clause(confl);
            }
            let range = self.clauses[confl.0 as usize].range();
            let skip = if p.is_some() { 1 } else { 0 };
            for k in range.start + skip..range.end {
                let q = self.arena[k];
                let qv = q.var();
                if !self.seen[qv.index()] && self.level[qv.index()] > 0 {
                    self.seen[qv.index()] = true;
                    self.bump_var(qv);
                    if self.level[qv.index()] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal of the current level to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pv = self.trail[index];
            self.seen[pv.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pv;
                break;
            }
            p = Some(pv);
            confl = self.reason[pv.var().index()].expect("non-decision must have a reason");
        }

        // Local minimisation: a non-asserting literal is redundant if its
        // reason clause lies entirely within the learnt clause's seen set.
        // The seen set is the unminimised clause throughout, so its flags
        // are cleared from a copy afterwards.
        self.to_clear.clear();
        self.to_clear.extend_from_slice(&learnt);
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let redundant = self.reason[l.var().index()].is_some_and(|r| {
                let range = self.clauses[r.0 as usize].range();
                self.arena[range.start + 1..range.end]
                    .iter()
                    .all(|q| self.seen[q.var().index()] || self.level[q.var().index()] == 0)
            });
            if !redundant {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        let minimized = &mut learnt;
        for l in &self.to_clear {
            self.seen[l.var().index()] = false;
        }

        // Compute the backtrack level and put a literal of that level at
        // index 1 (it becomes the second watch).
        let bt = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };
        self.learnt = learnt;
        bt
    }

    /// Builds the final conflict over assumptions: the set of assumption
    /// literals whose negations imply the conflict literal `p`.
    fn analyze_final(&mut self, p: Lit) {
        self.conflict.clear();
        self.conflict.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                None => {
                    // A decision, i.e. an assumption.
                    self.conflict.push(!self.trail[i]);
                }
                Some(r) => {
                    let range = self.clauses[r.0 as usize].range();
                    for k in range.start + 1..range.end {
                        let q = self.arena[k];
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    // ----- learnt DB reduction ------------------------------------------

    fn reduce_db(&mut self) {
        let mut learnts = std::mem::take(&mut self.reduce_buf);
        learnts.clear();
        learnts.extend(
            self.clauses
                .iter()
                .enumerate()
                .filter(|(_, c)| c.learnt && !c.deleted && c.len > 2)
                .map(|(i, c)| (c.activity, i as u32)),
        );
        // By activity, ties in clause order (what a stable sort on
        // activity gives, without its buffer).
        learnts.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let target = learnts.len() / 2;
        let mut removed = 0;
        for &(_, i) in &learnts {
            if removed >= target {
                break;
            }
            let cref = ClauseRef(i);
            let first = self.first_lit(cref);
            let locked =
                self.reason[first.var().index()] == Some(cref) && !self.lit_value(first).is_undef();
            if locked {
                continue;
            }
            let clause = &mut self.clauses[i as usize];
            clause.deleted = true;
            self.dead_lits += clause.len as usize;
            removed += 1;
        }
        self.reduce_buf = learnts;
        self.stats.deleted_clauses += removed as u64;
        self.stats.learnt_clauses -= removed as u64;
        // Watch lists lazily drop deleted clauses during propagation, but
        // sweep them here so memory does not accumulate.
        let live_watches = 2 * self.num_vars();
        for ws in &mut self.watches[..live_watches] {
            ws.retain(|w| !self.clauses[w.clause.0 as usize].deleted);
        }
        if 2 * self.dead_lits > self.arena.len() {
            self.compact_arena();
        }
    }

    /// Drops deleted clauses' literals from the arena, moving the live
    /// ones down in clause order. Headers (and so every `ClauseRef`)
    /// stay where they are; a deleted header keeps no literals.
    fn compact_arena(&mut self) {
        let mut write = 0usize;
        for clause in &mut self.clauses {
            if clause.deleted {
                clause.start = write as u32;
                clause.len = 0;
                continue;
            }
            let range = clause.range();
            self.arena.copy_within(range.clone(), write);
            clause.start = write as u32;
            write += range.len();
        }
        self.arena.truncate(write);
        self.dead_lits = 0;
        self.stats.compactions += 1;
    }

    // ----- search --------------------------------------------------------

    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }

    fn search(&mut self, conflict_budget: u64, assumptions: &[Lit]) -> SatResult {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let bt = self.analyze(confl);
                // Backjump; if this undoes assumption levels the decide
                // loop below re-establishes them.
                self.cancel_until(bt);
                let learnt = std::mem::take(&mut self.learnt);
                if learnt.len() == 1 {
                    debug_assert_eq!(self.decision_level(), 0);
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let cref = self.attach_clause(&learnt, true);
                    self.bump_clause(cref);
                    let first = self.first_lit(cref);
                    debug_assert!(self.lit_value(first).is_undef());
                    self.unchecked_enqueue(first, Some(cref));
                }
                self.learnt = learnt;
                self.decay_activities();
            } else {
                // Budget and cancellation are checked at every decision
                // point so external timeouts stay responsive even on
                // propagation-heavy instances.
                if conflicts_here >= conflict_budget || self.cancelled() {
                    self.cancel_until(0);
                    return SatResult::Unknown;
                }
                if self.stats.learnt_clauses as usize > self.learnt_cap {
                    self.reduce_db();
                    self.learnt_cap += self.learnt_cap / 10;
                }
                // Decide: assumptions first, then VSIDS.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already satisfied: open an empty level so the
                            // index keeps advancing.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final(!a);
                            return SatResult::Unsat;
                        }
                        LBool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(l) => Some(l),
                    None => loop {
                        match self.heap_pop() {
                            None => break None,
                            Some(v) => {
                                if self.assigns[v.index()].is_undef() {
                                    break Some(v.lit(self.polarity[v.index()]));
                                }
                            }
                        }
                    },
                };
                match decision {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Decides satisfiability of the clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_limited(&[], &Budget::unlimited())
    }

    /// Decides satisfiability under the given assumption literals.
    ///
    /// On [`SatResult::Unsat`], [`Solver::unsat_core`] holds a subset of
    /// the assumptions (negated) that is already contradictory.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_limited(assumptions, &Budget::unlimited())
    }

    /// Decides satisfiability under assumptions and resource limits.
    pub fn solve_limited(&mut self, assumptions: &[Lit], budget: &Budget) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.conflict.clear();
        self.cancel_until(0);
        let start_conflicts = self.stats.conflicts;
        let start_props = self.stats.propagations;
        let mut restart = 1u64;
        loop {
            if self.cancelled() {
                self.cancel_until(0);
                return SatResult::Unknown;
            }
            if let Some(mc) = budget.max_conflicts {
                if self.stats.conflicts - start_conflicts >= mc {
                    self.cancel_until(0);
                    return SatResult::Unknown;
                }
            }
            if let Some(mp) = budget.max_propagations {
                if self.stats.propagations - start_props >= mp {
                    self.cancel_until(0);
                    return SatResult::Unknown;
                }
            }
            let budget_here = luby(restart) * 100;
            match self.search(budget_here, assumptions) {
                SatResult::Unknown => {
                    self.stats.restarts += 1;
                    restart += 1;
                    // Distinguish a restart from an external cancellation.
                    if self.cancelled() {
                        return SatResult::Unknown;
                    }
                }
                SatResult::Sat => {
                    // Model stays on the trail; caller reads it, then we
                    // clean up lazily at the start of the next solve.
                    return SatResult::Sat;
                }
                SatResult::Unsat => {
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
            }
        }
    }

    /// True if the solver has already derived a top-level contradiction.
    pub fn is_ok(&self) -> bool {
        self.ok
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)]
    use super::*;

    fn lits_of(solver: &mut Solver, n: usize) -> Vec<Var> {
        solver.new_vars(n)
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits_of(&mut s, 2);
        s.add_clause([v[0].pos(), v[1].pos()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.lit_value(v[0].pos()).is_true() || s.lit_value(v[1].pos()).is_true());
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([v.pos()]);
        s.add_clause([v.neg()]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([v.pos(), v.neg()]));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits_of(&mut s, 5);
        for i in 0..4 {
            s.add_clause([v[i].neg(), v[i + 1].pos()]);
        }
        s.add_clause([v[0].pos()]);
        assert_eq!(s.solve(), SatResult::Sat);
        for x in &v {
            assert!(s.value(*x).is_true());
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: classic small UNSAT instance that requires
        // real conflict analysis.
        let mut s = Solver::new();
        let mut x = [[Var(0); 2]; 3];
        #[allow(clippy::needless_range_loop)]
        for p in 0..3 {
            for h in 0..2 {
                x[p][h] = s.new_var();
            }
        }
        for p in 0..3 {
            s.add_clause([x[p][0].pos(), x[p][1].pos()]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    s.add_clause([x[p1][h].neg(), x[p2][h].neg()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5;
        let m = 4;
        let mut s = Solver::new();
        let x: Vec<Vec<Var>> = (0..n).map(|_| s.new_vars(m)).collect();
        for row in x.iter().take(n) {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..m {
            for p1 in 0..n {
                for p2 in (p1 + 1)..n {
                    s.add_clause([x[p1][h].neg(), x[p2][h].neg()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn graph_coloring_sat() {
        // A 5-cycle is 3-colourable but not 2-colourable.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        for (colors, expect) in [(2usize, SatResult::Unsat), (3usize, SatResult::Sat)] {
            let mut s = Solver::new();
            let x: Vec<Vec<Var>> = (0..5).map(|_| s.new_vars(colors)).collect();
            for row in &x {
                s.add_clause(row.iter().map(|v| v.pos()));
                for c1 in 0..colors {
                    for c2 in (c1 + 1)..colors {
                        s.add_clause([row[c1].neg(), row[c2].neg()]);
                    }
                }
            }
            for &(a, b) in &edges {
                for c in 0..colors {
                    s.add_clause([x[a][c].neg(), x[b][c].neg()]);
                }
            }
            assert_eq!(s.solve(), expect, "colors={colors}");
        }
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.neg(), b.pos()]);
        assert_eq!(s.solve_with_assumptions(&[a.pos()]), SatResult::Sat);
        assert!(s.value(b).is_true());
        assert_eq!(
            s.solve_with_assumptions(&[a.pos(), b.neg()]),
            SatResult::Unsat
        );
        // Solver remains usable and satisfiable without assumptions.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn unsat_core_contains_culprits() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause([a.neg(), b.neg()]);
        let r = s.solve_with_assumptions(&[a.pos(), b.pos(), c.pos()]);
        assert_eq!(r, SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        // The core mentions only a and b, never c.
        assert!(core.iter().all(|l| l.var() == a || l.var() == b));
    }

    #[test]
    fn incremental_blocking_enumeration() {
        // Enumerate all 4 models over two free variables.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.pos(), a.neg()]); // mention vars so they are decided
        s.add_clause([b.pos(), b.neg()]);
        let mut count = 0;
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 4, "more models than the space allows");
            let block: Vec<Lit> = [a, b]
                .iter()
                .map(|&v| {
                    if s.value(v).is_true() {
                        v.neg()
                    } else {
                        v.pos()
                    }
                })
                .collect();
            s.add_clause(block);
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // A hard pigeonhole instance with a tiny conflict budget.
        let n = 9;
        let m = 8;
        let mut s = Solver::new();
        let x: Vec<Vec<Var>> = (0..n).map(|_| s.new_vars(m)).collect();
        for row in x.iter() {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..m {
            for p1 in 0..n {
                for p2 in (p1 + 1)..n {
                    s.add_clause([x[p1][h].neg(), x[p2][h].neg()]);
                }
            }
        }
        let r = s.solve_limited(&[], &Budget::conflicts(5));
        assert_eq!(r, SatResult::Unknown);
    }

    #[test]
    fn cancel_flag_stops_search() {
        let mut s = Solver::new();
        let flag = Arc::new(AtomicBool::new(true));
        s.set_cancel_flag(flag);
        let v = s.new_var();
        s.add_clause([v.pos()]);
        assert_eq!(s.solve(), SatResult::Unknown);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = lits_of(&mut s, 20);
        for i in 0..19 {
            s.add_clause([v[i].neg(), v[i + 1].pos()]);
        }
        s.add_clause([v[0].pos()]);
        s.solve();
        assert!(s.stats().propagations > 0);
    }

    #[test]
    fn duplicate_literals_are_deduped() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([v.pos(), v.pos(), v.pos()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.value(v).is_true());
    }

    #[test]
    fn vars_and_clauses_can_grow_after_a_solve() {
        // The incremental contract: new variables and clauses are valid
        // after Sat and after assumption-Unsat answers, and constrain
        // subsequent solves.
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([a.pos()]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Grow after Sat.
        let b = s.new_var();
        s.add_clause([a.neg(), b.pos()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.value(b).is_true());
        // Unsat under assumptions, then grow again.
        assert_eq!(s.solve_with_assumptions(&[b.neg()]), SatResult::Unsat);
        let c = s.new_var();
        s.add_clause([b.neg(), c.pos()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.value(c).is_true());
    }

    #[test]
    fn learnt_clauses_survive_assumption_solves() {
        // A pigeonhole sub-problem guarded by an assumption literal: the
        // first (Unsat) solve learns clauses, and the learnt database is
        // still there for the next call on the same instance.
        let n = 6;
        let m = 5;
        let mut s = Solver::new();
        let g = s.new_var();
        let x: Vec<Vec<Var>> = (0..n).map(|_| s.new_vars(m)).collect();
        for row in &x {
            let mut cl: Vec<Lit> = vec![g.neg()];
            cl.extend(row.iter().map(|v| v.pos()));
            s.add_clause(cl);
        }
        for h in 0..m {
            for p1 in 0..n {
                for p2 in (p1 + 1)..n {
                    s.add_clause([x[p1][h].neg(), x[p2][h].neg()]);
                }
            }
        }
        assert_eq!(s.solve_with_assumptions(&[g.pos()]), SatResult::Unsat);
        let learnt_after_first = s.num_learnts();
        assert!(learnt_after_first > 0, "hard Unsat must learn clauses");
        // Without the guard the formula is Sat; the learnt clauses are
        // retained (they are consequences, so they stay sound).
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.num_learnts() >= learnt_after_first);
    }

    #[test]
    fn unsat_core_tracks_assumption_flips() {
        // Two independent guard groups; the core must name exactly the
        // guards responsible under each assumption set on one instance.
        let mut s = Solver::new();
        let g1 = s.new_var();
        let g2 = s.new_var();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([g1.neg(), a.pos()]);
        s.add_clause([g1.neg(), a.neg()]); // g1 alone is contradictory
        s.add_clause([g2.neg(), b.pos()]);
        assert_eq!(
            s.solve_with_assumptions(&[g1.pos(), g2.pos()]),
            SatResult::Unsat
        );
        let core: Vec<Lit> = s.unsat_core().to_vec();
        assert!(core.iter().all(|l| l.var() == g1), "core={core:?}");
        // Flip to the innocent guard only: satisfiable.
        assert_eq!(s.solve_with_assumptions(&[g2.pos()]), SatResult::Sat);
        assert!(s.value(b).is_true());
        // Back to the guilty guard: Unsat again with the same culprit.
        assert_eq!(s.solve_with_assumptions(&[g1.pos()]), SatResult::Unsat);
        assert!(s.unsat_core().iter().all(|l| l.var() == g1));
    }

    /// A seeded xorshift stream for the random-formula tests.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Random 3-SAT over `nvars` variables at the satisfiability
    /// threshold (4.26 clauses per variable): about half the instances
    /// are Sat.
    fn threshold_3sat(next: &mut impl FnMut() -> u64, nvars: usize) -> Vec<Vec<Lit>> {
        let nclauses = nvars * 426 / 100;
        (0..nclauses)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let v = Var::from_index((next() % nvars as u64) as usize);
                        v.lit(next() & 1 == 1)
                    })
                    .collect()
            })
            .collect()
    }

    fn satisfies(clauses: &[Vec<Lit>], model: &[bool]) -> bool {
        clauses
            .iter()
            .all(|c| c.iter().any(|l| model[l.var().index()] == l.is_positive()))
    }

    /// Decides `clauses` by trying every assignment.
    fn brute_force(clauses: &[Vec<Lit>], nvars: usize) -> bool {
        let mut model = vec![false; nvars];
        (0u32..1 << nvars).any(|bits| {
            for (i, m) in model.iter_mut().enumerate() {
                *m = bits >> i & 1 == 1;
            }
            satisfies(clauses, &model)
        })
    }

    fn load(s: &mut Solver, clauses: &[Vec<Lit>], nvars: usize) {
        s.new_vars(nvars);
        for c in clauses {
            s.add_clause(c.iter().copied());
        }
    }

    /// Pigeonhole: `pigeons` into `holes`, Sat iff `pigeons <= holes`.
    fn pigeonhole(pigeons: usize, holes: usize) -> Vec<Vec<Lit>> {
        let x = |p: usize, h: usize| Var::from_index(p * holes + h);
        let mut clauses: Vec<Vec<Lit>> = (0..pigeons)
            .map(|p| (0..holes).map(|h| x(p, h).pos()).collect())
            .collect();
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    clauses.push(vec![x(p1, h).neg(), x(p2, h).neg()]);
                }
            }
        }
        clauses
    }

    #[test]
    fn learnt_clause_reduction_and_arena_compaction_keep_answers_exact() {
        // A learnt-clause cap of 2 makes `reduce_db` run every few
        // conflicts, so deleted clauses pile up in the arena and it is
        // compacted mid-search; every answer must still be the known
        // one, and every model must satisfy the formula.
        let mut compactions = 0;
        for (pigeons, holes) in [(5, 4), (6, 5), (7, 6), (6, 6), (7, 7)] {
            let clauses = pigeonhole(pigeons, holes);
            let mut s = Solver::new();
            s.learnt_cap = 2;
            load(&mut s, &clauses, pigeons * holes);
            let result = s.solve();
            assert_eq!(result.is_sat(), pigeons <= holes, "{pigeons} into {holes}");
            if result.is_sat() {
                assert!(satisfies(&clauses, &s.model()));
            }
            compactions += s.stats().compactions;
        }
        assert!(compactions > 0, "the arena was never compacted");

        // Random 3-SAT at the threshold, checked against brute force.
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let (mut sat, mut unsat, mut deleted) = (0, 0, 0);
        for trial in 0..40 {
            let nvars = 14 + trial % 4;
            let clauses = threshold_3sat(&mut next, nvars);
            let mut s = Solver::new();
            s.learnt_cap = 2;
            load(&mut s, &clauses, nvars);
            let result = s.solve();
            assert_eq!(
                result.is_sat(),
                brute_force(&clauses, nvars),
                "trial {trial}: {result:?}"
            );
            if result.is_sat() {
                assert!(satisfies(&clauses, &s.model()), "trial {trial}");
                sat += 1;
            } else {
                unsat += 1;
            }
            deleted += s.stats().deleted_clauses;
        }
        assert!(sat > 0 && unsat > 0, "sat {sat}, unsat {unsat}");
        assert!(deleted > 0, "no learnt clause was ever deleted");
    }

    /// Everything observable about a solve: the answer, the model or
    /// core, the work counters and the database size.
    fn observe(
        s: &mut Solver,
        assumptions: &[Lit],
    ) -> (SatResult, Vec<bool>, Vec<Lit>, SolverStats, usize) {
        let r = s.solve_with_assumptions(assumptions);
        (
            r,
            s.model(),
            s.unsat_core().to_vec(),
            s.stats(),
            s.num_clauses(),
        )
    }

    #[test]
    fn a_cleared_solver_answers_exactly_as_a_new_one() {
        let texts = [
            "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n",
            "p cnf 3 1\n1 2\n3 0\n",
            "p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n",
            "p cnf 2 1\n1 2 0\n",
            "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n",
        ];
        let mut formulas: Vec<(usize, Vec<Vec<Lit>>)> = texts
            .iter()
            .map(|t| {
                let cnf = crate::dimacs::Cnf::parse(t).unwrap();
                (cnf.num_vars, cnf.clauses)
            })
            .collect();
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for nvars in [30, 60, 90] {
            formulas.push((nvars, threshold_3sat(&mut next, nvars)));
        }

        let mut reused = Solver::new();
        for (i, (nvars, clauses)) in formulas.iter().enumerate() {
            // Leave the store dirty in every way a use can: learnt and
            // deleted clauses, a compacted arena, a model on the trail,
            // a raised cancel flag.
            reused.clear();
            reused.learnt_cap = 4;
            let mut next = xorshift(i as u64 + 1);
            load(&mut reused, &threshold_3sat(&mut next, 80), 80);
            reused.solve();
            reused.set_cancel_flag(Arc::new(AtomicBool::new(true)));

            reused.clear();
            let mut fresh = Solver::new();
            load(&mut reused, clauses, *nvars);
            load(&mut fresh, clauses, *nvars);
            let assumptions = [Var::from_index(0).pos()];
            for a in [&[][..], &assumptions[..], &[][..]] {
                assert_eq!(
                    observe(&mut reused, a),
                    observe(&mut fresh, a),
                    "formula {i} under {a:?}"
                );
            }
        }
    }

    #[test]
    fn random_3sat_planted_solutions() {
        // Planted-solution random 3-SAT: always satisfiable, solver must
        // find some model.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..10 {
            let nvars = 50;
            let nclauses = 200;
            let mut s = Solver::new();
            let vars = s.new_vars(nvars);
            let planted: Vec<bool> = (0..nvars).map(|_| next() & 1 == 1).collect();
            for _ in 0..nclauses {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    let vi = (next() % nvars as u64) as usize;
                    let sign = next() & 1 == 1;
                    lits.push(vars[vi].lit(sign));
                }
                // Force at least one literal to agree with the planted
                // assignment.
                let vi = (next() % nvars as u64) as usize;
                lits.push(vars[vi].lit(planted[vi]));
                s.add_clause(lits);
            }
            assert_eq!(s.solve(), SatResult::Sat, "trial {trial}");
            // Verify the model satisfies every clause by re-checking.
            let model = s.model();
            assert_eq!(model.len(), nvars);
        }
    }
}
