//! The propagating backtracking monomorphism search.

use std::time::Instant;

use cgra_base::{CancelFlag, DenseBitSet};

use crate::{LayeredTarget, Pattern, Target};

/// How many search steps pass between deadline/cancellation polls.
///
/// An atomic load is cheap but `Instant::now` is not; polling every
/// `2^10` placements keeps the overhead unmeasurable while bounding the
/// reaction latency to well under a millisecond of search work (a
/// placement narrows its unplaced neighbours' domains and updates the
/// live counts of its class, then the next vertex is chosen from one
/// count per unplaced vertex; that costs from a tenth of a microsecond
/// on a 4×4 to a few tenths on a 20×20, whose domains are seven words).
const POLL_MASK: u64 = (1 << 10) - 1;

/// Limits applied to one search run.
#[derive(Clone, Debug, Default)]
pub struct SearchConfig {
    /// Maximum number of extension attempts (candidate placements tried)
    /// before giving up with [`MonoOutcome::LimitReached`]. `None` means
    /// unlimited.
    pub max_steps: Option<u64>,
    /// Cooperative cancellation flag, polled inside the DFS loop; a
    /// raised flag stops the search with [`MonoOutcome::Cancelled`].
    pub cancel: Option<CancelFlag>,
    /// Wall-clock deadline, polled inside the DFS loop; past it the
    /// search stops with [`MonoOutcome::Cancelled`].
    pub deadline: Option<Instant>,
}

impl SearchConfig {
    /// Unlimited search.
    pub fn unlimited() -> Self {
        SearchConfig::default()
    }

    /// A search budget of `n` extension attempts.
    pub fn steps(n: u64) -> Self {
        SearchConfig {
            max_steps: Some(n),
            ..SearchConfig::default()
        }
    }

    /// Returns the configuration with a cooperative cancellation flag.
    pub fn with_cancel_flag(mut self, cancel: CancelFlag) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Returns the configuration with a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// True when the flag is raised or the deadline has passed.
    fn interrupted(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Result of a monomorphism search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonoOutcome {
    /// A monomorphism was found: `map[u]` is the target vertex of
    /// pattern vertex `u`.
    Found(Vec<usize>),
    /// The full space was explored; no monomorphism exists.
    Exhausted,
    /// The step budget ran out first.
    LimitReached,
    /// The cancellation flag was raised (or the deadline passed) before
    /// the search concluded.
    Cancelled,
}

impl MonoOutcome {
    /// Extracts the mapping, if found.
    pub fn into_map(self) -> Option<Vec<usize>> {
        match self {
            MonoOutcome::Found(m) => Some(m),
            _ => None,
        }
    }
}

/// Work counters of a search run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonoStats {
    /// Candidate placements attempted.
    pub steps: u64,
    /// Backtracks taken.
    pub backtracks: u64,
    /// Solutions reported (for enumeration runs).
    pub solutions: u64,
}

/// The target as the search loop reads it. Target vertices are grouped
/// into *classes*, one per distinct pattern label, and addressed as
/// `(class, index within the class)`; a domain is a bit set over the
/// indices of one class, so its width is the largest class, not the
/// target.
enum View<'a> {
    /// Classes are layers: adjacency depends on `(same class?, a, b)`.
    Layered(&'a LayeredTarget),
    /// A general [`Target`], its rows split by class up front.
    Projected {
        /// `members[c][a]`: the target vertex at index `a` of class `c`.
        members: Vec<Vec<usize>>,
        /// `offset[c] + a` numbers the vertices of all classes.
        offset: Vec<usize>,
        /// Row `(offset[ca] + a) · classes + cb`: the neighbours of
        /// `(ca, a)` inside class `cb`.
        rows: Vec<DenseBitSet>,
        /// Capability mask per numbered vertex.
        capabilities: Vec<u32>,
    },
}

impl View<'_> {
    /// Splits `target` into the classes named by `labels` (sorted,
    /// distinct).
    fn project(target: &Target, labels: &[u32]) -> Self {
        let classes = labels.len();
        let mut members = vec![Vec::new(); classes];
        let mut place = vec![None; target.num_vertices()];
        for (t, slot) in place.iter_mut().enumerate() {
            if let Ok(c) = labels.binary_search(&target.label(t)) {
                *slot = Some((c, members[c].len()));
                members[c].push(t);
            }
        }
        let width = members.iter().map(Vec::len).max().unwrap_or(0);
        let mut offset = Vec::with_capacity(classes);
        let mut total = 0;
        for m in &members {
            offset.push(total);
            total += m.len();
        }
        let mut rows = vec![DenseBitSet::new(width); total * classes];
        let mut capabilities = Vec::with_capacity(total);
        for (ca, class) in members.iter().enumerate() {
            for (a, &t) in class.iter().enumerate() {
                capabilities.push(target.capability(t));
                for (cb, b) in target.row(t).iter().filter_map(|b| place[b]) {
                    rows[(offset[ca] + a) * classes + cb].insert(b);
                }
            }
        }
        View::Projected {
            members,
            offset,
            rows,
            capabilities,
        }
    }

    /// Bits per domain.
    fn width(&self) -> usize {
        match self {
            View::Layered(t) => t.width(),
            View::Projected { rows, .. } => rows.first().map_or(0, DenseBitSet::capacity),
        }
    }

    /// Vertices in class `c`.
    fn class_size(&self, c: usize) -> usize {
        match self {
            View::Layered(t) => t.width(),
            View::Projected { members, .. } => members[c].len(),
        }
    }

    /// The neighbours of `(ca, a)` inside class `cb`.
    #[inline]
    fn row(&self, ca: usize, a: usize, cb: usize) -> &DenseBitSet {
        match self {
            View::Layered(t) if ca == cb => &t.same[a],
            View::Layered(t) => &t.cross[a],
            View::Projected { offset, rows, .. } => &rows[(offset[ca] + a) * offset.len() + cb],
        }
    }

    /// Writes into `dom` the indices of class `c` that cover the
    /// requirement mask `req` and have, inside every class `cb`, at
    /// least `nbrs_in[cb]` neighbours. Returns whether any index of the
    /// class was left out.
    fn initial_domain(&self, c: usize, req: u32, nbrs_in: &[usize], dom: &mut [u64]) -> bool {
        let mut cut = false;
        match self {
            // An index has |same| neighbours inside its own class and
            // |cross| inside each other one, so it fits exactly when its
            // profile does.
            View::Layered(t) => {
                let same = nbrs_in[c];
                let cross = nbrs_in
                    .iter()
                    .enumerate()
                    .filter_map(|(cb, &k)| (cb != c).then_some(k))
                    .max()
                    .unwrap_or(0);
                for p in &t.profiles {
                    if p.capability & req == req && p.same >= same && p.cross >= cross {
                        for (d, m) in dom.iter_mut().zip(p.members.words()) {
                            *d |= m;
                        }
                    } else {
                        cut = true;
                    }
                }
            }
            // The oracle's path tests one index at a time.
            View::Projected {
                offset,
                capabilities,
                ..
            } => {
                for a in 0..self.class_size(c) {
                    let fits = capabilities[offset[c] + a] & req == req
                        && nbrs_in
                            .iter()
                            .enumerate()
                            .all(|(cb, &k)| k == 0 || self.row(c, a, cb).len() >= k);
                    if fits {
                        dom[a / 64] |= 1 << (a % 64);
                    } else {
                        cut = true;
                    }
                }
            }
        }
        cut
    }

    /// The target vertex `(c, a)` as a found map reports it.
    fn vertex(&self, c: usize, label: u32, a: usize) -> usize {
        match self {
            View::Layered(t) => label as usize * t.width() + a,
            View::Projected { members, .. } => members[c][a],
        }
    }
}

/// One level of the search: the vertex chosen there and the trail
/// length to restore before its next candidate.
#[derive(Clone, Copy, Default)]
struct Frame {
    vertex: usize,
    mark: usize,
}

/// A reusable monomorphism searcher over a pattern/target pair.
///
/// A propagating backtracking search. Every unplaced pattern vertex
/// keeps a *live domain*; placing `u ↦ t`
///
/// * intersects the domains of `u`'s unplaced neighbours — and only
///   those — with `t`'s row, saving the old words on a trail;
/// * marks `t` in the used-mask of its class, which removes it from
///   every other vertex of the class without touching their domains;
/// * fails at once, without descending, when some unplaced vertex has
///   no live candidate, or when the unplaced vertices of one class
///   outnumber the union of their live domains (they cannot all be
///   placed injectively).
///
/// The next vertex is the unplaced one with the fewest live candidates
/// (ties: more placed neighbours, then higher degree, then lower index).
/// Each vertex's live count is kept current as placements come and go
/// (a used index decrements the class members whose domain holds it, a
/// narrowed domain is recounted), so choosing the next vertex reads one
/// number per unplaced vertex whatever the width of the domains, and a
/// class's union is built only when none of its unplaced vertices alone
/// has as many live candidates as the class has unplaced vertices.
/// [`Target`]s and [`LayeredTarget`]s run through this one loop; all
/// working storage is allocated at construction and reused across
/// [`Searcher::run`] calls.
pub struct Searcher<'a> {
    pattern: &'a Pattern,
    view: View<'a>,
    config: SearchConfig,
    /// Candidates allowed for the first-placed vertex, when restricted.
    roots: Option<&'a DenseBitSet>,
    /// Class of each pattern vertex.
    class: Vec<usize>,
    /// The pattern vertices of class `c`:
    /// `members[member_start[c]..member_start[c + 1]]`.
    members: Vec<usize>,
    member_start: Vec<usize>,
    /// Words per domain.
    words: usize,
    /// Initial domains (capability- and degree-compatible), `words` per
    /// pattern vertex.
    base: Vec<u64>,
    /// Live domains of the run, laid out like `base`.
    dom: Vec<u64>,
    /// Used-mask per class.
    used: Vec<u64>,
    /// Live candidates per unplaced pattern vertex: the bits of its
    /// domain outside its class's used-mask.
    count: Vec<u32>,
    /// Largest live count per class (scratch of `select`).
    largest: Vec<u32>,
    /// Union of one class's live domains (scratch of `select`).
    hall: Vec<u64>,
    /// Unplaced vertices per class.
    unplaced: Vec<usize>,
    /// The unplaced vertices: the first `np - depth` entries, in no
    /// particular order (`at[v]` is where `v` sits).
    open: Vec<usize>,
    at: Vec<usize>,
    /// Placed neighbours per pattern vertex.
    placed_nbrs: Vec<usize>,
    /// Class-local target index per pattern vertex (`usize::MAX` =
    /// unplaced).
    map: Vec<usize>,
    /// Per-depth chosen vertex and trail mark.
    frames: Vec<Frame>,
    /// Per-depth untried candidates, `words` each.
    cand: Vec<u64>,
    /// Vertices whose domain words are saved on `trail_words`, each
    /// with its live count before the narrowing.
    trail: Vec<(usize, u32)>,
    trail_words: Vec<u64>,
    stats: MonoStats,
}

/// Why the enumeration loop stopped.
enum EnumStop {
    /// Space exhausted, or the solution callback asked to stop.
    Exhausted,
    /// The step budget ran out.
    LimitReached,
    /// The cancellation flag/deadline fired.
    Cancelled,
}

impl<'a> Searcher<'a> {
    /// Prepares a search with default (unlimited) configuration.
    pub fn new(pattern: &'a Pattern, target: &'a Target) -> Self {
        Searcher::with_config(pattern, target, SearchConfig::unlimited())
    }

    /// Prepares a search with explicit limits.
    pub fn with_config(pattern: &'a Pattern, target: &'a Target, config: SearchConfig) -> Self {
        let labels = distinct_labels(pattern);
        let view = View::project(target, &labels);
        Searcher::prepare(pattern, view, &labels, None, config)
    }

    /// Prepares a search into a [`LayeredTarget`].
    pub fn layered(pattern: &'a Pattern, target: &'a LayeredTarget, config: SearchConfig) -> Self {
        let labels = distinct_labels(pattern);
        let roots = target.roots.as_ref();
        Searcher::prepare(pattern, View::Layered(target), &labels, roots, config)
    }

    fn prepare(
        pattern: &'a Pattern,
        view: View<'a>,
        labels: &[u32],
        roots: Option<&'a DenseBitSet>,
        config: SearchConfig,
    ) -> Self {
        let np = pattern.num_vertices();
        let classes = labels.len();
        let words = view.width().div_ceil(64);
        let class: Vec<usize> = (0..np)
            .map(|u| labels.binary_search(&pattern.label(u)).expect("own label"))
            .collect();
        let mut members: Vec<usize> = (0..np).collect();
        members.sort_by_key(|&u| class[u]);
        let mut member_start = vec![0; classes + 1];
        for &c in &class {
            member_start[c + 1] += 1;
        }
        for c in 0..classes {
            member_start[c + 1] += member_start[c];
        }
        // Initial domains: the vertices of `u`'s class that cover its
        // requirement mask and have, inside every class, at least as
        // many neighbours as `u` has there.
        let mut base = vec![0u64; np * words];
        let mut nbrs_in = vec![0usize; classes];
        let mut cut = false;
        for u in 0..np {
            nbrs_in.fill(0);
            for &w in pattern.neighbors(u) {
                nbrs_in[class[w]] += 1;
            }
            let dom = &mut base[u * words..][..words];
            cut |= view.initial_domain(class[u], pattern.requirement(u), &nbrs_in, dom);
        }
        // Arc consistency, when a filter above removed anything: drop a
        // candidate of `u` that leaves a neighbour of `u` no candidate
        // at all, until nothing changes.
        while cut {
            cut = false;
            for u in 0..np {
                for a in 0..view.class_size(class[u]) {
                    let bit = 1u64 << (a % 64);
                    if base[u * words + a / 64] & bit == 0 {
                        continue;
                    }
                    let supported = pattern.neighbors(u).iter().all(|&w| {
                        let row = view.row(class[u], a, class[w]).words();
                        let dom = &base[w * words..][..words];
                        row.iter().zip(dom).any(|(r, d)| r & d != 0)
                    });
                    if !supported {
                        base[u * words + a / 64] &= !bit;
                        cut = true;
                    }
                }
            }
        }
        Searcher {
            pattern,
            view,
            config,
            roots,
            class,
            members,
            member_start,
            words,
            base,
            dom: vec![0; np * words],
            used: vec![0; classes * words],
            count: vec![0; np],
            largest: vec![0; classes],
            hall: vec![0; words],
            unplaced: vec![0; classes],
            open: (0..np).collect(),
            at: (0..np).collect(),
            placed_nbrs: vec![0; np],
            map: vec![usize::MAX; np],
            frames: vec![Frame::default(); np],
            cand: vec![0; np * words],
            // A vertex is saved once per placed neighbour at most.
            trail: Vec::with_capacity(2 * pattern.num_edges()),
            trail_words: Vec::with_capacity(2 * pattern.num_edges() * words),
            stats: MonoStats::default(),
        }
    }

    /// Replaces the search limits (the prepared domains are kept, so
    /// one searcher can serve several attempts with different budgets).
    pub fn set_config(&mut self, config: SearchConfig) {
        self.config = config;
    }

    /// Counters from the most recent run.
    pub fn stats(&self) -> MonoStats {
        self.stats
    }

    /// Runs the search for the first monomorphism.
    pub fn run(&mut self) -> MonoOutcome {
        let mut found = None;
        let outcome = self.enumerate(&mut |map| {
            found = Some(map.to_vec());
            true // stop at the first
        });
        match (found, outcome) {
            (Some(m), _) => MonoOutcome::Found(m),
            (None, EnumStop::LimitReached) => MonoOutcome::LimitReached,
            (None, EnumStop::Exhausted) => MonoOutcome::Exhausted,
            (None, EnumStop::Cancelled) => MonoOutcome::Cancelled,
        }
    }

    /// Finds up to `limit` monomorphisms.
    pub fn find_all(&mut self, limit: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        self.enumerate(&mut |map| {
            out.push(map.to_vec());
            out.len() >= limit
        });
        out
    }

    /// Core enumeration. Calls `on_solution` for each monomorphism; the
    /// callback returns `true` to stop.
    ///
    /// Iterative depth-first search over preallocated frames: no
    /// allocation happens inside the loop, a step is one placement,
    /// `max_steps` stops before placement `max_steps + 1`, and the
    /// cancellation flag / deadline is polled every [`POLL_MASK`]`+1`
    /// steps.
    fn enumerate(&mut self, on_solution: &mut dyn FnMut(&[usize]) -> bool) -> EnumStop {
        self.stats = MonoStats::default();
        let np = self.pattern.num_vertices();
        if np == 0 {
            self.stats.solutions = 1;
            on_solution(&[]);
            return EnumStop::Exhausted;
        }
        if self.config.interrupted() {
            return EnumStop::Cancelled;
        }
        self.dom.copy_from_slice(&self.base);
        self.used.fill(0);
        for w in 0..np {
            self.count[w] = self.recount(w);
        }
        self.unplaced.fill(0);
        for &c in &self.class {
            self.unplaced[c] += 1;
        }
        self.placed_nbrs.fill(0);
        self.map.fill(usize::MAX);
        self.trail.clear();
        self.trail_words.clear();

        let words = self.words;
        let mut depth = 0usize;
        if !self.select(0) {
            return EnumStop::Exhausted;
        }
        loop {
            let Frame { vertex: u, mark } = self.frames[depth];
            let cand = &mut self.cand[depth * words..][..words];
            let Some(wi) = cand.iter().position(|&w| w != 0) else {
                // No candidate left at this depth: backtrack.
                if depth == 0 {
                    return EnumStop::Exhausted;
                }
                depth -= 1;
                self.stats.backtracks += 1;
                self.unplace(self.frames[depth], true);
                continue;
            };
            let bit = cand[wi].trailing_zeros() as usize;
            cand[wi] &= cand[wi] - 1;
            if self.config.max_steps == Some(self.stats.steps) {
                return EnumStop::LimitReached;
            }
            self.stats.steps += 1;
            if self.stats.steps & POLL_MASK == 0 && self.config.interrupted() {
                return EnumStop::Cancelled;
            }
            let alive = self.place(u, wi * 64 + bit);
            if depth + 1 == np {
                self.stats.solutions += 1;
                let found: Vec<usize> = (0..np)
                    .map(|v| {
                        self.view
                            .vertex(self.class[v], self.pattern.label(v), self.map[v])
                    })
                    .collect();
                if on_solution(&found) {
                    return EnumStop::Exhausted;
                }
            } else if alive && self.select(depth + 1) {
                depth += 1;
                continue;
            } else {
                self.stats.backtracks += 1;
            }
            self.unplace(Frame { vertex: u, mark }, alive);
        }
    }

    /// The live candidates of `w`, counted from its domain words.
    fn recount(&self, w: usize) -> u32 {
        let words = self.words;
        let used = &self.used[self.class[w] * words..][..words];
        self.dom[w * words..][..words]
            .iter()
            .zip(used)
            .map(|(d, u)| (d & !u).count_ones())
            .sum()
    }

    /// Chooses the vertex to place at `depth` and loads its candidates.
    /// Returns `false` when the partial map cannot be completed: an
    /// unplaced vertex has no live candidate, or a class has fewer live
    /// candidates in total than unplaced vertices.
    fn select(&mut self, depth: usize) -> bool {
        let words = self.words;
        let open = &self.open[..self.open.len() - depth];
        debug_assert!(open.iter().all(|&w| self.count[w] == self.recount(w)));
        self.largest.fill(0);
        let mut best = None;
        for &w in open {
            let live = self.count[w];
            if live == 0 {
                return false;
            }
            let largest = &mut self.largest[self.class[w]];
            *largest = (*largest).max(live);
            // Fewest candidates, then most placed neighbours, then
            // highest degree, then lowest index.
            let key = (
                live,
                usize::MAX - self.placed_nbrs[w],
                usize::MAX - self.pattern.degree(w),
                w,
            );
            if best.is_none_or(|k| key < k) {
                best = Some(key);
            }
        }
        // The unplaced vertices of a class need as many distinct live
        // candidates. One vertex with that many settles it; otherwise
        // count the union of their live domains.
        for (c, &open) in self.unplaced.iter().enumerate() {
            if self.largest[c] as usize >= open {
                continue;
            }
            let used = &self.used[c * words..][..words];
            self.hall.fill(0);
            for &w in &self.members[self.member_start[c]..self.member_start[c + 1]] {
                if self.map[w] != usize::MAX {
                    continue;
                }
                let dom = &self.dom[w * words..][..words];
                for ((h, d), u) in self.hall.iter_mut().zip(dom).zip(used) {
                    *h |= d & !u;
                }
            }
            let room: u32 = self.hall.iter().map(|w| w.count_ones()).sum();
            if (room as usize) < open {
                return false;
            }
        }
        let (.., u) = best.expect("select runs with a vertex unplaced");
        // Move `u` to the end of the unplaced prefix, which the next
        // depth leaves out; deeper levels only permute what is before it,
        // so backtracking needs no undo.
        let last = self.open.len() - depth - 1;
        let swapped = self.open[last];
        self.open.swap(self.at[u], last);
        self.at[swapped] = self.at[u];
        self.at[u] = last;
        self.frames[depth] = Frame {
            vertex: u,
            mark: self.trail.len(),
        };
        let dom = &self.dom[u * words..][..words];
        let used = &self.used[self.class[u] * words..][..words];
        let cand = &mut self.cand[depth * words..][..words];
        for ((c, d), u) in cand.iter_mut().zip(dom).zip(used) {
            *c = d & !u;
        }
        if let (0, Some(roots)) = (depth, self.roots) {
            for (c, r) in cand.iter_mut().zip(roots.words()) {
                *c &= r;
            }
        }
        true
    }

    /// Places `u` on index `t` of its class and narrows the domains of
    /// its unplaced neighbours. Returns `false` when one of them is left
    /// without a live candidate; the other counts of the class are then
    /// left as they were, and the placement must be undone with
    /// `settled = false`.
    fn place(&mut self, u: usize, t: usize) -> bool {
        let words = self.words;
        let pattern = self.pattern;
        let cu = self.class[u];
        let (wi, bit) = (t / 64, 1u64 << (t % 64));
        self.map[u] = t;
        self.used[cu * words + wi] |= bit;
        self.unplaced[cu] -= 1;
        let mut alive = true;
        for &w in pattern.neighbors(u) {
            self.placed_nbrs[w] += 1;
            if self.map[w] != usize::MAX || !alive {
                continue;
            }
            let cw = self.class[w];
            let row = self.view.row(cu, t, cw).words();
            let dom = &mut self.dom[w * words..][..words];
            self.trail.push((w, self.count[w]));
            self.trail_words.extend_from_slice(dom);
            let used = &self.used[cw * words..][..words];
            let mut live = 0;
            for ((d, r), u) in dom.iter_mut().zip(row).zip(used) {
                *d &= r;
                live += (*d & !u).count_ones();
            }
            // Already out of the count; out of the domain too, so the
            // class pass below does not take it away twice.
            if cw == cu {
                dom[wi] &= !bit;
            }
            self.count[w] = live;
            alive = live != 0;
        }
        if alive {
            // `t` leaves the live candidates of every other unplaced
            // vertex of the class whose domain holds it.
            for &w in &self.members[self.member_start[cu]..self.member_start[cu + 1]] {
                if self.map[w] == usize::MAX && self.dom[w * words + wi] & bit != 0 {
                    self.count[w] -= 1;
                }
            }
        }
        alive
    }

    /// Undoes the placement of `frame.vertex`: gives its target index
    /// back to the class members whose domain holds it (when the
    /// placement `settled` their counts), restores every domain and
    /// count saved since `frame.mark` and frees the index.
    fn unplace(&mut self, frame: Frame, settled: bool) {
        let words = self.words;
        let pattern = self.pattern;
        let u = frame.vertex;
        let (cu, t) = (self.class[u], self.map[u]);
        let (wi, bit) = (t / 64, 1u64 << (t % 64));
        if settled {
            for &w in &self.members[self.member_start[cu]..self.member_start[cu + 1]] {
                if self.map[w] == usize::MAX && self.dom[w * words + wi] & bit != 0 {
                    self.count[w] += 1;
                }
            }
        }
        while self.trail.len() > frame.mark {
            let (w, count) = self.trail.pop().expect("trail above the mark");
            let saved = self.trail_words.len() - words;
            self.dom[w * words..][..words].copy_from_slice(&self.trail_words[saved..]);
            self.trail_words.truncate(saved);
            self.count[w] = count;
        }
        self.used[cu * words + wi] &= !bit;
        self.unplaced[cu] += 1;
        self.map[u] = usize::MAX;
        for &w in pattern.neighbors(u) {
            self.placed_nbrs[w] -= 1;
        }
    }
}

/// The distinct labels of `pattern`, ascending.
fn distinct_labels(pattern: &Pattern) -> Vec<u32> {
    let mut labels: Vec<u32> = (0..pattern.num_vertices())
        .map(|u| pattern.label(u))
        .collect();
    labels.sort_unstable();
    labels.dedup();
    labels
}

/// Finds one monomorphism from `pattern` into `target`, if any.
///
/// Convenience wrapper over [`Searcher`]; see the crate-level example.
pub fn find_monomorphism(pattern: &Pattern, target: &Target) -> Option<Vec<usize>> {
    Searcher::new(pattern, target).run().into_map()
}

/// Counts all monomorphisms (up to `limit`, to bound the work).
pub fn count_monomorphisms(pattern: &Pattern, target: &Target, limit: usize) -> usize {
    Searcher::new(pattern, target).find_all(limit).len()
}

/// Checks the three monomorphism properties of the paper (§IV-A) for a
/// candidate map. Exposed for tests and for `Mapping::validate` in the
/// core crate.
pub fn is_monomorphism(pattern: &Pattern, target: &Target, map: &[usize]) -> bool {
    if map.len() != pattern.num_vertices() {
        return false;
    }
    // mono1: injectivity.
    let mut seen = DenseBitSet::new(target.num_vertices());
    for &t in map {
        if t >= target.num_vertices() || seen.contains(t) {
            return false;
        }
        seen.insert(t);
    }
    // mono2: label preservation, plus requirement/capability
    // compatibility when the graphs carry masks.
    for (u, &t) in map.iter().enumerate() {
        if pattern.label(u) != target.label(t) {
            return false;
        }
        let req = pattern.requirement(u);
        if target.capability(t) & req != req {
            return false;
        }
    }
    // mono3: edge preservation.
    for u in 0..pattern.num_vertices() {
        for &w in pattern.neighbors(u) {
            if u < w && !target.adjacent(map[u], map[w]) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique(n: usize, label: u32) -> Target {
        let mut t = Target::new(vec![label; n]);
        for a in 0..n {
            for b in (a + 1)..n {
                t.add_edge(a, b);
            }
        }
        t
    }

    #[test]
    fn triangle_into_k4_counts() {
        let p = Pattern::new(vec![0, 0, 0], vec![(0, 1), (1, 2), (2, 0)]);
        let t = clique(4, 0);
        // 4 choose 3 vertex sets × 3! orientations = 24 monomorphisms.
        assert_eq!(count_monomorphisms(&p, &t, 1000), 24);
    }

    #[test]
    fn found_map_is_a_monomorphism() {
        let p = Pattern::new(vec![0, 1, 0], vec![(0, 1), (1, 2)]);
        let mut t = Target::new(vec![0, 1, 0, 1, 0]);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            t.add_edge(a, b);
        }
        let m = find_monomorphism(&p, &t).expect("path embeds");
        assert!(is_monomorphism(&p, &t, &m));
    }

    #[test]
    fn labels_block_embedding() {
        let p = Pattern::new(vec![7], vec![]);
        let t = clique(3, 0);
        assert_eq!(find_monomorphism(&p, &t), None);
        assert_eq!(Searcher::new(&p, &t).run(), MonoOutcome::Exhausted);
    }

    #[test]
    fn injectivity_blocks_oversized_pattern() {
        let p = Pattern::new(vec![0, 0, 0], vec![]);
        let t = clique(2, 0);
        assert_eq!(find_monomorphism(&p, &t), None);
    }

    #[test]
    fn non_induced_embedding_allowed() {
        // Pattern: path a-b-c (no edge a-c). Target: triangle. A
        // monomorphism (unlike induced isomorphism) may map a,c to
        // adjacent vertices.
        let p = Pattern::new(vec![0, 0, 0], vec![(0, 1), (1, 2)]);
        let t = clique(3, 0);
        assert!(find_monomorphism(&p, &t).is_some());
    }

    #[test]
    fn square_does_not_embed_in_tree() {
        let p = Pattern::new(vec![0; 4], vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut t = Target::new(vec![0; 6]);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)] {
            t.add_edge(a, b);
        }
        assert_eq!(Searcher::new(&p, &t).run(), MonoOutcome::Exhausted);
    }

    #[test]
    fn empty_pattern_trivially_embeds() {
        let p = Pattern::new(vec![], vec![]);
        let t = clique(2, 0);
        assert_eq!(find_monomorphism(&p, &t), Some(vec![]));
    }

    #[test]
    fn disconnected_pattern_components() {
        let p = Pattern::new(vec![0, 0, 1, 1], vec![(0, 1), (2, 3)]);
        let mut t = Target::new(vec![0, 0, 1, 1, 0]);
        t.add_edge(0, 1);
        t.add_edge(2, 3);
        let m = find_monomorphism(&p, &t).expect("both components embed");
        assert!(is_monomorphism(&p, &t, &m));
    }

    #[test]
    fn step_limit_reports_limit() {
        // A hard instance: embed a 6-clique into a large sparse graph
        // where it does not exist, with a tiny budget.
        let mut edges = Vec::new();
        for a in 0..6 {
            for b in (a + 1)..6 {
                edges.push((a, b));
            }
        }
        let p = Pattern::new(vec![0; 6], edges);
        let mut t = Target::new(vec![0; 40]);
        for i in 0..39 {
            t.add_edge(i, i + 1);
            if i + 2 < 40 {
                t.add_edge(i, i + 2);
            }
            if i + 3 < 40 {
                t.add_edge(i, i + 3);
            }
            if i + 4 < 40 {
                t.add_edge(i, i + 4);
            }
            if i + 5 < 40 {
                t.add_edge(i, i + 5);
            }
        }
        let mut s = Searcher::with_config(&p, &t, SearchConfig::steps(3));
        assert_eq!(s.run(), MonoOutcome::LimitReached);
        assert_eq!(
            s.stats().steps,
            3,
            "stops after exactly max_steps placements"
        );
    }

    /// A 10-clique that does not embed into a width-8 band graph (whose
    /// largest cliques have 9 vertices): proving exhaustion takes ~10^8
    /// steps — several seconds even in release — so a mid-search cancel
    /// is observable long before the search would finish on its own.
    fn hard_instance() -> (Pattern, Target) {
        let k = 10;
        let (n, w) = (120, 8);
        let mut edges = Vec::new();
        for a in 0..k {
            for b in (a + 1)..k {
                edges.push((a, b));
            }
        }
        let p = Pattern::new(vec![0; k], edges);
        let mut t = Target::new(vec![0; n]);
        for i in 0..n {
            for d in 1..=w {
                if i + d < n {
                    t.add_edge(i, i + d);
                }
            }
        }
        (p, t)
    }

    #[test]
    fn cancel_pre_raised_flag_stops_immediately() {
        let (p, t) = hard_instance();
        let flag = cgra_base::CancelFlag::new();
        flag.cancel();
        let mut s = Searcher::with_config(&p, &t, SearchConfig::unlimited().with_cancel_flag(flag));
        assert_eq!(s.run(), MonoOutcome::Cancelled);
        assert_eq!(s.stats().steps, 0, "pre-raised flag is seen before work");
    }

    #[test]
    fn cancel_mid_search_returns_within_bounded_delay() {
        // Raise the flag from a watchdog thread 50 ms in; the DFS polls
        // the flag every 1024 steps, so it must return promptly — far
        // inside the generous 10 s bound (an uncancelled run of this
        // instance explores millions of states).
        let (p, t) = hard_instance();
        let flag = cgra_base::CancelFlag::new();
        let watchdog = flag.clone();
        let started = std::time::Instant::now();
        let outcome = std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                watchdog.cancel();
            });
            let mut s =
                Searcher::with_config(&p, &t, SearchConfig::unlimited().with_cancel_flag(flag));
            s.run()
        });
        assert_eq!(outcome, MonoOutcome::Cancelled);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "cancelled search must return promptly, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn deadline_in_the_past_cancels() {
        let (p, t) = hard_instance();
        let past = std::time::Instant::now();
        let mut s = Searcher::with_config(&p, &t, SearchConfig::unlimited().with_deadline(past));
        assert_eq!(s.run(), MonoOutcome::Cancelled);
    }

    #[test]
    fn searcher_is_reusable_across_runs() {
        // Repeated runs on one searcher reuse the preallocated domain
        // stack and give identical results.
        let p = Pattern::new(vec![0, 1, 0], vec![(0, 1), (1, 2)]);
        let mut t = Target::new(vec![0, 1, 0, 1, 0]);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            t.add_edge(a, b);
        }
        let mut s = Searcher::new(&p, &t);
        let first = s.run();
        let second = s.run();
        assert_eq!(first, second);
        assert!(matches!(first, MonoOutcome::Found(_)));
        // Changing the config between runs takes effect.
        s.set_config(SearchConfig::steps(1));
        assert!(matches!(
            s.run(),
            MonoOutcome::Found(_) | MonoOutcome::LimitReached
        ));
    }

    #[test]
    fn enumeration_is_duplicate_free() {
        let p = Pattern::new(vec![0, 0], vec![(0, 1)]);
        let t = clique(4, 0);
        let all = Searcher::new(&p, &t).find_all(1000);
        // Ordered pairs of distinct vertices: 4 × 3 = 12.
        assert_eq!(all.len(), 12);
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), 12);
        for m in &all {
            assert!(is_monomorphism(&p, &t, m));
        }
    }

    #[test]
    fn requirements_filter_candidates() {
        // Two vertices, one needing capability bit 0b10. Target: a path
        // of three vertices where only the middle one provides 0b10.
        let p = Pattern::new(vec![0, 0], vec![(0, 1)]).with_requirements(vec![0b10, 0]);
        let mut t = Target::new(vec![0, 0, 0]);
        t.add_edge(0, 1);
        t.add_edge(1, 2);
        let t = t.with_capabilities(vec![0b01, 0b11, 0b01]);
        let m = find_monomorphism(&p, &t).expect("middle vertex hosts the constrained node");
        assert_eq!(m[0], 1, "constrained vertex lands on the capable target");
        assert!(is_monomorphism(&p, &t, &m));
        // The same map with vertex 0 elsewhere is rejected.
        assert!(!is_monomorphism(&p, &t, &[0, 1]));
    }

    #[test]
    fn unsatisfiable_requirement_exhausts() {
        let p = Pattern::new(vec![0], vec![]).with_requirements(vec![0b100]);
        let t = clique(3, 0).with_capabilities(vec![0b011; 3]);
        assert_eq!(Searcher::new(&p, &t).run(), MonoOutcome::Exhausted);
    }

    #[test]
    fn zero_requirements_change_nothing() {
        // A pattern with all-zero requirements against a
        // capability-carrying target enumerates exactly the same set as
        // the mask-free pattern.
        let p_plain = Pattern::new(vec![0, 0], vec![(0, 1)]);
        let p_masked = p_plain.clone().with_requirements(vec![0, 0]);
        let t = clique(4, 0).with_capabilities(vec![0b1, 0b0, 0b1, 0b0]);
        let a = Searcher::new(&p_plain, &t).find_all(100);
        let b = Searcher::new(&p_masked, &t).find_all(100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
    }

    #[test]
    fn capability_free_target_accepts_any_requirement() {
        let p = Pattern::new(vec![0], vec![]).with_requirements(vec![u32::MAX]);
        let t = clique(2, 0);
        assert!(find_monomorphism(&p, &t).is_some());
    }

    /// Initial domains of `pattern` in a layered target given by its raw
    /// relations, written from the definition one index at a time:
    /// before and after arc consistency, as `[vertex][index]` flags.
    fn reference_domains(
        pattern: &Pattern,
        same: &[DenseBitSet],
        cross: &[DenseBitSet],
        caps: &[u32],
    ) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
        let np = pattern.num_vertices();
        let related = |a: usize, b: usize, u: usize, w: usize| {
            let rows = if pattern.label(u) == pattern.label(w) {
                same
            } else {
                cross
            };
            rows[a].contains(b)
        };
        let filtered: Vec<Vec<bool>> = (0..np)
            .map(|u| {
                let req = pattern.requirement(u);
                (0..caps.len())
                    .map(|a| {
                        caps[a] & req == req
                            && pattern.neighbors(u).iter().all(|&w| {
                                let here = pattern
                                    .neighbors(u)
                                    .iter()
                                    .filter(|&&x| pattern.label(x) == pattern.label(w))
                                    .count();
                                (0..caps.len()).filter(|&b| related(a, b, u, w)).count() >= here
                            })
                    })
                    .collect()
            })
            .collect();
        let mut consistent = filtered.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for u in 0..np {
                for a in 0..caps.len() {
                    let supported = pattern
                        .neighbors(u)
                        .iter()
                        .all(|&w| (0..caps.len()).any(|b| consistent[w][b] && related(a, b, u, w)));
                    if consistent[u][a] && !supported {
                        consistent[u][a] = false;
                        changed = true;
                    }
                }
            }
        }
        (filtered, consistent)
    }

    #[test]
    fn profile_domains_equal_per_index_domains() {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let iterations = if cfg!(debug_assertions) { 300 } else { 20_000 };
        for trial in 0..iterations {
            let n = 1 + (next() % 70) as usize;
            // Irregular degrees: each index draws its own density, and a
            // pair is related with the mean of its two. Every fourth
            // trial is a circulant instead, with one degree throughout.
            let circulant = trial % 4 == 0;
            let density: Vec<u64> = (0..n).map(|_| next() % 101).collect();
            let offsets = [
                1 + next() as usize % n.max(2),
                1 + next() as usize % n.max(2),
            ];
            let mut relation = |with_self: bool| {
                let mut rows = vec![DenseBitSet::new(n); n];
                for a in 0..n {
                    for b in a..n {
                        let hit = if a == b {
                            with_self && next() % 2 == 0
                        } else if circulant {
                            offsets.contains(&((b - a) % n)) || offsets.contains(&((a + n - b) % n))
                        } else {
                            next() % 100 < (density[a] + density[b]) / 2
                        };
                        if hit {
                            rows[a].insert(b);
                            rows[b].insert(a);
                        }
                    }
                }
                rows
            };
            let same = relation(false);
            let cross = relation(true);
            let caps: Vec<u32> = (0..n).map(|_| (next() % 8) as u32).collect();
            let target = LayeredTarget::new(same.clone(), cross.clone(), caps.clone());

            let np = 1 + (next() % 12) as usize;
            let layers = 1 + next() % 4;
            let labels: Vec<u32> = (0..np).map(|_| (3 * (next() % layers)) as u32).collect();
            let edge_odds = 1 + next() % 60;
            let mut edges = Vec::new();
            for a in 0..np {
                for b in (a + 1)..np {
                    if next() % 100 < edge_odds {
                        edges.push((a, b));
                    }
                }
            }
            let requirements = (0..np)
                .map(|_| match next() % 4 {
                    0 => (next() % 8) as u32,
                    _ => 0,
                })
                .collect();
            let pattern = Pattern::new(labels, edges).with_requirements(requirements);

            let (filtered, consistent) = reference_domains(&pattern, &same, &cross, &caps);
            let as_words = |flags: &[Vec<bool>]| -> Vec<u64> {
                let words = n.div_ceil(64);
                let mut out = vec![0u64; flags.len() * words];
                for (u, row) in flags.iter().enumerate() {
                    for a in (0..n).filter(|&a| row[a]) {
                        out[u * words + a / 64] |= 1 << (a % 64);
                    }
                }
                out
            };

            // Before arc consistency: the profile filter alone.
            let view = View::Layered(&target);
            let classes = distinct_labels(&pattern);
            let class = |u: usize| classes.binary_search(&pattern.label(u)).unwrap();
            let words = n.div_ceil(64);
            let mut from_profiles = vec![0u64; np * words];
            let mut cut = false;
            for u in 0..np {
                let mut nbrs_in = vec![0; classes.len()];
                for &w in pattern.neighbors(u) {
                    nbrs_in[class(w)] += 1;
                }
                let dom = &mut from_profiles[u * words..][..words];
                cut |= view.initial_domain(class(u), pattern.requirement(u), &nbrs_in, dom);
            }
            assert_eq!(from_profiles, as_words(&filtered), "trial {trial}: filter");
            assert_eq!(cut, filtered.iter().flatten().any(|&fits| !fits));

            // After it: what a prepared search starts from.
            let searcher = Searcher::layered(&pattern, &target, SearchConfig::unlimited());
            assert_eq!(searcher.base, as_words(&consistent), "trial {trial}: AC");
        }
    }

    /// Brute-force cross-check on pseudo-random small instances.
    #[test]
    fn matches_brute_force_on_random_graphs() {
        fn brute_count(p: &Pattern, t: &Target) -> usize {
            let np = p.num_vertices();
            let nt = t.num_vertices();
            let mut count = 0;
            let mut map = vec![usize::MAX; np];
            fn rec(
                p: &Pattern,
                t: &Target,
                map: &mut Vec<usize>,
                depth: usize,
                count: &mut usize,
                nt: usize,
            ) {
                if depth == map.len() {
                    *count += 1;
                    return;
                }
                'outer: for cand in 0..nt {
                    if map[..depth].contains(&cand) {
                        continue;
                    }
                    if t.label(cand) != p.label(depth) {
                        continue;
                    }
                    for &w in p.neighbors(depth) {
                        if w < depth && !t.adjacent(map[w], cand) {
                            continue 'outer;
                        }
                    }
                    map[depth] = cand;
                    rec(p, t, map, depth + 1, count, nt);
                    map[depth] = usize::MAX;
                }
            }
            rec(p, t, &mut map, 0, &mut count, nt);
            count
        }

        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let np = 2 + (next() % 4) as usize; // 2..=5
            let nt = 4 + (next() % 5) as usize; // 4..=8
            let nlabels = 1 + (next() % 3) as u32;
            let plabels: Vec<u32> = (0..np).map(|_| (next() % nlabels as u64) as u32).collect();
            let tlabels: Vec<u32> = (0..nt).map(|_| (next() % nlabels as u64) as u32).collect();
            let mut pedges = Vec::new();
            for a in 0..np {
                for b in (a + 1)..np {
                    if next() % 2 == 0 {
                        pedges.push((a, b));
                    }
                }
            }
            let p = Pattern::new(plabels, pedges);
            let mut t = Target::new(tlabels);
            for a in 0..nt {
                for b in (a + 1)..nt {
                    if next() % 2 == 0 {
                        t.add_edge(a, b);
                    }
                }
            }
            let fast = count_monomorphisms(&p, &t, 1_000_000);
            let slow = brute_count(&p, &t);
            assert_eq!(fast, slow, "trial {trial}: np={np} nt={nt}");
        }
    }
}
