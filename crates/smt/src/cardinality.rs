//! Cardinality constraint encodings.
//!
//! The Sinz sequential-counter encoding is used throughout: it is
//! linear in `n · k`, arc-consistent under unit propagation, and simple
//! to verify. For the CGRA time formulation the bounds are tiny (`k` is
//! the PE count per slot or the connectivity degree), so no stronger
//! encoding is warranted.

use cgra_sat::{Lit, Solver, Var};

/// Adds clauses enforcing that at most `k` of `lits` are true.
///
/// Uses the sequential-counter (Sinz 2005) encoding with fresh auxiliary
/// registers. `k == 0` forbids every literal; `k >= lits.len()` adds
/// nothing. Allocates nothing itself: each row of registers is a run of
/// `k` consecutive fresh variables, named by the first one's index.
pub fn at_most_k(solver: &mut Solver, lits: &[Lit], k: usize) {
    let n = lits.len();
    if k >= n {
        return;
    }
    if k == 0 {
        for &l in lits {
            solver.add_clause([!l]);
        }
        return;
    }
    // R(row, j) == true  =>  at least j+1 of lits[..=i] are true, where
    // `row` is the first variable index of row i.
    let reg = |row: usize, j: usize| Var::from_index(row + j).pos();
    let mut prev = 0;
    for (i, &x) in lits.iter().enumerate() {
        if i == n - 1 {
            // Only the overflow clause matters for the last literal
            // (i ≥ 1 here, as n > k ≥ 1).
            solver.add_clause([!x, !reg(prev, k - 1)]);
            break;
        }
        let row = solver.num_vars();
        for _ in 0..k {
            solver.new_var();
        }
        // x_i -> R_i,1
        solver.add_clause([!x, reg(row, 0)]);
        if i > 0 {
            for j in 0..k {
                // R_{i-1},j -> R_i,j
                solver.add_clause([!reg(prev, j), reg(row, j)]);
            }
            for j in 1..k {
                // x_i ∧ R_{i-1},j -> R_i,j+1
                solver.add_clause([!x, !reg(prev, j - 1), reg(row, j)]);
            }
            // overflow: x_i ∧ R_{i-1},k is forbidden
            solver.add_clause([!x, !reg(prev, k - 1)]);
        }
        prev = row;
    }
}

/// Adds clauses enforcing that at least `k` of `lits` are true.
///
/// Encoded as "at most `n - k` of the negations are true". `k == 0` adds
/// nothing; `k > lits.len()` makes the formula unsatisfiable.
pub fn at_least_k(solver: &mut Solver, lits: &[Lit], k: usize) {
    let n = lits.len();
    if k == 0 {
        return;
    }
    if k > n {
        solver.add_clause([]);
        return;
    }
    if k == 1 {
        solver.add_clause(lits.iter().copied());
        return;
    }
    let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
    at_most_k(solver, &negated, n - k);
}

/// Adds clauses enforcing that exactly `k` of `lits` are true.
pub fn exactly_k(solver: &mut Solver, lits: &[Lit], k: usize) {
    at_most_k(solver, lits, k);
    at_least_k(solver, lits, k);
}

/// Adds an at-most-one constraint, choosing pairwise clauses for small
/// inputs and the sequential ladder otherwise.
pub fn at_most_one(solver: &mut Solver, lits: &[Lit]) {
    if lits.len() <= 6 {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                solver.add_clause([!lits[i], !lits[j]]);
            }
        }
    } else {
        at_most_k(solver, lits, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_sat::SatResult;

    /// Enumerates all models over `vars` and returns the set of
    /// true-counts observed.
    fn true_counts(solver: &mut Solver, vars: &[Var]) -> Vec<usize> {
        let mut counts = std::collections::BTreeSet::new();
        let mut models = 0;
        while solver.solve() == SatResult::Sat {
            models += 1;
            assert!(models <= 4096, "runaway enumeration");
            let count = vars.iter().filter(|v| solver.value(**v).is_true()).count();
            counts.insert(count);
            let block: Vec<_> = vars
                .iter()
                .map(|&v| {
                    if solver.value(v).is_true() {
                        v.neg()
                    } else {
                        v.pos()
                    }
                })
                .collect();
            solver.add_clause(block);
        }
        counts.into_iter().collect()
    }

    fn fresh(n: usize) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars = s.new_vars(n);
        (s, vars)
    }

    #[test]
    fn at_most_k_exhaustive() {
        for n in 1..=6usize {
            for k in 0..=n {
                let (mut s, vars) = fresh(n);
                let lits: Vec<Lit> = vars.iter().map(|v| v.pos()).collect();
                at_most_k(&mut s, &lits, k);
                let counts = true_counts(&mut s, &vars);
                assert!(
                    counts.iter().all(|&c| c <= k),
                    "n={n} k={k} counts={counts:?}"
                );
                // Every count up to k must be achievable.
                for c in 0..=k {
                    assert!(counts.contains(&c), "n={n} k={k} missing count {c}");
                }
            }
        }
    }

    #[test]
    fn at_least_k_exhaustive() {
        for n in 1..=6usize {
            for k in 0..=n {
                let (mut s, vars) = fresh(n);
                let lits: Vec<Lit> = vars.iter().map(|v| v.pos()).collect();
                at_least_k(&mut s, &lits, k);
                let counts = true_counts(&mut s, &vars);
                assert!(counts.iter().all(|&c| c >= k), "n={n} k={k}");
                for c in k..=n {
                    assert!(counts.contains(&c), "n={n} k={k} missing count {c}");
                }
            }
        }
    }

    #[test]
    fn exactly_k_exhaustive() {
        for n in 1..=5usize {
            for k in 0..=n {
                let (mut s, vars) = fresh(n);
                let lits: Vec<Lit> = vars.iter().map(|v| v.pos()).collect();
                exactly_k(&mut s, &lits, k);
                let counts = true_counts(&mut s, &vars);
                assert_eq!(counts, vec![k], "n={n} k={k}");
            }
        }
    }

    #[test]
    fn at_least_more_than_n_is_unsat() {
        let (mut s, vars) = fresh(3);
        let lits: Vec<Lit> = vars.iter().map(|v| v.pos()).collect();
        at_least_k(&mut s, &lits, 4);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn at_most_one_both_encodings() {
        for n in [3usize, 12] {
            let (mut s, vars) = fresh(n);
            let lits: Vec<Lit> = vars.iter().map(|v| v.pos()).collect();
            at_most_one(&mut s, &lits);
            // Two simultaneous trues must be refuted.
            let r = s.solve_with_assumptions(&[lits[0], lits[n - 1]]);
            assert_eq!(r, SatResult::Unsat, "n={n}");
            // One true is fine.
            let r = s.solve_with_assumptions(&[lits[0]]);
            assert_eq!(r, SatResult::Sat, "n={n}");
        }
    }

    #[test]
    fn propagation_strength_amk() {
        // Once k literals are true, unit propagation alone should force
        // the remaining literals false (arc consistency of the ladder).
        let (mut s, vars) = fresh(5);
        let lits: Vec<Lit> = vars.iter().map(|v| v.pos()).collect();
        at_most_k(&mut s, &lits, 2);
        assert_eq!(
            s.solve_with_assumptions(&[lits[0], lits[2]]),
            SatResult::Sat
        );
        assert!(s.lit_value(lits[1]).is_false());
        assert!(s.lit_value(lits[3]).is_false());
        assert!(s.lit_value(lits[4]).is_false());
    }
}
