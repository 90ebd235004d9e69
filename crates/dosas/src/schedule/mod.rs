//! Solvers for the binary offloading optimization (paper Eq. 8).
//!
//! For `k` queued active requests with precomputed costs
//! [`crate::cost::Item`] `{x_i, y_i, z_i}`, choose `a_i ∈ {0,1}`
//! minimizing
//!
//! ```text
//! t = Σ_i [ x_i·a_i + y_i·(1 − a_i) ] + max_{i: a_i = 0} z_i
//! ```
//!
//! Solvers:
//!
//! * [`exhaustive`] — enumerate all `2^k` assignments (the paper's method);
//!   exact, exponential, capped at `k ≤ 24`.
//! * [`matrix`] — the paper's *literal* formulation (Eqs. 9–11): build the
//!   `k × 2^k` permutation matrix `A`, its complement `B`, and evaluate
//!   `X·A + Y·B + max-term` as a `1 × 2^k` vector. Kept for fidelity;
//!   capped at `k ≤ 12`.
//! * [`threshold`] — exact `O(k log k)`: for each candidate "largest demoted
//!   request", demote exactly the smaller requests whose demotion pays.
//!   This is the default production solver.
//! * [`bnb`] — exact branch-and-bound (depth-first with an admissible
//!   bound); handles any `k`, used to cross-check `threshold`.

pub mod bnb;
pub mod exhaustive;
pub mod fractional;
pub mod matrix;
pub mod threshold;

use crate::cost::Item;
use serde::{Deserialize, Serialize};

/// A solved offloading decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `active[i] == true` ⇔ request `i` is served as active I/O.
    pub active: Vec<bool>,
    /// Predicted total time under the analytic model (Eq. 4).
    pub time: f64,
}

impl Assignment {
    /// Number of requests kept active.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// True if every request is kept active.
    pub fn all_active(&self) -> bool {
        self.active.iter().all(|&a| a)
    }

    /// True if every request is demoted.
    pub fn all_normal(&self) -> bool {
        self.active.iter().all(|&a| !a)
    }
}

/// Which solver the Contention Estimator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverKind {
    Exhaustive,
    Matrix,
    Threshold,
    BranchAndBound,
}

impl SolverKind {
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Exhaustive => "exhaustive",
            SolverKind::Matrix => "matrix",
            SolverKind::Threshold => "threshold",
            SolverKind::BranchAndBound => "bnb",
        }
    }
}

/// Objective value of an assignment (Eq. 4). The canonical evaluator every
/// solver and test uses.
pub fn assignment_time(items: &[Item], active: &[bool]) -> f64 {
    assert_eq!(items.len(), active.len());
    let mut t = 0.0;
    let mut z: f64 = 0.0;
    for (item, &a) in items.iter().zip(active) {
        if a {
            t += item.x;
        } else {
            t += item.y;
            z = z.max(item.z);
        }
    }
    t + z
}

/// Solve with the chosen solver.
pub fn solve(kind: SolverKind, items: &[Item]) -> Assignment {
    if items.is_empty() {
        return Assignment {
            active: Vec::new(),
            time: 0.0,
        };
    }
    match kind {
        SolverKind::Exhaustive => exhaustive::solve(items),
        SolverKind::Matrix => matrix::solve(items),
        SolverKind::Threshold => threshold::solve(items),
        SolverKind::BranchAndBound => bnb::solve(items),
    }
}

#[cfg(test)]
pub(crate) fn item(x: f64, y: f64, z: f64) -> Item {
    Item { x, y, z }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_trivial() {
        for kind in [
            SolverKind::Exhaustive,
            SolverKind::Matrix,
            SolverKind::Threshold,
            SolverKind::BranchAndBound,
        ] {
            let a = solve(kind, &[]);
            assert!(a.active.is_empty());
            assert_eq!(a.time, 0.0);
        }
    }

    #[test]
    fn assignment_time_includes_max_z_of_demoted() {
        let items = vec![item(1.0, 0.5, 2.0), item(1.0, 0.5, 3.0)];
        assert_eq!(assignment_time(&items, &[true, true]), 2.0);
        assert_eq!(assignment_time(&items, &[false, false]), 1.0 + 3.0);
        assert_eq!(assignment_time(&items, &[true, false]), 1.0 + 0.5 + 3.0);
    }

    #[test]
    fn assignment_helpers() {
        let a = Assignment {
            active: vec![true, false, true],
            time: 1.0,
        };
        assert_eq!(a.active_count(), 2);
        assert!(!a.all_active());
        assert!(!a.all_normal());
    }

    #[test]
    fn solver_names() {
        assert_eq!(SolverKind::Threshold.name(), "threshold");
        assert_eq!(SolverKind::Matrix.name(), "matrix");
    }
}

#[cfg(test)]
mod cross_solver_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_items(max_k: usize) -> impl Strategy<Value = Vec<Item>> {
        proptest::collection::vec(
            (0.01f64..10.0, 0.01f64..10.0, 0.01f64..10.0).prop_map(|(x, y, z)| Item { x, y, z }),
            1..=max_k,
        )
    }

    proptest! {
        /// Every exact solver returns the same optimal objective as brute
        /// force, and its reported time matches its own assignment.
        #[test]
        fn exact_solvers_agree(items in arb_items(10)) {
            let brute = exhaustive::solve(&items);
            for kind in [SolverKind::Threshold, SolverKind::BranchAndBound] {
                let got = solve(kind, &items);
                prop_assert!((got.time - brute.time).abs() < 1e-9,
                    "{} found {} but optimum is {}", kind.name(), got.time, brute.time);
                prop_assert!(
                    (assignment_time(&items, &got.active) - got.time).abs() < 1e-9,
                    "{} reported time disagrees with its assignment", kind.name());
            }
        }

        /// The literal matrix formulation agrees with brute force (small k).
        #[test]
        fn matrix_matches_exhaustive(items in arb_items(8)) {
            let brute = exhaustive::solve(&items);
            let m = matrix::solve(&items);
            prop_assert!((m.time - brute.time).abs() < 1e-9);
        }

        /// Policy-arena pin (ISSUE 7): the solver family behind the
        /// refactored `policy::CePolicy` stays in exact agreement up to
        /// k = 16 — `threshold` and `bnb` match the 2^16 brute force on
        /// optimal cost.
        #[test]
        fn solvers_cross_check_to_k16(items in arb_items(16)) {
            let brute = exhaustive::solve(&items);
            prop_assert!(
                (assignment_time(&items, &brute.active) - brute.time).abs() < 1e-9,
                "exhaustive reported time disagrees with its assignment");
            for kind in [SolverKind::Threshold, SolverKind::BranchAndBound] {
                let got = solve(kind, &items);
                prop_assert!((got.time - brute.time).abs() < 1e-9,
                    "{} found {} but optimum is {}", kind.name(), got.time, brute.time);
            }
        }

        /// Homogeneous batches (the paper's experimental setting) have
        /// all-or-nothing optima.
        #[test]
        fn homogeneous_optimum_is_all_or_nothing(
            x in 0.01f64..10.0, y in 0.01f64..10.0, z in 0.01f64..10.0,
            k in 1usize..10,
        ) {
            let items = vec![Item { x, y, z }; k];
            let best = exhaustive::solve(&items);
            prop_assert!(best.all_active() || best.all_normal(),
                "mixed optimum for homogeneous batch: {:?}", best.active);
        }
    }
}
