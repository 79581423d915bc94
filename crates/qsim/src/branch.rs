//! Exact output distributions by measurement-branch enumeration.
//!
//! A dynamic circuit's outcome statistics are fully determined by following
//! *every* measurement branch with its exact probability instead of sampling
//! one. With `m` mid-circuit measurements this costs at most `2^m` branch
//! evaluations — trivially cheap for the circuits of the paper — and yields
//! distributions with **no shot noise**, which is what lets the test suite
//! assert exact functional equivalence between a traditional circuit and its
//! dynamic transformation.
//!
//! The enumeration is the prefix engine's branch tree ([`crate::prefix`])
//! built under ideal noise and without its node budget. Each outcome's
//! weight is therefore the product of the same
//! [`StateVector::measure_prob_one`](crate::StateVector::measure_prob_one)
//! values the shot engines draw against. A branch whose probability is at
//! most [`BRANCH_EPS`] is dropped, and the survivors are renormalized.

use crate::counts::Distribution;
use crate::noise::NoiseModel;
use crate::prefix::{PrefixTree, BRANCH_EPS};
use qcir::Circuit;

/// Computes the exact distribution over classical-register outcomes of a
/// (possibly dynamic) circuit, assuming ideal (noise-free) execution.
///
/// Keys are bitstrings with classical bit `n-1` leftmost, matching
/// [`crate::Executor::run`]. A circuit whose branch probabilities turn
/// non-finite (a NaN gate angle, say) has no distribution: the result is
/// empty.
///
/// # Examples
///
/// ```
/// use qcir::{Circuit, Qubit, Clbit};
/// use qsim::branch::exact_distribution;
///
/// let mut c = Circuit::new(1, 1);
/// c.h(Qubit::new(0)).measure(Qubit::new(0), Clbit::new(0));
/// let d = exact_distribution(&c);
/// assert!((d.get("0") - 0.5).abs() < 1e-12);
/// assert!((d.get("1") - 0.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn exact_distribution(circuit: &Circuit) -> Distribution {
    let Some(tree) = PrefixTree::grow(circuit, &NoiseModel::ideal(), usize::MAX, || false) else {
        return Distribution::new();
    };
    let mut dist = tree.leaf_distribution();
    dist.prune(BRANCH_EPS);
    dist
}

/// Computes the exact *joint* distribution of the classical register **and**
/// a final computational-basis measurement of the given qubits (appended as
/// extra leading bits). Useful for traditional circuits whose outputs live
/// on qubits rather than classical bits.
///
/// The key layout is `[qubits reversed][classical bits reversed]`, i.e. the
/// extra qubits occupy the leftmost characters.
#[must_use]
pub fn exact_distribution_with_final_measure(
    circuit: &Circuit,
    measured_qubits: &[qcir::Qubit],
) -> Distribution {
    let mut augmented = Circuit::new(
        circuit.num_qubits(),
        circuit.num_clbits() + measured_qubits.len(),
    );
    augmented.extend(circuit);
    for (k, q) in measured_qubits.iter().enumerate() {
        augmented.measure(*q, qcir::Clbit::new(circuit.num_clbits() + k));
    }
    exact_distribution(&augmented)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateVector;
    use qcir::{Clbit, Qubit};

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn c(i: usize) -> Clbit {
        Clbit::new(i)
    }

    #[test]
    fn deterministic_circuit_has_point_distribution() {
        let mut circ = Circuit::new(2, 2);
        circ.x(q(0)).measure_all();
        let d = exact_distribution(&circ);
        assert_eq!(d.len(), 1);
        assert!((d.get("01") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_pair_distribution_is_exactly_half_half() {
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0)).cx(q(0), q(1)).measure_all();
        let d = exact_distribution(&circ);
        assert!((d.get("00") - 0.5).abs() < 1e-12);
        assert!((d.get("11") - 0.5).abs() < 1e-12);
        assert_eq!(d.len(), 2);
        assert!((d.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_three_qubits() {
        let mut circ = Circuit::new(3, 3);
        circ.h(q(0)).cx(q(0), q(1)).cx(q(1), q(2)).measure_all();
        let d = exact_distribution(&circ);
        assert!((d.get("000") - 0.5).abs() < 1e-12);
        assert!((d.get("111") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conditioned_correction_restores_determinism() {
        // measure |+>, then apply X conditioned on the outcome: the second
        // measurement is always 0... after reset-like correction.
        let mut circ = Circuit::new(1, 2);
        circ.h(q(0)).measure(q(0), c(0)).x_if(q(0), c(0));
        circ.measure(q(0), c(1));
        let d = exact_distribution(&circ);
        // c1 is always 0; c0 is uniform.
        assert!((d.get("00") - 0.5).abs() < 1e-12);
        assert!((d.get("01") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_branches_produce_correct_weights() {
        // H, reset, measure: always 0 regardless of the collapsed branch.
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0)).reset(q(0)).measure(q(0), c(0));
        let d = exact_distribution(&circ);
        assert_eq!(d.len(), 1);
        assert!((d.get("0") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entangled_reset_preserves_partner_statistics() {
        // Bell pair, reset one half: the other half stays uniform.
        let mut circ = Circuit::new(2, 1);
        circ.h(q(0)).cx(q(0), q(1)).reset(q(0)).measure(q(1), c(0));
        let d = exact_distribution(&circ);
        assert!((d.get("0") - 0.5).abs() < 1e-12);
        assert!((d.get("1") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn qubit_reuse_after_reset_is_fresh() {
        let mut circ = Circuit::new(1, 2);
        circ.h(q(0))
            .measure(q(0), c(0))
            .reset(q(0))
            .measure(q(0), c(1));
        let d = exact_distribution(&circ);
        // c1 always 0, c0 uniform.
        assert!((d.get("00") - 0.5).abs() < 1e-12);
        assert!((d.get("01") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distribution_matches_sampled_counts() {
        use crate::executor::Executor;
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0)).cx(q(0), q(1)).h(q(1)).measure_all();
        let exact = exact_distribution(&circ);
        let counts = Executor::new().shots(8000).seed(13).run(&circ);
        let empirical = counts.to_distribution();
        assert!(
            exact.tvd(&empirical) < 0.03,
            "tvd {} too large",
            exact.tvd(&empirical)
        );
    }

    #[test]
    fn final_measure_helper_appends_qubit_bits() {
        let mut circ = Circuit::new(2, 1);
        circ.x(q(1)).measure(q(0), c(0));
        let d = exact_distribution_with_final_measure(&circ, &[q(1)]);
        // Layout: [q1][c0] -> "10".
        assert!((d.get("10") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_sum_to_one_with_many_branches() {
        let mut circ = Circuit::new(1, 4);
        for i in 0..4 {
            circ.h(q(0)).measure(q(0), c(i));
        }
        let d = exact_distribution(&circ);
        // `prune` renormalizes, so the total is 1 up to bare summation
        // rounding — not merely up to accumulated BRANCH_EPS dust.
        assert!((d.total() - 1.0).abs() < 1e-12, "total = {}", d.total());
        assert_eq!(d.len(), 16);
    }

    #[test]
    fn enumeration_is_not_bounded_by_the_engine_node_budget() {
        // 15 fair measurements: 2^15 leaves plus 2^15 - 1 decision nodes.
        let mut circ = Circuit::new(1, 15);
        for i in 0..15 {
            circ.h(q(0)).measure(q(0), c(i));
        }
        assert!(PrefixTree::build(&circ, &NoiseModel::ideal()).is_none());
        let d = exact_distribution(&circ);
        assert_eq!(d.len(), 1 << 15);
        let uniform = 1.0 / f64::from(1 << 15);
        for (key, p) in d.iter() {
            assert!((p / uniform - 1.0).abs() < 1e-12, "{key}: {p}");
        }
    }

    #[test]
    fn a_branch_at_most_branch_eps_is_dropped() {
        // Outcome 1 has probability 1e-13, within BRANCH_EPS: the
        // enumeration drops it, as the engine's tree prunes it.
        let theta = 2.0 * (1e-13f64).sqrt().asin();
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&qcir::Gate::Ry(theta), &[0]);
        let p1 = sv.measure_prob_one(0);
        assert!(p1 > 1e-14 && p1 < BRANCH_EPS, "p1 = {p1}");
        let mut circ = Circuit::new(1, 1);
        circ.ry(theta, q(0)).measure(q(0), c(0));
        let d = exact_distribution(&circ);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d.get("0"), 1.0);
    }

    #[test]
    fn a_nan_angle_enumerates_to_an_empty_distribution() {
        let mut circ = Circuit::new(1, 1);
        circ.rx(f64::NAN, q(0)).measure(q(0), c(0));
        assert!(exact_distribution(&circ).is_empty());
    }

    #[test]
    fn pruned_dust_weight_is_redistributed() {
        // A branch with probability ~sin^2(1e-8) ≈ 1e-16 < BRANCH_EPS is
        // explored as dust or skipped entirely; either way the surviving
        // distribution must still sum to 1 after pruning.
        let mut circ = Circuit::new(1, 2);
        circ.ry(1e-8 * 2.0, q(0)).measure(q(0), c(0));
        circ.h(q(0)).measure(q(0), c(1));
        let d = exact_distribution(&circ);
        assert!((d.total() - 1.0).abs() < 1e-12, "total = {}", d.total());
    }
}
