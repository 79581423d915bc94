//! Commutation analysis between gates.
//!
//! The dynamic-circuit transformation replays gates out of their original
//! order; doing so is only sound when the hoisted gate commutes with every
//! deferred gate it passes. This module decides commutativity exactly.
//! Disjoint supports commute; two controlled powers of X (the CX, CV, CV†,
//! CCX and MCX gates that Toffoli networks lower to) are decided from
//! their operand lists; every other pair is decided by comparing the two
//! operator products on the union of the gates' qubit supports.

use crate::gate::Gate;
use crate::register::Qubit;
/// Tolerance for the matrix commutation test.
const COMMUTE_TOL: f64 = 1e-9;

/// Returns `true` when the two gates, applied to the given operand lists,
/// commute as operators: `B·A == A·B`.
///
/// Disjoint supports commute trivially. Two controlled powers of X (see
/// [`is_x_power_controlled`]) commute whenever neither gate's target is
/// among the other's controls: controls act diagonally and powers of X
/// commute with each other. Every other overlapping pair is decided by an
/// exact matrix test on the (small) union of the supports.
///
/// # Panics
///
/// Panics if an operand list length does not match its gate's arity.
///
/// # Examples
///
/// ```
/// use qcir::{commute::gates_commute, Gate, Qubit};
/// let q = |i| Qubit::new(i);
/// // Two CNOTs sharing only their control commute.
/// assert!(gates_commute(&Gate::Cx, &[q(0), q(1)], &Gate::Cx, &[q(0), q(2)]));
/// // CX and a Hadamard on the control do not.
/// assert!(!gates_commute(&Gate::Cx, &[q(0), q(1)], &Gate::H, &[q(0)]));
/// ```
#[must_use]
pub fn gates_commute(a: &Gate, a_qubits: &[Qubit], b: &Gate, b_qubits: &[Qubit]) -> bool {
    assert_eq!(
        a_qubits.len(),
        a.num_qubits(),
        "operand count mismatch for {a}"
    );
    assert_eq!(
        b_qubits.len(),
        b.num_qubits(),
        "operand count mismatch for {b}"
    );
    a_qubits.iter().all(|q| !b_qubits.contains(q))
        || x_powers_commute(a, a_qubits, b, b_qubits)
        || matrix_commute(a, a_qubits, b, b_qubits)
}

/// The structural rule: `true` when both gates are controlled powers of X
/// and neither gate's target is a control of the other. `false` means
/// "not decided here", not "does not commute".
fn x_powers_commute(a: &Gate, a_qubits: &[Qubit], b: &Gate, b_qubits: &[Qubit]) -> bool {
    if !is_x_power_controlled(a) || !is_x_power_controlled(b) {
        return false;
    }
    match (a_qubits.split_last(), b_qubits.split_last()) {
        (Some((a_target, a_controls)), Some((b_target, b_controls))) => {
            !b_controls.contains(a_target) && !a_controls.contains(b_target)
        }
        _ => false,
    }
}

/// The reference test: compares `B·A` with `A·B` as dense matrices on the
/// union of the two supports.
fn matrix_commute(a: &Gate, a_qubits: &[Qubit], b: &Gate, b_qubits: &[Qubit]) -> bool {
    // Union support, in deterministic order.
    let mut support: Vec<Qubit> = a_qubits.to_vec();
    for q in b_qubits {
        if !support.contains(q) {
            support.push(*q);
        }
    }
    let n = support.len();
    let pos = |qs: &[Qubit]| -> Vec<usize> {
        qs.iter()
            .map(|q| support.iter().position(|s| s == q).expect("in support"))
            .collect()
    };
    let ma = a.matrix().embed(&pos(a_qubits), n);
    let mb = b.matrix().embed(&pos(b_qubits), n);
    ma.mul(&mb).approx_eq(&mb.mul(&ma), COMMUTE_TOL)
}

/// Returns `true` for the controlled powers of X: CX, CV, CV†, CCX and
/// MCX, whose operands are `[controls..., target]`. Two of them commute
/// when neither gate's target is a control of the other, which
/// [`gates_commute`] checks before any matrix test. The CV/CV†/CX
/// networks that both dynamic schemes lower Toffolis to (the paper's
/// Eqn 1–4) consist of nothing else.
#[must_use]
pub fn is_x_power_controlled(gate: &Gate) -> bool {
    matches!(
        gate,
        Gate::Cx | Gate::Cv | Gate::Cvdg | Gate::Ccx | Gate::Mcx(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn disjoint_supports_commute() {
        assert!(gates_commute(&Gate::H, &[q(0)], &Gate::X, &[q(1)]));
    }

    #[test]
    fn same_qubit_x_and_z_anticommute() {
        assert!(!gates_commute(&Gate::X, &[q(0)], &Gate::Z, &[q(0)]));
    }

    #[test]
    fn x_and_v_on_same_qubit_commute() {
        // V is a function of X.
        assert!(gates_commute(&Gate::X, &[q(0)], &Gate::V, &[q(0)]));
    }

    #[test]
    fn cnots_sharing_control_commute() {
        assert!(gates_commute(
            &Gate::Cx,
            &[q(0), q(1)],
            &Gate::Cx,
            &[q(0), q(2)]
        ));
    }

    #[test]
    fn cnots_sharing_target_commute() {
        assert!(gates_commute(
            &Gate::Cx,
            &[q(0), q(2)],
            &Gate::Cx,
            &[q(1), q(2)]
        ));
    }

    #[test]
    fn cnot_chain_does_not_commute() {
        // CX(0->1) and CX(1->2) share qubit 1 as target/control.
        assert!(!gates_commute(
            &Gate::Cx,
            &[q(0), q(1)],
            &Gate::Cx,
            &[q(1), q(2)]
        ));
    }

    #[test]
    fn cx_and_t_on_target_do_not_commute() {
        // The non-commutation the paper highlights in Section IV-B.
        assert!(!gates_commute(&Gate::Cx, &[q(0), q(1)], &Gate::T, &[q(1)]));
    }

    #[test]
    fn cx_and_t_on_control_commute() {
        assert!(gates_commute(&Gate::Cx, &[q(0), q(1)], &Gate::T, &[q(0)]));
    }

    #[test]
    fn cv_family_on_common_target_commutes() {
        // CV(a,t), CV(b,t), CX(a,t), CCX(a,b,t) pairwise commute: the
        // property Eqn (7) of the paper relies on to reorder the oracle.
        let pairs: Vec<(Gate, Vec<Qubit>)> = vec![
            (Gate::Cv, vec![q(0), q(3)]),
            (Gate::Cvdg, vec![q(1), q(3)]),
            (Gate::Cx, vec![q(0), q(3)]),
            (Gate::Ccx, vec![q(0), q(1), q(3)]),
            (Gate::Mcx(3), vec![q(0), q(1), q(2), q(3)]),
        ];
        for (ga, qa) in &pairs {
            assert!(is_x_power_controlled(ga));
            for (gb, qb) in &pairs {
                assert!(
                    gates_commute(ga, qa, gb, qb),
                    "{ga} and {gb} should commute on a common target"
                );
            }
        }
    }

    #[test]
    fn cv_and_hadamard_on_target_do_not_commute() {
        assert!(!gates_commute(&Gate::Cv, &[q(0), q(1)], &Gate::H, &[q(1)]));
    }

    #[test]
    fn swap_and_cx_overlap() {
        assert!(!gates_commute(
            &Gate::Swap,
            &[q(0), q(1)],
            &Gate::Cx,
            &[q(0), q(2)]
        ));
    }

    #[test]
    #[should_panic(expected = "operand count mismatch")]
    fn arity_mismatch_panics() {
        let _ = gates_commute(&Gate::Cx, &[q(0)], &Gate::H, &[q(0)]);
    }

    /// Every ordered choice of `arity` distinct wires out of `0..wires`.
    fn placements(arity: usize, wires: usize) -> Vec<Vec<Qubit>> {
        if arity == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for prefix in placements(arity - 1, wires) {
            for w in (0..wires).map(q).filter(|w| !prefix.contains(w)) {
                let mut p = prefix.clone();
                p.push(w);
                out.push(p);
            }
        }
        out
    }

    /// Checks one pair against the matrix reference; returns whether the
    /// structural rule decided it (supports overlap and the rule fired).
    fn agrees_with_reference(a: &(Gate, Vec<Qubit>), b: &(Gate, Vec<Qubit>)) -> bool {
        let ((ga, qa), (gb, qb)) = (a, b);
        let reference = matrix_commute(ga, qa, gb, qb);
        assert_eq!(
            gates_commute(ga, qa, gb, qb),
            reference,
            "{ga} {qa:?} and {gb} {qb:?}"
        );
        qa.iter().any(|w| qb.contains(w)) && x_powers_commute(ga, qa, gb, qb)
    }

    #[test]
    fn structural_rule_agrees_with_matrix_test_on_every_four_wire_pair() {
        let gates = [
            Gate::Cx,
            Gate::Cv,
            Gate::Cvdg,
            Gate::Ccx,
            Gate::Mcx(1),
            Gate::Mcx(2),
            Gate::Mcx(3),
        ];
        let all: Vec<(Gate, Vec<Qubit>)> = gates
            .iter()
            .flat_map(|g| {
                placements(g.num_qubits(), 4)
                    .into_iter()
                    .map(|p| (g.clone(), p))
            })
            .collect();
        assert_eq!(all.len(), 120);
        let mut decided = 0;
        for a in &all {
            for b in &all {
                decided += usize::from(agrees_with_reference(a, b));
            }
        }
        assert!(decided > 0, "the structural rule never fired");
    }

    #[test]
    fn structural_rule_agrees_with_matrix_test_on_sampled_six_wire_pairs() {
        let gates = [
            Gate::Cx,
            Gate::Cv,
            Gate::Cvdg,
            Gate::Ccx,
            Gate::Mcx(3),
            Gate::Mcx(4),
            Gate::Mcx(5),
        ];
        // SplitMix64, seeded: the same sample on every platform.
        let mut state = 0x00c0_ffee_u64;
        let mut next = |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut draw = || {
            let gate = gates[next(gates.len())].clone();
            let mut wires: Vec<Qubit> = (0..6).map(q).collect();
            for i in (1..wires.len()).rev() {
                wires.swap(i, next(i + 1));
            }
            wires.truncate(gate.num_qubits());
            (gate, wires)
        };
        let (mut decided, mut widest) = (0, [false; 2]);
        for _ in 0..240 {
            let (a, b) = (draw(), draw());
            for (g, _) in [&a, &b] {
                widest[0] |= *g == Gate::Mcx(4);
                widest[1] |= *g == Gate::Mcx(5);
            }
            decided += usize::from(agrees_with_reference(&a, &b));
        }
        assert_eq!(widest, [true; 2], "the sample must pair MCX(4) and MCX(5)");
        assert!(decided > 0, "the structural rule never fired");
    }
}
