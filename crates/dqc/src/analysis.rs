//! Static exactness analysis of the dynamic transformation.
//!
//! Algorithm 1's only approximation is *measure-then-classically-control*:
//! a gate between two work qubits is replayed with its control read from
//! that qubit's measurement record. The substitution is exact precisely
//! when the measurement commutes forward to the gate's original position —
//! i.e. when every later operation on the control wire is diagonal there
//! (a Z-basis operation: a phase-type gate, or serving as a control).
//!
//! This module checks that condition statically, classifying a circuit as
//! [`Exactness::Exact`] (the dynamic realization provably reproduces the
//! traditional distribution — BV, Simon, QPE) or
//! [`Exactness::Approximate`] with the list of offending gate pairs (DJ
//! with Toffolis, Grover). The integration tests validate the verdicts
//! against exact total-variation distances.

use crate::reorder::reorder_work_qubits;
use crate::roles::{QubitRoles, Role};
use qcir::{Circuit, Gate, OpKind, Qubit};
use std::fmt;

/// The verdict of [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exactness {
    /// No classicalized control is followed by a non-diagonal operation on
    /// its wire: the dynamic realization is exactly equivalent.
    Exact,
    /// Some classicalized controls are read in the wrong basis; the
    /// realization is (in general) approximate.
    Approximate {
        /// For each offending pair: the index of the classicalized gate and
        /// the index of the later non-diagonal gate on its control wire.
        conflicts: Vec<Conflict>,
    },
}

/// A basis conflict found by the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// Index of the gate whose control will be classicalized.
    pub classicalized: usize,
    /// The control qubit involved.
    pub control: Qubit,
    /// Index of the later gate acting non-diagonally on that wire.
    pub disturbance: usize,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gate #{} reads {} classically, but gate #{} later rotates it",
            self.classicalized, self.control, self.disturbance
        )
    }
}

/// The full analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DqcAnalysis {
    /// The exactness verdict.
    pub exactness: Exactness,
    /// Number of gates that will be classicalized (work-to-work
    /// interactions).
    pub classicalized_gates: usize,
}

impl DqcAnalysis {
    /// `true` when the verdict is [`Exactness::Exact`].
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self.exactness, Exactness::Exact)
    }
}

/// `true` when `gate`'s action on operand position `pos` is diagonal in the
/// computational basis (and hence commutes with a Z measurement of that
/// wire): control positions always are; target positions only for
/// diagonal gates.
fn diagonal_on(gate: &Gate, pos: usize) -> bool {
    pos < gate.num_controls() || gate.is_diagonal()
}

/// Statically classifies the dynamic realization of `circuit` under
/// `roles`.
///
/// The verdict is *sound for exactness*: [`Exactness::Exact`] implies the
/// transformed circuit's outcome distribution equals the traditional one
/// (assuming the transformation succeeds). [`Exactness::Approximate`] is
/// conservative — specific circuits may still happen to match (e.g. when
/// the traditional distribution is already a product distribution, as for
/// the paper's single-Toffoli DJ benchmarks under dynamic-2).
///
/// # Errors
///
/// Propagates ordering errors from [`reorder_work_qubits`] (cyclic or
/// unrealizable interactions), since those circuits have no dynamic
/// realization to analyze.
pub fn analyze(circuit: &Circuit, roles: &QubitRoles) -> Result<DqcAnalysis, crate::DqcError> {
    roles.validate(circuit)?;
    let work_order = reorder_work_qubits(circuit, roles)?;
    let order_of = |q: Qubit| work_order.iter().position(|&w| w == q);
    let insts = circuit.instructions();
    let mut conflicts = Vec::new();
    let mut classicalized = 0usize;

    for (idx, inst) in insts.iter().enumerate() {
        let OpKind::Gate(g) = inst.kind() else {
            continue;
        };
        let qubits = inst.qubits();
        let n_ctrl = g.num_controls();
        if n_ctrl == 0 {
            continue;
        }
        let target = qubits[qubits.len() - 1];
        let target_is_work = !matches!(roles.role_of(target), Some(Role::Answer));
        let work_controls: Vec<Qubit> = qubits[..n_ctrl]
            .iter()
            .copied()
            .filter(|&c| !matches!(roles.role_of(c), Some(Role::Answer)))
            .collect();
        // Which controls get read classically? For a work-target gate, all
        // of them (the gate runs in the target's iteration). For an
        // answer-target gate, the gate runs in the *last* work control's
        // iteration, so every other work control is classicalized.
        let surviving_quantum_control: Option<Qubit> = if target_is_work {
            None
        } else {
            work_controls
                .iter()
                .copied()
                .max_by_key(|&c| order_of(c).unwrap_or(usize::MAX))
        };
        for &ctrl in &work_controls {
            if Some(ctrl) == surviving_quantum_control {
                continue;
            }
            classicalized += 1;
            // Find later gates acting non-diagonally on the control wire.
            for (later_idx, later) in insts.iter().enumerate().skip(idx + 1) {
                let OpKind::Gate(lg) = later.kind() else {
                    continue;
                };
                if let Some(wire_pos) = later.qubits().iter().position(|&q| q == ctrl) {
                    if !diagonal_on(lg, wire_pos) {
                        conflicts.push(Conflict {
                            classicalized: idx,
                            control: ctrl,
                            disturbance: later_idx,
                        });
                        break; // first disturbance is enough per pair
                    }
                }
            }
        }
    }

    Ok(DqcAnalysis {
        exactness: if conflicts.is_empty() {
            Exactness::Exact
        } else {
            Exactness::Approximate { conflicts }
        },
        classicalized_gates: classicalized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn bv_style_circuits_are_exact() {
        let mut c = Circuit::new(3, 0);
        c.x(q(2)).h(q(2));
        c.h(q(0)).cx(q(0), q(2)).h(q(0));
        c.h(q(1)).cx(q(1), q(2)).h(q(1));
        let a = analyze(&c, &QubitRoles::data_plus_answer(3)).unwrap();
        assert!(a.is_exact());
        assert_eq!(a.classicalized_gates, 0);
    }

    #[test]
    fn qft_style_phase_cascades_are_exact() {
        // CP between data qubits, with the control's H *before* the CP:
        // the semiclassical-QFT pattern.
        let mut c = Circuit::new(4, 0);
        c.h(q(0));
        c.cp(0.5, q(0), q(1)); // classicalized, but only diagonals follow on q0
        c.cp(0.25, q(0), q(2)); // another diagonal control use
        c.h(q(1));
        let roles = QubitRoles::data_plus_answer(4);
        let a = analyze(&c, &roles).unwrap();
        assert!(a.is_exact(), "{:?}", a.exactness);
        assert_eq!(a.classicalized_gates, 2);
    }

    #[test]
    fn hadamard_after_classicalized_control_is_flagged() {
        // The dynamic-1 pattern: CX(d0, d1) then H(d0).
        let mut c = Circuit::new(3, 0);
        c.h(q(0)).cx(q(0), q(1)).h(q(0)).cx(q(1), q(2));
        let roles = QubitRoles::data_plus_answer(3);
        let a = analyze(&c, &roles).unwrap();
        match a.exactness {
            Exactness::Approximate { ref conflicts } => {
                assert_eq!(conflicts.len(), 1);
                assert_eq!(conflicts[0].classicalized, 1);
                assert_eq!(conflicts[0].control, q(0));
                assert_eq!(conflicts[0].disturbance, 2);
                assert!(conflicts[0].to_string().contains("q0"));
            }
            Exactness::Exact => panic!("should be approximate"),
        }
    }

    #[test]
    fn x_after_control_also_counts_as_disturbance() {
        // X permutes the basis: the recorded bit no longer matches the
        // value at the gate's time.
        let mut c = Circuit::new(3, 0);
        c.cx(q(0), q(1)).x(q(0));
        let a = analyze(&c, &QubitRoles::data_plus_answer(3)).unwrap();
        assert!(!a.is_exact());
    }

    #[test]
    fn diagonal_followups_do_not_disturb() {
        let mut c = Circuit::new(3, 0);
        c.cx(q(0), q(1)).t(q(0)).z(q(0)).cz(q(0), q(2));
        let a = analyze(&c, &QubitRoles::data_plus_answer(3)).unwrap();
        assert!(a.is_exact());
        assert_eq!(a.classicalized_gates, 1);
    }

    #[test]
    fn answer_target_gates_are_not_classicalized() {
        let mut c = Circuit::new(3, 0);
        c.h(q(0)).cv(q(0), q(2)).h(q(0)); // H after a *quantum* control: fine
        let a = analyze(&c, &QubitRoles::data_plus_answer(3)).unwrap();
        assert!(a.is_exact());
        assert_eq!(a.classicalized_gates, 0);
    }

    #[test]
    fn multi_control_answer_targets_classicalize_all_but_last_control() {
        // CCX(d0, d1, ans): d0 is read classically in d1's iteration, and
        // the closing Hadamards disturb it. (Found by the property suite:
        // the first version of this analysis missed answer-target gates.)
        let mut c = Circuit::new(3, 0);
        c.h(q(0)).h(q(1)).ccx(q(0), q(1), q(2)).h(q(0)).h(q(1));
        let a = analyze(&c, &QubitRoles::data_plus_answer(3)).unwrap();
        assert_eq!(a.classicalized_gates, 1);
        assert!(!a.is_exact());

        // Without the closing Hadamard on d0, the classical read is safe.
        let mut ok = Circuit::new(3, 0);
        ok.h(q(0)).h(q(1)).ccx(q(0), q(1), q(2)).h(q(1));
        let a = analyze(&ok, &QubitRoles::data_plus_answer(3)).unwrap();
        assert!(a.is_exact());
        assert_eq!(a.classicalized_gates, 1);
    }

    #[test]
    fn analysis_propagates_ordering_errors() {
        let mut c = Circuit::new(3, 0);
        c.cx(q(0), q(1)).cx(q(1), q(0));
        assert!(analyze(&c, &QubitRoles::data_plus_answer(3)).is_err());
    }
}
