//! The paper's named transformation schemes: dynamic-1 and dynamic-2.
//!
//! Both schemes first lower every Toffoli gate to two-qubit primitives and
//! then run Algorithm 1 ([`crate::transform`]):
//!
//! * **dynamic-1** uses the 5-gate CV/CV†/CX network (paper Eqn 1/2). The
//!   `CX`s between the two control qubits become classically controlled X
//!   gates, conditioned on measurement results taken *after* the controls'
//!   basis-changing gates — an approximation that costs accuracy.
//! * **dynamic-2** first unrolls each Toffoli over one shared clean ancilla
//!   (paper Eqn 3/4, with the sharing of Lemma 1), so control qubits never
//!   interact with each other directly; the cost is one extra iteration and
//!   two extra classically controlled X gates per Toffoli.

use crate::error::DqcError;
use crate::roles::QubitRoles;
use crate::transform::{transform_observed, DynamicCircuit, TransformOptions};
use qcir::decompose::{decompose_ccx, ToffoliStyle};
use qcir::{Circuit, Gate, Qubit};
use qobs::Observer;
use std::fmt;
use std::str::FromStr;

/// Which dynamic realization of Toffoli gates to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DynamicScheme {
    /// No Toffoli lowering: `CCX` gates with data controls are turned into
    /// classically conditioned `CX`/`X` directly. Not described in the
    /// paper; provided as a baseline.
    Direct,
    /// The paper's **dynamic-1** (Eqn 2): Barenco CV-chain decomposition.
    Dynamic1,
    /// The paper's **dynamic-2** (Eqn 4): ancilla-unrolled CV decomposition
    /// with Lemma 1 ancilla sharing (one extra iteration total).
    Dynamic2,
}

impl fmt::Display for DynamicScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DynamicScheme::Direct => "direct",
            DynamicScheme::Dynamic1 => "dynamic-1",
            DynamicScheme::Dynamic2 => "dynamic-2",
        };
        f.write_str(name)
    }
}

impl FromStr for DynamicScheme {
    type Err = String;

    /// Parses the CLI and wire spellings: `direct`, `dynamic1` or
    /// `dynamic-1`, `dynamic2` or `dynamic-2`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "direct" => Ok(DynamicScheme::Direct),
            "dynamic1" | "dynamic-1" => Ok(DynamicScheme::Dynamic1),
            "dynamic2" | "dynamic-2" => Ok(DynamicScheme::Dynamic2),
            _ => Err(format!("unknown scheme '{s}'")),
        }
    }
}

/// Lowers Toffolis according to `scheme` and applies Algorithm 1.
///
/// For [`DynamicScheme::Dynamic2`] the shared ancilla wire introduced by the
/// decomposition is appended to the role partition as an ancilla, adding one
/// iteration (Lemma 1).
///
/// # Errors
///
/// Propagates every error of [`transform`](crate::transform()). The role
/// partition is checked against `circuit` before lowering, so a
/// [`DqcError::InvalidRoles`] names the caller's qubits and width, not
/// those of the dynamic-2 circuit with its added ancilla.
///
/// # Examples
///
/// ```
/// use dqc::{transform_with_scheme, DynamicScheme, QubitRoles, TransformOptions};
/// use qcir::{Circuit, Qubit};
///
/// let q = Qubit::new;
/// let mut circ = Circuit::new(3, 0);
/// circ.h(q(0)).h(q(1)).ccx(q(0), q(1), q(2));
/// let roles = QubitRoles::data_plus_answer(3);
/// let opts = TransformOptions::default();
///
/// let d1 = transform_with_scheme(&circ, &roles, DynamicScheme::Dynamic1, &opts).unwrap();
/// let d2 = transform_with_scheme(&circ, &roles, DynamicScheme::Dynamic2, &opts).unwrap();
/// assert_eq!(d1.num_iterations(), 2);
/// assert_eq!(d2.num_iterations(), 3); // one extra iteration (Lemma 1)
/// ```
pub fn transform_with_scheme(
    circuit: &Circuit,
    roles: &QubitRoles,
    scheme: DynamicScheme,
    options: &TransformOptions,
) -> Result<DynamicCircuit, DqcError> {
    transform_with_scheme_observed(circuit, roles, scheme, options, &Observer::disabled())
}

/// [`transform_with_scheme`] with instrumentation: a `transform.lower`
/// span covers the Toffoli lowering, then delegates to
/// [`transform_observed`](crate::transform_observed).
///
/// # Errors
///
/// Same as [`transform_with_scheme`].
pub fn transform_with_scheme_observed(
    circuit: &Circuit,
    roles: &QubitRoles,
    scheme: DynamicScheme,
    options: &TransformOptions,
    obs: &Observer,
) -> Result<DynamicCircuit, DqcError> {
    let (lowered, roles) = lower_for_scheme(circuit, roles, scheme, obs)?;
    transform_observed(&lowered, &roles, options, obs)
}

/// Lowers Toffolis according to `scheme` without running Algorithm 1: the
/// shared front half of [`transform_with_scheme_observed`] and the reuse
/// planner ([`crate::plan_with_scheme`]), which transforms the lowered
/// circuit many times under different lane plans.
///
/// Returns the lowered circuit together with the (possibly extended) role
/// partition — dynamic-2 appends the decomposition's shared ancilla wires.
///
/// # Errors
///
/// Returns [`DqcError::InvalidRoles`] when `roles` does not partition the
/// qubits of `circuit`. The check runs on the caller's circuit, before
/// dynamic-2 adds its ancilla wires, so the message names the caller's
/// qubits and width.
pub(crate) fn lower_for_scheme(
    circuit: &Circuit,
    roles: &QubitRoles,
    scheme: DynamicScheme,
    obs: &Observer,
) -> Result<(Circuit, QubitRoles), DqcError> {
    roles.validate(circuit)?;
    Ok(match scheme {
        DynamicScheme::Direct => (circuit.clone(), roles.clone()),
        DynamicScheme::Dynamic1 => {
            let _span = obs.span("transform.lower");
            let oriented = orient_toffolis(circuit, roles);
            let lowered = decompose_ccx(&oriented, ToffoliStyle::CvChain);
            (lowered, roles.clone())
        }
        DynamicScheme::Dynamic2 => {
            let mut roles = roles.clone();
            let _span = obs.span("transform.lower");
            let ancillas = qcir::decompose::cv_ancilla_wires(circuit);
            let lowered = decompose_ccx(circuit, ToffoliStyle::CvAncilla);
            for a in ancillas {
                roles = roles.with_extra_ancilla(a);
            }
            (lowered, roles)
        }
    })
}

/// Reorders each Toffoli's (symmetric) control pair so that the control
/// earlier in the work-qubit order comes first.
///
/// The Barenco CV-chain decomposition places its `CX`s from the first
/// control to the second, which in turn forces the first control's
/// iteration before the second's (Case 2). Without this normalization a
/// network like the CARRY oracle's Toffolis on control pairs (a,b), (b,c),
/// (c,a) yields a *cyclic* dependency and no dynamic-1 realization — a
/// subtlety the paper leaves implicit.
fn orient_toffolis(circuit: &Circuit, roles: &QubitRoles) -> Circuit {
    let work = roles.work_qubits();
    let pos = |q: Qubit| work.iter().position(|&w| w == q).unwrap_or(usize::MAX);
    let mut out = Circuit::with_name(
        circuit.name().to_string(),
        circuit.num_qubits(),
        circuit.num_clbits(),
    );
    for inst in circuit.iter() {
        match inst.as_gate() {
            Some(Gate::Ccx) if !inst.is_conditioned() => {
                let q = inst.qubits();
                let (c0, c1) = if pos(q[0]) <= pos(q[1]) {
                    (q[0], q[1])
                } else {
                    (q[1], q[0])
                };
                out.ccx(c0, c1, q[2]);
            }
            _ => {
                out.push(inst.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::CircuitStats;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    /// DJ oracle for AND: prepare answer, Hadamard data, Toffoli, Hadamard.
    fn dj_and() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.x(q(2)).h(q(2));
        c.h(q(0)).h(q(1));
        c.ccx(q(0), q(1), q(2));
        c.h(q(0)).h(q(1));
        c
    }

    #[test]
    fn all_schemes_produce_two_qubit_circuits() {
        let roles = QubitRoles::data_plus_answer(3);
        for scheme in [
            DynamicScheme::Direct,
            DynamicScheme::Dynamic1,
            DynamicScheme::Dynamic2,
        ] {
            let d = transform_with_scheme(&dj_and(), &roles, scheme, &TransformOptions::default())
                .unwrap();
            assert_eq!(d.circuit().num_qubits(), 2, "{scheme}");
            assert_eq!(d.circuit().num_clbits(), 2, "{scheme}");
        }
    }

    #[test]
    fn scheme_spellings_parse_back() {
        for (scheme, wire) in [
            (DynamicScheme::Direct, "direct"),
            (DynamicScheme::Dynamic1, "dynamic1"),
            (DynamicScheme::Dynamic2, "dynamic2"),
        ] {
            assert_eq!(scheme.to_string().parse(), Ok(scheme));
            assert_eq!(wire.parse(), Ok(scheme));
        }
        assert_eq!(
            "dynamic3".parse::<DynamicScheme>(),
            Err("unknown scheme 'dynamic3'".to_string())
        );
    }

    #[test]
    fn role_errors_name_the_callers_circuit() {
        // Dynamic-2 lowering adds an ancilla wire, q3, to this 3-qubit
        // circuit; a bad role partition is still judged against the input.
        let mut circ = Circuit::new(3, 0);
        circ.h(q(0)).h(q(1)).ccx(q(0), q(1), q(2));
        let opts = TransformOptions::default();
        for answer in [3, 7] {
            let roles = QubitRoles::new(vec![q(0), q(1), q(2)], vec![], vec![q(answer)]);
            let expected = format!("q{answer} does not exist in a 3-qubit circuit");
            let transformed =
                transform_with_scheme(&circ, &roles, DynamicScheme::Dynamic2, &opts).unwrap_err();
            let planned = crate::plan_with_scheme(
                &circ,
                &roles,
                DynamicScheme::Dynamic2,
                crate::ReuseMode::Auto,
                &crate::CostModel::default(),
                &opts,
            )
            .unwrap_err();
            for err in [transformed, planned] {
                assert!(matches!(err, DqcError::InvalidRoles { .. }), "{err}");
                assert!(err.to_string().ends_with(&expected), "{err}");
            }
        }
    }

    #[test]
    fn dynamic2_adds_exactly_one_iteration() {
        let roles = QubitRoles::data_plus_answer(3);
        let opts = TransformOptions::default();
        let d1 = transform_with_scheme(&dj_and(), &roles, DynamicScheme::Dynamic1, &opts).unwrap();
        let d2 = transform_with_scheme(&dj_and(), &roles, DynamicScheme::Dynamic2, &opts).unwrap();
        assert_eq!(d1.num_iterations(), 2);
        assert_eq!(d2.num_iterations(), 3);
        assert_eq!(CircuitStats::of(d2.circuit()).reset_count, 2);
    }

    #[test]
    fn lemma1_shares_one_iteration_across_toffolis() {
        // Two Toffolis on the same target: still just one extra iteration.
        let mut c = Circuit::new(4, 0);
        c.ccx(q(0), q(1), q(3)).ccx(q(1), q(2), q(3));
        let roles = QubitRoles::data_plus_answer(4);
        let d = transform_with_scheme(
            &c,
            &roles,
            DynamicScheme::Dynamic2,
            &TransformOptions::default(),
        )
        .unwrap();
        assert_eq!(d.num_iterations(), 4); // 3 data + 1 shared ancilla
    }

    #[test]
    fn dynamic2_costs_two_conditioned_x_per_toffoli() {
        // The paper's headline cost claim for dynamic-2: one extra reset
        // plus two extra classically controlled X per Toffoli.
        let roles = QubitRoles::data_plus_answer(3);
        let opts = TransformOptions::default();
        let d2 = transform_with_scheme(&dj_and(), &roles, DynamicScheme::Dynamic2, &opts).unwrap();
        let s2 = CircuitStats::of(d2.circuit());
        assert_eq!(s2.conditioned_count, 2, "{}", d2.circuit());

        // Three Toffolis on a common target (the CARRY/MAJ oracle): 6.
        let mut carry = Circuit::new(4, 0);
        carry.x(q(3)).h(q(3));
        for d in 0..3 {
            carry.h(q(d));
        }
        carry
            .ccx(q(0), q(1), q(3))
            .ccx(q(1), q(2), q(3))
            .ccx(q(2), q(0), q(3));
        for d in 0..3 {
            carry.h(q(d));
        }
        let roles4 = QubitRoles::data_plus_answer(4);
        let dc = transform_with_scheme(&carry, &roles4, DynamicScheme::Dynamic2, &opts).unwrap();
        let sc = CircuitStats::of(dc.circuit());
        assert_eq!(sc.conditioned_count, 6, "{}", dc.circuit());
    }

    #[test]
    fn dynamic1_uses_conditioned_x_between_controls() {
        let roles = QubitRoles::data_plus_answer(3);
        let d1 = transform_with_scheme(
            &dj_and(),
            &roles,
            DynamicScheme::Dynamic1,
            &TransformOptions::default(),
        )
        .unwrap();
        let s = CircuitStats::of(d1.circuit());
        // Barenco chain has two CX between the controls.
        assert_eq!(s.conditioned_count, 2);
        // And no ancilla iteration: only one reset.
        assert_eq!(s.reset_count, 1);
    }

    #[test]
    fn gate_count_ordering_matches_paper_tables() {
        // Table II shape: tradi < dynamic-1 < dynamic-2 in gate count.
        let roles = QubitRoles::data_plus_answer(3);
        let opts = TransformOptions::default();
        let d1 = transform_with_scheme(&dj_and(), &roles, DynamicScheme::Dynamic1, &opts).unwrap();
        let d2 = transform_with_scheme(&dj_and(), &roles, DynamicScheme::Dynamic2, &opts).unwrap();
        let g1 = CircuitStats::of(d1.circuit()).gate_count;
        let g2 = CircuitStats::of(d2.circuit()).gate_count;
        assert!(
            g1 < g2,
            "dynamic-1 ({g1}) should be smaller than dynamic-2 ({g2})"
        );
    }

    #[test]
    fn toffoli_free_circuits_are_scheme_independent() {
        let mut bv = Circuit::new(3, 0);
        bv.x(q(2)).h(q(2));
        bv.h(q(0)).cx(q(0), q(2)).h(q(0));
        bv.h(q(1)).cx(q(1), q(2)).h(q(1));
        let roles = QubitRoles::data_plus_answer(3);
        let opts = TransformOptions::default();
        let d1 = transform_with_scheme(&bv, &roles, DynamicScheme::Dynamic1, &opts).unwrap();
        let d2 = transform_with_scheme(&bv, &roles, DynamicScheme::Dynamic2, &opts).unwrap();
        assert_eq!(d1.circuit().instructions(), d2.circuit().instructions());
    }

    #[test]
    fn scheme_display_names() {
        assert_eq!(DynamicScheme::Dynamic1.to_string(), "dynamic-1");
        assert_eq!(DynamicScheme::Dynamic2.to_string(), "dynamic-2");
        assert_eq!(DynamicScheme::Direct.to_string(), "direct");
    }
}
