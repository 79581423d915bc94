//! Functional-equivalence verification of dynamic circuits.
//!
//! The paper validates its transformation by simulating traditional and
//! dynamic circuits 1024 times and comparing outcome probabilities. This
//! module does the same *exactly*: both sides are evaluated by
//! measurement-branch enumeration, so equality can be asserted to numerical
//! precision with no shot noise, and the accuracy gap of a scheme (the
//! paper's Fig. 7) is a well-defined number.

use crate::roles::QubitRoles;
use crate::transform::DynamicCircuit;
use qcir::{Circuit, Clbit};
use qobs::Observer;
use qsim::branch::exact_distribution;
use qsim::Distribution;
use std::fmt;

/// The outcome of comparing a traditional circuit with a dynamic
/// realization.
///
/// `expected_outcome` is the most probable outcome of the *traditional*
/// circuit (ties broken lexicographically) — the paper's "expected outcome"
/// whose probability Fig. 7 tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceReport {
    /// Exact outcome distribution of the traditional circuit (data register).
    pub traditional: Distribution,
    /// Exact outcome distribution of the dynamic circuit (result register).
    pub dynamic: Distribution,
    /// Total variation distance between the two.
    pub tvd: f64,
    /// Most probable traditional outcome.
    pub expected_outcome: String,
    /// Its probability under the traditional circuit.
    pub p_traditional: f64,
    /// Its probability under the dynamic circuit.
    pub p_dynamic: f64,
}

impl EquivalenceReport {
    /// `true` when the distributions agree within `tol` total variation.
    #[must_use]
    pub fn equivalent(&self, tol: f64) -> bool {
        self.tvd <= tol
    }
}

impl fmt::Display for EquivalenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tvd={:.6} expected='{}' p_tradi={:.4} p_dyn={:.4}",
            self.tvd, self.expected_outcome, self.p_traditional, self.p_dynamic
        )
    }
}

/// Exact outcome distribution of a traditional circuit's **data register**:
/// the circuit is run ideally and each data qubit is measured into the
/// classical bit given by its position in `roles.data()` — the same bit
/// layout the dynamic transformation uses, so keys are directly comparable.
///
/// # Panics
///
/// Panics if the circuit already uses classical bits (benchmark circuits
/// are measurement-free by construction).
#[must_use]
pub fn traditional_distribution(circuit: &Circuit, roles: &QubitRoles) -> Distribution {
    assert_eq!(
        circuit.num_clbits(),
        0,
        "traditional benchmark circuits must be measurement-free"
    );
    let mut measured = Circuit::new(circuit.num_qubits(), roles.data().len());
    measured.extend(circuit);
    for (i, &d) in roles.data().iter().enumerate() {
        measured.measure(d, Clbit::new(i));
    }
    exact_distribution(&measured)
}

/// Exact outcome distribution of a dynamic circuit's result register.
#[must_use]
pub fn dynamic_distribution(dynamic: &DynamicCircuit) -> Distribution {
    exact_distribution(dynamic.circuit())
}

/// Compares a traditional circuit against a dynamic realization of it.
#[must_use]
pub fn compare(
    circuit: &Circuit,
    roles: &QubitRoles,
    dynamic: &DynamicCircuit,
) -> EquivalenceReport {
    compare_observed(circuit, roles, dynamic, &Observer::disabled())
}

/// [`compare`] with instrumentation: the exact equivalence check runs
/// inside a `verify.equivalence` span.
#[must_use]
pub fn compare_observed(
    circuit: &Circuit,
    roles: &QubitRoles,
    dynamic: &DynamicCircuit,
    obs: &Observer,
) -> EquivalenceReport {
    let _span = obs.span("verify.equivalence");
    let traditional = traditional_distribution(circuit, roles);
    let dyn_dist = dynamic_distribution(dynamic);
    report(traditional, dyn_dist)
}

/// Compares while additionally measuring the given *answer* qubits on both
/// sides (traditional answer qubits vs. the dynamic circuit's corresponding
/// physical answer wires), for algorithms whose output lives on answer
/// qubits.
#[must_use]
pub fn compare_with_answers(
    circuit: &Circuit,
    roles: &QubitRoles,
    dynamic: &DynamicCircuit,
) -> EquivalenceReport {
    // Traditional side: measure data (register order) then answers above.
    let n_data = roles.data().len();
    let n_ans = roles.answer().len();
    let mut measured = Circuit::new(circuit.num_qubits(), n_data + n_ans);
    measured.extend(circuit);
    for (i, &d) in roles.data().iter().enumerate() {
        measured.measure(d, Clbit::new(i));
    }
    for (i, &a) in roles.answer().iter().enumerate() {
        measured.measure(a, Clbit::new(n_data + i));
    }
    let traditional = exact_distribution(&measured);

    // Dynamic side: extend with answer measurements.
    let mut dyn_measured = Circuit::new(dynamic.circuit().num_qubits(), n_data + n_ans);
    dyn_measured.extend(dynamic.circuit());
    for (i, &a) in dynamic.answer_qubits().iter().enumerate() {
        dyn_measured.measure(a, Clbit::new(n_data + i));
    }
    let dyn_dist = exact_distribution(&dyn_measured);
    report(traditional, dyn_dist)
}

/// Assembles the report of one comparison.
fn report(traditional: Distribution, dynamic: Distribution) -> EquivalenceReport {
    let tvd = traditional.tvd(&dynamic);
    let expected_outcome = traditional.argmax().unwrap_or_default().to_string();
    EquivalenceReport {
        p_traditional: traditional.get(&expected_outcome),
        p_dynamic: dynamic.get(&expected_outcome),
        traditional,
        dynamic,
        tvd,
        expected_outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{transform_with_scheme, DynamicScheme};
    use crate::transform::{transform, TransformOptions};
    use qcir::Qubit;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    /// BV circuit for a given hidden string over `n` data qubits.
    fn bv(bits: &[bool]) -> Circuit {
        let n = bits.len();
        let ans = q(n);
        let mut c = Circuit::new(n + 1, 0);
        c.x(ans).h(ans);
        for i in 0..n {
            c.h(q(i));
        }
        for (i, &b) in bits.iter().enumerate() {
            if b {
                c.cx(q(i), ans);
            }
        }
        for i in 0..n {
            c.h(q(i));
        }
        c
    }

    #[test]
    fn bv_dynamic_is_exactly_equivalent() {
        for bits in [
            vec![true, true],
            vec![true, false, true],
            vec![false, false, true, true],
        ] {
            let circ = bv(&bits);
            let roles = QubitRoles::data_plus_answer(bits.len() + 1);
            let d = transform(&circ, &roles, &TransformOptions::default()).unwrap();
            let report = compare(&circ, &roles, &d);
            assert!(report.equivalent(1e-10), "bv {bits:?}: {report}");
            // BV output is deterministic: the hidden string itself.
            assert!((report.p_traditional - 1.0).abs() < 1e-10);
            assert!((report.p_dynamic - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn expected_outcome_is_the_hidden_string() {
        let circ = bv(&[true, false, true]);
        let roles = QubitRoles::data_plus_answer(4);
        let d = transform(&circ, &roles, &TransformOptions::default()).unwrap();
        let report = compare(&circ, &roles, &d);
        // data bits (s0,s1,s2) = (1,0,1), key is MSB-first: "101".
        assert_eq!(report.expected_outcome, "101");
    }

    /// DJ circuit for the XOR oracle (balanced): deterministic output 11.
    fn dj_xor() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.x(q(2)).h(q(2));
        c.h(q(0)).h(q(1));
        c.cx(q(0), q(2)).cx(q(1), q(2));
        c.h(q(0)).h(q(1));
        c
    }

    #[test]
    fn dj_xor_dynamic_is_exactly_equivalent() {
        let roles = QubitRoles::data_plus_answer(3);
        let d = transform(&dj_xor(), &roles, &TransformOptions::default()).unwrap();
        let report = compare(&dj_xor(), &roles, &d);
        assert!(report.equivalent(1e-10), "{report}");
        assert_eq!(report.expected_outcome, "11");
    }

    /// DJ circuit for the AND oracle (one Toffoli).
    fn dj_and() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.x(q(2)).h(q(2));
        c.h(q(0)).h(q(1));
        c.ccx(q(0), q(1), q(2));
        c.h(q(0)).h(q(1));
        c
    }

    #[test]
    fn dynamic2_exactly_reproduces_single_toffoli_dj() {
        let roles = QubitRoles::data_plus_answer(3);
        let d2 = transform_with_scheme(
            &dj_and(),
            &roles,
            DynamicScheme::Dynamic2,
            &TransformOptions::default(),
        )
        .unwrap();
        let report = compare(&dj_and(), &roles, &d2);
        assert!(report.equivalent(1e-10), "{report}");
    }

    #[test]
    fn dynamic1_loses_accuracy_on_toffoli_dj() {
        // The paper's central observation: dynamic-1's classically
        // controlled CX between the Toffoli controls destroys coherence.
        let roles = QubitRoles::data_plus_answer(3);
        let d1 = transform_with_scheme(
            &dj_and(),
            &roles,
            DynamicScheme::Dynamic1,
            &TransformOptions::default(),
        )
        .unwrap();
        let report = compare(&dj_and(), &roles, &d1);
        assert!(
            report.tvd > 0.2,
            "dynamic-1 should deviate substantially, got {report}"
        );
    }

    #[test]
    fn dynamic2_beats_dynamic1_in_tvd() {
        let roles = QubitRoles::data_plus_answer(3);
        let opts = TransformOptions::default();
        let d1 = transform_with_scheme(&dj_and(), &roles, DynamicScheme::Dynamic1, &opts).unwrap();
        let d2 = transform_with_scheme(&dj_and(), &roles, DynamicScheme::Dynamic2, &opts).unwrap();
        let r1 = compare(&dj_and(), &roles, &d1);
        let r2 = compare(&dj_and(), &roles, &d2);
        assert!(
            r2.tvd < r1.tvd,
            "dynamic-2 (tvd {:.4}) should beat dynamic-1 (tvd {:.4})",
            r2.tvd,
            r1.tvd
        );
    }

    #[test]
    fn answer_qubit_comparison_includes_phase_register() {
        let roles = QubitRoles::data_plus_answer(3);
        let d = transform(&dj_xor(), &roles, &TransformOptions::default()).unwrap();
        let report = compare_with_answers(&dj_xor(), &roles, &d);
        assert!(report.equivalent(1e-10), "{report}");
        // Keys now have 3 bits: answer + 2 data.
        assert!(report.expected_outcome.len() == 3);
    }

    #[test]
    #[should_panic(expected = "measurement-free")]
    fn traditional_distribution_rejects_classical_bits() {
        let mut c = Circuit::new(2, 1);
        c.measure(q(0), Clbit::new(0));
        let roles = QubitRoles::data_plus_answer(2);
        let _ = traditional_distribution(&c, &roles);
    }
}
