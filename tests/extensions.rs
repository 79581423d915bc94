//! Design-space extensions, exercised across crates: iterative QPE, Simon,
//! Grover and the one-stop pipeline.

use dqc::{transform, verify, DynamicScheme, Pipeline, QubitRoles, TransformOptions};
use qalgo::{
    grover_circuit, optimal_iterations, qpe_circuit, run_simon, simon_circuit, TruthTable,
};
use qcir::Qubit;
use qsim::branch::exact_distribution_with_final_measure;

#[test]
fn dynamic_qpe_recovers_iterative_qpe_for_many_phases() {
    for k in 0..8u32 {
        let theta = f64::from(k) / 8.0 + 0.03;
        let circ = qpe_circuit(theta, 3);
        let roles = QubitRoles::data_plus_answer(4);
        let d = transform(&circ, &roles, &TransformOptions::default()).unwrap();
        let report = verify::compare(&circ, &roles, &d);
        assert!(report.equivalent(1e-8), "theta = {theta}: {report}");
        assert_eq!(d.circuit().num_qubits(), 2);
    }
}

#[test]
fn simon_hybrid_algorithm_runs_on_the_dynamic_circuit() {
    // Transform Simon's circuit, then run the classical recovery loop on
    // the *dynamic* realization's samples.
    let secret = vec![true, false, true];
    let n = secret.len();
    let circ = simon_circuit(&secret);
    let roles = QubitRoles::new(
        (0..n).map(Qubit::new).collect(),
        Vec::new(),
        (n..2 * n).map(Qubit::new).collect(),
    );
    let d = transform(&circ, &roles, &TransformOptions::default()).unwrap();
    assert_eq!(d.circuit().num_qubits(), n + 1);

    // Collect orthogonality equations from the dynamic circuit's exact
    // distribution support.
    let dist = verify::dynamic_distribution(&d);
    let mut rows = Vec::new();
    for (key, p) in dist.iter() {
        if p > 1e-12 {
            let y = u64::from_str_radix(key, 2).unwrap();
            if y != 0 {
                rows.push(y);
            }
        }
    }
    let found = qalgo::solve_gf2_nullspace(&rows, n).expect("full rank support");
    assert_eq!(found, secret);
}

#[test]
fn full_simon_driver_finds_secrets() {
    assert_eq!(
        run_simon(&[true, true, false], 300, 9).unwrap(),
        vec![true, true, false]
    );
}

#[test]
fn grover_traditional_works_where_dynamic_fails() {
    let n = 3;
    let marked = 0b110;
    let circ = grover_circuit(marked, n, optimal_iterations(n));
    let all: Vec<Qubit> = (0..n).map(Qubit::new).collect();
    let tradi = exact_distribution_with_final_measure(&circ, &all);
    assert!(tradi.get("110") > 0.9);

    let roles = QubitRoles::data_plus_answer(n);
    let d = transform(&circ, &roles, &TransformOptions::default()).unwrap();
    // The dynamic data register cannot reproduce the amplified marginal.
    let dyn_dist = verify::dynamic_distribution(&d);
    let marked_data = "10"; // data bits (q1, q0) of 0b110, MSB first
    let tradi_data_marginal: f64 = tradi
        .iter()
        .filter(|(k, _)| k.ends_with(marked_data))
        .map(|(_, p)| p)
        .sum();
    assert!(tradi_data_marginal > 0.9);
    assert!(dyn_dist.get(marked_data) < 0.9);
}

#[test]
fn pipeline_reports_match_direct_calls() {
    let circuit = qalgo::dj_circuit(&TruthTable::or(2));
    let roles = QubitRoles::data_plus_answer(3);
    let result = Pipeline::new()
        .scheme(DynamicScheme::Dynamic2)
        .run(&circuit, &roles)
        .unwrap();
    let d = dqc::transform_with_scheme(
        &circuit,
        &roles,
        DynamicScheme::Dynamic2,
        &TransformOptions::default(),
    )
    .unwrap();
    let report = verify::compare(&circuit, &roles, &d);
    assert_eq!(result.report.as_ref().unwrap().tvd, report.tvd);
    assert_eq!(
        result.resources.gates,
        dqc::ResourceSummary::of_dynamic(&d).gates
    );
    assert_eq!(result.qubit_saving(), 1);
}

#[test]
fn pauli_observables_distinguish_dynamic_collapse() {
    // After the dynamic transformation, a measured-then-reset data qubit
    // carries no coherence: check with <X> on the final state of a shot.
    use qsim::PauliString;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let circuit = qalgo::dj_circuit(&TruthTable::and(2));
    let roles = QubitRoles::data_plus_answer(3);
    let d = transform(&circuit, &roles, &TransformOptions::default()).unwrap();
    let exec = qsim::Executor::new();
    let mut rng = StdRng::seed_from_u64(3);
    let (_bits, state) = exec.run_shot_with_state(d.circuit(), &mut rng);
    let x0: PauliString = "XI".parse().unwrap();
    // The data wire was just measured: no X coherence.
    assert!(x0.expectation(&state).abs() < 1e-9);
}
