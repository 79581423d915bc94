//! Output checks, run after the timed phases.
//!
//! A `dqctd` result must carry exactly the counts of the library run of the
//! same QASM, roles, scheme, seed and shots (`Pipeline::run` +
//! `run_resilient`): the executor's counter-based RNG makes that an exact
//! equality. A noisy library run must record every shot and lie within a
//! stated total variation distance of the exact noisy distribution.

use crate::inputs::Template;
use dqc::{Pipeline, QubitRoles};
use qcir::qasm::from_qasm;
use qcir::{Circuit, Qubit};
use qsim::density::exact_distribution_noisy;
use qsim::{Counts, Executor, NoiseModel};
use std::collections::HashMap;

/// The daemon's role rule for a job that names only its answer qubit:
/// every other qubit is data.
pub fn roles_for(circuit: &Circuit, answer: usize) -> QubitRoles {
    let data = (0..circuit.num_qubits())
        .filter(|&i| i != answer)
        .map(Qubit::new)
        .collect();
    QubitRoles::new(data, Vec::new(), vec![Qubit::new(answer)])
}

/// The transformed circuit, as the daemon's cache-miss path builds it.
pub fn dynamic_of(template: &Template) -> Circuit {
    let circuit = from_qasm(&template.qasm).expect("generated QASM parses");
    let roles = roles_for(&circuit, template.answer);
    let result = Pipeline::new()
        .scheme(template.scheme)
        .run(&circuit, &roles)
        .expect("generated circuits transform");
    result.dynamic.circuit().clone()
}

/// Counts rendered as the daemon renders them: `{"00":30,"11":34}`.
pub fn render_counts(counts: &Counts) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(bits, n)| format!("\"{bits}\":{n}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Checks every `(template index, seed, rendered counts)` against the
/// library run at `shots`; returns how many differ. Work is split over two
/// threads, each with its own transform memo.
pub fn svc_mismatches(templates: &[Template], jobs: &[(usize, u64, &str)], shots: u64) -> usize {
    let half = jobs.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = jobs
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut memo: HashMap<usize, Circuit> = HashMap::new();
                    chunk
                        .iter()
                        .filter(|&&(tpl, seed, counts)| {
                            let dynamic = memo
                                .entry(tpl)
                                .or_insert_with(|| dynamic_of(&templates[tpl]));
                            let (expected, _) = Executor::new()
                                .shots(shots)
                                .seed(seed)
                                .threads(1)
                                .run_resilient(dynamic);
                            render_counts(&expected) != counts
                        })
                        .count()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("check thread panicked"))
            .sum()
    })
}

/// The TVD a correct `shots`-shot sample of `exact` stays within, except
/// with probability below 1e-9: the mean bound `1/2 sum sqrt(p(1-p)/n)`
/// plus McDiarmid's deviation `sqrt(ln(1e9) / 2n)`.
pub fn tvd_tolerance(exact: &qsim::Distribution, shots: u64) -> f64 {
    let n = shots as f64;
    let mean: f64 = exact.iter().map(|(_, p)| (p * (1.0 - p) / n).sqrt()).sum();
    0.5 * mean + (1e9f64.ln() / (2.0 * n)).sqrt()
}

/// Total variation distance between sampled counts and a distribution.
pub fn tvd(counts: &Counts, exact: &qsim::Distribution) -> f64 {
    let n = counts.total().max(1) as f64;
    let mut sum: f64 = exact
        .iter()
        .map(|(bits, p)| (counts.get(bits) as f64 / n - p).abs())
        .sum();
    sum += counts
        .iter()
        .filter(|(bits, _)| exact.get(bits) == 0.0)
        .map(|(_, c)| c as f64 / n)
        .sum::<f64>();
    0.5 * sum
}

/// The exact noisy outcome distribution of each template's dynamic
/// circuit, the reference for [`noisy_check`].
pub fn exact_noisy(templates: &[Template], noise: &NoiseModel) -> Vec<qsim::Distribution> {
    templates
        .iter()
        .map(|t| exact_distribution_noisy(&dynamic_of(t), noise))
        .collect()
}

/// Checks one noisy library result: every shot recorded and the counts
/// within tolerance of `exact`. Returns whether it passed and its
/// TVD-to-tolerance ratio.
pub fn noisy_check(
    counts: &Counts,
    completed: u64,
    exact: &qsim::Distribution,
    shots: u64,
) -> (bool, f64) {
    let ratio = tvd(counts, exact) / tvd_tolerance(exact, shots);
    (
        completed == shots && counts.total() == shots && ratio <= 1.0,
        ratio,
    )
}
