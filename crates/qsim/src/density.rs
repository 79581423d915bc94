//! Density-matrix simulation: exact mixed-state evolution with noise.
//!
//! The density-matrix backend evolves the full mixed state, so noise
//! channels are applied *exactly* rather than sampled. Combined with
//! branch enumeration over measurement outcomes it yields the exact outcome
//! distribution of a noisy dynamic circuit — the reference against which the
//! stochastic trajectory executor is validated.

use crate::counts::{bitstring, Distribution};
use crate::noise::{KrausChannel, NoiseModel};
use crate::prefix::BRANCH_EPS;
use crate::statevector::StateVector;
use qcir::{Circuit, OpKind};
use qmath::{CMatrix, C64};

/// A mixed quantum state on `n` qubits.
///
/// Uses the workspace index convention (qubit `q` on index bit `q`).
///
/// # Examples
///
/// ```
/// use qsim::DensityMatrix;
/// use qcir::Gate;
///
/// let mut rho = DensityMatrix::zero_state(1);
/// rho.apply_gate(&Gate::H, &[0]);
/// assert!((rho.purity() - 1.0).abs() < 1e-12);
/// assert!((rho.prob_one(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    mat: CMatrix,
}

impl DensityMatrix {
    /// The pure state `|0...0><0...0|`.
    #[must_use]
    pub fn zero_state(num_qubits: usize) -> Self {
        let dim = 1usize << num_qubits;
        let mut mat = CMatrix::zeros(dim, dim);
        mat[(0, 0)] = C64::one();
        Self { num_qubits, mat }
    }

    /// The pure state `|psi><psi|` of a statevector.
    #[must_use]
    pub fn from_statevector(sv: &StateVector) -> Self {
        let amps = sv.amplitudes();
        let dim = amps.len();
        let mut mat = CMatrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                mat[(i, j)] = amps[i] * amps[j].conj();
            }
        }
        Self {
            num_qubits: sv.num_qubits(),
            mat,
        }
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Borrows the underlying matrix.
    #[must_use]
    pub fn matrix(&self) -> &CMatrix {
        &self.mat
    }

    /// `Tr(rho)`; 1 for a normalized state.
    #[must_use]
    pub fn trace(&self) -> f64 {
        self.mat.trace().re
    }

    /// `Tr(rho^2)`; 1 for pure states, `1/2^n` for the maximally mixed.
    #[must_use]
    pub fn purity(&self) -> f64 {
        self.mat.mul(&self.mat).trace().re
    }

    /// Applies a unitary gate to the given wires.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or invalid wires.
    pub fn apply_gate(&mut self, gate: &qcir::Gate, qubits: &[usize]) {
        self.apply_matrix(&gate.matrix(), qubits);
    }

    /// Applies an arbitrary unitary to the given wires: `rho -> U rho U†`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension does not match `qubits.len()`.
    pub fn apply_matrix(&mut self, m: &CMatrix, qubits: &[usize]) {
        let u = m.embed(qubits, self.num_qubits);
        self.mat = u.mul(&self.mat).mul(&u.dagger());
    }

    /// Applies a Kraus channel exactly: `rho -> sum_i K_i rho K_i†`.
    ///
    /// # Panics
    ///
    /// Panics if the channel arity does not match `qubits.len()`.
    pub fn apply_kraus(&mut self, channel: &KrausChannel, qubits: &[usize]) {
        assert_eq!(channel.num_qubits(), qubits.len(), "channel arity mismatch");
        let dim = self.mat.rows();
        let mut out = CMatrix::zeros(dim, dim);
        for k in channel.operators() {
            let ke = k.embed(qubits, self.num_qubits);
            out = out.add(&ke.mul(&self.mat).mul(&ke.dagger()));
        }
        self.mat = out;
    }

    /// Probability of measuring `qubit` as 1.
    #[must_use]
    pub fn prob_one(&self, qubit: usize) -> f64 {
        let bit = 1usize << qubit;
        (0..self.mat.rows())
            .filter(|i| i & bit != 0)
            .map(|i| self.mat[(i, i)].re)
            .sum()
    }

    /// Diagonal of the density matrix: basis-state probabilities.
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.mat.rows()).map(|i| self.mat[(i, i)].re).collect()
    }

    /// Projects `qubit` onto `outcome` and renormalizes; returns the
    /// probability of that branch (0 leaves the state unusable).
    pub fn project(&mut self, qubit: usize, outcome: bool) -> f64 {
        let p1 = self.prob_one(qubit);
        let p = if outcome { p1 } else { 1.0 - p1 };
        if p <= f64::EPSILON {
            return 0.0;
        }
        let bit = 1usize << qubit;
        let dim = self.mat.rows();
        for i in 0..dim {
            for j in 0..dim {
                let keep = ((i & bit != 0) == outcome) && ((j & bit != 0) == outcome);
                if keep {
                    self.mat[(i, j)] = self.mat[(i, j)].scale(1.0 / p);
                } else {
                    self.mat[(i, j)] = C64::zero();
                }
            }
        }
        p
    }

    /// Active reset of `qubit` to `|0>` — the deterministic channel
    /// `rho -> P0 rho P0 + X P1 rho P1 X` (no branching needed).
    pub fn reset(&mut self, qubit: usize) {
        let bit = 1usize << qubit;
        let dim = self.mat.rows();
        let mut out = CMatrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                let v = self.mat[(i, j)];
                if v.is_zero(0.0) {
                    continue;
                }
                // Keep only blocks where both indices share the qubit value,
                // then map that value to 0.
                if (i & bit != 0) == (j & bit != 0) {
                    out[(i & !bit, j & !bit)] += v;
                }
            }
        }
        self.mat = out;
    }

    /// Traces out every qubit not in `keep`, returning the reduced state
    /// over the kept qubits (in the order given).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty, repeats a qubit or references a missing
    /// one.
    ///
    /// # Examples
    ///
    /// ```
    /// use qsim::DensityMatrix;
    /// use qcir::Gate;
    /// let mut bell = DensityMatrix::zero_state(2);
    /// bell.apply_gate(&Gate::H, &[0]);
    /// bell.apply_gate(&Gate::Cx, &[0, 1]);
    /// let half = bell.partial_trace(&[0]);
    /// assert!((half.purity() - 0.5).abs() < 1e-12); // maximally mixed
    /// ```
    #[must_use]
    pub fn partial_trace(&self, keep: &[usize]) -> DensityMatrix {
        assert!(!keep.is_empty(), "must keep at least one qubit");
        for (i, &q) in keep.iter().enumerate() {
            assert!(q < self.num_qubits, "qubit {q} out of range");
            assert!(!keep[..i].contains(&q), "duplicate kept qubit {q}");
        }
        let k = keep.len();
        let traced: Vec<usize> = (0..self.num_qubits).filter(|q| !keep.contains(q)).collect();
        let mut out = CMatrix::zeros(1 << k, 1 << k);
        let spread = |bits: usize, positions: &[usize]| -> usize {
            positions
                .iter()
                .enumerate()
                .map(|(j, &p)| ((bits >> j) & 1) << p)
                .sum()
        };
        for i in 0..1usize << k {
            for j in 0..1usize << k {
                let mut acc = C64::zero();
                for t in 0..1usize << traced.len() {
                    let row = spread(i, keep) | spread(t, &traced);
                    let col = spread(j, keep) | spread(t, &traced);
                    acc += self.mat[(row, col)];
                }
                out[(i, j)] = acc;
            }
        }
        DensityMatrix {
            num_qubits: k,
            mat: out,
        }
    }

    /// Linear entropy `1 - Tr(rho^2)` of the reduced state over `keep` — a
    /// cheap entanglement witness: 0 for product states, up to
    /// `1 - 1/2^k` for maximal entanglement with the rest.
    #[must_use]
    pub fn linear_entanglement_entropy(&self, keep: &[usize]) -> f64 {
        1.0 - self.partial_trace(keep).purity()
    }

    /// Fidelity against a pure state: `<psi| rho |psi>`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    #[must_use]
    pub fn fidelity_pure(&self, sv: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, sv.num_qubits(), "qubit count mismatch");
        let v = self.mat.mul_vec(sv.amplitudes());
        sv.amplitudes()
            .iter()
            .zip(v)
            .map(|(&a, b)| (a.conj() * b).re)
            .sum()
    }
}

/// Computes the exact outcome distribution of a (possibly dynamic) circuit
/// under a noise model, by exact density-matrix evolution with branch
/// enumeration over measurement outcomes (and readout-error record flips).
///
/// A branch (outcome or readout record) at or below
/// [`crate::prefix::BRANCH_EPS`] is dropped, the cutoff of
/// [`crate::branch::exact_distribution`], so with [`NoiseModel::ideal`]
/// the two agree to rounding error.
#[must_use]
pub fn exact_distribution_noisy(circuit: &Circuit, noise: &NoiseModel) -> Distribution {
    let mut dist = Distribution::new();
    let rho = DensityMatrix::zero_state(circuit.num_qubits());
    let classical = vec![false; circuit.num_clbits()];
    explore(circuit, 0, rho, classical, 1.0, noise, &mut dist);
    dist.prune(BRANCH_EPS);
    dist
}

#[allow(clippy::too_many_arguments)]
fn explore(
    circuit: &Circuit,
    start: usize,
    mut rho: DensityMatrix,
    classical: Vec<bool>,
    weight: f64,
    noise: &NoiseModel,
    dist: &mut Distribution,
) {
    let insts = circuit.instructions();
    let mut idx = start;
    while idx < insts.len() {
        let inst = &insts[idx];
        if let Some(cond) = inst.condition() {
            if !cond.evaluate(&classical) {
                idx += 1;
                continue;
            }
        }
        match inst.kind() {
            OpKind::Barrier => {}
            OpKind::Gate(g) => {
                let qubits: Vec<usize> = inst.qubits().iter().map(|q| q.index()).collect();
                rho.apply_gate(g, &qubits);
                match noise.gate_noise(qubits.len()) {
                    Some(crate::noise::GateNoise::Joint(channel)) => {
                        rho.apply_kraus(channel, &qubits);
                    }
                    Some(crate::noise::GateNoise::PerOperand(channel)) => {
                        for &q in &qubits {
                            rho.apply_kraus(channel, &[q]);
                        }
                    }
                    None => {}
                }
            }
            OpKind::Measure => {
                let q = inst.qubits()[0].index();
                let cbit = inst.clbits()[0].index();
                let p1 = rho.prob_one(q).clamp(0.0, 1.0);
                let r = noise.readout_flip;
                // Four weighted branches: (true state outcome) x (record).
                for state_outcome in [false, true] {
                    let p_state = if state_outcome { p1 } else { 1.0 - p1 };
                    if p_state <= BRANCH_EPS {
                        continue;
                    }
                    let mut rho_b = rho.clone();
                    rho_b.project(q, state_outcome);
                    let records: &[(bool, f64)] = if r > 0.0 {
                        &[(state_outcome, 1.0 - r), (!state_outcome, r)]
                    } else {
                        &[(state_outcome, 1.0)]
                    };
                    for &(record, p_rec) in records {
                        if p_rec <= BRANCH_EPS {
                            continue;
                        }
                        let mut cl = classical.clone();
                        cl[cbit] = record;
                        explore(
                            circuit,
                            idx + 1,
                            rho_b.clone(),
                            cl,
                            weight * p_state * p_rec,
                            noise,
                            dist,
                        );
                    }
                }
                return;
            }
            OpKind::Reset => {
                let q = inst.qubits()[0].index();
                rho.reset(q);
                let e = noise.reset_error;
                if e > 0.0 {
                    // rho -> (1-e) rho + e X rho X.
                    let mut flipped = rho.clone();
                    flipped.apply_gate(&qcir::Gate::X, &[q]);
                    let dim = rho.mat.rows();
                    let mut mixed = CMatrix::zeros(dim, dim);
                    mixed = mixed.add(&rho.mat.scale(C64::real(1.0 - e)));
                    mixed = mixed.add(&flipped.mat.scale(C64::real(e)));
                    rho.mat = mixed;
                }
            }
        }
        idx += 1;
    }
    dist.add(bitstring(&classical), weight);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::exact_distribution;
    use qcir::{Clbit, Gate, Qubit};

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn c(i: usize) -> Clbit {
        Clbit::new(i)
    }

    #[test]
    fn zero_state_is_pure() {
        let rho = DensityMatrix::zero_state(2);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_statevector_round_trips_probabilities() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::H, &[0]);
        sv.apply_gate(&Gate::Cx, &[0, 1]);
        let rho = DensityMatrix::from_statevector(&sv);
        let p = rho.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!((rho.fidelity_pure(&sv) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut sv = StateVector::zero_state(2);
        let mut rho = DensityMatrix::zero_state(2);
        for (g, qs) in [
            (Gate::H, vec![0usize]),
            (Gate::T, vec![1]),
            (Gate::Cv, vec![0, 1]),
            (Gate::Cx, vec![1, 0]),
        ] {
            sv.apply_gate(&g, &qs);
            rho.apply_gate(&g, &qs);
        }
        let expect = DensityMatrix::from_statevector(&sv);
        assert!(rho.matrix().approx_eq(expect.matrix(), 1e-10));
    }

    #[test]
    fn depolarizing_reduces_purity() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H, &[0]);
        rho.apply_kraus(&KrausChannel::depolarizing(0.5, 1), &[0]);
        assert!(rho.purity() < 0.99);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_kraus(&KrausChannel::depolarizing(1.0, 1), &[0]);
        assert!((rho.purity() - 0.5).abs() < 1e-10);
        assert!((rho.prob_one(0) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn projection_weights_match_probabilities() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H, &[0]);
        let p = rho.clone().project(0, true);
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_maps_to_zero_preserving_partner() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::H, &[0]);
        rho.apply_gate(&Gate::Cx, &[0, 1]);
        rho.reset(0);
        assert!(rho.prob_one(0) < 1e-12);
        assert!((rho.prob_one(1) - 0.5).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_trace_of_product_state_is_pure() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::H, &[0]);
        rho.apply_gate(&Gate::X, &[1]);
        let q0 = rho.partial_trace(&[0]);
        assert!((q0.purity() - 1.0).abs() < 1e-12);
        assert!((q0.prob_one(0) - 0.5).abs() < 1e-12);
        let q1 = rho.partial_trace(&[1]);
        assert!((q1.prob_one(0) - 1.0).abs() < 1e-12);
        assert!(rho.linear_entanglement_entropy(&[0]).abs() < 1e-12);
    }

    #[test]
    fn partial_trace_of_bell_half_is_maximally_mixed() {
        let mut bell = DensityMatrix::zero_state(2);
        bell.apply_gate(&Gate::H, &[0]);
        bell.apply_gate(&Gate::Cx, &[0, 1]);
        let half = bell.partial_trace(&[1]);
        assert!((half.purity() - 0.5).abs() < 1e-12);
        assert!((bell.linear_entanglement_entropy(&[1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_trace_keep_order_permutes() {
        // |q0 q1> = |01>: keep [1, 0] puts q1 on the low bit of the result.
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::X, &[0]);
        let swapped = rho.partial_trace(&[1, 0]);
        // Result qubit 0 = original q1 (state 0), result qubit 1 = q0 (1).
        assert!((swapped.prob_one(0)).abs() < 1e-12);
        assert!((swapped.prob_one(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_marginals_are_mixed() {
        let mut ghz = DensityMatrix::zero_state(3);
        ghz.apply_gate(&Gate::H, &[0]);
        ghz.apply_gate(&Gate::Cx, &[0, 1]);
        ghz.apply_gate(&Gate::Cx, &[1, 2]);
        let two = ghz.partial_trace(&[0, 1]);
        assert!((two.purity() - 0.5).abs() < 1e-12);
        assert!((two.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate kept qubit")]
    fn partial_trace_rejects_duplicates() {
        let rho = DensityMatrix::zero_state(2);
        let _ = rho.partial_trace(&[0, 0]);
    }

    #[test]
    fn ideal_noisy_distribution_matches_pure_branching() {
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0))
            .cx(q(0), q(1))
            .measure(q(0), c(0))
            .reset(q(0))
            .x_if(q(0), c(0))
            .measure(q(1), c(1));
        let ideal = exact_distribution(&circ);
        let dm = exact_distribution_noisy(&circ, &NoiseModel::ideal());
        assert!(ideal.tvd(&dm) < 1e-10, "tvd = {}", ideal.tvd(&dm));
    }

    #[test]
    fn readout_error_mixes_records_exactly() {
        let mut circ = Circuit::new(1, 1);
        circ.measure(q(0), c(0));
        let noise = NoiseModel {
            readout_flip: 0.25,
            ..NoiseModel::ideal()
        };
        let d = exact_distribution_noisy(&circ, &noise);
        assert!((d.get("1") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reset_error_mixes_population_exactly() {
        let mut circ = Circuit::new(1, 1);
        circ.x(q(0)).reset(q(0)).measure(q(0), c(0));
        let noise = NoiseModel {
            reset_error: 0.1,
            ..NoiseModel::ideal()
        };
        let d = exact_distribution_noisy(&circ, &noise);
        assert!((d.get("1") - 0.1).abs() < 1e-12);
    }

    #[test]
    fn trajectory_executor_converges_to_density_result() {
        use crate::executor::Executor;
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0)).cx(q(0), q(1)).measure_all();
        let noise = NoiseModel::depolarizing(0.02, 0.05);
        let exact = exact_distribution_noisy(&circ, &noise);
        let sampled = Executor::new()
            .shots(20000)
            .seed(21)
            .noise(noise)
            .run(&circ)
            .to_distribution();
        let tvd = exact.tvd(&sampled);
        assert!(tvd < 0.02, "tvd {tvd} too large");
    }

    #[test]
    fn ideal_noise_drops_the_same_branches_as_the_branch_enumerator() {
        // Outcome 1 has probability 1e-13, within `prefix::BRANCH_EPS`:
        // both enumerators drop it and agree exactly.
        let theta = 2.0 * (1e-13f64).sqrt().asin();
        let mut circ = Circuit::new(1, 1);
        circ.ry(theta, q(0)).measure(q(0), c(0));
        let d = exact_distribution_noisy(&circ, &NoiseModel::ideal());
        assert_eq!(d, exact_distribution(&circ));
        assert_eq!(d.get("0"), 1.0, "{d:?}");
    }

    #[test]
    fn conditioned_gates_respect_classical_state_in_density_backend() {
        let mut circ = Circuit::new(2, 2);
        circ.x(q(0))
            .measure(q(0), c(0))
            .x_if(q(1), c(0))
            .measure(q(1), c(1));
        let d = exact_distribution_noisy(&circ, &NoiseModel::ideal());
        assert!((d.get("11") - 1.0).abs() < 1e-12);
    }
}
