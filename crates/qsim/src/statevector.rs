//! Pure-state (statevector) quantum simulation.

use qmath::{CMatrix, C64};
use rand::Rng;

/// A pure quantum state on `n` qubits.
///
/// Amplitudes are indexed with qubit `q` on bit `q` of the basis-state index
/// (least-significant first), the same convention as
/// [`qcir::Gate::matrix`](qcir::Gate::matrix).
///
/// # Examples
///
/// ```
/// use qsim::StateVector;
/// use qcir::Gate;
///
/// let mut sv = StateVector::zero_state(2);
/// sv.apply_gate(&Gate::H, &[0]);
/// sv.apply_gate(&Gate::Cx, &[0, 1]);
/// let p = sv.probabilities();
/// assert!((p[0b00] - 0.5).abs() < 1e-12);
/// assert!((p[0b11] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0...0>`.
    #[must_use]
    pub fn zero_state(num_qubits: usize) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// The computational basis state `|index>`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_qubits`.
    #[must_use]
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        let dim = 1usize << num_qubits;
        assert!(
            index < dim,
            "basis index {index} out of range for {num_qubits} qubits"
        );
        let mut amps = vec![C64::zero(); dim];
        amps[index] = C64::one();
        Self { num_qubits, amps }
    }

    /// Builds a state from raw amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the norm differs from 1
    /// by more than `1e-6`.
    #[must_use]
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let dim = amps.len();
        assert!(
            dim.is_power_of_two(),
            "amplitude count must be a power of two"
        );
        let num_qubits = dim.trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-6,
            "state is not normalized (norm^2 = {norm})"
        );
        Self { num_qubits, amps }
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Borrows the amplitude vector.
    #[must_use]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Applies a gate to the given qubit wires (operand `k` of the gate on
    /// `qubits[k]`).
    ///
    /// Common gates (Paulis, phases, H, CX, CZ/CP, SWAP, CCX/MCX) take
    /// specialized bit-twiddling paths; everything else goes through the
    /// general [`StateVector::apply_matrix`]. The property tests pin the
    /// fast paths to the general one.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or out-of-range/duplicate wires.
    pub fn apply_gate(&mut self, gate: &qcir::Gate, qubits: &[usize]) {
        use qcir::Gate as G;
        assert_eq!(
            qubits.len(),
            gate.num_qubits(),
            "gate {gate} arity mismatch"
        );
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < self.num_qubits, "qubit {q} out of range");
            assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
        }
        match gate {
            G::I => {}
            G::X => self.fast_permute(0, 1 << qubits[0]),
            G::Z => self.fast_phase(1 << qubits[0], C64::real(-1.0)),
            G::S => self.fast_phase(1 << qubits[0], C64::i()),
            G::Sdg => self.fast_phase(1 << qubits[0], -C64::i()),
            G::T => self.fast_phase(1 << qubits[0], C64::cis(std::f64::consts::FRAC_PI_4)),
            G::Tdg => self.fast_phase(1 << qubits[0], C64::cis(-std::f64::consts::FRAC_PI_4)),
            G::P(t) | G::Rz(t) => {
                // Rz differs from P by a global phase only.
                if matches!(gate, G::Rz(_)) {
                    // Track the global phase to stay exactly equal to the
                    // matrix definition (tests compare amplitudes).
                    let g = C64::cis(-t / 2.0);
                    for a in &mut self.amps {
                        *a *= g;
                    }
                    self.fast_phase(1 << qubits[0], C64::cis(*t));
                } else {
                    self.fast_phase(1 << qubits[0], C64::cis(*t));
                }
            }
            G::H => self.fast_h(qubits[0]),
            G::Cx => self.fast_permute(1 << qubits[0], 1 << qubits[1]),
            G::Cz => self.fast_phase((1 << qubits[0]) | (1 << qubits[1]), C64::real(-1.0)),
            G::Cp(t) => {
                self.fast_phase((1 << qubits[0]) | (1 << qubits[1]), C64::cis(*t));
            }
            G::Swap => self.fast_swap(qubits[0], qubits[1]),
            G::Ccx => {
                self.fast_permute((1 << qubits[0]) | (1 << qubits[1]), 1 << qubits[2]);
            }
            G::Ccz => self.fast_phase(
                (1 << qubits[0]) | (1 << qubits[1]) | (1 << qubits[2]),
                C64::real(-1.0),
            ),
            G::Mcx(n) => {
                let mut cmask = 0usize;
                for &c in &qubits[..*n] {
                    cmask |= 1 << c;
                }
                self.fast_permute(cmask, 1 << qubits[*n]);
            }
            _ => self.apply_matrix(&gate.matrix(), qubits),
        }
    }

    /// `X` on `target_mask` controlled on all bits of `control_mask`:
    /// swaps amplitude pairs.
    fn fast_permute(&mut self, control_mask: usize, target_bit: usize) {
        for i in 0..self.amps.len() {
            if i & target_bit == 0 && i & control_mask == control_mask {
                self.amps.swap(i, i | target_bit);
            }
        }
    }

    /// Multiplies amplitudes with all `mask` bits set by `phase`.
    fn fast_phase(&mut self, mask: usize, phase: C64) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            if i & mask == mask {
                *a *= phase;
            }
        }
    }

    /// Hadamard butterfly on one qubit.
    fn fast_h(&mut self, qubit: usize) {
        let bit = 1usize << qubit;
        let s = std::f64::consts::FRAC_1_SQRT_2;
        for i in 0..self.amps.len() {
            if i & bit == 0 {
                let a = self.amps[i];
                let b = self.amps[i | bit];
                self.amps[i] = (a + b).scale(s);
                self.amps[i | bit] = (a - b).scale(s);
            }
        }
    }

    /// Swaps two qubits' amplitudes.
    fn fast_swap(&mut self, a: usize, b: usize) {
        let (ba, bb) = (1usize << a, 1usize << b);
        for i in 0..self.amps.len() {
            if i & ba != 0 && i & bb == 0 {
                self.amps.swap(i, (i & !ba) | bb);
            }
        }
    }

    /// Applies an arbitrary `2^k`-dimensional unitary to `qubits`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension is not `2^qubits.len()` or wires are
    /// invalid.
    pub fn apply_matrix(&mut self, m: &CMatrix, qubits: &[usize]) {
        let k = qubits.len();
        assert_eq!(m.rows(), 1 << k, "matrix dimension mismatch");
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < self.num_qubits, "qubit {q} out of range");
            assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
        }
        let mut qmask = 0usize;
        for &q in qubits {
            qmask |= 1 << q;
        }
        let dim = self.amps.len();
        let sub = 1usize << k;
        let mut gathered = vec![C64::zero(); sub];
        for base in 0..dim {
            if base & qmask != 0 {
                continue;
            }
            for (s, g) in gathered.iter_mut().enumerate() {
                *g = self.amps[base | spread(s, qubits)];
            }
            for sp in 0..sub {
                let mut acc = C64::zero();
                for (s, &g) in gathered.iter().enumerate() {
                    acc += m[(sp, s)] * g;
                }
                self.amps[base | spread(sp, qubits)] = acc;
            }
        }
    }

    /// Applies every gate of a unitary-only circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains measurement, reset or classically
    /// conditioned operations (use [`crate::Executor`] for those), or if
    /// the qubit counts differ.
    pub fn apply_circuit(&mut self, circuit: &qcir::Circuit) {
        assert_eq!(
            circuit.num_qubits(),
            self.num_qubits,
            "circuit/state qubit count mismatch"
        );
        for inst in circuit.iter() {
            if inst.is_barrier() {
                continue;
            }
            let gate = inst.as_gate().unwrap_or_else(|| {
                panic!("apply_circuit requires a unitary circuit, found {inst}")
            });
            assert!(
                !inst.is_conditioned(),
                "apply_circuit cannot evaluate classical conditions"
            );
            let qs: Vec<usize> = inst.qubits().iter().map(|q| q.index()).collect();
            self.apply_gate(gate, &qs);
        }
    }

    /// Probability of measuring `qubit` as 1.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[must_use]
    pub fn prob_one(&self, qubit: usize) -> f64 {
        assert!(qubit < self.num_qubits, "qubit {qubit} out of range");
        let bit = 1usize << qubit;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Projects `qubit` onto `outcome` and renormalizes.
    ///
    /// Returns the probability the projection had; when it is (numerically)
    /// zero the state is left unusable and the caller must discard it.
    pub fn project(&mut self, qubit: usize, outcome: bool) -> f64 {
        let p1 = self.prob_one(qubit);
        let p = if outcome { p1 } else { 1.0 - p1 };
        let bit = 1usize << qubit;
        if p <= f64::EPSILON {
            return 0.0;
        }
        let scale = 1.0 / p.sqrt();
        for (i, a) in self.amps.iter_mut().enumerate() {
            if (i & bit != 0) == outcome {
                *a = a.scale(scale);
            } else {
                *a = C64::zero();
            }
        }
        p
    }

    /// Measures `qubit` in the computational basis, collapsing the state.
    ///
    /// The branch draw is taken against the *normalized* probability
    /// `p1 / ⟨ψ|ψ⟩`: on sub-normalized states (leaky noisy trajectories)
    /// the raw `p1` understates the true Born probability and would bias
    /// the outcome toward 0 — the same bug class the `sample` fall-through
    /// fix closed. States with a vanishing or non-finite norm are beyond
    /// recovery and keep the raw (clamped) probability.
    pub fn measure<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> bool {
        let outcome = rng.gen_bool(self.measure_prob_one(qubit));
        self.project(qubit, outcome);
        outcome
    }

    /// The normalized probability `measure` draws against: `prob_one` scaled
    /// by the squared norm, clamped to `[0, 1]`.
    #[must_use]
    pub fn measure_prob_one(&self, qubit: usize) -> f64 {
        let p1 = self.prob_one(qubit);
        let n2 = self.norm_sqr();
        if n2.is_finite() && n2 > f64::EPSILON {
            (p1 / n2).clamp(0.0, 1.0)
        } else {
            p1.clamp(0.0, 1.0)
        }
    }

    /// Actively resets `qubit` to `|0>` (measure, then flip on 1).
    pub fn reset<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) {
        if self.measure(qubit, rng) {
            self.apply_gate(&qcir::Gate::X, &[qubit]);
        }
    }

    /// The probability of each computational basis state.
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Samples a full computational-basis outcome without collapsing.
    ///
    /// On sub-normalized states (e.g. leaky noisy trajectories) a draw past
    /// the cumulative total falls back to the last basis state with nonzero
    /// probability — never to an unreachable zero-amplitude outcome.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x: f64 = rng.gen();
        let mut acc = 0.0;
        let mut last_nonzero = 0;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p > 0.0 {
                last_nonzero = i;
            }
            acc += p;
            if x < acc {
                return i;
            }
        }
        last_nonzero
    }

    /// `|<self|other>|^2`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    #[must_use]
    pub fn fidelity(&self, other: &Self) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(&a, &b)| a.conj() * b)
            .sum::<C64>()
            .norm_sqr()
    }

    /// Squared norm (should be 1 within rounding).
    #[must_use]
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Rescales the state to unit norm, returning `true` on success.
    ///
    /// Returns `false` — leaving the state untouched — when the current
    /// squared norm is NaN, infinite or below `f64::EPSILON`, where no
    /// rescale can recover a meaningful state.
    pub fn renormalize(&mut self) -> bool {
        let n2 = self.norm_sqr();
        if !n2.is_finite() || n2 < f64::EPSILON {
            return false;
        }
        let inv = 1.0 / n2.sqrt();
        for a in &mut self.amps {
            *a *= C64::real(inv);
        }
        true
    }

    /// `true` when amplitudes match `other` within `tol` component-wise.
    #[must_use]
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.num_qubits == other.num_qubits
            && self
                .amps
                .iter()
                .zip(&other.amps)
                .all(|(&a, &b)| a.approx_eq(b, tol))
    }
}

/// Spreads the `k`-bit sub-index `s` onto the wire positions in `qubits`.
#[inline]
fn spread(s: usize, qubits: &[usize]) -> usize {
    let mut out = 0usize;
    for (j, &q) in qubits.iter().enumerate() {
        out |= ((s >> j) & 1) << q;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn zero_state_has_unit_amplitude_at_zero() {
        let sv = StateVector::zero_state(3);
        assert_eq!(sv.num_qubits(), 3);
        assert_eq!(sv.amplitudes()[0], C64::one());
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn basis_state_places_amplitude() {
        let sv = StateVector::basis_state(2, 0b10);
        assert_eq!(sv.amplitudes()[2], C64::one());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_state_rejects_large_index() {
        let _ = StateVector::basis_state(1, 2);
    }

    #[test]
    fn x_flips_qubit() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::X, &[1]);
        assert_eq!(sv.amplitudes()[0b10], C64::one());
    }

    /// An RNG pinned to the top of the unit interval: `gen::<f64>()` yields
    /// `(2^53 - 1) / 2^53`, the largest representable draw.
    struct MaxRng;

    impl rand::RngCore for MaxRng {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn sample_on_leaky_state_never_returns_zero_amplitude_outcome() {
        // Regression: a sub-normalized ("leaky") state, as noisy
        // trajectories produce, with all weight on basis states 0 and 1.
        // A draw past the cumulative sum (x ~ 1 > 0.5) used to fall back to
        // `len - 1` = |11>, an outcome with zero amplitude; it must fall
        // back to the last *reachable* basis state instead.
        let leaky = StateVector {
            num_qubits: 2,
            amps: vec![
                C64::real(0.4f64.sqrt()),
                C64::real(0.1f64.sqrt()),
                C64::zero(),
                C64::zero(),
            ],
        };
        assert!(leaky.norm_sqr() < 0.75, "state must be sub-normalized");
        let got = leaky.sample(&mut MaxRng);
        assert_eq!(
            got, 1,
            "fallback must be the last nonzero-probability index"
        );

        // Unit-norm states are unaffected: the draw lands inside the sum.
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::H, &[0]);
        let idx = sv.sample(&mut MaxRng);
        assert!(sv.probabilities()[idx] > 0.0);
    }

    /// An RNG that returns one pinned `next_u64` value forever, so
    /// `gen_bool(p)` compares `p` against a chosen draw in `[0, 1)`.
    struct FixedRng(u64);

    impl rand::RngCore for FixedRng {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// A `next_u64` whose `f64` sample is (approximately) `x`.
    fn raw_for_draw(x: f64) -> u64 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let mantissa = (x * (1u64 << 53) as f64) as u64;
        mantissa << 11
    }

    #[test]
    fn measure_on_leaky_state_draws_against_normalized_probability() {
        // Regression companion to the `sample` fall-through fix: a
        // sub-normalized trajectory with half its weight lost. The true
        // Born probability of outcome 1 on qubit 0 is 0.25/0.5 = 0.5, but
        // the raw `prob_one` is 0.25 — drawing against the raw value
        // biased the branch toward 0.
        let make_leaky = || StateVector {
            num_qubits: 2,
            amps: vec![
                C64::real(0.25f64.sqrt()),
                C64::real(0.25f64.sqrt()),
                C64::zero(),
                C64::zero(),
            ],
        };
        let leaky = make_leaky();
        assert!((leaky.norm_sqr() - 0.5).abs() < 1e-12, "must be leaky");
        assert!((leaky.measure_prob_one(0) - 0.5).abs() < 1e-12);

        // A draw at ~0.4 sits between the biased (0.25) and the true (0.5)
        // probability: the fixed code must return 1 where the old returned 0.
        let mut rng = FixedRng(raw_for_draw(0.4));
        let mut sv = make_leaky();
        assert!(sv.measure(0, &mut rng), "draw 0.4 < normalized p1 0.5");

        // Unit-norm states are untouched by the normalization (n2 = 1).
        let mut plus = StateVector::zero_state(1);
        plus.apply_gate(&Gate::H, &[0]);
        assert!((plus.measure_prob_one(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hadamard_makes_uniform_superposition() {
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::H, &[0]);
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::H, &[0]);
        sv.apply_gate(&Gate::Cx, &[0, 1]);
        let p = sv.probabilities();
        assert!((p[0b00] - 0.5).abs() < 1e-12);
        assert!((p[0b11] - 0.5).abs() < 1e-12);
        assert!(p[0b01].abs() < 1e-12);
    }

    #[test]
    fn cx_respects_operand_order() {
        // control = qubit 1, target = qubit 0.
        let mut sv = StateVector::basis_state(2, 0b10);
        sv.apply_gate(&Gate::Cx, &[1, 0]);
        assert_eq!(sv.amplitudes()[0b11], C64::one());
    }

    #[test]
    fn toffoli_flips_only_when_both_controls_set() {
        for (input, expect) in [(0b011usize, 0b111usize), (0b001, 0b001), (0b010, 0b010)] {
            let mut sv = StateVector::basis_state(3, input);
            sv.apply_gate(&Gate::Ccx, &[0, 1, 2]);
            assert_eq!(sv.amplitudes()[expect], C64::one(), "input {input:03b}");
        }
    }

    #[test]
    fn gate_application_matches_embedded_matrix() {
        // Apply CV on qubits (2, 0) of a random-ish 3-qubit state both ways.
        let mut sv = StateVector::zero_state(3);
        for q in 0..3 {
            sv.apply_gate(&Gate::H, &[q]);
            sv.apply_gate(&Gate::T, &[q]);
        }
        let mut a = sv.clone();
        a.apply_gate(&Gate::Cv, &[2, 0]);
        let full = Gate::Cv.matrix().embed(&[2, 0], 3);
        let b = StateVector::from_amplitudes(full.mul_vec(sv.amplitudes()));
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn apply_circuit_matches_manual_application() {
        let mut circ = qcir::Circuit::new(2, 0);
        circ.h(qcir::Qubit::new(0))
            .t(qcir::Qubit::new(0))
            .cx(qcir::Qubit::new(0), qcir::Qubit::new(1));
        circ.barrier_all();
        circ.cv(qcir::Qubit::new(1), qcir::Qubit::new(0));
        let mut via_circuit = StateVector::zero_state(2);
        via_circuit.apply_circuit(&circ);
        let mut manual = StateVector::zero_state(2);
        manual.apply_gate(&Gate::H, &[0]);
        manual.apply_gate(&Gate::T, &[0]);
        manual.apply_gate(&Gate::Cx, &[0, 1]);
        manual.apply_gate(&Gate::Cv, &[1, 0]);
        assert!(via_circuit.approx_eq(&manual, 1e-12));
    }

    #[test]
    #[should_panic(expected = "unitary circuit")]
    fn apply_circuit_rejects_measurement() {
        let mut circ = qcir::Circuit::new(1, 1);
        circ.measure(qcir::Qubit::new(0), qcir::Clbit::new(0));
        StateVector::zero_state(1).apply_circuit(&circ);
    }

    #[test]
    fn prob_one_of_plus_state_is_half() {
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::H, &[0]);
        assert!((sv.prob_one(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn project_collapses_and_renormalizes() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::H, &[0]);
        sv.apply_gate(&Gate::Cx, &[0, 1]);
        let p = sv.project(0, true);
        assert!((p - 0.5).abs() < 1e-12);
        assert_eq!(sv.amplitudes()[0b11].abs().round() as i64, 1);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn project_impossible_outcome_returns_zero() {
        let mut sv = StateVector::zero_state(1);
        assert_eq!(sv.project(0, true), 0.0);
    }

    #[test]
    fn measurement_on_entangled_pair_correlates() {
        let mut r = rng();
        for _ in 0..20 {
            let mut sv = StateVector::zero_state(2);
            sv.apply_gate(&Gate::H, &[0]);
            sv.apply_gate(&Gate::Cx, &[0, 1]);
            let m0 = sv.measure(0, &mut r);
            let m1 = sv.measure(1, &mut r);
            assert_eq!(m0, m1);
        }
    }

    #[test]
    fn reset_always_gives_zero() {
        let mut r = rng();
        for _ in 0..10 {
            let mut sv = StateVector::zero_state(1);
            sv.apply_gate(&Gate::H, &[0]);
            sv.reset(0, &mut r);
            assert!((sv.prob_one(0)).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::H, &[0]);
        sv.apply_gate(&Gate::Cx, &[0, 1]);
        let mut r = rng();
        let mut histogram = [0usize; 4];
        for _ in 0..2000 {
            histogram[sv.sample(&mut r)] += 1;
        }
        assert_eq!(histogram[0b01], 0);
        assert_eq!(histogram[0b10], 0);
        assert!(histogram[0b00] > 800 && histogram[0b11] > 800);
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let mut a = StateVector::zero_state(2);
        a.apply_gate(&Gate::H, &[0]);
        let b = a.clone();
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = StateVector::basis_state(1, 0);
        let b = StateVector::basis_state(1, 1);
        assert!(a.fidelity(&b) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn apply_rejects_duplicate_wires() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::Cx, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "not normalized")]
    fn from_amplitudes_rejects_unnormalized() {
        let _ = StateVector::from_amplitudes(vec![C64::one(), C64::one()]);
    }
}
