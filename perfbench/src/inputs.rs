//! Seeded inputs: circuit pools, job sequences and arrival schedules.
//!
//! Every circuit comes from the paper's suites (`qalgo::suites`) or from a
//! random PPRM oracle (`TruthTable::from_bits` → `dj_circuit`, 3–5
//! inputs), under dynamic-1 or dynamic-2, rendered with `to_qasm`. The
//! daemon and the library only ever see that QASM.

use dqc::DynamicScheme;
use qalgo::{dj_circuit, toffoli_free_suite, toffoli_suite, TruthTable};
use qcir::qasm::to_qasm;
use qcir::Circuit;
use std::collections::HashSet;

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One circuit as a client submits it.
#[derive(Clone)]
pub struct Template {
    pub qasm: String,
    /// The answer qubit (the last one); every other qubit is data.
    pub answer: usize,
    pub scheme: DynamicScheme,
}

impl Template {
    fn new(circuit: &Circuit, scheme: DynamicScheme) -> Self {
        Self {
            qasm: to_qasm(circuit),
            answer: circuit.num_qubits() - 1,
            scheme,
        }
    }

    pub fn scheme_name(&self) -> &'static str {
        match self.scheme {
            DynamicScheme::Dynamic1 => "dynamic1",
            _ => "dynamic2",
        }
    }
}

const SCHEMES: [DynamicScheme; 2] = [DynamicScheme::Dynamic1, DynamicScheme::Dynamic2];

/// The paper's Table I and Table II circuits under both schemes (74
/// templates). Fixed, so the warm-up pass is the same for every seed.
pub fn suite_templates() -> Vec<Template> {
    let mut out = Vec::new();
    for bench in toffoli_free_suite().iter().chain(&toffoli_suite()) {
        for scheme in SCHEMES {
            out.push(Template::new(&bench.circuit, scheme));
        }
    }
    out
}

/// The paper's Table II (Toffoli) circuits under both schemes.
pub fn toffoli_templates() -> Vec<Template> {
    let mut out = Vec::new();
    for bench in toffoli_suite() {
        for scheme in SCHEMES {
            out.push(Template::new(&bench.circuit, scheme));
        }
    }
    out
}

/// A random PPRM oracle on `inputs` inputs, as a DJ circuit.
fn random_oracle(rng: &mut Rng, inputs: usize) -> Circuit {
    let bits = (0..1usize << inputs)
        .map(|_| rng.next_u64() & 1 == 1)
        .collect();
    dj_circuit(&TruthTable::from_bits(bits))
}

/// `size` templates in popularity-rank order: the paper's suites, in a
/// seeded order at evenly spaced ranks, and random oracles at every other
/// rank, whose input count (3, 4, 5) and scheme cycle with the rank. The
/// seed picks the truth tables and the suite order but not the mix, so the
/// hottest ranks cost about the same under every seed.
pub fn template_pool(rng: &mut Rng, size: usize) -> Vec<Template> {
    let mut suite = suite_templates();
    shuffle(rng, &mut suite);
    let stride = (size / suite.len()).max(1);
    let mut pool = Vec::with_capacity(size);
    let mut oracles = 0;
    for rank in 0..size {
        if rank % stride == stride / 2 {
            if let Some(template) = suite.pop() {
                pool.push(template);
                continue;
            }
        }
        let circuit = random_oracle(rng, 3 + oracles % 3);
        pool.push(Template::new(&circuit, SCHEMES[oracles / 3 % 2]));
        oracles += 1;
    }
    pool
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `count` templates no two of which share a circuit and scheme, and none
/// of which appears in `taken`: random 4–5-input oracles (3-input ones
/// would run out: there are only 256 truth tables), with input count and
/// scheme cycling as in [`template_pool`].
pub fn unique_templates(rng: &mut Rng, count: usize, taken: &[Template]) -> Vec<Template> {
    let key = |t: &Template| (t.qasm.clone(), t.scheme_name());
    let mut seen: HashSet<(String, &str)> = taken.iter().map(key).collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let circuit = random_oracle(rng, 4 + out.len() % 2);
        let template = Template::new(&circuit, SCHEMES[out.len() / 2 % 2]);
        if seen.insert(key(&template)) {
            out.push(template);
        }
    }
    out
}

/// Zipf(s) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Poisson arrival offsets (seconds from the phase start) over `secs`:
/// exponential gaps at `rate`, drawn by stratified sampling, one uniform in
/// each of `rate * secs` equal slices of `[0, 1)`, in a seeded order. Every
/// seed's schedule then has the same gap distribution in a different order.
/// Independent draws would let the spread of the gaps, and with it the wait
/// for the next send that the daemon's two-write responses add at the lower
/// rate, move the latency percentiles by several percent from seed to seed.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, secs: f64) -> Vec<f64> {
    let n = (rate * secs).round() as usize;
    let mut slices: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut slices);
    let mut t = 0.0;
    slices
        .into_iter()
        .map(|k| {
            let u = (k as f64 + rng.unit()) / n as f64;
            t += -(1.0 - u).ln() / rate;
            t
        })
        .take_while(|&t| t < secs)
        .collect()
}
