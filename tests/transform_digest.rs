//! Pins the dynamic transformation's output byte for byte.
//!
//! The corpus is the paper's two suites plus 200 seeded PPRM oracles
//! (`TruthTable::from_bits` → `dj_circuit`, 4–5 inputs), each transformed
//! under dynamic-1 and dynamic-2, at `k = 1` and with `ReuseMode::Auto`
//! (whose `k > 1` plans take the scheduler's `sound_read` path). The
//! emitted OpenQASM text, or the error, of every run feeds one FNV-1a
//! digest that must equal [`EXPECTED`].
//!
//! A change that only makes the transformation cheaper (for example how
//! the scheduler decides commutation) must leave the digest alone. A change
//! that alters emitted circuits on purpose updates [`EXPECTED`] and says
//! why.

use dqc::{
    plan_with_scheme, transform_with_scheme, CostModel, DynamicScheme, QubitRoles, ReuseMode,
    TransformOptions,
};
use qalgo::suites::{toffoli_free_suite, toffoli_suite};
use qalgo::{dj_circuit, TruthTable};
use qcir::qasm::to_qasm;
use qcir::Circuit;

/// The digest of the corpus's transforms, computed at commit a0deb02,
/// where every overlapping pair of gates still took the matrix test.
const EXPECTED: u64 = 0x32be_e20b_089d_3467;

/// Seed of the oracle truth tables.
const ORACLE_SEED: u64 = 0x7f4a_d16e_57ad_0001;

/// Oracles in the corpus.
const ORACLES: usize = 200;

/// FNV-1a, 64-bit. Its algorithm is fixed, unlike `DefaultHasher`'s.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn corpus() -> Vec<(String, Circuit, QubitRoles)> {
    let mut out: Vec<_> = toffoli_free_suite()
        .into_iter()
        .chain(toffoli_suite())
        .map(|b| (b.name, b.circuit, b.roles))
        .collect();
    // Consecutive SplitMix64 outputs: the same bits on every platform.
    let mut drawn = 0;
    for i in 0..ORACLES {
        let inputs = 4 + i % 2;
        let bits = (drawn..drawn + (1 << inputs))
            .map(|k| rand::stream_seed(ORACLE_SEED, k) & 1 == 1)
            .collect();
        drawn += 1 << inputs;
        out.push((
            format!("oracle-{i}"),
            dj_circuit(&TruthTable::from_bits(bits)),
            QubitRoles::data_plus_answer(inputs + 1),
        ));
    }
    out
}

#[test]
fn transform_output_matches_the_pinned_digest() {
    let options = TransformOptions::default();
    let cost = CostModel::default();
    let mut digest = Fnv1a::new();
    let (mut runs, mut wide_plans) = (0, 0);
    for (name, circuit, roles) in corpus() {
        for scheme in [DynamicScheme::Dynamic1, DynamicScheme::Dynamic2] {
            let single = transform_with_scheme(&circuit, &roles, scheme, &options);
            let auto = plan_with_scheme(&circuit, &roles, scheme, ReuseMode::Auto, &cost, &options)
                .map(|(dynamic, report)| {
                    wide_plans += usize::from(report.k > 1);
                    dynamic
                });
            for (mode, result) in [("k=1", single), ("auto", auto)] {
                let text = match result {
                    Ok(dynamic) => to_qasm(dynamic.circuit()),
                    Err(e) => format!("error: {e}\n"),
                };
                digest.write(format!("// {name} {scheme} {mode}\n{text}").as_bytes());
                runs += 1;
            }
        }
    }
    assert!(runs > 4 * ORACLES, "{runs} runs");
    assert!(wide_plans > 0, "no auto plan chose k > 1");
    assert_eq!(
        digest.0, EXPECTED,
        "transform output changed over {runs} runs: digest {:#018x}",
        digest.0
    );
}
