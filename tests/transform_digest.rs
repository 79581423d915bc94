//! Pins the dynamic transformation's output byte for byte, and the shot
//! engine's counts on it.
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
//!
//! The second digest, [`EXPECTED_COUNTS`], runs every `k = 1` transform
//! through `Executor::run_resilient` configured as `dqctd` configures it
//! (one thread, a deadline, a cancel token, a heartbeat), ideal and with
//! readout/reset errors, and hashes the counts. A metrics-only observer,
//! which changes no count, shows that the tree engine served most runs.
//! A change to how the engines evolve or sample must leave it alone.

use dqc::{
    plan_with_scheme, transform_with_scheme, CostModel, DynamicScheme, QubitRoles, ReuseMode,
    TransformOptions,
};
use qalgo::suites::{toffoli_free_suite, toffoli_suite};
use qalgo::{dj_circuit, TruthTable};
use qcir::qasm::to_qasm;
use qcir::Circuit;
use qsim::{CancelToken, Executor, NoiseModel};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// The digest of the corpus's transforms, computed at commit a0deb02,
/// where every overlapping pair of gates still took the matrix test.
const EXPECTED: u64 = 0x32be_e20b_089d_3467;

/// The digest of the corpus's counts, computed at commit 10d5fb0, where
/// the prefix engine still evolved its tree through fused gate blocks.
const EXPECTED_COUNTS: u64 = 0xcbf6_1113_5e3a_8575;

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

#[test]
fn engine_counts_match_the_pinned_digest() {
    let options = TransformOptions::default();
    let noisy = NoiseModel {
        readout_flip: 0.02,
        reset_error: 0.01,
        ..NoiseModel::ideal()
    };
    let mut digest = Fnv1a::new();
    let (mut runs, mut tree_runs) = (0, 0);
    for (index, (name, circuit, roles)) in corpus().into_iter().enumerate() {
        for scheme in [DynamicScheme::Dynamic1, DynamicScheme::Dynamic2] {
            let dynamic = match transform_with_scheme(&circuit, &roles, scheme, &options) {
                Ok(dynamic) => dynamic,
                Err(e) => {
                    digest.write(format!("// {name} {scheme} error: {e}\n").as_bytes());
                    continue;
                }
            };
            for (label, noise) in [("ideal", NoiseModel::ideal()), ("noisy", noisy.clone())] {
                // A fresh observer per run says whether the tree engine ran:
                // only it reports `prefix.*` counters.
                let obs = qobs::Observer::metrics_only();
                let (counts, report) = Executor::new()
                    .shots(256)
                    .seed(index as u64)
                    .threads(1)
                    .noise(noise)
                    .deadline(Duration::from_secs(3600))
                    .cancel_token(CancelToken::new())
                    .heartbeat(Arc::new(AtomicU64::new(0)))
                    .observer(obs.clone())
                    .run_resilient(dynamic.circuit());
                tree_runs += usize::from(obs.metrics().counter("prefix.nodes").is_some());
                assert_eq!(report.completed, 256, "{name} {scheme} {label}");
                digest.write(format!("// {name} {scheme} {label}\n").as_bytes());
                for (bits, n) in counts.iter() {
                    digest.write(format!("{bits} {n}\n").as_bytes());
                }
                runs += 1;
            }
        }
    }
    assert!(runs > 4 * ORACLES, "{runs} runs");
    assert!(
        tree_runs > 4 * ORACLES,
        "{tree_runs} of {runs} runs took the tree"
    );
    assert_eq!(
        digest.0, EXPECTED_COUNTS,
        "counts changed over {runs} runs: digest {:#018x}",
        digest.0
    );
}
