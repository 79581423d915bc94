//! Criterion benchmarks: dynamic transformation throughput.

use bench::runners::transform_both;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dqc::QubitRoles;
use dqc::{transform, transform_with_scheme, DynamicScheme, TransformOptions};
use qalgo::suites::{toffoli_free_suite, toffoli_suite};
use qalgo::{dj_circuit, TruthTable};
use qcir::decompose::decompose_mcx;
use qcir::Qubit;

fn bench_schemes(c: &mut Criterion) {
    let suite = toffoli_suite();
    let carry = suite.iter().find(|b| b.name == "CARRY").unwrap().clone();
    let mut g = c.benchmark_group("transform");
    g.bench_function("dynamic1_carry", |b| {
        b.iter(|| {
            transform_with_scheme(
                &carry.circuit,
                &carry.roles,
                DynamicScheme::Dynamic1,
                &TransformOptions::default(),
            )
            .unwrap()
        })
    });
    g.bench_function("dynamic2_carry", |b| {
        b.iter(|| {
            transform_with_scheme(
                &carry.circuit,
                &carry.roles,
                DynamicScheme::Dynamic2,
                &TransformOptions::default(),
            )
            .unwrap()
        })
    });
    g.bench_function("dynamic2_pprm5", |b| {
        // A fixed 5-input function whose PPRM oracle is five CCX, five
        // MCX(3), four MCX(4) and one MCX(5) on a common target: the wide
        // gates whose pairs the transform scheduler checks for commutation.
        const TABLE: u32 = 0x9d2c_5680;
        let oracle = TruthTable::from_bits((0..32).map(|x| TABLE >> x & 1 == 1).collect());
        let dj = dj_circuit(&oracle);
        let roles = QubitRoles::data_plus_answer(dj.num_qubits());
        b.iter(|| {
            transform_with_scheme(
                &dj,
                &roles,
                DynamicScheme::Dynamic2,
                &TransformOptions::default(),
            )
            .unwrap()
        })
    });
    g.bench_function("both_schemes_all_table2", |b| {
        b.iter_batched(
            toffoli_suite,
            |suite| {
                for bench in &suite {
                    let _ = transform_both(bench);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("direct_all_table1", |b| {
        b.iter_batched(
            toffoli_free_suite,
            |suite| {
                for bench in &suite {
                    let _ = transform(&bench.circuit, &bench.roles, &TransformOptions::default())
                        .unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("mcx5_ladder_dynamic1", |b| {
        let dj = dj_circuit(&TruthTable::and(5));
        let lowered = decompose_mcx(&dj);
        let extra = lowered.num_qubits() - dj.num_qubits();
        let mut data: Vec<Qubit> = (0..5).map(Qubit::new).collect();
        data.extend((0..extra).map(|i| Qubit::new(dj.num_qubits() + i)));
        let roles = QubitRoles::new(data, Vec::new(), vec![Qubit::new(5)]);
        // Dynamic-2 hits a cyclic dependency on ladder uncomputation (see
        // EXPERIMENTS.md); dynamic-1 realizes the ladder fine.
        b.iter(|| {
            transform_with_scheme(
                &lowered,
                &roles,
                DynamicScheme::Dynamic1,
                &TransformOptions::default(),
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
