//! Criterion benchmarks: simulator throughput.

use bench::runners::transform_both;
use criterion::{criterion_group, criterion_main, Criterion};
use dqc::{transform_with_scheme, DynamicScheme, QubitRoles, TransformOptions};
use qalgo::suites::toffoli_suite;
use qalgo::{dj_circuit, TruthTable};
use qsim::branch::exact_distribution;
use qsim::density::exact_distribution_noisy;
use qsim::prefix::PrefixTree;
use qsim::{Executor, NoiseModel};

fn bench_simulation(c: &mut Criterion) {
    let suite = toffoli_suite();
    let carry = suite.iter().find(|b| b.name == "CARRY").unwrap().clone();
    let (d1, d2) = transform_both(&carry);

    let mut g = c.benchmark_group("simulate");
    g.bench_function("executor_1024_shots_carry_dyn2", |b| {
        let exec = Executor::new().shots(1024).seed(1);
        b.iter(|| exec.run(d2.circuit()))
    });
    g.bench_function("branch_exact_carry_dyn1", |b| {
        b.iter(|| exact_distribution(d1.circuit()))
    });
    g.bench_function("branch_exact_carry_dyn2", |b| {
        b.iter(|| exact_distribution(d2.circuit()))
    });
    // The fixed 5-input PPRM oracle of `transform/dynamic2_pprm5`, under
    // dynamic-2: the engine's tree build and the exact enumeration are the
    // same walk, one with the node budget and one without.
    const TABLE: u32 = 0x9d2c_5680;
    let oracle = TruthTable::from_bits((0..32).map(|x| TABLE >> x & 1 == 1).collect());
    let dj = dj_circuit(&oracle);
    let pprm5 = transform_with_scheme(
        &dj,
        &QubitRoles::data_plus_answer(dj.num_qubits()),
        DynamicScheme::Dynamic2,
        &TransformOptions::default(),
    )
    .unwrap();
    g.bench_function("prefix_build_pprm5", |b| {
        let noise = NoiseModel::ideal();
        b.iter(|| PrefixTree::build(pprm5.circuit(), &noise))
    });
    g.bench_function("branch_exact_pprm5", |b| {
        b.iter(|| exact_distribution(pprm5.circuit()))
    });
    g.bench_function("density_noisy_carry_dyn2", |b| {
        let noise = NoiseModel::device_like(1.0);
        b.iter(|| exact_distribution_noisy(d2.circuit(), &noise))
    });
    g.bench_function("trajectory_noisy_256_shots_carry_dyn2", |b| {
        let exec = Executor::new()
            .shots(256)
            .seed(2)
            .noise(NoiseModel::device_like(1.0));
        b.iter(|| exec.run(d2.circuit()))
    });
    g.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
