//! reuse_sweep — the qubit-reuse design space as a Pareto document.
//!
//! Sweeps every feasible lane width `k` for the representative workloads
//! (BV_110, DJ_XOR, 3-qubit Grover and CARRY, all under dynamic-2) with
//! [`dqc::explore()`], simulates each point noiselessly and under
//! `device_like` noise, and emits a schema-stable `reuse_pareto/v1` JSON
//! document: per-point width, depth, resets, conditioned gates, cost-model
//! score, exact TVD, shots/sec and the noisy-vs-noiseless TVD, plus the
//! width × depth Pareto frontier. The committed `BENCH_reuse_pareto.json`
//! at the repo root is the reference sweep; regenerate it with
//!
//! ```text
//! cargo run --release -p bench --bin reuse_sweep > BENCH_reuse_pareto.json
//! ```
//!
//! `--check PATH` is the CI gate: it re-explores the design space, fails
//! loudly when a suite loses feasible widths relative to the committed
//! document, when any width above 1 stops being exactly equivalent, or
//! when no suite offers at least [`MIN_FRONTIER_POINTS`] distinct
//! `(width, depth)` frontier points. Timing *values* are machine-dependent
//! and deliberately not compared.

use bench::args;
use dqc::{explore, DynamicScheme, ExploreOptions, QubitRoles, ReusePoint};
use qalgo::suites::{toffoli_free_suite, toffoli_suite};
use qalgo::{grover_circuit, optimal_iterations};
use qcir::Circuit;
use qobs::json::JsonWriter;
use qsim::{Executor, NoiseModel};
use std::process::ExitCode;
use std::time::Instant;

/// The design-space acceptance bar: at least one suite must expose this
/// many distinct `(width, depth)` frontier points, otherwise the sweep
/// degenerated back to the paper's single trade-off.
const MIN_FRONTIER_POINTS: usize = 3;

/// Widths above 1 must verify exactly: the planner only admits them when
/// every classicalized read is sound, so a nonzero TVD is a planner bug
/// (k = 1 keeps the paper's approximation and is exempt).
const EXACT_TVD_BOUND: f64 = 1e-9;

fn main() -> ExitCode {
    match real_main() {
        Ok(summary) => {
            eprintln!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("reuse_sweep: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<String, String> {
    let seed = args::value("--seed").unwrap_or(7u64);
    if let Some(path) = args::value::<String>("--check") {
        return check(&path);
    }
    let shots = args::shots(512);
    let noise_scale = args::value("--noise").unwrap_or(1.0f64);
    let suites = sweep(shots, seed, noise_scale, true)?;
    let doc = render(&suites, seed, shots, noise_scale);
    let points: usize = suites.iter().map(|s| s.points.len()).sum();
    match args::value::<String>("--out") {
        Some(path) => {
            std::fs::write(&path, &doc).map_err(|e| format!("cannot write '{path}': {e}"))?;
            Ok(format!(
                "reuse_sweep: wrote {points} points across {} suites to {path}",
                suites.len()
            ))
        }
        None => {
            println!("{doc}");
            Ok(format!(
                "reuse_sweep: {points} points across {} suites",
                suites.len()
            ))
        }
    }
}

/// The same representative workloads the perf baseline tracks.
fn workloads() -> Vec<(String, Circuit, QubitRoles)> {
    let mut out = Vec::new();
    for wanted in ["BV_110", "DJ_XOR"] {
        let b = toffoli_free_suite()
            .into_iter()
            .find(|b| b.name == wanted)
            .expect("Table I suite contains its own rows");
        out.push((b.name, b.circuit, b.roles));
    }
    let grover = grover_circuit(0b101, 3, optimal_iterations(3));
    let roles = QubitRoles::data_plus_answer(grover.num_qubits());
    out.push(("GROVER_3".to_string(), grover, roles));
    let carry = toffoli_suite()
        .into_iter()
        .find(|b| b.name == "CARRY")
        .expect("CARRY is in the Toffoli suite");
    out.push((carry.name, carry.circuit, carry.roles));
    out
}

/// One design-space point, measured.
struct PointRow {
    k: usize,
    qubits: usize,
    depth: usize,
    resets: usize,
    conditioned: usize,
    score: f64,
    exact_tvd: f64,
    shots_per_sec: f64,
    noisy_tvd: f64,
    frontier: bool,
}

/// One workload's swept design space.
struct SuiteRow {
    suite: String,
    max_width: usize,
    points: Vec<PointRow>,
}

impl SuiteRow {
    fn frontier_points(&self) -> usize {
        self.points.iter().filter(|p| p.frontier).count()
    }
}

fn sweep(shots: u64, seed: u64, noise_scale: f64, simulate: bool) -> Result<Vec<SuiteRow>, String> {
    let noise = NoiseModel::try_device_like(noise_scale).map_err(|e| format!("--noise: {e}"))?;
    let opts = ExploreOptions {
        scheme: DynamicScheme::Dynamic2,
        ..ExploreOptions::default()
    };
    let mut out = Vec::new();
    for (name, circuit, roles) in workloads() {
        let points = explore(&circuit, &roles, &opts).map_err(|e| format!("{name}: {e}"))?;
        let max_width = points.last().map_or(0, |p| p.k);
        let mut rows: Vec<PointRow> = points
            .iter()
            .map(|p| measure_point(p, shots, seed, &noise, simulate))
            .collect();
        mark_frontier(&mut rows);
        out.push(SuiteRow {
            suite: name,
            max_width,
            points: rows,
        });
    }
    Ok(out)
}

fn measure_point(
    p: &ReusePoint,
    shots: u64,
    seed: u64,
    noise: &NoiseModel,
    simulate: bool,
) -> PointRow {
    let exact_tvd = p.verify.as_ref().map_or(f64::NAN, |v| v.tvd);
    let (shots_per_sec, noisy_tvd) = if simulate {
        let exec = |noisy: bool| {
            let mut e = Executor::new().shots(shots).seed(seed).threads(1);
            if noisy {
                e = e.noise(noise.clone());
            }
            e
        };
        let start = Instant::now();
        let ideal = exec(false).run(p.dynamic.circuit());
        let secs = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        let noisy = exec(true).run(p.dynamic.circuit());
        (
            shots as f64 / secs,
            ideal.to_distribution().tvd(&noisy.to_distribution()),
        )
    } else {
        (0.0, 0.0)
    };
    PointRow {
        k: p.k,
        qubits: p.summary.qubits,
        depth: p.summary.depth,
        resets: p.summary.resets,
        conditioned: p.summary.conditioned,
        score: p.score,
        exact_tvd,
        shots_per_sec,
        noisy_tvd,
        frontier: false, // set by mark_frontier once all points exist
    }
}

/// Marks the non-dominated `(qubits, depth)` points: a point is on the
/// frontier unless another point is no worse on both axes and strictly
/// better on one.
fn mark_frontier(rows: &mut [PointRow]) {
    for i in 0..rows.len() {
        let dominated = rows.iter().enumerate().any(|(j, other)| {
            j != i
                && other.qubits <= rows[i].qubits
                && other.depth <= rows[i].depth
                && (other.qubits < rows[i].qubits || other.depth < rows[i].depth)
        });
        rows[i].frontier = !dominated;
    }
}

fn render(suites: &[SuiteRow], seed: u64, shots: u64, noise_scale: f64) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("reuse_pareto/v1");
    w.key("scheme");
    w.string("dynamic2");
    w.key("seed");
    w.uint(seed);
    w.key("shots");
    w.uint(shots);
    w.key("noise_scale");
    w.float(noise_scale);
    w.key("suites");
    w.begin_array();
    for s in suites {
        w.begin_object();
        w.key("suite");
        w.string(&s.suite);
        w.key("max_width");
        w.uint(s.max_width as u64);
        w.key("frontier_points");
        w.uint(s.frontier_points() as u64);
        w.key("points");
        w.begin_array();
        for p in &s.points {
            w.begin_object();
            w.key("k");
            w.uint(p.k as u64);
            w.key("qubits");
            w.uint(p.qubits as u64);
            w.key("depth");
            w.uint(p.depth as u64);
            w.key("resets");
            w.uint(p.resets as u64);
            w.key("conditioned");
            w.uint(p.conditioned as u64);
            w.key("score");
            w.float(p.score);
            w.key("exact_tvd");
            w.float(p.exact_tvd);
            w.key("shots_per_sec");
            w.float(p.shots_per_sec);
            w.key("noisy_tvd");
            w.float(p.noisy_tvd);
            w.key("frontier");
            w.bool(p.frontier);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

/// The `--check PATH` gate: fresh exploration + structural comparison
/// against the committed document + the frontier-size acceptance bar.
fn check(path: &str) -> Result<String, String> {
    let committed =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read sweep '{path}': {e}"))?;
    qobs::json::validate(&committed)
        .map_err(|e| format!("sweep '{path}' is not valid JSON: {e}"))?;
    if !committed.contains("\"schema\":\"reuse_pareto/v1\"") {
        return Err(format!(
            "sweep '{path}' does not declare schema reuse_pareto/v1 — regenerate it"
        ));
    }
    // Fresh exploration without simulation: cheap, and exact per-width
    // feasibility + equivalence is what the gate certifies.
    let suites = sweep(0, 0, 0.0, false)?;
    let mut best = 0usize;
    for s in &suites {
        if !committed.contains(&format!("\"suite\":\"{}\"", s.suite)) {
            return Err(format!(
                "sweep '{path}' is missing suite '{}' — regenerate it",
                s.suite
            ));
        }
        for p in &s.points {
            // NaN (no verify report) must fail too, so compare negatively.
            if p.k > 1
                && p.exact_tvd.partial_cmp(&EXACT_TVD_BOUND) != Some(std::cmp::Ordering::Less)
            {
                return Err(format!(
                    "{} k={} has tvd {:.3e} — widths above 1 must be exact \
                     (the soundness filter regressed)",
                    s.suite, p.k, p.exact_tvd
                ));
            }
        }
        // The committed document must still know every currently-feasible
        // width; a vanished width means the committed sweep is stale.
        let committed_suite = committed
            .split("\"suite\":\"")
            .find(|chunk| chunk.starts_with(&s.suite))
            .unwrap_or("");
        for p in &s.points {
            if !committed_suite.contains(&format!("\"k\":{}", p.k)) {
                return Err(format!(
                    "sweep '{path}' suite '{}' is missing width k={} — regenerate it",
                    s.suite, p.k
                ));
            }
        }
        best = best.max(s.frontier_points());
    }
    if best < MIN_FRONTIER_POINTS {
        return Err(format!(
            "no suite exposes {MIN_FRONTIER_POINTS}+ distinct (width, depth) frontier \
             points (best: {best}) — the design space collapsed"
        ));
    }
    Ok(format!(
        "reuse-sweep: OK ({} suites, best frontier {best} points)",
        suites.len()
    ))
}
