//! # dqct-cli — the transformer as a command-line tool
//!
//! Reads a traditional circuit in OpenQASM 3 (the subset `qcir::qasm`
//! round-trips), applies the dynamic transformation, and writes the dynamic
//! circuit back as OpenQASM 3. The argument parsing and driver live in this
//! library so they are unit-testable; `main.rs` is a thin wrapper.
//!
//! ```text
//! dqct --data 0,1 --answer 2 [--ancilla 3,4] [--scheme direct|dynamic1|dynamic2]
//!      [--reuse auto|off|K] [--verify] [--stats] [--ascii] [--metrics[=json|text]]
//!      [--metrics-out PATH] [--trace PATH] [--trace-clock wall|test]
//!      [--mitigate=reset-verify[,meas-repeat=R][,readout-cal]] [--noise S]
//!      [--deadline-ms N] [--max-failed K] [--inject SPEC]
//!      [--engine shots|prefix|auto] [--shots N] [--seed N]
//!      [--input FILE | FILE]
//! ```
//!
//! `dqct client ...` (see [`client`]) instead talks to a running `dqctd`
//! batch service over its length-prefixed TCP protocol.

use dqc::{
    mitigate_observed, plan_with_scheme_observed, transform_with_scheme_observed, verify,
    CostModel, DynamicScheme, MitigationOptions, QubitRoles, ReadoutCalibration, ResourceSummary,
    ReuseMode, TransformOptions,
};
use qcir::qasm::{from_qasm, to_qasm};
use qcir::Qubit;
use qfault::FaultPlan;
use qobs::{ClockMode, Observer, Tracer};
use qsim::{Engine, Executor, NoiseModel};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

pub mod client;

/// Output format of the `--metrics` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// One machine-readable JSON document (replaces the QASM output).
    Json,
    /// Human-readable `// `-prefixed lines appended after the QASM.
    Text,
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Data qubit indices.
    pub data: Vec<usize>,
    /// Ancilla qubit indices.
    pub ancilla: Vec<usize>,
    /// Answer qubit indices.
    pub answer: Vec<usize>,
    /// Toffoli realization scheme.
    pub scheme: DynamicScheme,
    /// Reuse planning mode (`None` = the paper's single-data-qubit path).
    pub reuse: Option<ReuseMode>,
    /// Verify equivalence exactly and report the TVD.
    pub verify: bool,
    /// Print resource statistics.
    pub stats: bool,
    /// Print ASCII diagrams instead of (in addition to) QASM.
    pub ascii: bool,
    /// Run the static exactness analysis and report the verdict.
    pub analyze: bool,
    /// Collect and print pipeline + simulation metrics.
    ///
    /// `--metrics=json` is kept as a deprecated alias for `--metrics-out -`;
    /// prefer `--metrics-out` so machine-readable output never competes with
    /// the QASM on stdout.
    pub metrics: Option<MetricsFormat>,
    /// Write the metrics JSON document to this path (`-` = stdout, in which
    /// case the document replaces the QASM output).
    pub metrics_out: Option<String>,
    /// Write a Chrome trace-event JSON file of the run to this path
    /// (`-` = stdout, in which case the trace replaces the QASM output).
    /// Implies the instrumented simulation even without `--metrics`.
    pub trace: Option<String>,
    /// Clock for `--trace`: `wall` for real timings, `test` for the
    /// deterministic virtual clock (byte-identical traces at any
    /// `--threads` value).
    pub trace_clock: ClockMode,
    /// Shots for the metrics-mode simulation of the dynamic circuit.
    pub shots: u64,
    /// RNG seed for the metrics-mode simulation (fixed for reproducibility).
    pub seed: u64,
    /// Worker threads for the metrics-mode simulation (`None` = the
    /// executor's default, `available_parallelism`). Per-shot RNG streams
    /// make the counts identical for every value.
    pub threads: Option<usize>,
    /// Mitigation passes applied to the transformed circuit.
    pub mitigate: MitigationOptions,
    /// `device_like` noise scale for the metrics-mode simulation
    /// (`None` = noiseless).
    pub noise: Option<f64>,
    /// Wall-clock budget for the metrics-mode simulation.
    pub deadline_ms: Option<u64>,
    /// Abort the metrics-mode simulation once more than this many shots fail.
    pub max_failed: Option<u64>,
    /// Deterministic fault plan injected into the metrics-mode simulation.
    pub inject: Option<FaultPlan>,
    /// Shot engine for the metrics-mode simulation (`None` = `auto`, which
    /// picks the prefix-sharing branch-tree engine whenever the run is
    /// eligible). When set explicitly, a `// engine:` line reports the
    /// resolved engine.
    pub engine: Option<Engine>,
    /// Input file (`None` = stdin).
    pub input: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            data: Vec::new(),
            ancilla: Vec::new(),
            answer: Vec::new(),
            scheme: DynamicScheme::Dynamic2,
            reuse: None,
            verify: false,
            stats: false,
            ascii: false,
            analyze: false,
            metrics: None,
            metrics_out: None,
            trace: None,
            trace_clock: ClockMode::Wall,
            shots: 1024,
            seed: 7,
            threads: None,
            mitigate: MitigationOptions::none(),
            noise: None,
            deadline_ms: None,
            max_failed: None,
            inject: None,
            engine: None,
            input: None,
        }
    }
}

/// Parses the CLI argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable message on unknown flags, missing values or
/// malformed index lists.
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => opts.data = parse_list(it.next(), "--data")?,
            "--ancilla" => opts.ancilla = parse_list(it.next(), "--ancilla")?,
            "--answer" => opts.answer = parse_list(it.next(), "--answer")?,
            "--scheme" => {
                let v = it.next().ok_or("--scheme needs a value")?;
                opts.scheme = match v.as_str() {
                    "direct" => DynamicScheme::Direct,
                    "dynamic1" | "dynamic-1" => DynamicScheme::Dynamic1,
                    "dynamic2" | "dynamic-2" => DynamicScheme::Dynamic2,
                    other => return Err(format!("unknown scheme '{other}'")),
                };
            }
            "--reuse" => {
                let v = it.next().ok_or("--reuse needs 'auto', 'off' or a width")?;
                opts.reuse = Some(v.parse().map_err(|e| format!("--reuse: {e}"))?);
            }
            "--verify" => opts.verify = true,
            "--analyze" => opts.analyze = true,
            "--stats" => opts.stats = true,
            "--ascii" => opts.ascii = true,
            "--metrics" => opts.metrics = Some(MetricsFormat::Text),
            "--metrics-out" => {
                let v = it
                    .next()
                    .ok_or("--metrics-out needs a path ('-' for stdout)")?;
                opts.metrics_out = Some(v.clone());
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a path ('-' for stdout)")?;
                opts.trace = Some(v.clone());
            }
            "--trace-clock" => {
                let v = it.next().ok_or("--trace-clock needs 'wall' or 'test'")?;
                opts.trace_clock = parse_clock(v)?;
            }
            "--shots" => {
                let v = it.next().ok_or("--shots needs a value")?;
                opts.shots = v
                    .parse()
                    .map_err(|_| format!("--shots: '{v}' is not a shot count"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not a seed"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads: '{v}' is not a thread count"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                opts.threads = Some(n);
            }
            "--mitigate" => {
                let v = it.next().ok_or("--mitigate needs a pass list")?;
                opts.mitigate =
                    MitigationOptions::parse(v).map_err(|e| format!("--mitigate: {e}"))?;
            }
            "--noise" => {
                let v = it.next().ok_or("--noise needs a scale")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--noise: '{v}' is not a noise scale"))?;
                if !s.is_finite() || s < 0.0 {
                    return Err(format!("--noise: scale must be finite and >= 0, got {v}"));
                }
                opts.noise = Some(s);
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a value")?;
                // 0 is legal: an already-expired deadline degrades to empty
                // counts with Termination::Deadline, useful for chaos drills.
                opts.deadline_ms = Some(
                    v.parse()
                        .map_err(|_| format!("--deadline-ms: '{v}' is not a duration"))?,
                );
            }
            "--max-failed" => {
                let v = it.next().ok_or("--max-failed needs a value")?;
                opts.max_failed = Some(
                    v.parse()
                        .map_err(|_| format!("--max-failed: '{v}' is not a count"))?,
                );
            }
            "--inject" => {
                let v = it.next().ok_or("--inject needs a fault spec")?;
                opts.inject = Some(FaultPlan::parse(v).map_err(|e| format!("--inject: {e}"))?);
            }
            "--engine" => {
                let v = it
                    .next()
                    .ok_or("--engine needs 'shots', 'prefix' or 'auto'")?;
                opts.engine = Some(parse_engine(v)?);
            }
            "--input" => {
                opts.input = Some(it.next().ok_or("--input needs a value")?.clone());
            }
            "--help" | "-h" => return Err(usage()),
            other => {
                if let Some(spec) = other.strip_prefix("--reuse=") {
                    opts.reuse = Some(spec.parse().map_err(|e| format!("--reuse: {e}"))?);
                } else if let Some(spec) = other.strip_prefix("--mitigate=") {
                    opts.mitigate =
                        MitigationOptions::parse(spec).map_err(|e| format!("--mitigate: {e}"))?;
                } else if let Some(spec) = other.strip_prefix("--inject=") {
                    opts.inject =
                        Some(FaultPlan::parse(spec).map_err(|e| format!("--inject: {e}"))?);
                } else if let Some(name) = other.strip_prefix("--engine=") {
                    opts.engine = Some(parse_engine(name)?);
                } else if let Some(path) = other.strip_prefix("--metrics-out=") {
                    opts.metrics_out = Some(path.to_string());
                } else if let Some(clock) = other.strip_prefix("--trace-clock=") {
                    opts.trace_clock = parse_clock(clock)?;
                } else if let Some(path) = other.strip_prefix("--trace=") {
                    opts.trace = Some(path.to_string());
                } else if let Some(fmt) = other.strip_prefix("--metrics=") {
                    opts.metrics = Some(match fmt {
                        "json" => MetricsFormat::Json,
                        "text" => MetricsFormat::Text,
                        bad => {
                            return Err(format!(
                                "unknown metrics format '{bad}' (expected 'json' or 'text')"
                            ))
                        }
                    });
                } else if !other.starts_with('-') && opts.input.is_none() {
                    // Positional input file: `dqct --metrics=json circuit.qasm`.
                    opts.input = Some(other.to_string());
                } else {
                    return Err(format!("unknown argument '{other}'\n{}", usage()));
                }
            }
        }
    }
    if opts.answer.is_empty() {
        return Err(format!("--answer is required\n{}", usage()));
    }
    if opts.mitigate.readout_cal && opts.noise.is_none() {
        return Err(
            "--mitigate readout-cal needs --noise (the confusion matrix is \
             calibrated against the simulated noise model)"
                .to_string(),
        );
    }
    if opts.inject.is_some()
        && opts.metrics.is_none()
        && opts.metrics_out.is_none()
        && opts.trace.is_none()
    {
        return Err(
            "--inject needs --metrics, --metrics-out or --trace (faults are injected \
             into the instrumented simulation)"
                .to_string(),
        );
    }
    if opts.engine.is_some()
        && opts.metrics.is_none()
        && opts.metrics_out.is_none()
        && opts.trace.is_none()
    {
        return Err(
            "--engine needs --metrics, --metrics-out or --trace (the engine selects \
             how the instrumented simulation samples shots)"
                .to_string(),
        );
    }
    // stdout carries exactly one document; reject competing claims up front.
    let stdout_claims = usize::from(opts.metrics == Some(MetricsFormat::Json))
        + usize::from(opts.metrics_out.as_deref() == Some("-"))
        + usize::from(opts.trace.as_deref() == Some("-"));
    if stdout_claims > 1 {
        return Err(
            "at most one of --metrics=json, --metrics-out - and --trace - may write \
             to stdout; send the others to files"
                .to_string(),
        );
    }
    Ok(opts)
}

fn parse_engine(v: &str) -> Result<Engine, String> {
    Engine::parse(v).ok_or_else(|| {
        format!("--engine: unknown engine '{v}' (expected 'shots', 'prefix' or 'auto')")
    })
}

fn parse_clock(v: &str) -> Result<ClockMode, String> {
    match v {
        "wall" => Ok(ClockMode::Wall),
        "test" => Ok(ClockMode::Test),
        other => Err(format!(
            "--trace-clock: unknown clock '{other}' (expected 'wall' or 'test')"
        )),
    }
}

fn parse_list(value: Option<&String>, flag: &str) -> Result<Vec<usize>, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("{flag}: '{s}' is not a qubit index"))
        })
        .collect()
}

/// The usage string.
#[must_use]
pub fn usage() -> String {
    "usage: dqct --answer <i,j,...> [--data <i,...>] [--ancilla <i,...>]\n\
     \x20           [--scheme direct|dynamic1|dynamic2] [--reuse auto|off|K]\n\
     \x20           [--verify] [--analyze]\n\
     \x20           [--stats] [--metrics[=json|text]] [--shots N] [--seed N]\n\
     \x20           [--threads N] [--ascii] [--metrics-out PATH]\n\
     \x20           [--trace PATH] [--trace-clock wall|test]\n\
     \x20           [--mitigate reset-verify[=K],meas-repeat=R,readout-cal]\n\
     \x20           [--noise S] [--deadline-ms N] [--max-failed K]\n\
     \x20           [--inject seed=N,<site>=<rate>,...,delay-ms=N]\n\
     \x20           [--engine shots|prefix|auto] [--input FILE | FILE]\n\
     Reads OpenQASM 3 from FILE or stdin; qubits not listed under --answer\n\
     or --ancilla default to data.\n\
     --reuse explores the qubit-reuse design space: K physical lanes\n\
     replay the work qubits ('off' = one lane per work qubit, i.e. no\n\
     reuse; 'auto' picks the best width under the cost model; K = 1 is\n\
     the paper's scheme and the default without --reuse). A '// reuse:'\n\
     line reports the selection.\n\
     --metrics instruments the transform, verification and a seeded\n\
     simulation of the dynamic circuit, then prints the collected\n\
     counters, gauges and timing histograms ('json' prints one JSON\n\
     document instead of QASM; 'text' appends '//'-prefixed lines).\n\
     --metrics-out writes the metrics JSON document to PATH ('-' for\n\
     stdout) so it never interleaves with the QASM; --metrics=json is a\n\
     deprecated alias for --metrics-out -.\n\
     --trace writes a Chrome trace-event JSON file ('-' for stdout) of\n\
     the run — pipeline phases, per-shot spans, measure/reset/condition\n\
     sub-spans and fault instants — loadable in Perfetto or\n\
     chrome://tracing. --trace-clock test swaps the wall clock for a\n\
     deterministic virtual clock: traces become byte-identical for\n\
     every --threads value.\n\
     --threads sets the shot executor's worker count (default: all\n\
     cores); per-shot RNG streams keep seeded counts bit-identical\n\
     for every thread count.\n\
     --mitigate hardens the dynamic circuit: verified resets (K rounds),\n\
     repeated measurements with majority vote (R odd readings) and, with\n\
     --noise, readout-confusion inversion over the simulated counts.\n\
     --noise S simulates under NoiseModel::device_like(S); --deadline-ms\n\
     and --max-failed bound the simulation, which then degrades to partial\n\
     counts plus a run report instead of failing.\n\
     --inject runs the simulation under a deterministic fault plan (sites:\n\
     reset-leak, meas-flip, cc-flip, cc-loss, gate-drop, gate-dup, panic,\n\
     delay; rates in [0,1]); injections are counted as fault.injected.*\n\
     metrics and are bit-identical for every --threads value.\n\
     --engine picks the shot engine: 'shots' re-runs the circuit per shot,\n\
     'prefix' shares unitary prefixes via a branch tree and samples shots\n\
     by walking it (bit-identical counts at the same seed), 'auto' (the\n\
     default) uses prefix whenever the run is eligible — tracing, fault\n\
     injection, gate/idle noise or --max-failed fall back to per-shot.\n\
     A '// engine:' line reports the resolved engine."
        .to_string()
}

/// Runs the transformation on QASM text, returning the full output text.
///
/// # Errors
///
/// Returns a message for parse errors, role mismatches or unrealizable
/// circuits.
pub fn run(qasm_text: &str, opts: &CliOptions) -> Result<String, String> {
    let circuit = from_qasm(qasm_text).map_err(|e| e.to_string())?;
    // Ingestion boundary: reject structurally invalid circuits with a typed
    // one-line message instead of letting them panic deeper in the pipeline.
    circuit
        .validate()
        .map_err(|e| format!("invalid input circuit: {e}"))?;
    // Default: every unlisted qubit is data.
    let mut data: Vec<Qubit> = opts.data.iter().map(|&i| Qubit::new(i)).collect();
    if data.is_empty() {
        data = (0..circuit.num_qubits())
            .filter(|i| !opts.answer.contains(i) && !opts.ancilla.contains(i))
            .map(Qubit::new)
            .collect();
    }
    let roles = QubitRoles::new(
        data,
        opts.ancilla.iter().map(|&i| Qubit::new(i)).collect(),
        opts.answer.iter().map(|&i| Qubit::new(i)).collect(),
    );
    // Tracing or metrics output of any kind runs the instrumented pipeline
    // plus a seeded simulation of the dynamic circuit.
    let wants_sim = opts.metrics.is_some() || opts.metrics_out.is_some() || opts.trace.is_some();
    let obs = if wants_sim {
        Observer::metrics_only()
    } else {
        Observer::disabled()
    };
    let tracer = if opts.trace.is_some() {
        Tracer::enabled(opts.trace_clock)
    } else {
        Tracer::disabled()
    };
    // Pipeline-phase spans ride on the trace's top lane. On an error return
    // the open span is simply dropped — no trace file is written then.
    let mut phases = tracer.top_local();
    if let Some(t) = phases.as_mut() {
        t.begin("pipeline.transform");
    }
    let mut reuse_line = None;
    let dynamic = match opts.reuse {
        Some(mode) => {
            let (dynamic, report) = plan_with_scheme_observed(
                &circuit,
                &roles,
                opts.scheme,
                mode,
                &CostModel::default(),
                &TransformOptions::default(),
                &obs,
            )
            .map_err(|e| e.to_string())?;
            reuse_line = Some(format!("// reuse: {report}"));
            dynamic
        }
        None => transform_with_scheme_observed(
            &circuit,
            &roles,
            opts.scheme,
            &TransformOptions::default(),
            &obs,
        )
        .map_err(|e| e.to_string())?,
    };
    // Rewrite passes (verified resets, repeated measurements) widen the
    // classical register; readout calibration is counts post-processing only.
    let mitigated = if opts.mitigate.reset_verify.is_some() || opts.mitigate.meas_repeat.is_some() {
        Some(mitigate_observed(dynamic.circuit(), &opts.mitigate, &obs))
    } else {
        None
    };
    let hardened = mitigated
        .as_ref()
        .map_or(dynamic.circuit(), |m| m.circuit());
    if let Some(t) = phases.as_mut() {
        t.end();
    }
    let noise = match opts.noise {
        Some(scale) => Some(NoiseModel::try_device_like(scale).map_err(|e| e.to_string())?),
        None => None,
    };

    let mut out = String::new();
    if opts.ascii {
        let _ = writeln!(out, "// traditional:");
        for line in qcir::ascii::draw(&circuit).lines() {
            let _ = writeln!(out, "// {line}");
        }
        let _ = writeln!(out, "// dynamic ({}):", opts.scheme);
        for line in qcir::ascii::draw(dynamic.circuit()).lines() {
            let _ = writeln!(out, "// {line}");
        }
    }
    if let Some(line) = &reuse_line {
        let _ = writeln!(out, "{line}");
    }
    if opts.stats {
        let tradi = ResourceSummary::of_circuit(&circuit);
        let dyna = ResourceSummary::of_dynamic(&dynamic);
        let _ = writeln!(out, "// traditional: {tradi}");
        let _ = writeln!(out, "// dynamic:     {dyna}");
    }
    if opts.analyze {
        match dqc::analysis::analyze(&circuit, &roles) {
            Ok(a) => match a.exactness {
                dqc::Exactness::Exact => {
                    let _ = writeln!(
                        out,
                        "// analysis: EXACT ({} classicalized control(s), none disturbed)",
                        a.classicalized_gates
                    );
                }
                dqc::Exactness::Approximate { conflicts } => {
                    let _ = writeln!(
                        out,
                        "// analysis: APPROXIMATE ({} conflict(s)):",
                        conflicts.len()
                    );
                    for c in conflicts {
                        let _ = writeln!(out, "//   {c}");
                    }
                }
            },
            Err(e) => {
                let _ = writeln!(out, "// analysis: n/a ({e})");
            }
        }
    }
    if opts.verify {
        if let Some(t) = phases.as_mut() {
            t.begin("pipeline.verify");
        }
        let report = verify::compare_observed(&circuit, &roles, &dynamic, &obs);
        if let Some(t) = phases.as_mut() {
            t.end();
        }
        let _ = writeln!(
            out,
            "// verify: tvd = {:.6}, expected outcome '{}' p_tradi = {:.4} p_dyn = {:.4}",
            report.tvd, report.expected_outcome, report.p_traditional, report.p_dynamic
        );
    }
    // Phase spans are submitted before the simulation so the merged trace
    // always reads pipeline-first, executor-second.
    if let Some(t) = phases.take() {
        tracer.submit(t.into_events());
    }
    if wants_sim {
        // Run the (possibly hardened) dynamic circuit through the shot
        // executor under the same observer, so simulation counters land next
        // to the transform spans. The resilient entry point returns partial
        // counts plus a run report when a budget is exhausted.
        let mut exec = Executor::new()
            .shots(opts.shots)
            .seed(opts.seed)
            .observer(obs.clone())
            .tracer(tracer.clone());
        if let Some(threads) = opts.threads {
            exec = exec.threads(threads);
        }
        if let Some(model) = &noise {
            exec = exec.noise(model.clone());
        }
        if let Some(ms) = opts.deadline_ms {
            exec = exec.deadline(Duration::from_millis(ms));
        }
        if let Some(k) = opts.max_failed {
            exec = exec.max_failed(k);
        }
        if let Some(plan) = &opts.inject {
            exec = exec.fault_hook(Arc::new(plan.clone()));
        }
        if let Some(engine) = opts.engine {
            exec = exec.engine(engine);
            let _ = writeln!(out, "// engine: {}", exec.resolve_engine(hardened));
        }
        let (counts, report) = exec.run_resilient(hardened);
        let mut run_lines = Vec::new();
        run_lines.push(format!(
            "run: completed={} failed={} discarded={} termination={}",
            report.completed, report.failed, report.discarded, report.termination
        ));
        let resolved = mitigated
            .as_ref()
            .map(|m| m.resolve_observed(&counts, &obs));
        if let Some(r) = &resolved {
            run_lines.push(format!(
                "mitigate: votes_flipped={} reset_verify_fired={}",
                r.votes_flipped, r.reset_verify_fired
            ));
        }
        if opts.mitigate.readout_cal {
            let final_counts = resolved.as_ref().map_or(&counts, |r| &r.counts);
            let model = noise
                .as_ref()
                .unwrap_or_else(|| unreachable!("parse_args requires --noise for readout-cal"));
            let width = mitigated
                .as_ref()
                .map_or(hardened.num_clbits(), |m| m.original_clbits());
            let corrected = ReadoutCalibration::calibrate(
                model,
                width,
                opts.shots.max(4096),
                opts.seed.wrapping_add(1),
            )
            .and_then(|cal| cal.correct(final_counts))
            .map_err(|e| e.to_string())?;
            if let Some(top) = corrected.argmax() {
                obs.gauge_set("mitigate.readout_cal_top_p", corrected.get(top));
                run_lines.push(format!(
                    "readout-cal: argmax '{top}' p={:.4}",
                    corrected.get(top)
                ));
            }
        }
        // Side-channel documents first (files never compete with stdout),
        // then at most one stdout claimant — parse_args enforced that.
        let metrics_json = {
            let mut json = obs.metrics().to_json();
            json.push('\n');
            json
        };
        if let Some(path) = &opts.metrics_out {
            if path != "-" {
                std::fs::write(path, &metrics_json)
                    .map_err(|e| format!("--metrics-out: cannot write '{path}': {e}"))?;
            }
        }
        let mut trace_doc = None;
        if let Some(path) = &opts.trace {
            let mut json = tracer.export_chrome();
            json.push('\n');
            if path == "-" {
                trace_doc = Some(json);
            } else {
                std::fs::write(path, &json)
                    .map_err(|e| format!("--trace: cannot write '{path}': {e}"))?;
            }
        }
        if let Some(doc) = trace_doc {
            return Ok(doc);
        }
        if opts.metrics_out.as_deref() == Some("-") {
            return Ok(metrics_json);
        }
        match opts.metrics {
            Some(MetricsFormat::Json) => {
                // Deprecated alias for `--metrics-out -`: the output is
                // exactly one JSON document.
                return Ok(metrics_json);
            }
            Some(MetricsFormat::Text) => {
                for line in run_lines {
                    let _ = writeln!(out, "// {line}");
                }
                for line in obs.metrics().to_text().lines() {
                    let _ = writeln!(out, "// {line}");
                }
            }
            None => {}
        }
        if opts.trace.as_deref().is_some_and(|p| p != "-") {
            // A compact profile next to the QASM when the full trace went to
            // a file: top spans by total time, then instant counts.
            for line in tracer.summary(8).lines() {
                let _ = writeln!(out, "// {line}");
            }
        }
    }
    out.push_str(&to_qasm(hardened));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    const BV_QASM: &str = "\
OPENQASM 3.0;
include \"stdgates.inc\";
qubit[3] q;
x q[2];
h q[2];
h q[0];
cx q[0], q[2];
h q[0];
h q[1];
cx q[1], q[2];
h q[1];
";

    #[test]
    fn parse_full_flag_set() {
        let o = parse_args(&args(
            "--data 0,1 --answer 2 --scheme dynamic1 --verify --stats --ascii --input f.qasm",
        ))
        .unwrap();
        assert_eq!(o.data, vec![0, 1]);
        assert_eq!(o.answer, vec![2]);
        assert_eq!(o.scheme, DynamicScheme::Dynamic1);
        assert!(o.verify && o.stats && o.ascii);
        assert_eq!(o.input.as_deref(), Some("f.qasm"));
    }

    #[test]
    fn answer_flag_is_required() {
        let err = parse_args(&args("--data 0,1")).unwrap_err();
        assert!(err.contains("--answer is required"));
    }

    #[test]
    fn unknown_flags_and_schemes_are_rejected() {
        assert!(parse_args(&args("--answer 2 --frobnicate")).is_err());
        assert!(parse_args(&args("--answer 2 --scheme warp")).is_err());
        assert!(parse_args(&args("--answer x")).is_err());
    }

    #[test]
    fn analyze_flag_reports_verdicts() {
        let opts = parse_args(&args("--answer 2 --analyze")).unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        assert!(out.contains("// analysis: EXACT"), "{out}");

        let toffoli = "qubit[3] q;\nh q[0];\nh q[1];\ncx q[0], q[1];\nh q[0];\ncx q[1], q[2];\n";
        let out = run(toffoli, &opts).unwrap();
        assert!(out.contains("// analysis: APPROXIMATE"), "{out}");
    }

    #[test]
    fn reuse_flag_parses_both_forms_and_rejects_junk() {
        let auto = parse_args(&args("--answer 2 --reuse auto")).unwrap();
        assert_eq!(auto.reuse, Some(ReuseMode::Auto));
        let off = parse_args(&args("--answer 2 --reuse=off")).unwrap();
        assert_eq!(off.reuse, Some(ReuseMode::Off));
        let k = parse_args(&args("--answer 2 --reuse=3")).unwrap();
        assert_eq!(k.reuse, Some(ReuseMode::Width(3)));
        assert_eq!(parse_args(&args("--answer 2")).unwrap().reuse, None);
        let err = parse_args(&args("--answer 2 --reuse=wide")).unwrap_err();
        assert!(err.contains("--reuse:"), "{err}");
        assert!(parse_args(&args("--answer 2 --reuse")).is_err());
    }

    #[test]
    fn reuse_auto_reports_selection_and_keeps_qasm_parseable() {
        let opts = parse_args(&args("--answer 2 --reuse auto --verify")).unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        assert!(out.contains("// reuse: "), "{out}");
        assert!(out.contains("// verify: tvd = 0.000000"), "{out}");
        assert!(from_qasm(&out).is_ok(), "{out}");
    }

    #[test]
    fn reuse_off_emits_the_full_width_circuit() {
        let opts = parse_args(&args("--answer 2 --reuse off")).unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        // No reuse: 2 work lanes + 1 answer wire, and no resets at all.
        assert!(out.contains("qubit[3] q;"), "{out}");
        assert!(!out.contains("reset"), "{out}");
    }

    #[test]
    fn reuse_width_one_matches_the_default_path() {
        let legacy = parse_args(&args("--answer 2")).unwrap();
        let k1 = parse_args(&args("--answer 2 --reuse 1")).unwrap();
        let a = run(BV_QASM, &legacy).unwrap();
        let b = run(BV_QASM, &k1).unwrap();
        // The reuse line is the only difference; the QASM is identical.
        let stripped: String =
            b.lines()
                .filter(|l| !l.starts_with("// reuse:"))
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        assert_eq!(a, stripped);
    }

    #[test]
    fn reuse_infeasible_width_is_a_clear_error() {
        let opts = parse_args(&args("--answer 2 --reuse 9")).unwrap();
        let err = run(BV_QASM, &opts).unwrap_err();
        assert!(err.contains("invalid reuse plan"), "{err}");
    }

    #[test]
    fn metrics_flag_parses_all_forms() {
        let bare = parse_args(&args("--answer 2 --metrics")).unwrap();
        assert_eq!(bare.metrics, Some(MetricsFormat::Text));
        let json = parse_args(&args("--answer 2 --metrics=json")).unwrap();
        assert_eq!(json.metrics, Some(MetricsFormat::Json));
        let text = parse_args(&args("--answer 2 --metrics=text")).unwrap();
        assert_eq!(text.metrics, Some(MetricsFormat::Text));
        assert_eq!(bare.shots, 1024);
        assert_eq!(bare.seed, 7);
        assert_eq!(bare.threads, None);
        let tuned = parse_args(&args(
            "--answer 2 --metrics --shots 64 --seed 3 --threads 4",
        ))
        .unwrap();
        assert_eq!((tuned.shots, tuned.seed, tuned.threads), (64, 3, Some(4)));
    }

    #[test]
    fn threads_flag_rejects_bad_values() {
        assert!(parse_args(&args("--answer 2 --threads many")).is_err());
        let err = parse_args(&args("--answer 2 --threads 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(parse_args(&args("--answer 2 --threads")).is_err());
    }

    #[test]
    fn bad_metrics_format_is_a_clear_error() {
        let err = parse_args(&args("--answer 2 --metrics=xml")).unwrap_err();
        assert!(
            err.contains("unknown metrics format 'xml'")
                && err.contains("expected 'json' or 'text'"),
            "{err}"
        );
        assert!(parse_args(&args("--answer 2 --shots lots")).is_err());
        assert!(parse_args(&args("--answer 2 --seed abc")).is_err());
    }

    #[test]
    fn positional_input_file_is_accepted() {
        let o = parse_args(&args("--answer 2 circuit.qasm")).unwrap();
        assert_eq!(o.input.as_deref(), Some("circuit.qasm"));
        // A second positional is rejected.
        assert!(parse_args(&args("--answer 2 a.qasm b.qasm")).is_err());
    }

    #[test]
    fn metrics_json_mode_emits_one_valid_document() {
        let opts = parse_args(&args("--answer 2 --metrics=json --shots 32")).unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        qobs::json::validate(&out).expect("output must be valid JSON");
        // The acceptance-criteria fields are all present.
        for key in [
            "\"transform.lower_ns\"",
            "\"transform.reorder_ns\"",
            "\"transform.emit_ns\"",
            "\"transform.peephole_ns\"",
            "\"executor.run_resilient_ns\"",
            "\"executor.shots\"",
            "\"executor.gates.h\"",
            "\"executor.resets\"",
            "\"executor.mid_circuit_measurements\"",
            "\"executor.cc_fired\"",
            "\"executor.cc_skipped\"",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // 32 shots requested.
        assert!(out.contains("\"executor.shots\":32"), "{out}");
        // No QASM in JSON mode.
        assert!(!out.contains("OPENQASM"));
    }

    #[test]
    fn metrics_text_mode_appends_comments_and_keeps_qasm() {
        let opts = parse_args(&args("--answer 2 --metrics --shots 16")).unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        assert!(out.contains("qubit[2] q;"), "{out}");
        assert!(out.contains("// counter   executor.shots = 16"), "{out}");
        assert!(from_qasm(&out).is_ok(), "QASM must stay parseable");
    }

    #[test]
    fn metrics_runs_are_seed_reproducible() {
        let opts = parse_args(&args("--answer 2 --metrics=json --shots 64 --seed 5")).unwrap();
        let (a, b) = (run(BV_QASM, &opts).unwrap(), run(BV_QASM, &opts).unwrap());
        let counters = |s: &str| {
            let start = s.find("\"counters\"").unwrap();
            let end = s.find("\"gauges\"").unwrap();
            s[start..end].to_string()
        };
        assert_eq!(counters(&a), counters(&b));
    }

    #[test]
    fn metrics_counters_are_identical_across_thread_counts() {
        // The stronger determinism contract: per-shot RNG streams make the
        // seeded simulation (and hence every outcome-dependent counter,
        // e.g. executor.cc_fired) bit-identical at any worker count.
        let counters = |threads: &str| {
            let opts = parse_args(&args(&format!(
                "--answer 2 --metrics=json --shots 128 --seed 5 --threads {threads}"
            )))
            .unwrap();
            let out = run(BV_QASM, &opts).unwrap();
            let start = out.find("\"counters\"").unwrap();
            let end = out.find("\"gauges\"").unwrap();
            out[start..end].to_string()
        };
        let one = counters("1");
        assert_eq!(counters("2"), one);
        assert_eq!(counters("8"), one);
    }

    #[test]
    fn mitigate_flag_parses_both_forms() {
        let eq = parse_args(&args("--answer 2 --mitigate=reset-verify,meas-repeat=3")).unwrap();
        assert_eq!(eq.mitigate.reset_verify, Some(1));
        assert_eq!(eq.mitigate.meas_repeat, Some(3));
        let sep = parse_args(&args("--answer 2 --mitigate meas-repeat=5")).unwrap();
        assert_eq!(sep.mitigate.meas_repeat, Some(5));
        let err = parse_args(&args("--answer 2 --mitigate=meas-repeat=2")).unwrap_err();
        assert!(err.contains("--mitigate:"), "{err}");
    }

    #[test]
    fn readout_cal_requires_noise() {
        let err = parse_args(&args("--answer 2 --mitigate=readout-cal")).unwrap_err();
        assert!(err.contains("needs --noise"), "{err}");
        let ok = parse_args(&args("--answer 2 --mitigate=readout-cal --noise 0.5")).unwrap();
        assert!(ok.mitigate.readout_cal);
        assert_eq!(ok.noise, Some(0.5));
    }

    #[test]
    fn resilience_flags_are_validated() {
        assert!(parse_args(&args("--answer 2 --noise -1")).is_err());
        assert!(parse_args(&args("--answer 2 --noise hot")).is_err());
        assert!(parse_args(&args("--answer 2 --deadline-ms soon")).is_err());
        assert!(parse_args(&args("--answer 2 --max-failed some")).is_err());
        let o = parse_args(&args("--answer 2 --deadline-ms 250 --max-failed 3")).unwrap();
        assert_eq!(o.deadline_ms, Some(250));
        assert_eq!(o.max_failed, Some(3));
        // An already-expired deadline is a legal chaos-drill budget.
        let zero = parse_args(&args("--answer 2 --deadline-ms 0")).unwrap();
        assert_eq!(zero.deadline_ms, Some(0));
    }

    #[test]
    fn inject_flag_parses_and_requires_metrics() {
        let o = parse_args(&args(
            "--answer 2 --metrics=json --inject seed=9,meas-flip=0.25",
        ))
        .unwrap();
        let plan = o.inject.expect("plan parsed");
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.rate(qfault::FaultSite::MeasFlip), 0.25);
        // `--inject=SPEC` form too.
        let eq = parse_args(&args("--answer 2 --metrics --inject=reset-leak=0.1")).unwrap();
        assert!(eq.inject.is_some());
        let err = parse_args(&args("--answer 2 --inject meas-flip=0.25")).unwrap_err();
        assert!(err.contains("--inject needs --metrics"), "{err}");
        let err = parse_args(&args("--answer 2 --metrics --inject warp=0.1")).unwrap_err();
        assert!(err.contains("--inject: bad fault spec token"), "{err}");
    }

    #[test]
    fn injected_faults_are_counted_and_thread_invariant() {
        let counters = |threads: &str| {
            let opts = parse_args(&args(&format!(
                "--answer 2 --metrics=json --shots 128 --seed 5 --threads {threads} \
                 --inject seed=3,meas-flip=0.2,reset-leak=0.2,cc-flip=0.1,gate-drop=0.1"
            )))
            .unwrap();
            let out = run(BV_QASM, &opts).unwrap();
            let start = out.find("\"counters\"").unwrap();
            let end = out.find("\"gauges\"").unwrap();
            out[start..end].to_string()
        };
        let one = counters("1");
        assert!(one.contains("\"fault.injected.meas-flip\""), "{one}");
        assert!(one.contains("\"fault.injected.reset-leak\""), "{one}");
        assert_eq!(counters("8"), one);
    }

    #[test]
    fn engine_flag_parses_both_forms_and_rejects_junk() {
        let sep = parse_args(&args("--answer 2 --metrics --engine prefix")).unwrap();
        assert_eq!(sep.engine, Some(Engine::Prefix));
        let eq = parse_args(&args("--answer 2 --metrics --engine=shots")).unwrap();
        assert_eq!(eq.engine, Some(Engine::Shots));
        let auto = parse_args(&args("--answer 2 --metrics --engine auto")).unwrap();
        assert_eq!(auto.engine, Some(Engine::Auto));
        assert_eq!(parse_args(&args("--answer 2")).unwrap().engine, None);
        let err = parse_args(&args("--answer 2 --metrics --engine=warp")).unwrap_err();
        assert!(err.contains("unknown engine 'warp'"), "{err}");
        assert!(parse_args(&args("--answer 2 --metrics --engine")).is_err());
        // Like --inject, the flag shapes the instrumented simulation only.
        let err = parse_args(&args("--answer 2 --engine prefix")).unwrap_err();
        assert!(err.contains("--engine needs --metrics"), "{err}");
    }

    #[test]
    fn engine_line_reports_the_resolved_engine() {
        let run_with = |flags: &str| {
            let opts =
                parse_args(&args(&format!("--answer 2 --metrics --shots 32 {flags}"))).unwrap();
            run(BV_QASM, &opts).unwrap()
        };
        // Explicit engines report themselves; the eligible auto run resolves
        // to prefix; a fault plan forces per-shot; no flag, no line.
        assert!(run_with("--engine prefix").contains("// engine: prefix"));
        assert!(run_with("--engine shots").contains("// engine: shots"));
        assert!(run_with("--engine auto").contains("// engine: prefix"));
        assert!(run_with("--engine auto --inject meas-flip=0.1").contains("// engine: shots"));
        assert!(run_with("--engine auto --max-failed 3").contains("// engine: shots"));
        // A deadline is polled cooperatively and keeps the prefix engine.
        assert!(run_with("--engine prefix --deadline-ms 60000").contains("// engine: prefix"));
        assert!(!run_with("").contains("// engine:"));
    }

    #[test]
    fn engine_choice_does_not_change_the_counts() {
        let counters = |engine: &str| {
            let opts = parse_args(&args(&format!(
                "--answer 2 --metrics=json --shots 128 --seed 5 --engine {engine}"
            )))
            .unwrap();
            let out = run(BV_QASM, &opts).unwrap();
            let start = out.find("\"counters\"").unwrap();
            let end = out.find("\"gauges\"").unwrap();
            // The prefix run adds prefix.* tree counters; every shared
            // counter (executor.*, transform.*, ...) must agree exactly.
            // Counter values are scalars, so the section splits on commas.
            out[start..end]
                .split(',')
                .filter(|kv| !kv.contains("\"prefix."))
                .collect::<Vec<_>>()
                .join(",")
        };
        assert_eq!(counters("shots"), counters("prefix"));
    }

    #[test]
    fn trace_and_metrics_out_flags_parse_all_forms() {
        let o = parse_args(&args(
            "--answer 2 --trace out.json --trace-clock test --metrics-out m.json",
        ))
        .unwrap();
        assert_eq!(o.trace.as_deref(), Some("out.json"));
        assert_eq!(o.trace_clock, ClockMode::Test);
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        // `=` forms and the stdout sentinel.
        let eq = parse_args(&args("--answer 2 --trace=- --trace-clock=wall")).unwrap();
        assert_eq!(eq.trace.as_deref(), Some("-"));
        assert_eq!(eq.trace_clock, ClockMode::Wall);
        let err = parse_args(&args("--answer 2 --trace-clock sundial")).unwrap_err();
        assert!(err.contains("expected 'wall' or 'test'"), "{err}");
        // The default clock is wall.
        assert_eq!(
            parse_args(&args("--answer 2")).unwrap().trace_clock,
            ClockMode::Wall
        );
    }

    #[test]
    fn stdout_can_only_be_claimed_once() {
        let err = parse_args(&args("--answer 2 --metrics=json --trace -")).unwrap_err();
        assert!(err.contains("at most one"), "{err}");
        let err = parse_args(&args("--answer 2 --metrics-out - --trace=-")).unwrap_err();
        assert!(err.contains("at most one"), "{err}");
        // One claimant plus file sinks is fine.
        assert!(parse_args(&args("--answer 2 --metrics=json --trace t.json")).is_ok());
    }

    #[test]
    fn inject_is_satisfied_by_any_instrumented_mode() {
        assert!(parse_args(&args("--answer 2 --trace=- --inject meas-flip=0.1")).is_ok());
        assert!(parse_args(&args(
            "--answer 2 --metrics-out m.json --inject meas-flip=0.1"
        ))
        .is_ok());
    }

    #[test]
    fn trace_to_stdout_is_one_chrome_trace_document() {
        let opts = parse_args(&args(
            "--answer 2 --trace - --trace-clock test --shots 16 --seed 3",
        ))
        .unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        qobs::json::validate(&out).expect("trace must be valid JSON");
        assert!(out.trim_start().starts_with('['), "{out}");
        assert!(!out.contains("OPENQASM"), "trace replaces the QASM: {out}");
        for needle in [
            "\"pipeline.transform\"",
            "\"shot\"",
            "\"measure\"",
            "\"executor.run_resilient\"",
            "\"executor.run_end\"",
        ] {
            assert!(out.contains(needle), "missing {needle} in {out}");
        }
    }

    #[test]
    fn trace_file_is_byte_identical_across_thread_counts() {
        let dir = std::env::temp_dir();
        let trace_for = |threads: u32| {
            let path = dir.join(format!("dqct_trace_{}_{threads}.json", std::process::id()));
            let opts = parse_args(&args(&format!(
                "--answer 2 --trace {} --trace-clock test --shots 64 --seed 9 \
                 --threads {threads} --verify",
                path.display()
            )))
            .unwrap();
            let out = run(BV_QASM, &opts).unwrap();
            // QASM still owns stdout when the trace goes to a file, with a
            // compact summary appended as comments.
            assert!(out.contains("OPENQASM"), "{out}");
            assert!(out.contains("// "), "{out}");
            let doc = std::fs::read_to_string(&path).expect("trace file written");
            let _ = std::fs::remove_file(&path);
            doc
        };
        let one = trace_for(1);
        qobs::json::validate(&one).expect("trace must be valid JSON");
        assert!(one.contains("\"pipeline.verify\""), "{one}");
        assert_eq!(
            trace_for(8),
            one,
            "test-clock traces must not depend on --threads"
        );
    }

    #[test]
    fn metrics_out_writes_the_document_beside_the_qasm() {
        let path = std::env::temp_dir().join(format!("dqct_metrics_{}.json", std::process::id()));
        let opts = parse_args(&args(&format!(
            "--answer 2 --metrics-out {} --shots 32 --seed 3",
            path.display()
        )))
        .unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        assert!(out.contains("OPENQASM"), "QASM stays on stdout: {out}");
        let doc = std::fs::read_to_string(&path).expect("metrics file written");
        let _ = std::fs::remove_file(&path);
        qobs::json::validate(&doc).expect("metrics must be valid JSON");
        assert!(doc.contains("\"executor.shots\":32"), "{doc}");
    }

    #[test]
    fn metrics_out_stdout_matches_the_deprecated_alias() {
        let new = parse_args(&args("--answer 2 --metrics-out - --shots 32 --seed 3")).unwrap();
        let old = parse_args(&args("--answer 2 --metrics=json --shots 32 --seed 3")).unwrap();
        let (a, b) = (run(BV_QASM, &new).unwrap(), run(BV_QASM, &old).unwrap());
        let counters = |s: &str| {
            let start = s.find("\"counters\"").unwrap();
            let end = s.find("\"gauges\"").unwrap();
            s[start..end].to_string()
        };
        assert_eq!(counters(&a), counters(&b));
        assert!(!a.contains("OPENQASM"), "{a}");
    }

    #[test]
    fn mitigated_run_emits_widened_qasm_and_run_report() {
        let opts = parse_args(&args(
            "--answer 2 --metrics --shots 32 --mitigate=reset-verify,meas-repeat=3",
        ))
        .unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        // 2 original bits + 2 ballots per measurement + 1 verify bit per reset.
        assert!(out.contains("// run: completed=32"), "{out}");
        assert!(out.contains("// mitigate: votes_flipped="), "{out}");
        assert!(!out.contains("bit[2] c;"), "register must widen: {out}");
        assert!(
            from_qasm(&out).is_ok(),
            "mitigated QASM must stay parseable"
        );
    }

    #[test]
    fn mitigated_counts_are_thread_count_invariant() {
        let counters = |threads: &str| {
            let opts = parse_args(&args(&format!(
                "--answer 2 --metrics=json --shots 128 --seed 5 --threads {threads} \
                 --noise 1.0 --mitigate=meas-repeat=3"
            )))
            .unwrap();
            let out = run(BV_QASM, &opts).unwrap();
            let start = out.find("\"counters\"").unwrap();
            let end = out.find("\"gauges\"").unwrap();
            out[start..end].to_string()
        };
        assert_eq!(counters("1"), counters("8"));
    }

    #[test]
    fn readout_cal_reports_corrected_argmax() {
        let opts = parse_args(&args(
            "--answer 2 --metrics --shots 64 --noise 1.0 --mitigate=readout-cal",
        ))
        .unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        assert!(out.contains("// readout-cal: argmax"), "{out}");
    }

    #[test]
    fn run_transforms_bv_and_emits_qasm() {
        let opts = parse_args(&args("--answer 2 --verify --stats")).unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        assert!(out.contains("qubit[2] q;"), "{out}");
        assert!(out.contains("reset q[0];"));
        assert!(out.contains("// verify: tvd = 0.000000"));
        assert!(out.contains("// dynamic:"));
    }

    #[test]
    fn run_defaults_unlisted_qubits_to_data() {
        let opts = parse_args(&args("--answer 2")).unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        // 2 data iterations -> 2 classical bits.
        assert!(out.contains("bit[2] c;"), "{out}");
    }

    #[test]
    fn run_reports_qasm_errors() {
        let opts = parse_args(&args("--answer 2")).unwrap();
        let err = run("qubit[1] q;\nwarble q[0];\n", &opts).unwrap_err();
        assert!(err.contains("unsupported gate"));
    }

    #[test]
    fn run_reports_transform_errors() {
        let opts = parse_args(&args("--answer 2")).unwrap();
        let cyclic = "qubit[3] q;\ncx q[0], q[1];\ncx q[1], q[0];\n";
        let err = run(cyclic, &opts).unwrap_err();
        assert!(err.contains("cyclic"));
    }

    #[test]
    fn ascii_mode_prefixes_comments() {
        let opts = parse_args(&args("--answer 2 --ascii")).unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        assert!(out.contains("// traditional:"));
        assert!(out.lines().filter(|l| l.starts_with("// ")).count() > 4);
    }

    #[test]
    fn output_round_trips_through_the_parser() {
        let opts = parse_args(&args("--answer 2")).unwrap();
        let out = run(BV_QASM, &opts).unwrap();
        assert!(from_qasm(&out).is_ok());
    }
}
