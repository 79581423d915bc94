//! `perfbench` — the production-path benchmark for `dqct`.
//!
//! ```text
//! bash perfbench/run.sh --workload <svc-zipf|svc-durable|run-noisy> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Workloads (see `perfbench/README.md` for the full design):
//!
//! * `svc-zipf` — `dqctd` over loopback TCP, template traffic: Zipf-skewed
//!   draws from a seeded pool of 1024 templates (4x the daemon's default
//!   256-entry transform cache), server-default 1024 shots, no journal.
//! * `svc-durable` — `dqctd` with `--journal` on a fresh file and
//!   `--fsync always`; every job is a circuit not seen before in the run.
//! * `run-noisy` — the `dqct --verify --noise` library path in process
//!   under `NoiseModel::device_like(1.0)` at 1024 shots.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1`, the per-layer metrics (from the untraced run plus a
//! traced single-thread replay of the same seeded jobs).

mod check;
mod daemon;
mod inputs;
mod load;
mod replay;

use daemon::Daemon;
use dqctd::{field_str, render_submit, FsyncPolicy, JobSpec};
use inputs::{Rng, Template, Zipf};
use load::Phase;
use qcir::qasm::from_qasm;
use qsim::{Executor, NoiseModel};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Shots per job: the paper's setting and the daemon's default.
const SHOTS: u64 = 1024;
/// Template pool size for `svc-zipf`: 4x the daemon's default cache.
const ZIPF_POOL: usize = 1024;
/// Zipf exponent of template popularity.
const ZIPF_S: f64 = 1.0;
/// Template pool size for `run-noisy`.
const NOISY_POOL: usize = 256;
/// Jobs kept in flight in a closed-loop segment (the daemon's default
/// queue holds 64).
const WINDOW: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Open-loop rates in jobs per second, low and high. Fixed constants, set
/// once at roughly a third and two thirds of the closed-loop `ops_per_s`
/// measured on the commit that introduced this benchmark; they do not
/// follow later code.
const ZIPF_RATES: (f64, f64) = (340.0, 680.0);
const DURABLE_RATES: (f64, f64) = (250.0, 500.0);
/// The svc load runs in cycles of three segments: open loop at the lower
/// rate for this long, open loop at the higher rate for this long, then a
/// closed loop through as many jobs as three times the lower rate sends in
/// this long (about this long too, at the closed-loop rate measured when
/// the rates were set). Cycles repeat to fill `--seconds`, so each kind of
/// load samples the whole run, and every run of a seed sends the same jobs.
const SEGMENT_S: f64 = 1.0;
/// Upper bound on `run-noisy` circuits per second, for sizing its seeded
/// job list (about twice the measured 1024-shot rate).
const NOISY_OPS_CAP: f64 = 400.0;
/// Jobs in the traced replay, per workload.
const REPLAY_JOBS: (usize, usize, usize) = (1500, 300, 150);
/// The traced replay's layer self-times must add up to its wall time
/// within this share of it.
const RECONCILE_BOUND: f64 = 0.05;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    SvcZipf,
    SvcDurable,
    RunNoisy,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "svc-zipf" => Workload::SvcZipf,
                    "svc-durable" => Workload::SvcDurable,
                    "run-noisy" => Workload::RunNoisy,
                    other => return Err(format!("unknown workload '{other}'")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run_dir = PathBuf::from(".bench_run");
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload {
        Workload::RunNoisy => run_noisy(&args, &run_dir),
        _ => run_service(&args, &run_dir),
    };
    match outcome {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// JSON has no NaN or infinity; an empty sample reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A run's latency `q`-percentile: each scored segment's percentile, then
/// the first quartile of those. A slowdown of the shared host only ever
/// raises the segments it falls in, and queueing multiplies it there, so
/// this holds still until three quarters of a run's segments fall in one,
/// while a change to the program moves every segment and this with them.
fn segment_latency(per_segment: &BTreeMap<usize, Vec<f64>>, q: f64) -> f64 {
    let figures: Vec<f64> = per_segment.values().map(|v| percentile(v, q)).collect();
    percentile(&figures, 0.25)
}

/// Whether a traced run's layers reconcile with its replay's wall time
/// (always true untraced).
fn reconciled(args: &Args, metrics: &[Metric]) -> bool {
    let Some(sum) = metrics.iter().find(|m| m.name == "bench.layer_sum_frac") else {
        return !args.trace;
    };
    let ok = (1.0 - sum.value).abs() <= RECONCILE_BOUND;
    if !ok {
        eprintln!(
            "perfbench: layer self-times sum to {:.3} of the replay's wall time, outside 1 +- {RECONCILE_BOUND}",
            sum.value
        );
    }
    ok
}

/// Warns when a p99 has fewer than ten samples beyond it.
fn p99_samples(what: &str, n: usize) {
    if n < 1000 {
        eprintln!(
            "perfbench: warning: {what} has {n} samples; its p99 has fewer than 10 beyond it"
        );
    }
}

/// Pulls a number field (`"key":1.25`) out of a flat JSON response.
fn field_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let end = json[start..]
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .map_or(json.len(), |e| start + e);
    json[start..end].parse().ok()
}

fn submit_frame(id: String, template: &Template, seed: u64) -> Vec<u8> {
    daemon::frame(&render_submit(&JobSpec {
        id,
        shots: None,
        seed: Some(seed),
        answer: vec![template.answer],
        data: Vec::new(),
        ancilla: Vec::new(),
        scheme: Some(template.scheme_name().to_string()),
        deadline_ms: None,
        qasm: template.qasm.clone(),
    }))
}

/// One parsed response to a measured job.
struct Answer {
    at: Instant,
    bytes: usize,
    result: bool,
    rejected: bool,
    completed: bool,
    cache_hit: bool,
    queue_ms: f64,
    run_ms: f64,
    counts: String,
}

fn run_service(args: &Args, run_dir: &Path) -> Result<Report, String> {
    let bin = PathBuf::from(
        std::env::var_os("PERFBENCH_DAEMON").ok_or("PERFBENCH_DAEMON is not set (use run.sh)")?,
    );
    let durable = args.workload == Workload::SvcDurable;
    let (rate_low, rate_high) = if durable { DURABLE_RATES } else { ZIPF_RATES };
    let cycles = ((args.seconds / (3.0 * SEGMENT_S)) as usize).max(2);

    // Inputs, off every clock.
    let mut rng = Rng::new(args.seed);
    let mut phases = Vec::with_capacity(3 * cycles);
    let mut count = 0;
    for _ in 0..cycles {
        for rate in [rate_low, rate_high] {
            let offsets = inputs::poisson_schedule(&mut rng, rate, SEGMENT_S);
            count += offsets.len();
            phases.push(Phase::Open {
                offsets,
                secs: SEGMENT_S,
            });
        }
        let closed = (3.0 * rate_low * SEGMENT_S).round() as usize;
        count += closed;
        phases.push(Phase::Closed {
            window: WINDOW,
            jobs: closed,
        });
    }
    let warm = inputs::suite_templates();
    let templates = if durable {
        inputs::unique_templates(&mut rng, count, &warm)
    } else {
        inputs::template_pool(&mut rng, ZIPF_POOL)
    };
    let zipf = Zipf::new(templates.len(), ZIPF_S);
    let jobs: Vec<(usize, u64)> = (0..count)
        .map(|i| {
            let tpl = if durable { i } else { zipf.sample(&mut rng) };
            (tpl, rng.next_u64())
        })
        .collect();
    let frames: Vec<Vec<u8>> = jobs
        .iter()
        .enumerate()
        .map(|(i, &(tpl, seed))| submit_frame(format!("j{i}"), &templates[tpl], seed))
        .collect();
    let warm_frames: Vec<Vec<u8>> = warm
        .iter()
        .enumerate()
        .map(|(i, t)| submit_frame(format!("w{i}"), t, i as u64))
        .collect();

    // Set-up, several times: boot (and journal open), then the warm-up pass.
    let tag = format!("{}-{}", std::process::id(), args.seed);
    let mut setups = Vec::new();
    let mut kept = None;
    let mut journal_path = None;
    for rep in 0..SETUP_REPS {
        let mut extra = Vec::new();
        if durable {
            let path = run_dir.join(format!("{tag}-{rep}.wal"));
            let _ = std::fs::remove_file(&path);
            extra = vec![
                "--journal".to_string(),
                path.display().to_string(),
                "--fsync".to_string(),
                "always".to_string(),
            ];
            journal_path = Some(path);
        }
        let started = Instant::now();
        let daemon =
            Daemon::start(&bin, run_dir, &tag, &extra).map_err(|e| format!("dqctd: {e}"))?;
        let warmed = load::drive(
            daemon.addr,
            &warm_frames,
            &[Phase::Closed {
                window: WINDOW,
                jobs: warm_frames.len(),
            }],
            false,
        )
        .map_err(|e| format!("warm-up: {e}"))?;
        setups.push(started.elapsed().as_secs_f64());
        let bad = warmed
            .responses
            .iter()
            .filter(|(_, p)| !p.starts_with(b"{\"type\":\"result\""))
            .count();
        if warmed.responses.len() != warm_frames.len() || bad > 0 {
            return Err(format!(
                "warm-up: {bad} of {} jobs failed",
                warm_frames.len()
            ));
        }
        kept = Some(daemon);
    }
    let daemon = kept.expect("at least one set-up ran");

    // The measured run.
    let trace = load::drive(daemon.addr, &frames, &phases, true).map_err(|e| e.to_string())?;
    let rss = daemon.peak_rss_mb().map_err(|e| e.to_string())?;
    drop(daemon);
    let journal_bytes = journal_path
        .as_ref()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    for rep in 0..SETUP_REPS {
        let _ = std::fs::remove_file(run_dir.join(format!("{tag}-{rep}.wal")));
    }

    // Match responses to jobs.
    let sent = trace.sent.len();
    let mut answers: Vec<Option<Answer>> = (0..sent).map(|_| None).collect();
    for (at, payload) in &trace.responses {
        let text = String::from_utf8_lossy(payload);
        let Some(job) = field_str(&text, "id")
            .and_then(|id| id.strip_prefix('j'))
            .and_then(|i| i.parse::<usize>().ok())
            .filter(|&i| i < sent)
        else {
            continue;
        };
        let kind = field_str(&text, "type").unwrap_or("");
        answers[job] = Some(Answer {
            at: *at,
            bytes: payload.len() + 4,
            result: kind == "result",
            rejected: kind == "rejected",
            completed: field_str(&text, "termination") == Some("completed"),
            cache_hit: field_str(&text, "cache") == Some("hit"),
            queue_ms: field_f64(&text, "queue_ms").unwrap_or(0.0),
            run_ms: field_f64(&text, "run_ms").unwrap_or(0.0),
            counts: dqctd::field_counts(&text).unwrap_or("").to_string(),
        });
    }

    // Output check, off the clock.
    let ok: Vec<(usize, u64, &str)> = answers
        .iter()
        .enumerate()
        .filter_map(|(i, a)| {
            a.as_ref()
                .filter(|a| a.result && a.completed)
                .map(|a| (jobs[i].0, jobs[i].1, a.counts.as_str()))
        })
        .collect();
    let mismatches = check::svc_mismatches(&templates, &ok, SHOTS);

    // Segment `i` is of kind `i % 3`: 0 open loop at the lower rate, 1 at
    // the higher rate, 2 closed loop. The first cycle fills the transform
    // cache and is not scored.
    let scored = |segment: usize| segment >= 3;
    let mut latency: [BTreeMap<usize, Vec<f64>>; 2] = Default::default();
    let mut closed_results: BTreeMap<usize, usize> = BTreeMap::new();
    let mut rejected_by_kind = [0usize; 3];
    let mut wire = Vec::new();
    let mut queue_high = Vec::new();
    let mut run = Vec::new();
    let mut lag = Vec::new();
    for (s, a) in trace.sent.iter().zip(&answers) {
        let kind = s.phase % 3;
        if kind < 2 {
            lag.push(ms(s.sent - s.due));
        }
        let Some(a) = a.as_ref() else { continue };
        rejected_by_kind[kind] += usize::from(a.rejected);
        if !a.result {
            continue;
        }
        run.push(a.run_ms);
        if !scored(s.phase) {
            continue;
        }
        if kind == 2 {
            *closed_results.entry(s.phase).or_default() += 1;
            continue;
        }
        let total = ms(a.at - s.due);
        latency[kind].entry(s.phase).or_default().push(total);
        if kind == 0 {
            wire.push(total - a.queue_ms - a.run_ms);
        } else {
            queue_high.push(a.queue_ms);
        }
    }
    let rejected: usize = rejected_by_kind.iter().sum();
    let failed = sent - ok.len() + mismatches;
    let correct = mismatches == 0 && ok.len() + rejected == sent;
    let whole = |kind: usize| -> Vec<f64> { latency[kind].values().flatten().copied().collect() };
    p99_samples("the lower rate", whole(0).len());
    p99_samples("the higher rate", whole(1).len());
    // Closed-loop throughput of each scored closed segment: its results
    // per second, from its first send to its last answer. The run's figure
    // is their median: on svc-durable the last few segments of a run read
    // faster than the rest, so an upper quartile would straddle two levels.
    let closed: Vec<f64> = closed_results
        .iter()
        .map(|(&i, &n)| {
            let (start, end) = trace.phases[i];
            n as f64 / (end - start).as_secs_f64()
        })
        .collect();
    let ops = percentile(&closed, 0.5);
    let results: Vec<&Answer> = answers.iter().flatten().filter(|a| a.result).collect();
    let by_segment = |kind: usize, q: f64| -> Vec<f64> {
        latency[kind].values().map(|v| percentile(v, q)).collect()
    };
    eprintln!(
        "perfbench: {} jobs sent, {} results, {rejected} rejected (by kind {rejected_by_kind:?}), \
         {mismatches} mismatches; setups {setups:.4?}\n\
         perfbench: by scored segment: closed-loop results/s {closed:.0?}; \
         lower-rate p50 ms {:.3?}; lower-rate p90 ms {:.3?}",
        sent,
        results.len(),
        by_segment(0, 0.5),
        by_segment(0, 0.9),
    );
    let metrics = if !args.trace {
        vec![
            Metric::new("setup_s", percentile(&setups, 0.5), "s"),
            Metric::new("ops_per_s", ops, "1/s"),
            Metric::new("lat_p50_ms", segment_latency(&latency[0], 0.5), "ms"),
            Metric::new("lat_p90_ms", segment_latency(&latency[0], 0.9), "ms"),
            Metric::new("peak_rss_mb", rss, "MiB"),
        ]
    } else {
        let registry = trace.metrics.unwrap_or_default();
        let counter = |name: &str| dqctd::field_u64(&registry, name).unwrap_or(0) as f64;
        let served = counter("service.completed").max(1.0);
        let replay_jobs = if durable {
            REPLAY_JOBS.1
        } else {
            REPLAY_JOBS.0
        };
        let replay_frames = &frames[..replay_jobs.min(sent)];
        let mut metrics = vec![
            Metric::new("lat_p99_ms", percentile(&whole(0), 0.99), "ms"),
            Metric::new("lat_p50_ms.high", segment_latency(&latency[1], 0.5), "ms"),
            Metric::new("lat_p90_ms.high", segment_latency(&latency[1], 0.9), "ms"),
            Metric::new("lat_p99_ms.high", percentile(&whole(1), 0.99), "ms"),
            Metric::new("failed_frac", failed as f64 / sent.max(1) as f64, "ratio"),
            Metric::new("protocol.wire_p50_ms", percentile(&wire, 0.5), "ms"),
            Metric::new("protocol.wire_p99_ms", percentile(&wire, 0.99), "ms"),
            Metric::new(
                "protocol.req_bytes",
                frames[..sent].iter().map(Vec::len).sum::<usize>() as f64 / sent.max(1) as f64,
                "B",
            ),
            Metric::new(
                "protocol.resp_bytes",
                results.iter().map(|a| a.bytes).sum::<usize>() as f64 / results.len().max(1) as f64,
                "B",
            ),
            Metric::new(
                "server.queue_wait_p50_ms",
                percentile(&queue_high, 0.5),
                "ms",
            ),
            Metric::new(
                "server.queue_wait_p99_ms",
                percentile(&queue_high, 0.99),
                "ms",
            ),
            Metric::new("server.run_p50_ms", percentile(&run, 0.5), "ms"),
            Metric::new(
                "server.shed_frac",
                rejected as f64 / sent.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "cache.hit_frac",
                results.iter().filter(|a| a.cache_hit).count() as f64 / results.len().max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "cache.transforms_per_job",
                counter("service.cache.miss") / served,
                "ratio",
            ),
            Metric::new("journal.bytes_per_job", journal_bytes as f64 / served, "B"),
            Metric::new(
                "journal.records_per_job",
                counter("journal.records_written") / served,
                "ratio",
            ),
            Metric::new("bench.gen_lag_p99_ms", percentile(&lag, 0.99), "ms"),
        ];
        let spans = run_dir.join(format!("spans-{}-{}.tsv", workload_name(args), args.seed));
        metrics.extend(replay::replay(
            &replay::Jobs::Service {
                frames: replay_frames,
                fsync: durable.then_some(FsyncPolicy::Always),
            },
            run_dir,
            &tag,
            &spans,
        ));
        metrics
    };
    Ok(Report {
        correct: correct && reconciled(args, &metrics),
        attempted: sent,
        failed,
        metrics,
    })
}

fn workload_name(args: &Args) -> &'static str {
    match args.workload {
        Workload::SvcZipf => "svc-zipf",
        Workload::SvcDurable => "svc-durable",
        Workload::RunNoisy => "run-noisy",
    }
}

/// The `dqct --verify --noise` path of one circuit: parse, validate,
/// transform, verify, then the resilient noisy run.
fn noisy_circuit(
    template: &Template,
    seed: u64,
    shots: u64,
    noise: &NoiseModel,
    threads: usize,
) -> (qsim::Counts, qsim::RunReport) {
    let circuit = from_qasm(&template.qasm).expect("generated QASM parses");
    circuit.validate().expect("generated circuit is valid");
    let roles = check::roles_for(&circuit, template.answer);
    roles
        .validate(&circuit)
        .expect("roles partition the circuit");
    let dynamic = dqc::transform_with_scheme(
        &circuit,
        &roles,
        template.scheme,
        &dqc::TransformOptions::default(),
    )
    .expect("generated circuits transform");
    std::hint::black_box(dqc::verify::compare(&circuit, &roles, &dynamic));
    Executor::new()
        .shots(shots)
        .seed(seed)
        .threads(threads)
        .noise(noise.clone())
        .run_resilient(dynamic.circuit())
}

fn run_noisy(args: &Args, run_dir: &Path) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rng = Rng::new(args.seed);
    let templates = inputs::template_pool(&mut rng, NOISY_POOL);
    // Every template once per round, each round in a seeded order, so the
    // mix a run gets through does not depend on the seed.
    let cap = (args.seconds * NOISY_OPS_CAP).ceil() as usize;
    let mut order: Vec<usize> = Vec::with_capacity(cap + templates.len());
    while order.len() < cap {
        let mut round: Vec<usize> = (0..templates.len()).collect();
        inputs::shuffle(&mut rng, &mut round);
        order.extend(round);
    }
    let jobs: Vec<(usize, u64)> = order.into_iter().map(|t| (t, rng.next_u64())).collect();
    let warm = inputs::toffoli_templates();
    let exact = check::exact_noisy(&templates, &NoiseModel::device_like(1.0));

    // Set-up, several times: the noise model and a warm-up pass over the
    // paper's Toffoli suite.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let noise = NoiseModel::device_like(1.0);
        for (i, t) in warm.iter().enumerate() {
            std::hint::black_box(noisy_circuit(t, i as u64, SHOTS, &noise, threads));
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    let noise = NoiseModel::device_like(1.0);

    // Two closed loops, one circuit after another on every core: at the
    // paper's 1024 shots, then at 4x the shots (the higher load level).
    // Each result is checked between circuits, outside its timed span. Each
    // phase starts at a round, so both see the same mix.
    let mut failed = 0;
    let mut worst: f64 = 0.0;
    let mut phase = |first: usize, shots: u64, secs: f64| {
        let mut wall = Vec::new();
        let end = Instant::now() + Duration::from_secs_f64(secs);
        for &(tpl, seed) in &jobs[first..] {
            if Instant::now() >= end {
                break;
            }
            let t = Instant::now();
            let (counts, report) = noisy_circuit(&templates[tpl], seed, shots, &noise, threads);
            wall.push(ms(t.elapsed()));
            let (ok, ratio) = check::noisy_check(&counts, report.completed, &exact[tpl], shots);
            failed += usize::from(!ok);
            worst = worst.max(ratio);
        }
        wall
    };
    let wall = phase(0, SHOTS, 0.5 * args.seconds);
    let high = phase(
        wall.len().next_multiple_of(templates.len()),
        4 * SHOTS,
        0.5 * args.seconds,
    );
    let ops = wall.len() as f64 / (wall.iter().sum::<f64>() / 1e3);
    let rss = daemon::peak_rss_mb("/proc/self/status").map_err(|e| e.to_string())?;
    p99_samples("the 1024-shot phase", wall.len());
    p99_samples("the 4096-shot phase", high.len());
    let attempted = wall.len() + high.len();
    eprintln!(
        "perfbench: {attempted} circuits, {failed} failed; {ops:.1} circuits/s closed-loop; \
         worst TVD/tolerance {worst:.3}; setups {setups:.4?}"
    );
    let metrics = if !args.trace {
        vec![
            Metric::new("setup_s", percentile(&setups, 0.5), "s"),
            Metric::new("ops_per_s", ops, "1/s"),
            Metric::new("lat_p50_ms", percentile(&wall, 0.5), "ms"),
            Metric::new("lat_p90_ms", percentile(&wall, 0.9), "ms"),
            Metric::new("peak_rss_mb", rss, "MiB"),
        ]
    } else {
        // No protocol, server, cache or journal code runs on this path:
        // those layers read 0.
        let mut metrics = vec![
            Metric::new("lat_p99_ms", percentile(&wall, 0.99), "ms"),
            Metric::new("lat_p50_ms.high", percentile(&high, 0.5), "ms"),
            Metric::new("lat_p90_ms.high", percentile(&high, 0.9), "ms"),
            Metric::new("lat_p99_ms.high", percentile(&high, 0.99), "ms"),
            Metric::new(
                "failed_frac",
                failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            Metric::new("protocol.wire_p50_ms", 0.0, "ms"),
            Metric::new("protocol.wire_p99_ms", 0.0, "ms"),
            Metric::new("protocol.req_bytes", 0.0, "B"),
            Metric::new("protocol.resp_bytes", 0.0, "B"),
            Metric::new("server.queue_wait_p50_ms", 0.0, "ms"),
            Metric::new("server.queue_wait_p99_ms", 0.0, "ms"),
            Metric::new("server.run_p50_ms", 0.0, "ms"),
            Metric::new("server.shed_frac", 0.0, "ratio"),
            Metric::new("cache.hit_frac", 0.0, "ratio"),
            Metric::new("cache.transforms_per_job", 0.0, "ratio"),
            Metric::new("journal.bytes_per_job", 0.0, "B"),
            Metric::new("journal.records_per_job", 0.0, "ratio"),
            Metric::new("bench.gen_lag_p99_ms", 0.0, "ms"),
        ];
        let tag = format!("{}-{}", std::process::id(), args.seed);
        let spans = run_dir.join(format!("spans-{}-{}.tsv", workload_name(args), args.seed));
        let replayed = &jobs[..REPLAY_JOBS.2.min(jobs.len())];
        metrics.extend(replay::replay(
            &replay::Jobs::Library {
                templates: &templates,
                jobs: replayed,
                noise: &noise,
                threads,
                shots: SHOTS,
            },
            run_dir,
            &tag,
            &spans,
        ));
        metrics
    };
    Ok(Report {
        correct: failed == 0 && reconciled(args, &metrics),
        attempted,
        failed,
        metrics,
    })
}
