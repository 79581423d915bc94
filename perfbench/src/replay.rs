//! The traced replay: each workload's seeded job sequence, once more, on
//! one thread, calling every layer's public entry point in production
//! order and recording a span per call.
//!
//! No `qobs::Tracer` is attached to the executor: any tracer makes the
//! executor fall back from the prefix engine to the per-shot loop, so the
//! replay would time the wrong engine. Spans come from the benchmark's own
//! clock reads around each call instead.

use crate::check::roles_for;
use crate::inputs::Template;
use crate::Metric;
use dqc::{transform_with_scheme, verify, DynamicScheme, ResourceSummary, TransformOptions};
use dqctd::{
    cache_key, parse_request, read_frame, write_frame, CachedTransform, FsyncPolicy, JobOutcome,
    JobSpec, Journal, Request, Response, TransformCache, MAX_FRAME_BYTES,
};
use qcir::qasm::from_qasm;
use qcir::Circuit;
use qsim::prefix::PrefixTree;
use qsim::{CancelToken, Engine, Executor, NoiseModel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The daemon's defaults that shape a job (`dqctd::Config::default`).
const SERVER_DEADLINE: Duration = Duration::from_secs(5);
const SERVER_CACHE: usize = 256;

/// One recorded call.
struct Span {
    name: &'static str,
    job: u32,
    parent: Option<u32>,
    start: u64,
    end: u64,
}

/// In-memory span log; a disabled recorder only runs the calls.
struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, job: u32) -> Option<u32> {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            job,
            parent: None,
            start,
            end: start,
        });
        Some(self.spans.len() as u32 - 1)
    }

    fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            let end = self.now();
            self.spans[i as usize].end = end;
        }
    }

    /// Times `f` as a child span of `parent`.
    fn time<T>(
        &mut self,
        name: &'static str,
        job: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            job,
            parent,
            start,
            end,
        });
        out
    }
}

/// What one replay pass needs from its workload.
pub enum Jobs<'a> {
    /// `dqctd` jobs: the request frames the load generator sent, and the
    /// journal policy the daemon ran with.
    Service {
        frames: &'a [Vec<u8>],
        fsync: Option<FsyncPolicy>,
    },
    /// Library runs: `(template, seed)` under `noise` on `threads` threads.
    Library {
        templates: &'a [Template],
        jobs: &'a [(usize, u64)],
        noise: &'a NoiseModel,
        threads: usize,
        shots: u64,
    },
}

/// The production path of one job, span by span. Returns the circuit the
/// executor ran, keyed for the prefix pass, and the shots it ran.
fn service_job(
    rec: &mut Recorder,
    job: u32,
    frame: &[u8],
    cache: &TransformCache,
    journal: Option<&Journal>,
    beat: &Arc<AtomicU64>,
) -> (u64, Arc<CachedTransform>, u64) {
    let root = rec.open("job", job);
    let request = rec.time("protocol.decode", job, root, || {
        let payload = read_frame(&mut &frame[..], MAX_FRAME_BYTES)
            .expect("replayed frame is well formed")
            .expect("replayed frame is complete");
        parse_request(&payload).expect("replayed request parses")
    });
    let Request::Submit(spec) = request else {
        panic!("replayed frames are submits");
    };
    let circuit = rec.time("qcir.qasm_parse", job, root, || {
        from_qasm(&spec.qasm).expect("generated QASM parses")
    });
    let (roles, scheme) = rec.time("qcir.validate", job, root, || {
        circuit.validate().expect("generated circuit is valid");
        let roles = roles_for(&circuit, spec.answer[0]);
        roles
            .validate(&circuit)
            .expect("roles partition the circuit");
        let scheme = match spec.scheme.as_deref() {
            Some("dynamic1") => DynamicScheme::Dynamic1,
            _ => DynamicScheme::Dynamic2,
        };
        (roles, scheme)
    });
    let shots = spec.shots.unwrap_or(1024);
    let seed = spec.seed.expect("generated jobs carry a seed");
    if let Some(journal) = journal {
        rec.time("journal.append", job, root, || {
            let resolved = JobSpec {
                shots: Some(shots),
                seed: Some(seed),
                scheme: Some(format!("{scheme:?}").to_lowercase()),
                deadline_ms: Some(SERVER_DEADLINE.as_millis() as u64),
                ..(*spec).clone()
            };
            journal
                .append_admitted(&resolved)
                .expect("journal append succeeds");
        });
    }
    let accepted = Instant::now();
    let (key, hit) = rec.time("cache.lookup", job, root, || {
        let key = cache_key(&circuit, &spec.answer, &spec.data, &spec.ancilla, scheme);
        (key, cache.get(key))
    });
    let cache_hit = hit.is_some();
    let transform = match hit {
        Some(entry) => entry,
        None => {
            let dynamic = rec.time("dqc.transform", job, root, || {
                transform_with_scheme(&circuit, &roles, scheme, &TransformOptions::default())
                    .expect("generated circuits transform")
            });
            let report = rec.time("dqc.verify", job, root, || {
                verify::compare(&circuit, &roles, &dynamic)
            });
            rec.time("dqc.account", job, root, || {
                black_box((
                    qcir::fuse(dynamic.circuit()).stats(),
                    ResourceSummary::of_circuit(&circuit),
                    ResourceSummary::of_dynamic(&dynamic),
                ));
            });
            rec.time("cache.insert", job, root, || {
                let entry = Arc::new(CachedTransform {
                    circuit: dynamic.circuit().clone(),
                    tvd: report.tvd,
                });
                cache.insert(key, Arc::clone(&entry));
                entry
            })
        }
    };
    let (counts, report) = rec.time("qsim.simulate", job, root, || {
        Executor::new()
            .shots(shots)
            .seed(seed)
            .threads(1)
            .deadline(SERVER_DEADLINE.saturating_sub(accepted.elapsed()))
            .cancel_token(CancelToken::new())
            .heartbeat(Arc::clone(beat))
            .run_resilient(transform.circuit())
    });
    let payload = rec.time("protocol.encode", job, root, || {
        let outcome = JobOutcome {
            id: spec.id.clone(),
            termination: report.termination.to_string(),
            requested: report.requested,
            completed: report.completed,
            failed: report.failed,
            discarded: report.discarded,
            counts: counts.iter().map(|(b, n)| (b.to_string(), n)).collect(),
            cache_hit,
            queue_ms: 0.0,
            run_ms: accepted.elapsed().as_secs_f64() * 1e3,
            tvd: transform.tvd,
        };
        let payload = Response::Result(Box::new(outcome)).render();
        let mut wire = Vec::with_capacity(payload.len() + 4);
        write_frame(&mut wire, &payload).expect("writing to memory succeeds");
        black_box(wire);
        payload
    });
    if let Some(journal) = journal {
        rec.time("journal.append", job, root, || {
            journal
                .append_completed(&spec.id, &payload)
                .expect("journal append succeeds");
        });
    }
    rec.close(root);
    (key, transform, shots)
}

/// The `dqct --verify --noise` library path of one circuit.
#[allow(clippy::too_many_arguments)]
fn library_job(
    rec: &mut Recorder,
    job: u32,
    template: &Template,
    seed: u64,
    noise: &NoiseModel,
    threads: usize,
    shots: u64,
) -> Circuit {
    let root = rec.open("job", job);
    let circuit = rec.time("qcir.qasm_parse", job, root, || {
        from_qasm(&template.qasm).expect("generated QASM parses")
    });
    let roles = rec.time("qcir.validate", job, root, || {
        circuit.validate().expect("generated circuit is valid");
        let roles = roles_for(&circuit, template.answer);
        roles
            .validate(&circuit)
            .expect("roles partition the circuit");
        roles
    });
    let dynamic = rec.time("dqc.transform", job, root, || {
        transform_with_scheme(
            &circuit,
            &roles,
            template.scheme,
            &TransformOptions::default(),
        )
        .expect("generated circuits transform")
    });
    rec.time("dqc.verify", job, root, || {
        black_box(verify::compare(&circuit, &roles, &dynamic));
    });
    rec.time("qsim.simulate", job, root, || {
        black_box(
            Executor::new()
                .shots(shots)
                .seed(seed)
                .threads(threads)
                .noise(noise.clone())
                .run_resilient(dynamic.circuit()),
        );
    });
    rec.close(root);
    dynamic.circuit().clone()
}

/// One pass over every job: the circuits simulated (deduplicated by key,
/// with the number of jobs that ran each) and the shots simulated.
struct Pass {
    circuits: BTreeMap<u64, (Circuit, u64)>,
    shots: u64,
    wall: Duration,
}

fn pass(jobs: &Jobs, rec: &mut Recorder, run_dir: &Path, tag: &str) -> Pass {
    let mut circuits: BTreeMap<u64, (Circuit, u64)> = BTreeMap::new();
    let mut shots = 0;
    let started = Instant::now();
    match jobs {
        Jobs::Service { frames, fsync } => {
            let cache = TransformCache::new(SERVER_CACHE);
            let path = run_dir.join(format!("{tag}.replay.wal"));
            let _ = std::fs::remove_file(&path);
            let journal = fsync.map(|policy| {
                Journal::open(&path, policy)
                    .expect("replay journal opens")
                    .0
            });
            let beat = Arc::new(AtomicU64::new(0));
            for (i, frame) in frames.iter().enumerate() {
                let (key, entry, n) =
                    service_job(rec, i as u32, frame, &cache, journal.as_ref(), &beat);
                circuits
                    .entry(key)
                    .or_insert_with(|| (entry.circuit().clone(), 0))
                    .1 += 1;
                shots += n;
            }
            drop(journal);
            let _ = std::fs::remove_file(&path);
        }
        Jobs::Library {
            templates,
            jobs,
            noise,
            threads,
            shots: n,
        } => {
            for (i, &(tpl, seed)) in jobs.iter().enumerate() {
                let dynamic =
                    library_job(rec, i as u32, &templates[tpl], seed, noise, *threads, *n);
                circuits.entry(tpl as u64).or_insert_with(|| (dynamic, 0)).1 += 1;
                shots += n;
            }
        }
    }
    Pass {
        circuits,
        shots,
        wall: started.elapsed(),
    }
}

/// Replays `jobs` untraced and traced, twice each in the order untraced,
/// traced, traced, untraced (so a drift in machine speed cancels out of
/// the overhead), then times the branch-tree build of every simulated
/// circuit outside the reconciled sum. Writes the second traced pass's
/// spans to `spans_path`.
pub fn replay(jobs: &Jobs, run_dir: &Path, tag: &str, spans_path: &Path) -> Vec<Metric> {
    let mut untraced = pass(jobs, &mut Recorder::new(false), run_dir, tag).wall;
    let mut traced = pass(jobs, &mut Recorder::new(true), run_dir, tag).wall;
    let mut rec = Recorder::new(true);
    let last = pass(jobs, &mut rec, run_dir, tag);
    traced += last.wall;
    untraced += pass(jobs, &mut Recorder::new(false), run_dir, tag).wall;

    // Self time per layer: a span's duration minus its children's.
    let mut child_time = vec![0u64; rec.spans.len()];
    for span in &rec.spans {
        if let Some(p) = span.parent {
            child_time[p as usize] += span.end - span.start;
        }
    }
    let mut layers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut first = u64::MAX;
    let mut end = 0;
    for (i, span) in rec.spans.iter().enumerate() {
        if span.parent.is_none() {
            first = first.min(span.start);
            end = end.max(span.end);
            continue;
        }
        let entry = layers.entry(span.name).or_default();
        entry.0 += span.end - span.start - child_time[i];
        entry.1 += 1;
    }
    let wall = end.saturating_sub(first).max(1);
    let layer_sum: u64 = layers.values().map(|&(t, _)| t).sum();
    let per_call_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |&(t, n)| t as f64 / n as f64 / 1e3)
    };

    // The prefix pass: which engine each job's executor resolves to, and
    // what building its branch tree costs.
    let (noise, probe) = match jobs {
        Jobs::Service { .. } => (
            NoiseModel::ideal(),
            Executor::new()
                .threads(1)
                .deadline(SERVER_DEADLINE)
                .cancel_token(CancelToken::new())
                .heartbeat(Arc::new(AtomicU64::new(0))),
        ),
        Jobs::Library { noise, threads, .. } => (
            (*noise).clone(),
            Executor::new().threads(*threads).noise((*noise).clone()),
        ),
    };
    let mut jobs_total = 0u64;
    let mut prefix_jobs = 0u64;
    let mut builds = 0u64;
    let mut build_ns = 0u64;
    let mut nodes = 0u64;
    let mut leaves = 0u64;
    let mut dynamic_len = 0u64;
    let mut prefix_spans = Vec::new();
    for (circuit, count) in last.circuits.values() {
        jobs_total += count;
        dynamic_len += circuit.len() as u64 * count;
        if probe.resolve_engine(circuit) != Engine::Prefix {
            continue;
        }
        prefix_jobs += count;
        let start = rec.now();
        let tree = black_box(PrefixTree::build(circuit, &noise));
        let stop = rec.now();
        prefix_spans.push((start, stop));
        if let Some(tree) = tree {
            builds += 1;
            build_ns += stop - start;
            nodes += tree.num_nodes() as u64;
            leaves += tree.num_leaves() as u64;
        }
    }
    write_spans(spans_path, &rec.spans, &prefix_spans);

    let per_build = |v: u64| {
        if builds == 0 {
            0.0
        } else {
            v as f64 / builds as f64
        }
    };
    let simulate_ns = layers.get("qsim.simulate").map_or(0, |&(t, _)| t);
    vec![
        Metric::new("protocol.decode_us", per_call_us("protocol.decode"), "us"),
        Metric::new("protocol.encode_us", per_call_us("protocol.encode"), "us"),
        Metric::new("qcir.qasm_parse_us", per_call_us("qcir.qasm_parse"), "us"),
        Metric::new("qcir.validate_us", per_call_us("qcir.validate"), "us"),
        Metric::new("cache.lookup_us", per_call_us("cache.lookup"), "us"),
        Metric::new("journal.append_us", per_call_us("journal.append"), "us"),
        Metric::new("dqc.transform_us", per_call_us("dqc.transform"), "us"),
        Metric::new("dqc.verify_us", per_call_us("dqc.verify"), "us"),
        Metric::new("dqc.account_us", per_call_us("dqc.account"), "us"),
        Metric::new(
            "dqc.dynamic_len",
            dynamic_len as f64 / jobs_total.max(1) as f64,
            "count",
        ),
        Metric::new("qsim.simulate_us", per_call_us("qsim.simulate"), "us"),
        Metric::new(
            "qsim.prefix_frac",
            prefix_jobs as f64 / jobs_total.max(1) as f64,
            "ratio",
        ),
        Metric::new("qsim.prefix_build_us", per_build(build_ns) / 1e3, "us"),
        Metric::new("qsim.prefix_nodes", per_build(nodes), "count"),
        Metric::new("qsim.prefix_leaves", per_build(leaves), "count"),
        Metric::new(
            "qsim.shot_ns",
            simulate_ns as f64 / last.shots.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "bench.layer_sum_frac",
            layer_sum as f64 / wall as f64,
            "ratio",
        ),
        Metric::new(
            "bench.trace_overhead_frac",
            (traced.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64(),
            "ratio",
        ),
    ]
}

/// Spans as tab-separated `id name job parent start_ns end_ns`; the
/// branch-tree builds of the prefix pass follow with parent `-`.
fn write_spans(path: &Path, spans: &[Span], prefix: &[(u64, u64)]) {
    let mut out = String::from("id\tname\tjob\tparent\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{i}\t{}\t{}\t{parent}\t{}\t{}\n",
            s.name, s.job, s.start, s.end
        ));
    }
    for (k, (start, end)) in prefix.iter().enumerate() {
        out.push_str(&format!(
            "{}\tqsim.prefix_build\t-\t-\t{start}\t{end}\n",
            spans.len() + k
        ));
    }
    let written = std::fs::File::create(path).and_then(|mut f| f.write_all(out.as_bytes()));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
    }
}
