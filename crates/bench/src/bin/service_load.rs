//! Load generator and CI gate for the `dqctd` batch service.
//!
//! Drives a service with pipelined submission bursts at twice its queue
//! capacity and reports the operator-facing numbers: throughput, p50/p99
//! job latency, cache hit and coalesced rates, shed rate, and — the
//! robustness invariant — dropped accepted jobs (always zero, or the run
//! fails).
//!
//! ```text
//! service_load [--jobs N] [--burst N] [--workers N] [--queue N] [--shots N]
//!              [--out PATH]       # write the service_load/v1 JSON document
//!              [--check PATH]     # CI gate: structural checks + fresh chaos drill
//!              [--live ADDR]      # drive a running dqctd over TCP
//!              [--expect-shed]    # with --live: require a nonzero shed count
//! ```
//!
//! The committed `BENCH_service_load.json` at the repo root is the
//! trajectory point; regenerate it with
//!
//! ```text
//! cargo run --release -p bench --bin service_load -- --out BENCH_service_load.json
//! ```
//!
//! `--check PATH` validates the committed document (schema, zero drops,
//! sane rates) and runs two fresh in-process drills:
//!
//! - the *chaos drill*: with a fault plan panicking/delaying ~10% of jobs
//!   at *job* scope, the server must answer typed per-job failures for
//!   exactly the faulted set, serve every other job bit-identically to a
//!   fault-free server, and drain with nothing dropped;
//! - the *recovery drill*: a hand-crafted crashed journal (admitted jobs
//!   without completions, one recorded completion, a torn tail) must boot
//!   into a server that truncates the tear, replays every incomplete job
//!   bit-identically to a crash-free run, and serves recorded completions
//!   byte-for-byte to idempotent retries.

use bench::args;
use bench::report::Table;
use dqctd::{
    field_counts, field_str, field_u64, job_scope_key, read_frame, render_submit, write_frame,
    Config, FsyncPolicy, JobSpec, Journal, Server, MAX_FRAME_BYTES,
};
use qalgo::suites::toffoli_free_suite;
use qcir::qasm::to_qasm;
use qfault::FaultPlan;
use qobs::json::JsonWriter;
use std::io::{self, Write};

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The chaos drill's plan: ~10% of jobs panic-faulted, ~10% delay-faulted,
/// decided per job id.
const DRILL_PLAN: &str = "seed=9,panic=0.1,delay=0.1,delay-ms=2";

/// Jobs in the fresh `--check` chaos drill.
const DRILL_JOBS: usize = 48;

fn main() -> ExitCode {
    // The chaos drill injects per-shot panics that the resilient executor
    // catches and isolates; keep them off stderr while letting real
    // panics through.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("qfault: injected panic"));
        if !injected {
            default_hook(info);
        }
    }));
    match real_main() {
        Ok(summary) => {
            eprintln!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("service_load: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<String, String> {
    if let Some(path) = args::value::<String>("--check") {
        return check(&path);
    }
    if let Some(addr) = args::value::<String>("--live") {
        return live(&addr);
    }
    let stats = measure()?;
    if let Some(path) = args::value::<String>("--out") {
        let doc = render(&stats);
        std::fs::write(&path, &doc).map_err(|e| format!("cannot write '{path}': {e}"))?;
        return Ok(format!(
            "service_load: wrote the trajectory point to {path} ({:.0} jobs/s, shed rate {:.2})",
            stats.jobs_per_sec, stats.shed_rate
        ));
    }
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["jobs/s".into(), format!("{:.0}", stats.jobs_per_sec)]);
    t.row(vec![
        "p50 latency ms".into(),
        format!("{:.2}", stats.p50_ms),
    ]);
    t.row(vec![
        "p99 latency ms".into(),
        format!("{:.2}", stats.p99_ms),
    ]);
    t.row(vec![
        "cache hit rate".into(),
        format!("{:.2}", stats.cache_hit_rate),
    ]);
    t.row(vec![
        "coalesced rate".into(),
        format!("{:.2}", stats.coalesced_rate),
    ]);
    t.row(vec![
        "shed rate at 2x".into(),
        format!("{:.2}", stats.shed_rate),
    ]);
    t.row(vec!["submitted".into(), stats.submitted.to_string()]);
    t.row(vec!["completed".into(), stats.completed.to_string()]);
    t.row(vec!["rejected".into(), stats.rejected.to_string()]);
    t.row(vec!["dropped".into(), stats.dropped.to_string()]);
    t.row(vec![
        "recovery replayed".into(),
        stats.recovery.replayed.to_string(),
    ]);
    t.row(vec![
        "recovery replay ms".into(),
        format!("{:.2}", stats.recovery.replay_ms),
    ]);
    println!(
        "dqctd service load — {} jobs in bursts of {} against {} worker(s), queue {}\n",
        stats.submitted, stats.burst, stats.workers, stats.queue
    );
    print!("{}", t.render());
    Ok(format!(
        "service_load: {:.0} jobs/s, {} shed, {} dropped",
        stats.jobs_per_sec, stats.rejected, stats.dropped
    ))
}

/// A response sink shared with the in-process worker pool.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut inner = self.0.lock().map_err(|_| io::Error::other("poisoned"))?;
        inner.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn frames_of(bytes: &[u8]) -> Vec<String> {
    let mut reader = bytes;
    let mut frames = Vec::new();
    while let Ok(Some(payload)) = read_frame(&mut reader, MAX_FRAME_BYTES) {
        if let Ok(text) = String::from_utf8(payload) {
            frames.push(text);
        }
    }
    frames
}

fn wait_for_frames(buf: &SharedBuf, n: usize) -> Result<Vec<String>, String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let frames = frames_of(&buf.0.lock().map_err(|_| "sink poisoned".to_string())?);
        if frames.len() >= n {
            return Ok(frames);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "timed out waiting for {n} responses, have {}",
                frames.len()
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Extracts a (possibly fractional) number field from a response.
fn field_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let tail = &json[start..];
    let end = tail
        .find(|c: char| !c.is_ascii_digit() && !matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// The probe job every burst submits: the first toffoli-free benchmark.
fn probe(id: &str, shots: u64) -> JobSpec {
    let suite = toffoli_free_suite();
    let b = &suite[0];
    JobSpec {
        id: id.to_string(),
        shots: Some(shots),
        seed: None,
        answer: b.roles.answer().iter().map(|q| q.index()).collect(),
        data: b.roles.data().iter().map(|q| q.index()).collect(),
        ancilla: b.roles.ancilla().iter().map(|q| q.index()).collect(),
        scheme: None,
        deadline_ms: Some(60_000),
        qasm: to_qasm(&b.circuit),
    }
}

struct Stats {
    workers: usize,
    queue: usize,
    burst: usize,
    shots: u64,
    submitted: u64,
    completed: u64,
    rejected: u64,
    errors: u64,
    dropped: i64,
    jobs_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    cache_hit_rate: f64,
    /// Completed jobs that waited on another worker's transform of the
    /// same circuit (`service.cache.coalesced`). The wire reports them as
    /// `"hit"`, so this rate is a share of `cache_hit_rate`.
    coalesced_rate: f64,
    shed_rate: f64,
    recovery: RecoveryStats,
}

/// What the recovery drill measured on a crashed-journal boot.
struct RecoveryStats {
    /// Incomplete admissions replayed through the pipeline.
    replayed: u64,
    /// Wall-clock from boot until every replayed job was answered.
    replay_ms: f64,
    /// Bytes of torn tail the journal truncated on open.
    truncated_bytes: u64,
    /// Retries of completed ids served from the completion index.
    dedup_served: u64,
    /// Every retry returned the recorded response byte-for-byte.
    byte_identical: bool,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drives an in-process server with pipelined bursts at 2x queue capacity.
fn measure() -> Result<Stats, String> {
    let workers: usize = args::value("--workers").unwrap_or(2);
    let queue: usize = args::value("--queue").unwrap_or(8);
    let shots: u64 = args::shots(32);
    // 2x capacity: each burst holds twice what the service can absorb
    // (queue slots plus in-flight workers), so admission control must act.
    let burst: usize = args::value("--burst").unwrap_or(2 * (queue + workers));
    let jobs: usize = args::value("--jobs").unwrap_or(240);
    let server = Server::start(Config {
        workers,
        queue_capacity: queue,
        ..Config::default()
    });
    let started = Instant::now();
    let mut responses = Vec::new();
    let mut submitted = 0u64;
    let mut burst_index = 0usize;
    while submitted < jobs as u64 {
        let in_burst = burst.min(jobs - submitted as usize);
        let mut request = Vec::new();
        for i in 0..in_burst {
            let id = format!("load-{burst_index}-{i}");
            write_frame(&mut request, &render_submit(&probe(&id, shots)))
                .map_err(|e| format!("cannot frame a request: {e}"))?;
        }
        let sink = SharedBuf::default();
        server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
        responses.extend(wait_for_frames(&sink, in_burst)?);
        submitted += in_burst as u64;
        burst_index += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    server.join();
    if server.pending() != 0 {
        return Err(format!(
            "{} accepted jobs were never answered",
            server.pending()
        ));
    }
    let coalesced = field_u64(&server.metrics_json(), "service.cache.coalesced").unwrap_or(0);

    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut errors = 0u64;
    let mut hits = 0u64;
    let mut latencies = Vec::new();
    for frame in &responses {
        match field_str(frame, "type") {
            Some("result") => {
                completed += 1;
                if field_str(frame, "cache") == Some("hit") {
                    hits += 1;
                }
                let queue_ms = field_f64(frame, "queue_ms").unwrap_or(0.0);
                let run_ms = field_f64(frame, "run_ms").unwrap_or(0.0);
                latencies.push(queue_ms + run_ms);
            }
            Some("rejected") => rejected += 1,
            _ => errors += 1,
        }
    }
    latencies.sort_by(f64::total_cmp);
    let recovery = recovery_drill()?;
    Ok(Stats {
        workers,
        queue,
        burst,
        shots,
        submitted,
        completed,
        rejected,
        errors,
        dropped: submitted as i64 - completed as i64 - rejected as i64 - errors as i64,
        jobs_per_sec: completed as f64 / wall.max(f64::MIN_POSITIVE),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        cache_hit_rate: hits as f64 / (completed as f64).max(1.0),
        coalesced_rate: coalesced as f64 / (completed as f64).max(1.0),
        shed_rate: rejected as f64 / (submitted as f64).max(1.0),
        recovery,
    })
}

fn render(stats: &Stats) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("service_load/v1");
    w.key("workload");
    w.string("toffoli_free_bv_burst");
    w.key("workers");
    w.uint(stats.workers as u64);
    w.key("queue_capacity");
    w.uint(stats.queue as u64);
    w.key("burst");
    w.uint(stats.burst as u64);
    w.key("shots");
    w.uint(stats.shots);
    w.key("submitted");
    w.uint(stats.submitted);
    w.key("completed");
    w.uint(stats.completed);
    w.key("rejected");
    w.uint(stats.rejected);
    w.key("errors");
    w.uint(stats.errors);
    w.key("dropped");
    w.uint(stats.dropped.max(0) as u64);
    w.key("jobs_per_sec");
    w.float(stats.jobs_per_sec);
    w.key("latency_ms");
    w.begin_object();
    w.key("p50");
    w.float(stats.p50_ms);
    w.key("p99");
    w.float(stats.p99_ms);
    w.end_object();
    w.key("cache_hit_rate");
    w.float(stats.cache_hit_rate);
    w.key("coalesced_rate");
    w.float(stats.coalesced_rate);
    w.key("shed_rate_at_2x");
    w.float(stats.shed_rate);
    w.key("recovery");
    w.begin_object();
    w.key("replayed");
    w.uint(stats.recovery.replayed);
    w.key("replay_ms");
    w.float(stats.recovery.replay_ms);
    w.key("truncated_bytes");
    w.uint(stats.recovery.truncated_bytes);
    w.key("dedup_served");
    w.uint(stats.recovery.dedup_served);
    w.key("byte_identical_retries");
    w.bool(stats.recovery.byte_identical);
    w.end_object();
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

/// The recovery drill: boots a server on a hand-crafted crashed journal —
/// admitted jobs with no completion (what a SIGKILL between admit and
/// respond leaves), one recorded completion, and a torn tail — and
/// measures the recovery path end to end.
fn recovery_drill() -> Result<RecoveryStats, String> {
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("dqctd-recovery-drill-{}", std::process::id()));
        p
    };
    let _ = std::fs::remove_file(&path);
    let incomplete: Vec<String> = (0..4).map(|i| format!("recover-{i}")).collect();
    let recorded = br#"{"type":"result","id":"already-done","marker":42}"#.to_vec();
    {
        let (journal, _) = Journal::open(&path, FsyncPolicy::Always)
            .map_err(|e| format!("cannot open the drill journal: {e}"))?;
        for id in &incomplete {
            journal
                .append_admitted(&probe(id, 32))
                .map_err(|e| format!("cannot journal an admission: {e}"))?;
        }
        journal
            .append_admitted(&probe("already-done", 32))
            .map_err(|e| format!("cannot journal an admission: {e}"))?;
        journal
            .append_completed("already-done", &recorded)
            .map_err(|e| format!("cannot journal a completion: {e}"))?;
    }
    // The torn tail: a length prefix announcing 100 bytes, three present.
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot tear the journal: {e}"))?;
        file.write_all(&[0, 0, 0, 100, b'x', b'y', b'z'])
            .map_err(|e| format!("cannot tear the journal: {e}"))?;
    }

    let booted = Instant::now();
    let server = Server::try_start(Config {
        journal: Some(path.clone()),
        ..Config::default()
    })?;
    let deadline = Instant::now() + Duration::from_secs(120);
    while server.pending() > 0 {
        if Instant::now() > deadline {
            return Err("replayed jobs never finished".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let replay_ms = booted.elapsed().as_secs_f64() * 1e3;

    let metrics = server.metrics_json();
    let replayed = field_u64(&metrics, "journal.replayed")
        .ok_or_else(|| format!("no journal.replayed counter in {metrics}"))?;
    if replayed != incomplete.len() as u64 {
        return Err(format!(
            "{replayed} jobs replayed, expected {}",
            incomplete.len()
        ));
    }
    let truncated_bytes = field_u64(&metrics, "journal.truncated_bytes")
        .ok_or_else(|| format!("no journal.truncated_bytes counter in {metrics}"))?;
    if truncated_bytes != 7 {
        return Err(format!(
            "truncated {truncated_bytes} bytes, expected the 7-byte tear"
        ));
    }

    // Retries: recorded completions come back byte-for-byte; replayed jobs
    // answer from the completion index, twice, identically.
    let fetch = |id: &str| -> Result<Vec<String>, String> {
        let mut request = Vec::new();
        write_frame(&mut request, &render_submit(&probe(id, 32)))
            .map_err(|e| format!("cannot frame a retry: {e}"))?;
        let sink = SharedBuf::default();
        server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
        wait_for_frames(&sink, 1)
    };
    let mut byte_identical = true;
    let mut dedup_served = 0u64;
    let served = fetch("already-done")?;
    byte_identical &= served[0].as_bytes() == recorded.as_slice();
    dedup_served += 1;
    // A crash-free reference server for bit-identity of the replays.
    let reference = Server::start(Config::default());
    for id in &incomplete {
        let first = fetch(id)?;
        let second = fetch(id)?;
        byte_identical &= first == second;
        dedup_served += 2;
        if field_str(&first[0], "type") != Some("result") {
            return Err(format!(
                "{id}: replay did not produce a result: {}",
                first[0]
            ));
        }
        let mut request = Vec::new();
        write_frame(&mut request, &render_submit(&probe(id, 32)))
            .map_err(|e| format!("cannot frame the reference run: {e}"))?;
        let sink = SharedBuf::default();
        reference.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
        let fresh = wait_for_frames(&sink, 1)?;
        if field_counts(&first[0]) != field_counts(&fresh[0]) {
            return Err(format!(
                "{id}: replayed counts diverged from a crash-free run\n  replayed: {}\n  fresh: {}",
                first[0], fresh[0]
            ));
        }
    }
    reference.join();
    server.join();
    let _ = std::fs::remove_file(&path);
    Ok(RecoveryStats {
        replayed,
        replay_ms,
        truncated_bytes,
        dedup_served,
        byte_identical,
    })
}

/// The `--check PATH` gate: structural validation plus the chaos drill.
fn check(path: &str) -> Result<String, String> {
    let committed =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    qobs::json::validate(&committed)
        .map_err(|e| format!("committed document '{path}' is not valid JSON: {e}"))?;
    if !committed.contains("\"schema\":\"service_load/v1\"") {
        return Err(format!(
            "'{path}' does not declare schema service_load/v1 — regenerate it"
        ));
    }
    if !committed.contains("\"dropped\":0") {
        return Err(format!(
            "'{path}' records dropped accepted jobs — the no-drop invariant broke"
        ));
    }
    for key in [
        "\"jobs_per_sec\":",
        "\"cache_hit_rate\":",
        "\"coalesced_rate\":",
        "\"shed_rate_at_2x\":",
        "\"p50\":",
        "\"p99\":",
    ] {
        if !committed.contains(key) {
            return Err(format!("'{path}' is missing {key} — regenerate it"));
        }
    }
    let shed = field_f64(&committed, "shed_rate_at_2x").unwrap_or(-1.0);
    if !(0.0..=1.0).contains(&shed) {
        return Err(format!("'{path}' records a nonsensical shed rate {shed}"));
    }
    for key in [
        "\"recovery\":",
        "\"replayed\":",
        "\"byte_identical_retries\":true",
    ] {
        if !committed.contains(key) {
            return Err(format!(
                "'{path}' is missing recovery stats ({key}) — regenerate it"
            ));
        }
    }
    let drill = chaos_drill()?;
    let recovery = recovery_drill()?;
    Ok(format!(
        "service-load: OK (committed point structurally sound, fresh chaos drill: {drill}; \
         recovery drill: {} replayed in {:.0} ms, {} B torn tail truncated, \
         {} dedup retries byte-identical)",
        recovery.replayed, recovery.replay_ms, recovery.truncated_bytes, recovery.dedup_served
    ))
}

/// The chaos drill: a fault plan at job scope must fault exactly the
/// predicted jobs while everything else is served bit-identically to a
/// fault-free server, and drain drops nothing.
fn chaos_drill() -> Result<String, String> {
    let plan = FaultPlan::parse(DRILL_PLAN).map_err(|e| format!("drill plan: {e}"))?;
    let ids: Vec<String> = (0..DRILL_JOBS).map(|i| format!("drill-{i}")).collect();
    let run = |chaos: Option<FaultPlan>| -> Result<Vec<String>, String> {
        let server = Server::start(Config {
            chaos,
            ..Config::default()
        });
        let mut request = Vec::new();
        for id in &ids {
            write_frame(&mut request, &render_submit(&probe(id, 16)))
                .map_err(|e| format!("cannot frame a request: {e}"))?;
        }
        let sink = SharedBuf::default();
        server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
        let frames = wait_for_frames(&sink, ids.len())?;
        server.join();
        if server.pending() != 0 {
            return Err("drain dropped accepted jobs".to_string());
        }
        Ok(frames)
    };
    let clean = run(None)?;
    let chaotic = run(Some(plan.clone()))?;
    let response_for = |frames: &[String], id: &str| -> Result<String, String> {
        frames
            .iter()
            .find(|f| field_str(f, "id") == Some(id))
            .cloned()
            .ok_or_else(|| format!("job {id} was never answered"))
    };
    let mut panicked = 0usize;
    let mut delayed = 0usize;
    for id in &ids {
        let fault = plan.job_fault(job_scope_key(id));
        let clean_frame = response_for(&clean, id)?;
        let chaos_frame = response_for(&chaotic, id)?;
        if field_str(&chaos_frame, "type") != Some("result") {
            return Err(format!("{id}: not answered with a result: {chaos_frame}"));
        }
        if fault.panic {
            panicked += 1;
            let failed = field_u64(&chaos_frame, "failed").unwrap_or(0);
            let requested = field_u64(&chaos_frame, "requested").unwrap_or(0);
            if failed != requested || requested == 0 {
                return Err(format!(
                    "{id}: panic-faulted but {failed}/{requested} shots failed: {chaos_frame}"
                ));
            }
        } else {
            // Unfaulted and delay-only jobs are bit-identical to the
            // fault-free server: injected latency must not change results.
            if fault.delay.is_some() {
                delayed += 1;
            }
            if field_u64(&chaos_frame, "failed") != Some(0) {
                return Err(format!(
                    "{id}: unfaulted job reports failures: {chaos_frame}"
                ));
            }
            if field_counts(&clean_frame) != field_counts(&chaos_frame) {
                return Err(format!(
                    "{id}: counts diverged from the fault-free server\n  clean: {clean_frame}\n  chaos: {chaos_frame}"
                ));
            }
        }
    }
    if panicked == 0 || delayed == 0 {
        return Err(format!(
            "the drill plan faulted {panicked} panic / {delayed} delay jobs out of \
             {DRILL_JOBS} — too few to exercise the chaos path"
        ));
    }
    Ok(format!(
        "{panicked} panic-faulted, {delayed} delay-faulted, {} bit-identical",
        DRILL_JOBS - panicked - delayed
    ))
}

/// The `--live ADDR` gate: overload a *running* dqctd over TCP and assert
/// graceful shedding — typed rejections allowed (required with
/// `--expect-shed`), dropped accepted jobs never.
fn live(addr: &str) -> Result<String, String> {
    use std::net::TcpStream;

    let jobs: usize = args::value("--jobs").unwrap_or(64);
    let shots: u64 = args::shots(8);
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("cannot set a read timeout: {e}"))?;
    let ids: Vec<String> = (0..jobs).map(|i| format!("live-{i}")).collect();
    for id in &ids {
        write_frame(&mut stream, &render_submit(&probe(id, shots)))
            .map_err(|e| format!("cannot submit: {e}"))?;
    }
    let mut answered = 0usize;
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut errors = 0u64;
    while answered < jobs {
        let payload = read_frame(&mut stream, MAX_FRAME_BYTES)
            .map_err(|e| format!("transport failure after {answered} answers: {e}"))?
            .ok_or_else(|| format!("server closed after {answered}/{jobs} answers"))?;
        let text = String::from_utf8(payload).map_err(|_| "non-UTF-8 response".to_string())?;
        if field_str(&text, "id").is_none() {
            continue; // control-channel noise is not a job answer
        }
        answered += 1;
        match field_str(&text, "type") {
            Some("result") => completed += 1,
            Some("rejected") => rejected += 1,
            _ => errors += 1,
        }
    }
    let dropped = jobs as i64 - completed as i64 - rejected as i64 - errors as i64;
    println!(
        "{{\"submitted\":{jobs},\"completed\":{completed},\"rejected\":{rejected},\
         \"errors\":{errors},\"dropped\":{dropped}}}"
    );
    if dropped != 0 {
        return Err(format!("{dropped} accepted jobs were dropped"));
    }
    if args::flag("--expect-shed") && rejected == 0 {
        return Err(format!(
            "expected the overload to shed, but all {jobs} jobs were accepted"
        ));
    }
    Ok(format!(
        "live: {completed} completed, {rejected} shed, 0 dropped over {jobs} submissions"
    ))
}
