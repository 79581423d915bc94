//! End-to-end service tests over the in-memory transport (the same
//! `serve_connection` the TCP and stdio transports drive), plus real TCP
//! round trips through `serve_tcp`: submission, caching, load shedding,
//! cancellation, deadlines, drain, and the chaos drill.

use dqctd::{
    field_counts, field_str, field_u64, job_scope_key, read_frame, render_submit, write_frame,
    Config, FsyncPolicy, JobSpec, Journal, Server, MAX_FRAME_BYTES,
};
use qalgo::suites::toffoli_free_suite;
use qcir::qasm::to_qasm;
use qfault::FaultPlan;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A response sink shared with the worker pool, snapshot-readable from
/// the test thread.
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

/// Splits a raw response byte stream back into JSON payload strings.
fn frames_of(bytes: &[u8]) -> Vec<String> {
    let mut reader = bytes;
    let mut frames = Vec::new();
    while let Ok(Some(payload)) = read_frame(&mut reader, MAX_FRAME_BYTES) {
        frames.push(String::from_utf8(payload).expect("responses are UTF-8"));
    }
    frames
}

/// Polls the shared sink until `n` complete response frames arrived.
fn wait_for_frames(buf: &SharedBuf, n: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let frames = frames_of(&buf.0.lock().expect("sink lock"));
        if frames.len() >= n {
            return frames;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {n} responses, have {}: {frames:?}",
            frames.len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The response frame answering job `id`, if any.
fn response_for<'a>(frames: &'a [String], id: &str) -> Option<&'a String> {
    frames.iter().find(|f| field_str(f, "id") == Some(id))
}

/// The first toffoli-free benchmark as (qasm, answer, data, ancilla).
fn probe_job() -> (String, Vec<usize>, Vec<usize>, Vec<usize>) {
    let suite = toffoli_free_suite();
    let b = &suite[0];
    (
        to_qasm(&b.circuit),
        b.roles.answer().iter().map(|q| q.index()).collect(),
        b.roles.data().iter().map(|q| q.index()).collect(),
        b.roles.ancilla().iter().map(|q| q.index()).collect(),
    )
}

fn spec(id: &str, shots: u64) -> JobSpec {
    let (qasm, answer, data, ancilla) = probe_job();
    JobSpec {
        id: id.to_string(),
        shots: Some(shots),
        seed: None,
        answer,
        data,
        ancilla,
        scheme: None,
        deadline_ms: None,
        qasm,
    }
}

fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        write_frame(&mut out, p).expect("frame");
    }
    out
}

#[test]
fn submit_runs_and_second_identical_job_hits_the_cache() {
    let server = Server::start(Config::default());
    let sink = SharedBuf::default();
    let request = framed(&[
        render_submit(&spec("j1", 64)),
        render_submit(&spec("j2", 64)),
    ]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let frames = wait_for_frames(&sink, 2);
    let first = response_for(&frames, "j1").expect("j1 answered");
    let second = response_for(&frames, "j2").expect("j2 answered");
    for frame in [first, second] {
        assert_eq!(field_str(frame, "type"), Some("result"), "{frame}");
        assert_eq!(field_str(frame, "termination"), Some("completed"));
        assert_eq!(field_u64(frame, "completed"), Some(64));
    }
    // Same circuit + roles + scheme + seed: the transform comes from the
    // cache and the counts are bit-identical.
    let caches: Vec<_> = [first, second]
        .iter()
        .map(|f| field_str(f, "cache"))
        .collect();
    assert!(
        caches.contains(&Some("hit")),
        "one of the two identical jobs must hit the cache: {caches:?}"
    );
    assert_eq!(field_counts(first), field_counts(second));
    server.join();
}

#[test]
fn concurrent_identical_jobs_share_one_transform() {
    const K: usize = 6;
    let server = Server::start(Config {
        workers: K,
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let payloads: Vec<Vec<u8>> = (0..K)
        .map(|i| render_submit(&spec(&format!("same-{i}"), 64)))
        .collect();
    server.serve_connection(&mut framed(&payloads).as_slice(), Box::new(sink.clone()));
    let frames = wait_for_frames(&sink, K);
    server.join();
    let metrics = server.metrics_json();
    let counter = |name: &str| field_u64(&metrics, name).unwrap_or(0);
    assert_eq!(
        counter("service.cache.miss"),
        1,
        "one transform for {K} identical jobs: {metrics}"
    );
    assert_eq!(
        counter("service.cache.hit") + counter("service.cache.coalesced"),
        K as u64 - 1,
        "{metrics}"
    );
    let first = field_counts(&frames[0]);
    assert!(first.is_some(), "{}", frames[0]);
    for frame in &frames {
        assert_eq!(field_str(frame, "type"), Some("result"), "{frame}");
        assert_eq!(
            field_counts(frame),
            first,
            "identical jobs, identical counts"
        );
    }
}

#[test]
fn overload_sheds_typed_rejections_and_answers_every_accepted_job() {
    // One worker, a one-slot queue, and every job slowed by an injected
    // 40 ms/shot delay: submissions outrun service capacity immediately.
    let chaos = FaultPlan::parse("seed=3,delay=1.0,delay-ms=40").expect("spec");
    let server = Server::start(Config {
        workers: 1,
        queue_capacity: 1,
        chaos: Some(chaos),
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let payloads: Vec<Vec<u8>> = (0..6)
        .map(|i| render_submit(&spec(&format!("burst-{i}"), 4)))
        .collect();
    let request = framed(&payloads);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let frames = wait_for_frames(&sink, 6);
    let rejected: Vec<_> = frames
        .iter()
        .filter(|f| field_str(f, "type") == Some("rejected"))
        .collect();
    let results: Vec<_> = frames
        .iter()
        .filter(|f| field_str(f, "type") == Some("result"))
        .collect();
    assert_eq!(rejected.len() + results.len(), 6, "{frames:?}");
    assert!(!rejected.is_empty(), "a 6-job burst must shed: {frames:?}");
    assert!(!results.is_empty(), "accepted jobs must finish: {frames:?}");
    for frame in &rejected {
        assert_eq!(field_str(frame, "reason"), Some("queue-full"));
        assert!(
            field_u64(frame, "retry_after_ms").is_some(),
            "shed responses carry a backoff hint: {frame}"
        );
    }
    server.join();
    assert_eq!(server.pending(), 0, "no accepted job left unanswered");
}

#[test]
fn cancellation_reaches_queued_and_running_jobs() {
    let chaos = FaultPlan::parse("seed=3,delay=1.0,delay-ms=30").expect("spec");
    let server = Server::start(Config {
        workers: 1,
        chaos: Some(chaos),
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let mut slow = spec("victim", 1000);
    slow.deadline_ms = Some(60_000);
    let request = framed(&[
        render_submit(&slow),
        b"cancel victim".to_vec(),
        b"cancel no-such-job".to_vec(),
    ]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let frames = wait_for_frames(&sink, 2);
    let victim = response_for(&frames, "victim").expect("victim answered");
    assert_eq!(field_str(victim, "type"), Some("result"));
    assert_eq!(field_str(victim, "termination"), Some("cancelled"));
    let completed = field_u64(victim, "completed").expect("completed field");
    assert!(
        completed < 1000,
        "a cancelled 30 ms/shot job cannot have finished: {victim}"
    );
    let unknown = response_for(&frames, "no-such-job").expect("unknown id answered");
    assert_eq!(field_str(unknown, "type"), Some("error"));
    server.join();
}

#[test]
fn deadlines_bound_slow_jobs_with_partial_results() {
    let chaos = FaultPlan::parse("seed=3,delay=1.0,delay-ms=20").expect("spec");
    let server = Server::start(Config {
        workers: 1,
        chaos: Some(chaos),
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let mut slow = spec("sluggish", 1000);
    slow.deadline_ms = Some(150);
    let request = framed(&[render_submit(&slow)]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let frames = wait_for_frames(&sink, 1);
    let frame = &frames[0];
    assert_eq!(field_str(frame, "type"), Some("result"), "{frame}");
    assert_eq!(field_str(frame, "termination"), Some("deadline"));
    let completed = field_u64(frame, "completed").expect("completed field");
    assert!(
        completed < 1000,
        "a 20 s job under a 150 ms deadline must return a partial: {frame}"
    );
    server.join();
}

#[test]
fn drain_stops_admission_but_finishes_accepted_work() {
    let server = Server::start(Config {
        workers: 1,
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let request = framed(&[
        render_submit(&spec("before-1", 32)),
        render_submit(&spec("before-2", 32)),
        b"drain".to_vec(),
        render_submit(&spec("after", 32)),
    ]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    assert!(server.is_draining());
    server.join();
    assert_eq!(server.pending(), 0);
    let frames = wait_for_frames(&sink, 4);
    for id in ["before-1", "before-2"] {
        let frame = response_for(&frames, id).expect("accepted job answered");
        assert_eq!(field_str(frame, "type"), Some("result"), "{frame}");
        assert_eq!(field_str(frame, "termination"), Some("completed"));
    }
    let after = response_for(&frames, "after").expect("post-drain submission answered");
    assert_eq!(field_str(after, "type"), Some("rejected"));
    assert_eq!(field_str(after, "reason"), Some("draining"));
    assert!(frames.iter().any(|f| f.contains("\"type\":\"draining\"")));
}

#[test]
fn chaos_drill_faults_exactly_the_predicted_jobs_and_spares_the_rest() {
    // The faulted set is a pure function of (plan seed, job id): the
    // drill computes it client-side and checks the server agrees job by
    // job — panics surface as isolated failed shots, everything else is
    // bit-identical to a fault-free server.
    let plan = FaultPlan::parse("seed=9,panic=0.2").expect("spec");
    let ids: Vec<String> = (0..24).map(|i| format!("drill-{i}")).collect();
    let run = |chaos: Option<FaultPlan>| {
        let server = Server::start(Config {
            chaos,
            ..Config::default()
        });
        let sink = SharedBuf::default();
        let payloads: Vec<Vec<u8>> = ids.iter().map(|id| render_submit(&spec(id, 32))).collect();
        let request = framed(&payloads);
        server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
        let frames = wait_for_frames(&sink, ids.len());
        server.join();
        frames
    };
    let clean = run(None);
    let chaotic = run(Some(plan.clone()));
    let faulted: Vec<bool> = ids
        .iter()
        .map(|id| plan.job_fault(job_scope_key(id)).is_faulted())
        .collect();
    assert!(
        faulted.iter().any(|&f| f) && !faulted.iter().all(|&f| f),
        "a 20% rate over 24 jobs should fault some but not all: {faulted:?}"
    );
    for (id, &is_faulted) in ids.iter().zip(&faulted) {
        let clean_frame = response_for(&clean, id).expect("fault-free answer");
        let chaos_frame = response_for(&chaotic, id).expect("chaos answer");
        assert_eq!(field_str(chaos_frame, "type"), Some("result"));
        if is_faulted {
            let failed = field_u64(chaos_frame, "failed").expect("failed field");
            assert!(
                failed > 0,
                "faulted {id} must report failed shots: {chaos_frame}"
            );
        } else {
            assert_eq!(field_u64(chaos_frame, "failed"), Some(0));
            assert_eq!(
                field_counts(clean_frame),
                field_counts(chaos_frame),
                "unfaulted {id} must be bit-identical to the fault-free run"
            );
        }
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "dqctd-service-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn restart_serves_completed_jobs_byte_identically_from_the_journal() {
    let path = temp_journal("dedup");
    let journalled = |id: &str| {
        let server = Server::start(Config {
            journal: Some(path.clone()),
            fsync: FsyncPolicy::Always,
            ..Config::default()
        });
        let sink = SharedBuf::default();
        let request = framed(&[render_submit(&spec(id, 64))]);
        server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
        let frames = wait_for_frames(&sink, 1);
        server.join();
        frames[0].clone()
    };
    let first = journalled("replay-me");
    assert_eq!(field_str(&first, "termination"), Some("completed"));
    // A fresh process, the same journal, the same client job id: the
    // recorded response is served verbatim — byte-identical, including
    // the original timings — with no re-run.
    let retried = journalled("replay-me");
    assert_eq!(first, retried, "dedup must serve the recorded bytes");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restart_replays_admitted_but_unanswered_jobs_deterministically() {
    let path = temp_journal("replay");
    let mut lost = spec("lost-at-crash", 64);
    lost.seed = Some(41);
    // Simulate a crash after admission: the journal holds the admitted
    // record with no matching completion (exactly what a SIGKILL between
    // admit and respond leaves behind).
    {
        let (journal, recovery) = Journal::open(&path, FsyncPolicy::Always).expect("open");
        assert_eq!(recovery.records, 0);
        journal.append_admitted(&lost).expect("journal admission");
    }
    // Restarting the service replays the job through the normal pipeline;
    // once pending drains, the completion index answers a retry.
    let server = Server::start(Config {
        journal: Some(path.clone()),
        ..Config::default()
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.pending() > 0 {
        assert!(Instant::now() < deadline, "replayed job never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    let metrics = server.metrics_json();
    assert!(
        metrics.contains("journal.replayed"),
        "replay must be counted: {metrics}"
    );
    let sink = SharedBuf::default();
    let request = framed(&[render_submit(&lost)]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let replayed = wait_for_frames(&sink, 1)[0].clone();
    server.join();
    // The replayed outcome is bit-identical to running the same spec on a
    // journal-less server: same seed, same counter-based RNG, same counts.
    let server = Server::start(Config::default());
    let sink = SharedBuf::default();
    let request = framed(&[render_submit(&lost)]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let direct = wait_for_frames(&sink, 1)[0].clone();
    server.join();
    assert_eq!(field_str(&replayed, "termination"), Some("completed"));
    assert_eq!(
        field_counts(&replayed),
        field_counts(&direct),
        "replayed: {replayed}\ndirect: {direct}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_burst_under_fsync_always_matches_a_journal_less_server_and_recovers_clean() {
    const JOBS: u64 = 64;
    let path = temp_journal("burst");
    let burst: Vec<JobSpec> = (0..JOBS)
        .map(|i| {
            let mut job = spec(&format!("burst-{i}"), 64);
            job.seed = Some(i);
            job
        })
        .collect();
    let run = |journal: Option<PathBuf>| {
        let server = Server::start(Config {
            journal,
            fsync: FsyncPolicy::Always,
            ..Config::default()
        });
        let sink = SharedBuf::default();
        let request = framed(&burst.iter().map(render_submit).collect::<Vec<_>>());
        server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
        let frames = wait_for_frames(&sink, JOBS as usize);
        server.join();
        frames
    };
    let durable = run(Some(path.clone()));
    let direct = run(None);
    for job in &burst {
        let answer = response_for(&durable, &job.id).expect("every job answered");
        assert_eq!(
            field_str(answer, "termination"),
            Some("completed"),
            "{answer}"
        );
        let reference = response_for(&direct, &job.id).expect("reference answered");
        assert_eq!(field_counts(answer), field_counts(reference), "{}", job.id);
    }
    let (_journal, recovery) = Journal::open(&path, FsyncPolicy::Off).expect("reopen");
    assert_eq!(
        recovery.records,
        2 * JOBS,
        "64 admissions and 64 completions"
    );
    assert_eq!(recovery.completed.len(), JOBS as usize);
    assert!(recovery.incomplete.is_empty(), "{:?}", recovery.incomplete);
    assert_eq!(recovery.truncated_bytes, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_journal_that_cannot_sync_never_answers_with_a_result() {
    // `fdatasync` on /dev/null fails (EINVAL on Linux): no admission can
    // become durable, so under `always` no job may be answered `result`.
    const JOBS: usize = 8;
    let server = Server::start(Config {
        journal: Some(PathBuf::from("/dev/null")),
        fsync: FsyncPolicy::Always,
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let ids: Vec<String> = (0..JOBS).map(|i| format!("undurable-{i}")).collect();
    let request = framed(
        &ids.iter()
            .map(|id| render_submit(&spec(id, 64)))
            .collect::<Vec<_>>(),
    );
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    wait_for_frames(&sink, JOBS);
    server.join();
    let frames = frames_of(&sink.0.lock().expect("sink lock"));
    assert_eq!(frames.len(), JOBS, "one answer per job: {frames:?}");
    for id in &ids {
        let answers: Vec<&String> = frames
            .iter()
            .filter(|f| field_str(f, "id") == Some(id))
            .collect();
        assert_eq!(answers.len(), 1, "{id}: {answers:?}");
        let kind = field_str(answers[0], "type");
        assert!(
            matches!(kind, Some("error" | "rejected")),
            "{id} answered without a durable admission: {}",
            answers[0]
        );
        assert!(
            answers[0].contains("cannot make the job durable"),
            "{}",
            answers[0]
        );
    }
    let metrics = server.metrics_json();
    assert!(metrics.contains("\"journal.sync_failed\""), "{metrics}");
}

#[test]
fn duplicate_in_flight_ids_are_rejected_not_raced() {
    let chaos = FaultPlan::parse("seed=3,delay=1.0,delay-ms=20").expect("spec");
    let server = Server::start(Config {
        workers: 1,
        chaos: Some(chaos),
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let request = framed(&[
        render_submit(&spec("dup", 200)),
        render_submit(&spec("dup", 200)),
    ]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let frames = wait_for_frames(&sink, 2);
    let rejected = frames
        .iter()
        .find(|f| field_str(f, "type") == Some("rejected"))
        .expect("second submission rejected");
    assert!(
        rejected.contains("already in flight"),
        "typed duplicate rejection: {rejected}"
    );
    assert!(
        frames
            .iter()
            .any(|f| field_str(f, "type") == Some("result")),
        "first submission still answered: {frames:?}"
    );
    server.join();
}

#[test]
fn memory_admission_sheds_jobs_the_statevector_budget_cannot_hold() {
    let suite = toffoli_free_suite();
    let qubits = suite[0].circuit.num_qubits();
    let bytes = 16u64 << qubits;
    // A budget one byte short of a single statevector: every job is too
    // large on its own, before any allocation happens.
    let server = Server::start(Config {
        max_inflight_bytes: bytes - 1,
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let request = framed(&[render_submit(&spec("heavy", 16))]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let frames = wait_for_frames(&sink, 1);
    assert_eq!(field_str(&frames[0], "type"), Some("rejected"));
    assert_eq!(field_str(&frames[0], "reason"), Some("too-large"));
    assert!(
        frames[0].contains("memory budget"),
        "typed memory rejection: {}",
        frames[0]
    );
    server.join();

    // A budget that holds exactly one job: the second concurrent
    // submission sheds as queue-full (retryable) while the first runs.
    let chaos = FaultPlan::parse("seed=3,delay=1.0,delay-ms=20").expect("spec");
    let server = Server::start(Config {
        workers: 1,
        max_inflight_bytes: bytes,
        chaos: Some(chaos),
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let request = framed(&[
        render_submit(&spec("fits", 200)),
        render_submit(&spec("overflows", 16)),
    ]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let frames = wait_for_frames(&sink, 2);
    let shed = response_for(&frames, "overflows").expect("second job answered");
    assert_eq!(field_str(shed, "type"), Some("rejected"));
    assert_eq!(field_str(shed, "reason"), Some("queue-full"));
    assert!(
        field_u64(shed, "retry_after_ms").is_some(),
        "memory shedding is retryable: {shed}"
    );
    server.join();
    let metrics = server.metrics_json();
    assert!(
        metrics.contains("service.rejected.memory"),
        "memory shed must be counted: {metrics}"
    );
}

#[test]
fn cold_start_backoff_hint_is_seeded_and_clamped() {
    // No job has ever completed, so the latency EMA is empty: the hint
    // must come from the cold-start seed (50 ms / 2 workers = 25 ms),
    // not from a zero EMA.
    let server = Server::start(Config {
        workers: 2,
        queue_capacity: 0,
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let request = framed(&[render_submit(&spec("cold", 16))]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let frames = wait_for_frames(&sink, 1);
    assert_eq!(field_str(&frames[0], "reason"), Some("queue-full"));
    assert_eq!(
        field_u64(&frames[0], "retry_after_ms"),
        Some(25),
        "cold-start hint: {}",
        frames[0]
    );
    server.join();
}

#[test]
fn watchdog_replaces_a_wedged_worker_and_fails_its_job_with_a_typed_reason() {
    // A 2 s per-shot injected delay freezes the worker's heartbeat far
    // beyond the 150 ms stall threshold; the watchdog first cancels
    // (ignored — the worker is asleep inside the shot), then retires the
    // worker, answers its job with a supervisor error, and respawns. The
    // unfaulted job then completes on the replacement worker.
    let plan = FaultPlan::parse("seed=5,delay=0.5,delay-ms=2000").expect("spec");
    let faulted_of = |want: bool| {
        (0..64)
            .map(|i| format!("probe-{i}"))
            .find(|id| plan.job_fault(job_scope_key(id)).is_faulted() == want)
            .expect("a 50% rate over 64 ids hits both outcomes")
    };
    let stuck = faulted_of(true);
    let healthy = faulted_of(false);
    let server = Server::start(Config {
        workers: 1,
        chaos: Some(plan.clone()),
        stall_after: Duration::from_millis(150),
        watchdog_interval: Duration::from_millis(25),
        ..Config::default()
    });
    let sink = SharedBuf::default();
    let request = framed(&[
        render_submit(&spec(&stuck, 8)),
        render_submit(&spec(&healthy, 8)),
    ]);
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    let frames = wait_for_frames(&sink, 2);
    let failed = response_for(&frames, &stuck).expect("stuck job answered");
    assert_eq!(field_str(failed, "type"), Some("error"), "{failed}");
    assert!(
        failed.contains("supervisor"),
        "typed supervision reason: {failed}"
    );
    let done = response_for(&frames, &healthy).expect("healthy job answered");
    assert_eq!(field_str(done, "type"), Some("result"), "{done}");
    assert_eq!(field_str(done, "termination"), Some("completed"));
    server.join();
    let metrics = server.metrics_json();
    assert!(
        metrics.contains("supervisor.respawns") && metrics.contains("supervisor.stuck_cancelled"),
        "supervision must be counted: {metrics}"
    );
}

/// Serves one TCP connection through `serve_tcp` on a loopback listener.
/// Returns the address, a clone of the accepted socket (sent once it is
/// accepted) and the serving thread.
fn serve_one_tcp_connection(
    server: &Arc<Server>,
) -> (SocketAddr, Receiver<TcpStream>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let (accepted_tx, accepted_rx) = mpsc::channel();
    let server = Arc::clone(server);
    let acceptor = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        accepted_tx
            .send(stream.try_clone().expect("clone stream"))
            .expect("test thread listening");
        server.serve_tcp(stream);
    });
    (addr, accepted_rx, acceptor)
}

#[test]
fn serve_tcp_sets_nodelay_on_the_accepted_socket() {
    let server = Server::start(Config::default());
    let (addr, accepted, acceptor) = serve_one_tcp_connection(&server);
    let mut client = TcpStream::connect(addr).expect("connect");
    write_frame(&mut client, b"ping").expect("send ping");
    let pong = read_frame(&mut client, MAX_FRAME_BYTES)
        .expect("read pong")
        .expect("pong present");
    assert!(pong.starts_with(b"{\"type\":\"pong\""));
    let socket = accepted.recv().expect("accepted socket");
    assert!(
        socket.nodelay().expect("read TCP_NODELAY"),
        "responses must not wait behind Nagle's algorithm"
    );
    drop(client);
    acceptor.join().expect("acceptor thread");
    server.join();
}

#[test]
fn tcp_transport_round_trips_ping_submit_and_metrics() {
    let server = Server::start(Config::default());
    let (addr, _accepted, acceptor) = serve_one_tcp_connection(&server);
    let mut client = TcpStream::connect(addr).expect("connect");
    // Three requests in one write: the server's buffered reader must split
    // them back into frames.
    let requests = framed(&[
        b"ping".to_vec(),
        render_submit(&spec("tcp-1", 16)),
        b"metrics".to_vec(),
    ]);
    client.write_all(&requests).expect("send requests");
    let mut seen = Vec::new();
    for _ in 0..3 {
        let payload = read_frame(&mut client, MAX_FRAME_BYTES)
            .expect("read response")
            .expect("response present");
        seen.push(String::from_utf8(payload).expect("utf8"));
    }
    drop(client);
    acceptor.join().expect("acceptor thread");
    assert!(
        seen.iter().any(|f| f.contains("\"type\":\"pong\"")),
        "{seen:?}"
    );
    assert!(
        seen.iter().any(|f| field_str(f, "id") == Some("tcp-1")
            && field_str(f, "termination") == Some("completed")),
        "{seen:?}"
    );
    assert!(
        seen.iter()
            .any(|f| f.contains("\"type\":\"metrics\"") && f.contains("service.accepted")),
        "{seen:?}"
    );
    server.join();
}
