//! The crash drill: SIGKILL a real `dqctd` process mid-burst and prove
//! the journal brings every admitted job back — replayed bit-identically
//! through the deterministic pipeline, served byte-identically to
//! idempotent retries, across process and restart boundaries.

#![cfg(unix)]

use dqctd::{
    field_counts, field_str, read_frame, render_submit, write_frame, Config, JobSpec, Server,
    MAX_FRAME_BYTES,
};
use qalgo::suites::toffoli_free_suite;
use qcir::qasm::to_qasm;
use std::io::{self, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn temp_file(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dqctd-crash-drill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn spec(id: &str) -> JobSpec {
    let suite = toffoli_free_suite();
    let b = &suite[0];
    JobSpec {
        id: id.to_string(),
        shots: Some(300),
        seed: Some(17),
        answer: b.roles.answer().iter().map(|q| q.index()).collect(),
        data: b.roles.data().iter().map(|q| q.index()).collect(),
        ancilla: b.roles.ancilla().iter().map(|q| q.index()).collect(),
        scheme: None,
        deadline_ms: Some(120_000),
        qasm: to_qasm(&b.circuit),
    }
}

/// Boots a dqctd child on an ephemeral port and waits for the port file
/// (named after the journal, so tests running side by side never share
/// one).
fn boot(journal: &Path, extra: &[&str]) -> (Child, u16) {
    let port_file = journal.with_extension("port");
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dqctd"));
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().expect("utf8 path"),
        "--journal",
        journal.to_str().expect("utf8 path"),
        "--fsync",
        "always",
        "--workers",
        "1",
    ])
    .args(extra)
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    let child = cmd.spawn().expect("spawn dqctd");
    let deadline = Instant::now() + Duration::from_secs(60);
    let port = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse::<u16>() {
                break port;
            }
        }
        assert!(Instant::now() < deadline, "dqctd never wrote its port");
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = std::fs::remove_file(&port_file);
    (child, port)
}

fn connect(port: u16) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(stream) = TcpStream::connect(("127.0.0.1", port)) {
            return stream;
        }
        assert!(Instant::now() < deadline, "cannot connect to dqctd");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Waits for a drained daemon to exit, failing the test instead of
/// hanging the suite if the drain never ends the process.
fn wait_for_exit(child: &mut Child, name: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("poll dqctd") {
            assert!(status.success(), "{name} dqctd exited with {status}");
            return;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{name} dqctd did not exit within 30 s of the drain verb");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Submits `id` and reads until its own answer arrives; retries while the
/// replay of the same id is still in flight.
fn fetch_result(port: u16, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let mut stream = connect(port);
        write_frame(&mut stream, &render_submit(&spec(id))).expect("send submit");
        let answer = loop {
            let frame = read_frame(&mut stream, MAX_FRAME_BYTES)
                .expect("read response")
                .expect("response present");
            let text = String::from_utf8(frame).expect("utf8");
            if field_str(&text, "id") == Some(id) {
                break text;
            }
        };
        if field_str(&answer, "type") == Some("result") {
            return answer;
        }
        // Still replaying: the duplicate-id rejection means an earlier
        // (journalled) admission owns the id — exactly the client's
        // "already in flight" retry story.
        assert!(
            answer.contains("already in flight"),
            "unexpected answer for {id}: {answer}"
        );
        assert!(Instant::now() < deadline, "{id} never finished replaying");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A shared sink for the in-process reference server.
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

#[test]
fn sigkill_mid_burst_replays_every_admitted_job_bit_identically() {
    let journal = temp_file("journal");
    let ids = ["drill-a", "drill-b", "drill-c"];

    // Phase 1: boot with a 50 ms/shot injected delay — 300 shots per job
    // cannot finish before the kill — submit the burst, and confirm
    // admission reached the journal (the pong answers only after every
    // earlier frame on the connection was dispatched, and each admission
    // is written before it is queued; a SIGKILL keeps written pages, so
    // the drill checks "written before queued" — syncing only matters to
    // a machine crash).
    let (mut victim, port) = boot(&journal, &["--inject", "seed=3,delay=1.0,delay-ms=50"]);
    {
        let mut stream = connect(port);
        for id in &ids {
            write_frame(&mut stream, &render_submit(&spec(id))).expect("send submit");
        }
        write_frame(&mut stream, b"ping").expect("send ping");
        let frame = read_frame(&mut stream, MAX_FRAME_BYTES)
            .expect("read pong")
            .expect("pong present");
        let text = String::from_utf8(frame).expect("utf8");
        assert!(text.contains("\"type\":\"pong\""), "{text}");
    }
    victim.kill().expect("SIGKILL dqctd");
    let _ = victim.wait();

    // Phase 2: restart on the same journal, chaos-free. Every admitted
    // job replays through the deterministic pipeline; retries under the
    // same ids collect the results.
    let (mut revived, port) = boot(&journal, &[]);
    let replayed: Vec<String> = ids.iter().map(|id| fetch_result(port, id)).collect();
    for (id, answer) in ids.iter().zip(&replayed) {
        assert_eq!(
            field_str(answer, "termination"),
            Some("completed"),
            "{answer}"
        );
        assert_eq!(field_str(answer, "id"), Some(*id));
    }
    // A second retry in the same process is served from the completion
    // index byte-for-byte.
    for (id, answer) in ids.iter().zip(&replayed) {
        assert_eq!(&fetch_result(port, id), answer, "same-process dedup");
    }
    let mut stream = connect(port);
    write_frame(&mut stream, b"drain").expect("send drain");
    wait_for_exit(&mut revived, "revived");

    // Phase 3: a third process on the same journal serves the recorded
    // responses byte-identically — recovery across two crash boundaries.
    let (mut archive, port) = boot(&journal, &[]);
    for (id, answer) in ids.iter().zip(&replayed) {
        assert_eq!(&fetch_result(port, id), answer, "cross-restart dedup");
    }
    let mut stream = connect(port);
    write_frame(&mut stream, b"drain").expect("send drain");
    wait_for_exit(&mut archive, "archive");

    // The replayed counts are bit-identical to the same spec on a fresh
    // in-process server that never crashed: recovery is a pure re-run.
    let server = Server::start(Config::default());
    let sink = SharedBuf::default();
    let mut request = Vec::new();
    write_frame(&mut request, &render_submit(&spec("reference"))).expect("frame");
    server.serve_connection(&mut request.as_slice(), Box::new(sink.clone()));
    server.join();
    let reference = {
        let bytes = sink.0.lock().expect("sink lock");
        let mut reader = bytes.as_slice();
        let frame = read_frame(&mut reader, MAX_FRAME_BYTES)
            .expect("read reference")
            .expect("reference present");
        String::from_utf8(frame).expect("utf8")
    };
    for answer in &replayed {
        assert_eq!(
            field_counts(answer),
            field_counts(&reference),
            "replayed counts must match a crash-free run\nreplayed: {answer}\nreference: {reference}"
        );
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn drain_verb_ends_a_daemon_listening_on_an_unspecified_address() {
    // The accept loop blocks; on drain its waker connects to the listener
    // to unblock it, through loopback when the daemon listens on 0.0.0.0.
    let journal = temp_file("unspecified-journal");
    let (mut daemon, port) = boot(&journal, &["--addr", "0.0.0.0:0"]);
    let mut stream = connect(port);
    write_frame(&mut stream, b"drain").expect("send drain");
    let frame = read_frame(&mut stream, MAX_FRAME_BYTES)
        .expect("read drain answer")
        .expect("drain answered");
    assert!(frame.starts_with(b"{\"type\":\"draining\""));
    wait_for_exit(&mut daemon, "unspecified-address");
    let _ = std::fs::remove_file(&journal);
}
