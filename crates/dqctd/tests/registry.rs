//! The in-flight job registry seen from two connections: one client id
//! runs once however its submissions race, and `cancel` reaches only the
//! connection that submitted the job.

use dqctd::{
    field_str, field_u64, read_frame, render_submit, write_frame, Config, JobSpec, Server,
    MAX_FRAME_BYTES,
};
use qalgo::suites::toffoli_free_suite;
use qcir::qasm::to_qasm;
use qfault::FaultPlan;
use std::io::{self, Cursor, Read, Write};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Barrier, Mutex};

/// A response sink shared with the worker pool, readable from the test.
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

impl SharedBuf {
    /// The complete response frames written so far, as JSON strings.
    fn frames(&self) -> Vec<String> {
        let bytes = self.0.lock().expect("sink lock").clone();
        let mut reader = bytes.as_slice();
        let mut frames = Vec::new();
        while let Ok(Some(payload)) = read_frame(&mut reader, MAX_FRAME_BYTES) {
            frames.push(String::from_utf8(payload).expect("responses are UTF-8"));
        }
        frames
    }
}

/// A connection's read side, fed from another thread one request at a
/// time; the sender hanging up is a clean close.
struct ChannelReader {
    requests: Receiver<Vec<u8>>,
    current: Cursor<Vec<u8>>,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        loop {
            let n = self.current.read(out)?;
            if n > 0 || out.is_empty() {
                return Ok(n);
            }
            match self.requests.recv() {
                Ok(next) => self.current = Cursor::new(next),
                Err(_) => return Ok(0),
            }
        }
    }
}

fn spec(id: &str, shots: u64) -> JobSpec {
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
        deadline_ms: None,
        qasm: to_qasm(&b.circuit),
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).expect("frame");
    out
}

#[test]
fn same_id_from_two_connections_runs_once() {
    // Each id is submitted on two connections at once, released together
    // by a barrier. Runs are counted by `service.completed`, not by
    // `result` frames: a twin that arrives after its job finished is
    // served the recorded response, which is not a second run.
    const IDS: usize = 200;
    let chaos = FaultPlan::parse("seed=3,delay=1.0,delay-ms=1").expect("spec");
    let server = Server::start(Config {
        workers: 2,
        queue_capacity: 2 * IDS,
        chaos: Some(chaos),
        ..Config::default()
    });
    let submits: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..IDS)
            .map(|i| framed(&render_submit(&spec(&format!("twin-{i}"), 4))))
            .collect(),
    );
    let barrier = Arc::new(Barrier::new(2));
    let connections: Vec<_> = (0..2)
        .map(|_| {
            let (requests, received) = mpsc::channel();
            let serving = {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let mut reader = ChannelReader {
                        requests: received,
                        current: Cursor::new(Vec::new()),
                    };
                    server.serve_connection(&mut reader, Box::new(io::sink()));
                })
            };
            let (barrier, submits) = (Arc::clone(&barrier), Arc::clone(&submits));
            let client = std::thread::spawn(move || {
                for submit in submits.iter() {
                    barrier.wait();
                    requests.send(submit.clone()).expect("connection open");
                }
            });
            (client, serving)
        })
        .collect();
    for (client, serving) in connections {
        client.join().expect("client thread");
        serving.join().expect("connection thread");
    }
    server.join();
    let metrics = server.metrics_json();
    assert_eq!(
        field_u64(&metrics, "service.completed"),
        Some(IDS as u64),
        "every id must run exactly once: {metrics}"
    );
}

#[test]
fn cancel_is_scoped_to_the_submitting_connection() {
    let chaos = FaultPlan::parse("seed=3,delay=1.0,delay-ms=5").expect("spec");
    let server = Server::start(Config {
        workers: 1,
        chaos: Some(chaos),
        ..Config::default()
    });
    let owner = SharedBuf::default();
    let submit = framed(&render_submit(&spec("owned", 40)));
    server.serve_connection(&mut submit.as_slice(), Box::new(owner.clone()));
    let stranger = SharedBuf::default();
    let cancel = framed(b"cancel owned");
    server.serve_connection(&mut cancel.as_slice(), Box::new(stranger.clone()));
    let refused = stranger.frames();
    assert_eq!(refused.len(), 1, "{refused:?}");
    assert_eq!(field_str(&refused[0], "type"), Some("error"), "{refused:?}");
    assert!(
        refused[0].contains("no such active job on this connection"),
        "{refused:?}"
    );
    server.join();
    let answered = owner.frames();
    assert_eq!(answered.len(), 1, "{answered:?}");
    assert_eq!(field_str(&answered[0], "termination"), Some("completed"));
    assert_eq!(field_u64(&answered[0], "completed"), Some(40));
    let metrics = server.metrics_json();
    assert_eq!(
        field_u64(&metrics, "service.inflight_bytes"),
        Some(0),
        "{metrics}"
    );
}
