//! The `dqctd` wire protocol: length-prefixed frames, text requests, JSON
//! responses.
//!
//! # Frame layout
//!
//! Every message — in either direction — is one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | length: u32 BE | payload (len bytes) |
//! +----------------+---------------------+
//! ```
//!
//! The length covers the payload only. A reader enforces a maximum payload
//! size *before* allocating: an oversized prefix is rejected without
//! reading the body, so a hostile 4 GiB announcement costs four bytes. EOF
//! on the length prefix boundary is a clean close; EOF anywhere else is a
//! truncated frame.
//!
//! # Requests (client → server, UTF-8 text)
//!
//! The first line is the verb:
//!
//! * `submit` — header lines (`key value`, one per line) up to the first
//!   blank line, then the OpenQASM 3 circuit. Keys: `id` (required),
//!   `shots`, `seed`, `answer`, `data`, `ancilla` (comma-separated qubit
//!   indices), `scheme` (`direct` / `dynamic1` / `dynamic2`),
//!   `deadline-ms`.
//! * `cancel <id>` — cancel a queued or running job.
//! * `metrics` — fetch the service metrics registry.
//! * `ping` — liveness probe.
//! * `drain` — begin graceful drain (same semantics as SIGTERM).
//!
//! # Responses (server → client, JSON)
//!
//! One JSON object per frame, discriminated by `"type"`: `result`,
//! `rejected` (reason `queue-full` / `too-large` / `invalid` / `draining`,
//! with a `retry_after_ms` backoff hint where retrying can help), `error`,
//! `metrics`, `pong`, `draining`. Responses to `submit` arrive when the
//! job finishes, not when it is accepted; a connection may therefore have
//! many submits in flight and receives results in completion order, keyed
//! by `id`.

use qobs::json::JsonWriter;
use std::io::{self, Read, Write};

/// Default cap on one frame's payload (1 MiB) — far above any reasonable
/// QASM job, far below a memory-exhaustion vector.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The announced payload length exceeds the reader's cap. The body was
    /// not read; the connection should answer and close.
    TooLarge {
        /// The announced length.
        len: u32,
        /// The reader's cap.
        max: u32,
    },
    /// The peer closed mid-frame (inside the prefix or the payload).
    Truncated,
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Reads one frame. `Ok(None)` is a clean close (EOF exactly on a frame
/// boundary); any other premature EOF is [`FrameError::Truncated`].
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the announced length exceeds `max` (the
/// body is left unread), [`FrameError::Truncated`] on mid-frame EOF,
/// [`FrameError::Io`] on transport failure.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    match r.read_exact(&mut payload) {
        Ok(()) => Ok(Some(payload)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Writes one frame (length prefix + payload) with a single `write_all`.
///
/// Prefix and payload share one buffer so a socket sends them as one
/// segment: written separately, the payload of a small response waits for
/// the peer to acknowledge the 4-byte prefix, which a delayed-ACK client
/// holds back for tens of milliseconds (DESIGN.md §14.1).
///
/// # Errors
///
/// Propagates transport errors; the caller decides whether a failed write
/// is fatal (it usually means the client disconnected).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// A parsed job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen job identifier, echoed on every response.
    pub id: String,
    /// Shots to run (`None` = the server's default).
    pub shots: Option<u64>,
    /// Base RNG seed (`None` = the server's default).
    pub seed: Option<u64>,
    /// Answer qubit indices.
    pub answer: Vec<usize>,
    /// Data qubit indices (unlisted qubits default to data).
    pub data: Vec<usize>,
    /// Ancilla qubit indices.
    pub ancilla: Vec<usize>,
    /// Toffoli realization scheme (`None` = the server's default,
    /// dynamic-2).
    pub scheme: Option<String>,
    /// Per-job deadline in milliseconds (`None` = the server's default).
    pub deadline_ms: Option<u64>,
    /// The OpenQASM 3 source of the traditional circuit.
    pub qasm: String,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job.
    Submit(Box<JobSpec>),
    /// Cancel a queued or running job by id.
    Cancel(String),
    /// Fetch the service metrics registry as JSON.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Begin graceful drain.
    Drain,
}

fn parse_index_list(value: &str, key: &str) -> Result<Vec<usize>, String> {
    value
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .map_err(|_| format!("{key}: '{t}' is not a qubit index"))
        })
        .collect()
}

/// Parses a request payload.
///
/// # Errors
///
/// Returns a one-line human-readable message on non-UTF-8 payloads,
/// unknown verbs, missing/duplicate/unknown submit headers, and malformed
/// header values. QASM is *not* parsed here — circuit-level validation is
/// an admission decision and yields a typed `rejected` response instead.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_string())?;
    let (verb_line, rest) = match text.split_once('\n') {
        Some((v, r)) => (v.trim_end_matches('\r'), r),
        None => (text.trim_end_matches('\r'), ""),
    };
    match verb_line {
        "submit" => parse_submit(rest).map(|spec| Request::Submit(Box::new(spec))),
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "drain" => Ok(Request::Drain),
        other => match other.strip_prefix("cancel ") {
            Some(id) if !id.trim().is_empty() => Ok(Request::Cancel(id.trim().to_string())),
            Some(_) => Err("cancel needs a job id".to_string()),
            None => Err(format!("unknown verb '{other}'")),
        },
    }
}

fn parse_submit(rest: &str) -> Result<JobSpec, String> {
    let mut spec = JobSpec {
        id: String::new(),
        shots: None,
        seed: None,
        answer: Vec::new(),
        data: Vec::new(),
        ancilla: Vec::new(),
        scheme: None,
        deadline_ms: None,
        qasm: String::new(),
    };
    let mut lines = rest.split('\n');
    for line in lines.by_ref() {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            break;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed header line '{line}' (expected 'key value')"))?;
        let value = value.trim();
        match key {
            "id" => spec.id = value.to_string(),
            "shots" => {
                spec.shots = Some(
                    value
                        .parse()
                        .map_err(|_| format!("shots: '{value}' is not a shot count"))?,
                )
            }
            "seed" => {
                spec.seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("seed: '{value}' is not a seed"))?,
                )
            }
            "answer" => spec.answer = parse_index_list(value, "answer")?,
            "data" => spec.data = parse_index_list(value, "data")?,
            "ancilla" => spec.ancilla = parse_index_list(value, "ancilla")?,
            "scheme" => spec.scheme = Some(value.to_string()),
            "deadline-ms" => {
                spec.deadline_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("deadline-ms: '{value}' is not a duration"))?,
                )
            }
            other => return Err(format!("unknown submit header '{other}'")),
        }
    }
    if spec.id.is_empty() {
        return Err("submit needs an 'id' header".to_string());
    }
    // Everything after the blank line is the circuit, verbatim.
    spec.qasm = lines.collect::<Vec<_>>().join("\n");
    if spec.qasm.trim().is_empty() {
        return Err("submit carries no QASM body".to_string());
    }
    Ok(spec)
}

/// Renders a submit request frame payload (the client half of `submit`).
#[must_use]
pub fn render_submit(spec: &JobSpec) -> Vec<u8> {
    let mut out = String::from("submit\n");
    out.push_str(&format!("id {}\n", spec.id));
    if let Some(shots) = spec.shots {
        out.push_str(&format!("shots {shots}\n"));
    }
    if let Some(seed) = spec.seed {
        out.push_str(&format!("seed {seed}\n"));
    }
    for (key, list) in [
        ("answer", &spec.answer),
        ("data", &spec.data),
        ("ancilla", &spec.ancilla),
    ] {
        if !list.is_empty() {
            let rendered: Vec<String> = list.iter().map(usize::to_string).collect();
            out.push_str(&format!("{key} {}\n", rendered.join(",")));
        }
    }
    if let Some(scheme) = &spec.scheme {
        out.push_str(&format!("scheme {scheme}\n"));
    }
    if let Some(ms) = spec.deadline_ms {
        out.push_str(&format!("deadline-ms {ms}\n"));
    }
    out.push('\n');
    out.push_str(&spec.qasm);
    out.into_bytes()
}

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The bounded queue is full; retry after the hinted backoff.
    QueueFull {
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The job exceeds a hard size limit (frame bytes, qubits or shots);
    /// retrying the same job cannot help.
    TooLarge {
        /// Which limit, and by how much.
        detail: String,
    },
    /// The job is malformed (bad QASM, bad roles); retrying cannot help.
    Invalid {
        /// The validation failure.
        detail: String,
    },
    /// The server is draining and accepts no new work; retry against a
    /// replacement instance after the hinted backoff.
    Draining {
        /// Suggested client backoff before retrying elsewhere.
        retry_after_ms: u64,
    },
}

/// One finished job's accounting, rendered into a `result` response.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job id.
    pub id: String,
    /// The run's [`qsim::Termination`], rendered (`completed`, `deadline`,
    /// `failed-shot-budget`, `aborted`, `cancelled`).
    pub termination: String,
    /// Shots requested.
    pub requested: u64,
    /// Shots completed and recorded.
    pub completed: u64,
    /// Shots that panicked and were isolated.
    pub failed: u64,
    /// Shots dropped by the drift guard.
    pub discarded: u64,
    /// Measured counts, in bitstring order.
    pub counts: Vec<(String, u64)>,
    /// Whether the job ran no transform of its own: the content-hash cache
    /// held it, or the job waited on an identical job's transform.
    pub cache_hit: bool,
    /// Time spent queued before a worker picked the job up.
    pub queue_ms: f64,
    /// Time spent transforming + simulating.
    pub run_ms: f64,
    /// Total variation distance from the verified transform.
    pub tvd: f64,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Acknowledges a `drain` request.
    Draining,
    /// The metrics registry (pre-rendered JSON object).
    Metrics(String),
    /// A submission was rejected at admission.
    Rejected {
        /// The job id the rejection answers.
        id: String,
        /// Why.
        reason: RejectReason,
    },
    /// A request failed outside admission (malformed request frame, or a
    /// job that failed in the pipeline).
    Error {
        /// The job id, when the error is job-scoped.
        id: Option<String>,
        /// What went wrong.
        detail: String,
    },
    /// A finished job.
    Result(Box<JobOutcome>),
}

impl Response {
    /// Renders the response as its JSON frame payload.
    #[must_use]
    pub fn render(&self) -> Vec<u8> {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("type");
        match self {
            Response::Pong => w.string("pong"),
            Response::Draining => w.string("draining"),
            Response::Metrics(registry) => {
                w.string("metrics");
                w.key("registry");
                w.raw(registry);
            }
            Response::Rejected { id, reason } => {
                w.string("rejected");
                w.key("id");
                w.string(id);
                w.key("reason");
                match reason {
                    RejectReason::QueueFull { retry_after_ms } => {
                        w.string("queue-full");
                        w.key("retry_after_ms");
                        w.uint(*retry_after_ms);
                    }
                    RejectReason::TooLarge { detail } => {
                        w.string("too-large");
                        w.key("detail");
                        w.string(detail);
                    }
                    RejectReason::Invalid { detail } => {
                        w.string("invalid");
                        w.key("detail");
                        w.string(detail);
                    }
                    RejectReason::Draining { retry_after_ms } => {
                        w.string("draining");
                        w.key("retry_after_ms");
                        w.uint(*retry_after_ms);
                    }
                }
            }
            Response::Error { id, detail } => {
                w.string("error");
                if let Some(id) = id {
                    w.key("id");
                    w.string(id);
                }
                w.key("detail");
                w.string(detail);
            }
            Response::Result(outcome) => {
                w.string("result");
                w.key("id");
                w.string(&outcome.id);
                w.key("termination");
                w.string(&outcome.termination);
                w.key("requested");
                w.uint(outcome.requested);
                w.key("completed");
                w.uint(outcome.completed);
                w.key("failed");
                w.uint(outcome.failed);
                w.key("discarded");
                w.uint(outcome.discarded);
                w.key("cache");
                w.string(if outcome.cache_hit { "hit" } else { "miss" });
                w.key("queue_ms");
                w.float(outcome.queue_ms);
                w.key("run_ms");
                w.float(outcome.run_ms);
                w.key("tvd");
                w.float(outcome.tvd);
                w.key("counts");
                w.begin_object();
                for (bits, n) in &outcome.counts {
                    w.key(bits);
                    w.uint(*n);
                }
                w.end_object();
            }
        }
        w.end_object();
        w.finish().into_bytes()
    }
}

/// Pulls a string field out of a rendered response (`"key":"value"`).
/// A deliberate non-parser for clients and tests: the protocol's response
/// surface is flat enough that field extraction never needs a JSON tree.
#[must_use]
pub fn field_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = json.find(&needle)? + needle.len();
    let end = json[start..].find('"')?;
    Some(&json[start..start + end])
}

/// Pulls an unsigned number field out of a rendered response
/// (`"key":123`).
#[must_use]
pub fn field_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let digits: String = json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Pulls the raw `"counts":{...}` object (brace to brace) out of a
/// `result` response — the exact byte sequence, usable for bit-identity
/// comparisons without parsing.
#[must_use]
pub fn field_counts(json: &str) -> Option<&str> {
    let needle = "\"counts\":{";
    let start = json.find(needle)? + needle.len() - 1;
    let end = json[start..].find('}')?;
    Some(&json[start..=start + end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write empty");
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).expect("frame 1"),
            Some(b"hello".to_vec())
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).expect("frame 2"),
            Some(Vec::new())
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).expect("eof"), None);
    }

    /// Records every `write` call it receives, accepting each in full.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_leaves_in_one_write() {
        for len in [0usize, 17, 64 << 10] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).expect("write");
            assert_eq!(w.writes.len(), 1, "{len}-byte payload: one write call");
            let sent = &w.writes[0];
            assert_eq!(sent[..4], (len as u32).to_be_bytes(), "prefix first");
            assert_eq!(sent[4..], payload[..], "payload in the same call");
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"body that never gets read");
        match read_frame(&mut buf.as_slice(), 1024) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_distinguished_from_clean_close() {
        // Cut inside the prefix.
        assert!(matches!(
            read_frame(&mut [0u8, 0].as_slice(), 1024),
            Err(FrameError::Truncated)
        ));
        // Cut inside the payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"shor");
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn submit_round_trips_through_render_and_parse() {
        let spec = JobSpec {
            id: "job-1".into(),
            shots: Some(128),
            seed: Some(7),
            answer: vec![2],
            data: vec![0, 1],
            ancilla: Vec::new(),
            scheme: Some("dynamic2".into()),
            deadline_ms: Some(500),
            qasm: "OPENQASM 3.0;\nqubit[3] q;\n".into(),
        };
        let parsed = parse_request(&render_submit(&spec)).expect("parse");
        assert_eq!(parsed, Request::Submit(Box::new(spec)));
    }

    #[test]
    fn control_verbs_parse() {
        assert_eq!(parse_request(b"ping").expect("ping"), Request::Ping);
        assert_eq!(parse_request(b"ping\n").expect("ping nl"), Request::Ping);
        assert_eq!(
            parse_request(b"metrics").expect("metrics"),
            Request::Metrics
        );
        assert_eq!(parse_request(b"drain").expect("drain"), Request::Drain);
        assert_eq!(
            parse_request(b"cancel job-9").expect("cancel"),
            Request::Cancel("job-9".into())
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        for (payload, why) in [
            (&b"\xff\xfe"[..], "not UTF-8"),
            (b"frobnicate", "unknown verb"),
            (b"cancel ", "missing id"),
            (b"submit\nid j\nshots many\n\nx", "bad shots"),
            (b"submit\nid j\nbogus 1\n\nx", "unknown header"),
            (b"submit\nshots 4\n\nqasm", "missing id"),
            (b"submit\nid j\n\n", "missing qasm"),
            (b"submit\nid j\nnoseparator\n\nx", "malformed header"),
        ] {
            assert!(parse_request(payload).is_err(), "{why}");
        }
    }

    #[test]
    fn responses_render_typed_json() {
        let rejected = Response::Rejected {
            id: "j1".into(),
            reason: RejectReason::QueueFull { retry_after_ms: 40 },
        }
        .render();
        let text = String::from_utf8(rejected).expect("utf8");
        qobs::json::validate(&text).expect("valid JSON");
        assert_eq!(field_str(&text, "type"), Some("rejected"));
        assert_eq!(field_str(&text, "reason"), Some("queue-full"));
        assert_eq!(field_u64(&text, "retry_after_ms"), Some(40));

        let outcome = Response::Result(Box::new(JobOutcome {
            id: "j2".into(),
            termination: "completed".into(),
            requested: 64,
            completed: 64,
            failed: 0,
            discarded: 0,
            counts: vec![("00".into(), 30), ("11".into(), 34)],
            cache_hit: true,
            queue_ms: 0.5,
            run_ms: 2.25,
            tvd: 0.0,
        }))
        .render();
        let text = String::from_utf8(outcome).expect("utf8");
        qobs::json::validate(&text).expect("valid JSON");
        assert_eq!(field_str(&text, "termination"), Some("completed"));
        assert_eq!(field_counts(&text), Some(r#"{"00":30,"11":34}"#));
    }
}
