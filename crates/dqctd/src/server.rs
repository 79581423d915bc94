//! The service core: bounded admission queue, sharded worker pool,
//! per-job budgets, cancellation, chaos scoping and graceful drain.
//!
//! # Admission-control policy
//!
//! A submission is examined *before* it is accepted, in order of
//! increasing cost: drain state, QASM parse, structural validation, size
//! limits (qubits, shots), role partition, then — in the one critical
//! section that also inserts the job into the in-flight registry —
//! duplicate id, queue capacity and memory budget. Every rejection
//! is typed ([`RejectReason`]) and, where retrying can help (`queue-full`,
//! `draining`), carries a `retry_after_ms` backoff hint derived from the
//! observed job-latency EMA and the current backlog. Once a job is
//! accepted it is never dropped: every accepted job gets exactly one
//! `result` or `error` response, even across drain.
//!
//! # Drain semantics
//!
//! [`Server::drain`] (wired to SIGTERM and the `drain` verb by the binary)
//! stops admission — new submissions answer `rejected`/`draining` — while
//! the workers finish every already-accepted job. Jobs whose deadline
//! expired while queued return partial results with their usual
//! `deadline` termination; cancelled jobs answer `cancelled`; nothing is
//! silently discarded. [`Server::join`] returns once the queue is empty
//! and every worker has exited.
//!
//! # Durability and supervision (DESIGN.md §15)
//!
//! With [`Config::journal`] set, every admission and completion is
//! recorded in a crash-only write-ahead journal (see [`crate::journal`]).
//! On restart, admitted-but-unanswered jobs are replayed through the
//! deterministic pipeline (bit-identical counts by the executor's
//! counter-based RNG), and duplicate submissions with an already-completed
//! client job id are served the journaled response verbatim — client
//! retries are idempotent.
//!
//! Each worker carries a heartbeat the executor ticks at least once per
//! shot; a watchdog thread samples the heartbeats and escalates a stalled
//! worker in two stages: first cancel the wedged job's [`CancelToken`]
//! (a cooperative executor honours it between shots), then — if the
//! heartbeat still does not move — retire the worker thread, answer the
//! job with a typed supervisor error, and respawn a fresh worker. Every
//! job therefore still gets exactly one response: a respond-once guard
//! makes the worker and the watchdog race-safe.

use crate::cache::{cache_key, CachedTransform, Lookup, TransformCache};
use crate::journal::{FsyncPolicy, Journal};
use crate::protocol::{
    parse_request, read_frame, write_frame, FrameError, JobOutcome, JobSpec, RejectReason, Request,
    Response,
};
use dqc::{DqcError, DynamicScheme, Pipeline, QubitRoles};
use qcir::qasm::from_qasm;
use qcir::{Circuit, Qubit};
use qfault::FaultPlan;
use qobs::Observer;
use qsim::{CancelToken, Executor, FaultSite, Termination};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Derives the deterministic job-scope key a chaos plan is consulted with:
/// FNV-1a of the client-chosen job id. Both the server and its chaos drill
/// can compute the faulted set from ids alone, with no shared state.
#[must_use]
pub fn job_scope_key(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cold-start stand-in for the job-latency EMA (50 ms — a mid-size
/// transform + simulation) used by [`Server`]'s `retry_after_ms` hints
/// before the first completion has produced a real sample.
const COLD_START_JOB_US: u64 = 50_000;
/// Floor on every `retry_after_ms` hint: never tell a client to hammer.
const MIN_RETRY_HINT_MS: u64 = 10;
/// Ceiling on every `retry_after_ms` hint: never tell a client to
/// disappear for minutes because one pathological job skewed the EMA.
const MAX_RETRY_HINT_MS: u64 = 2000;

/// The statevector footprint of an `n`-qubit job: `2^n` `Complex64`
/// amplitudes at 16 bytes each (saturating, so a hostile width cannot
/// overflow the accounting into a free pass).
#[must_use]
fn statevector_bytes(num_qubits: usize) -> u64 {
    if num_qubits >= 60 {
        return u64::MAX;
    }
    16u64 << num_qubits
}

/// The CLI/wire spelling of a scheme, for journaling resolved specs.
fn scheme_name(scheme: DynamicScheme) -> &'static str {
    match scheme {
        DynamicScheme::Direct => "direct",
        DynamicScheme::Dynamic1 => "dynamic1",
        DynamicScheme::Dynamic2 => "dynamic2",
    }
}

/// The fully resolved submission that goes into the journal: every
/// server-side default (shots, seed, scheme, deadline) made explicit, so
/// replay after a restart — possibly under a different configuration —
/// reproduces exactly the job that was admitted.
fn resolved_spec(job: &Job, qasm: &str) -> JobSpec {
    JobSpec {
        id: job.id.clone(),
        shots: Some(job.shots),
        seed: Some(job.seed),
        answer: job.answer.clone(),
        data: job.data.clone(),
        ancilla: job.ancilla.clone(),
        scheme: Some(scheme_name(job.scheme).to_string()),
        deadline_ms: Some(u64::try_from(job.deadline.as_millis()).unwrap_or(u64::MAX)),
        qasm: qasm.to_string(),
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker threads simulating jobs (each runs single-threaded shots).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame_bytes: u32,
    /// Largest circuit accepted, in qubits (statevector cost is 2^n).
    pub max_qubits: usize,
    /// Largest shot count accepted per job.
    pub max_shots: u64,
    /// Shots when a job does not say (`shots` header).
    pub default_shots: u64,
    /// Seed when a job does not say (`seed` header).
    pub default_seed: u64,
    /// Per-job wall-clock budget when a job does not say (`deadline-ms`).
    /// The budget starts at *admission*, so time spent queued counts — a
    /// job that waited out its whole deadline returns an immediate
    /// `deadline` partial rather than occupying a worker.
    pub default_deadline: Duration,
    /// Transform-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Chaos drill: a fault plan consulted at **job** scope (see
    /// [`FaultPlan::job_fault`]). Faulted jobs run under a per-job scoped
    /// hook; unfaulted jobs run bit-identically to a chaos-free server.
    pub chaos: Option<FaultPlan>,
    /// Write-ahead journal path (`--journal`); `None` runs without
    /// durability.
    pub journal: Option<PathBuf>,
    /// When journal appends reach the disk (`--fsync`).
    pub fsync: FsyncPolicy,
    /// Global in-flight statevector memory budget in bytes: admission
    /// sheds work whose `16 * 2^qubits` statevector would push the sum of
    /// queued + running jobs past it, *before* any allocation happens. A
    /// job too large for the whole budget rejects `too-large`; a job that
    /// merely does not fit right now rejects `queue-full` with a retry
    /// hint.
    pub max_inflight_bytes: u64,
    /// How long a busy worker's heartbeat may stand still before the
    /// watchdog intervenes (stage one: cancel; after a second interval,
    /// stage two: retire + respawn). Must exceed the worst single-shot
    /// latency — the heartbeat ticks per shot, not per instruction.
    pub stall_after: Duration,
    /// Watchdog sampling cadence.
    pub watchdog_interval: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            max_frame_bytes: crate::protocol::MAX_FRAME_BYTES,
            max_qubits: 16,
            max_shots: 1 << 20,
            default_shots: 1024,
            default_seed: 7,
            default_deadline: Duration::from_secs(5),
            cache_capacity: 256,
            chaos: None,
            journal: None,
            fsync: FsyncPolicy::Batch,
            max_inflight_bytes: 256 << 20,
            stall_after: Duration::from_secs(2),
            watchdog_interval: Duration::from_millis(100),
        }
    }
}

/// A writer shared between the connection thread (control responses) and
/// the workers (job responses).
type Sink = Arc<Mutex<Box<dyn Write + Send>>>;

/// One accepted job.
struct Job {
    id: String,
    circuit: Circuit,
    answer: Vec<usize>,
    data: Vec<usize>,
    ancilla: Vec<usize>,
    roles: QubitRoles,
    scheme: DynamicScheme,
    shots: u64,
    seed: u64,
    deadline: Duration,
    accepted: Instant,
    token: CancelToken,
    /// The submitting connection and its response writer; `None` for a
    /// journal-replayed job, whose connection died with the old process.
    client: Option<(u64, Sink)>,
    /// Statevector bytes reserved against [`Config::max_inflight_bytes`].
    bytes: u64,
    /// Respond-once guard shared with the watchdog: whoever flips it
    /// first answers the job and settles its accounting.
    answered: AtomicBool,
}

impl Job {
    /// A job for `spec`, with the server defaults (shots, seed, deadline)
    /// filled in where the submission leaves them out.
    fn new(
        spec: &JobSpec,
        circuit: Circuit,
        roles: QubitRoles,
        scheme: DynamicScheme,
        config: &Config,
        client: Option<(u64, Sink)>,
    ) -> Job {
        Job {
            id: spec.id.clone(),
            bytes: statevector_bytes(circuit.num_qubits()),
            circuit,
            answer: spec.answer.clone(),
            data: spec.data.clone(),
            ancilla: spec.ancilla.clone(),
            roles,
            scheme,
            shots: spec.shots.unwrap_or(config.default_shots),
            seed: spec.seed.unwrap_or(config.default_seed),
            deadline: spec
                .deadline_ms
                .map_or(config.default_deadline, Duration::from_millis),
            accepted: Instant::now(),
            token: CancelToken::new(),
            client,
            answered: AtomicBool::new(false),
        }
    }
}

/// Every accepted job that is not yet answered, under one lock: admission
/// checks and inserts in one critical section, and [`finish_job`] removes.
#[derive(Default)]
struct Jobs {
    /// Jobs no worker has picked up yet, in admission order.
    queue: VecDeque<Arc<Job>>,
    /// Queued and running jobs by client id: one id, one run.
    inflight: HashMap<String, Arc<Job>>,
    /// Sum of the in-flight jobs' statevector bytes.
    bytes: u64,
}

impl Jobs {
    /// Queues an accepted job and reserves its statevector bytes.
    fn insert(&mut self, job: Arc<Job>) {
        self.bytes += job.bytes;
        self.inflight.insert(job.id.clone(), Arc::clone(&job));
        self.queue.push_back(job);
    }
}

/// One worker's supervision surface, shared between the worker thread,
/// the executor (heartbeat) and the watchdog.
struct WorkerSlot {
    id: u64,
    /// Ticked at least once per shot by the executor, and at job
    /// pick-up/finish by the worker loop.
    beat: Arc<AtomicU64>,
    /// Set by the watchdog at stage two: the thread (which may be wedged
    /// inside a shot) must exit at its next loop boundary instead of
    /// serving more jobs alongside its replacement.
    retired: AtomicBool,
    /// What the worker is running right now, for the watchdog's
    /// escalation path.
    active: Mutex<Option<Arc<Job>>>,
    /// The worker thread. A retired slot's handle is never joined — the
    /// thread may be wedged forever — and goes when the slot does.
    handle: Mutex<Option<JoinHandle<()>>>,
}

struct State {
    config: Config,
    observer: Observer,
    jobs: Mutex<Jobs>,
    /// Signalled (under `jobs`) when a job is queued or drain begins.
    available: Condvar,
    draining: AtomicBool,
    cache: TransformCache,
    ema_job_us: AtomicU64,
    next_conn: AtomicU64,
    journal: Option<Journal>,
    /// Completion index: client job id → the exact response bytes it was
    /// answered with (recovered from the journal, extended live).
    completions: Mutex<HashMap<String, Vec<u8>>>,
    /// Live worker slots (retired zombies are pruned by the watchdog).
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    next_slot: AtomicU64,
}

impl State {
    /// Accepted jobs not yet answered.
    fn pending(&self) -> u64 {
        self.jobs
            .lock()
            .map_or(0, |jobs| jobs.inflight.len() as u64)
    }
}

/// The running service: a worker pool behind a bounded queue, plus the
/// connection driver ([`Server::serve_connection`]) the transport layer
/// (stdio, or an in-memory test harness) feeds; TCP connections enter
/// through [`Server::serve_tcp`].
pub struct Server {
    state: Arc<State>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Starts the worker pool and returns the ready service.
    ///
    /// # Panics
    ///
    /// Panics when the configured journal cannot be opened — use
    /// [`Server::try_start`] where that is an expected failure mode.
    #[must_use]
    pub fn start(config: Config) -> Arc<Server> {
        match Self::try_start(config) {
            Ok(server) => server,
            Err(message) => panic!("dqctd: {message}"),
        }
    }

    /// Starts the worker pool, recovering the journal first when one is
    /// configured: admitted-but-unanswered jobs re-enter the queue (their
    /// deadline clock restarts — the original admission instant died with
    /// the original process) and completed jobs seed the idempotency
    /// index.
    ///
    /// # Errors
    ///
    /// A human-readable message when the journal cannot be opened or
    /// recovered.
    pub fn try_start(config: Config) -> Result<Arc<Server>, String> {
        let mut recovery = None;
        let journal = match &config.journal {
            Some(path) => {
                let (journal, recovered) = Journal::open(path, config.fsync)
                    .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
                recovery = Some(recovered);
                Some(journal)
            }
            None => None,
        };
        let state = Arc::new(State {
            cache: TransformCache::new(config.cache_capacity),
            config,
            observer: Observer::metrics_only(),
            jobs: Mutex::new(Jobs::default()),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            ema_job_us: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            journal,
            completions: Mutex::new(HashMap::new()),
            slots: Mutex::new(Vec::new()),
            next_slot: AtomicU64::new(0),
        });
        if let Some(recovery) = recovery {
            replay_recovery(&state, recovery);
        }
        for _ in 0..state.config.workers.max(1) {
            spawn_worker(&state);
        }
        let watchdog = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || watchdog_loop(&state))
        };
        Ok(Arc::new(Server {
            state,
            watchdog: Mutex::new(Some(watchdog)),
        }))
    }

    /// Drives one client connection: reads request frames until the peer
    /// closes (or a frame-level error forces a close), dispatching
    /// submissions into the queue. Job responses are written by the
    /// workers through the shared `writer`; this call returns when the
    /// read side is done, which may be before in-flight jobs respond.
    pub fn serve_connection<R: Read>(&self, reader: &mut R, writer: Box<dyn Write + Send>) {
        let conn = self.state.next_conn.fetch_add(1, Ordering::Relaxed);
        let sink: Sink = Arc::new(Mutex::new(writer));
        loop {
            let response = match read_frame(reader, self.state.config.max_frame_bytes) {
                Ok(Some(payload)) => match parse_request(&payload) {
                    Ok(request) => self.dispatch(conn, request, &sink),
                    Err(detail) => Some(Response::Error { id: None, detail }),
                },
                // Clean close: the peer is done submitting.
                Ok(None) => return,
                // An oversized announcement gets a typed answer, then the
                // connection closes (the unread body makes resync
                // impossible). Truncation and transport errors just close.
                Err(FrameError::TooLarge { len, max }) => {
                    let response = Response::Error {
                        id: None,
                        detail: format!("frame of {len} bytes exceeds the {max}-byte limit"),
                    };
                    send(&self.state, &sink, &response.render());
                    return;
                }
                Err(_) => return,
            };
            if let Some(response) = response {
                send(&self.state, &sink, &response.render());
            }
        }
    }

    /// Drives one TCP client connection with the production socket
    /// policy, then [`Server::serve_connection`]: TCP_NODELAY on the
    /// socket, so a response leaves as soon as it is written instead of
    /// waiting for the client to acknowledge an earlier one, and requests
    /// read through a buffer over a clone of the stream, which stays the
    /// response sink.
    pub fn serve_tcp(&self, stream: TcpStream) {
        // A socket that refuses the option still works, only slower.
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        self.serve_connection(&mut BufReader::new(read_half), Box::new(stream));
    }

    /// Handles one parsed request, returning the response the connection
    /// sends now, if any (a job answers later, from its worker).
    fn dispatch(&self, conn: u64, request: Request, sink: &Sink) -> Option<Response> {
        match request {
            Request::Ping => Some(Response::Pong),
            Request::Metrics => Some(Response::Metrics(self.state.observer.metrics().to_json())),
            Request::Drain => {
                self.drain();
                Some(Response::Draining)
            }
            Request::Cancel(id) => {
                let job = self
                    .state
                    .jobs
                    .lock()
                    .ok()
                    .and_then(|jobs| jobs.inflight.get(&id).cloned())
                    .filter(|job| job.client.as_ref().is_some_and(|(c, _)| *c == conn));
                match job {
                    // The job's own response reports "cancelled".
                    Some(job) => {
                        job.token.cancel();
                        None
                    }
                    None => Some(Response::Error {
                        id: Some(id),
                        detail: "no such active job on this connection".to_string(),
                    }),
                }
            }
            Request::Submit(spec) => self.admit(conn, *spec, sink),
        }
    }

    /// Admission control: accepts the job into the queue (returning
    /// `None`) or returns the typed rejection to send.
    fn admit(&self, conn: u64, spec: JobSpec, sink: &Sink) -> Option<Response> {
        let state = &self.state;
        let obs = &state.observer;
        // Idempotent retries: a client job id that already completed is
        // served its recorded response verbatim — byte-identical by
        // construction, no re-run, and available even while draining.
        let recorded = || {
            state
                .completions
                .lock()
                .ok()
                .and_then(|done| done.get(&spec.id).cloned())
        };
        let serve_recorded = |response: Vec<u8>| {
            obs.counter_add("journal.dedup_served", 1);
            send(state, sink, &response);
            None
        };
        if let Some(response) = recorded() {
            return serve_recorded(response);
        }
        let reject = |counter: &str, reason: RejectReason| {
            obs.counter_add(counter, 1);
            if matches!(
                reason,
                RejectReason::QueueFull { .. } | RejectReason::Draining { .. }
            ) {
                obs.counter_add("service.retry_hints", 1);
            }
            Some(Response::Rejected {
                id: spec.id.clone(),
                reason,
            })
        };
        if state.draining.load(Ordering::Relaxed) {
            return reject(
                "service.rejected.draining",
                RejectReason::Draining {
                    retry_after_ms: self.backoff_hint(),
                },
            );
        }
        let circuit = match from_qasm(&spec.qasm) {
            Ok(c) => c,
            Err(e) => {
                return reject(
                    "service.rejected.invalid",
                    RejectReason::Invalid {
                        detail: e.to_string(),
                    },
                )
            }
        };
        if let Err(e) = circuit.validate() {
            return reject(
                "service.rejected.invalid",
                RejectReason::Invalid {
                    detail: e.to_string(),
                },
            );
        }
        if circuit.num_qubits() > state.config.max_qubits {
            return reject(
                "service.rejected.too_large",
                RejectReason::TooLarge {
                    detail: format!(
                        "{} qubits exceeds the {}-qubit limit",
                        circuit.num_qubits(),
                        state.config.max_qubits
                    ),
                },
            );
        }
        let shots = spec.shots.unwrap_or(state.config.default_shots);
        if shots > state.config.max_shots {
            return reject(
                "service.rejected.too_large",
                RejectReason::TooLarge {
                    detail: format!(
                        "{shots} shots exceeds the {}-shot limit",
                        state.config.max_shots
                    ),
                },
            );
        }
        let scheme = match spec
            .scheme
            .as_deref()
            .map_or(Ok(DynamicScheme::Dynamic2), str::parse)
        {
            Ok(scheme) => scheme,
            Err(detail) => {
                return reject("service.rejected.invalid", RejectReason::Invalid { detail })
            }
        };
        let roles = match build_roles(&circuit, &spec.answer, &spec.data, &spec.ancilla) {
            Ok(r) => r,
            Err(detail) => {
                return reject("service.rejected.invalid", RejectReason::Invalid { detail })
            }
        };
        let client = Some((conn, Arc::clone(sink)));
        let job = Job::new(&spec, circuit, roles, scheme, &state.config, client);
        // Memory admission: shed work the statevector budget cannot hold
        // *before* any allocation. The traditional circuit's width bounds
        // the transformed one (reuse only narrows), so this is
        // conservative.
        if job.bytes > state.config.max_inflight_bytes {
            return reject(
                "service.rejected.too_large",
                RejectReason::TooLarge {
                    detail: format!(
                        "a {}-qubit statevector ({} bytes) exceeds the {}-byte memory budget",
                        job.circuit.num_qubits(),
                        job.bytes,
                        state.config.max_inflight_bytes
                    ),
                },
            );
        }
        {
            let Ok(mut jobs) = state.jobs.lock() else {
                return reject(
                    "service.rejected.invalid",
                    RejectReason::Invalid {
                        detail: "service queue unavailable".to_string(),
                    },
                );
            };
            // One id, one run: the checks and the insert below share this
            // critical section, so two connections racing one id cannot
            // both be admitted. `finish_job` records a completion before
            // it leaves the registry, so a twin that missed the early check
            // above while its job finished finds the completion here.
            // Lock order: `completions` may be taken while `jobs` is held,
            // never the reverse.
            if let Some(response) = recorded() {
                drop(jobs);
                return serve_recorded(response);
            }
            if jobs.inflight.contains_key(&job.id) {
                drop(jobs);
                return reject(
                    "service.rejected.invalid",
                    RejectReason::Invalid {
                        detail: format!("job id '{}' is already in flight", job.id),
                    },
                );
            }
            if jobs.queue.len() >= state.config.queue_capacity {
                drop(jobs);
                return reject(
                    "service.rejected.queue_full",
                    RejectReason::QueueFull {
                        retry_after_ms: self.backoff_hint(),
                    },
                );
            }
            if jobs.bytes + job.bytes > state.config.max_inflight_bytes {
                drop(jobs);
                obs.counter_add("service.rejected.memory", 1);
                return reject(
                    "service.rejected.queue_full",
                    RejectReason::QueueFull {
                        retry_after_ms: self.backoff_hint(),
                    },
                );
            }
            // Journal the admission *after* every shedding decision and
            // *before* the push: a crash between the two forgets a job no
            // client was promised, and replay never resurrects a job that
            // was actually rejected.
            if let Some(journal) = &state.journal {
                if let Err(e) = journal.append_admitted(&resolved_spec(&job, &spec.qasm)) {
                    drop(jobs);
                    obs.counter_add("journal.append_failed", 1);
                    return reject(
                        "service.rejected.invalid",
                        RejectReason::Invalid {
                            detail: format!("cannot make the job durable: {e}"),
                        },
                    );
                }
                obs.counter_add("journal.records_written", 1);
            }
            jobs.insert(Arc::new(job));
            obs.gauge_set("service.inflight_bytes", jobs.bytes as f64);
            obs.gauge_set("service.queue_depth", jobs.queue.len() as f64);
        }
        obs.counter_add("service.accepted", 1);
        self.state.available.notify_one();
        None
    }

    /// The `retry_after_ms` hint: how long until a queue slot should free
    /// up, from the job-latency EMA and the configured parallelism.
    ///
    /// Before the first completion the EMA has no samples; rather than
    /// emit a garbage hint, it is seeded from [`COLD_START_JOB_US`] (a
    /// conservative "typical job" guess), and every hint — cold or warm —
    /// is clamped into `[`[`MIN_RETRY_HINT_MS`]`, `[`MAX_RETRY_HINT_MS`]`]`
    /// so a pathological EMA can never tell clients to hammer the server
    /// or to go away for minutes.
    fn backoff_hint(&self) -> u64 {
        let ema_us = self.state.ema_job_us.load(Ordering::Relaxed);
        let effective_us = if ema_us == 0 {
            COLD_START_JOB_US
        } else {
            ema_us
        };
        let per_slot_ms = effective_us / 1000 / self.state.config.workers.max(1) as u64;
        per_slot_ms.clamp(MIN_RETRY_HINT_MS, MAX_RETRY_HINT_MS)
    }

    /// Stops admission; already-accepted work keeps running. Idempotent.
    pub fn drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        // Passing through the lock orders the wake-up after any worker
        // that saw the flag unset has gone to sleep on the condvar.
        drop(self.state.jobs.lock());
        self.state.available.notify_all();
    }

    /// `true` once [`Server::drain`] was called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// Drains and blocks until every accepted job has been answered and
    /// every worker has exited.
    ///
    /// Waits for the in-flight registry to empty first, then joins the
    /// workers: a worker wedged inside a shot is escalated by the watchdog
    /// (its job answered, its slot retired), so the registry always
    /// empties and join never hangs on a zombie thread.
    pub fn join(&self) {
        self.drain();
        while self.pending() > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let slots = match self.state.slots.lock() {
            Ok(slots) => slots.clone(),
            Err(_) => return,
        };
        for slot in slots {
            let handle = slot.handle.lock().ok().and_then(|mut h| h.take());
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
        let watchdog = self.watchdog.lock().ok().and_then(|mut w| w.take());
        if let Some(watchdog) = watchdog {
            let _ = watchdog.join();
        }
        if let Some(journal) = &self.state.journal {
            let _ = journal.sync();
        }
    }

    /// Accepted jobs not yet answered.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.state.pending()
    }

    /// The service metrics registry as JSON.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.state.observer.metrics().to_json()
    }
}

/// Builds the role partition with the CLI's defaulting rule (unlisted
/// qubits are data) and validates it against the circuit.
fn build_roles(
    circuit: &Circuit,
    answer: &[usize],
    data: &[usize],
    ancilla: &[usize],
) -> Result<QubitRoles, String> {
    if answer.is_empty() {
        return Err("at least one answer qubit is required (answer header)".to_string());
    }
    for &i in answer.iter().chain(data).chain(ancilla) {
        if i >= circuit.num_qubits() {
            return Err(format!(
                "qubit index {i} out of range for a {}-qubit circuit",
                circuit.num_qubits()
            ));
        }
    }
    let data: Vec<Qubit> = if data.is_empty() {
        (0..circuit.num_qubits())
            .filter(|i| !answer.contains(i) && !ancilla.contains(i))
            .map(Qubit::new)
            .collect()
    } else {
        data.iter().map(|&i| Qubit::new(i)).collect()
    };
    let roles = QubitRoles::new(
        data,
        ancilla.iter().map(|&i| Qubit::new(i)).collect(),
        answer.iter().map(|&i| Qubit::new(i)).collect(),
    );
    roles.validate(circuit).map_err(|e| e.to_string())?;
    Ok(roles)
}

/// Writes one response frame to a connection, counting (never
/// propagating) write failures: a mid-job disconnect must not take a
/// worker down, and the accepted-work accounting stays truthful either
/// way.
fn send(state: &State, sink: &Sink, payload: &[u8]) {
    let written = sink
        .lock()
        .is_ok_and(|mut writer| write_frame(&mut *writer, payload).is_ok());
    if !written {
        state.observer.counter_add("service.disconnects", 1);
    }
}

/// Spawns one supervised worker: a fresh slot (heartbeat, active job and
/// thread handle), registered in the state's slot table.
fn spawn_worker(state: &Arc<State>) {
    let slot = Arc::new(WorkerSlot {
        id: state.next_slot.fetch_add(1, Ordering::Relaxed),
        beat: Arc::new(AtomicU64::new(0)),
        retired: AtomicBool::new(false),
        active: Mutex::new(None),
        handle: Mutex::new(None),
    });
    let thread_state = Arc::clone(state);
    let thread_slot = Arc::clone(&slot);
    let handle = std::thread::spawn(move || worker_loop(&thread_state, &thread_slot));
    if let Ok(mut slot_handle) = slot.handle.lock() {
        *slot_handle = Some(handle);
    }
    if let Ok(mut slots) = state.slots.lock() {
        slots.push(slot);
    }
}

/// Loads a journal recovery into the live state: completed `result`
/// responses seed the idempotency index; admitted-but-unanswered jobs
/// re-enter the queue with no client (theirs died with the old process —
/// the journal's completion record is their response channel, served on
/// retry) and fresh deadline clocks.
fn replay_recovery(state: &State, recovery: crate::journal::Recovery) {
    let obs = &state.observer;
    obs.counter_add("journal.truncated_bytes", recovery.truncated_bytes);
    if let Ok(mut done) = state.completions.lock() {
        for (id, bytes) in recovery.completed {
            // Only settled results are worth serving to retries; journaled
            // error completions exist to stop replay, not to be replayed.
            if bytes.starts_with(b"{\"type\":\"result\"") {
                done.insert(id, bytes);
            }
        }
    }
    let mut replayed = 0u64;
    for spec in recovery.incomplete {
        match recovered_job(&state.config, &spec) {
            Ok(job) => {
                // A journal that admitted one id twice still runs it once.
                if let Ok(mut jobs) = state.jobs.lock() {
                    if !jobs.inflight.contains_key(&job.id) {
                        jobs.insert(Arc::new(job));
                        replayed += 1;
                    }
                }
            }
            Err(detail) => {
                // A journaled admission that no longer materializes (say,
                // a journal written by a different build): settle it with
                // an error completion so the *next* restart does not chew
                // on it again.
                obs.counter_add("journal.replay_failed", 1);
                let response = Response::Error {
                    id: Some(spec.id.clone()),
                    detail: format!("recovery replay failed: {detail}"),
                };
                if let Some(journal) = &state.journal {
                    let _ = journal.append_completed(&spec.id, &response.render());
                }
            }
        }
    }
    obs.counter_add("journal.replayed", replayed);
}

/// Rebuilds a runnable [`Job`] from a journaled (resolved) submission.
/// The QASM, scheme and roles are parsed and validated again; the
/// admission limits are not, so the job that was admitted is the job
/// that runs.
fn recovered_job(config: &Config, spec: &JobSpec) -> Result<Job, String> {
    let circuit = from_qasm(&spec.qasm).map_err(|e| e.to_string())?;
    circuit.validate().map_err(|e| e.to_string())?;
    let scheme = spec
        .scheme
        .as_deref()
        .map_or(Ok(DynamicScheme::Dynamic2), str::parse)?;
    let roles = build_roles(&circuit, &spec.answer, &spec.data, &spec.ancilla)?;
    Ok(Job::new(spec, circuit, roles, scheme, config, None))
}

/// Settles one job exactly once: sends the response (to the submitting
/// connection, if the job has one), seeds the idempotency index, journals
/// the completion, and takes the job out of the in-flight registry.
/// Returns `false` when the other contender — worker vs watchdog — got
/// there first.
fn finish_job(state: &State, job: &Job, response: &Response) -> bool {
    if job.answered.swap(true, Ordering::SeqCst) {
        return false;
    }
    let obs = &state.observer;
    let payload = response.render();
    if let Some((_, sink)) = &job.client {
        send(state, sink, &payload);
    }
    if matches!(response, Response::Result(_)) {
        if let Ok(mut done) = state.completions.lock() {
            done.insert(job.id.clone(), payload.clone());
        }
    }
    if let Some(journal) = &state.journal {
        if journal.append_completed(&job.id, &payload).is_ok() {
            obs.counter_add("journal.records_written", 1);
        } else {
            obs.counter_add("journal.append_failed", 1);
        }
    }
    if let Ok(mut jobs) = state.jobs.lock() {
        if let Some(done) = jobs.inflight.remove(&job.id) {
            jobs.bytes -= done.bytes;
        }
        obs.gauge_set("service.inflight_bytes", jobs.bytes as f64);
    }
    true
}

/// One worker: pop, run, answer — until drain empties the queue or the
/// watchdog retires the slot.
fn worker_loop(state: &Arc<State>, slot: &WorkerSlot) {
    loop {
        if slot.retired.load(Ordering::SeqCst) {
            return;
        }
        let job = {
            let Ok(mut jobs) = state.jobs.lock() else {
                return;
            };
            loop {
                if let Some(job) = jobs.queue.pop_front() {
                    state
                        .observer
                        .gauge_set("service.queue_depth", jobs.queue.len() as f64);
                    break Some(job);
                }
                if state.draining.load(Ordering::SeqCst) {
                    break None;
                }
                match state.available.wait(jobs) {
                    Ok(guard) => jobs = guard,
                    Err(_) => return,
                }
            }
        };
        let Some(job) = job else { return };
        slot.beat.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut active) = slot.active.lock() {
            *active = Some(Arc::clone(&job));
        }
        let queue_wait = job.accepted.elapsed();
        let started = Instant::now();
        let response = run_job(state, &job, queue_wait, &slot.beat);
        let settled = finish_job(state, &job, &response);
        if let Ok(mut active) = slot.active.lock() {
            *active = None;
        }
        slot.beat.fetch_add(1, Ordering::Relaxed);
        if settled {
            let elapsed = started.elapsed();
            let obs = &state.observer;
            obs.metrics().observe_duration("service.job_ns", elapsed);
            obs.metrics()
                .observe_duration("service.queue_wait_ns", queue_wait);
            // EMA with alpha 1/4, in integer microseconds: cheap,
            // lock-free, plenty for a backoff hint. Watchdog-settled jobs
            // are excluded — a wedged job's latency is not a queue signal.
            let sample_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
            let previous = state.ema_job_us.load(Ordering::Relaxed);
            let next = if previous == 0 {
                sample_us
            } else {
                previous - previous / 4 + sample_us / 4
            };
            state.ema_job_us.store(next, Ordering::Relaxed);
        }
    }
}

/// Per-slot watchdog bookkeeping.
struct Watch {
    last_beat: u64,
    changed_at: Instant,
    stage: Stage,
}

/// Where a stalled slot is in the escalation ladder.
enum Stage {
    /// Heartbeat moving (or not yet stalled for a full interval).
    Healthy,
    /// Stage one fired: the job's cancel token is set; waiting one more
    /// interval for the worker to honour it.
    Cancelled,
}

/// The supervisor: samples worker heartbeats every
/// [`Config::watchdog_interval`] and escalates a stall in two stages —
/// cancel the job cooperatively, then retire the worker, answer the job
/// with a typed error, and respawn. Exits once the server is draining
/// with nothing pending.
fn watchdog_loop(state: &Arc<State>) {
    let mut watches: HashMap<u64, Watch> = HashMap::new();
    loop {
        if state.draining.load(Ordering::SeqCst) && state.pending() == 0 {
            return;
        }
        std::thread::sleep(state.config.watchdog_interval);
        let slots: Vec<Arc<WorkerSlot>> = match state.slots.lock() {
            Ok(slots) => slots.clone(),
            Err(_) => return,
        };
        watches.retain(|id, _| slots.iter().any(|s| s.id == *id));
        for slot in slots {
            let active = match slot.active.lock() {
                Ok(active) => active.clone(),
                Err(_) => continue,
            };
            let Some(job) = active else {
                watches.remove(&slot.id);
                continue;
            };
            let beat = slot.beat.load(Ordering::Relaxed);
            let watch = watches.entry(slot.id).or_insert_with(|| Watch {
                last_beat: beat,
                changed_at: Instant::now(),
                stage: Stage::Healthy,
            });
            if beat != watch.last_beat {
                watch.last_beat = beat;
                watch.changed_at = Instant::now();
                watch.stage = Stage::Healthy;
                continue;
            }
            if watch.changed_at.elapsed() < state.config.stall_after {
                continue;
            }
            match watch.stage {
                Stage::Healthy => {
                    // Stage one: cooperative. A live-but-slow worker honours
                    // this between shots and answers `cancelled` itself.
                    job.token.cancel();
                    state.observer.counter_add("supervisor.stuck_cancelled", 1);
                    watch.stage = Stage::Cancelled;
                    watch.changed_at = Instant::now();
                }
                Stage::Cancelled => {
                    // Stage two: the heartbeat ignored cancellation for a
                    // whole further interval — the worker is wedged inside
                    // a shot. Retire it (it must not serve jobs alongside
                    // its replacement if it ever wakes), answer its job
                    // with a typed supervisor error, drop its slot — and
                    // with it the handle, since joining a wedged thread
                    // would hang the drain — and respawn a fresh worker.
                    slot.retired.store(true, Ordering::SeqCst);
                    let response = Response::Error {
                        id: Some(job.id.clone()),
                        detail: format!(
                            "supervisor: worker stalled beyond {:?} and was replaced; \
                             job abandoned after {} shots requested",
                            state.config.stall_after, job.shots
                        ),
                    };
                    finish_job(state, &job, &response);
                    if let Ok(mut slots) = state.slots.lock() {
                        slots.retain(|s| s.id != slot.id);
                    }
                    state.observer.counter_add("supervisor.respawns", 1);
                    watches.remove(&slot.id);
                    spawn_worker(state);
                }
            }
        }
    }
}

/// Transforms (through the cache) and simulates one job.
fn run_job(state: &Arc<State>, job: &Job, queue_wait: Duration, beat: &Arc<AtomicU64>) -> Response {
    let obs = &state.observer;
    let queue_ms = queue_wait.as_secs_f64() * 1e3;
    if job.token.is_cancelled() {
        obs.counter_add("service.cancelled", 1);
        return Response::Result(Box::new(JobOutcome {
            id: job.id.clone(),
            termination: Termination::Cancelled.to_string(),
            requested: job.shots,
            completed: 0,
            failed: 0,
            discarded: 0,
            counts: Vec::new(),
            cache_hit: false,
            queue_ms,
            run_ms: 0.0,
            tvd: 0.0,
        }));
    }
    let started = Instant::now();

    // Transform, through the content-hash cache. A lookup that coalesces
    // onto another worker's transform blocks without ticking the
    // heartbeat, so a wedged leader gets its waiters escalated too.
    let key = cache_key(
        &job.circuit,
        &job.answer,
        &job.data,
        &job.ancilla,
        job.scheme,
    );
    let (transform, cache_hit) = match state.cache.lookup(key) {
        Lookup::Hit(hit) => {
            obs.counter_add("service.cache.hit", 1);
            (hit, true)
        }
        // An identical job on another worker transformed while this one
        // waited: no transform ran here, so the wire says "hit".
        Lookup::Coalesced(shared) => {
            obs.counter_add("service.cache.coalesced", 1);
            (shared, true)
        }
        Lookup::Miss(claim) => {
            obs.counter_add("service.cache.miss", 1);
            let result: Result<_, DqcError> = Pipeline::new()
                .scheme(job.scheme)
                .run(&job.circuit, &job.roles);
            match result {
                Ok(result) => {
                    let entry = Arc::new(CachedTransform {
                        circuit: result.dynamic.circuit().clone(),
                        tvd: result
                            .report
                            .unwrap_or_else(|| unreachable!("the default pipeline verifies"))
                            .tvd,
                    });
                    claim.fill(Arc::clone(&entry));
                    (entry, false)
                }
                // The claim drops unfilled: waiters transform for
                // themselves, and the error is not cached.
                Err(e) => {
                    obs.counter_add("service.errors", 1);
                    return Response::Error {
                        id: Some(job.id.clone()),
                        detail: format!("transform failed: {e}"),
                    };
                }
            }
        }
    };

    // Chaos scoping: a job-faulted job runs under a scoped per-shot hook;
    // everything else runs with no hook at all (bit-identical to a
    // chaos-free server).
    let mut executor = Executor::new()
        .shots(job.shots)
        .seed(job.seed)
        .threads(1)
        .deadline(job.deadline.saturating_sub(job.accepted.elapsed()))
        .cancel_token(job.token.clone())
        .heartbeat(Arc::clone(beat));
    if let Some(plan) = &state.config.chaos {
        let scope = job_scope_key(&job.id);
        let fault = plan.job_fault(scope);
        if fault.is_faulted() {
            obs.counter_add("service.chaos.faulted_jobs", 1);
            // The per-shot hook expresses exactly the job-level decision:
            // the two shot sites are cleared and the drawn faults
            // re-raised to certainty, so a panic-faulted job fails every
            // shot and a delay-only job stays bit-identical, just slow.
            let mut scoped = plan
                .scoped(scope)
                .with_rate(FaultSite::ShotPanic, 0.0)
                .with_rate(FaultSite::ShotDelay, 0.0);
            if fault.panic {
                scoped = scoped.with_rate(FaultSite::ShotPanic, 1.0);
            }
            if let Some(delay) = fault.delay {
                scoped = scoped
                    .with_rate(FaultSite::ShotDelay, 1.0)
                    .with_delay(delay);
            }
            executor = executor.fault_hook(Arc::new(scoped));
        }
    }

    let (counts, report) = executor.run_resilient(transform.circuit());
    match report.termination {
        Termination::Cancelled => obs.counter_add("service.cancelled", 1),
        Termination::Deadline => obs.counter_add("service.deadline", 1),
        _ => {}
    }
    obs.counter_add("service.completed", 1);
    Response::Result(Box::new(JobOutcome {
        id: job.id.clone(),
        termination: report.termination.to_string(),
        requested: report.requested,
        completed: report.completed,
        failed: report.failed,
        discarded: report.discarded,
        counts: counts
            .iter()
            .map(|(bits, n)| (bits.to_string(), n))
            .collect(),
        cache_hit,
        queue_ms,
        run_ms: started.elapsed().as_secs_f64() * 1e3,
        tvd: transform.tvd,
    }))
}

impl CachedTransform {
    /// The cached dynamic circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }
}
