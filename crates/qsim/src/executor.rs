//! Shot-based circuit execution with classical feedback.
//!
//! This is the AER-simulator stand-in: it runs a (possibly dynamic) circuit
//! shot by shot on a statevector, sampling mid-circuit measurements,
//! applying active resets, honouring classically controlled gates, and
//! optionally inserting noise as quantum trajectories.
//!
//! # Determinism contract
//!
//! Shot `i` of a seeded run executes on its own RNG, seeded with
//! [`rand::stream_seed`]`(seed, i)` — a counter-based derivation, not a
//! shared sequential stream. A shot's outcome therefore depends only on
//! `(seed, shot_index, circuit)`: it never shifts because another shot, a
//! noise trajectory, or a reordered draw consumed randomness elsewhere.
//! Consequences, all covered by tests:
//!
//! * results are **bit-identical for every thread count** (see
//!   [`Executor::threads`]) — shots are embarrassingly parallel;
//! * an `n`-shot run is a **prefix** of an `m > n`-shot run at the same
//!   seed (in [`Executor::run_memory`] order);
//! * enabling a noise channel perturbs only the shots in which it draws,
//!   never the seeding of later shots.

use crate::counts::{bitstring, Counts};
use crate::fault::{CcFault, FaultHook, FaultSite, GateFate, FAULT_CAUGHT_PANIC};
use crate::noise::{GateNoise, NoiseModel};
use crate::prefix::{PrefixTree, Walk};
use crate::statevector::StateVector;
use qcir::{Circuit, OpKind};
use qobs::trace::{LocalTrace, TraceEvent, Tracer};
use qobs::{FieldValue, Histogram, Observer};
use rand::rngs::StdRng;
use rand::{stream_seed, Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A configurable shot-based simulator.
///
/// # Examples
///
/// Running a 1024-shot experiment, as the paper does:
///
/// ```
/// use qcir::{Circuit, Qubit, Clbit};
/// use qsim::Executor;
///
/// let mut bell = Circuit::new(2, 2);
/// bell.h(Qubit::new(0)).cx(Qubit::new(0), Qubit::new(1)).measure_all();
/// let counts = Executor::new().shots(1024).seed(7).run(&bell);
/// assert_eq!(counts.total(), 1024);
/// assert_eq!(counts.get("01") + counts.get("10"), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    shots: u64,
    seed: Option<u64>,
    threads: Option<usize>,
    noise: NoiseModel,
    observer: Observer,
    tracer: Tracer,
    drift: Option<DriftPolicy>,
    drift_tolerance: f64,
    deadline: Option<Duration>,
    max_failed: Option<u64>,
    cancel: Option<CancelToken>,
    heartbeat: Option<Arc<AtomicU64>>,
    fault: Option<Arc<dyn FaultHook>>,
    engine: Engine,
}

/// How the executor runs its shots — see [`Executor::engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The classic per-shot loop: every shot re-evolves the statevector.
    Shots,
    /// The prefix-sharing branch-tree engine (see [`crate::prefix`]):
    /// evolve once up to each stochastic branch point, then let each shot
    /// walk the branch tree on its own RNG stream. Falls back to
    /// [`Engine::Shots`] whenever semantics require the per-shot loop
    /// (tracer, fault hook, gate/idle noise, a drift policy or failed-shot
    /// budget, or a tree that fails to build). Deadlines and cancel tokens
    /// stay eligible: the tree build and shot walk poll them cooperatively.
    Prefix,
    /// Pick [`Engine::Prefix`] whenever it is applicable, else
    /// [`Engine::Shots`]. Because the two are bit-identical at a fixed
    /// seed, the choice is an implementation detail; this is the default.
    #[default]
    Auto,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Shots => write!(f, "shots"),
            Engine::Prefix => write!(f, "prefix"),
            Engine::Auto => write!(f, "auto"),
        }
    }
}

impl Engine {
    /// Parses the CLI spelling (`shots` / `prefix` / `auto`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "shots" => Some(Engine::Shots),
            "prefix" => Some(Engine::Prefix),
            "auto" => Some(Engine::Auto),
            _ => None,
        }
    }
}

/// What [`Executor::run_resilient`] does when a shot's statevector norm
/// drifts from 1 beyond the configured tolerance (including to NaN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftPolicy {
    /// Rescale the state back to unit norm and continue the shot. Falls back
    /// to discarding when the norm is NaN, infinite or (near) zero, where no
    /// rescale can recover a meaningful state.
    Renormalize,
    /// Drop the shot (counted in [`RunReport::discarded`]) and move on.
    DiscardShot,
    /// Terminate the whole run, returning the counts gathered so far with
    /// [`Termination::Aborted`].
    Abort,
}

/// Why a [`Executor::run_resilient`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Every requested shot was attempted.
    Completed,
    /// The [`Executor::deadline`] elapsed with shots still pending.
    Deadline,
    /// Failed shots exceeded the [`Executor::max_failed`] budget.
    FailedShotBudget,
    /// A shot tripped [`DriftPolicy::Abort`].
    Aborted,
    /// The [`Executor::cancel_token`] was cancelled with shots pending.
    Cancelled,
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Termination::Completed => write!(f, "completed"),
            Termination::Deadline => write!(f, "deadline"),
            Termination::FailedShotBudget => write!(f, "failed-shot-budget"),
            Termination::Aborted => write!(f, "aborted"),
            Termination::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A cooperative cancellation handle for [`Executor::run_resilient`].
///
/// Clones share one flag: hand a clone to the executor via
/// [`Executor::cancel_token`], keep the other, and call
/// [`CancelToken::cancel`] from any thread to stop the run between shots
/// with [`Termination::Cancelled`] and the partial counts gathered so far.
/// Cancellation is level-triggered and sticky — a token cancelled before
/// the run starts stops it before the first shot.
///
/// # Examples
///
/// ```
/// use qsim::CancelToken;
///
/// let token = CancelToken::new();
/// let handle = token.clone();
/// assert!(!token.is_cancelled());
/// handle.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once any clone has called [`CancelToken::cancel`].
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Outcome accounting for one [`Executor::run_resilient`] call.
///
/// The invariant `completed + failed + discarded <= requested` always holds;
/// the difference is the shots never attempted because the run terminated
/// early (`termination != Completed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Shots the executor was asked for.
    pub requested: u64,
    /// Shots that ran to the end and were recorded in the counts.
    pub completed: u64,
    /// Shots that panicked and were isolated (nothing recorded).
    pub failed: u64,
    /// Shots dropped by the drift guard (nothing recorded).
    pub discarded: u64,
    /// Why the run stopped.
    pub termination: Termination,
}

impl fmt::Display for RunReport {
    /// One stable line, e.g.
    /// `completed 1024/1024 shots (0 failed, 0 discarded): completed` —
    /// the same rendering the trace's `executor.run_end` instant carries.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "completed {}/{} shots ({} failed, {} discarded): {}",
            self.completed, self.requested, self.failed, self.discarded, self.termination
        )
    }
}

/// Drift-guard configuration resolved once per resilient run.
#[derive(Debug, Clone, Copy)]
struct DriftGuard {
    policy: DriftPolicy,
    tolerance: f64,
}

/// Control-flow outcome of one guarded shot.
enum ShotControl {
    Done(Vec<bool>, StateVector),
    Discarded,
    Abort,
}

/// What the drift guard decided after one instruction.
enum DriftAction {
    Continue,
    Discard,
    Abort,
}

const TERMINATION_COMPLETED: u8 = 0;
const TERMINATION_DEADLINE: u8 = 1;
const TERMINATION_FAILED_BUDGET: u8 = 2;
const TERMINATION_ABORTED: u8 = 3;
const TERMINATION_CANCELLED: u8 = 4;

/// Shared early-termination state for one resilient run: a stop flag the
/// workers poll between shots, the cross-worker failed-shot counter, and
/// the first termination reason recorded.
struct RunBudget {
    start: Instant,
    deadline: Option<Duration>,
    max_failed: Option<u64>,
    stop: AtomicBool,
    failed: AtomicU64,
    termination: AtomicU8,
}

impl RunBudget {
    /// Requests termination with `reason`; the first caller wins, later
    /// reasons are dropped.
    fn terminate(&self, reason: u8) {
        let _ = self.termination.compare_exchange(
            TERMINATION_COMPLETED,
            reason,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Counts one failed shot; `true`, with the termination recorded, once
    /// more than `max_failed` shots have failed.
    fn fail_shot(&self) -> bool {
        let failed = self.failed.fetch_add(1, Ordering::Relaxed) + 1;
        let exhausted = self.max_failed.is_some_and(|max| failed > max);
        if exhausted {
            self.terminate(TERMINATION_FAILED_BUDGET);
        }
        exhausted
    }

    fn termination(&self) -> Termination {
        match self.termination.load(Ordering::Relaxed) {
            TERMINATION_DEADLINE => Termination::Deadline,
            TERMINATION_FAILED_BUDGET => Termination::FailedShotBudget,
            TERMINATION_ABORTED => Termination::Aborted,
            TERMINATION_CANCELLED => Termination::Cancelled,
            _ => Termination::Completed,
        }
    }
}

/// Everything a worker reads, and never writes, during one run.
struct RunPlan<'a> {
    circuit: &'a Circuit,
    /// The branch tree, when the run is prefix-eligible.
    tree: Option<&'a PrefixTree>,
    base: u64,
    /// Mid-circuit-measurement flags, present exactly when observed.
    mid: Option<Vec<bool>>,
    /// Present exactly for [`Executor::run_resilient`].
    budget: Option<&'a RunBudget>,
    guard: Option<DriftGuard>,
}

/// One worker's share of a run, merged in shot order by the driver.
#[derive(Default)]
struct Chunk {
    completed: u64,
    failed: u64,
    discarded: u64,
    renormalized: u64,
    /// Tree walks that reached a pruned branch and were evolved instead.
    replayed: u64,
    /// The chunk's counter tally, present exactly when observed.
    tally: Option<RunTally>,
    events: Vec<TraceEvent>,
}

/// Applies the drift guard (if any) to the state after one instruction.
fn check_drift(
    guard: Option<&DriftGuard>,
    state: &mut StateVector,
    renorms: &mut u64,
) -> DriftAction {
    let Some(g) = guard else {
        return DriftAction::Continue;
    };
    let deviation = (state.norm_sqr() - 1.0).abs();
    // Written so a NaN deviation falls through to the policy.
    if deviation <= g.tolerance {
        return DriftAction::Continue;
    }
    match g.policy {
        DriftPolicy::Renormalize => {
            if state.renormalize() {
                *renorms += 1;
                DriftAction::Continue
            } else {
                // NaN / collapsed norm: nothing left to rescale.
                DriftAction::Discard
            }
        }
        DriftPolicy::DiscardShot => DriftAction::Discard,
        DriftPolicy::Abort => DriftAction::Abort,
    }
}

/// Per-run accumulation of executor counters.
///
/// The per-gate hot path only touches this plain struct (and only when the
/// observer is enabled); it is flushed into the observer's shared
/// [`qobs::MetricsRegistry`] **once** per run, whatever the entry point,
/// so the registry lock is never taken per gate or per shot.
#[derive(Debug, Default, Clone)]
pub(crate) struct RunTally {
    pub(crate) gates: BTreeMap<&'static str, u64>,
    pub(crate) resets: u64,
    pub(crate) measurements: u64,
    pub(crate) mid_measurements: u64,
    pub(crate) cc_fired: u64,
    pub(crate) cc_skipped: u64,
    pub(crate) noise_applications: u64,
    /// Fault-injection counters, keyed by full counter name
    /// (`fault.injected.<site>`, `fault.caught.panic`).
    pub(crate) faults: BTreeMap<&'static str, u64>,
    /// Per-gate-kind apply-duration histograms (ns on the tracer's clock),
    /// populated only when tracing and observing are both enabled; flushed
    /// as `executor.apply.<kind>_ns`.
    pub(crate) apply_ns: BTreeMap<&'static str, Histogram>,
}

impl RunTally {
    /// Adds `other`'s counters into `self`. Worker-local tallies are merged
    /// with this in shot order before the single registry flush; every field
    /// is a sum, so the merge is exact regardless of the partitioning.
    fn absorb(&mut self, other: RunTally) {
        for (name, n) in other.gates {
            *self.gates.entry(name).or_insert(0) += n;
        }
        self.resets += other.resets;
        self.measurements += other.measurements;
        self.mid_measurements += other.mid_measurements;
        self.cc_fired += other.cc_fired;
        self.cc_skipped += other.cc_skipped;
        self.noise_applications += other.noise_applications;
        for (name, n) in other.faults {
            *self.faults.entry(name).or_insert(0) += n;
        }
        for (name, h) in other.apply_ns {
            self.apply_ns.entry(name).or_default().merge(&h);
        }
    }

    /// Adds `times` copies of `other`'s counters into `self` — how the
    /// prefix engine folds a branch-tree leaf's per-shot tally delta in for
    /// every shot that landed on the leaf. Exact integer arithmetic, so the
    /// result equals `times` sequential [`RunTally::absorb`] calls.
    /// Histograms are deliberately not scaled: leaf tallies never carry
    /// them (apply timing requires a tracer, which forces the per-shot
    /// path).
    pub(crate) fn absorb_scaled(&mut self, other: &RunTally, times: u64) {
        for (name, n) in &other.gates {
            *self.gates.entry(name).or_insert(0) += n * times;
        }
        self.resets += other.resets * times;
        self.measurements += other.measurements * times;
        self.mid_measurements += other.mid_measurements * times;
        self.cc_fired += other.cc_fired * times;
        self.cc_skipped += other.cc_skipped * times;
        self.noise_applications += other.noise_applications * times;
        for (name, n) in &other.faults {
            *self.faults.entry(name).or_insert(0) += n * times;
        }
    }

    /// Records one injected fault at `site`.
    fn fault(&mut self, site: FaultSite) {
        *self.faults.entry(site.counter()).or_insert(0) += 1;
    }
}

/// Tally plus the per-instruction "is a mid-circuit measurement" flags
/// (precomputed once per run, not per shot).
struct TallyCtx<'a> {
    tally: &'a mut RunTally,
    mid_measure: &'a [bool],
}

/// `flags[i]` is `true` when instruction `i` is a measurement whose qubit
/// is used again by a later gate, measurement or reset — the defining
/// property of a mid-circuit measurement. A single backward pass over the
/// circuit (O(n), not a per-measurement forward rescan), tracking whether
/// each qubit has a later *operational* use; barriers are scheduling
/// directives, not operations, so a trailing barrier does not turn a final
/// readout into a mid-circuit one.
pub(crate) fn mid_measure_flags(circuit: &Circuit) -> Vec<bool> {
    let insts = circuit.instructions();
    let mut flags = vec![false; insts.len()];
    let mut used_later = vec![false; circuit.num_qubits()];
    for (i, inst) in insts.iter().enumerate().rev() {
        if matches!(inst.kind(), OpKind::Barrier) {
            continue;
        }
        if matches!(inst.kind(), OpKind::Measure) {
            flags[i] = used_later[inst.qubits()[0].index()];
        }
        for q in inst.qubits() {
            used_later[q.index()] = true;
        }
    }
    flags
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// An executor with 1024 shots (the paper's setting), no fixed seed and
    /// no noise.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shots: 1024,
            seed: None,
            threads: None,
            noise: NoiseModel::ideal(),
            observer: Observer::disabled(),
            tracer: Tracer::disabled(),
            drift: None,
            drift_tolerance: 1e-6,
            deadline: None,
            max_failed: None,
            cancel: None,
            heartbeat: None,
            fault: None,
            engine: Engine::Auto,
        }
    }

    /// Selects the shot engine (default [`Engine::Auto`]).
    ///
    /// The engines are bit-identical at a fixed seed — same [`Counts`],
    /// same [`Executor::run_memory`] rows, same observer counters — so this
    /// is a performance knob, not a semantics knob. [`Engine::Prefix`] is a
    /// *request*: runs whose semantics need the per-shot loop (a tracer, a
    /// fault hook, gate or idle noise channels, a drift policy or
    /// failed-shot budget, or a branch tree that exceeds its node budget)
    /// silently fall back to [`Engine::Shots`];
    /// use [`Executor::resolve_engine`] to see what a run will actually
    /// use.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The engine every entry point ([`Executor::run`],
    /// [`Executor::run_memory`], [`Executor::run_resilient`]) would use on
    /// `circuit` under the current configuration: never [`Engine::Auto`],
    /// always the resolved [`Engine::Prefix`] or [`Engine::Shots`].
    #[must_use]
    pub fn resolve_engine(&self, circuit: &Circuit) -> Engine {
        match self.prefix_tree(circuit, || false) {
            Some(_) => Engine::Prefix,
            None => Engine::Shots,
        }
    }

    /// Builds the branch tree when the configuration and circuit are
    /// prefix-eligible; `None` means "use the per-shot loop". `poll` is
    /// threaded into the build (see [`PrefixTree::build_polled`]) so a
    /// cancelled or deadline-expired resilient run stops paying for tree
    /// construction at branch-node granularity.
    ///
    /// Eligibility, equivalently the fallback matrix, is one rule for every
    /// entry point:
    ///
    /// * the engine must not be pinned to [`Engine::Shots`];
    /// * no tracer — per-shot `shot` / `measure` / `reset` / `condition`
    ///   spans are the product, so the per-shot loop *is* the semantics;
    /// * no fault hook — hooks key decisions on `(shot, site)` and may
    ///   perturb state/classical bits per shot;
    /// * no drift policy and no failed-shot budget — the drift guard runs
    ///   per instruction inside the shot and `max_failed` counts per-shot
    ///   panics (deadlines and cancel tokens are polled cooperatively and
    ///   stay eligible);
    /// * no gate or idle noise channels — those draw inside the evolution,
    ///   which shots no longer perform (`readout_flip` / `reset_error` stay
    ///   eligible: they are plain `gen_bool` events the tree models);
    /// * the tree must build: finite branch probabilities and at most
    ///   [`crate::prefix::MAX_TREE_NODES`] nodes.
    fn prefix_tree(&self, circuit: &Circuit, poll: impl FnMut() -> bool) -> Option<PrefixTree> {
        if self.engine == Engine::Shots
            || self.tracer.is_enabled()
            || self.fault.is_some()
            || self.drift.is_some()
            || self.max_failed.is_some()
            || !crate::prefix::noise_is_tree_compatible(&self.noise)
        {
            return None;
        }
        PrefixTree::build_polled(circuit, &self.noise, poll)
    }

    /// A [`RunBudget`] for one resilient run, clock started now.
    fn fresh_budget(&self) -> RunBudget {
        RunBudget {
            start: Instant::now(),
            deadline: self.deadline,
            max_failed: self.max_failed,
            stop: AtomicBool::new(false),
            failed: AtomicU64::new(0),
            termination: AtomicU8::new(TERMINATION_COMPLETED),
        }
    }

    /// Ticks the liveness heartbeat, when one is installed.
    #[inline]
    fn beat(&self) {
        if let Some(beat) = &self.heartbeat {
            beat.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One cooperative budget poll: `true` when the run must stop, with the
    /// termination reason (cancellation wins over the deadline, matching
    /// the per-shot loop's check order) recorded first-wins in `budget`.
    fn poll_budget(&self, budget: &RunBudget) -> bool {
        if budget.stop.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                budget.terminate(TERMINATION_CANCELLED);
                return true;
            }
        }
        if let Some(deadline) = budget.deadline {
            if budget.start.elapsed() >= deadline {
                budget.terminate(TERMINATION_DEADLINE);
                return true;
            }
        }
        false
    }

    /// Installs a fault-injection hook (see [`crate::fault`] and the
    /// `qfault` crate). The hook is consulted at every named boundary of
    /// the shot loop; without one installed each boundary is a single
    /// `Option` branch and results are bit-identical to an uninjected run.
    ///
    /// Fault decisions never consume the shot's RNG stream, so installing a
    /// hook whose every decision is "no fault" also leaves results
    /// bit-identical. Injected panics should be run under
    /// [`Executor::run_resilient`], which isolates them per shot and counts
    /// them as `fault.caught.panic`; under [`Executor::run`] they propagate
    /// and abort the whole run.
    #[must_use]
    pub fn fault_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.fault = Some(hook);
        self
    }

    /// Enables the per-instruction norm-drift guard for
    /// [`Executor::run_resilient`] with the given policy.
    ///
    /// The guard costs one `norm_sqr` scan (O(2^n)) per executed
    /// instruction, so it is opt-in; [`Executor::run`] never checks. Like
    /// [`Executor::max_failed`], it selects the per-shot engine in every
    /// entry point.
    #[must_use]
    pub fn drift_policy(mut self, policy: DriftPolicy) -> Self {
        self.drift = Some(policy);
        self
    }

    /// Sets the norm-drift tolerance for [`Executor::drift_policy`]: the
    /// guard trips when `| ||psi||^2 - 1 |` exceeds it (default `1e-6`).
    /// A NaN norm always trips the guard.
    #[must_use]
    pub fn drift_tolerance(mut self, tolerance: f64) -> Self {
        self.drift_tolerance = tolerance;
        self
    }

    /// Sets a wall-clock budget for [`Executor::run_resilient`]: once it
    /// elapses, no further shots start and the run returns the partial
    /// counts with [`Termination::Deadline`].
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the failed-shot budget for [`Executor::run_resilient`]: when
    /// more than `max_failed` shots have panicked, the run stops with
    /// [`Termination::FailedShotBudget`] (so `max_failed(0)` stops on the
    /// first failure).
    #[must_use]
    pub fn max_failed(mut self, max_failed: u64) -> Self {
        self.max_failed = Some(max_failed);
        self
    }

    /// Installs a cooperative [`CancelToken`] checked between shots by
    /// [`Executor::run_resilient`]. Cancelling it (from any thread) stops
    /// the run with [`Termination::Cancelled`] and the partial counts
    /// gathered so far. Tokens (and deadlines) are polled cooperatively by
    /// *both* engines — on the prefix path during tree construction (per
    /// stochastic branch node) and during the shot walk — so installing one
    /// does not force the per-shot loop. Like the other budgets it is
    /// ignored by the budget-free [`Executor::run`].
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Installs a liveness heartbeat: [`Executor::run_resilient`] bumps the
    /// counter at least once per attempted shot (and once per branch node
    /// during prefix-tree construction). A supervisor that samples the
    /// counter can distinguish "slow but alive" from "wedged": a stalled
    /// value across a watchdog interval longer than the worst single-shot
    /// latency means the run is stuck, and its [`CancelToken`] will not be
    /// honoured. Heartbeat stores never consume the shot RNG streams, so
    /// results are bit-identical with or without one installed.
    #[must_use]
    pub fn heartbeat(mut self, beat: Arc<AtomicU64>) -> Self {
        self.heartbeat = Some(beat);
        self
    }

    /// Sets the number of shots.
    #[must_use]
    pub fn shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Fixes the base seed for reproducible runs. Shot `i` then executes on
    /// its own stream seeded with [`rand::stream_seed`]`(seed, i)`, so the
    /// per-shot outcomes are a pure function of `(seed, i, circuit)` — see
    /// the module-level determinism contract.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the worker-thread count for [`Executor::run`] /
    /// [`Executor::run_memory`]. The default is the machine's
    /// `std::thread::available_parallelism`.
    ///
    /// Because every shot runs on its own counter-derived RNG stream, the
    /// thread count is invisible in the results: a seeded run is
    /// bit-identical at 1, 2 or 8 threads (counts, memory order, and
    /// observer counters alike). `threads(1)` forces the in-thread
    /// sequential path.
    ///
    /// # Panics
    ///
    /// Panics when `threads` is 0.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "threads must be at least 1");
        self.threads = Some(threads);
        self
    }

    /// Attaches a noise model (applied as quantum trajectories).
    #[must_use]
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Attaches an observability handle. Each [`Executor::run`] /
    /// [`Executor::run_memory`] call then records, into the observer's
    /// metrics registry:
    ///
    /// * `executor.shots` — shots executed;
    /// * `executor.gates.<name>` — gates applied, by gate kind (only gates
    ///   that actually executed: a skipped conditioned gate is not counted);
    /// * `executor.resets` — active resets applied;
    /// * `executor.measurements` / `executor.mid_circuit_measurements` —
    ///   all measurements, and the subset whose qubit is reused later;
    /// * `executor.cc_fired` / `executor.cc_skipped` — classically
    ///   controlled operations whose condition held / did not hold;
    /// * `executor.noise_injections` — stochastic noise-channel
    ///   applications (gate noise and idle noise trajectories);
    /// * `executor.qubits` — a gauge holding the simulated circuit's
    ///   physical width (the reuse planner's lanes + answer wires);
    ///
    /// plus an `executor.run` span (duration histogram `executor.run_ns`).
    ///
    /// Counters accumulate per shot but are flushed to the registry once
    /// per run; with the default [`Observer::disabled`] the hot path is a
    /// single branch.
    #[must_use]
    pub fn observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Attaches a tracing handle (see [`qobs::trace`]). Each run then
    /// records, into the tracer's shared log:
    ///
    /// * a top-level `executor.run` / `executor.run_resilient` span closed
    ///   by an `executor.run_end` instant carrying the termination reason;
    /// * one `shot` span per shot, with `measure` / `reset` / `condition`
    ///   sub-spans, on a lane derived from the shot index;
    /// * qfault injections as instant events (named after their counters,
    ///   e.g. `fault.injected.meas-flip`) on the owning shot's span;
    /// * with the observer **also** enabled, per-gate-kind apply timing
    ///   into `executor.apply.<kind>_ns` histograms (metrics, not events).
    ///
    /// Shots record into owner-local buffers submitted in shot order, so
    /// the trace is deterministic at every thread count; under
    /// [`Tracer::test`] the exported file is byte-identical. Tracing never
    /// consumes the shot RNG streams: results with tracing on are
    /// bit-identical to results with it off. With the default
    /// [`Tracer::disabled`] every instrumentation site is one branch.
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Runs the circuit and tallies classical-register outcomes.
    ///
    /// The result keys are bitstrings with classical bit `n-1` leftmost.
    /// Shots are distributed over [`Executor::threads`] workers with
    /// worker-local [`Counts`] buffers, merged in shot order; the result is
    /// bit-identical for every thread count at a fixed seed.
    pub fn run(&self, circuit: &Circuit) -> Counts {
        self.run_counts(circuit, None).0
    }

    /// Runs the circuit and returns the per-shot outcome records in order
    /// (the "memory" mode of hardware backends), for analyses that need
    /// shot-to-shot structure rather than aggregate counts.
    ///
    /// Workers fill worker-local buffers over contiguous shot ranges, which
    /// are concatenated in range order — entry `i` is always shot `i`,
    /// whatever the thread count.
    pub fn run_memory(&self, circuit: &Circuit) -> Vec<String> {
        let (parts, _) = self.drive(circuit, None, Vec::with_capacity, |memory, bits| {
            memory.push(bitstring(bits))
        });
        let mut memory = Vec::with_capacity(self.shots as usize);
        for part in parts {
            memory.extend(part);
        }
        memory
    }

    /// Runs the circuit with per-shot fault isolation and graceful
    /// degradation, returning whatever counts were gathered plus a
    /// [`RunReport`].
    ///
    /// Differences from [`Executor::run`]:
    ///
    /// * every shot executes under `catch_unwind`: a panicking shot (NaN
    ///   probabilities, a poisoned gate parameter, …) is recorded as
    ///   *failed* instead of killing the run;
    /// * with [`Executor::drift_policy`] set, the statevector norm is
    ///   checked after every instruction and handled per the policy;
    /// * with [`Executor::deadline`] / [`Executor::max_failed`] /
    ///   [`Executor::cancel_token`] set, the run terminates early once the
    ///   budget is exhausted and returns the **partial** counts gathered so
    ///   far — it never panics for budget reasons.
    ///
    /// Shot `i` still executes on `stream_seed(base, i)`, so a resilient
    /// run that completes (no early termination) produces counts
    /// bit-identical to [`Executor::run`] at every thread count. Early
    /// termination stops each worker between shots — the cancel token is
    /// checked before every shot, the deadline clock before every evolved
    /// shot and every 64th tree walk — so *which* shots ran may then depend
    /// on timing and thread count, but every recorded shot is still
    /// individually reproducible.
    ///
    /// With an observer attached, the run additionally records
    /// `executor.shots_failed`, `executor.shots_discarded` and
    /// `executor.drift_renormalized` counters on top of the usual set (and
    /// `executor.shots` counts *completed* shots only).
    pub fn run_resilient(&self, circuit: &Circuit) -> (Counts, RunReport) {
        self.run_counts(circuit, Some(&self.fresh_budget()))
    }

    /// [`Executor::run`] (no budget) or [`Executor::run_resilient`]: the
    /// shot driver with worker-local [`Counts`], merged in shot order.
    fn run_counts(&self, circuit: &Circuit, budget: Option<&RunBudget>) -> (Counts, RunReport) {
        let (parts, report) = self.drive(
            circuit,
            budget,
            |_| Counts::new(),
            |counts, bits| counts.record(bitstring(bits)),
        );
        let mut counts = Counts::new();
        for part in parts {
            counts.merge(part);
        }
        (counts, report)
    }

    /// The run's base seed: the configured seed, or fresh entropy drawn once
    /// per run (so even unseeded runs derive coherent per-shot streams).
    fn base_seed(&self) -> u64 {
        match self.seed {
            Some(s) => s,
            None => StdRng::from_entropy().next_u64(),
        }
    }

    /// The worker count: the explicit [`Executor::threads`] override, else
    /// the machine's available parallelism (1 when undeterminable).
    fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }

    /// The shot driver behind every entry point. Builds the branch tree
    /// when the run is prefix-eligible, splits the shots into one
    /// contiguous range per worker (in-thread when there is one worker),
    /// fills one accumulator per range (built by `make`, fed by `record`)
    /// and returns the accumulators in shot order with the run's report.
    /// Reports, tallies and trace events merge in the same order, and the
    /// observer is flushed once, under the `executor.run` span — or
    /// `executor.run_resilient` when a `budget` makes the run resilient.
    ///
    /// Shot `i` always executes on `stream_seed(base, i)`, so the partition
    /// geometry (and hence the thread count) is invisible in the results.
    fn drive<A: Send>(
        &self,
        circuit: &Circuit,
        budget: Option<&RunBudget>,
        make: impl Fn(usize) -> A + Sync,
        record: impl Fn(&mut A, &[bool]) + Sync,
    ) -> (Vec<A>, RunReport) {
        let tree = self.prefix_tree(circuit, || {
            budget.is_some_and(|budget| {
                self.beat();
                self.poll_budget(budget)
            })
        });
        let mut report = RunReport {
            requested: self.shots,
            completed: 0,
            failed: 0,
            discarded: 0,
            termination: Termination::Completed,
        };
        if let Some(budget) = budget.filter(|b| b.stop.load(Ordering::Relaxed)) {
            // The tree build was interrupted: no shot ran, nothing to merge.
            report.termination = budget.termination();
            return (Vec::new(), report);
        }
        let name = match budget {
            Some(_) => "executor.run_resilient",
            None => "executor.run",
        };
        let workers = (self.effective_threads() as u64).min(self.shots.max(1));
        let observed = self.observer.is_enabled();
        let span = observed.then(|| {
            let mut span = self.observer.span(name);
            span.field("shots", self.shots);
            span.field("instructions", circuit.len());
            span.field("threads", workers);
            span
        });
        let mut top = self.tracer.top_local();
        if let Some(t) = top.as_mut() {
            t.begin(name);
        }

        let plan = RunPlan {
            circuit,
            tree: tree.as_ref(),
            base: self.base_seed(),
            mid: observed.then(|| mid_measure_flags(circuit)),
            budget,
            // `run` and `run_memory` ignore the drift policy.
            guard: budget.and(self.drift).map(|policy| DriftGuard {
                policy,
                tolerance: self.drift_tolerance,
            }),
        };
        let chunk_len = self.shots.div_ceil(workers);
        let run_range = |lo: u64| {
            let lo = lo.min(self.shots);
            let hi = (lo + chunk_len).min(self.shots);
            let mut acc = make((hi - lo) as usize);
            let chunk = self.run_chunk(&plan, lo..hi, &mut acc, &record);
            (acc, chunk)
        };
        let results: Vec<(A, Chunk)> = if workers == 1 {
            vec![run_range(0)]
        } else {
            let run_range = &run_range;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || run_range(w * chunk_len)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shot worker panicked"))
                    .collect()
            })
        };

        // Ranges are contiguous and in worker order, so merging in iteration
        // order is merging in shot order — the deterministic-merge contract
        // for counters and traces alike.
        let mut parts = Vec::with_capacity(results.len());
        let mut tally = RunTally::default();
        let (mut renormalized, mut replayed) = (0, 0);
        for (acc, chunk) in results {
            parts.push(acc);
            report.completed += chunk.completed;
            report.failed += chunk.failed;
            report.discarded += chunk.discarded;
            renormalized += chunk.renormalized;
            replayed += chunk.replayed;
            if let Some(t) = chunk.tally {
                tally.absorb(t);
            }
            self.tracer.submit(chunk.events);
        }
        if let Some(budget) = budget {
            report.termination = budget.termination();
        }
        if observed {
            self.flush_tally(&tally, report.completed);
            let obs = &self.observer;
            obs.gauge_set("executor.qubits", circuit.num_qubits() as f64);
            if budget.is_some() {
                obs.counter_add("executor.shots_failed", report.failed);
                obs.counter_add("executor.shots_discarded", report.discarded);
                obs.counter_add("executor.drift_renormalized", renormalized);
            }
            if let Some(tree) = &tree {
                self.flush_prefix_stats(tree, replayed);
            }
        }
        if let Some(mut t) = top {
            let termination = FieldValue::Str(report.termination.to_string());
            let fields = match budget {
                Some(_) => vec![
                    ("termination", termination),
                    ("completed", FieldValue::U64(report.completed)),
                    ("failed", FieldValue::U64(report.failed)),
                    ("discarded", FieldValue::U64(report.discarded)),
                ],
                None => vec![
                    ("termination", termination),
                    ("shots", FieldValue::U64(self.shots)),
                ],
            };
            t.instant_with("executor.run_end", fields);
            t.end();
            self.tracer.submit(t.into_events());
        }
        drop(span);
        (parts, report)
    }

    /// The chunk loop: runs the contiguous shot range `shots` in shot order
    /// and feeds each recorded outcome to `record`. With a tree, a shot
    /// walks it; with no tree, or when the walk reaches a pruned branch,
    /// the shot is evolved ([`Executor::evolve_shot`]).
    ///
    /// With a budget, each shot first ticks the heartbeat and checks the
    /// cancel token; the deadline clock and the cross-worker stop flag are
    /// read before every evolved shot but only every 64th tree walk (an
    /// `Instant::elapsed` costs more than a whole walk).
    fn run_chunk<A>(
        &self,
        plan: &RunPlan<'_>,
        shots: Range<u64>,
        acc: &mut A,
        record: &impl Fn(&mut A, &[bool]),
    ) -> Chunk {
        let mut out = Chunk {
            tally: plan.mid.as_ref().map(|_| RunTally::default()),
            ..Chunk::default()
        };
        let mut hits = vec![0u64; plan.tree.map_or(0, PrefixTree::num_leaves)];
        let mut since_poll = 0u32;
        for i in shots {
            if let Some(budget) = plan.budget {
                self.beat();
                if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    budget.terminate(TERMINATION_CANCELLED);
                    break;
                }
                if since_poll == 0 && self.poll_budget(budget) {
                    break;
                }
            }
            if let Some(tree) = plan.tree {
                since_poll = (since_poll + 1) & 63;
                let mut rng = StdRng::seed_from_u64(stream_seed(plan.base, i));
                if let Walk::Leaf(leaf) = tree.walk(&mut rng) {
                    hits[leaf as usize] += 1;
                    out.completed += 1;
                    record(acc, tree.leaf_classical(leaf));
                    continue;
                }
                out.replayed += 1;
            }
            if self.evolve_shot(plan, i, &mut out, acc, record) {
                break;
            }
        }
        if let (Some(tree), Some(tally)) = (plan.tree, out.tally.as_mut()) {
            tree.accumulate_tally(&hits, tally);
        }
        out
    }

    /// Evolves shot `i` through the statevector on a fresh
    /// `stream_seed(base, i)` stream — bit-identical to a tree walk of the
    /// same shot — and records its outcome into `out` and `acc`. Under a
    /// budget the shot runs inside `catch_unwind` with the drift guard: a
    /// panic counts as failed and a drifting norm follows the policy.
    /// Without one a panic propagates, as under [`Executor::run`]. Returns
    /// `true` when the run must stop.
    fn evolve_shot<A>(
        &self,
        plan: &RunPlan<'_>,
        i: u64,
        out: &mut Chunk,
        acc: &mut A,
        record: &impl Fn(&mut A, &[bool]),
    ) -> bool {
        let mut rng = StdRng::seed_from_u64(stream_seed(plan.base, i));
        let mut renorms = 0u64;
        // The trace buffer lives outside the unwind boundary so a panicking
        // shot still contributes a balanced span with the panic marked on it.
        let mut lt = self.tracer.shot_local(i);
        if let Some(t) = lt.as_mut() {
            t.begin("shot");
        }
        let mut evolve = || {
            let mut ctx = match (out.tally.as_mut(), plan.mid.as_deref()) {
                (Some(tally), Some(mid)) => Some(TallyCtx {
                    tally,
                    mid_measure: mid,
                }),
                _ => None,
            };
            self.run_shot_guarded(
                plan.circuit,
                i,
                &mut rng,
                &mut ctx,
                &mut lt,
                plan.guard.as_ref(),
                &mut renorms,
            )
        };
        let shot = match plan.budget {
            Some(_) => catch_unwind(AssertUnwindSafe(evolve)),
            None => Ok(evolve()),
        };
        out.renormalized += renorms;
        let mut stop = false;
        match shot {
            Ok(ShotControl::Done(classical, _)) => {
                out.completed += 1;
                record(acc, &classical);
                if let Some(t) = lt.as_mut() {
                    t.end();
                }
            }
            Ok(ShotControl::Discarded) => {
                out.discarded += 1;
                if let Some(t) = lt.as_mut() {
                    t.abort_open("shot.discarded");
                }
            }
            Ok(ShotControl::Abort) => {
                if let Some(budget) = plan.budget {
                    budget.terminate(TERMINATION_ABORTED);
                }
                if let Some(t) = lt.as_mut() {
                    t.abort_open("budget.abort");
                }
                stop = true;
            }
            Err(_) => {
                out.failed += 1;
                if let Some(t) = lt.as_mut() {
                    t.abort_open("shot.panic");
                }
                // Attribute the catch when the panic was an injected one
                // (the hook's decision is pure, so re-asking gives the same
                // answer the shot saw).
                if let Some(t) = &mut out.tally {
                    if self.fault.as_ref().is_some_and(|h| h.shot_panic(i)) {
                        *t.faults.entry(FAULT_CAUGHT_PANIC).or_insert(0) += 1;
                    }
                }
                if plan.budget.is_some_and(RunBudget::fail_shot) {
                    if let Some(t) = lt.as_mut() {
                        t.instant("budget.failed-shots");
                    }
                    stop = true;
                }
            }
        }
        if let Some(t) = lt {
            out.events.extend(t.into_events());
        }
        stop
    }

    /// Adds the prefix engine's structural counters to the observer: tree
    /// shape (`prefix.nodes` / `prefix.leaves` / `prefix.pruned_branches`),
    /// what gate fusion achieved (`prefix.fused_blocks` /
    /// `prefix.fused_gates`), and how many shots bailed to a per-shot
    /// replay (`prefix.shots_replayed`). All are pure functions of
    /// `(circuit, noise, seed, shots)`, so they are bit-identical across
    /// thread counts like every other counter.
    fn flush_prefix_stats(&self, tree: &PrefixTree, replayed: u64) {
        let obs = &self.observer;
        obs.counter_add("prefix.nodes", tree.num_nodes() as u64);
        obs.counter_add("prefix.leaves", tree.num_leaves() as u64);
        obs.counter_add("prefix.pruned_branches", tree.num_pruned());
        obs.counter_add("prefix.shots_replayed", replayed);
        let fusion = tree.fusion_stats();
        obs.counter_add("prefix.fused_blocks", fusion.blocks as u64);
        obs.counter_add("prefix.fused_gates", fusion.gates_fused as u64);
    }

    /// Adds the run's tally to the observer's registry (one lock
    /// acquisition per counter, once per run). `shots` is the number of
    /// shots actually recorded — all requested shots for [`Executor::run`],
    /// completed shots only for [`Executor::run_resilient`].
    fn flush_tally(&self, tally: &RunTally, shots: u64) {
        let obs = &self.observer;
        obs.counter_add("executor.shots", shots);
        obs.counter_add("executor.resets", tally.resets);
        obs.counter_add("executor.measurements", tally.measurements);
        obs.counter_add("executor.mid_circuit_measurements", tally.mid_measurements);
        obs.counter_add("executor.cc_fired", tally.cc_fired);
        obs.counter_add("executor.cc_skipped", tally.cc_skipped);
        obs.counter_add("executor.noise_injections", tally.noise_applications);
        for (name, n) in &tally.gates {
            obs.counter_add(&format!("executor.gates.{name}"), *n);
        }
        for (name, n) in &tally.faults {
            obs.counter_add(name, *n);
        }
        for (name, h) in &tally.apply_ns {
            obs.metrics()
                .merge_histogram(&format!("executor.apply.{name}_ns"), h);
        }
    }

    /// Runs a single shot, returning the final classical bits.
    ///
    /// Standalone single-shot calls execute as shot 0 of a run, so an
    /// installed [`FaultHook`] sees `shot = 0`.
    pub fn run_shot<R: Rng + ?Sized>(&self, circuit: &Circuit, rng: &mut R) -> Vec<bool> {
        let (classical, _state) = self.run_shot_with_state(circuit, rng);
        classical
    }

    /// Runs a single shot, returning the classical bits and the final
    /// quantum state (useful for inspecting answer qubits that were never
    /// measured).
    ///
    /// With [`NoiseModel::idle`] set, the circuit is executed layer by
    /// layer (ASAP dependency layers) and the idle channel is applied to
    /// every qubit a layer leaves untouched — so deeper circuits decay
    /// more, as on hardware.
    pub fn run_shot_with_state<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        rng: &mut R,
    ) -> (Vec<bool>, StateVector) {
        match self.run_shot_guarded(circuit, 0, rng, &mut None, &mut None, None, &mut 0) {
            ShotControl::Done(classical, state) => (classical, state),
            // Without a guard a shot always runs to completion.
            ShotControl::Discarded | ShotControl::Abort => unreachable!("unguarded shot"),
        }
    }

    /// Single-shot execution with an optional tally context, an optional
    /// shot-trace buffer and an optional norm-drift guard (`None` on the
    /// un-instrumented path: a per-instruction `Option` branch each is the
    /// whole overhead). With a guard, the squared norm is checked after
    /// every executed instruction (and every idle-noise application) and the
    /// guard's policy decides whether the shot continues, is discarded, or
    /// aborts the run. `renorms` counts the rescues performed under
    /// [`DriftPolicy::Renormalize`].
    #[allow(clippy::too_many_arguments)]
    fn run_shot_guarded<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        shot: u64,
        rng: &mut R,
        ctx: &mut Option<TallyCtx<'_>>,
        lt: &mut Option<LocalTrace>,
        guard: Option<&DriftGuard>,
        renorms: &mut u64,
    ) -> ShotControl {
        if let Some(hook) = &self.fault {
            if let Some(delay) = hook.shot_delay(shot) {
                if let Some(c) = ctx {
                    c.tally.fault(FaultSite::ShotDelay);
                }
                if let Some(t) = lt.as_mut() {
                    t.instant(FaultSite::ShotDelay.counter());
                }
                std::thread::sleep(delay);
            }
            if hook.shot_panic(shot) {
                if let Some(c) = ctx {
                    c.tally.fault(FaultSite::ShotPanic);
                }
                if let Some(t) = lt.as_mut() {
                    t.instant(FaultSite::ShotPanic.counter());
                }
                panic!("qfault: injected panic in shot {shot}");
            }
        }
        let mut state = StateVector::zero_state(circuit.num_qubits());
        let mut classical = vec![false; circuit.num_clbits()];
        if let Some(idle) = &self.noise.idle {
            // Hardware-style schedule: gates as early as possible (ASAP
            // dependency layers), terminal measurements at the very end —
            // so a prepared qubit waiting for readout accumulates decay.
            for layer in scheduled_layers(circuit) {
                if layer.is_empty() {
                    continue;
                }
                let mut touched = vec![false; circuit.num_qubits()];
                for &idx in &layer {
                    let inst = &circuit.instructions()[idx];
                    for q in inst.qubits() {
                        touched[q.index()] = true;
                    }
                    self.execute_instruction(
                        inst,
                        idx,
                        shot,
                        &mut state,
                        &mut classical,
                        rng,
                        ctx,
                        lt,
                    );
                    match check_drift(guard, &mut state, renorms) {
                        DriftAction::Continue => {}
                        DriftAction::Discard => return ShotControl::Discarded,
                        DriftAction::Abort => return ShotControl::Abort,
                    }
                }
                for (q, &t) in touched.iter().enumerate() {
                    if !t {
                        idle.apply_stochastic(&mut state, &[q], rng);
                        if let Some(c) = ctx {
                            c.tally.noise_applications += 1;
                        }
                        match check_drift(guard, &mut state, renorms) {
                            DriftAction::Continue => {}
                            DriftAction::Discard => return ShotControl::Discarded,
                            DriftAction::Abort => return ShotControl::Abort,
                        }
                    }
                }
            }
        } else {
            for (idx, inst) in circuit.iter().enumerate() {
                self.execute_instruction(inst, idx, shot, &mut state, &mut classical, rng, ctx, lt);
                match check_drift(guard, &mut state, renorms) {
                    DriftAction::Continue => {}
                    DriftAction::Discard => return ShotControl::Discarded,
                    DriftAction::Abort => return ShotControl::Abort,
                }
            }
        }
        ShotControl::Done(classical, state)
    }

    /// Executes one instruction under the configured noise. `idx` is the
    /// instruction's index in the circuit (for the mid-circuit-measurement
    /// flags of the tally context and as the fault site); `shot` is the
    /// shot index the fault hook keys its decisions on.
    #[allow(clippy::too_many_arguments)]
    fn execute_instruction<R: Rng + ?Sized>(
        &self,
        inst: &qcir::Instruction,
        idx: usize,
        shot: u64,
        state: &mut StateVector,
        classical: &mut [bool],
        rng: &mut R,
        ctx: &mut Option<TallyCtx<'_>>,
        lt: &mut Option<LocalTrace>,
    ) {
        if let Some(cond) = inst.condition() {
            if let Some(t) = lt.as_mut() {
                t.begin("condition");
            }
            if let Some(hook) = &self.fault {
                let bits = cond.bits();
                match hook.condition_fault(shot, idx, bits.len()) {
                    Some(CcFault::Flip(k)) => {
                        if let Some(b) = bits.get(k) {
                            classical[b.index()] = !classical[b.index()];
                            if let Some(c) = ctx {
                                c.tally.fault(FaultSite::CcFlip);
                            }
                            if let Some(t) = lt.as_mut() {
                                t.instant(FaultSite::CcFlip.counter());
                            }
                        }
                    }
                    Some(CcFault::Lose(k)) => {
                        if let Some(b) = bits.get(k) {
                            classical[b.index()] = false;
                            if let Some(c) = ctx {
                                c.tally.fault(FaultSite::CcLoss);
                            }
                            if let Some(t) = lt.as_mut() {
                                t.instant(FaultSite::CcLoss.counter());
                            }
                        }
                    }
                    None => {}
                }
            }
            let fired = cond.evaluate(classical);
            if let Some(t) = lt.as_mut() {
                t.end();
            }
            if !fired {
                if let Some(c) = ctx {
                    c.tally.cc_skipped += 1;
                }
                return;
            }
            if let Some(c) = ctx {
                c.tally.cc_fired += 1;
            }
        }
        match inst.kind() {
            OpKind::Barrier => {}
            OpKind::Gate(g) => {
                let fate = match &self.fault {
                    Some(hook) => hook.gate_fate(shot, idx),
                    None => GateFate::Execute,
                };
                if fate == GateFate::Drop {
                    if let Some(c) = ctx {
                        c.tally.fault(FaultSite::GateDrop);
                    }
                    if let Some(t) = lt.as_mut() {
                        t.instant(FaultSite::GateDrop.counter());
                    }
                    return;
                }
                let qubits: Vec<usize> = inst.qubits().iter().map(|q| q.index()).collect();
                // Per-gate-kind apply timing: histogram observations only
                // (a span pair per gate would dwarf the trace), taken on
                // the tracer's clock and accumulated into the run tally —
                // so it needs both a trace buffer and a tally context.
                let apply_start = match (lt.as_mut(), &ctx) {
                    (Some(t), Some(_)) => Some(t.now()),
                    _ => None,
                };
                state.apply_gate(g, &qubits);
                if let Some(c) = ctx {
                    *c.tally.gates.entry(g.name()).or_insert(0) += 1;
                }
                if fate == GateFate::Duplicate {
                    state.apply_gate(g, &qubits);
                    if let Some(c) = ctx {
                        *c.tally.gates.entry(g.name()).or_insert(0) += 1;
                        c.tally.fault(FaultSite::GateDup);
                    }
                    if let Some(t) = lt.as_mut() {
                        t.instant(FaultSite::GateDup.counter());
                    }
                }
                if let Some(start) = apply_start {
                    if let (Some(t), Some(c)) = (lt.as_mut(), ctx.as_mut()) {
                        let elapsed = t.now().saturating_sub(start);
                        c.tally
                            .apply_ns
                            .entry(g.name())
                            .or_default()
                            .observe(elapsed);
                    }
                }
                match self.noise.gate_noise(qubits.len()) {
                    Some(GateNoise::Joint(channel)) => {
                        channel.apply_stochastic(state, &qubits, rng);
                        if let Some(c) = ctx {
                            c.tally.noise_applications += 1;
                        }
                    }
                    Some(GateNoise::PerOperand(channel)) => {
                        for &q in &qubits {
                            channel.apply_stochastic(state, &[q], rng);
                            if let Some(c) = ctx {
                                c.tally.noise_applications += 1;
                            }
                        }
                    }
                    None => {}
                }
            }
            OpKind::Measure => {
                if let Some(t) = lt.as_mut() {
                    t.begin("measure");
                }
                let q = inst.qubits()[0].index();
                let mut outcome = state.measure(q, rng);
                if self.noise.readout_flip > 0.0 && rng.gen_bool(self.noise.readout_flip) {
                    outcome = !outcome;
                }
                if let Some(hook) = &self.fault {
                    if hook.measure_flip(shot, idx) {
                        outcome = !outcome;
                        if let Some(c) = ctx {
                            c.tally.fault(FaultSite::MeasFlip);
                        }
                        if let Some(t) = lt.as_mut() {
                            t.instant(FaultSite::MeasFlip.counter());
                        }
                    }
                }
                classical[inst.clbits()[0].index()] = outcome;
                if let Some(c) = ctx {
                    c.tally.measurements += 1;
                    if c.mid_measure.get(idx).copied().unwrap_or(false) {
                        c.tally.mid_measurements += 1;
                    }
                }
                if let Some(t) = lt.as_mut() {
                    t.end();
                }
            }
            OpKind::Reset => {
                if let Some(t) = lt.as_mut() {
                    t.begin("reset");
                }
                let q = inst.qubits()[0].index();
                state.reset(q, rng);
                if self.noise.reset_error > 0.0 && rng.gen_bool(self.noise.reset_error) {
                    state.apply_gate(&qcir::Gate::X, &[q]);
                }
                if let Some(hook) = &self.fault {
                    if hook.reset_leak(shot, idx) {
                        state.apply_gate(&qcir::Gate::X, &[q]);
                        if let Some(c) = ctx {
                            c.tally.fault(FaultSite::ResetLeak);
                        }
                        if let Some(t) = lt.as_mut() {
                            t.instant(FaultSite::ResetLeak.counter());
                        }
                    }
                }
                if let Some(c) = ctx {
                    c.tally.resets += 1;
                }
                if let Some(t) = lt.as_mut() {
                    t.end();
                }
            }
        }
    }
}

/// Hardware-style schedule of a circuit: ASAP dependency layers, with
/// *terminal* measurements (no later operation on their qubit or bit)
/// pinned to the final layer — matching devices, which read out all
/// surviving qubits at the end of the shot. Layers may be empty after the
/// pinning; callers skip those.
fn scheduled_layers(circuit: &Circuit) -> Vec<Vec<usize>> {
    let dag = qcir::DagCircuit::from_circuit(circuit);
    let mut layers = dag.layers();
    if layers.len() < 2 {
        return layers;
    }
    let last = layers.len() - 1;
    let mut pinned: Vec<usize> = Vec::new();
    for layer in &mut layers[..last] {
        layer.retain(|&idx| {
            let inst = &circuit.instructions()[idx];
            let terminal = matches!(inst.kind(), OpKind::Measure) && dag.successors(idx).is_empty();
            if terminal {
                pinned.push(idx);
            }
            !terminal
        });
    }
    layers[last].extend(pinned);
    layers[last].sort_unstable();
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::{Clbit, Condition, Gate, Instruction, Qubit};

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn c(i: usize) -> Clbit {
        Clbit::new(i)
    }

    #[test]
    fn deterministic_circuit_gives_single_outcome() {
        let mut circ = Circuit::new(2, 2);
        circ.x(q(0)).measure_all();
        let counts = Executor::new().shots(100).seed(1).run(&circ);
        assert_eq!(counts.get("01"), 100);
    }

    #[test]
    fn bitstring_key_is_msb_first() {
        let mut circ = Circuit::new(2, 2);
        circ.x(q(1)).measure_all();
        let counts = Executor::new().shots(10).seed(1).run(&circ);
        // qubit 1 -> clbit 1 -> leftmost character.
        assert_eq!(counts.get("10"), 10);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0)).measure(q(0), c(0));
        let a = Executor::new().shots(200).seed(42).run(&circ);
        let b = Executor::new().shots(200).seed(42).run(&circ);
        assert_eq!(a, b);
    }

    /// A dynamic circuit exercising every RNG consumer: superposition
    /// measurement, classical control, reset, plus (optionally) noise.
    fn dynamic_test_circuit() -> Circuit {
        let mut circ = Circuit::new(2, 3);
        circ.h(q(0))
            .measure(q(0), c(0))
            .x_if(q(1), c(0))
            .reset(q(0))
            .h(q(0))
            .measure(q(0), c(1))
            .measure(q(1), c(2));
        circ
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        // The tentpole invariant: at a fixed seed, counts AND shot-ordered
        // memory are identical at 1, 2 and 8 threads.
        let circ = dynamic_test_circuit();
        let exec = |threads: usize| Executor::new().shots(257).seed(0xC0FFEE).threads(threads);
        let counts1 = exec(1).run(&circ);
        let memory1 = exec(1).run_memory(&circ);
        for threads in [2, 8] {
            assert_eq!(exec(threads).run(&circ), counts1, "counts @ {threads}");
            assert_eq!(
                exec(threads).run_memory(&circ),
                memory1,
                "memory @ {threads}"
            );
        }
    }

    #[test]
    fn noisy_results_are_bit_identical_across_thread_counts() {
        let circ = dynamic_test_circuit();
        let exec = |threads: usize| {
            Executor::new()
                .shots(200)
                .seed(99)
                .threads(threads)
                .noise(NoiseModel::depolarizing(0.05, 0.1))
        };
        let baseline = exec(1).run_memory(&circ);
        assert_eq!(exec(2).run_memory(&circ), baseline);
        assert_eq!(exec(8).run_memory(&circ), baseline);
    }

    #[test]
    fn observer_counters_are_identical_across_thread_counts() {
        let circ = dynamic_test_circuit();
        let counters = |threads: usize| {
            let obs = qobs::Observer::metrics_only();
            Executor::new()
                .shots(128)
                .seed(7)
                .threads(threads)
                .observer(obs.clone())
                .run(&circ);
            let json = obs.metrics().to_json();
            let start = json.find("\"counters\"").unwrap();
            let end = json.find("\"gauges\"").unwrap();
            json[start..end].to_string()
        };
        let one = counters(1);
        assert_eq!(counters(2), one);
        assert_eq!(counters(8), one);
    }

    #[test]
    fn shorter_runs_are_prefixes_of_longer_runs() {
        // Order independence: shot i depends only on (seed, i, circuit), so
        // a 100-shot run is literally the first 100 shots of a 300-shot run.
        let circ = dynamic_test_circuit();
        let short = Executor::new().shots(100).seed(5).run_memory(&circ);
        let long = Executor::new().shots(300).seed(5).run_memory(&circ);
        assert_eq!(short[..], long[..100]);
    }

    // ---- engines ---------------------------------------------------------

    /// The executor-counter keys the two engines must agree on exactly.
    const ENGINE_COUNTER_KEYS: [&str; 8] = [
        "executor.shots",
        "executor.resets",
        "executor.measurements",
        "executor.mid_circuit_measurements",
        "executor.cc_fired",
        "executor.cc_skipped",
        "executor.noise_injections",
        "executor.gates.x",
    ];

    /// Counts, memory rows and executor counters of one engine at one
    /// thread count.
    type EngineFingerprint = (Counts, Vec<String>, Vec<(String, Option<u64>)>);

    fn engine_fingerprint(
        circ: &Circuit,
        engine: Engine,
        threads: usize,
        noise: &NoiseModel,
    ) -> EngineFingerprint {
        let obs = qobs::Observer::metrics_only();
        let exec = Executor::new()
            .shots(257)
            .seed(0xC0FFEE)
            .threads(threads)
            .noise(noise.clone())
            .observer(obs.clone())
            .engine(engine);
        let counts = exec.run(circ);
        let memory = exec.run_memory(circ);
        let counters = ENGINE_COUNTER_KEYS
            .iter()
            .map(|k| ((*k).to_string(), obs.metrics().counter(k)))
            .collect();
        (counts, memory, counters)
    }

    #[test]
    fn prefix_engine_is_bit_identical_to_per_shot_engine() {
        let circ = dynamic_test_circuit();
        let ideal = NoiseModel::ideal();
        for threads in [1, 2, 8] {
            let shots = engine_fingerprint(&circ, Engine::Shots, threads, &ideal);
            let prefix = engine_fingerprint(&circ, Engine::Prefix, threads, &ideal);
            assert_eq!(shots, prefix, "threads = {threads}");
        }
    }

    #[test]
    fn prefix_engine_matches_with_readout_and_reset_noise() {
        // readout_flip / reset_error are modeled as tree decision nodes,
        // so they stay prefix-eligible — and must stay bit-identical.
        let circ = dynamic_test_circuit();
        let noise = NoiseModel {
            readout_flip: 0.25,
            reset_error: 0.2,
            ..NoiseModel::ideal()
        };
        let exec = Executor::new().shots(400).seed(31).noise(noise.clone());
        assert_eq!(
            exec.clone().engine(Engine::Prefix).resolve_engine(&circ),
            Engine::Prefix,
            "readout/reset noise must not force the per-shot path"
        );
        for threads in [1, 8] {
            let shots = engine_fingerprint(&circ, Engine::Shots, threads, &noise);
            let prefix = engine_fingerprint(&circ, Engine::Prefix, threads, &noise);
            assert_eq!(shots, prefix, "threads = {threads}");
        }
    }

    #[test]
    fn prefix_engine_emits_tree_counters() {
        let obs = qobs::Observer::metrics_only();
        Executor::new()
            .shots(64)
            .seed(1)
            .engine(Engine::Prefix)
            .observer(obs.clone())
            .run(&dynamic_test_circuit());
        let m = obs.metrics();
        assert!(m.counter("prefix.nodes").unwrap_or(0) > 0);
        assert!(m.counter("prefix.leaves").unwrap_or(0) >= 2);
        assert_eq!(m.counter("prefix.shots_replayed"), Some(0));
        // dynamic_test_circuit has no fusable adjacent run of >= 2 gates
        // sharing support, so fusion counters exist but may be zero.
        assert!(m.counter("prefix.fused_blocks").is_some());
    }

    #[test]
    fn engine_resolution_honours_the_fallback_matrix() {
        let circ = dynamic_test_circuit();
        let auto = Executor::new().seed(1);
        assert_eq!(auto.resolve_engine(&circ), Engine::Prefix);
        assert_eq!(
            auto.clone().engine(Engine::Shots).resolve_engine(&circ),
            Engine::Shots
        );
        // Tracer, fault hook, and gate/idle noise each force per-shot.
        assert_eq!(
            auto.clone().tracer(Tracer::test()).resolve_engine(&circ),
            Engine::Shots
        );
        assert_eq!(
            auto.clone()
                .fault_hook(Arc::new(TestHook::default()))
                .resolve_engine(&circ),
            Engine::Shots
        );
        assert_eq!(
            auto.clone()
                .noise(NoiseModel::depolarizing(0.05, 0.1))
                .resolve_engine(&circ),
            Engine::Shots
        );
        assert_eq!(
            auto.clone()
                .noise(NoiseModel::ideal().with_idle_damping(0.1))
                .resolve_engine(&circ),
            Engine::Shots
        );
        // Readout noise alone stays prefix-eligible.
        assert_eq!(
            auto.clone()
                .noise(NoiseModel {
                    readout_flip: 0.1,
                    ..NoiseModel::ideal()
                })
                .resolve_engine(&circ),
            Engine::Prefix
        );
        // A drift policy or failed-shot budget forces per-shot in every
        // entry point; budgets polled between shots keep the tree.
        assert_eq!(
            auto.clone()
                .drift_policy(DriftPolicy::Renormalize)
                .resolve_engine(&circ),
            Engine::Shots
        );
        assert_eq!(
            auto.clone().max_failed(3).resolve_engine(&circ),
            Engine::Shots
        );
        assert_eq!(
            auto.clone()
                .deadline(Duration::from_secs(60))
                .resolve_engine(&circ),
            Engine::Prefix
        );
        assert_eq!(
            auto.clone()
                .cancel_token(CancelToken::new())
                .resolve_engine(&circ),
            Engine::Prefix
        );
        assert_eq!(
            auto.clone()
                .heartbeat(Arc::new(AtomicU64::new(0)))
                .resolve_engine(&circ),
            Engine::Prefix
        );
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in [Engine::Shots, Engine::Prefix, Engine::Auto] {
            assert_eq!(Engine::parse(&engine.to_string()), Some(engine));
        }
        assert_eq!(Engine::parse("warp"), None);
    }

    #[test]
    fn prefix_resilient_run_matches_per_shot_resilient_run() {
        let circ = dynamic_test_circuit();
        let exec = |engine: Engine| {
            Executor::new()
                .shots(257)
                .seed(0xFEED)
                .threads(4)
                .engine(engine)
        };
        let (shots_counts, shots_report) = exec(Engine::Shots).run_resilient(&circ);
        let (prefix_counts, prefix_report) = exec(Engine::Prefix).run_resilient(&circ);
        assert_eq!(shots_counts, prefix_counts);
        assert_eq!(shots_report, prefix_report);
        assert_eq!(prefix_report.termination, Termination::Completed);
    }

    #[test]
    fn prefix_resilient_isolates_poisoned_circuits_via_fallback() {
        // Tree construction aborts on the non-finite branch probability, so
        // even a forced prefix engine degrades to the per-shot resilient
        // loop and isolates every panic.
        let (counts, report) = Executor::new()
            .shots(8)
            .seed(1)
            .threads(1)
            .engine(Engine::Prefix)
            .run_resilient(&poisoned_circuit());
        assert!(counts.is_empty());
        assert_eq!(report.failed, 8);
        assert_eq!(report.termination, Termination::Completed);
    }

    #[test]
    fn prefix_engine_with_live_budgets_matches_per_shot_engine() {
        // A cancel token that never fires and a generous deadline must not
        // change results or force the per-shot loop: the prefix path polls
        // them cooperatively and an uninterrupted run stays bit-identical.
        let circ = dynamic_test_circuit();
        let exec = |engine: Engine| {
            Executor::new()
                .shots(257)
                .seed(0xFEED)
                .threads(4)
                .engine(engine)
                .deadline(Duration::from_secs(3600))
                .cancel_token(CancelToken::new())
        };
        assert_eq!(
            exec(Engine::Prefix).resolve_engine(&circ),
            Engine::Prefix,
            "a deadline/cancel budget must not force the per-shot engine"
        );
        let (shots_counts, shots_report) = exec(Engine::Shots).run_resilient(&circ);
        let (prefix_counts, prefix_report) = exec(Engine::Prefix).run_resilient(&circ);
        assert_eq!(shots_counts, prefix_counts);
        assert_eq!(shots_report, prefix_report);
        assert_eq!(prefix_report.termination, Termination::Completed);
    }

    #[test]
    fn prefix_engine_honours_a_pre_cancelled_token() {
        // Regression: the prefix path used to ignore cancellation entirely
        // (tokens forced the per-shot loop); now the tree build polls the
        // token at branch-node granularity and stops before the first shot.
        let token = CancelToken::new();
        token.cancel();
        let (counts, report) = Executor::new()
            .shots(1 << 20)
            .seed(11)
            .threads(1)
            .engine(Engine::Prefix)
            .cancel_token(token)
            .run_resilient(&dynamic_test_circuit());
        assert!(counts.is_empty());
        assert_eq!(report.completed, 0);
        assert_eq!(report.termination, Termination::Cancelled);
    }

    #[test]
    fn prefix_engine_honours_an_expired_deadline() {
        let (counts, report) = Executor::new()
            .shots(1 << 20)
            .seed(11)
            .threads(2)
            .engine(Engine::Prefix)
            .deadline(Duration::ZERO)
            .run_resilient(&dynamic_test_circuit());
        assert!(counts.is_empty());
        assert_eq!(report.completed, 0);
        assert_eq!(report.termination, Termination::Deadline);
    }

    #[test]
    fn prefix_engine_cancels_mid_walk() {
        // Cancel from another thread while the walk is running: the run
        // stops early with partial counts. The per-shot token check makes
        // this deterministic-free-of-livelock, not deterministic in *when*
        // it stops, so only the invariants are asserted.
        let token = CancelToken::new();
        let handle = token.clone();
        let exec = Executor::new()
            .shots(1 << 22)
            .seed(5)
            .threads(2)
            .engine(Engine::Prefix)
            .cancel_token(token);
        let circ = dynamic_test_circuit();
        let (counts, report) = std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                handle.cancel();
            });
            exec.run_resilient(&circ)
        });
        assert_eq!(report.termination, Termination::Cancelled);
        assert!(report.completed < report.requested);
        assert_eq!(counts.total(), report.completed);
    }

    #[test]
    fn heartbeat_ticks_on_both_engines() {
        for engine in [Engine::Shots, Engine::Prefix] {
            let beat = Arc::new(AtomicU64::new(0));
            let (_, report) = Executor::new()
                .shots(64)
                .seed(3)
                .threads(1)
                .engine(engine)
                .heartbeat(Arc::clone(&beat))
                .run_resilient(&dynamic_test_circuit());
            assert_eq!(report.completed, 64);
            assert!(
                beat.load(Ordering::Relaxed) >= 64,
                "{engine}: heartbeat must tick at least once per shot, got {}",
                beat.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn uneven_partitions_leave_trailing_workers_empty() {
        // 5 shots over 4 workers: ranges of 2 leave the last worker past
        // the end of the run, which must get an empty range.
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0)).measure(q(0), c(0));
        let exec = |threads: usize| Executor::new().shots(5).seed(2).threads(threads);
        assert_eq!(exec(4).run_memory(&circ), exec(1).run_memory(&circ));
        assert_eq!(exec(4).run(&circ), exec(1).run(&circ));
    }

    #[test]
    fn thread_count_exceeding_shots_is_fine() {
        let mut circ = Circuit::new(1, 1);
        circ.x(q(0)).measure(q(0), c(0));
        let counts = Executor::new().shots(3).seed(1).threads(16).run(&circ);
        assert_eq!(counts.get("1"), 3);
        let none = Executor::new().shots(0).seed(1).threads(4).run(&circ);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "threads must be at least 1")]
    fn zero_threads_is_rejected() {
        let _ = Executor::new().threads(0);
    }

    #[test]
    fn mid_measure_flags_ignore_barriers_and_find_reuse() {
        // measure; barrier on the same qubit; nothing else -> NOT mid-circuit.
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0)).measure(q(0), c(0));
        circ.push(Instruction::barrier(vec![q(0), q(1)]));
        circ.measure(q(1), c(1));
        let flags = mid_measure_flags(&circ);
        assert_eq!(flags, vec![false, false, false, false]);

        // measure; later gate on the same qubit -> mid-circuit.
        let mut circ2 = Circuit::new(1, 2);
        circ2.measure(q(0), c(0));
        circ2.push(Instruction::barrier(vec![q(0)]));
        circ2.h(q(0)).measure(q(0), c(1));
        let flags2 = mid_measure_flags(&circ2);
        assert_eq!(flags2, vec![true, false, false, false]);

        // Reset counts as reuse; the final measurement does not.
        let mut circ3 = Circuit::new(1, 2);
        circ3.measure(q(0), c(0)).reset(q(0)).measure(q(0), c(1));
        assert_eq!(mid_measure_flags(&circ3), vec![true, false, false]);
    }

    #[test]
    fn trailing_barrier_does_not_inflate_mid_measure_counter() {
        // Regression: the old forward rescan counted a trailing barrier
        // touching the measured qubit as "reuse".
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0)).measure(q(0), c(0));
        circ.push(Instruction::barrier(vec![q(0)]));
        let obs = qobs::Observer::metrics_only();
        Executor::new()
            .shots(10)
            .seed(3)
            .observer(obs.clone())
            .run(&circ);
        assert_eq!(
            obs.metrics().counter("executor.mid_circuit_measurements"),
            Some(0)
        );
        assert_eq!(obs.metrics().counter("executor.measurements"), Some(10));
    }

    #[test]
    fn superposition_statistics_are_roughly_even() {
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0)).measure(q(0), c(0));
        let counts = Executor::new().shots(4000).seed(3).run(&circ);
        let p0 = counts.probability("0");
        assert!((p0 - 0.5).abs() < 0.05, "p0 = {p0}");
    }

    #[test]
    fn classically_controlled_gate_fires_only_on_condition() {
        // Teleport-style: measure a 1, conditionally flip the other qubit.
        let mut circ = Circuit::new(2, 2);
        circ.x(q(0)).measure(q(0), c(0)).x_if(q(1), c(0));
        circ.measure(q(1), c(1));
        let counts = Executor::new().shots(50).seed(4).run(&circ);
        assert_eq!(counts.get("11"), 50);

        let mut circ0 = Circuit::new(2, 2);
        circ0.measure(q(0), c(0)).x_if(q(1), c(0));
        circ0.measure(q(1), c(1));
        let counts0 = Executor::new().shots(50).seed(5).run(&circ0);
        assert_eq!(counts0.get("00"), 50);
    }

    #[test]
    fn register_condition_requires_exact_value() {
        let mut circ = Circuit::new(2, 3);
        circ.x(q(0)).measure(q(0), c(0));
        // c == 0b01 over bits [c0, c1]: true here.
        circ.push(
            Instruction::gate(Gate::X, vec![q(1)])
                .with_condition(Condition::register(vec![c(0), c(1)], 0b01)),
        );
        circ.measure(q(1), c(2));
        let counts = Executor::new().shots(20).seed(6).run(&circ);
        assert_eq!(counts.get("101"), 20);
    }

    #[test]
    fn mid_circuit_measurement_collapses() {
        // Measure |+> then measure again: outcomes must agree.
        let mut circ = Circuit::new(1, 2);
        circ.h(q(0)).measure(q(0), c(0)).measure(q(0), c(1));
        let counts = Executor::new().shots(300).seed(7).run(&circ);
        for (key, _) in counts.iter() {
            let bits: Vec<char> = key.chars().collect();
            assert_eq!(bits[0], bits[1], "outcome {key} not consistent");
        }
    }

    #[test]
    fn reset_reinitializes_for_reuse() {
        // The defining DQC pattern: use, measure, reset, reuse.
        let mut circ = Circuit::new(1, 2);
        circ.x(q(0))
            .measure(q(0), c(0))
            .reset(q(0))
            .measure(q(0), c(1));
        let counts = Executor::new().shots(100).seed(8).run(&circ);
        assert_eq!(counts.get("01"), 100);
    }

    #[test]
    fn readout_error_flips_outcomes() {
        let mut circ = Circuit::new(1, 1);
        circ.measure(q(0), c(0));
        let noisy = Executor::new().shots(2000).seed(9).noise(NoiseModel {
            readout_flip: 0.25,
            ..NoiseModel::ideal()
        });
        let counts = noisy.run(&circ);
        let p1 = counts.probability("1");
        assert!((p1 - 0.25).abs() < 0.04, "p1 = {p1}");
    }

    #[test]
    fn reset_error_leaves_excited_population() {
        let mut circ = Circuit::new(1, 1);
        circ.x(q(0)).reset(q(0)).measure(q(0), c(0));
        let noisy = Executor::new().shots(2000).seed(10).noise(NoiseModel {
            reset_error: 0.2,
            ..NoiseModel::ideal()
        });
        let p1 = noisy.run(&circ).probability("1");
        assert!((p1 - 0.2).abs() < 0.04, "p1 = {p1}");
    }

    #[test]
    fn depolarizing_noise_degrades_bell_correlations() {
        let mut bell = Circuit::new(2, 2);
        bell.h(q(0)).cx(q(0), q(1)).measure_all();
        let noisy = Executor::new()
            .shots(2000)
            .seed(11)
            .noise(NoiseModel::depolarizing(0.05, 0.1));
        let counts = noisy.run(&bell);
        let bad = counts.probability("01") + counts.probability("10");
        assert!(bad > 0.01, "noise should produce anticorrelated outcomes");
        assert!(bad < 0.5, "noise should not dominate");
    }

    #[test]
    fn idle_noise_decays_waiting_qubits() {
        // q1 is excited then waits while q0 runs a long gate chain; with
        // amplitude-damping idle noise it should decay toward |0>.
        let depth = 30usize;
        let mut circ = Circuit::new(2, 1);
        circ.x(q(1));
        for _ in 0..depth {
            circ.h(q(0));
        }
        circ.measure(q(1), c(0));
        let gamma = 0.05;
        let noisy = Executor::new()
            .shots(3000)
            .seed(17)
            .noise(NoiseModel::ideal().with_idle_damping(gamma));
        let p1 = noisy.run(&circ).probability("1");
        // q1 idles for `depth` layers (the X layer touches it; the final
        // measurement layer too): expected survival ~ (1-gamma)^depth.
        let expect = (1.0 - gamma_f(gamma)).powi(depth as i32 - 1);
        assert!(
            (p1 - expect).abs() < 0.05,
            "survival {p1} vs expected {expect}"
        );
    }

    fn gamma_f(g: f64) -> f64 {
        g
    }

    #[test]
    fn idle_noise_is_noop_for_parallel_circuits() {
        // All qubits busy every layer: idle noise never fires.
        let mut circ = Circuit::new(2, 2);
        for _ in 0..10 {
            circ.h(q(0)).h(q(1));
        }
        circ.measure_all();
        let ideal = Executor::new().shots(500).seed(18).run(&circ);
        let noisy = Executor::new()
            .shots(500)
            .seed(18)
            .noise(NoiseModel::ideal().with_idle_damping(0.5))
            .run(&circ);
        assert_eq!(ideal, noisy);
    }

    #[test]
    fn memory_mode_matches_counts() {
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0)).measure(q(0), c(0));
        let exec = Executor::new().shots(500).seed(33);
        let memory = exec.run_memory(&circ);
        assert_eq!(memory.len(), 500);
        let counts = exec.run(&circ);
        let ones = memory.iter().filter(|m| m.as_str() == "1").count() as u64;
        assert_eq!(ones, counts.get("1"));
    }

    #[test]
    fn observer_counts_dynamic_circuit_operations() {
        // The defining DQC shot: gate, mid-circuit measure, conditioned
        // gate, reset, final measure.
        let mut circ = Circuit::new(2, 2);
        circ.x(q(0))
            .measure(q(0), c(0)) // mid-circuit: q0 is reset afterwards
            .x_if(q(1), c(0)) // fires every shot (outcome is 1)
            .reset(q(0))
            .measure(q(1), c(1));
        let obs = qobs::Observer::metrics_only();
        let counts = Executor::new()
            .shots(10)
            .seed(1)
            .observer(obs.clone())
            .run(&circ);
        assert_eq!(counts.total(), 10);
        let m = obs.metrics();
        assert_eq!(m.counter("executor.shots"), Some(10));
        assert_eq!(m.counter("executor.gates.x"), Some(20)); // X + fired X_if
        assert_eq!(m.counter("executor.resets"), Some(10));
        assert_eq!(m.counter("executor.measurements"), Some(20));
        assert_eq!(m.counter("executor.mid_circuit_measurements"), Some(10));
        assert_eq!(m.counter("executor.cc_fired"), Some(10));
        assert_eq!(m.counter("executor.cc_skipped"), Some(0));
        assert_eq!(m.counter("executor.noise_injections"), Some(0));
        assert_eq!(m.gauge("executor.qubits"), Some(2.0));
        assert_eq!(m.histogram("executor.run_ns").unwrap().count, 1);
    }

    #[test]
    fn observer_counts_skipped_conditionals() {
        let mut circ = Circuit::new(2, 2);
        circ.measure(q(0), c(0)).x_if(q(1), c(0)); // outcome 0: never fires
        circ.measure(q(1), c(1));
        let obs = qobs::Observer::metrics_only();
        Executor::new()
            .shots(8)
            .seed(2)
            .observer(obs.clone())
            .run(&circ);
        assert_eq!(obs.metrics().counter("executor.cc_skipped"), Some(8));
        assert_eq!(obs.metrics().counter("executor.cc_fired"), Some(0));
        assert_eq!(obs.metrics().counter("executor.gates.x"), None);
    }

    #[test]
    fn observer_counts_noise_trajectories() {
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0)).measure(q(0), c(0));
        let obs = qobs::Observer::metrics_only();
        Executor::new()
            .shots(5)
            .seed(3)
            .noise(NoiseModel::depolarizing(0.1, 0.1))
            .observer(obs.clone())
            .run(&circ);
        // One single-qubit channel application per H gate per shot.
        assert_eq!(obs.metrics().counter("executor.noise_injections"), Some(5));
    }

    #[test]
    fn observer_does_not_change_outcomes() {
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0)).cx(q(0), q(1)).measure_all();
        let plain = Executor::new().shots(300).seed(21).run(&circ);
        let observed = Executor::new()
            .shots(300)
            .seed(21)
            .observer(qobs::Observer::metrics_only())
            .run(&circ);
        assert_eq!(plain, observed);
    }

    #[test]
    fn observed_metrics_are_deterministic_per_seed() {
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0))
            .measure(q(0), c(0))
            .x_if(q(1), c(0))
            .measure(q(1), c(1));
        let run = || {
            let obs = qobs::Observer::metrics_only();
            Executor::new()
                .shots(256)
                .seed(99)
                .observer(obs.clone())
                .run(&circ);
            obs.metrics().to_json()
        };
        let (a, b) = (run(), run());
        // Identical counter sections (histograms carry wall-clock times,
        // which legitimately differ between runs).
        let counters = |s: &str| {
            let start = s.find("\"counters\"").unwrap();
            let end = s.find("\"gauges\"").unwrap();
            s[start..end].to_string()
        };
        assert_eq!(counters(&a), counters(&b));
    }

    #[test]
    fn disabled_observer_overhead_is_within_noise() {
        // A disabled observer must take the un-instrumented fast path; we
        // check the median wall-clock of interleaved runs stays within a
        // generous factor (the real overhead is one boolean branch, but CI
        // timers are noisy, so the threshold is deliberately loose).
        let mut circ = Circuit::new(4, 4);
        for _ in 0..8 {
            circ.h(q(0)).cx(q(0), q(1)).cx(q(1), q(2)).cx(q(2), q(3));
        }
        circ.measure_all();
        let time = |observed: bool| {
            let mut ex = Executor::new().shots(200).seed(5);
            if observed {
                ex = ex.observer(qobs::Observer::disabled());
            }
            let start = std::time::Instant::now();
            ex.run(&circ);
            start.elapsed()
        };
        // Warm-up, then interleave to cancel drift.
        time(false);
        time(true);
        let mut plain: Vec<_> = Vec::new();
        let mut disabled: Vec<_> = Vec::new();
        for _ in 0..9 {
            plain.push(time(false));
            disabled.push(time(true));
        }
        plain.sort();
        disabled.sort();
        let (p, d) = (plain[4].as_secs_f64(), disabled[4].as_secs_f64());
        assert!(
            d < p * 2.0,
            "disabled-observer median {d:.6}s vs plain {p:.6}s"
        );
    }

    /// A circuit whose every shot panics: `p(NaN)` poisons the amplitudes,
    /// so the following measurement draws `gen_bool(NaN)`.
    fn poisoned_circuit() -> Circuit {
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0)).p(f64::NAN, q(0)).measure(q(0), c(0));
        circ
    }

    /// A circuit where roughly half the shots panic: the `p(NaN)` gate is
    /// conditioned on a fair-coin measurement, so only the `1` branch is
    /// poisoned.
    fn half_poisoned_circuit() -> Circuit {
        let mut circ = Circuit::new(1, 2);
        circ.h(q(0)).measure(q(0), c(0));
        circ.gate_if(Gate::P(f64::NAN), &[q(0)], Condition::bit(c(0)));
        circ.measure(q(0), c(1));
        circ
    }

    #[test]
    fn resilient_run_matches_plain_run_when_nothing_fails() {
        let circ = dynamic_test_circuit();
        let exec = Executor::new()
            .shots(300)
            .seed(41)
            .noise(NoiseModel::depolarizing(0.02, 0.05));
        let plain = exec.run(&circ);
        let (counts, report) = exec.run_resilient(&circ);
        assert_eq!(counts, plain);
        assert_eq!(report.requested, 300);
        assert_eq!(report.completed, 300);
        assert_eq!(report.failed, 0);
        assert_eq!(report.discarded, 0);
        assert_eq!(report.termination, Termination::Completed);
    }

    #[test]
    fn resilient_counts_are_bit_identical_across_thread_counts() {
        let circ = dynamic_test_circuit();
        let exec = |threads: usize| Executor::new().shots(257).seed(0xFEED).threads(threads);
        let (one, _) = exec(1).run_resilient(&circ);
        let (four, _) = exec(4).run_resilient(&circ);
        assert_eq!(one, four);
    }

    #[test]
    fn panicking_shot_is_isolated_not_fatal() {
        // Every shot of the poisoned circuit panics; the run must survive
        // and account for all of them as failed.
        let (counts, report) = Executor::new()
            .shots(8)
            .seed(1)
            .threads(1)
            .run_resilient(&poisoned_circuit());
        assert!(counts.is_empty());
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed, 8);
        assert_eq!(report.termination, Termination::Completed);
    }

    #[test]
    fn partial_counts_survive_mixed_failures() {
        // Only the measured-1 branch panics: the measured-0 shots must
        // still be recorded, and completed + failed must cover every shot.
        let shots = 64;
        let (counts, report) = Executor::new()
            .shots(shots)
            .seed(5)
            .run_resilient(&half_poisoned_circuit());
        assert_eq!(report.completed + report.failed, shots);
        assert!(report.completed > 0, "some shots should survive");
        assert!(report.failed > 0, "some shots should fail");
        assert_eq!(counts.total(), report.completed);
        // Every surviving shot measured 0 both times.
        assert_eq!(counts.get("00"), report.completed);
    }

    #[test]
    fn exhausted_failed_shot_budget_returns_partial_counts() {
        // Acceptance criterion: an exhausted budget returns partial counts
        // plus a report instead of panicking.
        let (counts, report) = Executor::new()
            .shots(1000)
            .seed(2)
            .threads(1)
            .max_failed(5)
            .run_resilient(&poisoned_circuit());
        assert_eq!(report.termination, Termination::FailedShotBudget);
        assert_eq!(report.failed, 6, "stops as soon as failed exceeds 5");
        assert!(report.completed + report.failed + report.discarded < 1000);
        assert_eq!(counts.total(), report.completed);
    }

    #[test]
    fn expired_deadline_terminates_before_any_shot() {
        let circ = dynamic_test_circuit();
        let (counts, report) = Executor::new()
            .shots(100)
            .seed(3)
            .deadline(Duration::ZERO)
            .run_resilient(&circ);
        assert!(counts.is_empty());
        assert_eq!(report.completed, 0);
        assert_eq!(report.termination, Termination::Deadline);
    }

    #[test]
    fn drift_guard_discards_nan_shots_before_they_panic() {
        let (counts, report) = Executor::new()
            .shots(16)
            .seed(4)
            .drift_policy(DriftPolicy::DiscardShot)
            .run_resilient(&poisoned_circuit());
        assert!(counts.is_empty());
        assert_eq!(report.discarded, 16);
        assert_eq!(report.failed, 0, "guard fires before the panic");
        assert_eq!(report.termination, Termination::Completed);
    }

    #[test]
    fn drift_abort_policy_stops_the_run() {
        let (_, report) = Executor::new()
            .shots(100)
            .seed(5)
            .threads(1)
            .drift_policy(DriftPolicy::Abort)
            .run_resilient(&poisoned_circuit());
        assert_eq!(report.termination, Termination::Aborted);
        assert_eq!(report.completed + report.failed + report.discarded, 0);
    }

    #[test]
    fn renormalize_policy_rescues_benign_drift_and_discards_nan() {
        // With a negative tolerance every check trips; a healthy state is
        // renormalized (a no-op-sized rescale) and the shot completes.
        let circ = dynamic_test_circuit();
        let exec = Executor::new()
            .shots(50)
            .seed(6)
            .drift_policy(DriftPolicy::Renormalize)
            .drift_tolerance(-1.0);
        let obs = qobs::Observer::metrics_only();
        let (counts, report) = exec.observer(obs.clone()).run_resilient(&circ);
        assert_eq!(report.completed, 50);
        assert_eq!(counts.total(), 50);
        let renorms = obs.metrics().counter("executor.drift_renormalized");
        assert!(renorms.unwrap_or(0) > 0, "renormalizations must be counted");

        // A NaN norm cannot be rescaled: the shot is discarded instead.
        let (_, nan_report) = Executor::new()
            .shots(4)
            .seed(7)
            .drift_policy(DriftPolicy::Renormalize)
            .run_resilient(&poisoned_circuit());
        assert_eq!(nan_report.discarded, 4);
    }

    #[test]
    fn resilient_observer_counters_track_the_report() {
        let obs = qobs::Observer::metrics_only();
        let (_, report) = Executor::new()
            .shots(32)
            .seed(8)
            .observer(obs.clone())
            .run_resilient(&half_poisoned_circuit());
        let m = obs.metrics();
        assert_eq!(m.counter("executor.shots"), Some(report.completed));
        assert_eq!(m.counter("executor.shots_failed"), Some(report.failed));
        assert_eq!(m.counter("executor.shots_discarded"), Some(0));
        assert_eq!(m.histogram("executor.run_resilient_ns").unwrap().count, 1);
    }

    #[test]
    fn toffoli_under_1q_noise_perturbs_every_operand() {
        // Regression for channel_for_arity: arity-3 gates used to silently
        // reuse the 2-qubit channel on a 2-operand subset. They now take
        // the 1-qubit channel independently on each operand.
        let mut circ = Circuit::new(3, 3);
        circ.x(q(0)).x(q(1)).ccx(q(0), q(1), q(2)).measure_all();
        let obs = qobs::Observer::metrics_only();
        let shots = 600;
        let counts = Executor::new()
            .shots(shots)
            .seed(12)
            .noise(NoiseModel::depolarizing(0.25, 0.0))
            .observer(obs.clone())
            .run(&circ);
        // Noise must actually reach the Toffoli: the ideal outcome can no
        // longer be the only one.
        assert!(counts.get("111") < shots, "noise never touched the CCX");
        // Each of the three operands must see errors (keys are MSB-first:
        // position 2 - i holds clbit i).
        for bit in 0..3 {
            let flipped: u64 = counts
                .iter()
                .filter(|(key, _)| key.as_bytes()[2 - bit] == b'0')
                .map(|(_, n)| n)
                .sum();
            assert!(flipped > 0, "operand {bit} never saw an error");
        }
        // Two X gates + per-operand CCX noise = 2 + 3 injections per shot.
        assert_eq!(
            obs.metrics().counter("executor.noise_injections"),
            Some(5 * shots)
        );
    }

    #[test]
    fn toffoli_no_longer_borrows_the_2q_channel() {
        // With only a 2-qubit channel configured, a Toffoli is now
        // noise-free instead of silently noising a 2-operand subset.
        let mut circ = Circuit::new(3, 3);
        circ.x(q(0)).x(q(1)).ccx(q(0), q(1), q(2)).measure_all();
        let counts = Executor::new()
            .shots(200)
            .seed(13)
            .noise(NoiseModel::depolarizing(0.0, 0.5))
            .run(&circ);
        assert_eq!(counts.get("111"), 200);
    }

    #[test]
    fn final_state_is_returned() {
        let mut circ = Circuit::new(2, 1);
        circ.x(q(1)).measure(q(0), c(0));
        let mut rng = StdRng::seed_from_u64(12);
        let (classical, state) = Executor::new().run_shot_with_state(&circ, &mut rng);
        assert_eq!(classical, vec![false]);
        assert!((state.prob_one(1) - 1.0).abs() < 1e-12);
    }

    // ---- fault-injection seam -------------------------------------------

    /// Test hook firing fixed fault kinds unconditionally (or, for panics,
    /// on odd shots only) — a pure function of its configuration, as the
    /// [`FaultHook`] contract requires.
    #[derive(Debug, Default)]
    struct TestHook {
        flip_measures: bool,
        leak_resets: bool,
        drop_gates: bool,
        dup_gates: bool,
        flip_conditions: bool,
        panic_odd_shots: bool,
        delay: Option<Duration>,
    }

    impl FaultHook for TestHook {
        fn shot_panic(&self, shot: u64) -> bool {
            self.panic_odd_shots && shot % 2 == 1
        }
        fn shot_delay(&self, _shot: u64) -> Option<Duration> {
            self.delay
        }
        fn gate_fate(&self, _shot: u64, _site: usize) -> GateFate {
            if self.drop_gates {
                GateFate::Drop
            } else if self.dup_gates {
                GateFate::Duplicate
            } else {
                GateFate::Execute
            }
        }
        fn reset_leak(&self, _shot: u64, _site: usize) -> bool {
            self.leak_resets
        }
        fn measure_flip(&self, _shot: u64, _site: usize) -> bool {
            self.flip_measures
        }
        fn condition_fault(&self, _shot: u64, _site: usize, num_bits: usize) -> Option<CcFault> {
            (self.flip_conditions && num_bits > 0).then_some(CcFault::Flip(0))
        }
    }

    #[test]
    fn noop_hook_is_bit_identical_to_no_hook() {
        // A hook whose every decision is "no fault" must not perturb
        // anything: fault draws never touch the shot's RNG stream.
        let circ = dynamic_test_circuit();
        let exec = Executor::new()
            .shots(200)
            .seed(21)
            .noise(NoiseModel::depolarizing(0.02, 0.05));
        let bare = exec.run_memory(&circ);
        let hooked = exec
            .clone()
            .fault_hook(Arc::new(TestHook::default()))
            .run_memory(&circ);
        assert_eq!(bare, hooked);
    }

    #[test]
    fn measure_flip_fault_flips_the_recorded_bit() {
        let mut circ = Circuit::new(1, 1);
        circ.x(q(0)).measure(q(0), c(0));
        let hook = TestHook {
            flip_measures: true,
            ..TestHook::default()
        };
        let counts = Executor::new()
            .shots(20)
            .seed(1)
            .fault_hook(Arc::new(hook))
            .run(&circ);
        assert_eq!(counts.get("0"), 20, "every readout flipped 1 -> 0");
    }

    #[test]
    fn reset_leak_fault_leaves_the_qubit_in_one() {
        let mut circ = Circuit::new(1, 1);
        circ.reset(q(0)).measure(q(0), c(0));
        let hook = TestHook {
            leak_resets: true,
            ..TestHook::default()
        };
        let counts = Executor::new()
            .shots(20)
            .seed(2)
            .fault_hook(Arc::new(hook))
            .run(&circ);
        assert_eq!(counts.get("1"), 20, "every reset leaked |1>");
    }

    #[test]
    fn gate_drop_and_duplication_faults() {
        let mut circ = Circuit::new(1, 1);
        circ.x(q(0)).measure(q(0), c(0));
        let run = |hook: TestHook| {
            Executor::new()
                .shots(10)
                .seed(3)
                .fault_hook(Arc::new(hook))
                .run(&circ)
        };
        let dropped = run(TestHook {
            drop_gates: true,
            ..TestHook::default()
        });
        assert_eq!(dropped.get("0"), 10, "dropped X never fires");
        let duplicated = run(TestHook {
            dup_gates: true,
            ..TestHook::default()
        });
        assert_eq!(duplicated.get("0"), 10, "X twice is the identity");
    }

    #[test]
    fn condition_flip_fault_fires_a_dormant_branch() {
        // c0 is never written, so the conditioned X is dead code — until
        // the injected flip corrupts c0 right before evaluation.
        let mut circ = Circuit::new(1, 2);
        circ.x_if(q(0), c(0)).measure(q(0), c(1));
        let bare = Executor::new().shots(10).seed(4).run(&circ);
        assert_eq!(bare.get("00"), 10);
        let hook = TestHook {
            flip_conditions: true,
            ..TestHook::default()
        };
        let counts = Executor::new()
            .shots(10)
            .seed(4)
            .fault_hook(Arc::new(hook))
            .run(&circ);
        // The corruption lands in the register itself, so c0 reads 1 too.
        assert_eq!(counts.get("11"), 10);
    }

    #[test]
    fn injected_panics_are_isolated_and_counted() {
        let mut circ = Circuit::new(1, 1);
        circ.x(q(0)).measure(q(0), c(0));
        let obs = qobs::Observer::metrics_only();
        let (counts, report) = Executor::new()
            .shots(10)
            .seed(5)
            .threads(2)
            .observer(obs.clone())
            .fault_hook(Arc::new(TestHook {
                panic_odd_shots: true,
                ..TestHook::default()
            }))
            .run_resilient(&circ);
        assert_eq!(report.completed, 5);
        assert_eq!(report.failed, 5);
        assert_eq!(report.termination, Termination::Completed);
        assert_eq!(counts.get("1"), 5, "even shots complete normally");
        let m = obs.metrics();
        assert_eq!(m.counter("fault.injected.panic"), Some(5));
        assert_eq!(m.counter("fault.caught.panic"), Some(5));
    }

    #[test]
    fn injected_delay_trips_the_deadline() {
        let mut circ = Circuit::new(1, 1);
        circ.x(q(0)).measure(q(0), c(0));
        let (counts, report) = Executor::new()
            .shots(1000)
            .seed(6)
            .threads(1)
            .deadline(Duration::from_millis(20))
            .fault_hook(Arc::new(TestHook {
                delay: Some(Duration::from_millis(5)),
                ..TestHook::default()
            }))
            .run_resilient(&circ);
        assert_eq!(report.termination, Termination::Deadline);
        assert!(report.completed < 1000, "deadline must cut the run short");
        assert_eq!(
            counts.total(),
            report.completed,
            "partial counts well-formed"
        );
    }

    #[test]
    fn fault_counters_are_bit_identical_across_thread_counts() {
        // Shot-keyed hooks keep the determinism contract: counts AND
        // fault.* counters agree at 1 vs 8 threads.
        let circ = dynamic_test_circuit();
        let run = |threads: usize| {
            let obs = qobs::Observer::metrics_only();
            let (counts, _) = Executor::new()
                .shots(257)
                .seed(0xFA)
                .threads(threads)
                .observer(obs.clone())
                .fault_hook(Arc::new(TestHook {
                    flip_measures: true,
                    panic_odd_shots: true,
                    ..TestHook::default()
                }))
                .run_resilient(&circ);
            // Counters only: the metrics JSON also holds wall-clock span
            // histograms, which legitimately differ run to run.
            let json = obs.metrics().to_json();
            let start = json.find("\"counters\":{").expect("counters section");
            let end = start + json[start..].find('}').expect("closing brace");
            (counts, json[start..=end].to_string())
        };
        let (counts1, json1) = run(1);
        let (counts8, json8) = run(8);
        assert_eq!(counts1, counts8);
        assert!(json1.contains("fault.injected.meas-flip"), "{json1}");
        assert_eq!(json1, json8);
    }

    #[test]
    fn only_run_resilient_isolates_panicking_shots() {
        // `run` and `run_memory` have no budget, so a panicking shot takes
        // the run down at every thread count; `run_resilient` counts it as
        // failed and returns.
        let hook = || {
            Arc::new(TestHook {
                panic_odd_shots: true,
                ..TestHook::default()
            })
        };
        let circ = poisonless_bell();
        for threads in [1, 4] {
            let exec = Executor::new()
                .shots(16)
                .seed(7)
                .threads(threads)
                .fault_hook(hook());
            let run = catch_unwind(AssertUnwindSafe(|| exec.run(&circ)));
            assert!(run.is_err(), "run must propagate at {threads} threads");
            let memory = catch_unwind(AssertUnwindSafe(|| exec.run_memory(&circ)));
            assert!(
                memory.is_err(),
                "run_memory must propagate at {threads} threads"
            );
            let (counts, report) = exec.run_resilient(&circ);
            assert_eq!(report.failed, 8, "threads = {threads}");
            assert_eq!(report.completed, 8, "threads = {threads}");
            assert_eq!(report.termination, Termination::Completed);
            assert_eq!(counts.total(), 8);
        }
    }

    #[test]
    fn each_entry_point_has_its_own_observer_and_trace_surface() {
        const RESILIENT_ONLY: [&str; 3] = [
            "executor.shots_failed",
            "executor.shots_discarded",
            "executor.drift_renormalized",
        ];
        const TREE_ONLY: [&str; 6] = [
            "prefix.nodes",
            "prefix.leaves",
            "prefix.pruned_branches",
            "prefix.shots_replayed",
            "prefix.fused_blocks",
            "prefix.fused_gates",
        ];
        let circ = dynamic_test_circuit();
        for entry in ["run", "run_memory", "run_resilient"] {
            let resilient = entry == "run_resilient";
            let run_entry = |exec: &Executor| match entry {
                "run" => drop(exec.run(&circ)),
                "run_memory" => drop(exec.run_memory(&circ)),
                _ => drop(exec.run_resilient(&circ)),
            };
            for engine in [Engine::Shots, Engine::Prefix] {
                for threads in [1, 4] {
                    let case = format!("{entry} / {engine} / {threads} threads");
                    let obs = qobs::Observer::metrics_only();
                    let exec = Executor::new()
                        .shots(64)
                        .seed(3)
                        .threads(threads)
                        .engine(engine)
                        .observer(obs.clone());
                    run_entry(&exec);
                    let m = obs.metrics();
                    for key in RESILIENT_ONLY {
                        assert_eq!(m.counter(key).is_some(), resilient, "{case}: {key}");
                    }
                    for key in TREE_ONLY {
                        let tree_ran = engine == Engine::Prefix;
                        assert_eq!(m.counter(key).is_some(), tree_ran, "{case}: {key}");
                    }
                    let (own, other) = if resilient {
                        ("executor.run_resilient_ns", "executor.run_ns")
                    } else {
                        ("executor.run_ns", "executor.run_resilient_ns")
                    };
                    assert_eq!(m.histogram(own).map(|h| h.count), Some(1), "{case}");
                    assert!(m.histogram(other).is_none(), "{case}");

                    // The tracer forces the per-shot loop; the closing
                    // instant names the entry point's fields.
                    let tracer = Tracer::test();
                    run_entry(&exec.clone().tracer(tracer.clone()));
                    let run_end: Vec<&str> = tracer
                        .events()
                        .iter()
                        .find_map(|e| match e {
                            TraceEvent::Instant {
                                name: "executor.run_end",
                                args,
                                ..
                            } => Some(args.iter().map(|(k, _)| *k).collect()),
                            _ => None,
                        })
                        .unwrap_or_else(|| panic!("{case}: no executor.run_end instant"));
                    let expected: &[&str] = if resilient {
                        &["termination", "completed", "failed", "discarded"]
                    } else {
                        &["termination", "shots"]
                    };
                    assert_eq!(run_end, expected, "{case}");
                }
            }
        }
    }

    // ---- tracing --------------------------------------------------------

    #[test]
    fn termination_variants_render_stable_one_liners() {
        assert_eq!(Termination::Completed.to_string(), "completed");
        assert_eq!(Termination::Deadline.to_string(), "deadline");
        assert_eq!(
            Termination::FailedShotBudget.to_string(),
            "failed-shot-budget"
        );
        assert_eq!(Termination::Aborted.to_string(), "aborted");
        assert_eq!(Termination::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_shot() {
        let token = CancelToken::new();
        token.cancel();
        let exec = Executor::new()
            .shots(256)
            .seed(3)
            .threads(2)
            .cancel_token(token);
        let (counts, report) = exec.run_resilient(&dynamic_test_circuit());
        assert_eq!(report.termination, Termination::Cancelled);
        assert_eq!(report.completed, 0);
        assert_eq!(counts.total(), 0);
    }

    #[test]
    fn cancelling_mid_run_returns_partial_counts() {
        // A fault hook that stalls every shot keeps the run alive long
        // enough for another thread to cancel it deterministically.
        #[derive(Debug)]
        struct Stall;
        impl crate::fault::FaultHook for Stall {
            fn shot_delay(&self, _shot: u64) -> Option<Duration> {
                Some(Duration::from_millis(5))
            }
        }
        let token = CancelToken::new();
        let handle = token.clone();
        let exec = Executor::new()
            .shots(100_000)
            .seed(5)
            .threads(1)
            .fault_hook(Arc::new(Stall))
            .cancel_token(token);
        let circuit = dynamic_test_circuit();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            handle.cancel();
        });
        let (counts, report) = exec.run_resilient(&circuit);
        waker.join().expect("cancel thread");
        assert_eq!(report.termination, Termination::Cancelled);
        assert!(report.completed < report.requested);
        assert_eq!(counts.total(), report.completed);
    }

    #[test]
    fn uncancelled_token_leaves_results_bit_identical() {
        let circuit = dynamic_test_circuit();
        let plain = Executor::new().shots(512).seed(9).run(&circuit);
        let (with_token, report) = Executor::new()
            .shots(512)
            .seed(9)
            .cancel_token(CancelToken::new())
            .run_resilient(&circuit);
        assert_eq!(report.termination, Termination::Completed);
        assert_eq!(plain, with_token);
    }

    #[test]
    fn run_report_display_is_one_stable_line() {
        let report = RunReport {
            requested: 1024,
            completed: 1000,
            failed: 20,
            discarded: 4,
            termination: Termination::FailedShotBudget,
        };
        let line = report.to_string();
        assert_eq!(
            line,
            "completed 1000/1024 shots (20 failed, 4 discarded): failed-shot-budget"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn tracing_never_perturbs_results() {
        // The tracer must not consume shot RNG streams: traced and
        // untraced runs are bit-identical, noise and all.
        let circ = dynamic_test_circuit();
        let exec = || {
            Executor::new()
                .shots(199)
                .seed(17)
                .noise(NoiseModel::depolarizing(0.02, 0.05))
        };
        let plain = exec().run(&circ);
        let traced = exec().tracer(Tracer::wall()).run(&circ);
        assert_eq!(plain, traced);
        let (resilient, report) = exec().tracer(Tracer::test()).run_resilient(&circ);
        assert_eq!(plain, resilient);
        assert_eq!(report.termination, Termination::Completed);
    }

    #[test]
    fn traced_run_is_byte_identical_across_thread_counts() {
        // The acceptance-criterion property: under the test clock the whole
        // exported Chrome trace — event order and timestamps — is a pure
        // function of (circuit, seed, shots), never of the thread count.
        let circ = dynamic_test_circuit();
        let run = |threads: usize| {
            let tracer = Tracer::test();
            let exec = Executor::new()
                .shots(64)
                .seed(9)
                .threads(threads)
                .observer(qobs::Observer::metrics_only())
                .tracer(tracer.clone());
            let (counts, _) = exec.run_resilient(&circ);
            (counts, tracer.export_chrome())
        };
        let (counts1, json1) = run(1);
        let (counts8, json8) = run(8);
        assert_eq!(counts1, counts8);
        assert_eq!(json1, json8);
        assert!(qobs::json::validate(&json1).is_ok());
        assert!(json1.contains(r#""name":"shot""#), "{json1}");
        assert!(json1.contains(r#""name":"measure""#), "{json1}");
        assert!(json1.contains(r#""name":"executor.run_resilient""#));
        assert!(json1.contains(r#""termination":"completed""#));
    }

    #[test]
    fn trace_surfaces_fault_instants_and_sub_spans() {
        let circ = dynamic_test_circuit();
        let tracer = Tracer::test();
        let _ = Executor::new()
            .shots(4)
            .seed(3)
            .threads(1)
            .tracer(tracer.clone())
            .fault_hook(Arc::new(TestHook {
                flip_measures: true,
                leak_resets: true,
                ..TestHook::default()
            }))
            .run(&circ);
        let events = tracer.events();
        let instants: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Instant { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert!(
            instants.contains(&"fault.injected.meas-flip"),
            "{instants:?}"
        );
        assert!(
            instants.contains(&"fault.injected.reset-leak"),
            "{instants:?}"
        );
        // Sub-spans appear between the owning shot's begin/end pair.
        let begins: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Begin { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert!(begins.contains(&"shot"));
        assert!(begins.contains(&"measure"));
        assert!(begins.contains(&"reset"));
        assert!(begins.contains(&"condition"));
    }

    #[test]
    fn panicking_shot_leaves_balanced_trace_with_marker() {
        let tracer = Tracer::test();
        let (_, report) = Executor::new()
            .shots(8)
            .seed(2)
            .threads(1)
            .tracer(tracer.clone())
            .fault_hook(Arc::new(TestHook {
                panic_odd_shots: true,
                ..TestHook::default()
            }))
            .run_resilient(&poisonless_bell());
        assert_eq!(report.failed, 4);
        let events = tracer.events();
        let begins = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Begin { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::End { .. }))
            .count();
        assert_eq!(begins, ends, "panicking shots still close their spans");
        let panics = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Instant {
                        name: "shot.panic",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(panics, 4);
        // The injected panic is also visible as its fault instant.
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Instant {
                name: "fault.injected.panic",
                ..
            }
        )));
    }

    /// A small measured circuit with no poison, for panic-injection tests.
    fn poisonless_bell() -> Circuit {
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0)).cx(q(0), q(1)).measure_all();
        circ
    }

    #[test]
    fn run_end_instant_reports_early_termination() {
        let tracer = Tracer::test();
        let (_, report) = Executor::new()
            .shots(50)
            .seed(5)
            .threads(1)
            .max_failed(0)
            .tracer(tracer.clone())
            .run_resilient(&poisoned_circuit());
        assert_eq!(report.termination, Termination::FailedShotBudget);
        let json = tracer.export_chrome();
        assert!(
            json.contains(r#""termination":"failed-shot-budget""#),
            "{json}"
        );
        assert!(json.contains("budget.failed-shots"), "{json}");
    }

    #[test]
    fn apply_histograms_flush_when_traced_and_observed() {
        let circ = dynamic_test_circuit();
        let obs = qobs::Observer::metrics_only();
        let _ = Executor::new()
            .shots(16)
            .seed(1)
            .observer(obs.clone())
            .tracer(Tracer::test())
            .run(&circ);
        let h = obs
            .metrics()
            .histogram("executor.apply.h_ns")
            .expect("per-gate apply histogram");
        // dynamic_test_circuit applies two H gates per shot.
        assert_eq!(h.count, 32);
        // Without a tracer the histograms are absent (no clock reads on the
        // metrics-only hot path).
        let obs2 = qobs::Observer::metrics_only();
        let _ = Executor::new()
            .shots(16)
            .seed(1)
            .observer(obs2.clone())
            .run(&circ);
        assert!(obs2.metrics().histogram("executor.apply.h_ns").is_none());
    }
}
