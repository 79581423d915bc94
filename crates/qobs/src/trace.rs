//! Hierarchical tracing with a monotonic clock seam and deterministic merge.
//!
//! [`Tracer`] is the trace-side sibling of [`crate::Observer`]: a
//! cheap-to-clone handle the executor and pipeline thread through their hot
//! paths. A disabled tracer is `None` behind the handle, so every
//! instrumentation site costs exactly one branch — the same
//! zero-overhead-when-disabled guarantee the metrics layer gives, enforced
//! by the `perf_baseline --check` overhead assertion in CI.
//!
//! # Clock seam
//!
//! Timestamps come from a [`ClockMode`] chosen at construction:
//!
//! * [`Tracer::wall`] — nanoseconds since the tracer's creation, read from a
//!   shared `Instant` anchor. Real profiles use this.
//! * [`Tracer::test`] — a deterministic virtual clock: every local buffer
//!   owns its own tick counter (shot `i` starts at `(i + 1) * 1_000_000`
//!   virtual ns, top-level buffers draw from a shared sequential lane), and
//!   each timestamp request advances it by a fixed step. No wall clock is
//!   ever read, so traces are byte-identical run to run **and thread count
//!   to thread count** — the property the check.sh trace gate pins.
//!
//! # Determinism contract for merged spans
//!
//! Like `Counts::merge`, the trace of a parallel run is assembled from
//! worker-local buffers in shot order: each shot records into its own
//! [`LocalTrace`] (no shared state on the hot path), workers return their
//! buffers per contiguous chunk, and the driver submits them to the shared
//! log in chunk order. Event order in the exported trace is therefore a pure
//! function of `(circuit, seed, shots)` — never of the thread count or of
//! which worker finished first. Under [`Tracer::test`] the timestamps are
//! deterministic too, so the whole exported file is byte-identical.
//!
//! ```
//! use qobs::trace::Tracer;
//!
//! let tracer = Tracer::test();
//! let mut shot = tracer.shot_local(0).expect("enabled");
//! shot.begin("shot");
//! shot.instant("fault.injected.meas-flip");
//! shot.end();
//! tracer.submit(shot.into_events());
//! let json = tracer.export_chrome();
//! assert!(qobs::json::validate(&json).is_ok());
//! assert!(json.contains(r#""ph":"B""#) && json.contains(r#""ph":"i""#));
//! ```

use crate::json::{number, JsonWriter};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Virtual-ns gap between consecutive shot lanes under [`Tracer::test`].
const TEST_SHOT_BASE: u64 = 1_000_000;
/// Virtual ns each test-clock timestamp request advances the local clock.
const TEST_STEP: u64 = 1_000;
/// Number of Chrome `tid` lanes shots are spread across (deterministically,
/// by shot index — not by worker thread, which would break byte-identity).
const SHOT_LANES: u64 = 8;
/// The Chrome `tid` of the top-level lane (pipeline phases, run spans).
pub const TOP_TID: u32 = 0;

/// Where timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Monotonic wall clock, anchored at tracer creation.
    Wall,
    /// Deterministic virtual ticks (see the module docs).
    Test,
}

/// A typed argument of an instant event, rendered into the Chrome `args`
/// object.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

/// One recorded trace event. Names are `&'static str` so the recording hot
/// path never allocates for the common case.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A span opened at `ts` (virtual or wall ns) on lane `tid`.
    Begin {
        /// Span name.
        name: &'static str,
        /// Timestamp in ns.
        ts: u64,
        /// Chrome lane.
        tid: u32,
    },
    /// The innermost open span on lane `tid` closed at `ts`.
    End {
        /// Span name (matches the `Begin` it closes).
        name: &'static str,
        /// Timestamp in ns.
        ts: u64,
        /// Chrome lane.
        tid: u32,
    },
    /// A point-in-time marker with optional arguments.
    Instant {
        /// Event name.
        name: &'static str,
        /// Timestamp in ns.
        ts: u64,
        /// Chrome lane.
        tid: u32,
        /// Key/value arguments rendered into the Chrome `args` object.
        args: Vec<(&'static str, FieldValue)>,
    },
}

impl TraceEvent {
    fn ts(&self) -> u64 {
        match self {
            TraceEvent::Begin { ts, .. }
            | TraceEvent::End { ts, .. }
            | TraceEvent::Instant { ts, .. } => *ts,
        }
    }

    fn tid(&self) -> u32 {
        match self {
            TraceEvent::Begin { tid, .. }
            | TraceEvent::End { tid, .. }
            | TraceEvent::Instant { tid, .. } => *tid,
        }
    }
}

#[derive(Debug)]
struct TraceShared {
    mode: ClockMode,
    anchor: Instant,
    /// Sequential tick allocator for top-level lanes under the test clock.
    top_next: AtomicU64,
    log: Mutex<Vec<TraceEvent>>,
}

/// A cheap-to-clone tracing handle; `None` inside means disabled and every
/// call short-circuits on that single branch.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<TraceShared>>,
}

impl Tracer {
    /// A tracer that records nothing; every instrumentation site costs one
    /// branch on an `Option` discriminant.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { shared: None }
    }

    /// An enabled tracer timestamping from the monotonic wall clock.
    #[must_use]
    pub fn wall() -> Self {
        Self::enabled(ClockMode::Wall)
    }

    /// An enabled tracer on the deterministic virtual clock (see the module
    /// docs); traces are byte-identical across runs and thread counts.
    #[must_use]
    pub fn test() -> Self {
        Self::enabled(ClockMode::Test)
    }

    /// An enabled tracer with the given clock mode.
    #[must_use]
    pub fn enabled(mode: ClockMode) -> Self {
        Tracer {
            shared: Some(Arc::new(TraceShared {
                mode,
                anchor: Instant::now(),
                top_next: AtomicU64::new(0),
                log: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this tracer records anything.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The clock mode, or `None` when disabled.
    #[must_use]
    pub fn mode(&self) -> Option<ClockMode> {
        self.shared.as_ref().map(|s| s.mode)
    }

    /// A local buffer for shot `shot`, or `None` when disabled.
    ///
    /// The shot's lane and (under the test clock) its timestamp base are
    /// pure functions of the shot index, so the recorded events never depend
    /// on which worker thread ran the shot.
    #[must_use]
    #[inline]
    pub fn shot_local(&self, shot: u64) -> Option<LocalTrace> {
        let shared = self.shared.as_ref()?;
        let tid = 1 + (shot % SHOT_LANES) as u32;
        let clock = match shared.mode {
            ClockMode::Wall => LocalClock::Wall {
                anchor: shared.anchor,
            },
            ClockMode::Test => LocalClock::Test {
                next: (shot + 1) * TEST_SHOT_BASE,
            },
        };
        Some(LocalTrace::new(clock, tid))
    }

    /// A local buffer on the top-level lane (pipeline phases, run spans), or
    /// `None` when disabled. Test-clock timestamps draw from a shared
    /// sequential lane; top-level instrumentation runs on one thread, so the
    /// allocation order — and hence the trace — stays deterministic.
    #[must_use]
    pub fn top_local(&self) -> Option<LocalTrace> {
        let shared = self.shared.as_ref()?;
        let clock = match shared.mode {
            ClockMode::Wall => LocalClock::Wall {
                anchor: shared.anchor,
            },
            ClockMode::Test => LocalClock::Shared {
                next: Arc::clone(shared),
            },
        };
        Some(LocalTrace::new(clock, TOP_TID))
    }

    /// Appends a batch of events to the shared log. Drivers call this in
    /// shot/chunk order, which is what makes the merged trace deterministic.
    pub fn submit(&self, events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        if let Some(shared) = &self.shared {
            shared.log.lock().expect("trace log lock").extend(events);
        }
    }

    /// A snapshot of every submitted event, in submission order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.shared {
            Some(shared) => shared.log.lock().expect("trace log lock").clone(),
            None => Vec::new(),
        }
    }

    /// Exports the submitted events as Chrome trace-event JSON
    /// (array-of-events form, loadable in `chrome://tracing` and Perfetto).
    #[must_use]
    pub fn export_chrome(&self) -> String {
        export_chrome(&self.events())
    }

    /// A compact text summary of the submitted events (see [`summary`]).
    #[must_use]
    pub fn summary(&self, top_n: usize) -> String {
        summary(&self.events(), top_n)
    }
}

#[derive(Debug)]
enum LocalClock {
    Wall { anchor: Instant },
    Test { next: u64 },
    Shared { next: Arc<TraceShared> },
}

impl LocalClock {
    fn now(&mut self) -> u64 {
        match self {
            LocalClock::Wall { anchor } => {
                u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            LocalClock::Test { next } => {
                let t = *next;
                *next += TEST_STEP;
                t
            }
            LocalClock::Shared { next } => next.top_next.fetch_add(TEST_STEP, Ordering::Relaxed),
        }
    }
}

/// A thread-local (more precisely: owner-local) span buffer.
///
/// Records begin/end spans and instant events with no locking and no shared
/// state; the owner hands the finished buffer to [`Tracer::submit`] (or
/// lets the driver do so) in deterministic order.
#[derive(Debug)]
pub struct LocalTrace {
    clock: LocalClock,
    tid: u32,
    events: Vec<TraceEvent>,
    open: Vec<&'static str>,
}

impl LocalTrace {
    fn new(clock: LocalClock, tid: u32) -> Self {
        LocalTrace {
            clock,
            tid,
            events: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Reads the local clock (virtual or wall ns). Exposed so callers can
    /// time regions into histograms without emitting span events.
    #[inline]
    pub fn now(&mut self) -> u64 {
        self.clock.now()
    }

    /// Opens a span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        let ts = self.clock.now();
        self.open.push(name);
        self.events.push(TraceEvent::Begin {
            name,
            ts,
            tid: self.tid,
        });
    }

    /// Closes the innermost open span; a no-op when none is open.
    #[inline]
    pub fn end(&mut self) {
        if let Some(name) = self.open.pop() {
            let ts = self.clock.now();
            self.events.push(TraceEvent::End {
                name,
                ts,
                tid: self.tid,
            });
        }
    }

    /// Records an instant event with no arguments.
    #[inline]
    pub fn instant(&mut self, name: &'static str) {
        self.instant_with(name, Vec::new());
    }

    /// Records an instant event carrying arguments.
    pub fn instant_with(&mut self, name: &'static str, args: Vec<(&'static str, FieldValue)>) {
        let ts = self.clock.now();
        self.events.push(TraceEvent::Instant {
            name,
            ts,
            tid: self.tid,
            args,
        });
    }

    /// Closes every span still open and records `marker` — the unwind path:
    /// a panicking shot still produces a balanced trace with the panic
    /// visible as an instant on its span.
    pub fn abort_open(&mut self, marker: &'static str) {
        while !self.open.is_empty() {
            self.end();
        }
        self.instant(marker);
    }

    /// Number of spans currently open.
    #[must_use]
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Consumes the buffer, returning its events for [`Tracer::submit`].
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// Renders events as Chrome trace-event JSON (the array-of-events form).
///
/// Timestamps are converted from ns to the format's microseconds; under the
/// test clock they are whole µs, so the rendering is exact and stable.
#[must_use]
pub fn export_chrome(events: &[TraceEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    for e in events {
        w.begin_object();
        let (name, ph) = match e {
            TraceEvent::Begin { name, .. } => (*name, "B"),
            TraceEvent::End { name, .. } => (*name, "E"),
            TraceEvent::Instant { name, .. } => (*name, "i"),
        };
        w.key("name");
        w.string(name);
        w.key("cat");
        w.string("dqct");
        w.key("ph");
        w.string(ph);
        w.key("ts");
        w.raw(&number(e.ts() as f64 / 1_000.0));
        w.key("pid");
        w.uint(1);
        w.key("tid");
        w.uint(u64::from(e.tid()));
        if let TraceEvent::Instant { args, .. } = e {
            w.key("s");
            w.string("t");
            if !args.is_empty() {
                w.key("args");
                w.begin_object();
                for (k, v) in args {
                    w.key(k);
                    match v {
                        FieldValue::U64(v) => w.uint(*v),
                        FieldValue::I64(v) => w.int(*v),
                        FieldValue::F64(v) => w.float(*v),
                        FieldValue::Bool(v) => w.bool(*v),
                        FieldValue::Str(v) => w.string(v),
                    }
                }
                w.end_object();
            }
        }
        w.end_object();
    }
    w.end_array();
    w.finish()
}

/// Per-span-name aggregate used by [`summary`].
#[derive(Debug, Default, Clone, Copy)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// A compact text summary: the top `top_n` span names by total time, with
/// call counts and self time (total minus time spent in nested spans), plus
/// instant-event counts. Works on both clock modes; under the test clock
/// the "times" are virtual ticks, which still rank nesting structure.
#[must_use]
pub fn summary(events: &[TraceEvent], top_n: usize) -> String {
    let mut stats: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    let mut instants: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Per-lane stacks of (name, begin_ts, child_ns).
    let mut stacks: BTreeMap<u32, Vec<(&'static str, u64, u64)>> = BTreeMap::new();
    for e in events {
        let stack = stacks.entry(e.tid()).or_default();
        match e {
            TraceEvent::Begin { name, ts, .. } => stack.push((name, *ts, 0)),
            TraceEvent::End { ts, .. } => {
                if let Some((name, begin, child_ns)) = stack.pop() {
                    let dur = ts.saturating_sub(begin);
                    let stat = stats.entry(name).or_default();
                    stat.count += 1;
                    stat.total_ns += dur;
                    stat.self_ns += dur.saturating_sub(child_ns);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
            }
            TraceEvent::Instant { name, .. } => *instants.entry(name).or_default() += 1,
        }
    }

    let mut rows: Vec<(&'static str, SpanStat)> = stats.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    rows.truncate(top_n);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>10} {:>14} {:>14}",
        "span", "count", "total_us", "self_us"
    );
    for (name, s) in &rows {
        let _ = writeln!(
            out,
            "{:<40} {:>10} {:>14.1} {:>14.1}",
            name,
            s.count,
            s.total_ns as f64 / 1e3,
            s.self_ns as f64 / 1e3
        );
    }
    if !instants.is_empty() {
        let _ = writeln!(out, "instants:");
        for (name, n) in &instants {
            let _ = writeln!(out, "  {name} x{n}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn disabled_tracer_hands_out_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(t.shot_local(3).is_none());
        assert!(t.top_local().is_none());
        assert_eq!(t.export_chrome(), "[]");
        t.submit(vec![]); // harmless
        assert!(t.events().is_empty());
    }

    #[test]
    fn test_clock_is_a_pure_function_of_the_shot_index() {
        let record = |tracer: &Tracer, shot: u64| {
            let mut lt = tracer.shot_local(shot).expect("enabled");
            lt.begin("shot");
            lt.begin("measure");
            lt.end();
            lt.instant("fault.injected.meas-flip");
            lt.end();
            lt.into_events()
        };
        let a = Tracer::test();
        let b = Tracer::test();
        // Record shots in opposite orders; per-shot buffers must not care.
        let (a0, a1) = (record(&a, 0), record(&a, 1));
        let (b1, b0) = (record(&b, 1), record(&b, 0));
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
        // Shot 1's lane and base differ from shot 0's.
        assert_eq!(a0[0].ts(), TEST_SHOT_BASE);
        assert_eq!(a1[0].ts(), 2 * TEST_SHOT_BASE);
        assert_eq!(a0[0].tid(), 1);
        assert_eq!(a1[0].tid(), 2);
    }

    #[test]
    fn chrome_export_is_valid_and_carries_args() {
        let t = Tracer::test();
        let mut top = t.top_local().expect("enabled");
        top.begin("pipeline.run");
        top.instant_with(
            "run.end",
            vec![
                ("termination", FieldValue::Str("completed".into())),
                ("completed", FieldValue::U64(16)),
            ],
        );
        top.end();
        t.submit(top.into_events());
        let json = t.export_chrome();
        assert!(validate(&json).is_ok(), "{json}");
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains(r#""ph":"B""#), "{json}");
        assert!(json.contains(r#""ph":"E""#), "{json}");
        assert!(json.contains(r#""ph":"i""#), "{json}");
        assert!(json.contains(r#""termination":"completed""#), "{json}");
        assert!(json.contains(r#""completed":16"#), "{json}");
    }

    #[test]
    fn abort_open_balances_and_marks() {
        let t = Tracer::test();
        let mut lt = t.shot_local(5).expect("enabled");
        lt.begin("shot");
        lt.begin("measure");
        assert_eq!(lt.open_depth(), 2);
        lt.abort_open("shot.panic");
        assert_eq!(lt.open_depth(), 0);
        let events = lt.into_events();
        let begins = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Begin { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::End { .. }))
            .count();
        assert_eq!(begins, ends);
        assert!(matches!(
            events.last(),
            Some(TraceEvent::Instant {
                name: "shot.panic",
                ..
            })
        ));
    }

    #[test]
    fn summary_computes_total_and_self_time() {
        let t = Tracer::test();
        let mut lt = t.shot_local(0).expect("enabled");
        lt.begin("shot"); // ts 1_000_000
        lt.begin("measure"); // ts 1_001_000
        lt.end(); // ts 1_002_000 -> measure total 1000
        lt.end(); // ts 1_003_000 -> shot total 3000, self 2000
        t.submit(lt.into_events());
        let text = t.summary(10);
        let shot_line = text
            .lines()
            .find(|l| l.starts_with("shot"))
            .expect("shot row");
        assert!(shot_line.contains("3.0"), "{text}");
        assert!(shot_line.contains("2.0"), "{text}");
        let measure_line = text
            .lines()
            .find(|l| l.starts_with("measure"))
            .expect("measure row");
        assert!(measure_line.contains("1.0"), "{text}");
    }

    #[test]
    fn wall_clock_timestamps_are_monotonic() {
        let t = Tracer::wall();
        let mut lt = t.shot_local(0).expect("enabled");
        let a = lt.now();
        let b = lt.now();
        assert!(b >= a);
    }

    #[test]
    fn top_lane_allocates_sequential_ticks() {
        let t = Tracer::test();
        let mut one = t.top_local().expect("enabled");
        one.begin("a");
        one.end();
        t.submit(one.into_events());
        let mut two = t.top_local().expect("enabled");
        two.begin("b");
        two.end();
        t.submit(two.into_events());
        let events = t.events();
        assert_eq!(events.len(), 4);
        let ts: Vec<u64> = events.iter().map(TraceEvent::ts).collect();
        assert_eq!(ts, vec![0, 1_000, 2_000, 3_000]);
        assert!(events.iter().all(|e| e.tid() == TOP_TID));
    }
}
