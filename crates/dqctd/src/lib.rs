//! `dqctd` — a resilient batch simulation service for dynamic quantum
//! circuits.
//!
//! The daemon accepts QASM jobs over a length-prefixed TCP protocol (or
//! the same protocol over stdin/stdout with `--stdio`), runs each through
//! the `dqc` transform pipeline and the `qsim` resilient executor on a
//! bounded worker pool, and answers every request with a typed, framed
//! JSON response. The design goal is *graceful degradation*: under
//! overload the service sheds load with `rejected`/`queue-full` answers
//! carrying `retry_after_ms` backoff hints; under a drain (SIGTERM or the
//! `drain` verb) it stops admission and finishes — never drops — every
//! accepted job; per-job deadlines are lowered onto the executor's run
//! budgets so a stuck job returns a truthful partial result instead of
//! wedging a worker.
//!
//! Module map:
//! - [`protocol`] — wire format: frames, request parsing, response
//!   rendering, plus the string-scanning client-side field extractors.
//! - [`cache`] — the content-hash transform cache keyed on
//!   [`qcir::Circuit::content_hash`] + roles + scheme.
//! - [`journal`] — the crash-only write-ahead journal: durable admission
//!   and completion records, torn-tail recovery, the completion index
//!   behind idempotent retries.
//! - [`server`] — admission control, the worker pool, watchdog
//!   supervision, chaos scoping, drain semantics.
//!
//! The wire format and operational policies are specified in DESIGN.md
//! §14; durability and recovery in §15.

pub mod cache;
pub mod journal;
pub mod protocol;
pub mod server;

pub use cache::{cache_key, CachedTransform, Claim, Lookup, TransformCache};
pub use journal::{FsyncPolicy, Journal, Recovery};
pub use protocol::{
    field_counts, field_str, field_u64, parse_request, read_frame, render_submit, write_frame,
    FrameError, JobOutcome, JobSpec, RejectReason, Request, Response, MAX_FRAME_BYTES,
};
pub use server::{job_scope_key, Config, Server};
