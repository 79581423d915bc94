//! The crash-only write-ahead journal behind `dqctd --journal`.
//!
//! # Why a journal
//!
//! PR 9's service contract — *an accepted job always gets exactly one
//! response* — only survives process death if admission is durable. The
//! journal records every admitted job before it is queued and every
//! completion after it is answered; on restart, [`Journal::open`] replays
//! the log and hands the server (a) the admitted-but-never-completed jobs
//! to re-run and (b) a completion index serving duplicate submissions
//! byte-identically without re-running. Because the executor's
//! counter-based RNG makes every shot a pure function of
//! `(seed, shot, circuit)`, the replayed runs themselves are
//! *bit-identical* to what the dead process would have produced — recovery
//! is exact, not best-effort.
//!
//! # Record layout
//!
//! The journal reuses the wire protocol's length-prefix discipline, plus a
//! per-record checksum so a torn or bit-rotted tail is detected rather
//! than replayed:
//!
//! ```text
//! +----------------+-------------------+-------------------+
//! | length: u32 BE | body (len bytes)  | crc32(body): u32 BE |
//! +----------------+-------------------+-------------------+
//! ```
//!
//! The body is one kind byte followed by the payload:
//!
//! * kind `1` (**admitted**) — the *resolved* submission, rendered with
//!   [`crate::protocol::render_submit`]: the server fills every default
//!   (shots, seed, scheme, deadline) before journaling, so replay needs no
//!   knowledge of the admitting process's configuration;
//! * kind `2` (**completed**) — `id_len: u32 BE | id | response bytes`,
//!   where the response bytes are the exact rendered frame payload the
//!   client was (or would have been) sent. Serving a duplicate submission
//!   from this record is byte-identical by construction.
//!
//! # Torn tails
//!
//! Appends are atomic only down to the filesystem's promises, which are
//! none: a crash can leave half a record. [`Journal::open`] scans from the
//! start and truncates the file at the first record that is incomplete,
//! fails its CRC, or does not decode — everything before it is intact
//! (each record was validated), everything after it is unreachable
//! garbage. Truncation repositions the append cursor so the next record
//! lands on a clean boundary.
//!
//! # Durability policy: group commit
//!
//! An append only `write`s its record and gets a sequence number. Under
//! `always` and `batch` one committer thread per journal makes records
//! durable: whenever records are pending it calls `sync_data` once for
//! all of them, on its own clone of the file handle, then publishes the
//! highest sequence number that sync covered. There is no timer and no
//! batch size; a sync covers whatever was written while the previous one
//! ran. [`FsyncPolicy`] decides who waits for it:
//!
//! * `always` — no response leaves before its job's admission is durable.
//!   The server appends the admission inside its registry lock, after
//!   every shedding decision, without waiting; the job's response waits
//!   for the admission's sequence number. A completion need not be durable
//!   before its response: the committer covers it within one sync, a
//!   clean shutdown waits for every record ([`Journal::sync`]), and if a
//!   machine crash loses it the job re-runs and a retry gets the same
//!   counts with new timing fields. A SIGKILL loses nothing written.
//! * `batch` — the same committer, and nobody waits: a machine crash can
//!   lose only what the last sync had not covered.
//! * `off` — no committer; the OS flushes when it pleases (tests and
//!   throwaway instances).
//!
//! Loss here means *the journal forgets the job*, never that it invents
//! one: the append follows every shedding decision, so replay never
//! brings back a rejected job, and an unsynced torn tail is truncated
//! away.
//!
//! A failed write or sync is sticky. A write that failed part-way leaves
//! a torn record, and after a failed sync the kernel may have dropped the
//! dirty pages, so neither can be retried. The journal refuses every
//! later append, and a wait for a record the failure left undurable
//! returns the error, so such a job is answered with a typed error, never
//! a result.

use crate::protocol::{parse_request, render_submit, JobSpec, Request};
use qobs::Observer;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Record kind byte: an admitted job (resolved submission).
const KIND_ADMITTED: u8 = 1;
/// Record kind byte: a completion (id + rendered response).
const KIND_COMPLETED: u8 = 2;

/// Hard cap on one journal record's body (matches the wire protocol's
/// frame cap plus completion framing headroom): anything larger mid-file
/// is treated as corruption, so a flipped length byte cannot demand a
/// multi-gigabyte allocation.
const MAX_RECORD_BYTES: u32 = (1 << 20) + 4096;

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum -o 3` flavour) of
/// `data` — the per-record integrity check. Zero dependencies: a 256-entry
/// table built at compile time.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// The committer syncs every record, and no response leaves before
    /// its job's admission is durable.
    Always,
    /// The committer syncs every record and nobody waits for it: a crash
    /// can forget what the last sync had not covered (it can never
    /// fabricate an admission). The default.
    #[default]
    Batch,
    /// Never `fsync`; the OS flushes when it pleases. For tests and
    /// throwaway instances.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI spelling (`always` / `batch` / `off`).
    #[must_use]
    pub fn parse(name: &str) -> Option<FsyncPolicy> {
        match name {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch => write!(f, "batch"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// One journal record, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job passed admission: the fully resolved submission.
    Admitted(JobSpec),
    /// A job was answered: the exact response bytes it was answered with.
    Completed {
        /// The client job id.
        id: String,
        /// The rendered response frame payload, verbatim.
        response: Vec<u8>,
    },
}

/// Encodes one record into its on-disk framing
/// (`len | body | crc32(body)`).
#[must_use]
pub fn encode_record(record: &Record) -> Vec<u8> {
    let mut body = Vec::new();
    match record {
        Record::Admitted(spec) => {
            body.push(KIND_ADMITTED);
            body.extend_from_slice(&render_submit(spec));
        }
        Record::Completed { id, response } => {
            body.push(KIND_COMPLETED);
            body.extend_from_slice(&(id.len() as u32).to_be_bytes());
            body.extend_from_slice(id.as_bytes());
            body.extend_from_slice(response);
        }
    }
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    let crc = crc32(&body);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// What [`decode_record`] found at the scan position.
#[derive(Debug)]
pub enum Decoded {
    /// A full, CRC-valid record occupying `consumed` bytes.
    Record {
        /// The decoded record.
        record: Record,
        /// Total framing bytes consumed (length prefix + body + CRC).
        consumed: usize,
    },
    /// The buffer ends inside this record (a torn tail) or the record
    /// fails validation (CRC mismatch, oversized length, unknown kind,
    /// undecodable payload). Either way the log is valid only up to the
    /// scan position.
    Corrupt,
}

/// Decodes the record starting at `buf[0]`. Corruption and truncation are
/// deliberately indistinguishable here: both end the valid prefix.
#[must_use]
pub fn decode_record(buf: &[u8]) -> Decoded {
    if buf.len() < 4 {
        return Decoded::Corrupt;
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 || len > MAX_RECORD_BYTES {
        return Decoded::Corrupt;
    }
    let body_end = 4 + len as usize;
    let Some(stored) = buf.get(body_end..body_end + 4) else {
        return Decoded::Corrupt;
    };
    let body = &buf[4..body_end];
    let crc = u32::from_be_bytes([stored[0], stored[1], stored[2], stored[3]]);
    if crc32(body) != crc {
        return Decoded::Corrupt;
    }
    let record = match body[0] {
        KIND_ADMITTED => match parse_request(&body[1..]) {
            Ok(Request::Submit(spec)) => Record::Admitted(*spec),
            _ => return Decoded::Corrupt,
        },
        KIND_COMPLETED => {
            let payload = &body[1..];
            if payload.len() < 4 {
                return Decoded::Corrupt;
            }
            let id_len =
                u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]) as usize;
            let Some(id_bytes) = payload.get(4..4 + id_len) else {
                return Decoded::Corrupt;
            };
            let Ok(id) = std::str::from_utf8(id_bytes) else {
                return Decoded::Corrupt;
            };
            Record::Completed {
                id: id.to_string(),
                response: payload[4 + id_len..].to_vec(),
            }
        }
        _ => return Decoded::Corrupt,
    };
    Decoded::Record {
        record,
        consumed: body_end + 4,
    }
}

/// What [`Journal::open`] reconstructed from an existing log.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Admitted jobs with no completion record, in admission order — the
    /// work the dead process still owed a response for.
    pub incomplete: Vec<JobSpec>,
    /// Completion index: client job id → the exact response bytes it was
    /// answered with. Duplicate submissions are served from here verbatim.
    pub completed: HashMap<String, Vec<u8>>,
    /// Valid records scanned.
    pub records: u64,
    /// Bytes cut off the tail (0 on a clean log).
    pub truncated_bytes: u64,
}

/// The append side of the journal, under one mutex.
struct Log {
    /// The append handle; the committer syncs its own clone.
    file: File,
    /// Sequence number of the last record written through this handle
    /// (records are numbered from 1).
    written: u64,
    /// Every record up to this sequence number is on disk.
    durable: u64,
    /// The first write or sync failure: appends are refused from then on.
    failure: Option<io::Error>,
    /// Set when the journal drops: the committer syncs what is pending,
    /// then exits.
    closing: bool,
}

impl Log {
    /// The sticky failure, copied for one more caller (`io::Error` does
    /// not clone).
    fn failure(&self) -> Option<io::Error> {
        let e = self.failure.as_ref()?;
        Some(io::Error::new(e.kind(), format!("journal failed: {e}")))
    }
}

/// What the appenders and the committer share.
struct Shared {
    log: Mutex<Log>,
    /// Signalled when a record is written or the journal closes.
    pending: Condvar,
    /// Signalled when `durable` moves or the journal fails.
    synced: Condvar,
    observer: Observer,
}

impl Shared {
    // Every update of `Log` leaves it valid, so a poisoned lock is
    // recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes `error` the journal's sticky failure and wakes every waiter.
    fn fail(&self, log: &mut Log, error: io::Error) {
        self.observer.counter_add("journal.sync_failed", 1);
        log.failure.get_or_insert(error);
        self.synced.notify_all();
    }
}

/// An open append-only journal. Appends are serialized behind one mutex —
/// the records are small next to the simulations they describe, and a
/// single writer keeps the "valid prefix" invariant trivial. Under
/// `always` and `batch` a committer thread syncs them (module docs).
pub struct Journal {
    path: PathBuf,
    policy: FsyncPolicy,
    shared: Arc<Shared>,
    /// The committer; `None` under [`FsyncPolicy::Off`].
    committer: Option<JoinHandle<()>>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, recovers its
    /// valid prefix, truncates any torn tail, and leaves the append cursor
    /// at the end of the valid data.
    ///
    /// # Errors
    ///
    /// Only on real I/O failures (open, read, truncate, seek, starting the
    /// committer). Corruption is not an error: the valid prefix wins and
    /// the damage is reported in [`Recovery::truncated_bytes`].
    pub fn open(path: &Path, policy: FsyncPolicy) -> io::Result<(Journal, Recovery)> {
        Self::open_observed(path, policy, Observer::disabled())
    }

    /// [`Journal::open`], counting `journal.records_written`,
    /// `journal.syncs`, `journal.sync_ns` and `journal.sync_failed` into
    /// `observer`.
    pub(crate) fn open_observed(
        path: &Path,
        policy: FsyncPolicy,
        observer: Observer,
    ) -> io::Result<(Journal, Recovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let mut recovery = Recovery::default();
        let mut admitted: Vec<JobSpec> = Vec::new();
        let mut offset = 0usize;
        while offset < buf.len() {
            match decode_record(&buf[offset..]) {
                Decoded::Record { record, consumed } => {
                    recovery.records += 1;
                    offset += consumed;
                    match record {
                        Record::Admitted(spec) => admitted.push(spec),
                        Record::Completed { id, response } => {
                            recovery.completed.insert(id, response);
                        }
                    }
                }
                Decoded::Corrupt => {
                    recovery.truncated_bytes = (buf.len() - offset) as u64;
                    file.set_len(offset as u64)?;
                    break;
                }
            }
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        recovery.incomplete = admitted
            .into_iter()
            .filter(|spec| !recovery.completed.contains_key(&spec.id))
            .collect();
        let sync_handle = match policy {
            FsyncPolicy::Always | FsyncPolicy::Batch => Some(file.try_clone()?),
            FsyncPolicy::Off => None,
        };
        let shared = Arc::new(Shared {
            log: Mutex::new(Log {
                file,
                written: 0,
                durable: 0,
                failure: None,
                closing: false,
            }),
            pending: Condvar::new(),
            synced: Condvar::new(),
            observer,
        });
        let committer = sync_handle
            .map(|file| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("dqctd-journal".to_string())
                    .spawn(move || commit_loop(&shared, &file))
            })
            .transpose()?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                policy,
                shared,
                committer,
            },
            recovery,
        ))
    }

    /// Appends an admission record. Call *before* enqueueing the job:
    /// under [`FsyncPolicy::Always`] it returns once the record is
    /// durable, and then the job survives any crash.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync failures; the caller should reject the job
    /// rather than accept work it cannot make durable.
    pub fn append_admitted(&self, spec: &JobSpec) -> io::Result<()> {
        let seq = self.write_admitted(spec)?;
        self.wait_durable(seq)
    }

    /// Appends a completion record carrying the exact `response` bytes the
    /// job was answered with; under [`FsyncPolicy::Always`] it returns once
    /// the record is durable.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync failures. The response has already been
    /// sent; a failed completion append means a future restart re-runs the
    /// job (idempotent by determinism), never that a response is lost.
    pub fn append_completed(&self, id: &str, response: &[u8]) -> io::Result<()> {
        let seq = self.write_completed(id, response)?;
        self.wait_durable(seq)
    }

    /// Writes an admission record without waiting for the disk and returns
    /// its sequence number, for [`Journal::wait_durable`].
    pub(crate) fn write_admitted(&self, spec: &JobSpec) -> io::Result<u64> {
        self.write(&encode_record(&Record::Admitted(spec.clone())))
    }

    /// Writes a completion record without waiting for the disk and returns
    /// its sequence number.
    pub(crate) fn write_completed(&self, id: &str, response: &[u8]) -> io::Result<u64> {
        self.write(&encode_record(&Record::Completed {
            id: id.to_string(),
            response: response.to_vec(),
        }))
    }

    fn write(&self, framed: &[u8]) -> io::Result<u64> {
        let mut log = self.shared.lock();
        if log.failure.is_none() {
            if let Err(e) = log.file.write_all(framed) {
                // A part-way write leaves a torn record: refusing every
                // later append keeps it the tail that recovery truncates.
                self.shared.fail(&mut log, e);
            }
        }
        if let Some(e) = log.failure() {
            return Err(e);
        }
        log.written += 1;
        self.shared
            .observer
            .counter_add("journal.records_written", 1);
        self.shared.pending.notify_one();
        Ok(log.written)
    }

    /// Under [`FsyncPolicy::Always`], blocks until record `seq` is on
    /// disk; under `batch` and `off` nobody waits, so it returns at once.
    /// A response that must not leave before its admission is durable
    /// waits here.
    ///
    /// # Errors
    ///
    /// The journal's failure, when it failed before `seq` became durable.
    pub(crate) fn wait_durable(&self, seq: u64) -> io::Result<()> {
        if self.policy != FsyncPolicy::Always {
            return Ok(());
        }
        let log = self.wait_synced(seq);
        match log.failure() {
            Some(e) if log.durable < seq => Err(e),
            _ => Ok(()),
        }
    }

    /// Blocks until every record written so far is on disk (under
    /// `always` and `batch`) — the drain path calls this so a clean
    /// shutdown never rides on a pending sync.
    ///
    /// # Errors
    ///
    /// The journal's failure, if a write or sync ever failed.
    pub fn sync(&self) -> io::Result<()> {
        let written = self.shared.lock().written;
        self.wait_synced(written).failure().map_or(Ok(()), Err)
    }

    /// Waits until record `seq` is durable or the journal failed; under
    /// `off`, where nothing syncs, returns at once.
    fn wait_synced(&self, seq: u64) -> MutexGuard<'_, Log> {
        let mut log = self.shared.lock();
        while log.durable < seq && log.failure.is_none() && self.committer.is_some() {
            log = self
                .shared
                .synced
                .wait(log)
                .unwrap_or_else(PoisonError::into_inner);
        }
        log
    }

    /// Records appended through this handle (excludes recovered ones).
    #[must_use]
    pub fn records_written(&self) -> u64 {
        self.shared.lock().written
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        if let Some(committer) = self.committer.take() {
            self.shared.lock().closing = true;
            self.shared.pending.notify_one();
            // A committer that panicked has nothing left to sync.
            let _ = committer.join();
        }
    }
}

/// The committer: whenever records are pending, one `sync_data` on its
/// own handle covers all of them, then `durable` moves to the last record
/// written before the sync began. Exits when the journal fails, or closes
/// with nothing pending.
fn commit_loop(shared: &Shared, file: &File) {
    let mut log = shared.lock();
    while log.failure.is_none() {
        if log.durable == log.written {
            if log.closing {
                return;
            }
            log = shared
                .pending
                .wait(log)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        let target = log.written;
        drop(log);
        let synced = {
            let _span = shared.observer.span("journal.sync");
            file.sync_data()
        };
        shared.observer.counter_add("journal.syncs", 1);
        log = shared.lock();
        match synced {
            Ok(()) => {
                log.durable = target;
                shared.synced.notify_all();
            }
            Err(e) => shared.fail(&mut log, e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "dqctd-journal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    fn spec(id: &str) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            shots: Some(64),
            seed: Some(7),
            answer: vec![2],
            data: vec![0, 1],
            ancilla: Vec::new(),
            scheme: Some("dynamic2".into()),
            deadline_ms: Some(5000),
            qasm: "OPENQASM 3.0;\nqubit[3] q;\nbit[1] c;\nccx q[0], q[1], q[2];\nc[0] = measure q[2];\n".into(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_spellings_round_trip() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Off] {
            assert_eq!(FsyncPolicy::parse(&policy.to_string()), Some(policy));
        }
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn records_encode_and_decode_exactly() {
        let admitted = Record::Admitted(spec("job-1"));
        let completed = Record::Completed {
            id: "job-1".into(),
            response: br#"{"type":"result","id":"job-1"}"#.to_vec(),
        };
        for record in [admitted, completed] {
            let framed = encode_record(&record);
            match decode_record(&framed) {
                Decoded::Record {
                    record: decoded,
                    consumed,
                } => {
                    assert_eq!(decoded, record);
                    assert_eq!(consumed, framed.len());
                }
                Decoded::Corrupt => panic!("fresh record decoded as corrupt"),
            }
        }
    }

    #[test]
    fn a_flipped_bit_fails_the_crc() {
        let framed = encode_record(&Record::Completed {
            id: "j".into(),
            response: b"payload".to_vec(),
        });
        for i in 4..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(decode_record(&bad), Decoded::Corrupt),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn open_recovers_incomplete_jobs_and_completions() {
        let path = temp_path("recover");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, recovery) =
                Journal::open(&path, FsyncPolicy::Always).expect("fresh open");
            assert!(recovery.incomplete.is_empty());
            assert_eq!(recovery.records, 0);
            journal.append_admitted(&spec("done")).expect("admit done");
            journal.append_admitted(&spec("lost")).expect("admit lost");
            journal
                .append_completed("done", b"{\"type\":\"result\"}")
                .expect("complete done");
            assert_eq!(journal.records_written(), 3);
        }
        let (_journal, recovery) = Journal::open(&path, FsyncPolicy::Off).expect("reopen");
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.incomplete, vec![spec("lost")]);
        assert_eq!(
            recovery.completed.get("done").map(Vec::as_slice),
            Some(&b"{\"type\":\"result\"}"[..])
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume_cleanly() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path, FsyncPolicy::Off).expect("open");
            journal.append_admitted(&spec("a")).expect("admit a");
            journal.append_admitted(&spec("b")).expect("admit b");
        }
        let full = std::fs::read(&path).expect("read back");
        let first_len = {
            let len = u32::from_be_bytes([full[0], full[1], full[2], full[3]]) as usize;
            4 + len + 4
        };
        // Tear the second record in half.
        let torn_at = first_len + (full.len() - first_len) / 2;
        std::fs::write(&path, &full[..torn_at]).expect("tear");
        let (journal, recovery) = Journal::open(&path, FsyncPolicy::Off).expect("reopen torn");
        assert_eq!(recovery.incomplete, vec![spec("a")]);
        assert_eq!(recovery.truncated_bytes, (torn_at - first_len) as u64);
        // The file was truncated to the valid prefix...
        assert_eq!(
            std::fs::metadata(&path).expect("stat").len(),
            first_len as u64
        );
        // ...and a post-recovery append lands on the clean boundary.
        journal.append_admitted(&spec("c")).expect("append after");
        drop(journal);
        let (_j, recovery) = Journal::open(&path, FsyncPolicy::Off).expect("final open");
        assert_eq!(recovery.incomplete, vec![spec("a"), spec("c")]);
        assert_eq!(recovery.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_length_prefix_is_corruption_not_allocation() {
        let path = temp_path("oversize");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, u32::MAX.to_be_bytes()).expect("write bogus prefix");
        let (_j, recovery) = Journal::open(&path, FsyncPolicy::Off).expect("open");
        assert_eq!(recovery.records, 0);
        assert_eq!(recovery.truncated_bytes, 4);
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_appends_share_syncs_and_recover_in_order() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 50;
        let path = temp_path("group-commit");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path, FsyncPolicy::Always).expect("open");
            let done = std::sync::atomic::AtomicBool::new(false);
            let start = std::sync::Barrier::new(THREADS + 1);
            std::thread::scope(|scope| {
                let monitor = scope.spawn(|| {
                    let mut last = 0;
                    start.wait();
                    while !done.load(std::sync::atomic::Ordering::SeqCst) {
                        let durable = journal.shared.lock().durable;
                        assert!(durable >= last, "durable went back: {last} -> {durable}");
                        last = durable;
                        std::thread::yield_now();
                    }
                });
                let writers: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (journal, start) = (&journal, &start);
                        scope.spawn(move || {
                            start.wait();
                            let seqs: Vec<u64> = (0..PER_THREAD)
                                .map(|i| {
                                    journal
                                        .write_admitted(&spec(&format!("t{t}-{i}")))
                                        .expect("write")
                                })
                                .collect();
                            for &seq in &seqs {
                                journal.wait_durable(seq).expect("durable");
                                assert!(journal.shared.lock().durable >= seq);
                            }
                        })
                    })
                    .collect();
                for writer in writers {
                    writer.join().expect("writer");
                }
                done.store(true, std::sync::atomic::Ordering::SeqCst);
                monitor.join().expect("monitor");
            });
            assert_eq!(journal.records_written(), (THREADS * PER_THREAD) as u64);
        }
        let (_journal, recovery) = Journal::open(&path, FsyncPolicy::Off).expect("reopen");
        assert_eq!(recovery.records, (THREADS * PER_THREAD) as u64);
        assert_eq!(recovery.truncated_bytes, 0);
        for t in 0..THREADS {
            let prefix = format!("t{t}-");
            let ids: Vec<&str> = recovery
                .incomplete
                .iter()
                .filter_map(|s| s.id.strip_prefix(&prefix))
                .collect();
            let expected: Vec<String> = (0..PER_THREAD).map(|i| i.to_string()).collect();
            assert_eq!(ids, expected, "thread {t}'s records, in order");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_sync_is_sticky() {
        // `fdatasync` on /dev/null fails (EINVAL on Linux).
        let (journal, _) =
            Journal::open(Path::new("/dev/null"), FsyncPolicy::Always).expect("open /dev/null");
        let seq = journal
            .write_admitted(&spec("first"))
            .expect("the write succeeds");
        assert!(journal.wait_durable(seq).is_err(), "the sync must fail");
        assert!(
            journal.write_admitted(&spec("second")).is_err(),
            "appends after a failed sync are refused"
        );
        assert!(journal.append_completed("first", b"{}").is_err());
        assert!(journal.sync().is_err());
        assert_eq!(journal.records_written(), 1);
    }
}
