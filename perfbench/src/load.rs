//! The load generator: one TCP connection, the calling thread as the
//! writer and one reader thread, so the client never uses more than two
//! threads. The reader blocks on the socket and timestamps each response
//! as it arrives; the writer sends each request frame in one write with
//! TCP_NODELAY set, so any transport stall measured is the daemon's.

use dqctd::{read_frame, MAX_FRAME_BYTES};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long to wait for outstanding responses (to drain between phases,
/// or for room under [`MAX_OUTSTANDING`]) before giving up on the daemon.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Most jobs an open loop keeps unanswered: below the daemon's default
/// queue of 64, so it never sheds a job as `queue-full`. When the host
/// stalls the daemon, the writer waits for room instead, and the wait
/// counts in the latency of every job it delays, timed from its due time.
const MAX_OUTSTANDING: usize = 48;

/// One phase of the load. Each phase starts once every earlier job is
/// answered, so no phase inherits another's queue.
pub enum Phase {
    /// Open loop: the phase's `i`-th job is due `offsets[i]` seconds after
    /// the phase starts, whatever the daemon is doing (up to
    /// [`MAX_OUTSTANDING`] unanswered). The phase lasts `secs`.
    Open { offsets: Vec<f64>, secs: f64 },
    /// Closed loop: send `jobs` jobs, keeping `window` in flight. The
    /// phase ends when the last of them is answered.
    Closed { window: usize, jobs: usize },
}

/// A request as the writer sent it.
pub struct Sent {
    pub phase: usize,
    /// When it was due (the send time in a closed loop).
    pub due: Instant,
    pub sent: Instant,
}

/// Everything the connection saw.
pub struct Trace {
    /// `sent[i]` is job `i`; jobs go out in list order.
    pub sent: Vec<Sent>,
    /// Every response frame with its arrival time, in arrival order.
    pub responses: Vec<(Instant, Vec<u8>)>,
    /// Start and end of each phase.
    pub phases: Vec<(Instant, Instant)>,
    /// The `metrics` verb's answer, fetched after the last result.
    pub metrics: Option<String>,
}

struct Arrivals {
    count: Mutex<usize>,
    changed: Condvar,
}

impl Arrivals {
    /// Blocks until `ready(count)` holds or `deadline` passes; returns the
    /// final count.
    fn wait_until(&self, deadline: Instant, ready: impl Fn(usize) -> bool) -> usize {
        let mut count = self.count.lock().expect("arrival counter poisoned");
        while !ready(*count) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            count = self
                .changed
                .wait_timeout(count, deadline - now)
                .expect("arrival counter poisoned")
                .0;
        }
        *count
    }

    /// Blocks until fewer than `limit` of the `sent` jobs sent so far are
    /// unanswered (`limit` 1: every one answered); fails if that takes
    /// longer than [`DRAIN_TIMEOUT`].
    fn wait_for_room(&self, sent: usize, limit: usize) -> io::Result<()> {
        let room = |n: usize| sent - n < limit;
        if room(self.wait_until(Instant::now() + DRAIN_TIMEOUT, room)) {
            Ok(())
        } else {
            Err(io::Error::other("the daemon stopped answering"))
        }
    }
}

/// Sends `frames` (complete request frames, job `i` = `frames[i]`) through
/// `phases` in order, then waits for every response. With `metrics` it
/// also fetches the daemon's metrics registry at the end.
pub fn drive(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    phases: &[Phase],
    metrics: bool,
) -> io::Result<Trace> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let arrivals = Arc::new(Arrivals {
        count: Mutex::new(0),
        changed: Condvar::new(),
    });
    let reader = {
        let stream = stream.try_clone()?;
        let arrivals = Arc::clone(&arrivals);
        std::thread::spawn(move || {
            let mut input = BufReader::with_capacity(1 << 16, stream);
            let mut out = Vec::new();
            while let Ok(Some(payload)) = read_frame(&mut input, MAX_FRAME_BYTES) {
                out.push((Instant::now(), payload));
                *arrivals.count.lock().expect("arrival counter poisoned") += 1;
                arrivals.changed.notify_all();
            }
            out
        })
    };

    let mut sent = Vec::new();
    let mut spans = Vec::new();
    let result = (|| -> io::Result<()> {
        for (index, phase) in phases.iter().enumerate() {
            arrivals.wait_for_room(sent.len(), 1)?;
            let start = Instant::now();
            match phase {
                Phase::Open { offsets, secs } => {
                    for &offset in offsets {
                        let Some(frame) = frames.get(sent.len()) else {
                            break;
                        };
                        let due = start + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        arrivals.wait_for_room(sent.len(), MAX_OUTSTANDING)?;
                        let at = Instant::now();
                        stream.write_all(frame)?;
                        sent.push(Sent {
                            phase: index,
                            due,
                            sent: at,
                        });
                    }
                    let end = start + Duration::from_secs_f64(*secs);
                    let now = Instant::now();
                    if end > now {
                        std::thread::sleep(end - now);
                    }
                }
                Phase::Closed { window, jobs } => {
                    let last = (sent.len() + jobs).min(frames.len());
                    while sent.len() < last {
                        arrivals.wait_for_room(sent.len(), *window)?;
                        let at = Instant::now();
                        stream.write_all(&frames[sent.len()])?;
                        sent.push(Sent {
                            phase: index,
                            due: at,
                            sent: at,
                        });
                    }
                    arrivals.wait_for_room(last, 1)?;
                }
            }
            spans.push((start, Instant::now()));
        }
        let total = sent.len();
        arrivals.wait_for_room(total, 1)?;
        if metrics {
            stream.write_all(&crate::daemon::frame(b"metrics"))?;
            arrivals.wait_until(Instant::now() + DRAIN_TIMEOUT, |n| n > total);
        }
        Ok(())
    })();
    let _ = stream.shutdown(Shutdown::Both);
    let mut responses = reader
        .join()
        .map_err(|_| io::Error::other("reader thread panicked"))?;
    result?;
    let metrics = if metrics && responses.len() > sent.len() {
        responses
            .pop()
            .map(|(_, payload)| String::from_utf8_lossy(&payload).into_owned())
    } else {
        None
    };
    Ok(Trace {
        sent,
        responses,
        phases: spans,
        metrics,
    })
}
