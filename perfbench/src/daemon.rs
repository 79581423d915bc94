//! A `dqctd` child process on an ephemeral loopback port.

use dqctd::{read_frame, MAX_FRAME_BYTES};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon; dropping it kills the process and reaps it.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin` at its defaults plus `extra` flags and returns once it
    /// answers `ping` over TCP.
    pub fn start(bin: &Path, run_dir: &Path, tag: &str, extra: &[String]) -> io::Result<Daemon> {
        let port_file: PathBuf = run_dir.join(format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let started = Instant::now();
        let port: u16 = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(port) = text.strip_suffix('\n').and_then(|p| p.parse().ok()) {
                    break port;
                }
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!("dqctd exited early: {status}")));
            }
            if started.elapsed() > Duration::from_secs(20) {
                return Err(io::Error::other("dqctd did not report its port"));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let _ = std::fs::remove_file(&port_file);
        daemon.addr.set_port(port);
        let mut probe = TcpStream::connect(daemon.addr)?;
        probe.set_nodelay(true)?;
        probe.write_all(&frame(b"ping"))?;
        match read_frame(&mut probe, MAX_FRAME_BYTES) {
            Ok(Some(pong)) if pong.starts_with(b"{\"type\":\"pong\"") => Ok(daemon),
            _ => Err(io::Error::other("dqctd did not answer ping")),
        }
    }

    /// The daemon's peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}

/// One protocol frame (length prefix + payload) in a single buffer, so it
/// goes out in one write.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}
