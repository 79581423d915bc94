//! The `dqctd` daemon binary: a TCP accept loop (or stdio transport)
//! around [`dqctd::Server`], with SIGTERM/SIGINT wired to a graceful
//! drain — stop accepting, finish every accepted job, exit 0.

use dqctd::{Config, FsyncPolicy, Server};
use qfault::FaultPlan;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const USAGE: &str = "\
dqctd - resilient batch simulation service for dynamic quantum circuits

USAGE:
    dqctd [OPTIONS]

OPTIONS:
    --addr HOST:PORT     listen address (default 127.0.0.1:7817; port 0 = ephemeral)
    --workers N          simulation worker threads (default 2)
    --queue N            bounded queue capacity (default 64)
    --max-qubits N       largest accepted circuit (default 16)
    --max-shots N        largest accepted shot count (default 1048576)
    --default-shots N    shots when a job does not say (default 1024)
    --deadline-ms N      default per-job deadline (default 5000)
    --cache N            transform cache capacity, 0 disables (default 256)
    --journal PATH       crash-only write-ahead journal: admitted jobs and
                         completions survive SIGKILL and replay on restart
    --fsync POLICY       journal durability (default batch): always = no response
                         before its job's admission is on disk; batch = synced
                         in the background, nobody waits; off = never synced
    --max-inflight-mb N  in-flight statevector memory budget in MiB (default 256)
    --stall-ms N         worker heartbeat stall threshold before the watchdog
                         cancels, then replaces, a wedged worker (default 2000)
    --inject SPEC        chaos drill: qfault plan applied at job scope
                         (e.g. 'seed=9,panic=0.1,delay=0.05,delay-ms=20')
    --port-file PATH     write the bound port number to PATH after listening
    --stdio              serve one connection on stdin/stdout, then exit
    --help               print this help

SIGTERM and SIGINT trigger a graceful drain: admission stops, every
accepted job is finished and answered, then the process exits 0.";

/// SIGTERM/SIGINT handling with no dependencies: the libc `signal`
/// function installing a handler that only stores to a static atomic
/// (async-signal-safe); the accept loop's waker polls the flag.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: the handler is a plain fn that only stores to a static
        // AtomicBool, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
            signal(SIGINT, on_term as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;

    pub static TERM: AtomicBool = AtomicBool::new(false);

    pub fn install() {}
}

struct Options {
    addr: String,
    port_file: Option<String>,
    stdio: bool,
    config: Config,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        addr: "127.0.0.1:7817".to_string(),
        port_file: None,
        stdio: false,
        config: Config::default(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--stdio" => options.stdio = true,
            "--addr" => options.addr = value("--addr")?,
            "--port-file" => options.port_file = Some(value("--port-file")?),
            "--workers" => options.config.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue" => {
                options.config.queue_capacity = parse_num(&value("--queue")?, "--queue")?;
            }
            "--max-qubits" => {
                options.config.max_qubits = parse_num(&value("--max-qubits")?, "--max-qubits")?;
            }
            "--max-shots" => {
                options.config.max_shots = parse_num(&value("--max-shots")?, "--max-shots")?;
            }
            "--default-shots" => {
                options.config.default_shots =
                    parse_num(&value("--default-shots")?, "--default-shots")?;
            }
            "--deadline-ms" => {
                options.config.default_deadline =
                    Duration::from_millis(parse_num(&value("--deadline-ms")?, "--deadline-ms")?);
            }
            "--cache" => {
                options.config.cache_capacity = parse_num(&value("--cache")?, "--cache")?;
            }
            "--journal" => {
                options.config.journal = Some(std::path::PathBuf::from(value("--journal")?));
            }
            "--fsync" => {
                let spec = value("--fsync")?;
                options.config.fsync = FsyncPolicy::parse(&spec)
                    .ok_or_else(|| format!("--fsync: '{spec}' is not always, batch, or off"))?;
            }
            "--max-inflight-mb" => {
                let mib: u64 = parse_num(&value("--max-inflight-mb")?, "--max-inflight-mb")?;
                options.config.max_inflight_bytes = mib.saturating_mul(1 << 20);
            }
            "--stall-ms" => {
                options.config.stall_after =
                    Duration::from_millis(parse_num(&value("--stall-ms")?, "--stall-ms")?);
            }
            "--inject" => {
                let spec = value("--inject")?;
                let plan = FaultPlan::parse(&spec).map_err(|e| format!("--inject: {e}"))?;
                options.config.chaos = Some(plan);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    Ok(Some(options))
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: '{text}' is not a valid number"))
}

fn main() -> ExitCode {
    // `--inject` chaos panics are caught and isolated per shot by the
    // resilient executor; keep them off stderr while letting real panics
    // through.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("qfault: injected panic"));
        if !injected {
            default_hook(info);
        }
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("dqctd: {message}");
            return ExitCode::FAILURE;
        }
    };
    sig::install();
    match run(options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("dqctd: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(options: Options) -> Result<(), String> {
    let server = Server::try_start(options.config.clone())?;
    if options.stdio {
        return run_stdio(&server);
    }
    run_tcp(&server, &options)
}

/// One protocol session over stdin/stdout — the transport the protocol
/// robustness tests and quick local experiments use.
fn run_stdio(server: &Arc<Server>) -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    server.serve_connection(&mut reader, Box::new(std::io::stdout()));
    server.join();
    Ok(())
}

fn run_tcp(server: &Arc<Server>, options: &Options) -> Result<(), String> {
    let listener = TcpListener::bind(&options.addr)
        .map_err(|e| format!("cannot listen on {}: {e}", options.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the bound address: {e}"))?;
    if let Some(path) = &options.port_file {
        let rendered = format!("{}\n", local.port());
        std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!("dqctd: listening on {local}");
    let waker = spawn_waker(server, local);
    loop {
        let accepted = listener.accept();
        // Checked after every accept, so the waker's connection ends the
        // loop; a client that raced it is dropped like any connection that
        // arrives once the drain has begun.
        if stop_requested(server) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let server = Arc::clone(server);
                std::thread::spawn(move || server.serve_tcp(stream));
            }
            Err(e) => return Err(format!("accept failed: {e}")),
        }
    }
    // A stop was requested, so the waker has made its one connection.
    let _ = waker.join();
    eprintln!(
        "dqctd: draining ({} accepted jobs in flight)",
        server.pending()
    );
    server.join();
    let _ = std::io::stderr().flush();
    eprintln!("dqctd: drained cleanly");
    Ok(())
}

/// `true` once SIGTERM/SIGINT arrived or a client sent `drain`.
fn stop_requested(server: &Server) -> bool {
    sig::TERM.load(Ordering::SeqCst) || server.is_draining()
}

/// Wakes the blocking accept loop once a stop is requested. Neither the
/// signal handler (an atomic store) nor the `drain` verb (a connection
/// thread) can interrupt `accept`, so a thread watches both flags and then
/// connects once to the listener.
fn spawn_waker(server: &Arc<Server>, local: SocketAddr) -> JoinHandle<()> {
    let server = Arc::clone(server);
    let target = if local.ip().is_unspecified() {
        let loopback = match local.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        };
        SocketAddr::new(loopback, local.port())
    } else {
        local
    };
    std::thread::spawn(move || {
        while !stop_requested(&server) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
    })
}
