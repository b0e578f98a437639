//! The daemon proper: socket accept loop, per-connection handlers, and
//! request dispatch over the shared [`TunedDb`] index and
//! [`EvalCache`].
//!
//! Concurrency model: one OS thread per connection (connections are few
//! and long-lived; candidate evaluation inside a tune session does its
//! own `--jobs` parallelism). Each resolved tune request has a slot
//! holding its subject, kept open between tunes; a tune holds its slot's
//! lock throughout, so concurrent requests that resolve alike — however
//! they are spelled — coalesce: the first computes while the rest wait,
//! then re-verify the freshly stored winner through the normal
//! warm-start path, which is what extends the engine's bit-identity
//! guarantee to the socket boundary. Every lookup the daemon answers
//! comes from the in-memory index; disk is touched only to append or
//! compact.

use crate::client::TuneRequest;
use crate::proto::{error_response, read_frame, write_frame, Polling};
use ifko::artifact;
use ifko::config::Opened;
use ifko::eval::EvalCache;
use ifko::json::{obj, FieldError, Fixed, Obj, Raw};
use ifko::key;
use ifko::metrics;
use ifko::report::{parse_json, Json};
use ifko::runner::Context;
use ifko::strategy::db::{params_json, record_json};
use ifko::strategy::{TunedDb, STRATEGY_WARM};
use ifko_blas::Kernel;
use std::collections::HashMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Unix socket path to listen on (created at start, removed at stop).
    pub socket: PathBuf,
    /// Tuned-results database directory (shared across all sessions).
    pub db_dir: PathBuf,
    /// Evaluation-cache directory; `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// `--jobs` width for each tune session's eval engine.
    pub jobs: usize,
    /// Suppress per-request logging.
    pub quiet: bool,
}

impl DaemonConfig {
    pub fn new(socket: impl Into<PathBuf>, db_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            db_dir: db_dir.into(),
            cache_dir: None,
            jobs: 1,
            quiet: false,
        }
    }
}

/// Shared server state.
struct Server {
    cfg: DaemonConfig,
    db: Arc<TunedDb>,
    cache: Arc<EvalCache>,
    stop: AtomicBool,
    /// One slot per resolved tune key, holding the subject its last tune
    /// left open.
    subjects: Mutex<HashMap<SubjectKey, Arc<Mutex<Option<Opened>>>>>,
}

/// What a resolved tune request opens (strategy and budget only steer
/// the search over it): what it names, machine, context, n, seed, `full`.
#[derive(Clone, PartialEq, Eq, Hash)]
struct SubjectKey(Names, String, &'static str, usize, u64, bool);

/// A suite kernel, or a HIL source by its [`key::source_hash`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Names {
    Kernel(Kernel),
    Source(u64),
}

/// Lock `m` even if a thread panicked holding it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running daemon: join or stop it through this handle.
pub struct Daemon;

pub struct DaemonHandle {
    server: Arc<Server>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Bind the socket, load the database and cache, and start serving
    /// in background threads. A stale socket file from a crashed daemon
    /// is replaced.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<DaemonHandle> {
        let db = Arc::new(TunedDb::open(&cfg.db_dir)?);
        let cache = match &cfg.cache_dir {
            Some(dir) => Arc::new(EvalCache::persistent(dir)?),
            None => Arc::new(EvalCache::new()),
        };
        if cfg.socket.exists() {
            std::fs::remove_file(&cfg.socket)?;
        }
        if let Some(parent) = cfg.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        if !cfg.quiet {
            eprintln!(
                "ifkod: listening on {} (db {}, {} records, jobs {})",
                cfg.socket.display(),
                cfg.db_dir.display(),
                db.len(),
                cfg.jobs
            );
        }
        let server = Arc::new(Server {
            cfg,
            db,
            cache,
            stop: AtomicBool::new(false),
            subjects: Mutex::default(),
        });
        let accept_server = Arc::clone(&server);
        let accept_thread = std::thread::spawn(move || accept_loop(accept_server, listener));
        Ok(DaemonHandle {
            server,
            accept_thread: Some(accept_thread),
        })
    }
}

impl DaemonHandle {
    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.server.cfg.socket
    }

    /// Block until the daemon stops (a client sent `shutdown`).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Stop the daemon and wait for every handler to finish (as
    /// dropping the handle does).
    pub fn stop(self) {}
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.server.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(server: Arc<Server>, listener: UnixListener) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !server.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                metrics::global().counter(metrics::DAEMON_CONNECTIONS).inc();
                let s = Arc::clone(&server);
                handlers.retain(|h| !h.is_finished());
                handlers.push(std::thread::spawn(move || handle_connection(s, stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(&server.cfg.socket);
    if !server.cfg.quiet {
        eprintln!("ifkod: stopped");
    }
}

fn handle_connection(server: Arc<Server>, stream: UnixStream) {
    // A short read timeout turns a blocking read into an idle tick, so
    // a connection parked between requests still notices shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut frames = IdleReader {
        stream: &stream,
        stop: &server.stop,
    };
    loop {
        match read_frame(&mut frames) {
            Ok(Some(payload)) => {
                let response = dispatch(&server, &payload);
                if write_frame(&mut &stream, &response).is_err() {
                    break;
                }
            }
            Ok(None) => break, // clean EOF or shutdown
            Err(_) => {
                // Torn frame — a client died mid-request. Drop the
                // connection; the daemon itself is unaffected.
                metrics::global().counter(metrics::DAEMON_ERRORS).inc();
                break;
            }
        }
    }
}

/// What the server side of a connection adds to [`read_frame`]: each read
/// polls before it blocks ([`Polling`]: a client's next request usually
/// follows its reply within µs), a read timeout is an idle tick,
/// retried (the frame reader keeps its partial progress, so a tick can
/// never desync the framing), and a raised `stop` reads as end-of-stream
/// — between frames that is a clean close, inside one it is the torn
/// frame it would be had the client gone away.
struct IdleReader<'a> {
    stream: &'a UnixStream,
    stop: &'a AtomicBool,
}

impl std::io::Read for IdleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Ok(0);
            }
            match Polling(self.stream).read(buf) {
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {}
                done => return done,
            }
        }
    }
}

/// The commands `ifkod` serves.
const COMMANDS: [&str; 8] = [
    "ping", "shutdown", "metrics", "stats", "compact", "pack", "query", "tune",
];

fn dispatch(server: &Arc<Server>, payload: &str) -> String {
    let Some(req) = parse_json(payload) else {
        metrics::global().counter(metrics::DAEMON_ERRORS).inc();
        return error_response("unparseable request");
    };
    let cmd = req.get("cmd").and_then(|j| j.as_str()).unwrap_or("");
    // The label comes from the wire: one series for every command the
    // daemon does not serve keeps the registry bounded and its text
    // well formed whatever a client sends.
    let kind = if COMMANDS.contains(&cmd) {
        cmd
    } else {
        "unknown"
    };
    metrics::global()
        .counter(&metrics::labeled(metrics::DAEMON_REQUESTS, "kind", kind))
        .inc();
    if !server.cfg.quiet && cmd != "ping" {
        eprintln!("ifkod: {cmd} request");
    }
    let ok = || obj().field("ok", true);
    let result = match cmd {
        "ping" => Ok(ok().field("pong", "ifkod")),
        "shutdown" => {
            server.stop.store(true, Ordering::SeqCst);
            Ok(ok())
        }
        "metrics" => Ok(ok().field("text", metrics::global().prometheus_text())),
        "stats" => Ok(ok().field("stats", Raw(&server.db.stats().to_json()))),
        "compact" => Ok(ok().field("stats", Raw(&server.db.compact().to_json()))),
        "pack" => Ok(ok().field("artifact", artifact::pack(&server.db))),
        "query" => handle_query(server, &req),
        "tune" => handle_tune(server, &req),
        other => Err(format!("unknown cmd {other:?}")),
    };
    result.map(Obj::finish).unwrap_or_else(|e| {
        metrics::global().counter(metrics::DAEMON_ERRORS).inc();
        error_response(&e)
    })
}

/// Exact-key warm-start lookup, answered entirely from the in-memory
/// index: the key's own record, or `found: false`. A query that sets
/// `sfv` (a nearest-record lookup older daemons answered) is refused.
fn handle_query(server: &Arc<Server>, req: &Json) -> Result<Obj, String> {
    if req.get("sfv").is_some() {
        return Err("query field `sfv` is refused: a query answers only its key's record".into());
    }
    let refused = |e: FieldError| format!("query {e}");
    let text = |name| req.field::<&str>(name).map_err(refused);
    let kernel = text("kernel")?.ok_or("query needs a kernel name")?;
    let machine_name = text("machine")?.ok_or("query needs a machine")?;
    let context = text("context")?.unwrap_or("oc");
    let context = Context::from_label(context)
        .ok_or_else(|| format!("unknown context {context:?} (oc | ic)"))?;
    let fingerprint = key::fingerprint_of(machine_name)
        .ok_or_else(|| format!("unknown machine {machine_name:?}"))?;
    let prec = match text("prec")? {
        Some(p) => key::prec_of(p).ok_or_else(|| format!("unknown prec {p:?} (S | D)"))?,
        None => {
            Kernel::by_name(kernel)
                .ok_or_else(|| format!("unknown kernel {kernel:?} (pass prec explicitly)"))?
                .prec
        }
    };
    let key = key::tuned_key(kernel, prec, &fingerprint, context, server.db.rev());
    Ok(match server.db.lookup(&key) {
        Some(rec) => obj()
            .field("ok", true)
            .field("found", true)
            .field("record", Raw(&record_json(&rec))),
        None => obj().field("ok", true).field("found", false),
    })
}

/// Run one tune session over the shared database and cache, on the
/// subject its key's slot keeps open.
fn handle_tune(server: &Arc<Server>, req: &Json) -> Result<Obj, String> {
    let req = TuneRequest::from_json(req)?;
    let cfg = req
        .config()?
        .jobs(server.cfg.jobs)
        .cache(Arc::clone(&server.cache))
        .db(Arc::clone(&server.db));
    metrics::global().counter(metrics::DAEMON_SESSIONS).inc();
    let src = req.src.as_deref().unwrap_or_default();
    let what = match &req.kernel {
        Some(name) => {
            Names::Kernel(Kernel::by_name(name).ok_or_else(|| format!("unknown kernel {name:?}"))?)
        }
        None => Names::Source(key::source_hash(src)),
    };
    let machine = key::machine_fingerprint(cfg.machine_ref());
    let (context, n, seed) = (cfg.context_of().label(), cfg.size(), cfg.seed_of());
    let key = SubjectKey(what, machine, context, n, seed, req.full);
    let slot = Arc::clone(lock(&server.subjects).entry(key.clone()).or_default());
    // Single flight: a tune holds its slot throughout, so requests that
    // resolve alike, however spelled, wait for the first, then find its
    // stored winner through the (re-verifying) warm-start path. The
    // subject is out of the slot while tuned: a panic leaves it empty.
    let mut held = lock(&slot);
    let opened = match (held.take(), what) {
        (Some(opened), _) => Ok(opened),
        (None, Names::Kernel(kernel)) => cfg.open(kernel).map_err(|e| e.to_string()),
        (None, Names::Source(_)) => cfg.open_source(src).map_err(|e| e.to_string()),
    };
    let out = opened.and_then(|opened| {
        let out = cfg.tune_opened(&opened).map_err(|e| e.to_string());
        *held = out.is_ok().then_some(opened);
        out
    });
    let mut subjects = lock(&server.subjects);
    if out.is_err() {
        subjects.remove(&key); // the next request of this key opens anew
    }
    let resident = metrics::global().gauge(metrics::DAEMON_SUBJECTS);
    resident.set(subjects.len() as i64);
    drop(subjects);
    let out = out?;
    let result = &out.result;
    let warm = result.strategy == STRATEGY_WARM;
    if warm {
        metrics::global().counter(metrics::DAEMON_WARM_HITS).inc();
    }
    Ok(obj()
        .field("ok", true)
        .field("kernel", req.kernel.as_deref().unwrap_or("hil"))
        .field("machine", &key.1)
        .field("context", context)
        .field("n", n)
        .field("seed", seed)
        .field("warm", warm)
        .field("strategy", &result.strategy)
        .field("winner_strategy", &result.winner_strategy)
        .field("default_cycles", result.default_cycles)
        .field("best_cycles", result.best_cycles)
        .field("cycles", out.cycles)
        .field("mflops", Fixed(out.mflops, 6))
        .field("evaluations", result.evaluations)
        .field("cache_hits", result.cache_hits)
        .field("pruned", result.pruned)
        .field("params", Raw(&params_json(&result.best))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn idle_read(stream: &UnixStream, stop: &AtomicBool) -> std::io::Result<Option<String>> {
        read_frame(&mut IdleReader { stream, stop })
    }

    #[test]
    fn idle_ticks_keep_the_frame_and_shutdown_reads_as_end_of_stream() {
        let (ours, mut theirs) = UnixStream::pair().unwrap();
        let tick = Duration::from_millis(20);
        ours.set_read_timeout(Some(tick)).unwrap();
        let stop = AtomicBool::new(false);

        // A frame arriving in two pieces, several ticks apart, is one frame.
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, "{\"cmd\":\"ping\"}").unwrap();
        let writer = std::thread::spawn(move || {
            theirs.write_all(&wire[..6]).unwrap();
            std::thread::sleep(tick * 4);
            theirs.write_all(&wire[6..]).unwrap();
            theirs
        });
        let frame = idle_read(&ours, &stop).unwrap();
        assert_eq!(frame.as_deref(), Some("{\"cmd\":\"ping\"}"));
        let _theirs = writer.join().unwrap();

        // Shutdown between frames is a clean end-of-stream, not an error,
        // though the peer is still connected and has sent nothing.
        stop.store(true, Ordering::SeqCst);
        assert!(matches!(idle_read(&ours, &stop), Ok(None)));
    }
}
