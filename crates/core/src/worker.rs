//! Worker-pool candidate evaluation: distribute a batch's fresh
//! evaluations across worker *processes* (DESIGN.md, "Worker-pool
//! evaluation").
//!
//! A worker is any process speaking the repo's length-prefixed JSON
//! framing ([`crate::proto`]) on stdin/stdout — normally `ifko worker`
//! or the `ifko-worker` binary. The dispatcher ([`WorkerPool`], driven
//! by [`EvalEngine`](crate::eval::EvalEngine)) spawns `--workers N`
//! children, each wired to a private socketpair so a hung worker can be
//! detected by read timeout, and hands each one a **handshake** frame
//! describing the evaluation universe:
//!
//! ```text
//! {"cmd":"hello","machine":"P4E","context":"oc","n":1024,"seed":7,
//!  "timer":{"reps":2,"interference":0.01,"seed":24301},
//!  "verify_ir":false,"max_retries":2,"scope":"<scope key>",
//!  "kernel":"ddot"}                      // or "src":"ROUTINE ..."
//! ```
//!
//! The worker rebuilds the compile session, workload, and
//! [`EvalScope`] from the handshake and checks
//! that its recomputed scope key matches the dispatcher's `scope` —
//! any drift (different machine model, timer protocol, workload seed)
//! is a typed handshake error, never a silently wrong result. After
//! the `{"ok":true,"scope":...}` acknowledgement, the loop is:
//!
//! ```text
//! -> {"cmd":"eval","id":17,"params":{...}}      // db::params_json form
//! <- {"ok":true,"id":17,"cycles":8123,"retries":0,...,"stats":{...}}
//! -> {"cmd":"shutdown"}                          // or clean EOF
//! <- {"ok":true}
//! ```
//!
//! # The merge-determinism invariant
//!
//! Candidate evaluation is a pure function of the scope plus the
//! parameter point: the simulator is deterministic, the timer's
//! synthetic interference is a hash of `(timer seed, rep)`, and chaos
//! fault decisions are a pure hash of `(plan seed, site, point key,
//! attempt)` — nothing depends on which process (or thread) runs the
//! evaluation, or when. The dispatcher merges replies by candidate
//! *index* and the winner is still chosen by the serial in-order scan,
//! so a search with `--workers N` is bit-identical to `--jobs N`
//! threads and to a serial run.
//!
//! # Failure semantics
//!
//! A worker that dies (its stream tears or times out), answers with
//! garbage, or replies to the wrong candidate id is retired; its
//! in-flight candidate is re-dispatched to a surviving worker after the
//! fault layer's exponential backoff ([`crate::fault::backoff`]). When
//! every worker is gone, the engine degrades gracefully: leftovers are
//! evaluated in-process by the same evaluator closure, so a batch always
//! completes with the same numbers. `IFKO_WORKER_KILL_AFTER=K` makes a
//! worker abort upon receiving its (K+1)-th eval request — the
//! deterministic "SIGKILL at a seeded point" hook the chaos tests use.

use std::io::{Read, Write};
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::eval::{EvalRecord, EvalScope};
use crate::fault::FaultPlan;
use crate::json::{obj, parse_json, FieldError, Float, Json, Raw};
use crate::proto;
use crate::runner::Context;
use crate::search::SearchOptions;
use crate::strategy::db::{params_from_json, params_json};
use crate::subject::{Oracle, Subject};
use crate::timer::Timer;
use crate::trace::{parse_stats, stats_obj};
use ifko_blas::Kernel;
use ifko_fko::TransformParams;
use ifko_xsim::MachineConfig;

/// Default read timeout on the dispatcher's end of a worker stream: a
/// worker silent this long is treated as hung and retired. Override per
/// handle with [`WorkerHandle::set_timeout`].
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Handshake spec
// ---------------------------------------------------------------------------

/// Everything a worker needs to reproduce the dispatcher's evaluation
/// universe bit-exactly. Exactly one of `kernel` (a BLAS-suite name) or
/// `src` (arbitrary HIL source, verified differentially) is set.
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    pub kernel: Option<String>,
    pub src: Option<String>,
    /// Machine model name (`P4E` / `Opteron`, case-insensitive).
    pub machine: String,
    /// Timing context label (`oc` / `ic`).
    pub context: String,
    pub n: usize,
    pub seed: u64,
    pub timer: Timer,
    pub verify_ir: bool,
    pub max_retries: u32,
    /// Chaos plan, carried whole so worker fault decisions replay the
    /// dispatcher's exactly (they are pure in seed + site + point key).
    pub chaos: Option<FaultPlan>,
    /// The dispatcher's scope key; the worker recomputes its own and
    /// rejects the handshake on any mismatch (drift check).
    pub scope_key: String,
}

impl WorkerSpec {
    /// Spec for a BLAS-suite kernel (the `ifko tune` / driver path).
    pub fn blas(
        kernel_name: &str,
        machine: &MachineConfig,
        context: Context,
        n: usize,
        seed: u64,
        opts: &SearchOptions,
        scope: &EvalScope,
    ) -> WorkerSpec {
        WorkerSpec {
            kernel: Some(kernel_name.to_string()),
            src: None,
            machine: machine.name.to_string(),
            context: context.label().to_string(),
            n,
            seed,
            timer: opts.timer.clone(),
            verify_ir: opts.verify_ir,
            max_retries: opts.max_retries,
            chaos: opts.faults.clone(),
            scope_key: scope.key().to_string(),
        }
    }

    /// The spec that makes a worker rebuild `subject`: its kernel name or
    /// — for a differential subject — the HIL source itself, so workers
    /// reconstruct the identical session and baseline.
    pub(crate) fn of(subject: &Subject) -> WorkerSpec {
        let (kernel, src) = match &subject.oracle {
            Oracle::Reference { kernel, .. } => (Some(kernel.name()), None),
            Oracle::Baseline { src, .. } => (None, Some(src.clone())),
        };
        let scope = &subject.scope;
        WorkerSpec {
            kernel,
            src,
            ..WorkerSpec::blas(
                "",
                &subject.machine,
                scope.context,
                scope.n,
                scope.seed,
                &subject.opts,
                scope,
            )
        }
    }

    /// The subject this spec describes, rebuilt on the worker's side.
    /// A worker whose recomputed scope differs from the dispatcher's
    /// (different machine model, timer protocol, workload seed) must
    /// refuse to evaluate anything.
    fn open(&self) -> Result<Subject, String> {
        let machine = MachineConfig::by_name(&self.machine)
            .ok_or_else(|| format!("unknown machine `{}`", self.machine))?;
        let context = Context::from_label(&self.context)
            .ok_or_else(|| format!("unknown context `{}`", self.context))?;
        let opts = SearchOptions {
            timer: self.timer.clone(),
            verify_ir: self.verify_ir,
            max_retries: self.max_retries,
            faults: self.chaos.clone(),
            ..SearchOptions::default()
        };
        let oracle = match (&self.kernel, &self.src) {
            (Some(name), _) => Oracle::Reference {
                kernel: Kernel::by_name(name).ok_or_else(|| format!("unknown kernel `{name}`"))?,
            },
            (None, src) => Oracle::Baseline {
                src: src.clone().unwrap_or_default(),
            },
        };
        let subject = Subject::open(oracle, &machine, context, self.n, self.seed, &opts)
            .map_err(|e| e.to_string())?;
        if subject.scope.key() != self.scope_key {
            return Err(format!(
                "scope drift: dispatcher `{}` vs worker `{}`",
                self.scope_key,
                subject.scope.key()
            ));
        }
        Ok(subject)
    }

    /// The handshake frame. Floats use Rust's shortest round-trip form,
    /// so the worker reconstructs bit-identical `f64` values.
    pub fn to_json(&self) -> String {
        let t = &self.timer;
        let timer = obj()
            .field("reps", t.reps)
            .field("interference", Float(t.interference))
            .field("seed", t.seed);
        let chaos = self.chaos.as_ref().map(|f| {
            obj()
                .field("seed", f.seed)
                .field("compile", Float(f.compile))
                .field("tester", Float(f.tester))
                .field("timer_rep", Float(f.timer_rep))
                .field("persist", Float(f.persist))
        });
        obj()
            .field("cmd", "hello")
            .field("machine", &self.machine)
            .field("context", &self.context)
            .field("n", self.n)
            .field("seed", self.seed)
            .field("timer", timer)
            .field("verify_ir", self.verify_ir)
            .field("max_retries", self.max_retries)
            .field("scope", &self.scope_key)
            .maybe("kernel", self.kernel.as_ref())
            .maybe("src", self.src.as_ref())
            .maybe("chaos", chaos)
            .finish()
    }

    /// Parse a handshake frame (worker side).
    pub fn from_json(v: &Json) -> Result<WorkerSpec, String> {
        let spec = Self::read(v).map_err(|e| format!("handshake: {e}"))?;
        crate::config::checked_n(spec.n as u64).map_err(|e| format!("handshake: {e}"))?;
        if spec.kernel.is_none() == spec.src.is_none() {
            return Err("handshake needs exactly one of `kernel` / `src`".to_string());
        }
        Ok(spec)
    }

    fn read(v: &Json) -> Result<WorkerSpec, FieldError> {
        let t: &Json = v.req("timer")?;
        let timer = Timer {
            reps: t.req("reps")?,
            interference: t.req("interference")?,
            seed: t.req("seed")?,
        };
        let chaos = match v.field::<Option<&Json>>("chaos")?.flatten() {
            None => None,
            Some(c) => Some(FaultPlan {
                seed: c.req("seed")?,
                compile: c.req("compile")?,
                tester: c.req("tester")?,
                timer_rep: c.req("timer_rep")?,
                persist: c.req("persist")?,
            }),
        };
        Ok(WorkerSpec {
            kernel: v.field("kernel")?,
            src: v.field("src")?,
            machine: v.req("machine")?,
            context: v.req("context")?,
            n: v.req("n")?,
            seed: v.req("seed")?,
            timer,
            verify_ir: v.field("verify_ir")?.unwrap_or(false),
            max_retries: v.field("max_retries")?.unwrap_or(2),
            chaos,
            scope_key: v.req("scope")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Worker side: the serve loop
// ---------------------------------------------------------------------------

fn eval_response(id: u64, rec: &EvalRecord) -> String {
    obj()
        .field("ok", true)
        .field("id", id)
        .field("cycles", rec.cycles)
        .field("retries", rec.retries)
        .field("faults", rec.faults)
        .field("outliers", rec.outliers)
        .field("failed", rec.failed)
        .maybe("stats", rec.stats.as_ref().map(stats_obj))
        .finish()
}

fn parse_eval_record(v: &Json) -> Result<EvalRecord, FieldError> {
    // Every field but `stats` is required. Defaulting a missing
    // `cycles`/`failed` would let a malformed-but-parseable reply merge
    // as a phantom "failed candidate" instead of surfacing a protocol
    // error and re-dispatching — never guess at a record.
    Ok(EvalRecord {
        cycles: v.req("cycles")?,
        stats: v.field("stats")?.map(parse_stats).transpose()?,
        retries: v.req("retries")?,
        faults: v.req("faults")?,
        outliers: v.req("outliers")?,
        failed: v.req("failed")?,
    })
}

/// Run one worker session over arbitrary streams: handshake, then the
/// eval loop until `shutdown` or a clean EOF. Protocol errors answer
/// with a typed `{"ok":false,...}` frame and keep serving (the
/// dispatcher decides whether to retire the worker).
pub fn serve(r: &mut impl Read, w: &mut impl Write) -> std::io::Result<()> {
    let Some(line) = proto::read_frame(r)? else {
        return Ok(());
    };
    // The worker evaluates with the very same `Subject::evaluate` the
    // in-process engine uses, so a remote evaluation cannot diverge from
    // a local one.
    let subject = parse_json(&line)
        .ok_or_else(|| "handshake is not valid JSON".to_string())
        .and_then(|v| WorkerSpec::from_json(&v))
        .and_then(|spec| spec.open());
    let subject = match subject {
        Ok(s) => s,
        Err(msg) => {
            proto::write_frame(w, &proto::error_response(&msg))?;
            return Ok(());
        }
    };
    let ack = obj().field("ok", true).field("scope", subject.scope.key());
    proto::write_frame(w, &ack.finish())?;

    // Chaos hook: abort (no cleanup, stream torn mid-conversation) upon
    // receiving eval request K+1 — a deterministic stand-in for a worker
    // SIGKILLed mid-batch.
    let kill_after: Option<u64> = std::env::var("IFKO_WORKER_KILL_AFTER")
        .ok()
        .and_then(|s| s.parse().ok());
    let mut served = 0u64;

    while let Some(line) = proto::read_frame(r)? {
        let Some(v) = parse_json(&line) else {
            proto::write_frame(w, &proto::error_response("request is not valid JSON"))?;
            continue;
        };
        match v.get("cmd").and_then(Json::as_str) {
            Some("eval") => {
                let (Some(id), Some(params)) = (
                    v.get("id").and_then(Json::as_u64),
                    v.get("params").and_then(params_from_json),
                ) else {
                    proto::write_frame(w, &proto::error_response("eval needs `id` + `params`"))?;
                    continue;
                };
                if kill_after.is_some_and(|k| served >= k) {
                    std::process::abort();
                }
                served += 1;
                let rec = subject.evaluate(&params, None, 0);
                proto::write_frame(w, &eval_response(id, &rec))?;
            }
            Some("ping") => proto::write_frame(w, &proto::ok_response())?,
            Some("shutdown") => {
                proto::write_frame(w, &proto::ok_response())?;
                return Ok(());
            }
            other => {
                let msg = format!("unknown cmd `{}`", other.unwrap_or("<none>"));
                proto::write_frame(w, &proto::error_response(&msg))?;
            }
        }
    }
    Ok(())
}

/// [`serve`] over stdin/stdout — the body of `ifko worker` and the
/// `ifko-worker` binary. The dispatcher wires a socketpair to these fds,
/// but plain pipes work too (the cli smoke test drives one by hand).
pub fn serve_stdio() -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve(&mut stdin.lock(), &mut stdout.lock())
}

// ---------------------------------------------------------------------------
// Dispatcher side: handles and the pool
// ---------------------------------------------------------------------------

/// Typed dispatcher-side failure for one worker interaction. Any of
/// these retires the worker; the candidate is re-dispatched, never
/// merged from a suspect reply.
#[derive(Debug)]
pub enum WorkerError {
    /// Transport failure: the worker died, hung past the read timeout,
    /// or tore the stream mid-frame.
    Io(std::io::Error),
    /// The worker answered with something that is not protocol JSON.
    Protocol(String),
    /// The worker replied to a different candidate id than asked.
    WrongId { want: u64, got: u64 },
    /// The worker reported a typed error (handshake rejection etc.).
    Remote(String),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Io(e) => write!(f, "worker i/o: {e}"),
            WorkerError::Protocol(m) => write!(f, "worker protocol: {m}"),
            WorkerError::WrongId { want, got } => {
                write!(f, "worker answered candidate {got}, asked {want}")
            }
            WorkerError::Remote(m) => write!(f, "worker error: {m}"),
        }
    }
}
impl std::error::Error for WorkerError {}

impl From<std::io::Error> for WorkerError {
    fn from(e: std::io::Error) -> WorkerError {
        WorkerError::Io(e)
    }
}

impl WorkerError {
    /// A reply arrived but was wrong (vs the worker being dead/hung):
    /// counted separately as a protocol error in the engine metrics.
    pub fn is_protocol(&self) -> bool {
        matches!(
            self,
            WorkerError::Protocol(_) | WorkerError::WrongId { .. } | WorkerError::Remote(_)
        )
    }
}

/// How to start a worker process. The program must speak the worker
/// protocol on stdin/stdout (`ifko worker`, `ifko-worker`, or a test
/// double).
#[derive(Clone, Debug)]
pub struct WorkerLauncher {
    pub program: PathBuf,
    pub args: Vec<String>,
    pub envs: Vec<(String, String)>,
}

impl WorkerLauncher {
    pub fn new(program: impl Into<PathBuf>) -> WorkerLauncher {
        WorkerLauncher {
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
        }
    }
    pub fn arg(mut self, a: impl Into<String>) -> WorkerLauncher {
        self.args.push(a.into());
        self
    }
    pub fn env(mut self, k: impl Into<String>, v: impl Into<String>) -> WorkerLauncher {
        self.envs.push((k.into(), v.into()));
        self
    }

    /// Resolve the `ifko-worker` binary next to the current executable
    /// (same cargo target directory) — the default when no launcher is
    /// configured explicitly.
    pub fn sibling() -> Option<WorkerLauncher> {
        let exe = std::env::current_exe().ok()?;
        let dir = exe.parent()?;
        // Test binaries live one level down in target/<profile>/deps.
        for d in [Some(dir), dir.parent()] {
            let cand = d?.join("ifko-worker");
            if cand.is_file() {
                return Some(WorkerLauncher::new(cand));
            }
        }
        None
    }
}

/// One connected worker: the dispatcher's end of the socketpair plus
/// the child process (absent for test doubles built with
/// [`WorkerHandle::from_stream`]).
pub struct WorkerHandle {
    pub id: u32,
    stream: UnixStream,
    child: Option<Child>,
}

impl WorkerHandle {
    /// Spawn a worker process with both stdio ends on a socketpair and
    /// complete the handshake.
    pub fn spawn(
        launcher: &WorkerLauncher,
        id: u32,
        spec_json: &str,
    ) -> Result<WorkerHandle, WorkerError> {
        let (parent, child_end) = UnixStream::pair()?;
        let child_in = child_end.try_clone()?;
        let mut cmd = Command::new(&launcher.program);
        cmd.args(&launcher.args)
            .env("IFKO_WORKER_ID", id.to_string())
            .stdin(Stdio::from(OwnedFd::from(child_in)))
            .stdout(Stdio::from(OwnedFd::from(child_end)))
            .stderr(Stdio::inherit());
        for (k, v) in &launcher.envs {
            cmd.env(k, v);
        }
        let child = cmd.spawn()?;
        parent.set_read_timeout(Some(DEFAULT_TIMEOUT))?;
        let mut h = WorkerHandle {
            id,
            stream: parent,
            child: Some(child),
        };
        if let Err(e) = h.handshake(spec_json) {
            h.kill();
            return Err(e);
        }
        Ok(h)
    }

    /// Wrap an already-connected stream (protocol tests drive a scripted
    /// peer thread on the other end of a socketpair).
    pub fn from_stream(id: u32, stream: UnixStream) -> WorkerHandle {
        let _ = stream.set_read_timeout(Some(DEFAULT_TIMEOUT));
        WorkerHandle {
            id,
            stream,
            child: None,
        }
    }

    /// Change the hung-worker read timeout (`None` blocks forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        let _ = self.stream.set_read_timeout(timeout);
    }

    fn read_reply(&mut self) -> Result<Json, WorkerError> {
        let line = proto::read_frame(&mut self.stream)?.ok_or_else(|| {
            WorkerError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "worker closed its stream",
            ))
        })?;
        let v = parse_json(&line)
            .ok_or_else(|| WorkerError::Protocol(format!("unparseable reply: {line:.80}")))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_string();
            return Err(WorkerError::Remote(msg));
        }
        Ok(v)
    }

    /// Send the handshake and await the scope acknowledgement.
    pub fn handshake(&mut self, spec_json: &str) -> Result<(), WorkerError> {
        proto::write_frame(&mut self.stream, spec_json)?;
        let v = self.read_reply()?;
        if v.get("scope").and_then(Json::as_str).is_none() {
            return Err(WorkerError::Protocol("handshake ack lacks scope".into()));
        }
        Ok(())
    }

    /// Evaluate one candidate remotely. `id` must be unique per request;
    /// a reply carrying any other id is a [`WorkerError::WrongId`] and
    /// the result is discarded, never merged.
    pub fn eval(&mut self, id: u64, p: &TransformParams) -> Result<EvalRecord, WorkerError> {
        let params = params_json(p);
        let req = obj()
            .field("cmd", "eval")
            .field("id", id)
            .field("params", Raw(&params))
            .finish();
        proto::write_frame(&mut self.stream, &req)?;
        let v = self.read_reply()?;
        let got = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| WorkerError::Protocol("eval reply lacks id".into()))?;
        if got != id {
            return Err(WorkerError::WrongId { want: id, got });
        }
        parse_eval_record(&v).map_err(|e| WorkerError::Protocol(format!("eval reply: {e}")))
    }

    /// Ask the worker to exit and reap it.
    pub fn shutdown(mut self) {
        let bye = obj().field("cmd", "shutdown").finish();
        let _ = proto::write_frame(&mut self.stream, &bye);
        let _ = self.read_reply();
        if let Some(mut child) = self.child.take() {
            let _ = child.wait();
        }
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A pool of evaluation worker processes sharing one handshake spec.
/// Attach to an engine with
/// [`EvalEngine::with_worker_pool`](crate::eval::EvalEngine::with_worker_pool).
pub struct WorkerPool {
    idle: Mutex<Vec<WorkerHandle>>,
    alive: AtomicUsize,
    next_id: AtomicU64,
    spawned: usize,
}

impl WorkerPool {
    /// Spawn up to `size` workers (best effort: a worker that fails to
    /// start or handshake is reported and skipped). Check
    /// [`WorkerPool::alive`] afterwards; a fully-failed pool has 0.
    pub fn spawn(launcher: &WorkerLauncher, spec_json: &str, size: usize) -> WorkerPool {
        let mut idle = Vec::with_capacity(size);
        for wid in 0..size {
            match WorkerHandle::spawn(launcher, wid as u32, spec_json) {
                Ok(h) => idle.push(h),
                Err(e) => eprintln!("ifko: worker {wid} failed to start: {e}"),
            }
        }
        let spawned = idle.len();
        WorkerPool {
            idle: Mutex::new(idle),
            alive: AtomicUsize::new(spawned),
            next_id: AtomicU64::new(1),
            spawned,
        }
    }

    /// Workers spawned successfully at construction.
    pub fn size(&self) -> usize {
        self.spawned
    }

    /// Workers still believed healthy.
    pub fn alive(&self) -> usize {
        self.alive.load(Ordering::Acquire)
    }

    /// Monotone per-pool eval-request id (wrong-id detection).
    pub(crate) fn next_eval_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn checkout(&self) -> Option<WorkerHandle> {
        self.idle.lock().unwrap().pop()
    }

    pub(crate) fn checkin(&self, h: WorkerHandle) {
        self.idle.lock().unwrap().push(h);
    }

    /// Retire a dead/confused worker: kill its process and shrink the
    /// pool. Never returns it to the idle set.
    pub(crate) fn discard(&self, mut h: WorkerHandle) {
        h.kill();
        self.alive.fetch_sub(1, Ordering::AcqRel);
    }

    /// Shut every idle worker down cleanly.
    pub fn shutdown(&self) {
        let workers: Vec<WorkerHandle> = self.idle.lock().unwrap().drain(..).collect();
        for h in workers {
            self.alive.fetch_sub(1, Ordering::AcqRel);
            h.shutdown();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifko_xsim::p4e;

    #[test]
    fn spec_round_trips_through_json() {
        let machine = p4e();
        // Seeds use all 64 bits: the two large ones are not representable
        // in an f64, and a handshake that rounds one replays a different
        // chaos plan (or refuses itself as scope drift).
        for seed in [7, (1 << 53) + 1, u64::MAX - 1] {
            let mut opts = SearchOptions {
                faults: Some(FaultPlan::uniform(seed, 0.25)),
                max_retries: 8,
                ..SearchOptions::quick()
            };
            opts.timer.seed = seed;
            let scope = EvalScope::new(
                "ddot",
                &machine,
                Context::OutOfCache,
                1024,
                seed,
                &opts.timer,
            );
            let spec = WorkerSpec::blas(
                "ddot",
                &machine,
                Context::OutOfCache,
                1024,
                seed,
                &opts,
                &scope,
            );
            let v = parse_json(&spec.to_json()).unwrap();
            let back = WorkerSpec::from_json(&v).unwrap();
            assert_eq!(back.kernel.as_deref(), Some("ddot"));
            assert_eq!(back.machine, "P4E");
            assert_eq!(back.context, "oc");
            assert_eq!(back.n, 1024);
            assert_eq!(back.seed, seed);
            assert_eq!(back.timer.seed, seed);
            assert_eq!(back.timer.reps, opts.timer.reps);
            assert_eq!(
                back.timer.interference.to_bits(),
                opts.timer.interference.to_bits()
            );
            assert_eq!(back.chaos, Some(FaultPlan::uniform(seed, 0.25)));
            assert_eq!(back.scope_key, scope.key());
        }
    }

    #[test]
    fn spec_rejects_malformed_handshakes() {
        assert!(WorkerSpec::from_json(&parse_json("{}").unwrap()).is_err());
        // Both kernel and src present is ambiguous.
        let machine = p4e();
        let opts = SearchOptions::quick();
        let scope = EvalScope::new("x", &machine, Context::OutOfCache, 8, 1, &opts.timer);
        let mut spec = WorkerSpec::blas("ddot", &machine, Context::OutOfCache, 8, 1, &opts, &scope);
        spec.src = Some("ROUTINE x".to_string());
        let v = parse_json(&spec.to_json()).unwrap();
        assert!(WorkerSpec::from_json(&v).is_err());
        // A count past u32 is refused, never truncated (2^32 + 2 would
        // read as 2 retries).
        spec.src = None;
        let good = spec.to_json();
        let wide = good.replacen("\"max_retries\":2", "\"max_retries\":4294967298", 1);
        assert_ne!(wide, good, "the spec's wire form moved");
        let err = WorkerSpec::from_json(&parse_json(&wide).unwrap()).unwrap_err();
        assert!(err.contains("max_retries"), "{err}");
    }

    #[test]
    fn serve_rejects_scope_drift() {
        let machine = p4e();
        let opts = SearchOptions::quick();
        let scope = EvalScope::new("ddot", &machine, Context::OutOfCache, 1024, 7, &opts.timer);
        let mut spec = WorkerSpec::blas(
            "ddot",
            &machine,
            Context::OutOfCache,
            1024,
            7,
            &opts,
            &scope,
        );
        spec.scope_key = "something@else/oc/n1024/s7/r2i0.01s5eed".to_string();
        let mut req: Vec<u8> = Vec::new();
        proto::write_frame(&mut req, &spec.to_json()).unwrap();
        let mut out: Vec<u8> = Vec::new();
        serve(&mut std::io::Cursor::new(req), &mut out).unwrap();
        let reply = proto::read_frame(&mut std::io::Cursor::new(out))
            .unwrap()
            .unwrap();
        let v = parse_json(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert!(
            v.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("scope drift"),
            "{reply}"
        );
    }

    #[test]
    fn serve_evaluates_one_candidate_in_memory() {
        let machine = p4e();
        let opts = SearchOptions::quick();
        let scope = EvalScope::new("ddot", &machine, Context::OutOfCache, 512, 3, &opts.timer);
        let spec = WorkerSpec::blas("ddot", &machine, Context::OutOfCache, 512, 3, &opts, &scope);
        let mut req: Vec<u8> = Vec::new();
        proto::write_frame(&mut req, &spec.to_json()).unwrap();
        let p = TransformParams::off();
        proto::write_frame(
            &mut req,
            &format!(
                "{{\"cmd\":\"eval\",\"id\":42,\"params\":{}}}",
                params_json(&p)
            ),
        )
        .unwrap();
        proto::write_frame(&mut req, "{\"cmd\":\"shutdown\"}").unwrap();
        let mut out: Vec<u8> = Vec::new();
        serve(&mut std::io::Cursor::new(req), &mut out).unwrap();
        let mut r = std::io::Cursor::new(out);
        let hello = parse_json(&proto::read_frame(&mut r).unwrap().unwrap()).unwrap();
        assert_eq!(hello.get("scope").and_then(Json::as_str), Some(scope.key()));
        let reply = parse_json(&proto::read_frame(&mut r).unwrap().unwrap()).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(42));
        let rec = parse_eval_record(&reply).unwrap();
        assert!(rec.cycles.is_some(), "defaults-off ddot must evaluate");
        assert!(rec.stats.is_some(), "fresh evals carry counters");
        let bye = parse_json(&proto::read_frame(&mut r).unwrap().unwrap()).unwrap();
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn eval_response_round_trips_records() {
        let rec = EvalRecord {
            cycles: Some(12345),
            stats: None,
            retries: 2,
            faults: 3,
            outliers: 1,
            failed: false,
        };
        let v = parse_json(&eval_response(9, &rec)).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(9));
        let back = parse_eval_record(&v).unwrap();
        assert_eq!(back.cycles, Some(12345));
        assert_eq!(back.retries, 2);
        assert_eq!(back.faults, 3);
        assert_eq!(back.outliers, 1);
        assert!(!back.failed);
        // Rejected candidates serialize cycles as null.
        let rej = EvalRecord::rejected();
        let v = parse_json(&eval_response(10, &rej)).unwrap();
        assert_eq!(parse_eval_record(&v).unwrap().cycles, None);
    }

    #[test]
    fn eval_records_round_trip_over_seeded_values() {
        let mut r = ifko_xsim::Rng64::seed_from_u64(0xe7a1);
        let wide = |r: &mut ifko_xsim::Rng64| match r.range_usize(4) {
            0 => u64::MAX,
            1 => (1 << 53) + 1,
            _ => r.next_u64(),
        };
        for _ in 0..200 {
            let mut stats = ifko_xsim::RunStats::default();
            for (_, _, set) in ifko_xsim::RunStats::FIELDS {
                set(&mut stats, wide(&mut r));
            }
            let narrow = |r: &mut ifko_xsim::Rng64| match r.range_usize(3) {
                0 => u32::MAX,
                _ => r.next_u64() as u32,
            };
            let rec = EvalRecord {
                cycles: r.gen_bool(0.5).then(|| wide(&mut r)),
                stats: r.gen_bool(0.5).then_some(stats),
                retries: narrow(&mut r),
                faults: narrow(&mut r),
                outliers: narrow(&mut r),
                failed: r.gen_bool(0.5),
            };
            let id = wide(&mut r);
            let v = parse_json(&eval_response(id, &rec)).unwrap();
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(id));
            let back = parse_eval_record(&v).unwrap();
            assert_eq!(format!("{back:?}"), format!("{rec:?}"));
        }
    }
}
