//! The per-layer ladder: every layer a candidate passes through, timed
//! from outside around public calls. Each value is the median of its
//! repetitions (count in the README's glossary). These probes are the
//! same on every workload; the traced pass adds `search.*`, `trace.*`
//! and `engine.residual_share`.

use crate::service;
use crate::sets::{run_tune, worker_launcher, Pool, Subject, TuneSpec, HIL_KERNELS};
use crate::spec::Scale;
use crate::staged::Spans;
use crate::util::{calib_mops, median, median_secs, nproc, quantile, HostSpeed, Scratch};
use ifko::eval::{fnv64, EvalCache, EvalEngine, EvalScope, MemSink};
use ifko::proto::{read_frame, write_frame};
use ifko::runner::{run_once, Context, KernelArgs};
use ifko::search::{line_search_batched, SearchOptions};
use ifko::strategy::{TunedDb, TunedRecord};
use ifko::timer::Timer;
use ifko::worker::{WorkerHandle, WorkerPool, WorkerSpec};
use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::BlasOp;
use ifko_blas::{Kernel, Workload, ALL_KERNELS};
use ifko_daemon::{Client, Daemon, DaemonConfig};
use ifko_fko::{
    compile_defaults, ArgSlot, CompileOpts, CompileSession, CompiledKernel, TransformParams,
};
use ifko_xsim::isa::Prec;
use ifko_xsim::{opteron, p4e, Cpu, FReg, IReg, MachineConfig, Memory, RunStats};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

type Metrics = Vec<(&'static str, f64)>;

/// Run every layer probe.
pub fn probe_all(scale: &Scale, seed: u64, spans: &Spans) -> Result<Metrics, String> {
    let mut m: Metrics = vec![("harness.calib_mops", calib_mops())];
    frontend(scale, &mut m)?;
    compile_stream(scale, &mut m)?;
    simulate(scale, seed, &mut m)?;
    eval_cache(scale, &mut m).map_err(|e| format!("evalcache probe: {e}"))?;
    engine_batches(scale, &mut m);
    pool_speedups(scale, seed, &mut m)?;
    tuned_db(scale, &mut m).map_err(|e| format!("tuneddb probe: {e}"))?;
    proto(scale, &mut m).map_err(|e| format!("proto probe: {e}"))?;
    workers(scale, seed, spans, &mut m)?;
    daemon(scale, seed, &mut m)?;
    trace_overhead(scale, seed, &mut m)?;
    Ok(m)
}

fn us(secs: f64) -> f64 {
    secs * 1e6
}

/// The 17 sources of the tune sets.
fn sources() -> Vec<String> {
    let suite = ALL_KERNELS.iter().map(|k| hil_source(k.op, k.prec));
    suite
        .chain(HIL_KERNELS.iter().map(|(_, src)| src.to_string()))
        .collect()
}

fn frontend(scale: &Scale, m: &mut Metrics) -> Result<(), String> {
    let srcs = sources();
    let mach = p4e();
    for src in &srcs {
        ifko_hil::compile_frontend(src).map_err(|e| format!("{e:?}"))?;
        CompileSession::from_source(src, &mach).map_err(|e| e.to_string())?;
    }
    let per_src = |secs: f64| us(secs) / srcs.len() as f64;
    let parse = median_secs(scale.reps(30), || {
        for src in &srcs {
            let _ = std::hint::black_box(ifko_hil::compile_frontend(src));
        }
    });
    let open = median_secs(scale.reps(30), || {
        for src in &srcs {
            let _ = std::hint::black_box(CompileSession::from_source(src, &mach));
        }
    });
    m.push(("hil.frontend_us", per_src(parse)));
    m.push(("fko.session_open_us", per_src(open)));
    Ok(())
}

/// The candidate stream a line search submits for one kernel, recorded
/// as `pipeline.rs` records it: under a pure cost (compiled length), so
/// the stream never depends on the clock. Only compile-clean candidates
/// are kept.
fn record_stream(sess: &CompileSession, mach: &MachineConfig) -> Vec<TransformParams> {
    let mut stream = Vec::new();
    line_search_batched(
        sess.report(),
        mach,
        &SearchOptions::default(),
        |_phase, cands| {
            cands
                .iter()
                .map(|p| {
                    let cost = sess.compile(p, CompileOpts::verify(false)).ok();
                    if cost.is_some() {
                        stream.push(p.clone());
                    }
                    cost.map(|c| c.program.len() as u64)
                })
                .collect()
        },
    );
    stream
}

/// `fko.*`: replay the line-search candidate stream of the four
/// `BENCH_pipeline.json` kernels on both machines through a cold
/// session, per candidate.
fn compile_stream(scale: &Scale, m: &mut Metrics) -> Result<(), String> {
    let kernels = [
        (BlasOp::Dot, Prec::D),
        (BlasOp::Asum, Prec::D),
        (BlasOp::Axpy, Prec::D),
        (BlasOp::Copy, Prec::S),
    ];
    let mut streams = Vec::new();
    for (op, prec) in kernels {
        for mach in [p4e(), opteron()] {
            let src = hil_source(op, prec);
            let sess = CompileSession::from_source(&src, &mach).map_err(|e| e.to_string())?;
            let stream = record_stream(&sess, &mach);
            streams.push((src, mach, stream));
        }
    }
    let cands: usize = streams.iter().map(|(_, _, s)| s.len()).sum();
    let open = |src: &str, mach: &MachineConfig| {
        CompileSession::from_source(src, mach)
            .expect("the source opened when its stream was recorded")
    };
    // Seconds inside `f` over every stream, each on a cold session.
    let replay = |f: &mut dyn FnMut(&CompileSession, &TransformParams, &MachineConfig)| {
        let mut secs = 0.0;
        for (src, mach, stream) in &streams {
            let sess = open(src, mach);
            let t0 = Instant::now();
            for p in stream {
                f(&sess, p, mach);
            }
            secs += t0.elapsed().as_secs_f64();
        }
        secs
    };
    let per_cand = |samples: &[f64]| us(median(samples)) / cands as f64;
    let reps = scale.reps(10);

    let plain: Vec<f64> = (0..reps)
        .map(|_| {
            replay(&mut |s, p, _| {
                drop(std::hint::black_box(
                    s.compile(p, CompileOpts::verify(false)),
                ))
            })
        })
        .collect();
    m.push(("fko.compile_us", per_cand(&plain)));

    let verified: Vec<f64> = (0..reps)
        .map(|_| {
            replay(&mut |s, p, _| {
                drop(std::hint::black_box(
                    s.compile(p, CompileOpts::verify(true)),
                ))
            })
        })
        .collect();
    m.push(("fko.compile_verified_us", per_cand(&verified)));

    let predicted: Vec<f64> = (0..reps)
        .map(|_| replay(&mut |s, p, mach| drop(std::hint::black_box(s.predict(p, mach)))))
        .collect();
    m.push(("fko.predict_us", per_cand(&predicted)));

    // Stage times as the compiler's own observer reports them.
    const STAGES: [(&str, &str); 4] = [
        ("xform", "fko.xform_us"),
        ("opt", "fko.opt_us"),
        ("regalloc", "fko.regalloc_us"),
        ("codegen", "fko.codegen_us"),
    ];
    let mut per_stage: [Vec<f64>; 4] = Default::default();
    for _ in 0..reps {
        let mut totals = [Duration::ZERO; 4];
        replay(&mut |s, p, _| {
            let mut observe = |stage: &'static str, wall: Duration| {
                if let Some(i) = STAGES.iter().position(|(name, _)| *name == stage) {
                    totals[i] += wall;
                }
            };
            let _ = s.compile(p, CompileOpts::observed(false, &mut observe));
        });
        for (samples, total) in per_stage.iter_mut().zip(totals) {
            samples.push(total.as_secs_f64());
        }
    }
    for ((_, name), samples) in STAGES.iter().zip(&per_stage) {
        m.push((name, per_cand(samples)));
    }

    let (mut hits, mut misses) = (0u64, 0u64);
    for (src, mach, stream) in &streams {
        let sess = open(src, mach);
        for p in stream {
            let _ = sess.compile(p, CompileOpts::verify(false));
        }
        hits += sess.stats().subcache_hits;
        misses += sess.stats().subcache_misses;
    }
    m.push((
        "fko.subcache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    Ok(())
}

/// Build the memory image and CPU `run_once` builds for one call, from
/// the same public parts, so `Cpu::run` can be timed alone.
fn bind(
    compiled: &CompiledKernel,
    args: &KernelArgs<'_>,
    machine: &MachineConfig,
) -> (Cpu, Memory) {
    let (n, prec) = (args.workload.n as u64, args.kernel.prec);
    let eb = prec.bytes();
    let mut mem = Memory::new((n * eb * 2 + (1 << 20)) as usize);
    let two = args.kernel.op.n_vectors() > 1;
    let store = |mem: &mut Memory, addr: u64, data: &[f64]| match prec {
        Prec::D => mem.store_f64_slice(addr, data).expect("operand fits"),
        Prec::S => {
            let f: Vec<f32> = data.iter().map(|&v| v as f32).collect();
            mem.store_f32_slice(addr, &f).expect("operand fits");
        }
    };
    let xaddr = mem.alloc_vector(n.max(1), eb);
    store(&mut mem, xaddr, &args.workload.x);
    let yaddr = if two {
        mem.alloc_vector(n.max(1), eb)
    } else {
        0
    };
    if two {
        store(&mut mem, yaddr, &args.workload.y);
    }
    let frame = match compiled.frame_bytes {
        0 => 0,
        bytes => mem.alloc(bytes, 16),
    };
    let mut cpu = Cpu::new(machine.clone());
    cpu.flush_caches();
    if args.context == Context::InL2 {
        cpu.preload_l2(xaddr, n * eb);
        if two {
            cpu.preload_l2(yaddr, n * eb);
        }
    }
    let mut ptrs = [xaddr, yaddr].into_iter();
    let mut scalars = [args.workload.alpha, args.workload.beta].into_iter();
    for slot in &compiled.arg_convention {
        match slot {
            ArgSlot::PtrReg(r) => cpu.set_ireg(IReg(*r), ptrs.next().unwrap_or(0) as i64),
            ArgSlot::IntReg(r) => cpu.set_ireg(IReg(*r), n as i64),
            ArgSlot::FReg(r) => {
                let v = scalars.next().unwrap_or(0.0);
                match prec {
                    Prec::D => cpu.set_freg_f64(FReg(*r), v),
                    Prec::S => cpu.set_freg_f32(FReg(*r), v as f32),
                }
            }
        }
    }
    cpu.set_ireg(IReg(7), frame as i64);
    (cpu, mem)
}

/// What one context's sweep over the 14 suite kernels x 2 machines, all
/// compiled at FKO's defaults, measured.
struct Sweep {
    minst_s: f64,
    run_s: f64,
    run_once_s: f64,
    verify_s: f64,
    time_robust_s: f64,
    stats: Vec<RunStats>,
}

fn sweep(context: Context, n: usize, reps: usize, seed: u64) -> Result<Sweep, String> {
    let w = Workload::generate(n, seed);
    let mut combos: Vec<(Kernel, MachineConfig, CompiledKernel)> = Vec::new();
    for mach in [p4e(), opteron()] {
        for k in ALL_KERNELS {
            let compiled =
                compile_defaults(&hil_source(k.op, k.prec), &mach).map_err(|e| e.to_string())?;
            combos.push((k, mach.clone(), compiled));
        }
    }
    let timer = Timer::quick();
    let (mut rates, mut stats) = (Vec::new(), Vec::new());
    let (mut run_s, mut once_s, mut verify_s, mut robust_s) = (0.0, 0.0, 0.0, 0.0);
    for (kernel, mach, compiled) in &combos {
        let args = KernelArgs {
            kernel: *kernel,
            workload: &w,
            context,
        };
        let (mut runs, mut onces, mut verifies, mut robusts) = (vec![], vec![], vec![], vec![]);
        let mut last = None;
        for _ in 0..reps {
            let (mut cpu, mut mem) = bind(compiled, &args, mach);
            let t0 = Instant::now();
            let st = cpu
                .run(&compiled.program, &mut mem)
                .map_err(|e| e.to_string())?;
            runs.push(t0.elapsed().as_secs_f64());
            // Two runs of one binding must count the same events.
            if last.replace(st).is_some_and(|prev| prev != st) {
                return Err(format!(
                    "{}: simulator statistics differ between runs",
                    compiled.name
                ));
            }

            let t0 = Instant::now();
            let out = run_once(compiled, &args, mach).map_err(|e| e.to_string())?;
            onces.push(t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            ifko::tester::verify(*kernel, &w, &out).map_err(|e| e.to_string())?;
            verifies.push(t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            timer
                .time_robust(compiled, &args, mach, None)
                .map_err(|e| e.to_string())?;
            robusts.push(t0.elapsed().as_secs_f64());
        }
        let st = last.expect("at least one repetition");
        rates.push(st.insts as f64 / 1e6 / median(&runs));
        run_s += median(&runs);
        once_s += median(&onces);
        verify_s += median(&verifies);
        robust_s += median(&robusts);
        stats.push(st);
    }
    let per = combos.len() as f64;
    Ok(Sweep {
        minst_s: crate::util::geomean(rates),
        run_s: run_s / per,
        run_once_s: once_s / per,
        verify_s: verify_s / per,
        time_robust_s: robust_s / per,
        stats,
    })
}

fn simulate(scale: &Scale, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let oc = sweep(Context::OutOfCache, scale.oc_n, scale.reps(3), seed)?;
    let ic = sweep(Context::InL2, scale.ic_n, scale.reps(30), seed)?;
    m.push(("xsim.run_oc_minst_s", oc.minst_s));
    m.push(("xsim.run_ic_minst_s", ic.minst_s));
    m.push(("runner.run_once_oc_us", us(oc.run_once_s)));
    m.push(("runner.run_once_ic_us", us(ic.run_once_s)));
    m.push(("runner.fixed_share_ic", 1.0 - ic.run_s / ic.run_once_s));
    m.push(("tester.verify_oc_us", us(oc.verify_s)));
    m.push(("tester.verify_ic_us", us(ic.verify_s)));
    m.push(("timer.time_robust_oc_us", us(oc.time_robust_s)));
    m.push(("timer.runs_per_timing", oc.time_robust_s / oc.run_once_s));

    // fnv64 over every counter of every run, folded to 48 bits so the
    // value survives a trip through a JSON double.
    let mut bytes = Vec::new();
    for st in oc.stats.iter().chain(&ic.stats) {
        for (_, get, _) in RunStats::FIELDS {
            bytes.extend(get(st).to_le_bytes());
        }
    }
    m.push((
        "xsim.stats_fingerprint",
        (fnv64(&bytes) & 0xffff_ffff_ffff) as f64,
    ));

    let reps = scale.reps(100);
    let machines = [p4e(), opteron()];
    let cpu_new = median_secs(reps, || {
        for mach in &machines {
            std::hint::black_box(Cpu::new(mach.clone()));
        }
    });
    m.push(("xsim.cpu_new_us", us(cpu_new) / machines.len() as f64));
    // The image `run_once` allocates for two double vectors in L2.
    let image = scale.ic_n * 8 * 2 + (1 << 20);
    let mem_new = median_secs(reps, || drop(std::hint::black_box(Memory::new(image))));
    m.push(("xsim.mem_new_us", us(mem_new)));
    Ok(())
}

fn eval_cache(scale: &Scale, m: &mut Metrics) -> std::io::Result<()> {
    const ENTRIES: usize = 10_000;
    // Keys shaped like the engine's: scope prefix plus a parameter point.
    let scope = EvalScope::new(
        "ddot",
        &p4e(),
        Context::OutOfCache,
        80_000,
        0xb1a5,
        &Timer::quick(),
    );
    let keys: Vec<String> = (0..ENTRIES)
        .map(|i| {
            format!(
                "{}|TransformParams {{ simd: true, unroll: {i}, accum_expand: 1 }}",
                scope.key()
            )
        })
        .collect();
    let per_entry = |secs: f64| secs / ENTRIES as f64;

    let filled = EvalCache::new();
    for (i, k) in keys.iter().enumerate() {
        filled.insert(k.clone(), Some(i as u64));
    }
    let get = median_secs(scale.reps(30), || {
        for k in &keys {
            std::hint::black_box(filled.get(k));
        }
    });
    m.push(("evalcache.get_ns", per_entry(get) * 1e9));

    let fill = |cache: &EvalCache| {
        let owned = keys.clone();
        let t0 = Instant::now();
        for (i, k) in owned.into_iter().enumerate() {
            cache.insert(k, Some(i as u64));
        }
        t0.elapsed().as_secs_f64()
    };
    let inserts: Vec<f64> = (0..scale.reps(10))
        .map(|_| fill(&EvalCache::new()))
        .collect();
    m.push(("evalcache.insert_ns", per_entry(median(&inserts)) * 1e9));

    let mut persists = Vec::new();
    let mut loads = Vec::new();
    for _ in 0..scale.reps(5) {
        let dir = Scratch::new("cache")?;
        persists.push(fill(&EvalCache::persistent(dir.path())?));
        let t0 = Instant::now();
        let loaded = EvalCache::persistent(dir.path())?;
        loads.push(t0.elapsed().as_secs_f64());
        assert_eq!(loaded.len(), ENTRIES, "the journal holds every entry");
    }
    m.push((
        "evalcache.persist_insert_us",
        us(per_entry(median(&persists))),
    ));
    m.push(("evalcache.load_ms", median(&loads) * 1e3));
    Ok(())
}

/// Per-candidate cost of `EvalEngine::eval_batch` itself: a constant
/// evaluator, 64 distinct candidates, a fresh cache per repetition.
fn engine_batches(scale: &Scale, m: &mut Metrics) {
    let mach = p4e();
    let sess = CompileSession::from_source(&hil_source(BlasOp::Dot, Prec::D), &mach)
        .expect("the suite's ddot source opens");
    let defaults = TransformParams::defaults(sess.report(), &mach);
    let cands: Vec<TransformParams> = (1..=64)
        .map(|unroll| TransformParams {
            unroll,
            ..defaults.clone()
        })
        .collect();
    let scope = EvalScope::new("bench", &mach, Context::InL2, 1024, 0, &Timer::quick());
    let probe = |jobs: usize| {
        let samples: Vec<f64> = (0..scale.reps(30))
            .map(|_| {
                let engine = EvalEngine::new(jobs);
                let t0 = Instant::now();
                std::hint::black_box(engine.eval_batch(&scope, "UR", &cands, |_| Some(1000)));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        us(median(&samples)) / cands.len() as f64
    };
    m.push(("engine.batch_overhead_j1_us", probe(1)));
    m.push(("engine.batch_overhead_jn_us", probe(nproc())));
}

/// Serial wall over pooled wall on three out-of-cache tunes at a quarter
/// of the workload size, three alternating rounds (the full-size ratios
/// are `cold_oc` / `jobs_oc` and `cold_oc` / `workers_oc`, which the
/// all-workload run prints).
fn pool_speedups(scale: &Scale, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let subjects = [
        Subject::Blas(Kernel {
            op: BlasOp::Axpy,
            prec: Prec::D,
        }),
        Subject::Blas(Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        }),
        Subject::Hil(HIL_KERNELS[2].0, HIL_KERNELS[2].1),
    ];
    let set: Vec<TuneSpec> = subjects
        .into_iter()
        .map(|subject| TuneSpec {
            subject,
            machine: p4e(),
            context: Context::OutOfCache,
            n: (scale.oc_n / 4).max(64),
        })
        .collect();
    let wall = |pool: Pool| -> Result<f64, String> {
        let t0 = Instant::now();
        for spec in &set {
            run_tune(spec, seed, pool, None)?;
        }
        Ok(t0.elapsed().as_secs_f64())
    };
    let (mut jobs, mut workers) = (Vec::new(), Vec::new());
    for _ in 0..scale.reps(3) {
        let serial = wall(Pool::Serial)?;
        jobs.push(serial / wall(Pool::Jobs(nproc()))?);
        workers.push(serial / wall(Pool::Workers(nproc()))?);
    }
    m.push(("engine.jobs_speedup", median(&jobs)));
    m.push(("engine.workers_speedup", median(&workers)));
    Ok(())
}

fn tuned_db(scale: &Scale, m: &mut Metrics) -> std::io::Result<()> {
    const RECORDS: usize = 1200;
    const APPENDS: usize = 10_000;
    let mach = p4e();
    let sess = CompileSession::from_source(&hil_source(BlasOp::Dot, Prec::D), &mach)
        .expect("the suite's ddot source opens");
    let params = TransformParams::defaults(sess.report(), &mach);
    let machine = ifko::machine_fingerprint(&mach);
    let record = |db: &TunedDb, i: usize| {
        let kernel = format!("kernel{}", i % RECORDS);
        TunedRecord {
            key: ifko::strategy::db_key(&kernel, "D", &machine, "ic", db.rev()),
            kernel,
            prec: "D".to_string(),
            machine: machine.clone(),
            context: "ic".to_string(),
            rev: db.rev().to_string(),
            n: 1024,
            seed: 0,
            strategy: "line".to_string(),
            cycles: 1000 + i as u64,
            params: params.clone(),
            features: None,
        }
    };

    let (mut stores, mut lookups, mut opens, mut compacts) = (vec![], vec![], vec![], vec![]);
    for _ in 0..scale.reps(5) {
        let dir = Scratch::new("db")?;
        let db = TunedDb::open(dir.path())?;
        let recs: Vec<TunedRecord> = (0..RECORDS).map(|i| record(&db, i)).collect();
        let t0 = Instant::now();
        for rec in &recs {
            db.store(rec);
        }
        stores.push(t0.elapsed().as_secs_f64() / RECORDS as f64);

        let t0 = Instant::now();
        for rec in &recs {
            std::hint::black_box(db.lookup(&rec.key));
        }
        lookups.push(t0.elapsed().as_secs_f64() / RECORDS as f64);
        drop(db);

        let t0 = Instant::now();
        let db = TunedDb::open(dir.path())?;
        opens.push(t0.elapsed().as_secs_f64());
        assert_eq!(db.len(), RECORDS, "every record reloads");

        for i in 0..APPENDS {
            db.store(&record(&db, i));
        }
        let t0 = Instant::now();
        db.compact();
        compacts.push(t0.elapsed().as_secs_f64());
    }
    m.push(("tuneddb.lookup_ns", median(&lookups) * 1e9));
    m.push(("tuneddb.store_us", us(median(&stores))));
    m.push(("tuneddb.open_ms", median(&opens) * 1e3));
    m.push(("tuneddb.compact_ms", median(&compacts) * 1e3));
    Ok(())
}

/// Frames over a socket pair against an echo thread.
fn proto(scale: &Scale, m: &mut Metrics) -> std::io::Result<()> {
    let (mut near, mut far) = UnixStream::pair()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        while let Some(frame) = read_frame(&mut far)? {
            write_frame(&mut far, &frame)?;
        }
        Ok(())
    });
    let mut round_trips = |payload: &str, reps: usize| -> std::io::Result<f64> {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            write_frame(&mut near, payload)?;
            let back = read_frame(&mut near)?;
            samples.push(t0.elapsed().as_secs_f64());
            assert_eq!(back.as_deref(), Some(payload), "the echo returns the frame");
        }
        Ok(median(&samples))
    };
    let small = round_trips(&"x".repeat(256), scale.reps(2000))?;
    let big = round_trips(&"x".repeat(1 << 20), scale.reps(30))?;
    drop(near);
    echo.join().expect("the echo thread does not panic")?;
    m.push(("proto.roundtrip_us", us(small)));
    // One MiB out and one MiB back per round trip.
    m.push(("proto.frame_mb_s", 2.0 / big));
    Ok(())
}

/// Worker spawn and per-candidate round-trip cost, on `ddot` in L2 where
/// the evaluation itself is short enough for the transport to show.
fn workers(scale: &Scale, seed: u64, spans: &Spans, m: &mut Metrics) -> Result<(), String> {
    let mach = p4e();
    let kernel = Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    };
    let opts = SearchOptions::default();
    let n = scale.ic_n;
    let scope = EvalScope::new(kernel.name(), &mach, Context::InL2, n, seed, &opts.timer);
    let spec =
        WorkerSpec::blas(&kernel.name(), &mach, Context::InL2, n, seed, &opts, &scope).to_json();
    let launcher = worker_launcher();

    let mut spawns = Vec::new();
    for _ in 0..scale.reps(5) {
        let t0 = Instant::now();
        let pool = spans.call("worker.spawn", None, 0, || {
            WorkerPool::spawn(&launcher, &spec, nproc())
        });
        spawns.push(t0.elapsed().as_secs_f64());
        if pool.alive() != nproc() {
            return Err(format!(
                "only {} of {} workers started",
                pool.alive(),
                nproc()
            ));
        }
    }
    m.push(("worker.spawn_ms", median(&spawns) * 1e3));

    let sess = CompileSession::from_source(&hil_source(kernel.op, kernel.prec), &mach)
        .map_err(|e| e.to_string())?;
    let w = Workload::generate(n, seed);
    let args = KernelArgs {
        kernel,
        workload: &w,
        context: Context::InL2,
    };
    let defaults = TransformParams::defaults(sess.report(), &mach);
    let cands: Vec<TransformParams> = [1, 2, 4, 8, 16]
        .into_iter()
        .map(|unroll| TransformParams {
            unroll,
            ..defaults.clone()
        })
        .collect();
    let local = |p: &TransformParams| -> Result<u64, String> {
        let compiled = sess
            .compile(p, CompileOpts::verify(false))
            .map_err(|e| e.to_string())?;
        let out = run_once(&compiled, &args, &mach).map_err(|e| e.to_string())?;
        ifko::tester::verify(kernel, &w, &out).map_err(|e| e.to_string())?;
        let timed = opts.timer.time_robust(&compiled, &args, &mach, None);
        timed.map(|t| t.cycles).map_err(|e| e.to_string())
    };
    let mut handle = WorkerHandle::spawn(&launcher, 0, &spec).map_err(|e| e.to_string())?;
    let (mut remote_s, mut local_s) = (Vec::new(), Vec::new());
    let mut id = 0;
    // Round 0 warms both sessions' compile caches and is not sampled.
    for round in 0..=scale.reps(40) {
        for p in &cands {
            id += 1;
            let t0 = Instant::now();
            let remote = spans.call("worker.eval", None, 0, || handle.eval(id, p));
            let remote_t = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let here = local(p)?;
            let local_t = t0.elapsed().as_secs_f64();
            if remote.map_err(|e| e.to_string())?.cycles != Some(here) {
                return Err(
                    "a worker evaluated a candidate differently from this process".to_string(),
                );
            }
            if round > 0 {
                remote_s.push(remote_t);
                local_s.push(local_t);
            }
        }
    }
    handle.shutdown();
    m.push((
        "worker.eval_overhead_us",
        us(median(&remote_s) - median(&local_s)),
    ));
    Ok(())
}

fn daemon(scale: &Scale, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let starts: Vec<f64> = (0..scale.reps(5))
        .map(|_| -> Result<f64, String> {
            let dir = Scratch::new("d").map_err(|e| e.to_string())?;
            let cfg = DaemonConfig {
                quiet: true,
                ..DaemonConfig::new(dir.path().join("d.sock"), dir.path().join("db"))
            };
            let t0 = Instant::now();
            let handle = Daemon::start(cfg).map_err(|e| e.to_string())?;
            let secs = t0.elapsed().as_secs_f64();
            handle.stop();
            Ok(secs)
        })
        .collect::<Result<_, _>>()?;
    m.push(("daemon.start_ms", median(&starts) * 1e3));

    let (svc, failures) = service::start(scale, seed, &mut HostSpeed::default())?;
    if let Some(f) = failures.first() {
        return Err(format!("daemon probe set-up: {f}"));
    }
    let mut client = Client::connect(&svc.socket).map_err(|e| e.to_string())?;
    let mut timed = |reps: usize, f: &mut dyn FnMut(&mut Client, usize) -> Result<(), String>| {
        let mut samples = Vec::with_capacity(reps);
        for i in 0..reps {
            let t0 = Instant::now();
            f(&mut client, i)?;
            samples.push(t0.elapsed().as_secs_f64());
        }
        Ok::<f64, String>(us(median(&samples)))
    };
    m.push((
        "daemon.ping_us",
        timed(scale.reps(500), &mut |c, _| c.ping())?,
    ));
    let keys = &svc.keys;
    let query = &mut |c: &mut Client, i: usize| {
        let key = &keys[i % keys.len()];
        c.query(&key.kernel.name(), &key.machine_name(), "ic", None, None)
            .map(drop)
    };
    m.push(("daemon.query_us", timed(scale.reps(500), query)?));
    let warm_tune = &mut |c: &mut Client, i: usize| {
        let key = &keys[i % keys.len()];
        c.tune(&service::tune_request(key, seed)).map(drop)
    };
    m.push(("daemon.warm_tune_us", timed(scale.reps(200), warm_tune)?));
    drop(client);

    // A short pass of the service schedule, for the tail and throughput.
    let schedule = service::schedule(keys.len(), (scale.requests / 4).max(keys.len() * 4), seed);
    let pass = service::run_pass(&svc, &schedule, seed, None);
    if let Some(f) = pass.failures.first() {
        return Err(format!("daemon probe: {f}"));
    }
    m.push(("daemon.req_p95_ms", quantile(&pass.latency_ms, 0.95)));
    m.push(("daemon.req_per_s", schedule.len() as f64 / pass.wall_s));
    svc.stop();
    Ok(())
}

/// What attaching a `MemSink` costs a tune: every third tune of `IC`
/// (in L2 a tune emits the most events per second) with and without
/// one, alternating, medians compared.
fn trace_overhead(scale: &Scale, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let set: Vec<TuneSpec> = crate::sets::ic_set(scale).into_iter().step_by(3).collect();
    let pass = |traced: bool| -> Result<f64, String> {
        let t0 = Instant::now();
        for spec in &set {
            let sink = traced.then(MemSink::new);
            run_tune(spec, seed, Pool::Serial, sink.as_ref())?;
        }
        Ok(t0.elapsed().as_secs_f64())
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..scale.reps(3) {
        plain.push(pass(false)?);
        traced.push(pass(true)?);
    }
    m.push((
        "trace.overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
    ));
    Ok(())
}
