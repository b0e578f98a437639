//! `run_once` / `run_generic` are pure functions of (kernel, workload,
//! context, machine): the precondition for evaluating a candidate from
//! one simulation. Two calls must agree bit for bit — outputs, return
//! registers, and every simulator counter — for every suite kernel and
//! every `kernels/*.hil` source, on both machines, in both contexts.
//!
//! They stay pure on a *reused* [`RunContext`]: after any sequence of
//! runs that leave dirt behind (stray stores, write-combine entries, a
//! fault or an exhausted instruction budget mid-program, another
//! machine, another precision), a run must equal the same run on a
//! brand-new `Cpu::new` + `Memory::new`.
//!
//! And the two entry points are one path: `run_once` on a suite kernel's
//! `Workload` equals `run_generic` on the operands a tune binds for it
//! (`[x, y][..n_vectors]`, `[alpha, beta]`) bit for bit.
//!
//! What rests on that: a tune simulates each distinct program it compiles
//! exactly once, and a suite kernel and a `.hil` source share one operand
//! and result type.

use ifko::generic::{run_generic, GenericWorkload};
use ifko::prelude::*;
use ifko::runner::{run_once, KernelArgs, Operands, Outputs, RunContext};
use ifko::search::line_search_batched;
use ifko_blas::hil_src::hil_source;
use ifko_fko::{
    compile_defaults, normalized, ArgSlot, CompileOpts, CompileSession, CompiledKernel, RetSlot,
    TransformParams,
};
use ifko_xsim::isa::Inst::*;
use ifko_xsim::isa::{Addr, FReg, IReg};
use ifko_xsim::{Asm, Cpu, Memory, Rng64, RunError};
use std::collections::{HashMap, HashSet};

const CONTEXTS: [Context; 2] = [Context::OutOfCache, Context::InL2];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn hil_kernels() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("kernels/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "hil"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable .hil");
            (p.display().to_string(), src)
        })
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no kernels/*.hil found");
    out
}

#[test]
fn run_once_is_pure_for_every_suite_kernel() {
    for mach in [p4e(), opteron()] {
        for k in ALL_KERNELS {
            let compiled = compile_defaults(&hil_source(k.op, k.prec), &mach).unwrap();
            for context in CONTEXTS {
                let w = Workload::generate(context.paper_n().min(3000), 11);
                let args = KernelArgs {
                    kernel: k,
                    workload: &w,
                    context,
                };
                let a = run_once(&compiled, &args, &mach).unwrap();
                let b = run_once(&compiled, &args, &mach).unwrap();
                let what = format!("{} {} {}", k.name(), mach.name, context.label());
                assert_eq!(a.stats, b.stats, "{what}: counters");
                assert_eq!(a.ret_f.to_bits(), b.ret_f.to_bits(), "{what}: ret_f");
                assert_eq!(a.ret_i, b.ret_i, "{what}: ret_i");
                assert_eq!(bits(&a.vectors[0]), bits(&b.vectors[0]), "{what}: x");
                assert_eq!(a.vectors.len(), b.vectors.len(), "{what}: vectors");
                if let (Some(ya), Some(yb)) = (a.vectors.get(1), b.vectors.get(1)) {
                    assert_eq!(bits(ya), bits(yb), "{what}: y");
                }
            }
        }
    }
}

#[test]
fn run_once_and_run_generic_are_one_path_for_every_suite_kernel() {
    for mach in [p4e(), opteron()] {
        for k in ALL_KERNELS {
            let compiled = compile_defaults(&hil_source(k.op, k.prec), &mach).unwrap();
            for context in CONTEXTS {
                let w = Workload::generate(context.paper_n().min(3000), 11);
                let args = KernelArgs {
                    kernel: k,
                    workload: &w,
                    context,
                };
                let once = run_once(&compiled, &args, &mach).unwrap();
                let operands = GenericWorkload {
                    n: w.n,
                    vectors: [w.x.clone(), w.y.clone()][..k.op.n_vectors()].to_vec(),
                    scalars: vec![w.alpha, w.beta],
                };
                let generic = run_generic(&compiled, &operands, context, &mach).unwrap();
                let what = format!("{} {} {}", k.name(), mach.name, context.label());
                assert_same_run(&generic, &once, &what);
                assert_eq!(generic.cycles, once.cycles, "{what}: cycles");
            }
        }
    }
}

#[test]
fn run_generic_is_pure_for_every_hil_kernel() {
    for (path, src) in hil_kernels() {
        for mach in [p4e(), opteron()] {
            let sess = CompileSession::from_source(&src, &mach).unwrap();
            let params = TransformParams::defaults(sess.report(), &mach);
            let compiled = sess.compile(&params, CompileOpts::default()).unwrap();
            for context in CONTEXTS {
                let w = GenericWorkload::for_kernel(&compiled, context.paper_n().min(3000), 11);
                let a = run_generic(&compiled, &w, context, &mach).unwrap();
                let b = run_generic(&compiled, &w, context, &mach).unwrap();
                let what = format!("{path} {} {}", mach.name, context.label());
                assert_eq!(a.stats, b.stats, "{what}: counters");
                assert_eq!(a.cycles, b.cycles, "{what}: cycles");
                assert_eq!(a.ret_f.to_bits(), b.ret_f.to_bits(), "{what}: ret_f");
                assert_eq!(a.ret_i, b.ret_i, "{what}: ret_i");
                assert_eq!(a.vectors.len(), b.vectors.len(), "{what}: vectors");
                for (va, vb) in a.vectors.iter().zip(&b.vectors) {
                    assert_eq!(bits(va), bits(vb), "{what}: vector contents");
                }
            }
        }
    }
}

/// The reference harness: what `run_once` did before contexts were
/// reused — a brand-new memory image and CPU per run, assembled from
/// xsim's public parts.
fn fresh_run(
    compiled: &CompiledKernel,
    ops: &Operands<'_, Vec<f64>>,
    context: Context,
    machine: &MachineConfig,
) -> Result<Outputs, RunError> {
    let (prec, n) = (compiled.prec, ops.n);
    let eb = prec.bytes();
    let mut mem = Memory::new(ops.capacity);
    let mut addrs = Vec::new();
    for v in ops.vectors {
        let a = mem.alloc_vector(n.max(1) as u64, eb);
        match prec {
            Prec::D => mem.store_f64_slice(a, v).unwrap(),
            Prec::S => {
                let f: Vec<f32> = v.iter().map(|&x| x as f32).collect();
                mem.store_f32_slice(a, &f).unwrap();
            }
        }
        addrs.push(a);
    }
    let frame = match compiled.frame_bytes {
        0 => 0,
        bytes => mem.alloc(bytes, 16),
    };
    let mut cpu = Cpu::new(machine.clone());
    cpu.flush_caches();
    if context == Context::InL2 {
        for a in &addrs {
            cpu.preload_l2(*a, n as u64 * eb);
        }
    }
    let (mut ptrs, mut scalars) = (addrs.iter(), ops.scalars.iter());
    for slot in &compiled.arg_convention {
        match slot {
            ArgSlot::PtrReg(r) => cpu.set_ireg(IReg(*r), *ptrs.next().unwrap() as i64),
            ArgSlot::IntReg(r) => cpu.set_ireg(IReg(*r), n as i64),
            ArgSlot::FReg(r) => match prec {
                Prec::D => cpu.set_freg_f64(FReg(*r), *scalars.next().unwrap()),
                Prec::S => cpu.set_freg_f32(FReg(*r), *scalars.next().unwrap() as f32),
            },
        }
    }
    cpu.set_ireg(IReg(7), frame as i64);
    let stats = cpu.run(&compiled.program, &mut mem)?;
    Ok(Outputs {
        ret_f: match (compiled.ret, prec) {
            (RetSlot::F0, Prec::D) => cpu.freg_f64(FReg(0)),
            (RetSlot::F0, Prec::S) => cpu.freg_f32(FReg(0)) as f64,
            _ => 0.0,
        },
        ret_i: match compiled.ret {
            RetSlot::I0 => cpu.ireg(IReg(0)),
            _ => 0,
        },
        vectors: addrs
            .iter()
            .map(|a| match prec {
                Prec::D => mem.load_f64_slice(*a, n).unwrap(),
                Prec::S => mem
                    .load_f32_slice(*a, n)
                    .unwrap()
                    .into_iter()
                    .map(|x| x as f64)
                    .collect(),
            })
            .collect(),
        cycles: stats.cycles,
        stats,
    })
}

/// One bound run: a compiled kernel with generated operands.
struct Case {
    what: String,
    compiled: CompiledKernel,
    vectors: Vec<Vec<f64>>,
    scalars: Vec<f64>,
    n: usize,
    context: Context,
    machine: MachineConfig,
}

impl Case {
    fn ops(&self) -> Operands<'_, Vec<f64>> {
        let eb = self.compiled.prec.bytes() as usize;
        Operands {
            n: self.n,
            vectors: &self.vectors,
            scalars: &self.scalars,
            capacity: self.n * eb * (self.vectors.len() + 1) + (1 << 20),
        }
    }
}

/// A p4e whose bus alone is slower: same name, same cache geometry.
fn slow_bus_p4e() -> MachineConfig {
    let mut m = p4e();
    m.bus.bytes_per_cycle *= 0.5;
    assert_ne!(m, p4e());
    m
}

/// A suite kernel at FKO's defaults, bound to a seeded workload.
fn suite_case(rng: &mut Rng64) -> Case {
    let k = ALL_KERNELS[rng.range_usize(ALL_KERNELS.len())];
    let machine = [p4e(), opteron(), slow_bus_p4e()][rng.range_usize(3)].clone();
    let context = CONTEXTS[rng.range_usize(2)];
    let n = 1 + rng.range_usize(2500);
    let compiled = compile_defaults(&hil_source(k.op, k.prec), &machine).unwrap();
    let w = Workload::generate(n, rng.next_u64());
    let vectors = [w.x.clone(), w.y.clone()][..k.op.n_vectors()].to_vec();
    Case {
        what: format!(
            "{} {} bus {} {} n={n}",
            k.name(),
            machine.name,
            machine.bus.bytes_per_cycle,
            context.label()
        ),
        compiled,
        vectors,
        scalars: vec![w.alpha, w.beta],
        n,
        context,
        machine,
    }
}

/// A hand-assembled kernel over one vector; `body` sees X in r0, N in r1
/// and the frame in r7.
fn hand_case(what: &str, frame_bytes: u64, rng: &mut Rng64, body: impl FnOnce(&mut Asm)) -> Case {
    let mut a = Asm::new();
    body(&mut a);
    let n = 64 + rng.range_usize(512);
    Case {
        what: what.to_string(),
        compiled: CompiledKernel {
            name: what.to_string(),
            prec: Prec::D,
            program: a.finish(),
            frame_bytes,
            arg_convention: vec![ArgSlot::PtrReg(0), ArgSlot::IntReg(1)],
            ret: RetSlot::None,
        },
        vectors: vec![(0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()],
        scalars: Vec::new(),
        n,
        context: Context::OutOfCache,
        machine: [p4e(), opteron()][rng.range_usize(2)].clone(),
    }
}

const X: IReg = IReg(0);
const FRAME: IReg = IReg(7);

/// Byte offsets from X, inside the 1 MB slack, where stray stores land.
const STRAYS: [i64; 6] = [40_000, 65_544, 131_072, 300_000, 524_312, 1_000_000];

/// A kernel that reads back everything a fresh context guarantees and
/// the harness does not bind — the stray-store slots, a frame slot, an
/// integer and two FP registers, the flags — into X, where the output
/// comparison sees it.
fn probe_case(rng: &mut Rng64) -> Case {
    hand_case("probe", 64, rng, |a| {
        let mut slot = 0i64;
        let mut next = || {
            slot += 16;
            Addr::base_disp(X, slot)
        };
        for far in STRAYS {
            a.push(ILoad(IReg(2), Addr::base_disp(X, far)));
            a.push(IStore(next(), IReg(2)));
        }
        a.push(ILoad(IReg(2), Addr::base_disp(FRAME, 8)));
        a.push(IStore(next(), IReg(2)));
        a.push(IStore(next(), IReg(5)));
        a.push(FSt(next(), FReg(6), Prec::D));
        a.push(VSt(next(), FReg(7), Prec::D, true));
        let stale_flags = a.new_label();
        a.push(Jcc(ifko_xsim::Cond::Ne, stale_flags));
        a.push(IMovImm(IReg(4), 1));
        a.push(IStore(next(), IReg(4)));
        a.bind(stale_flags);
        a.push(Halt);
    })
}

/// Leave the context dirty in one of the ways a rejected candidate (or
/// a caller holding the context) can.
fn dirty(ctx: &mut RunContext, rng: &mut Rng64) {
    match rng.range_usize(6) {
        // An ordinary run — possibly on another machine, at another
        // precision, in the other context.
        0 => {
            let c = suite_case(rng);
            ctx.run(&c.compiled, &c.ops(), c.context, &c.machine)
                .unwrap();
        }
        // Stores into the slack far beyond the operands and into the
        // frame, and sets registers and flags the harness never binds.
        1 => {
            let far = STRAYS[rng.range_usize(STRAYS.len())];
            let c = hand_case("stray-stores", 64, rng, |a| {
                a.push(IMovImm(IReg(5), -77));
                a.push(IStore(Addr::base_disp(X, far), IReg(5)));
                a.push(IStore(Addr::base_disp(FRAME, 8), IReg(5)));
                a.push(FLdImm(FReg(6), 3.5, Prec::D));
                a.push(VBcast(FReg(7), FReg(6), Prec::D));
                a.push(ICmpImm(IReg(5), 0));
                a.push(Halt);
            });
            ctx.run(&c.compiled, &c.ops(), c.context, &c.machine)
                .unwrap();
        }
        // Non-temporal stores cut short by the instruction budget:
        // write-combine entries stay open and the budget stays lowered.
        2 => {
            let c = hand_case("nt-budget", 0, rng, |a| {
                a.push(FLdImm(FReg(1), 9.25, Prec::D));
                let top = a.here();
                a.push(FStNt(Addr::base(X), FReg(1), Prec::D));
                a.push(IAddImm(X, 8));
                a.push(Jmp(top));
            });
            ctx.run(&c.compiled, &c.ops(), c.context, &c.machine)
                .expect_err("an endless loop must fault or run out of budget");
            ctx.cpu.set_ireg(X, ctx.mem.base() as i64);
            ctx.cpu.set_inst_limit(40 + rng.range_usize(40) as u64);
            let err = ctx.cpu.run(&c.compiled.program, &mut ctx.mem);
            assert!(matches!(err, Err(RunError::InstLimit { .. })), "{err:?}");
        }
        // A fault after real work: streams the vector, then reads below
        // the memory base.
        3 => {
            let c = hand_case("mem-fault", 16, rng, |a| {
                let top = a.here();
                a.push(FLd(FReg(0), Addr::base(X), Prec::D));
                a.push(FSt(Addr::base(X), FReg(0), Prec::D));
                a.push(IAddImm(X, 8));
                a.push(IDec(IReg(1)));
                a.push(Jcc(ifko_xsim::Cond::Gt, top));
                a.push(IMovImm(IReg(2), 8));
                a.push(ILoad(IReg(3), Addr::base(IReg(2))));
                a.push(Halt);
            });
            let err = ctx.run(&c.compiled, &c.ops(), c.context, &c.machine);
            assert!(err.unwrap_err().0.contains("memory fault"));
        }
        // Falls off the end of the program.
        4 => {
            let c = hand_case("ran-off-end", 0, rng, |a| {
                a.push(FLd(FReg(2), Addr::base(X), Prec::D));
            });
            ctx.run(&c.compiled, &c.ops(), c.context, &c.machine)
                .unwrap_err();
        }
        // Warm both cache levels behind the harness's back.
        _ => {
            let base = ctx.mem.base();
            ctx.cpu
                .preload_all(base, 64 * (1 + rng.range_usize(4096)) as u64);
        }
    }
}

fn assert_same_run(got: &Outputs, want: &Outputs, what: &str) {
    assert_eq!(got.stats, want.stats, "{what}: counters");
    assert_eq!(got.ret_f.to_bits(), want.ret_f.to_bits(), "{what}: ret_f");
    assert_eq!(got.ret_i, want.ret_i, "{what}: ret_i");
    assert_eq!(got.vectors.len(), want.vectors.len(), "{what}: vectors");
    for (g, w) in got.vectors.iter().zip(&want.vectors) {
        assert_eq!(bits(g), bits(w), "{what}: vector contents");
    }
}

#[test]
fn a_dirty_context_runs_like_a_brand_new_one() {
    let mut rng = Rng64::seed_from_u64(0x0d1f_f5e7);
    let mut ctx = RunContext::new(&opteron());
    for round in 0..120 {
        let mut trail = Vec::new();
        for _ in 0..rng.range_usize(4) {
            dirty(&mut ctx, &mut rng);
            trail.push(ctx.cpu.config().name);
        }
        let c = if rng.gen_bool(0.3) {
            probe_case(&mut rng)
        } else {
            suite_case(&mut rng)
        };
        let what = format!("round {round}, after {trail:?}: {}", c.what);
        let want = fresh_run(&c.compiled, &c.ops(), c.context, &c.machine).unwrap();
        let got = ctx
            .run(&c.compiled, &c.ops(), c.context, &c.machine)
            .unwrap();
        assert_same_run(&got, &want, &what);
    }
}

/// The adjacent pairs the random walk may not hit often enough, pinned:
/// each switch must give the result of the machine or precision asked
/// for, not of the one the context last ran.
#[test]
fn machine_bus_and_precision_switches_are_clean() {
    let mut ctx = RunContext::new(&p4e());
    let w = Workload::generate(1500, 3);
    let run = |ctx: &mut RunContext, op: BlasOp, prec: Prec, machine: &MachineConfig| {
        let c = Case {
            what: format!("{op:?} {prec:?} {}", machine.name),
            compiled: compile_defaults(&hil_source(op, prec), machine).unwrap(),
            vectors: vec![w.x.clone(), w.y.clone()],
            scalars: vec![w.alpha, w.beta],
            n: w.n,
            context: Context::OutOfCache,
            machine: machine.clone(),
        };
        let want = fresh_run(&c.compiled, &c.ops(), c.context, &c.machine).unwrap();
        let got = ctx
            .run(&c.compiled, &c.ops(), c.context, &c.machine)
            .unwrap();
        assert_same_run(&got, &want, &c.what);
        got.stats.cycles
    };
    let fast = run(&mut ctx, BlasOp::Axpy, Prec::D, &p4e());
    let slow = run(&mut ctx, BlasOp::Axpy, Prec::D, &slow_bus_p4e());
    assert!(
        slow > fast,
        "half the bus must cost cycles ({slow} vs {fast})"
    );
    assert_eq!(run(&mut ctx, BlasOp::Axpy, Prec::D, &p4e()), fast);
    run(&mut ctx, BlasOp::Axpy, Prec::D, &opteron());
    run(&mut ctx, BlasOp::Axpy, Prec::S, &opteron());
    run(&mut ctx, BlasOp::Swap, Prec::S, &p4e());
    run(&mut ctx, BlasOp::Swap, Prec::D, &p4e());
}

/// The parameter points behind a tune trace's `params` strings: the line
/// search replayed over the trace's own results submits exactly the
/// tune's probes, so every string meets its point.
fn traced_points(
    sink: &MemSink,
    src: &str,
    machine: &MachineConfig,
) -> HashMap<String, TransformParams> {
    let results: HashMap<_, _> = sink
        .evals()
        .into_iter()
        .map(|e| (e.params, e.cycles))
        .collect();
    let sess = CompileSession::from_source(src, machine).unwrap();
    let opts = SearchOptions::default();
    let mut points = HashMap::new();
    line_search_batched(sess.report(), machine, &opts, |_, cands| {
        let mut out = Vec::new();
        for p in cands {
            let key = format!("{p:?}");
            out.push(results.get(&key).copied().flatten());
            points.insert(key, p.clone());
        }
        out
    });
    points
}

/// Distinct normalized points among a traced tune's fresh evaluations
/// that compiled (and so ran or found their program's run).
fn distinct_runs(sink: &MemSink, src: &str, machine: &MachineConfig) -> u64 {
    let points = traced_points(sink, src, machine);
    let fresh = sink.evals().into_iter();
    let ran = fresh.filter(|e| !e.cache_hit && e.stats.is_some());
    let distinct: HashSet<_> = ran.map(|e| normalized(&points[&e.params])).collect();
    distinct.len() as u64
}

/// A cold tune simulates once per distinct program it compiled: once per
/// distinct normalized point among its fresh evaluations that compiled,
/// and not once more for the winner's report, whose run is the one the
/// search made. That holds under chaos timer spikes (every re-time is a
/// re-draw over the same cycle count) and at `--jobs 8`, where points
/// that compile to one program may run at once yet simulate once. The
/// paper's in-L2 candidate sets sweep prefetch distances of arrays whose
/// prefetch is off, so some fresh points do share a program.
#[test]
fn a_tune_simulates_each_compiled_candidate_exactly_once() {
    let ddot = Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    };
    let spikes = FaultPlan {
        seed: 7,
        compile: 0.0,
        tester: 0.0,
        timer_rep: 0.3,
        persist: 0.0,
    };
    let src = hil_source(ddot.op, ddot.prec);
    let mut shared = 0;
    for machine in [p4e(), opteron()] {
        let mut serial = None;
        for (plan, jobs) in [(None, 1), (Some(spikes.clone()), 1), (None, 8)] {
            let reg = std::sync::Arc::new(MetricsRegistry::new());
            let sink = MemSink::new();
            let mut cfg = TuneConfig::quick(1024)
                .search(SearchOptions::default())
                .context(Context::InL2)
                .machine(machine.clone())
                .metrics(reg.clone())
                .trace(sink.clone())
                .jobs(jobs);
            if let Some(plan) = &plan {
                cfg = cfg.faults(plan.clone());
            }
            cfg.tune(ddot).unwrap();
            let count = |name| reg.counter_value(name).unwrap_or(0);
            let what = format!("{} chaos={} jobs={jobs}", machine.name, plan.is_some());
            // Nothing was rejected or failed, so every fresh evaluation
            // compiled and was judged by a run.
            assert_eq!(count(metrics::ENGINE_REJECTED), 0, "{what}");
            assert_eq!(count(metrics::ENGINE_FAILED), 0, "{what}");
            let fresh = count(metrics::ENGINE_EVALS);
            assert!(fresh > 5, "{what}: cold tune must evaluate candidates");
            let sims = count(metrics::ENGINE_SIMULATIONS);
            assert_eq!(sims, distinct_runs(&sink, &src, &machine), "{what}");
            assert_eq!(*serial.get_or_insert(sims), sims, "{what}: serial counts");
            shared += fresh - sims;
            if plan.is_some() {
                assert!(count(metrics::ENGINE_FAULTS) > 0, "spikes must fire");
                assert!(count(metrics::ENGINE_RETRIES) > 0, "spikes must re-time");
            }
        }
    }
    assert!(shared > 0, "no two fresh points shared a program");
}

/// A `.hil` subject counts its baseline run once, when its first tune
/// reports the open, and a second tune of the same opened subject — every
/// probe an evaluation-cache hit, the winner's run kept — simulates
/// nothing and traces no `parse`.
#[test]
fn a_source_counts_its_baseline_run_once_per_open() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../kernels/waxpby.hil"
    ))
    .unwrap();
    let reg = std::sync::Arc::new(MetricsRegistry::new());
    let sink = MemSink::new();
    let cfg = TuneConfig::quick(1024)
        .search(SearchOptions::default())
        .context(Context::InL2)
        .metrics(reg.clone())
        .trace(sink.clone());
    let opened = cfg.open_source(&src).unwrap();
    let first = cfg.tune_opened(&opened).unwrap();
    let sims = || reg.counter_value(metrics::ENGINE_SIMULATIONS).unwrap_or(0);
    let after_first = sims();
    assert_eq!(after_first, distinct_runs(&sink, &src, &p4e()) + 1);
    let second = cfg.tune_opened(&opened).unwrap();
    assert_eq!(second.result.evaluations, 0);
    assert_eq!(sims(), after_first, "the second tune simulated");
    assert_eq!(second.result.best, first.result.best);
    assert_eq!(second.cycles, first.cycles);
    // Two tunes, one open: the second reports no front end.
    let stages = |stage: &str| sink.spans().iter().filter(|s| s.stage == stage).count();
    assert_eq!((stages("tune"), stages("parse")), (2, 1));
}
