//! In-process A/B timing of `Cpu::run`.
//!
//! Two builds of the simulator linked into one process and alternated on
//! the same compiled programs see the same host: a swing in its speed
//! hits both sides alike, which single runs of two binaries cannot
//! promise. `scripts/ab.sh REV` builds a harness whose base side is
//! REV's `crates/{xsim,fko,hil,blas}` and whose change is the working
//! tree's; `tests/aa.rs` runs the same harness with one build on every
//! side.
//!
//! A side is a [`side!`] expansion naming its crates. The harness refuses
//! to time two sides whose programs differ (their disassemblies) or whose
//! runs count differently (every `RunStats` counter), and each round also
//! times the base against a second copy of itself: that A/A ratio is the
//! harness's floor, read in the same run as the A/B ratio.

use std::time::Duration;

/// Where the operands start: out of cache, or preloaded into L2.
#[derive(Clone, Copy, Debug)]
pub struct Context {
    pub name: &'static str,
    pub in_l2: bool,
    /// Vector length.
    pub n: usize,
}

/// A change to FKO's default transformation parameters.
#[derive(Clone, Copy, Debug)]
pub enum Variant {
    Defaults,
    Unroll(u32),
    PrefetchOff,
    Wnt,
}

/// The program set: the first `kernels` suite kernels × `variants` × both
/// machines, each run in every context.
pub struct Set {
    pub contexts: Vec<Context>,
    pub variants: Vec<Variant>,
    pub kernels: usize,
}

impl Set {
    /// The set a simulator speed claim is read on: 14 kernels ×
    /// {defaults, UR 1/4/16, PF off, WNT} × both machines, out of cache
    /// at N = 20 000 and in L2 at N = 1024.
    pub fn full() -> Set {
        use Variant::*;
        Set {
            contexts: vec![
                Context {
                    name: "out of cache",
                    in_l2: false,
                    n: 20_000,
                },
                Context {
                    name: "in L2",
                    in_l2: true,
                    n: 1024,
                },
            ],
            variants: vec![Defaults, Unroll(1), Unroll(4), Unroll(16), PrefetchOff, Wnt],
            kernels: 14,
        }
    }
}

/// One case of a set as a side compiled it.
pub struct Case {
    /// Machine, kernel and variant.
    pub name: String,
    /// The program's disassembly, or why it did not compile.
    pub listing: Result<String, String>,
}

/// One timed run.
pub struct Run {
    /// Host time inside `Cpu::run`.
    pub time: Duration,
    /// Simulated instructions.
    pub insts: u64,
    /// Every `RunStats` counter, in `RunStats::FIELDS` order.
    pub stats: Vec<u64>,
}

/// One build of the simulator and its compiler, bound to a program set.
pub trait Side {
    /// Compile `set`'s cases.
    fn compile(&mut self, set: &Set) -> Result<Vec<Case>, String>;
    /// Run compiled case `case` in `set.contexts[context]` from a fresh
    /// binding.
    fn run(&mut self, case: usize, context: usize) -> Result<Run, String>;
}

/// What one context read.
#[derive(Clone, Debug)]
pub struct Reading {
    pub context: &'static str,
    /// Programs timed, and the simulated instructions of one pass over them.
    pub programs: usize,
    pub insts: u64,
    /// Median host nanoseconds per simulated instruction.
    pub base_ns: f64,
    pub change_ns: f64,
    /// Median over rounds of base time / change time: above 1, the change
    /// is faster.
    pub ratio: f64,
    /// The same for the base against its own twin.
    pub aa: f64,
}

/// Time `base`, `change` and `twin` (a second instance of the base) on
/// `set` for `rounds` rounds. Each round runs every program once on each
/// side, the three runs of one program back to back in an order that
/// rotates, so no side always runs first.
pub fn ab(
    set: &Set,
    rounds: usize,
    base: &mut dyn Side,
    change: &mut dyn Side,
    twin: &mut dyn Side,
) -> Result<Vec<Reading>, String> {
    let mut sides: [&mut dyn Side; 3] = [base, change, twin];
    let cases = sides[0].compile(set)?;
    for side in &mut sides[1..] {
        let theirs = side.compile(set)?;
        if theirs.len() != cases.len() {
            return Err("the sides compile different program sets".into());
        }
        for (a, b) in cases.iter().zip(&theirs) {
            if a.name != b.name || a.listing != b.listing {
                return Err(format!(
                    "{}: the sides compile different programs; refusing to time them",
                    a.name
                ));
            }
        }
    }
    let ok: Vec<usize> = (0..cases.len())
        .filter(|&i| cases[i].listing.is_ok())
        .collect();
    let mut readings = Vec::new();
    for (c, context) in set.contexts.iter().enumerate() {
        // One untimed pass: every side must count alike.
        let mut insts = 0;
        for &i in &ok {
            let runs = [
                sides[0].run(i, c)?,
                sides[1].run(i, c)?,
                sides[2].run(i, c)?,
            ];
            if runs[1].stats != runs[0].stats || runs[2].stats != runs[0].stats {
                return Err(format!(
                    "{} {}: the sides' RunStats differ",
                    cases[i].name, context.name
                ));
            }
            insts += runs[0].insts;
        }
        let mut secs = vec![[0.0f64; 3]; rounds];
        for (r, round) in secs.iter_mut().enumerate() {
            for (k, &i) in ok.iter().enumerate() {
                for s in 0..3 {
                    let side = (r + k + s) % 3;
                    round[side] += sides[side].run(i, c)?.time.as_secs_f64();
                }
            }
        }
        let per_inst = |s: usize| median(secs.iter().map(|t| t[s])) * 1e9 / insts.max(1) as f64;
        readings.push(Reading {
            context: context.name,
            programs: ok.len(),
            insts,
            base_ns: per_inst(0),
            change_ns: per_inst(1),
            ratio: median(secs.iter().map(|t| t[0] / t[1])),
            aa: median(secs.iter().map(|t| t[0] / t[2])),
        });
    }
    Ok(readings)
}

/// The readings as a table, one row per context.
pub fn table(readings: &[Reading], rounds: usize) -> String {
    let mut out = format!(
        "{:<14} {:>8} {:>12} {:>9} {:>9} {:>7} {:>7}   ({rounds} rounds)\n",
        "context", "programs", "insts", "base ns", "change ns", "A/B", "A/A"
    );
    for r in readings {
        out += &format!(
            "{:<14} {:>8} {:>12} {:>9.2} {:>9.2} {:>6.3}x {:>6.3}x\n",
            r.context, r.programs, r.insts, r.base_ns, r.change_ns, r.ratio, r.aa
        );
    }
    out
}

fn median(xs: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => (v[(n - 1) / 2] + v[n / 2]) / 2.0,
    }
}

/// Define module `$side` whose `Side` is an A/B side built from the
/// simulator crate `$xsim`, the compiler `$fko` and the suite `$blas`.
/// A run binds its operands as the system benchmark's simulator probe
/// does (same layout, same workload, a reset `Cpu` on the case's machine)
/// and times `Cpu::run` alone.
#[macro_export]
macro_rules! side {
    ($side:ident, $xsim:ident, $fko:ident, $blas:ident) => {
        mod $side {
            use ::$blas::{hil_src::hil_source, Kernel, Workload, ALL_KERNELS};
            use ::$fko::{ArgSlot, CompileOpts, CompileSession, CompiledKernel, TransformParams};
            use ::$xsim::isa::Prec;
            use ::$xsim::{opteron, p4e, Cpu, FReg, IReg, MachineConfig, Memory, RunStats};
            use $crate::{Case, Run, Set, Variant};

            struct Bound {
                mach: MachineConfig,
                kernel: Kernel,
                compiled: CompiledKernel,
            }

            /// One build's side of an A/B run.
            #[derive(Default)]
            pub struct Side {
                cases: Vec<Option<Bound>>,
                work: Vec<(Workload, bool)>,
                cpu: Option<Cpu>,
                mem: Option<Memory>,
            }

            impl $crate::Side for Side {
                fn compile(&mut self, set: &Set) -> Result<Vec<Case>, String> {
                    // The system benchmark's default workload seed.
                    const SEED: u64 = 2005;
                    self.work = set
                        .contexts
                        .iter()
                        .map(|c| (Workload::generate(c.n, SEED), c.in_l2))
                        .collect();
                    self.cases.clear();
                    let mut out = Vec::new();
                    for mach in [p4e(), opteron()] {
                        for kernel in ALL_KERNELS.into_iter().take(set.kernels) {
                            let src = hil_source(kernel.op, kernel.prec);
                            let sess = CompileSession::from_source(&src, &mach)
                                .map_err(|e| e.to_string())?;
                            for &v in &set.variants {
                                let mut p = TransformParams::defaults(sess.report(), &mach);
                                match v {
                                    Variant::Defaults => {}
                                    Variant::Unroll(u) => p.unroll = u,
                                    Variant::PrefetchOff => p.prefetch.clear(),
                                    Variant::Wnt => p.wnt = true,
                                }
                                let compiled = sess.compile(&p, CompileOpts::default());
                                out.push(Case {
                                    name: format!("{} {} {v:?}", mach.name, kernel.name()),
                                    listing: match &compiled {
                                        Ok(c) => Ok(::$xsim::asm::disassemble(&c.program)),
                                        Err(e) => Err(e.to_string()),
                                    },
                                });
                                self.cases.push(compiled.ok().map(|compiled| Bound {
                                    mach: mach.clone(),
                                    kernel,
                                    compiled,
                                }));
                            }
                        }
                    }
                    Ok(out)
                }

                fn run(&mut self, case: usize, context: usize) -> Result<Run, String> {
                    let b = self.cases[case]
                        .as_ref()
                        .ok_or("the case did not compile")?;
                    let (w, in_l2) = &self.work[context];
                    let (n, prec) = (w.n as u64, b.kernel.prec);
                    let eb = prec.bytes();
                    let mem = self.mem.get_or_insert_with(|| Memory::new(0));
                    mem.reset((n * eb * 2 + (1 << 20)) as usize);
                    let two = b.kernel.op.n_vectors() > 1;
                    let mut store = |data: &[f64]| {
                        let addr = mem.alloc_vector(n.max(1), eb);
                        let stored = match prec {
                            Prec::D => mem.store_f64_slice(addr, data),
                            Prec::S => mem.store_elems(addr, data, |v| (v as f32).to_le_bytes()),
                        };
                        stored.map(|()| addr).map_err(|e| e.to_string())
                    };
                    let x = store(&w.x)?;
                    let y = if two { store(&w.y)? } else { 0 };
                    let frame = match b.compiled.frame_bytes {
                        0 => 0,
                        bytes => mem.alloc(bytes, 16),
                    };
                    let cpu = self.cpu.get_or_insert_with(|| Cpu::new(b.mach.clone()));
                    cpu.reset(&b.mach);
                    cpu.flush_caches();
                    if *in_l2 {
                        cpu.preload_l2(x, n * eb);
                        if two {
                            cpu.preload_l2(y, n * eb);
                        }
                    }
                    let mut ptrs = [x, y].into_iter();
                    let mut scalars = [w.alpha, w.beta].into_iter();
                    for slot in &b.compiled.arg_convention {
                        match *slot {
                            ArgSlot::PtrReg(r) => {
                                cpu.set_ireg(IReg(r), ptrs.next().unwrap_or(0) as i64)
                            }
                            ArgSlot::IntReg(r) => cpu.set_ireg(IReg(r), n as i64),
                            ArgSlot::FReg(r) => {
                                let v = scalars.next().unwrap_or(0.0);
                                match prec {
                                    Prec::D => cpu.set_freg_f64(FReg(r), v),
                                    Prec::S => cpu.set_freg_f32(FReg(r), v as f32),
                                }
                            }
                        }
                    }
                    cpu.set_ireg(IReg(7), frame as i64);
                    let t0 = std::time::Instant::now();
                    let st = cpu.run(&b.compiled.program, mem);
                    let time = t0.elapsed();
                    let st = st.map_err(|e| e.to_string())?;
                    Ok(Run {
                        time,
                        insts: st.insts,
                        stats: RunStats::FIELDS
                            .iter()
                            .map(|(_, get, _)| get(&st))
                            .collect(),
                    })
                }
            }
        }
    };
}
