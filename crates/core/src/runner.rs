//! Kernel execution harness: binds operands to a compiled kernel's
//! calling convention, establishes the timing context, runs on the
//! simulator, and extracts outputs. One lay-out/bind/run/extract path
//! ([`RunContext::run`]) with one result type ([`Outputs`]) serves both
//! the BLAS suite ([`run_once`]) and arbitrary HIL kernels
//! ([`crate::generic::run_generic`]), on reusable contexts drawn from a
//! process-wide pool ([`simulate`]).

use ifko_blas::{Kernel, RetKind, Workload};
use ifko_fko::{ArgSlot, CompiledKernel, RetSlot};
use ifko_xsim::isa::Prec;
use ifko_xsim::{Cpu, FReg, IReg, MachineConfig, Memory, RunStats};
use std::sync::{Mutex, OnceLock};

/// Memory context of a timing (paper §3: "out-of-cache" N=80000 vs
/// "in-L2-cache" N=1024).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Context {
    /// Caches cold at kernel entry.
    OutOfCache,
    /// Operands pre-loaded into L2 (but not L1).
    InL2,
}

impl Context {
    pub fn label(self) -> &'static str {
        match self {
            Context::OutOfCache => "oc",
            Context::InL2 => "ic",
        }
    }
    /// The context a [`Context::label`] names (`oc` / `ic`).
    pub fn from_label(label: &str) -> Option<Context> {
        [Context::OutOfCache, Context::InL2]
            .into_iter()
            .find(|c| c.label() == label)
    }
    /// The paper's problem size for this context.
    pub fn paper_n(self) -> usize {
        match self {
            Context::OutOfCache => ifko_blas::workload::N_OUT_OF_CACHE,
            Context::InL2 => ifko_blas::workload::N_IN_L2,
        }
    }
}

/// Everything bound for one run.
pub struct KernelArgs<'a> {
    pub kernel: Kernel,
    pub workload: &'a Workload,
    pub context: Context,
}

/// What one simulation produced: return registers, the final contents
/// of every operand vector (widened to f64, in argument order — a suite
/// kernel's `x` is `vectors[0]`, its `y` `vectors[1]`), and the counters.
#[derive(Clone, Debug)]
pub struct Outputs {
    pub ret_f: f64,
    pub ret_i: i64,
    pub vectors: Vec<Vec<f64>>,
    /// `stats.cycles`, kept as its own field for convenience.
    pub cycles: u64,
    pub stats: RunStats,
}

/// Why a run failed.
#[derive(Clone, Debug)]
pub struct RunFailure(pub String);

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for RunFailure {}

/// Operand data for one simulation, shaped by the compiled kernel's
/// argument convention: one vector per pointer argument and one value per
/// FP scalar argument, both in argument order; integer arguments get `n`.
pub struct Operands<'a, V> {
    pub n: usize,
    pub vectors: &'a [V],
    pub scalars: &'a [f64],
    /// Bytes of simulated memory (operands plus slack): accesses beyond
    /// it fault.
    pub capacity: usize,
}

/// A reusable simulation context: one CPU and one memory image, good for
/// any machine and any operand size. [`RunContext::run`] starts by
/// resetting both to a state indistinguishable from `Cpu::new` +
/// `Memory::new`, so whatever an earlier run (or a caller poking the
/// public fields) left behind — stray stores, write-combine entries, a
/// fault mid-program, another machine's cache geometry — cannot leak
/// into the next one. That reset is what keeps [`run_once`] a pure
/// function while sparing it an allocation and a cache sweep per call.
pub struct RunContext {
    pub cpu: Cpu,
    pub mem: Memory,
}

impl RunContext {
    pub fn new(machine: &MachineConfig) -> RunContext {
        RunContext {
            cpu: Cpu::new(machine.clone()),
            mem: Memory::new(0),
        }
    }

    /// Lay out `ops`, establish `context`, bind the arguments following
    /// `compiled`'s convention, run on `machine`, and extract the results.
    pub fn run<V: AsRef<[f64]>>(
        &mut self,
        compiled: &CompiledKernel,
        ops: &Operands<'_, V>,
        context: Context,
        machine: &MachineConfig,
    ) -> Result<Outputs, RunFailure> {
        let RunContext { cpu, mem } = self;
        let prec = compiled.prec;
        let eb = prec.bytes();
        let n = ops.n;

        mem.reset(ops.capacity);
        let addrs: Vec<u64> = ops
            .vectors
            .iter()
            .map(|v| {
                let a = mem.alloc_vector(n.max(1) as u64, eb);
                store_vec(mem, a, v.as_ref(), prec);
                a
            })
            .collect();
        let frame = if compiled.frame_bytes > 0 {
            mem.alloc(compiled.frame_bytes, 16)
        } else {
            0
        };

        cpu.reset(machine);
        if context == Context::InL2 {
            for a in &addrs {
                cpu.preload_l2(*a, n as u64 * eb);
            }
        }

        let mut ptrs = addrs.iter();
        let mut scalars = ops.scalars.iter();
        for slot in &compiled.arg_convention {
            match slot {
                ArgSlot::PtrReg(r) => {
                    let a = ptrs.next().ok_or_else(|| {
                        RunFailure("kernel wants more pointers than workload".into())
                    })?;
                    cpu.set_ireg(IReg(*r), *a as i64);
                }
                ArgSlot::IntReg(r) => cpu.set_ireg(IReg(*r), n as i64),
                ArgSlot::FReg(r) => {
                    let v = *scalars.next().ok_or_else(|| {
                        RunFailure("kernel wants more scalars than workload".into())
                    })?;
                    match prec {
                        Prec::D => cpu.set_freg_f64(FReg(*r), v),
                        Prec::S => cpu.set_freg_f32(FReg(*r), v as f32),
                    }
                }
            }
        }
        cpu.set_ireg(IReg(7), frame as i64);

        let stats = cpu
            .run(&compiled.program, mem)
            .map_err(|e| RunFailure(format!("{}: {e}", compiled.name)))?;

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
            vectors: addrs.iter().map(|a| load_vec(mem, *a, n, prec)).collect(),
            cycles: stats.cycles,
            stats,
        })
    }
}

/// Idle contexts, process-wide: a run checks one out (or builds one) and
/// puts it back, the way `CompileSession` pools its scratch buffers.
static POOL: Mutex<Vec<RunContext>> = Mutex::new(Vec::new());
/// Idle contexts kept: one per hardware thread (each holds a cache model
/// and a memory image, ~2 MB); more concurrent runs than that build
/// their own and drop them.
static MAX_IDLE: OnceLock<usize> = OnceLock::new();

/// Run one simulation on a pooled [`RunContext`]. The context goes back
/// to the pool on every return path, faults and harness errors included.
pub fn simulate<V: AsRef<[f64]>>(
    compiled: &CompiledKernel,
    ops: &Operands<'_, V>,
    context: Context,
    machine: &MachineConfig,
) -> Result<Outputs, RunFailure> {
    // The lock is never held across a run, so it cannot be poisoned.
    let pooled = POOL.lock().expect("run-context pool lock").pop();
    let mut ctx = pooled.unwrap_or_else(|| RunContext::new(machine));
    let result = ctx.run(compiled, ops, context, machine);
    let max_idle =
        *MAX_IDLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut pool = POOL.lock().expect("run-context pool lock");
    if pool.len() < max_idle {
        pool.push(ctx);
    }
    result
}

/// Execute `compiled` once under `args` on `machine`, as if on a fresh
/// CPU and memory: a pure function of its arguments.
pub fn run_once(
    compiled: &CompiledKernel,
    args: &KernelArgs<'_>,
    machine: &MachineConfig,
) -> Result<Outputs, RunFailure> {
    let w = args.workload;
    let both = [&w.x, &w.y];
    let ops = Operands {
        n: w.n,
        vectors: &both[..args.kernel.op.n_vectors()],
        scalars: &[w.alpha, w.beta],
        capacity: image_bytes(w.n, args.kernel.prec, 2),
    };
    let out = simulate(compiled, &ops, args.context, machine)?;
    check_ret(args.kernel, compiled)?;
    Ok(out)
}

/// Bytes of simulated memory for `slots` vectors of `n` elements plus
/// 1 MiB of slack. A suite kernel's image is two vectors whatever it
/// binds; a HIL source's is one per vector plus one.
pub(crate) fn image_bytes(n: usize, prec: Prec, slots: usize) -> usize {
    (n as u64 * prec.bytes() * slots as u64 + (1 << 20)) as usize
}

/// Sanity: a suite kernel's return slot must agree with its op's return
/// kind.
pub(crate) fn check_ret(kernel: Kernel, compiled: &CompiledKernel) -> Result<(), RunFailure> {
    match (kernel.op.ret(), compiled.ret) {
        (RetKind::Float, RetSlot::F0) | (RetKind::Index, RetSlot::I0) | (RetKind::None, _) => {
            Ok(())
        }
        (want, got) => Err(RunFailure(format!(
            "{}: return mismatch (op wants {want:?}, kernel delivers {got:?})",
            compiled.name
        ))),
    }
}

/// Lay an operand out at the kernel's precision: one bounds check and one
/// pass, narrowing on the way in for single precision.
fn store_vec(mem: &mut Memory, addr: u64, data: &[f64], prec: Prec) {
    match prec {
        Prec::D => mem.store_f64_slice(addr, data),
        Prec::S => mem.store_elems(addr, data, |v| (v as f32).to_le_bytes()),
    }
    .expect("operand store")
}

/// Read an operand back, widened to f64.
fn load_vec(mem: &Memory, addr: u64, n: usize, prec: Prec) -> Vec<f64> {
    match prec {
        Prec::D => mem.load_f64_slice(addr, n),
        Prec::S => mem.load_elems(addr, n, |b| f32::from_le_bytes(b) as f64),
    }
    .expect("operand load")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifko_blas::hil_src::hil_source;
    use ifko_blas::ops::BlasOp;
    use ifko_fko::compile_defaults;
    use ifko_xsim::p4e;

    #[test]
    fn runs_ddot_with_defaults() {
        let mach = p4e();
        let src = hil_source(BlasOp::Dot, Prec::D);
        let compiled = compile_defaults(&src, &mach).unwrap();
        let w = Workload::generate(512, 1);
        let k = Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        };
        let out = run_once(
            &compiled,
            &KernelArgs {
                kernel: k,
                workload: &w,
                context: Context::OutOfCache,
            },
            &mach,
        )
        .unwrap();
        let expect = ifko_blas::reference::dot(&w.x, &w.y);
        assert!((out.ret_f - expect).abs() < 1e-9);
        assert!(out.stats.cycles > 0);
    }

    #[test]
    fn in_l2_context_is_faster_and_quieter_on_the_bus() {
        let mach = p4e();
        let src = hil_source(BlasOp::Asum, Prec::D);
        let compiled = compile_defaults(&src, &mach).unwrap();
        let w = Workload::generate(1024, 2);
        let k = Kernel {
            op: BlasOp::Asum,
            prec: Prec::D,
        };
        let cold = run_once(
            &compiled,
            &KernelArgs {
                kernel: k,
                workload: &w,
                context: Context::OutOfCache,
            },
            &mach,
        )
        .unwrap();
        let warm = run_once(
            &compiled,
            &KernelArgs {
                kernel: k,
                workload: &w,
                context: Context::InL2,
            },
            &mach,
        )
        .unwrap();
        assert!(warm.stats.cycles < cold.stats.cycles);
        assert!(warm.stats.bus_read_bytes < cold.stats.bus_read_bytes / 2);
    }

    #[test]
    fn single_precision_binding_works() {
        let mach = p4e();
        let src = hil_source(BlasOp::Axpy, Prec::S);
        let compiled = compile_defaults(&src, &mach).unwrap();
        let w = Workload::generate(300, 3);
        let k = Kernel {
            op: BlasOp::Axpy,
            prec: Prec::S,
        };
        let out = run_once(
            &compiled,
            &KernelArgs {
                kernel: k,
                workload: &w,
                context: Context::OutOfCache,
            },
            &mach,
        )
        .unwrap();
        // Compute the expected result in f32.
        let xs = w.x_f32();
        let mut ys = w.y_f32();
        ifko_blas::reference::axpy(w.alpha as f32, &xs, &mut ys);
        for (i, (got, want)) in out.vectors[1].iter().zip(&ys).enumerate() {
            assert_eq!(*got as f32, *want, "i={i}");
        }
    }
}
