//! Work pin of the compile layer: the exact work one line search's
//! candidate stream costs, counted rather than timed.
//!
//! For `ddot`, `dasum`, `daxpy` and `scopy` on both machines, the stream
//! is what `line_search_batched` submits under `SearchOptions::default()`
//! when every candidate is costed by its compiled length (a pure cost, so
//! the stream never depends on the host), keeping only candidates that
//! compile. Each row pins:
//!
//! * the number of candidates;
//! * the subcache hits and misses of replaying the stream on a cold
//!   `CompileSession`, and the heap allocations of that replay;
//! * the heap allocations, and the summed `RunStats::insts`, of compiling
//!   and running (`run_once`, N = 512, out of cache) every candidate on
//!   another cold session: the per-candidate work a tune pays before any
//!   timing repetition.
//!
//! Wall time of the same layer is the system benchmark's `fko.*` rows;
//! this pin is what makes one extra allocation or one extra subcache miss
//! per candidate fail deterministically.
//!
//! A counting global allocator counts per thread. The file holds a single
//! test on purpose: `runner` pools its run contexts process-wide, so a
//! second test running alongside could hand this thread a context it
//! would otherwise build (or take the one it would reuse). Allocation
//! counts differ between debug and release builds (`debug_assert` checks,
//! elided allocations), so each profile has its own pin; run the test
//! under both `cargo test` and `cargo test --release`. When a change moves
//! a count on purpose, the failure message prints the replacement table.

use ifko::runner::{run_once, Context, KernelArgs};
use ifko::search::{line_search_batched, SearchOptions};
use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::BlasOp;
use ifko_blas::{Kernel, Workload};
use ifko_fko::{CompileOpts, CompileSession, TransformParams};
use ifko_xsim::isa::Prec;
use ifko_xsim::{opteron, p4e, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only a
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `work` makes on this thread.
fn allocs_of<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = work();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Problem size of the eval leg.
const EVAL_N: usize = 512;

/// One pinned row: kernel, machine, then `[candidates, subcache hits,
/// subcache misses, replay allocations (debug), replay allocations
/// (release), eval allocations (debug), eval allocations (release),
/// summed instructions]`.
type Row = (&'static str, &'static str, [u64; 8]);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("ddot", "P4E", [151, 97, 54, 3752, 3536, 4362, 4146, 216285]),
    ("ddot", "Opteron", [155, 97, 58, 3977, 3745, 4597, 4365, 223001]),
    ("dasum", "P4E", [106, 69, 37, 2567, 2419, 2885, 2737, 126606]),
    ("dasum", "Opteron", [108, 69, 39, 2677, 2521, 3001, 2845, 129356]),
    ("daxpy", "P4E", [117, 68, 49, 3233, 3037, 3704, 3508, 231832]),
    ("daxpy", "Opteron", [121, 68, 53, 3451, 3239, 3935, 3723, 240008]),
    ("scopy", "P4E", [117, 68, 49, 2949, 2753, 3417, 3221, 71254]),
    ("scopy", "Opteron", [121, 68, 53, 3147, 2935, 3631, 3419, 73758]),
];

fn kernels() -> [(&'static str, BlasOp, Prec); 4] {
    [
        ("ddot", BlasOp::Dot, Prec::D),
        ("dasum", BlasOp::Asum, Prec::D),
        ("daxpy", BlasOp::Axpy, Prec::D),
        ("scopy", BlasOp::Copy, Prec::S),
    ]
}

/// The candidates a line search submits for this kernel when the cost of
/// a point is its compiled length, in submission order, keeping those
/// that compile.
fn record_stream(src: &str, mach: &MachineConfig) -> Vec<TransformParams> {
    let sess = CompileSession::from_source(src, mach).expect("kernel front-ends");
    let mut stream = Vec::new();
    line_search_batched(
        sess.report(),
        mach,
        &SearchOptions::default(),
        |_, cands| {
            cands
                .iter()
                .map(|p| {
                    let cost = sess
                        .compile(p, CompileOpts::verify(false))
                        .ok()
                        .map(|c| c.program.len() as u64);
                    if cost.is_some() {
                        stream.push(p.clone());
                    }
                    cost
                })
                .collect()
        },
    );
    stream
}

/// The counted columns of one kernel on one machine (the debug or the
/// release allocation column, whichever this build is, in both slots).
fn measure(op: BlasOp, prec: Prec, mach: &MachineConfig) -> [u64; 8] {
    let src = hil_source(op, prec);
    let stream = record_stream(&src, mach);

    let sess = CompileSession::from_source(&src, mach).expect("kernel front-ends");
    let ((), replay_allocs) = allocs_of(|| {
        for p in &stream {
            sess.compile(p, CompileOpts::verify(false))
                .expect("a recorded candidate compiles");
        }
    });
    let st = sess.stats();

    let w = Workload::generate(EVAL_N, 42);
    let args = KernelArgs {
        kernel: Kernel { op, prec },
        workload: &w,
        context: Context::OutOfCache,
    };
    // One run outside the count: the first simulation in the process
    // builds the pooled run context every later one reuses.
    let seed = sess
        .compile(&stream[0], CompileOpts::verify(false))
        .expect("a recorded candidate compiles");
    run_once(&seed, &args, mach).expect("a recorded candidate runs");
    let sess = CompileSession::from_source(&src, mach).expect("kernel front-ends");
    let (insts, eval_allocs) = allocs_of(|| {
        let mut insts = 0;
        for p in &stream {
            let c = sess
                .compile(p, CompileOpts::verify(false))
                .expect("a recorded candidate compiles");
            insts += run_once(&c, &args, mach)
                .expect("a recorded candidate runs")
                .stats
                .insts;
        }
        insts
    });

    [
        stream.len() as u64,
        st.subcache_hits,
        st.subcache_misses,
        replay_allocs,
        replay_allocs,
        eval_allocs,
        eval_allocs,
        insts,
    ]
}

fn table(rows: &[Row]) -> String {
    rows.iter()
        .map(|(kernel, machine, counts)| format!("    ({kernel:?}, {machine:?}, {counts:?}),\n"))
        .collect()
}

#[test]
fn compile_stream_work_matches_the_pinned_table() {
    // The allocation columns this build does not produce are carried over
    // from the pin, so the printed table is the replacement for both.
    let other = if cfg!(debug_assertions) {
        [4, 6]
    } else {
        [3, 5]
    };
    let mut got = Vec::new();
    for (name, op, prec) in kernels() {
        for mach in [p4e(), opteron()] {
            let pinned = PINNED
                .iter()
                .find(|r| r.0 == name && r.1 == mach.name)
                .map_or([0; 8], |r| r.2);
            let mut counts = measure(op, prec, &mach);
            for o in other {
                counts[o] = pinned[o];
            }
            got.push((name, mach.name, counts));
        }
    }
    let (got, want) = (table(&got), table(PINNED));
    assert!(
        got == want,
        "compile-stream work moved. Pinned:\n{want}\nComputed (paste over PINNED if intended):\n{got}"
    );
}
