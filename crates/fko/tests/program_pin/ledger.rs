//! Allocation ledger: the exact number of heap allocations one
//! `CompileSession::compile` makes for `ddot` on P4E, at unroll 1, 16 and
//! 128. A counting global allocator counts per thread, so tests running
//! in parallel do not see each other's allocations. A per-op `Vec` or a
//! hash map added to the compiler fails here with a number.
//!
//! "Allocations" counts `alloc`, `alloc_zeroed` and `realloc` calls. The
//! counts differ between debug and release builds: the debug build runs
//! extra `debug_assert` checks, and the release optimizer may elide an
//! allocation, so each profile has its own pin.

use ifko_blas::hil_src::hil_source;
use ifko_blas::BlasOp;
use ifko_fko::{CompileOpts, CompileSession, TransformParams};
use ifko_xsim::{p4e, Prec};
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

/// Allocations of one cache-missing compile of `ddot` on P4E under FKO's
/// defaults at `unroll`. A neighbouring point (prefetch one line further)
/// compiles first, so the session's scratch pool is warm and sized for
/// this shape: what is counted is what every later probe of a tune pays.
fn allocs_per_compile(unroll: u32) -> u64 {
    let mach = p4e();
    let sess = CompileSession::from_source(&hil_source(BlasOp::Dot, Prec::D), &mach)
        .expect("ddot front-ends");
    let mut p = TransformParams::defaults(sess.report(), &mach);
    p.unroll = unroll;
    let mut warm = p.clone();
    for s in &mut warm.prefetch {
        s.dist += 64;
    }
    sess.compile(&warm, CompileOpts::verify(false))
        .expect("warm-up compiles");
    let before = ALLOCS.with(Cell::get);
    let out = sess.compile(&p, CompileOpts::verify(false));
    let n = ALLOCS.with(Cell::get) - before;
    assert!(out.is_ok(), "ddot at unroll {unroll} compiles");
    assert_eq!(
        sess.stats().subcache_misses,
        2,
        "the measured compile missed"
    );
    n
}

/// (unroll, debug-build allocations, release-build allocations).
const LEDGER: [(u32, u64, u64); 3] = [(1, 54, 50), (16, 61, 57), (128, 67, 63)];

#[test]
fn compile_allocations_match_ledger() {
    let got: Vec<(u32, u64)> = LEDGER
        .iter()
        .map(|&(ur, ..)| (ur, allocs_per_compile(ur)))
        .collect();
    let want: Vec<(u32, u64)> = LEDGER
        .iter()
        .map(|&(ur, debug, release)| {
            (
                ur,
                if cfg!(debug_assertions) {
                    debug
                } else {
                    release
                },
            )
        })
        .collect();
    assert_eq!(got, want, "heap allocations per compile (unroll, count)");
}
