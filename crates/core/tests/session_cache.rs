//! Sub-candidate cache hits must never change a search outcome.
//!
//! The line search revisits parameter points (phase seeds, sweep
//! overlaps), so a shared `CompileSession` answers many compiles from its
//! post-xform cache mid-search. A run over a session that has already
//! tuned once — every compile a cache hit — must pick the identical
//! winner, and a cold cache must agree with a session torn down and
//! rebuilt for every candidate.

use ifko::runner::{run_once, Context, KernelArgs};
use ifko::search::{line_search, line_search_batched, SearchResult};
use ifko::{verify, SearchOptions};
use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::BlasOp;
use ifko_blas::{Kernel, Workload};
use ifko_fko::{CompileOpts, CompileSession};
use ifko_xsim::isa::Prec;
use ifko_xsim::{opteron, p4e, MachineConfig};

fn assert_same_outcome(a: &SearchResult, b: &SearchResult, what: &str) {
    assert_eq!(a.best, b.best, "{what}: winning params differ");
    assert_eq!(
        a.best_cycles, b.best_cycles,
        "{what}: winning cycles differ"
    );
    assert_eq!(
        a.default_cycles, b.default_cycles,
        "{what}: default cycles differ"
    );
}

fn search_fresh_session_per_candidate(
    k: Kernel,
    src: &str,
    mach: &MachineConfig,
    w: &Workload,
    opts: &SearchOptions,
) -> SearchResult {
    let probe = CompileSession::from_source(src, mach).unwrap();
    line_search_batched(probe.report(), mach, opts, |_, c| {
        c.iter()
            .map(|p| {
                let sess = CompileSession::from_source(src, mach).unwrap();
                let c = sess.compile(p, CompileOpts::default()).ok()?;
                let args = KernelArgs {
                    kernel: k,
                    workload: w,
                    context: Context::OutOfCache,
                };
                let out = run_once(&c, &args, mach).ok()?;
                verify(k, w, &out).ok()?;
                opts.timer.time(&c, &args, mach).ok()
            })
            .collect()
    })
}

#[test]
fn subcache_hits_never_change_the_winner() {
    let opts = SearchOptions::quick();
    for mach in [p4e(), opteron()] {
        let k = Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        };
        let src = hil_source(k.op, k.prec);
        let w = Workload::generate(800, 0xb1a5);
        let sess = CompileSession::from_source(&src, &mach).unwrap();

        // Cold cache: the first search populates it. (The search layer's
        // own evaluation memo already dedupes revisits within one run, so
        // the session may see no repeats until the rerun below.)
        let cold = line_search(&sess, k, &w, Context::OutOfCache, &mach, &opts);
        let warm_stats = sess.stats();

        // Warm cache: rerun on the same session — compiles now come from
        // the sub-candidate cache — and from a session rebuilt for every
        // single candidate (no caching possible at all).
        let warm = line_search(&sess, k, &w, Context::OutOfCache, &mach, &opts);
        assert!(
            sess.stats().subcache_hits > warm_stats.subcache_hits,
            "second search must be served by the cache"
        );
        let uncached = search_fresh_session_per_candidate(k, &src, &mach, &w, &opts);

        assert_same_outcome(&cold, &warm, "cold vs warm cache");
        assert_same_outcome(&cold, &uncached, "shared session vs fresh-per-candidate");
    }
}
