//! Sub-candidate cache hits must never change a search outcome.
//!
//! The line search revisits parameter points (phase seeds, sweep
//! overlaps), so a shared `CompileSession` answers many compiles from its
//! sub-candidate cache mid-search. A run over a session that has already
//! tuned once — every compile a cache hit — must pick the identical
//! winner, and a cold cache must agree with a session torn down and
//! rebuilt for every candidate.

use ifko::runner::{run_once, Context, KernelArgs};
use ifko::search::{line_search, line_search_batched, SearchResult};
use ifko::{verify, SearchOptions};
use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::BlasOp;
use ifko_blas::{Kernel, Workload};
use ifko_fko::{normalized, CompileError, CompileOpts, CompileSession, TransformParams};
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

/// What the session counts is what its one map holds: over the raw
/// full-candidate-set stream (no evaluation memo, no legality precheck in
/// front), a miss is a distinct normalized point reaching the back end
/// for the first time, and every other successful compile is a hit.
#[test]
fn misses_are_distinct_normalized_points() {
    let opts = SearchOptions::default();
    for mach in [p4e(), opteron()] {
        for op in [BlasOp::Axpy, BlasOp::Asum] {
            let k = Kernel { op, prec: Prec::D };
            let what = format!("{} on {}", k.name(), mach.name);
            let w = Workload::generate(256, 0xb1a5);
            let args = KernelArgs {
                kernel: k,
                workload: &w,
                context: Context::OutOfCache,
            };
            let sess = CompileSession::from_source(&hil_source(k.op, k.prec), &mach).unwrap();
            let mut compiled = std::collections::HashSet::new();
            let (mut calls, mut refused_by_xform) = (0u64, 0u64);
            line_search_batched(sess.report(), &mach, &opts, |_, cands| {
                cands
                    .iter()
                    .map(|p| {
                        calls += 1;
                        match sess.compile(p, CompileOpts::default()) {
                            Ok(c) => {
                                compiled.insert(normalized(p));
                                opts.timer.time(&c, &args, &mach).ok()
                            }
                            Err(CompileError::Xform(_)) => {
                                refused_by_xform += 1;
                                None
                            }
                            Err(e) => panic!("{what}: a back-end stage failed: {e}"),
                        }
                    })
                    .collect()
            });
            let st = sess.stats();
            assert_eq!(st.compiles, calls, "{what}");
            assert_eq!(st.subcache_misses, compiled.len() as u64, "{what}");
            assert_eq!(
                st.compiles - refused_by_xform,
                st.subcache_hits + st.subcache_misses,
                "{what}: a successful compile is a hit or a miss"
            );
            assert!(st.subcache_hits > 0, "{what}: the stream has no revisit");

            // Either half of an entry may be filled first; neither fill
            // disturbs the other, and only `compile` moves the counters.
            let fresh = CompileSession::from_source(&hil_source(k.op, k.prec), &mach).unwrap();
            let p = TransformParams::defaults(fresh.report(), &mach);
            let pred = fresh.predict(&p, &mach).unwrap();
            let out = fresh.compile(&p, CompileOpts::default()).unwrap();
            assert_eq!(fresh.predict(&p, &mach).unwrap(), pred, "{what}");
            let again = fresh.compile(&p, CompileOpts::default()).unwrap();
            assert_eq!(again.program, out.program, "{what}");
            let st = fresh.stats();
            assert_eq!(
                (st.compiles, st.subcache_misses, st.subcache_hits),
                (2, 1, 1),
                "{what}"
            );
        }
    }
}
