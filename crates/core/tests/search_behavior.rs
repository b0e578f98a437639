//! Behavioural tests of the modified line search: phase bookkeeping,
//! multi-pass refinement, candidate rejection, and the WNT×PF interaction
//! that motivates the second pass.

use ifko::search::{line_search_batched, Phase, SearchOptions};
use ifko::{Timer, TuneConfig};
use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::BlasOp;
use ifko_blas::Kernel;
use ifko_fko::{analyze_kernel, TransformParams};
use ifko_xsim::isa::Prec;
use ifko_xsim::p4e;

#[test]
fn second_pass_only_runs_when_first_improved() {
    // A synthetic evaluator where only the exact defaults are optimal:
    // pass 1 finds no improvement, so no phase entry appears twice.
    let mach = p4e();
    let src = hil_source(BlasOp::Dot, Prec::D);
    let (_, rep) = analyze_kernel(&src, &mach).unwrap();
    let opts = SearchOptions::quick();
    let defaults = TransformParams::defaults(&rep, &mach);
    let r = line_search_batched(&rep, &mach, &opts, |_, c| {
        c.iter()
            .map(|p| Some(if *p == defaults { 100 } else { 200 }))
            .collect()
    });
    assert_eq!(r.best_cycles, 100);
    let wnt_phases = r.gains.iter().filter(|g| g.phase == Phase::Wnt).count();
    assert_eq!(wnt_phases, 1, "no second pass at a fixed point");
}

#[test]
fn second_pass_resolves_phase_order_interactions() {
    // Synthetic interaction: WNT only helps once UR has been raised.
    // A single pass (WNT phase before UR phase) misses it; the second
    // pass catches it.
    let mach = p4e();
    let src = hil_source(BlasOp::Copy, Prec::D);
    let (_, rep) = analyze_kernel(&src, &mach).unwrap();
    let opts = SearchOptions::quick();
    let cost = |p: &TransformParams| -> u64 {
        let mut c = 1000u64;
        if p.unroll >= 8 {
            c -= 200;
        }
        if p.wnt && p.unroll >= 8 {
            c -= 300; // WNT pays off only with deep unrolling
        } else if p.wnt {
            c += 300;
        }
        c
    };
    let r = line_search_batched(&rep, &mach, &opts, |_, c| {
        c.iter().map(|p| Some(cost(p))).collect()
    });
    assert!(
        r.best.wnt,
        "second pass must discover the WNT win: {:?}",
        r.best
    );
    assert!(r.best.unroll >= 8);
    assert_eq!(r.best_cycles, 500);
}

#[test]
fn rejected_candidates_never_win() {
    // An evaluator that rejects everything but reports great numbers for
    // the (rejected) candidates must leave the defaults in place.
    let mach = p4e();
    let src = hil_source(BlasOp::Asum, Prec::D);
    let (_, rep) = analyze_kernel(&src, &mach).unwrap();
    let opts = SearchOptions::quick();
    let defaults = TransformParams::defaults(&rep, &mach);
    let r = line_search_batched(&rep, &mach, &opts, |_, c| {
        c.iter()
            .map(|p| {
                if *p == defaults {
                    Some(500)
                } else {
                    None // "failed verification"
                }
            })
            .collect()
    });
    assert_eq!(r.best, defaults);
    assert_eq!(r.best_cycles, 500);
}

#[test]
fn gains_multiply_to_total_across_passes() {
    let k = Kernel {
        op: BlasOp::Dot,
        prec: Prec::S,
    };
    let mut opts = SearchOptions::quick();
    opts.timer = Timer::exact();
    let r = TuneConfig::quick(6000).seed(13).search(opts).tune(k);
    let r = r.unwrap().result;
    let product: f64 = r.gains.iter().map(|g| g.speedup()).product();
    let total = r.speedup_over_default();
    assert!(
        (product - total).abs() < 1e-9,
        "gains ({product}) must compose to total ({total}) even multi-pass"
    );
}

#[test]
fn search_explores_all_prefetch_kinds() {
    // Count distinct candidates via the evaluator: PF INS must probe every
    // machine kind plus "none" for each array.
    let mach = p4e();
    let src = hil_source(BlasOp::Dot, Prec::D);
    let (_, rep) = analyze_kernel(&src, &mach).unwrap();
    let opts = SearchOptions::quick();
    let mut kinds_seen = std::collections::HashSet::new();
    let _ = line_search_batched(&rep, &mach, &opts, |_, c| {
        c.iter()
            .map(|p| {
                for s in &p.prefetch {
                    kinds_seen.insert(s.kind);
                }
                Some(1000)
            })
            .collect()
    });
    // None plus the four P4E kinds.
    assert!(kinds_seen.len() >= 5, "kinds probed: {kinds_seen:?}");
}

#[test]
fn evaluation_counts_are_reported() {
    let k = Kernel {
        op: BlasOp::Scal,
        prec: Prec::D,
    };
    let mut opts = SearchOptions::quick();
    opts.timer = Timer::exact();
    let r = TuneConfig::quick(2000).seed(2).search(opts).tune(k);
    let r = r.unwrap().result;
    assert!(
        r.evaluations >= 10,
        "expected a real search, got {}",
        r.evaluations
    );
    assert_eq!(r.rejected, 0);
}
