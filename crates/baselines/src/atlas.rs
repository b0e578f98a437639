//! The ATLAS baseline: a library of hand-tuned kernel variants per
//! operation plus ATLAS-style empirical selection.
//!
//! "ATLAS empirically searches a series of implementations, which were
//! laboriously written and hand-tuned using mixtures of assembly and ANSI
//! C, and contain a multitude of both high and low-level optimizations."
//! Here the C-with-intrinsics variants are expressed as fixed, hand-chosen
//! transformation recipes through the common backend, and the all-assembly
//! `*` variants (vectorized iamax, block-fetch copy) come from
//! [`crate::asm_kernels`]. Selection times every correct variant and
//! keeps the fastest — exactly ATLAS's install-time search.

use crate::asm_kernels;
use ifko::runner::{run_once, Context, KernelArgs};
use ifko::tester::verify;
use ifko::Timer;
use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::BlasOp;
use ifko_blas::{Kernel, Workload};
use ifko_fko::ir::PrefKind;
use ifko_fko::{CompileOpts, CompileSession, CompiledKernel, PrefSpec, TransformParams};
use ifko_xsim::MachineConfig;

/// A selected ATLAS kernel.
#[derive(Clone, Debug)]
pub struct AtlasChoice {
    pub compiled: CompiledKernel,
    /// Variant label; `*`-suffixed names are all-assembly kernels, the
    /// paper's notation for "hand-tuned in assembly".
    pub variant: String,
    pub cycles: u64,
    pub is_assembly: bool,
}

/// The hand-tuned variant library for one kernel on one machine.
pub fn atlas_variants(kernel: Kernel, mach: &MachineConfig) -> Vec<(String, bool, CompiledKernel)> {
    let mut out: Vec<(String, bool, CompiledKernel)> = Vec::new();

    // C-level hand-tuned recipes (fixed, not searched): a streaming
    // variant, a write-streaming variant, a compute-dense variant and an
    // in-cache variant — the classic ATLAS kernel family shapes.
    let src = hil_source(kernel.op, kernel.prec);
    let Ok(sess) = CompileSession::from_source(&src, mach) else {
        return out;
    };
    let rep = sess.report();
    let line = mach.prefetch_line() as i64;
    let le = rep.arch.line_elems as u32;
    let has_red = !rep.ae_candidates.is_empty();
    let has_store = !rep.wnt_candidates.is_empty();
    let pf = |kind: Option<PrefKind>, dist: i64| -> Vec<PrefSpec> {
        rep.pf_candidates
            .iter()
            .map(|p| PrefSpec {
                ptr: *p,
                kind,
                dist,
            })
            .collect()
    };
    let mut recipes: Vec<(&str, TransformParams)> = Vec::new();
    {
        let mut p = TransformParams::off();
        p.simd = rep.vectorizable.is_ok();
        p.unroll = le;
        p.accum_expand = if has_red { 2 } else { 1 };
        p.prefetch = pf(Some(PrefKind::Nta), 4 * line);
        recipes.push(("c_stream", p));
    }
    {
        let mut p = TransformParams::off();
        p.simd = rep.vectorizable.is_ok();
        p.unroll = le;
        p.accum_expand = if has_red { 4 } else { 1 };
        p.prefetch = pf(Some(PrefKind::Nta), 5 * line);
        p.wnt = has_store;
        recipes.push(("c_wstream", p));
    }
    {
        let mut p = TransformParams::off();
        p.simd = rep.vectorizable.is_ok();
        p.unroll = 2 * le;
        p.accum_expand = if has_red { 4 } else { 1 };
        p.prefetch = pf(Some(PrefKind::T0), 4 * line);
        recipes.push(("c_dense", p));
    }
    {
        let mut p = TransformParams::off();
        p.simd = rep.vectorizable.is_ok();
        p.unroll = 4 * le;
        p.accum_expand = if has_red { 4 } else { 1 };
        p.prefetch = pf(Some(PrefKind::T0), 2 * line);
        recipes.push(("c_incache", p));
    }
    {
        let mut p = TransformParams::off();
        p.simd = rep.vectorizable.is_ok();
        p.unroll = 4;
        p.prefetch = pf(None, 0);
        p.wnt = has_store;
        recipes.push(("c_plain_wnt", p));
    }
    for (name, p) in recipes {
        if let Ok(c) = sess.compile(&p, CompileOpts::default()) {
            out.push((name.to_string(), false, c));
        }
    }

    // All-assembly variants.
    match kernel.op {
        BlasOp::Iamax => {
            let c = asm_kernels::iamax_vectorized(kernel.prec);
            out.push((c.name.clone(), true, c));
        }
        BlasOp::Copy => {
            let c = asm_kernels::copy_block_fetch(kernel.prec);
            out.push((c.name.clone(), true, c));
        }
        _ => {}
    }
    out
}

/// ATLAS's empirical selection: verify and time every variant, keep the
/// fastest correct one.
pub fn atlas_best(
    kernel: Kernel,
    mach: &MachineConfig,
    context: Context,
    workload: &Workload,
    timer: &Timer,
) -> Option<AtlasChoice> {
    let mut best: Option<AtlasChoice> = None;
    for (variant, is_assembly, compiled) in atlas_variants(kernel, mach) {
        let args = KernelArgs {
            kernel,
            workload,
            context,
        };
        let Ok(out) = run_once(&compiled, &args, mach) else {
            continue;
        };
        if verify(kernel, workload, &out).is_err() {
            continue;
        }
        let cycles = timer.time_from(out.stats.cycles, &compiled.name);
        let better = best.as_ref().map(|b| cycles < b.cycles).unwrap_or(true);
        if better {
            best = Some(AtlasChoice {
                compiled,
                variant,
                cycles,
                is_assembly,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifko_xsim::isa::Prec;
    use ifko_xsim::{opteron, p4e};

    #[test]
    fn variant_library_is_nonempty_for_all_kernels() {
        let mach = p4e();
        for k in ifko_blas::ALL_KERNELS {
            let vs = atlas_variants(k, &mach);
            assert!(vs.len() >= 4, "{}: only {} variants", k.name(), vs.len());
            if matches!(k.op, BlasOp::Iamax | BlasOp::Copy) {
                assert!(
                    vs.iter().any(|(_, asm, _)| *asm),
                    "{} needs an asm variant",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn selection_picks_a_correct_variant_for_every_kernel() {
        let mach = opteron();
        let w = Workload::generate(2000, 21);
        let timer = Timer::exact();
        for k in ifko_blas::ALL_KERNELS {
            let choice = atlas_best(k, &mach, Context::OutOfCache, &w, &timer)
                .unwrap_or_else(|| panic!("{}: no variant survived", k.name()));
            assert!(choice.cycles > 0);
        }
    }

    #[test]
    fn iamax_selection_prefers_the_assembly_kernel() {
        let mach = p4e();
        let w = Workload::generate(8000, 33);
        let timer = Timer::exact();
        let k = Kernel {
            op: BlasOp::Iamax,
            prec: Prec::S,
        };
        let choice = atlas_best(k, &mach, Context::InL2, &w, &timer).unwrap();
        assert!(
            choice.is_assembly,
            "isamax should select the vectorized assembly (picked {})",
            choice.variant
        );
    }
}
