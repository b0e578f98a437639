//! Property test: the pipeline never emits IR that fails the verifier.
//!
//! For random `TransformParams` over all 7 kernels × both precisions,
//! `CompileSession::compile` with verification on must either succeed or
//! fail
//! with an ordinary stage error (`Xform`, `Alloc`, …) — never with
//! `CompileError::Verify`, which would mean a transform produced
//! ill-formed IR that only the verifier caught.
//!
//! About a thousand compiles, a fraction of a second: it runs with the
//! rest of the suite. Uses the in-repo xorshift rng, so no external
//! crates.

use ifko_blas::hil_src::hil_source;
use ifko_blas::{all_ops, BlasOp};
use ifko_fko::params::{PrefSpec, TransformParams};
use ifko_fko::{AnalysisReport, CompileError, CompileOpts, CompileSession};
use ifko_xsim::isa::PrefKind;
use ifko_xsim::{opteron, p4e, MachineConfig, Prec, Rng64};

fn random_params(rng: &mut Rng64, rep: &AnalysisReport) -> TransformParams {
    let kinds = [
        None,
        Some(PrefKind::Nta),
        Some(PrefKind::T0),
        Some(PrefKind::T2),
    ];
    let mut prefetch = Vec::new();
    for p in &rep.pf_candidates {
        if rng.gen_bool(0.6) {
            prefetch.push(PrefSpec {
                ptr: *p,
                kind: kinds[rng.range_usize(kinds.len())],
                dist: 64 * (1 + rng.range_usize(32)) as i64,
            });
        }
    }
    TransformParams {
        simd: rng.gen_bool(0.5),
        unroll: 1 + rng.range_usize(rep.max_unroll.max(1) as usize) as u32,
        // Occasionally illegal on purpose: kernels without reduction adds
        // must fail with an ordinary Xform error, not a Verify error.
        accum_expand: 1 + rng.range_usize(4) as u32,
        wnt: rng.gen_bool(0.3),
        prefetch,
        loop_control: rng.gen_bool(0.8),
        cisc_memops: rng.gen_bool(0.8),
        copy_prop: rng.gen_bool(0.8),
        dead_code_elim: rng.gen_bool(0.8),
        branch_cleanup: rng.gen_bool(0.8),
    }
}

fn exercise(op: BlasOp, prec: Prec, mach: &MachineConfig, rng: &mut Rng64, iters: usize) {
    let src = hil_source(op, prec);
    let sess = CompileSession::from_source(&src, mach).expect("kernel compiles");
    for _ in 0..iters {
        let params = random_params(rng, sess.report());
        match sess.compile(&params, CompileOpts::verify(true)) {
            Ok(_) => {}
            Err(CompileError::Verify(stage, diags)) => panic!(
                "verifier fired after {stage} for {op:?}/{prec:?} under {params:?}:\n{}",
                diags
                    .iter()
                    .map(|d| d.render_text())
                    .collect::<Vec<_>>()
                    .join("\n")
            ),
            // Ordinary stage errors (e.g. AE without reduction adds) are a
            // legal outcome for random parameters.
            Err(_) => {}
        }
    }
}

#[test]
fn verified_ir_survives_every_stage_for_random_params() {
    let mut rng = Rng64::seed_from_u64(0x1f_c0_de);
    for mach in [p4e(), opteron()] {
        for op in all_ops() {
            for prec in [Prec::S, Prec::D] {
                exercise(op, prec, &mach, &mut rng, 40);
            }
        }
    }
}
