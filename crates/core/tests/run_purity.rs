//! `run_once` / `run_generic` are pure functions of (kernel, workload,
//! context, machine): the precondition for evaluating a candidate from
//! one simulation. Two calls must agree bit for bit — outputs, return
//! registers, and every simulator counter — for every suite kernel and
//! every `kernels/*.hil` source, on both machines, in both contexts.

use ifko::generic::{run_generic, GenericWorkload};
use ifko::prelude::*;
use ifko::runner::{run_once, KernelArgs};
use ifko_blas::hil_src::hil_source;
use ifko_fko::{compile_defaults, CompileOpts, CompileSession, TransformParams};

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
                assert_eq!(bits(&a.x), bits(&b.x), "{what}: x");
                assert_eq!(bits(&a.y), bits(&b.y), "{what}: y");
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
