//! The system benchmark's `xsim.stats_fingerprint`, pinned: every
//! `RunStats` counter of the 14 suite kernels x both machines, compiled at
//! FKO's defaults and run out of cache (N = 20 000) and in L2 (N = 1024)
//! at the benchmark's default seed, hashed as `benchmark/src/layers.rs`
//! hashes them. A change to the simulator that is not meant to move a
//! counter leaves it equal; this runs it on every `cargo test` rather than
//! only in the benchmark. The operands are bound by `run_once` (a pooled
//! `RunContext::run`), the binding every tune's probe uses.

use ifko::eval::fnv64;
use ifko::runner::{run_once, Context, KernelArgs};
use ifko_blas::hil_src::hil_source;
use ifko_blas::{Workload, ALL_KERNELS};
use ifko_fko::compile_defaults;
use ifko_xsim::{opteron, p4e, RunStats};

const FINGERPRINT: u64 = 94217963233683;

/// One context's sweep: the 14 kernels on each machine, at defaults.
fn sweep(context: Context, n: usize, seed: u64) -> Vec<RunStats> {
    let w = Workload::generate(n, seed);
    let mut stats = Vec::new();
    for mach in [p4e(), opteron()] {
        for kernel in ALL_KERNELS {
            let compiled = compile_defaults(&hil_source(kernel.op, kernel.prec), &mach).unwrap();
            let args = KernelArgs {
                kernel,
                workload: &w,
                context,
            };
            stats.push(run_once(&compiled, &args, &mach).unwrap().stats);
        }
    }
    stats
}

#[test]
fn every_counter_of_the_benchmark_sweeps_is_unchanged() {
    let seed = 2005;
    let oc = sweep(Context::OutOfCache, 20_000, seed);
    let ic = sweep(Context::InL2, 1024, seed);
    let mut bytes = Vec::new();
    for st in oc.iter().chain(&ic) {
        for (_, get, _) in RunStats::FIELDS {
            bytes.extend(get(st).to_le_bytes());
        }
    }
    assert_eq!(fnv64(&bytes) & 0xffff_ffff_ffff, FINGERPRINT);
}
