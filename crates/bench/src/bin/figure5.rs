//! Regenerates the paper's **Figure 5**:
//! (a) MFLOPS of the ifko-tuned kernels, out-of-cache, on both machines;
//! (b) speedup of the in-L2-tuned kernels over the out-of-cache-tuned
//!     kernels on the P4E — "a very good measure of how bus-bound an
//!     operation is".

use ifko::prelude::*;
use ifko_bench::Experiment;

fn main() {
    let exp = Experiment::new("figure5")
        .sweep(p4e(), Context::OutOfCache)
        .sweep(opteron(), Context::OutOfCache)
        .sweep(p4e(), Context::InL2)
        .tune_only();
    let n_oc = exp.cfg().n_for(Context::OutOfCache) as f64;
    let n_ic = exp.cfg().n_for(Context::InL2) as f64;
    let sweeps = exp.run();
    let (p4_oc, opt_oc, p4_ic) = (&sweeps[0].rows, &sweeps[1].rows, &sweeps[2].rows);

    println!("Figure 5(a). ifko-tuned kernel speed, out-of-cache (MFLOPS)");
    println!("{:<10} {:>10} {:>10}", "kernel", "P4E", "Opteron");
    for (a, b) in p4_oc.iter().zip(opt_oc) {
        let col = |t: &Option<ifko::TuneOutcome>| match t {
            Some(t) => format!("{:>10.0}", t.mflops),
            None => format!("{:>10}", "err"),
        };
        println!("{:<10} {} {}", a.kernel.name(), col(&a.tune), col(&b.tune));
    }

    println!("\nFigure 5(b). P4E: speedup of in-L2-tuned over out-of-cache-tuned");
    println!("{:<10} {:>10}", "kernel", "speedup");
    for (row, ic) in p4_oc.iter().zip(p4_ic) {
        let (Some(oc), Some(ic)) = (&row.tune, &ic.tune) else {
            continue;
        };
        // Compare cycles/element: contexts use different N.
        let per_oc = oc.cycles as f64 / n_oc;
        let per_ic = ic.cycles as f64 / n_ic;
        println!("{:<10} {:>9.2}x", row.kernel.name(), per_oc / per_ic);
    }
}
