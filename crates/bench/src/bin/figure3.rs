//! Regenerates the paper's **Figure 3**: percent of best observed
//! performance for each tuning methodology (gcc+ref, icc+ref, icc+prof,
//! ATLAS, FKO, ifko) across the 14 Level 1 BLAS kernels, with the AVG and
//! VAVG summary columns. Kernels where ATLAS selected an all-assembly
//! variant are starred, as in the paper.

use ifko::prelude::*;
use ifko_bench::{format_relative_table, Experiment};

fn main() {
    let exp = Experiment::new("figure3").sweep(opteron(), Context::OutOfCache);
    let n = exp.cfg().n_for(Context::OutOfCache);
    let sweeps = exp.run();
    println!(
        "{}",
        format_relative_table(
            &format!("Figure 3. Relative speedups of various tuning methods on Opteron, out-of-cache, N={n} (% of best)"),
            &sweeps[0].rows
        )
    );
}
