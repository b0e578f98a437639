//! Regenerates the paper's **Figure 7**: percent of FKO performance
//! gained by empirically tuning each transformation parameter
//! ([WNT, PF DST, PF INS, UR, AE]), per kernel, architecture and context,
//! with the overall ifko/FKO speedup. The paper's averages were
//! [2, 26, 3, 2, 5]% for an overall 1.38x.

use ifko_bench::{figure7, figure7_sweeps, Experiment};

fn main() {
    print!("{}", figure7(&figure7_sweeps(Experiment::new("figure7"))));
}
