//! Regenerates the paper's **Figure 7**: percent of FKO performance
//! gained by empirically tuning each transformation parameter
//! ([WNT, PF DST, PF INS, UR, AE]), per kernel, architecture and context,
//! with the overall ifko/FKO speedup. The paper's averages were
//! [2, 26, 3, 2, 5]% for an overall 1.38x.
//!
//! In `--quick` mode (without an explicit `--trace`) the full search
//! trace is dumped to `results/traces/figure7-quick.jsonl` as a sample of
//! the structured trace layer.

use ifko::prelude::*;
use ifko_bench::{figure7, figure7_sweeps, Experiment};

fn main() {
    let mut exp = Experiment::new("figure7");
    if exp.cfg().quick && !exp.cfg().tune.traced() {
        let path = "results/traces/figure7-quick.jsonl";
        match JsonlSink::create(path) {
            Ok(sink) => {
                eprintln!("[figure7] dumping sample search trace to {path}");
                exp = exp.trace(sink);
            }
            Err(e) => eprintln!("[figure7] cannot open {path}: {e}"),
        }
    }
    print!("{}", figure7(&figure7_sweeps(exp)));
}
