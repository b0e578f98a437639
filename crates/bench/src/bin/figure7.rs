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
use ifko_bench::{format_figure7, Experiment};

fn main() {
    let mut exp = Experiment::new("figure7")
        .sweep(p4e(), Context::OutOfCache)
        .sweep(opteron(), Context::OutOfCache)
        .sweep(p4e(), Context::InL2)
        .sweep(opteron(), Context::InL2)
        .tune_only();
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
    let sweeps = exp.run();

    println!("Figure 7. Speedup of ifko over FKO, by tuned transformation\n");
    let mut grand: Vec<f64> = Vec::new();
    for sweep in &sweeps {
        for r in &sweep.rows {
            if let Some(t) = &r.tune {
                grand.push(t.result.speedup_over_default());
            }
        }
        println!("{}", format_figure7(&sweep.title(), &sweep.rows));
    }
    if !grand.is_empty() {
        let avg = grand.iter().sum::<f64>() / grand.len() as f64;
        println!(
            "Overall: empirically-tuned kernels run {avg:.2}x faster than \
             statically-tuned FKO on average (paper: 1.38x)"
        );
    }
}
