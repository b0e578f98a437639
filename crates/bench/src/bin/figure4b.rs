//! The experiment the paper *omitted* for space: Opteron, in-L2 cache.
//! The paper reports only its summary: "the two best tuning mechanisms
//! are ifko followed by FKO, and icc-tuned kernels run on average at 68%
//! of the speed of ifko-tuned code." This binary regenerates the full
//! matrix so that quote can be checked.

use ifko::prelude::*;
use ifko_baselines::Method;
use ifko_bench::{averages, format_relative_table, Experiment};

fn main() {
    let exp = Experiment::new("figure4b").sweep(opteron(), Context::InL2);
    let n = exp.cfg().n_for(Context::InL2);
    let sweeps = exp.run();
    let rows = &sweeps[0].rows;
    println!(
        "{}",
        format_relative_table(
            &format!("Figure 4b (omitted in the paper): Opteron, in-L2 cache, N={n} (% of best)"),
            rows
        )
    );
    // The paper's summary sentence, checked.
    let mut avgs: Vec<(Method, f64)> = Method::all()
        .iter()
        .map(|m| (*m, averages(rows, *m).0))
        .collect();
    avgs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!(
        "ranking by AVG: {}",
        avgs.iter()
            .map(|(m, a)| format!("{} ({a:.1})", m.label()))
            .collect::<Vec<_>>()
            .join(" > ")
    );
    // icc relative to ifko, averaged per kernel (the paper's 68%).
    let ratios: Vec<f64> = rows
        .iter()
        .filter_map(|r| {
            let icc = *r.cycles.get(&Method::IccRef)? as f64;
            let ifko = *r.cycles.get(&Method::Ifko)? as f64;
            Some(ifko / icc * 100.0)
        })
        .collect();
    let avg = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    println!("icc-tuned kernels run at {avg:.0}% of ifko speed on average (paper: 68%)");
}
