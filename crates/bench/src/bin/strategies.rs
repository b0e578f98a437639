//! Head-to-head search-strategy comparison (strategy subsystem demo).
//!
//! Runs each requested strategy on the same kernels (swap and dot by
//! default — one memory-bound, one reduction) with a *private* evaluation
//! cache per strategy, so every strategy pays for its own probes and the
//! comparison is fair. Reports best cycles, speedup over FKO defaults,
//! fresh evaluations, and which member found the winner (portfolio
//! attribution).
//!
//! ```text
//! cargo run --release --bin strategies -- --quick --budget 64
//! cargo run --release --bin strategies -- --strategies line,random,anneal
//! cargo run --release --bin strategies -- --quick --db results/db   # persist winners
//! ```
//!
//! With `--db`, winners persist to the tuned-results database — and
//! later runs on the same key warm-start from it (their winner column
//! keeps the strategy that originally found the stored point). Omit
//! `--db` for a fully cold head-to-head.

use ifko::prelude::*;
use ifko_bench::ExpConfig;
use std::sync::Arc;

fn main() {
    let cfg = ExpConfig::from_args();
    let args: Vec<String> = std::env::args().collect();
    let mut specs: Vec<StrategySpec> = StrategySpec::all().to_vec();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--strategies" {
            if let Some(v) = it.next() {
                specs = v
                    .split(',')
                    .map(|s| {
                        StrategySpec::parse(s).unwrap_or_else(|e| {
                            eprintln!("--strategies: {e}");
                            std::process::exit(2)
                        })
                    })
                    .collect();
            }
        }
    }

    let mach = p4e();
    let ctx = Context::OutOfCache;
    let n = cfg.n_for(ctx);
    let kernels = [
        Kernel {
            op: BlasOp::Swap,
            prec: Prec::D,
        },
        Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        },
    ];

    eprintln!(
        "strategy head-to-head on {} ({}), N={n}, budget={}",
        mach.name,
        ctx.label(),
        cfg.budget
    );
    println!(
        "{:<10} {:<8} {:>10} {:>8} {:>6} {:>6} {:>6}  winner",
        "strategy", "kernel", "best", "speedup", "evals", "hits", "pruned"
    );
    for spec in &specs {
        for k in &kernels {
            // A private cache per (strategy, kernel) run: no strategy
            // rides on another's evaluations.
            let mut tc = cfg
                .tune_config(&mach, ctx)
                .cache(Arc::new(EvalCache::new()))
                .strategy(*spec);
            if let Some(dir) = &cfg.db_dir {
                match tc.clone().tuned_db(dir) {
                    Ok(c) => tc = c,
                    Err(e) => eprintln!("tuned-results db unavailable at {dir} ({e})"),
                }
            }
            match tc.tune(*k) {
                Ok(out) => println!(
                    "{:<10} {:<8} {:>10} {:>7.2}x {:>6} {:>6} {:>6}  {}",
                    spec.name(),
                    k.name(),
                    out.result.best_cycles,
                    out.result.speedup_over_default(),
                    out.result.evaluations,
                    out.result.cache_hits,
                    out.result.pruned,
                    out.result.winner_strategy,
                ),
                Err(e) => println!("{:<10} {:<8} FAILED: {e}", spec.name(), k.name()),
            }
        }
    }
    if let Some(dir) = &cfg.db_dir {
        match TunedDb::open(dir) {
            Ok(db) => eprintln!(
                "tuned-results database: {} record(s) in {dir} (tuned.jsonl)",
                db.len()
            ),
            Err(e) => eprintln!("tuned-results db unreadable at {dir}: {e}"),
        }
    }
    if let Some(p) = &cfg.metrics_path {
        match ifko::metrics::global().write_snapshot(p) {
            Ok(()) => eprintln!("metrics snapshot written to {p}"),
            Err(e) => eprintln!("cannot write metrics {p}: {e}"),
        }
    }
}
