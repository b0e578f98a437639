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

use ifko::flags::{boxed, Flag};
use ifko::prelude::*;
use ifko_bench::{ExpConfig, FLAGS};

#[rustfmt::skip]
const STRATEGIES: &[Flag] = &[
    Flag::new("--strategies LIST", "comma-separated strategies to race (default: all)")
        .parse(|list| boxed(list.split(',').map(StrategySpec::parse).collect::<Result<Vec<_>, _>>())),
];

fn main() {
    let (cfg, given) = ExpConfig::from_env("strategies", &[FLAGS, &[STRATEGIES]].concat());
    let specs = given
        .get::<Vec<StrategySpec>>("--strategies")
        .unwrap_or_else(|| StrategySpec::all().to_vec());

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
        given.get("--budget").unwrap_or_else(Budget::unlimited)
    );
    println!(
        "{:<10} {:<8} {:>10} {:>8} {:>6} {:>6} {:>6}  winner",
        "strategy", "kernel", "best", "speedup", "evals", "hits", "pruned"
    );
    for spec in &specs {
        for k in &kernels {
            // `tune_config` gives each (strategy, kernel) run a private
            // cache: no strategy rides on another's evaluations.
            match cfg.tune_config(&mach, ctx).strategy(*spec).tune(*k) {
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
    if let Some(db) = cfg.tune.base.db_of() {
        let dir = given.raw("--db").unwrap_or("results/db");
        eprintln!(
            "tuned-results database: {} record(s) in {dir} (tuned.jsonl)",
            db.len()
        );
    }
    if let Err(e) = cfg.tune.finish(&[]) {
        eprintln!("strategies: {e}");
    }
}
