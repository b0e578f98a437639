//! Head-to-head search-strategy comparison (strategy subsystem demo).
//!
//! Runs each requested strategy on the same kernels (swap and dot — one
//! memory-bound, one reduction) with a *private* evaluation cache per
//! strategy, so every strategy pays for its own probes and the comparison
//! is fair. The table is [`ifko_bench::strategies`]: best cycles, speedup
//! over FKO defaults, fresh evaluations, and which member found the
//! winner (portfolio attribution).
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

    eprintln!(
        "strategy head-to-head on {} ({}), N={}, budget={}",
        p4e().name,
        Context::OutOfCache.label(),
        cfg.n_for(Context::OutOfCache),
        given.get("--budget").unwrap_or_else(Budget::unlimited)
    );
    print!("{}", ifko_bench::strategies(&cfg, &specs));
    if let Some(db) = cfg.tune.base.db_of() {
        let dir = given.raw("--db").unwrap_or("results/db");
        eprintln!(
            "tuned-results database: {} record(s) in {dir} (tuned.jsonl)",
            db.len()
        );
    }
    if let Err(e) = cfg.tune.finish() {
        eprintln!("strategies: {e}");
    }
}
