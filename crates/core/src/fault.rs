//! Deterministic, seeded fault injection for the evaluation pipeline.
//!
//! Empirical tuning in the field must tolerate flaky infrastructure:
//! compilers that crash transiently, testers that misreport, timing reps
//! polluted by outside interference beyond the paper's §3.2 model, and
//! result files truncated by a crash mid-write. A [`FaultPlan`] simulates
//! all of these *deterministically*: every fault decision is a pure
//! function of `(plan seed, fault site, subject key, attempt)` via a
//! splitmix-style hash — the same construction the timer uses for its
//! synthetic interference — so the same seed reproduces the same faults
//! at any `jobs` width (no shared rng stream, no thread-order
//! dependence), and the engine's determinism invariant survives chaos.
//!
//! Fault injection is **off by default** (`TuneConfig` carries no plan)
//! and enabled with `--chaos SEED[:RATE]` on `ifko tune` and the bench
//! binaries, or [`TuneConfig::faults`](crate::TuneConfig::faults) in
//! code. The machinery it exercises:
//!
//! * bounded retry-with-backoff for transient compile/tester failures
//!   (`--max-retries`, default 2; retries are counted per evaluation and
//!   surface in the trace, metrics, and `ifko report`);
//! * outlier-robust timing (median/MAD rejection with adaptive re-timing
//!   of spiked reps — see [`Timer::time_robust`](crate::Timer::time_robust));
//! * graceful degradation: a candidate that keeps failing past the retry
//!   budget is recorded as *failed* in the trace, never cached, never a
//!   winner, and never a panic;
//! * crash-safe persistence: truncated trailing records in
//!   `evals.jsonl` / the tuned db's `tuned.jsonl` journal are skipped
//!   with a diagnostic on load and the file is atomically rewritten
//!   (tmp + rename) on the next store — the crate's one journal
//!   (`journal.rs`), which also performs the injected torn write.

use std::time::Duration;

/// Default per-site fault probability when `--chaos SEED` gives no rate.
pub const DEFAULT_RATE: f64 = 0.1;

/// Highest accepted per-site rate. Capped below 1.0 so a retry always has
/// a chance to succeed and a chaos run can always make progress.
pub const MAX_RATE: f64 = 0.95;

/// Injection sites (used as hash salts, so decisions at different sites
/// are independent even for the same subject key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A candidate compile returns a transient error.
    Compile,
    /// The correctness tester flakes (reports failure spuriously).
    Tester,
    /// One timing repetition spikes as an outlier.
    TimerRep,
    /// A cache/db record write is truncated mid-record.
    Persist,
}

impl FaultSite {
    fn salt(self) -> u64 {
        match self {
            FaultSite::Compile => 0xc0de_fa17,
            FaultSite::Tester => 0x7e57_fa17,
            FaultSite::TimerRep => 0x7133_fa17,
            FaultSite::Persist => 0xd15c_fa17,
        }
    }
}

/// A seeded fault-injection plan: per-site probabilities, decided
/// deterministically per (site, key, attempt).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability a compile attempt fails transiently.
    pub compile: f64,
    /// Probability a tester run flakes.
    pub tester: f64,
    /// Probability one timing repetition spikes.
    pub timer_rep: f64,
    /// Probability a persisted record write is truncated.
    pub persist: f64,
}

impl FaultPlan {
    /// A plan injecting faults at `rate` at every site.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        let rate = rate.clamp(0.0, MAX_RATE);
        FaultPlan {
            seed,
            compile: rate,
            tester: rate,
            timer_rep: rate,
            persist: rate,
        }
    }

    /// A plan at the default rate (see [`DEFAULT_RATE`]).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan::uniform(seed, DEFAULT_RATE)
    }

    /// Parse a `--chaos` argument: `SEED` or `SEED:RATE`, seed decimal or
    /// `0x`-hex, rate a float in `[0, 0.95]`.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let s = s.trim();
        let err = || format!("bad chaos spec `{s}` (want SEED or SEED:RATE, e.g. `7` or `7:0.2`)");
        let (seed_s, rate) = match s.split_once(':') {
            Some((seed_s, rate_s)) => {
                let rate: f64 = rate_s.trim().parse().map_err(|_| err())?;
                if !(0.0..=MAX_RATE).contains(&rate) {
                    return Err(format!(
                        "chaos rate {rate} out of range (want 0..={MAX_RATE})"
                    ));
                }
                (seed_s.trim(), rate)
            }
            None => (s, DEFAULT_RATE),
        };
        let seed = match seed_s
            .strip_prefix("0x")
            .or_else(|| seed_s.strip_prefix("0X"))
        {
            Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| err())?,
            None => seed_s.parse::<u64>().map_err(|_| err())?,
        };
        Ok(FaultPlan::uniform(seed, rate))
    }

    /// Uniform draw in `[0, 1)`, pure in `(seed, site, key, attempt)`.
    fn roll(&self, site: FaultSite, key: &str, attempt: u64) -> f64 {
        // FNV fold of the key into a splitmix-style finalizer, exactly the
        // shape `Timer::inflate` uses — order- and thread-independent.
        let mut h = self.seed
            ^ site.salt().wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ attempt.wrapping_mul(0xff51_afd7_ed55_8ccd);
        for b in key.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h ^= h >> 31;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 29;
        (h % 1_000_000) as f64 / 1_000_000.0
    }

    /// Does compile attempt `attempt` for `key` fail transiently?
    pub fn compile_fails(&self, key: &str, attempt: u32) -> bool {
        self.compile > 0.0 && self.roll(FaultSite::Compile, key, attempt as u64) < self.compile
    }

    /// Does tester attempt `attempt` for `key` flake?
    pub fn tester_flakes(&self, key: &str, attempt: u32) -> bool {
        self.tester > 0.0 && self.roll(FaultSite::Tester, key, attempt as u64) < self.tester
    }

    /// Interference spike factor for timing rep `rep` (attempt `attempt`
    /// of that rep), if this draw injects one. Spikes are large (8–32x)
    /// so they model interference far outside the timer's own noise
    /// envelope — and are cleanly separable by median/MAD rejection.
    pub fn timer_spike(&self, key: &str, rep: u32, attempt: u32) -> Option<f64> {
        if self.timer_rep <= 0.0 {
            return None;
        }
        let draw = ((rep as u64) << 32) | attempt as u64;
        let u = self.roll(FaultSite::TimerRep, key, draw);
        if u < self.timer_rep {
            // Derive the magnitude from the same draw: still deterministic.
            Some(8.0 + (u / self.timer_rep) * 24.0)
        } else {
            None
        }
    }

    /// Is this record write truncated mid-record?
    pub fn persist_truncates(&self, key: &str) -> bool {
        self.persist > 0.0 && self.roll(FaultSite::Persist, key, 0) < self.persist
    }

    /// Backoff before retry `attempt` (exponential, microsecond scale —
    /// the evaluation pipeline is simulated, so real sleeps stay tiny).
    pub fn backoff(&self, attempt: u32) -> Duration {
        backoff(attempt)
    }
}

/// Exponential retry backoff, usable without a [`FaultPlan`]: the worker
/// pool waits this long before re-dispatching a candidate whose worker
/// died (same schedule the chaos retries use).
pub fn backoff(attempt: u32) -> Duration {
    Duration::from_micros(20u64 << attempt.min(10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_seed_and_rate() {
        assert_eq!(
            FaultPlan::parse("7"),
            Ok(FaultPlan::uniform(7, DEFAULT_RATE))
        );
        assert_eq!(FaultPlan::parse("7:0.25"), Ok(FaultPlan::uniform(7, 0.25)));
        assert_eq!(
            FaultPlan::parse("0xb1a5:0.5"),
            Ok(FaultPlan::uniform(0xb1a5, 0.5))
        );
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("seed").is_err());
        assert!(FaultPlan::parse("7:1.5").is_err(), "rate above cap");
        assert!(FaultPlan::parse("7:-0.1").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::uniform(1, 0.5);
        let b = FaultPlan::uniform(2, 0.5);
        let mut diverged = false;
        for i in 0..64 {
            let key = format!("scope|p{i}");
            assert_eq!(a.compile_fails(&key, 0), a.compile_fails(&key, 0));
            assert_eq!(a.timer_spike(&key, 3, 0), a.timer_spike(&key, 3, 0));
            if a.compile_fails(&key, 0) != b.compile_fails(&key, 0) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must draw different faults");
    }

    #[test]
    fn sites_draw_independently() {
        let p = FaultPlan::uniform(3, 0.5);
        let mut differs = false;
        for i in 0..64 {
            let key = format!("k{i}");
            if p.compile_fails(&key, 0) != p.tester_flakes(&key, 0) {
                differs = true;
            }
        }
        assert!(differs, "sites must not share one decision stream");
    }

    #[test]
    fn rates_are_roughly_calibrated() {
        let p = FaultPlan::uniform(9, 0.2);
        let hits = (0..2000)
            .filter(|i| p.compile_fails(&format!("key-{i}"), 0))
            .count();
        let frac = hits as f64 / 2000.0;
        assert!((0.15..0.25).contains(&frac), "got {frac}");
    }

    #[test]
    fn zero_rate_never_fires_and_retries_can_succeed() {
        let off = FaultPlan::uniform(1, 0.0);
        for i in 0..128 {
            let key = format!("k{i}");
            assert!(!off.compile_fails(&key, 0));
            assert!(!off.tester_flakes(&key, 0));
            assert!(off.timer_spike(&key, 0, 0).is_none());
            assert!(!off.persist_truncates(&key));
        }
        // At any sub-1.0 rate, some retry attempt eventually clears.
        let hot = FaultPlan::uniform(5, MAX_RATE);
        for i in 0..32 {
            let key = format!("k{i}");
            assert!(
                (0..64).any(|a| !hot.compile_fails(&key, a)),
                "attempt stream for {key} never clears"
            );
        }
    }

    #[test]
    fn spikes_are_large_and_bounded() {
        let p = FaultPlan::uniform(11, 0.9);
        let mut seen = 0;
        for i in 0..64 {
            if let Some(f) = p.timer_spike(&format!("k{i}"), 0, 0) {
                assert!((8.0..32.0).contains(&f), "spike factor {f}");
                seen += 1;
            }
        }
        assert!(seen > 0);
    }
}
