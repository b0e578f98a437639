//! The timing methodology of the paper (§3.2): cycle-accurate timing via
//! the machine's counters, each measurement repeated on a quiet machine
//! and the minimum taken ("since walltime is prone to outside
//! interference, each timing was repeated six times and the minimum was
//! taken").
//!
//! The simulator itself is deterministic; to keep the min-of-reps protocol
//! meaningful (and to let ablations study it), the timer injects
//! *deterministic synthetic interference*: each repetition inflates the
//! true cycle count by a pseudo-random factor derived from the repetition
//! index and a seed. The minimum over repetitions approaches the true
//! count, exactly like the paper's walltimes.
//!
//! Because the noise is applied *after* a run and the run is a pure
//! function of its inputs (`tests/run_purity.rs`), a timing needs one
//! simulation, not one per repetition: [`Timer::time_from`] and
//! [`Timer::robust_from`] are arithmetic over a cycle count the caller
//! already holds, and [`Timer::time`] / [`Timer::time_robust`] are "run
//! once, then that".
//!
//! # Robust statistics
//!
//! Alongside the paper's min-of-reps, the timer offers outlier-robust
//! estimation ([`Timer::robust_from`], [`robust_min`]): repetitions are
//! screened by one-sided median/MAD rejection (interference only
//! *inflates* a measurement, so outliers are always high-side) plus a
//! min-anchored guard for tiny rep counts, flagged reps are adaptively
//! re-timed (bounded rounds), and persistent outliers are excluded from
//! the final minimum. With no faults injected the robust path returns
//! exactly what [`Timer::time`] returns — the rejection rules never fire
//! on the timer's own bounded noise — so enabling it under `--chaos`
//! leaves clean runs bit-identical.

use crate::fault::FaultPlan;
use crate::runner::{run_once, KernelArgs, RunFailure};
use ifko_fko::CompiledKernel;
use ifko_xsim::MachineConfig;

/// Bounded adaptive re-timing: how many detect-and-re-time rounds
/// [`Timer::robust_from`] runs before excluding persistent outliers.
const MAX_RETIME_ROUNDS: u32 = 3;

/// Timer configuration.
#[derive(Clone, Debug)]
pub struct Timer {
    /// Repetitions per timing (paper: 6).
    pub reps: u32,
    /// Maximum relative interference inflation per repetition (paper-like
    /// walltime noise). 0 disables the noise.
    pub interference: f64,
    /// Seed for the deterministic noise.
    pub seed: u64,
}

impl Default for Timer {
    fn default() -> Self {
        Timer {
            reps: 6,
            interference: 0.03,
            seed: 0x5eed,
        }
    }
}

impl Timer {
    /// A fast timer for searches: fewer repetitions.
    pub fn quick() -> Self {
        Timer {
            reps: 2,
            interference: 0.01,
            seed: 0x5eed,
        }
    }

    /// Noise-free single-shot timing (used by unit tests).
    pub fn exact() -> Self {
        Timer {
            reps: 1,
            interference: 0.0,
            seed: 0,
        }
    }

    /// Time one compiled kernel: simulate it once, then
    /// [`time_from`](Timer::time_from) its cycle count.
    pub fn time(
        &self,
        compiled: &CompiledKernel,
        args: &KernelArgs<'_>,
        machine: &MachineConfig,
    ) -> Result<u64, RunFailure> {
        let out = run_once(compiled, args, machine)?;
        Ok(self.time_from(out.stats.cycles, &compiled.name))
    }

    /// Robustly time one compiled kernel: simulate it once, then
    /// [`robust_from`](Timer::robust_from) its cycle count.
    pub fn time_robust(
        &self,
        compiled: &CompiledKernel,
        args: &KernelArgs<'_>,
        machine: &MachineConfig,
        faults: Option<(&FaultPlan, &str)>,
    ) -> Result<TimingReport, RunFailure> {
        let out = run_once(compiled, args, machine)?;
        Ok(self.robust_from(out.stats.cycles, &compiled.name, faults))
    }

    /// The paper's min-of-reps over one run's true cycle count: the
    /// minimum of `reps` interference-inflated observations of `cycles`
    /// for the kernel called `name`. Pure arithmetic — the simulator is
    /// deterministic, so re-running it per repetition would only
    /// recompute `cycles`.
    pub fn time_from(&self, cycles: u64, name: &str) -> u64 {
        (0..self.reps.max(1))
            .map(|rep| self.inflate(cycles, name, rep))
            .min()
            .expect("at least one repetition")
    }

    /// [`time_from`](Timer::time_from) with outlier-robust statistics and
    /// optional fault injection: reps flagged by [`robust_outliers`] are
    /// re-timed (up to [`MAX_RETIME_ROUNDS`] rounds), reps still flagged
    /// after that are excluded from the minimum and counted as rejected.
    /// `faults` is the chaos plan plus the subject key its decisions hash
    /// over; `None` measures the real pipeline (and then detection alone
    /// decides). A re-time is a fresh draw of the plan's spike for
    /// `(key, rep, attempt)` over the same true count, not a re-run.
    pub fn robust_from(
        &self,
        cycles: u64,
        name: &str,
        faults: Option<(&FaultPlan, &str)>,
    ) -> TimingReport {
        let reps = self.reps.max(1) as usize;
        let mut injected = 0u32;
        let mut retimed = 0u32;
        let mut measure = |rep: usize, attempt: u32| -> u64 {
            let mut v = self.inflate(cycles, name, rep as u32);
            if let Some((plan, key)) = faults {
                if let Some(factor) = plan.timer_spike(key, rep as u32, attempt) {
                    injected += 1;
                    v = (v as f64 * factor) as u64;
                }
            }
            v
        };
        let mut attempts = vec![0u32; reps];
        let mut vals: Vec<u64> = (0..reps).map(|rep| measure(rep, 0)).collect();
        for _round in 0..MAX_RETIME_ROUNDS {
            let flags = robust_outliers(&vals, self.interference);
            if !flags.iter().any(|&f| f) {
                break;
            }
            for rep in 0..reps {
                if flags[rep] {
                    attempts[rep] += 1;
                    retimed += 1;
                    vals[rep] = measure(rep, attempts[rep]);
                }
            }
        }
        let (cycles, outliers_rejected) = robust_min(&vals, self.interference);
        TimingReport {
            cycles,
            outliers_rejected,
            retimed,
            injected,
        }
    }

    /// Apply repetition `rep`'s deterministic interference to a true
    /// cycle count.
    pub fn inflate(&self, cycles: u64, name: &str, rep: u32) -> u64 {
        if self.interference <= 0.0 {
            return cycles;
        }
        // Simple splitmix-style hash over (seed, name, rep).
        let mut h = self.seed ^ (rep as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h ^= h >> 31;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 29;
        let u = (h % 10_000) as f64 / 10_000.0; // [0, 1)
        let factor = 1.0 + u * self.interference;
        (cycles as f64 * factor) as u64
    }
}

/// Outcome of one robust timing ([`Timer::robust_from`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingReport {
    /// Minimum over the repetitions that survived outlier rejection.
    pub cycles: u64,
    /// Repetitions still flagged as outliers after adaptive re-timing
    /// (excluded from `cycles`).
    pub outliers_rejected: u32,
    /// Extra measurements spent re-timing flagged repetitions.
    pub retimed: u32,
    /// Interference spikes the fault plan injected (0 without a plan).
    pub injected: u32,
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median_of(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s: Vec<u64> = xs.to_vec();
    s.sort_unstable();
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2] as f64
    } else {
        (s[n / 2 - 1] as f64 + s[n / 2] as f64) / 2.0
    }
}

/// Median absolute deviation about `med`.
pub fn mad_of(xs: &[u64], med: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut dev: Vec<f64> = xs.iter().map(|&v| (v as f64 - med).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = dev.len();
    if n % 2 == 1 {
        dev[n / 2]
    } else {
        (dev[n / 2 - 1] + dev[n / 2]) / 2.0
    }
}

/// One-sided outlier screen for timing repetitions. A rep is flagged when
/// it sits far *above* the median (8×MAD, floored by the interference
/// envelope so bounded timer noise never trips it), or — for rep counts
/// too small for a meaningful MAD — more than twice the interference
/// envelope above the minimum. Low-side values are never flagged:
/// interference only inflates, so the smallest observation is always the
/// most trustworthy.
pub fn robust_outliers(xs: &[u64], interference: f64) -> Vec<bool> {
    if xs.len() < 2 {
        return vec![false; xs.len()];
    }
    let med = median_of(xs);
    let mad = mad_of(xs, med);
    let tol = (8.0 * mad).max(med * 2.0 * interference).max(4.0);
    let lo = *xs.iter().min().unwrap() as f64;
    let anchor = lo * (1.0 + interference) * 2.0 + 4.0;
    xs.iter()
        .map(|&v| {
            let v = v as f64;
            (v > med && v - med > tol) || v > anchor
        })
        .collect()
}

/// Minimum over the inlier repetitions plus the rejected count (the
/// robust counterpart of min-of-reps). The minimum itself can never be
/// rejected (the screen is one-sided), so the estimate is always drawn
/// from real observations.
pub fn robust_min(xs: &[u64], interference: f64) -> (u64, u32) {
    let flags = robust_outliers(xs, interference);
    let mut best = u64::MAX;
    let mut rejected = 0u32;
    for (&v, &f) in xs.iter().zip(&flags) {
        if f {
            rejected += 1;
        } else {
            best = best.min(v);
        }
    }
    if best == u64::MAX {
        best = xs.iter().copied().min().unwrap_or(0);
    }
    (best, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Context;
    use ifko_blas::hil_src::hil_source;
    use ifko_blas::ops::BlasOp;
    use ifko_blas::{Kernel, Workload};
    use ifko_fko::compile_defaults;
    use ifko_xsim::isa::Prec;
    use ifko_xsim::p4e;

    fn setup() -> (CompiledKernel, Workload, Kernel, MachineConfig) {
        let mach = p4e();
        let src = hil_source(BlasOp::Dot, Prec::D);
        let compiled = compile_defaults(&src, &mach).unwrap();
        let w = Workload::generate(256, 5);
        (
            compiled,
            w,
            Kernel {
                op: BlasOp::Dot,
                prec: Prec::D,
            },
            mach,
        )
    }

    #[test]
    fn min_of_reps_approaches_exact() {
        let (compiled, w, k, mach) = setup();
        let args = KernelArgs {
            kernel: k,
            workload: &w,
            context: Context::OutOfCache,
        };
        let exact = Timer::exact().time(&compiled, &args, &mach).unwrap();
        let noisy1 = Timer {
            reps: 1,
            interference: 0.05,
            seed: 1,
        }
        .time(&compiled, &args, &mach)
        .unwrap();
        let noisy6 = Timer {
            reps: 6,
            interference: 0.05,
            seed: 1,
        }
        .time(&compiled, &args, &mach)
        .unwrap();
        assert!(noisy1 >= exact);
        assert!(noisy6 >= exact);
        assert!(noisy6 <= noisy1, "more reps can only lower the minimum");
        // 6 reps should land within 2% of the exact count.
        assert!((noisy6 - exact) as f64 <= exact as f64 * 0.02);
    }

    #[test]
    fn timing_is_deterministic() {
        let (compiled, w, k, mach) = setup();
        let args = KernelArgs {
            kernel: k,
            workload: &w,
            context: Context::OutOfCache,
        };
        let t = Timer::default();
        let a = t.time(&compiled, &args, &mach).unwrap();
        let b = t.time(&compiled, &args, &mach).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn contexts_time_differently() {
        let (compiled, w, k, mach) = setup();
        let t = Timer::exact();
        let oc = t
            .time(
                &compiled,
                &KernelArgs {
                    kernel: k,
                    workload: &w,
                    context: Context::OutOfCache,
                },
                &mach,
            )
            .unwrap();
        let ic = t
            .time(
                &compiled,
                &KernelArgs {
                    kernel: k,
                    workload: &w,
                    context: Context::InL2,
                },
                &mach,
            )
            .unwrap();
        assert!(ic < oc);
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median_of(&[]), 0.0);
        assert_eq!(median_of(&[5]), 5.0);
        assert_eq!(median_of(&[1, 9]), 5.0);
        assert_eq!(median_of(&[9, 1, 5]), 5.0);
        let med = median_of(&[10, 10, 10, 90]);
        assert_eq!(med, 10.0);
        assert_eq!(mad_of(&[10, 10, 10, 90], med), 0.0);
        assert_eq!(mad_of(&[10, 14, 18], 14.0), 4.0);
    }

    #[test]
    fn robust_rejection_is_one_sided_and_noise_tolerant() {
        // Bounded timer noise (3%) must never be flagged.
        let clean = [10_000, 10_120, 10_290, 10_015, 10_200, 10_299];
        assert!(robust_outliers(&clean, 0.03).iter().all(|&f| !f));
        assert_eq!(robust_min(&clean, 0.03), (10_000, 0));
        // A large spike is flagged; the minimum never is.
        let spiked = [10_000, 10_120, 90_000, 10_015, 10_200, 10_299];
        let flags = robust_outliers(&spiked, 0.03);
        assert_eq!(flags, [false, false, true, false, false, false]);
        assert_eq!(robust_min(&spiked, 0.03), (10_000, 1));
        // Even at 2 reps (50% contamination defeats MAD), the
        // min-anchored guard catches an 8x spike.
        let two = [10_000, 85_000];
        assert_eq!(robust_outliers(&two, 0.01), [false, true]);
        assert_eq!(robust_min(&two, 0.01), (10_000, 1));
    }

    #[test]
    fn robust_path_matches_min_of_reps_without_faults() {
        let (compiled, w, k, mach) = setup();
        let args = KernelArgs {
            kernel: k,
            workload: &w,
            context: Context::OutOfCache,
        };
        for t in [Timer::default(), Timer::quick(), Timer::exact()] {
            let plain = t.time(&compiled, &args, &mach).unwrap();
            let robust = t.time_robust(&compiled, &args, &mach, None).unwrap();
            assert_eq!(
                robust.cycles, plain,
                "clean robust timing must be bit-identical"
            );
            assert_eq!(robust.outliers_rejected, 0);
            assert_eq!(robust.retimed, 0);
            assert_eq!(robust.injected, 0);
        }
    }

    #[test]
    fn injected_spikes_are_recovered_by_retiming() {
        let (compiled, w, k, mach) = setup();
        let args = KernelArgs {
            kernel: k,
            workload: &w,
            context: Context::OutOfCache,
        };
        let t = Timer::default();
        let clean = t.time(&compiled, &args, &mach).unwrap();
        let plan = crate::fault::FaultPlan::uniform(42, 0.3);
        let mut saw_injection = false;
        for key_i in 0..8 {
            let key = format!("chaos-key-{key_i}");
            let r = t
                .time_robust(&compiled, &args, &mach, Some((&plan, &key)))
                .unwrap();
            saw_injection |= r.injected > 0;
            // Re-timing recovers the clean value unless a rep stayed
            // spiked through every round; then the estimate comes from
            // the surviving reps and stays inside the noise envelope.
            assert!(r.cycles >= clean);
            assert!(
                r.cycles as f64 <= clean as f64 * (1.0 + t.interference),
                "estimate {} drifted past the envelope of {clean}",
                r.cycles
            );
        }
        assert!(saw_injection, "0.3 rate over 8 keys x 6 reps must inject");
    }
}
