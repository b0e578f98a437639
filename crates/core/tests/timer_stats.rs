//! Robust timing statistics, property-tested over the in-repo xoshiro
//! generator: with outliers injected at a contamination rate of at most
//! one third, the median/MAD screen must reject exactly the spikes and
//! the robust estimate must equal the clean minimum; on a real kernel
//! the robust path must agree with the paper's min-of-reps and stay
//! within the interference envelope of [`Timer::exact`].
//!
//! The timer derives every repetition from one simulation's cycle
//! count. The loops that re-simulated per repetition and per re-time
//! live on here as the reference it must match, statistic for statistic.

use ifko::prelude::*;
use ifko::runner::{run_once, KernelArgs, RunFailure};
use ifko::timer::{robust_min, robust_outliers, TimingReport};
use ifko_blas::hil_src::hil_source;
use ifko_fko::{compile_defaults, CompiledKernel};
use ifko_xsim::Rng64;

const INTERFERENCE: f64 = 0.03;

/// Synthetic repetitions the way the timer produces them: a true cycle
/// count inflated by bounded noise, with `n_spikes` of them multiplied
/// by an 8–32× interference spike (the fault plan's range).
fn sample(rng: &mut Rng64, reps: usize, n_spikes: usize) -> (Vec<u64>, u64) {
    let base = 10_000 + rng.next_u64() % 50_000;
    let mut vals: Vec<u64> = (0..reps)
        .map(|_| (base as f64 * (1.0 + rng.unit_f64() * INTERFERENCE)) as u64)
        .collect();
    // Spike distinct indices; at most ⌊reps/3⌋ of them.
    let mut spiked = vec![false; reps];
    let mut placed = 0;
    while placed < n_spikes {
        let i = (rng.next_u64() % reps as u64) as usize;
        if !spiked[i] {
            spiked[i] = true;
            let factor = 8.0 + rng.unit_f64() * 24.0;
            vals[i] = (vals[i] as f64 * factor) as u64;
            placed += 1;
        }
    }
    // The recoverable truth: the smallest repetition a spike missed.
    let clean_min = vals
        .iter()
        .zip(&spiked)
        .filter(|&(_, &s)| !s)
        .map(|(&v, _)| v)
        .min()
        .unwrap();
    (vals, clean_min)
}

/// ≤ 1/3 contamination: every spike is rejected, no clean repetition
/// is, and the estimate is exactly the clean minimum.
#[test]
fn robust_min_rejects_spikes_and_recovers_clean_minimum() {
    let mut rng = Rng64::seed_from_u64(0x7133_57a7);
    for _ in 0..500 {
        let reps = 3 + (rng.next_u64() % 10) as usize; // 3..=12
        let n_spikes = (rng.next_u64() % (reps as u64 / 3 + 1)) as usize;
        let (vals, clean_min) = sample(&mut rng, reps, n_spikes);
        let (est, rejected) = robust_min(&vals, INTERFERENCE);
        assert_eq!(
            rejected, n_spikes as u32,
            "rejected {rejected} of {n_spikes} spikes in {vals:?}"
        );
        assert_eq!(
            est, clean_min,
            "estimate drifted off the clean minimum in {vals:?}"
        );
    }
}

/// With no contamination the screen never fires — the robust path is
/// the identity on clean data, whatever the seed.
#[test]
fn robust_screen_never_fires_on_clean_samples() {
    let mut rng = Rng64::seed_from_u64(0x000c_1ea9);
    for _ in 0..500 {
        let reps = 2 + (rng.next_u64() % 11) as usize;
        let (vals, clean_min) = sample(&mut rng, reps, 0);
        assert!(
            robust_outliers(&vals, INTERFERENCE).iter().all(|&f| !f),
            "clean sample flagged: {vals:?}"
        );
        assert_eq!(robust_min(&vals, INTERFERENCE), (clean_min, 0));
    }
}

fn compiled_ddot() -> (CompiledKernel, Workload, Kernel, MachineConfig) {
    let mach = p4e();
    let src = hil_source(BlasOp::Dot, Prec::D);
    let compiled = compile_defaults(&src, &mach).unwrap();
    let w = Workload::generate(512, 5);
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

/// On a real kernel, across timer seeds: min-of-reps and the robust
/// path agree bit-exactly on clean runs, and both stay within the
/// interference envelope of the noise-free [`Timer::exact`] count.
#[test]
fn robust_and_min_of_reps_agree_across_seeds() {
    let (compiled, w, k, mach) = compiled_ddot();
    let args = KernelArgs {
        kernel: k,
        workload: &w,
        context: Context::OutOfCache,
    };
    let exact = Timer::exact().time(&compiled, &args, &mach).unwrap();
    for seed in 0..12 {
        let t = Timer {
            reps: 6,
            interference: INTERFERENCE,
            seed,
        };
        let min_reps = t.time(&compiled, &args, &mach).unwrap();
        let robust = t.time_robust(&compiled, &args, &mach, None).unwrap();
        assert_eq!(
            robust.cycles, min_reps,
            "seed {seed}: robust and min-of-reps disagree on a clean run"
        );
        assert_eq!((robust.outliers_rejected, robust.retimed), (0, 0));
        assert!(min_reps >= exact, "seed {seed}: timing below truth");
        assert!(
            min_reps as f64 <= exact as f64 * (1.0 + INTERFERENCE) + 1.0,
            "seed {seed}: min-of-reps {min_reps} outside the envelope of {exact}"
        );
    }
}

/// Injected timer spikes across chaos seeds: the robust estimate stays
/// within the interference envelope of [`Timer::exact`] — spikes are
/// either re-timed away or rejected, never averaged in.
#[test]
fn injected_spikes_stay_within_tolerance_of_exact() {
    let (compiled, w, k, mach) = compiled_ddot();
    let args = KernelArgs {
        kernel: k,
        workload: &w,
        context: Context::OutOfCache,
    };
    let exact = Timer::exact().time(&compiled, &args, &mach).unwrap();
    let t = Timer {
        reps: 6,
        interference: INTERFERENCE,
        seed: 0x5eed,
    };
    let mut injections = 0u32;
    for chaos_seed in 0..16u64 {
        // ~1/3 of reps spiked on average, the satellite's contamination cap.
        let plan = FaultPlan::uniform(chaos_seed, 0.33);
        let r = t
            .time_robust(&compiled, &args, &mach, Some((&plan, "ddot/chaos")))
            .unwrap();
        injections += r.injected;
        assert!(r.cycles >= exact, "seed {chaos_seed}: estimate below truth");
        assert!(
            r.cycles as f64 <= exact as f64 * (1.0 + INTERFERENCE) + 1.0,
            "seed {chaos_seed}: estimate {} outside the envelope of {exact} \
             ({} injected, {} rejected, {} retimed)",
            r.cycles,
            r.injected,
            r.outliers_rejected,
            r.retimed
        );
    }
    assert!(injections > 0, "16 seeds at rate 0.33 must inject spikes");
}

/// Reference: `Timer::time` when it simulated once per repetition.
fn resimulating_time(
    t: &Timer,
    compiled: &CompiledKernel,
    args: &KernelArgs<'_>,
    machine: &MachineConfig,
) -> Result<u64, RunFailure> {
    let mut best = u64::MAX;
    for rep in 0..t.reps.max(1) {
        let out = run_once(compiled, args, machine)?;
        best = best.min(t.inflate(out.stats.cycles, &compiled.name, rep));
    }
    Ok(best)
}

/// Reference: `Timer::time_robust` when every repetition, and every
/// re-time of a flagged repetition, was its own simulation.
fn resimulating_time_robust(
    t: &Timer,
    compiled: &CompiledKernel,
    args: &KernelArgs<'_>,
    machine: &MachineConfig,
    faults: Option<(&FaultPlan, &str)>,
) -> Result<TimingReport, RunFailure> {
    const MAX_RETIME_ROUNDS: u32 = 3;
    let reps = t.reps.max(1) as usize;
    let mut injected = 0u32;
    let mut retimed = 0u32;
    let measure = |rep: usize, attempt: u32, injected: &mut u32| -> Result<u64, RunFailure> {
        let out = run_once(compiled, args, machine)?;
        let mut v = t.inflate(out.stats.cycles, &compiled.name, rep as u32);
        if let Some((plan, key)) = faults {
            if let Some(factor) = plan.timer_spike(key, rep as u32, attempt) {
                *injected += 1;
                v = (v as f64 * factor) as u64;
            }
        }
        Ok(v)
    };
    let mut attempts = vec![0u32; reps];
    let mut vals = vec![0u64; reps];
    for (rep, v) in vals.iter_mut().enumerate() {
        *v = measure(rep, 0, &mut injected)?;
    }
    for _round in 0..MAX_RETIME_ROUNDS {
        let flags = robust_outliers(&vals, t.interference);
        if !flags.iter().any(|&f| f) {
            break;
        }
        for rep in 0..reps {
            if flags[rep] {
                attempts[rep] += 1;
                retimed += 1;
                vals[rep] = measure(rep, attempts[rep], &mut injected)?;
            }
        }
    }
    let (cycles, outliers_rejected) = robust_min(&vals, t.interference);
    Ok(TimingReport {
        cycles,
        outliers_rejected,
        retimed,
        injected,
    })
}

/// Over seeded random timers, chaos plans and subject keys, deriving the
/// repetitions from one run's cycle count gives exactly what
/// re-simulating gave: the same minimum, and the same `cycles`,
/// `retimed`, `injected` and `outliers_rejected`.
#[test]
fn one_simulation_timing_matches_the_resimulating_reference() {
    let (compiled, w, k, mach) = compiled_ddot();
    let args = KernelArgs {
        kernel: k,
        workload: &w,
        context: Context::OutOfCache,
    };
    let cycles = run_once(&compiled, &args, &mach).unwrap().stats.cycles;
    let mut rng = Rng64::seed_from_u64(0x71de_0001);
    let (mut spiked, mut retimed, mut rejected) = (0u32, 0u32, 0u32);
    for case in 0..200 {
        let t = Timer {
            reps: (rng.next_u64() % 9) as u32, // 0 behaves as 1
            interference: [0.0, 0.01, 0.03, rng.unit_f64() * 0.08][rng.range_usize(4)],
            seed: rng.next_u64(),
        };
        let plan = FaultPlan::uniform(rng.next_u64(), rng.unit_f64() * 0.5);
        let key = format!("ddot/case-{}", rng.next_u64() % 1000);
        let faults = rng.gen_bool(0.8).then_some((&plan, key.as_str()));

        let want = resimulating_time_robust(&t, &compiled, &args, &mach, faults).unwrap();
        let got = t.robust_from(cycles, &compiled.name, faults);
        assert_eq!(got, want, "case {case}: {t:?} faults {faults:?}");
        assert_eq!(
            t.time_robust(&compiled, &args, &mach, faults).unwrap(),
            want,
            "case {case}: time_robust is run_once + robust_from"
        );

        let want_min = resimulating_time(&t, &compiled, &args, &mach).unwrap();
        assert_eq!(t.time_from(cycles, &compiled.name), want_min, "case {case}");
        assert_eq!(t.time(&compiled, &args, &mach).unwrap(), want_min);

        spiked += want.injected;
        retimed += want.retimed;
        rejected += want.outliers_rejected;
    }
    // The comparison must have exercised every statistic.
    assert!(spiked > 0 && retimed > 0 && rejected > 0);
}
