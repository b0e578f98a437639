//! Small helpers the harness needs and the program under test does not
//! export: order statistics, `/proc` readers, the calibration spin and a
//! scratch-directory guard.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Interquartile mean: the mean of the values between the first and the
/// third quartile. As central as the median, but it averages half the
/// sample, so with few samples it does not hang on one of them.
pub fn midmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "midmean of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x.ln();
        n += 1;
    }
    assert!(n > 0, "geomean of an empty sample");
    (sum / n as f64).exp()
}

/// Time `f` `reps` times; median seconds per call.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Linux reports process times in clock ticks of 1/100 s (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process and of every child it has
/// reaped, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime, stime, cutime
    // and cstime are fields 14-17 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / TICKS_PER_S
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads, connections and worker processes never exceed this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A number as JSON, with all its digits; non-finite values (a bug in a
/// probe) become `null` so the reader rejects them loudly.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `iters` steps of the splitmix64 chain `pipeline.rs` calibrates with:
/// arithmetic only, independent of every crate under test.
fn spin(iters: u64) {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..iters {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= z >> 31;
    }
    std::hint::black_box(x);
}

/// Best rate of the spin over at least 3 repetitions and 30 ms, in
/// millions of steps per second: the host's speed when nothing
/// interferes, recorded beside every set of numbers.
pub fn calib_mops() -> f64 {
    const ITERS: u64 = 2_000_000;
    let t_all = Instant::now();
    let mut best = Duration::MAX;
    let mut reps = 0;
    while reps < 3 || t_all.elapsed() < Duration::from_millis(30) {
        let t0 = Instant::now();
        spin(ITERS);
        best = best.min(t0.elapsed());
        reps += 1;
    }
    ITERS as f64 / best.as_secs_f64() / 1e6
}

/// `iters` steps on each of four independent splitmix64 chains. Unlike
/// [`spin`], whose every step waits for the one before, this keeps the
/// core's issue ports busy the way compiled code does, so it slows down
/// when the host shares the core or its clock, which `spin` hardly
/// notices: over ten minutes of `cold_ic` passes swinging between 1.1 s
/// and 1.9 s, its rate explained three quarters of the variance between
/// 30 s blocks and `spin`'s half.
fn spin4(iters: u64, chains: &mut [u64; 4]) {
    // A local copy, so the chains live in registers.
    let mut x = *chains;
    for _ in 0..iters {
        for x in x.iter_mut() {
            let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *x = z;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *x ^= (z ^ (z >> 31)) >> 31;
        }
    }
    *chains = std::hint::black_box(x);
}

/// The host speed the timed metrics are reported at, in [`spin4`] chain
/// steps per microsecond (this sandbox's usual rate).
const REFERENCE_MOPS: f64 = 600.0;

/// The host's speed *while* a pass runs: short spins interleaved with the
/// pass's operations, rate taken over all of them (a mean, so slow
/// moments count). On this sandbox the host slows by 15-50 % for seconds
/// to minutes at a time; scaling a pass's times by [`HostSpeed::factor`]
/// takes a third to a half off the run-to-run spread.
#[derive(Default)]
pub struct HostSpeed {
    chains: [u64; 4],
    steps: u64,
    secs: f64,
}

impl HostSpeed {
    /// Share of a tune workload's time spent sampling. The host's speed
    /// moves from one tenth of a second to the next, so every sample more
    /// makes the estimate better.
    pub const DUTY: f64 = 0.08;

    /// Spin for about `secs` (at least 1 ms).
    pub fn sample(&mut self, secs: f64) {
        const CHUNK: u64 = 5_000;
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < secs.max(1e-3) {
            spin4(CHUNK, &mut self.chains);
            self.steps += 4 * CHUNK;
        }
        self.secs += t0.elapsed().as_secs_f64();
    }

    /// Seconds spent sampling, to take off the pass's wall and CPU time.
    pub fn spent_s(&self) -> f64 {
        self.secs
    }

    pub fn merge(&mut self, other: &HostSpeed) {
        self.steps += other.steps;
        self.secs += other.secs;
    }

    /// Multiply a time measured during the sampled period by this to get
    /// the time at the reference speed.
    pub fn factor(&self) -> f64 {
        if self.secs == 0.0 {
            return 1.0;
        }
        self.steps as f64 / self.secs / 1e6 / REFERENCE_MOPS
    }
}

/// A scratch directory under the current directory (the harness runs
/// inside `benchmark/out`), removed on drop. Relative and short, so Unix
/// socket paths inside it stay under the 108-byte limit.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = PathBuf::from(format!("tmp-{}-{tag}{k}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
