//! Pins the evaluation stream of a tune, event by event.
//!
//! For two BLAS kernels and two `.hil` sources, on both machines, clean
//! and under `--chaos 7:0.2`, a serial `SearchOptions::quick()` tune must
//! emit exactly the eval events (every field except the wall-clock and
//! worker tags) and exactly the search tallies recorded below. The
//! constants were computed at the commit *before* the two per-candidate
//! evaluators (one for BLAS kernels, one for `.hil` sources) and the two
//! tune drivers were merged into one, so this file is the byte-for-byte
//! contract that merge had to keep. It is also the only test that runs
//! the chaos plan against the differential (`.hil`) oracle.
//!
//! When a change to the search or the simulator moves these numbers on
//! purpose, the failure message prints the replacement table.

use ifko::eval::fnv64;
use ifko::prelude::*;

const N: usize = 1024;

/// One pinned tune: subject, machine, chaos on/off, then the fnv64 of the
/// eval-event stream, the fnv64 of the winner's `Debug` form, and
/// `(best_cycles, default_cycles, evaluations, cache_hits, pruned,
/// retries, faults, outliers, failed)`.
type Row = (&'static str, &'static str, bool, u64, u64, [u64; 9]);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("ddot", "P4E", false, 0x8ffd548c4ec10c31, 0xc224c31a95d77d34, [10743, 15582, 31, 22, 2, 0, 0, 0, 0]),
    ("ddot", "P4E", true, 0x552114f9fce33118, 0xc224c31a95d77d34, [10743, 15582, 31, 22, 2, 30, 32, 0, 0]),
    ("ddot", "Opteron", false, 0x24ba8788f1f4371f, 0xc224c31a95d77d34, [6432, 9353, 35, 22, 2, 0, 0, 0, 0]),
    ("ddot", "Opteron", true, 0x21c2063d13d4ee92, 0xc224c31a95d77d34, [6432, 9353, 35, 22, 2, 28, 30, 0, 0]),
    ("sscal", "P4E", false, 0x32c677aaebdee7f7, 0x5e3ee50f2ea4590d, [3294, 6614, 24, 3, 4, 0, 0, 0, 0]),
    ("sscal", "P4E", true, 0xff3bbaa147963f4c, 0x5e3ee50f2ea4590d, [3294, 6614, 24, 3, 4, 23, 25, 0, 0]),
    ("sscal", "Opteron", false, 0x6b05f1f471f404a7, 0x5e3ee50f2ea4590d, [1791, 3801, 21, 8, 4, 0, 0, 0, 0]),
    ("sscal", "Opteron", true, 0x5dea108917b459cf, 0x5e3ee50f2ea4590d, [1791, 3801, 21, 8, 4, 19, 21, 0, 0]),
    ("waxpby.hil", "P4E", false, 0x0f122e04b6c6b9ae, 0xb88916eaf642ee8a, [11933, 34465, 43, 17, 4, 0, 0, 0, 0]),
    ("waxpby.hil", "P4E", true, 0xc3e21e783bc99970, 0xb88916eaf642ee8a, [11933, 34465, 43, 17, 4, 21, 21, 0, 0]),
    ("waxpby.hil", "Opteron", false, 0x989a0ea0b78bfdcd, 0xe4b533267080c035, [8778, 10856, 58, 7, 4, 0, 0, 0, 0]),
    ("waxpby.hil", "Opteron", true, 0x59e8e2635814b54b, 0xe4b533267080c035, [8778, 10856, 58, 7, 4, 25, 25, 0, 0]),
    ("snrm2.hil", "P4E", false, 0xa71b9a2fafb59376, 0x5e3ee50f2ea4590d, [2579, 6810, 19, 18, 2, 0, 0, 0, 0]),
    ("snrm2.hil", "P4E", true, 0xc86a3e69f66b08ed, 0x5e3ee50f2ea4590d, [2579, 6810, 19, 18, 2, 10, 11, 0, 1]),
    ("snrm2.hil", "Opteron", false, 0xcfa7796341493c67, 0x5e3ee50f2ea4590d, [1798, 4000, 21, 18, 2, 0, 0, 0, 0]),
    ("snrm2.hil", "Opteron", true, 0x9a3bebc57eb86715, 0x5e3ee50f2ea4590d, [1798, 4000, 23, 16, 2, 13, 16, 0, 3]),
];

fn hil(name: &str) -> String {
    let path = format!("{}/../../kernels/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn tune(subject: &str, machine: MachineConfig, chaos: bool) -> (u64, SearchResult) {
    let sink = MemSink::new();
    let mut cfg = TuneConfig::quick(N).machine(machine).trace(sink.clone());
    if chaos {
        cfg = cfg.faults(FaultPlan::parse("7:0.2").unwrap());
    }
    let result = if subject.ends_with(".hil") {
        cfg.tune_source(&hil(subject)).unwrap().result
    } else {
        let kernel = *ALL_KERNELS
            .iter()
            .find(|k| k.name() == subject)
            .expect("suite kernel");
        cfg.tune(kernel).unwrap().result
    };
    let mut stream = String::new();
    for mut ev in sink.evals() {
        ev.wall_us = 0;
        ev.worker = None;
        stream.push_str(&format!("{ev:?}\n"));
    }
    (fnv64(stream.as_bytes()), result)
}

#[test]
fn eval_streams_and_tallies_match_the_pinned_table() {
    let mut got = String::new();
    let mut want = String::new();
    for subject in ["ddot", "sscal", "waxpby.hil", "snrm2.hil"] {
        for machine in [p4e(), opteron()] {
            for chaos in [false, true] {
                let mname = machine.name;
                let (stream, r) = tune(subject, machine.clone(), chaos);
                let tallies = [
                    r.best_cycles,
                    r.default_cycles,
                    r.evaluations as u64,
                    r.cache_hits as u64,
                    r.pruned as u64,
                    r.retries as u64,
                    r.faults as u64,
                    r.outliers as u64,
                    r.failed as u64,
                ];
                if chaos {
                    assert!(r.faults > 0, "{subject} on {mname}: chaos injected nothing");
                } else {
                    assert_eq!(&tallies[5..], [0; 4], "{subject} on {mname}: clean run");
                }
                let best = fnv64(format!("{:?}", r.best).as_bytes());
                got.push_str(&format!(
                    "    ({subject:?}, {mname:?}, {chaos}, {stream:#018x}, {best:#018x}, {tallies:?}),\n"
                ));
            }
        }
    }
    for (subject, mname, chaos, stream, best, tallies) in PINNED {
        want.push_str(&format!(
            "    ({subject:?}, {mname:?}, {chaos}, {stream:#018x}, {best:#018x}, {tallies:?}),\n"
        ));
    }
    assert!(
        got == want,
        "eval streams moved. Pinned:\n{want}\nComputed (paste over PINNED if intended):\n{got}"
    );
}
