//! Compiled-program pins: the exact output of `CompileSession::compile`
//! over the 14 suite kernels and every `kernels/*.hil` source, on both
//! machine models, across a grid of transformation parameters.
//!
//! Each (kernel, machine) pair folds one FNV-1a hash over the Debug text
//! of every grid point's result: the program's instructions and label
//! table, `frame_bytes`, `arg_convention` and `ret` — or, for a point the
//! compiler refuses, the error message. A change to the compiler's
//! internals that alters a single emitted instruction anywhere on the
//! grid fails here, named by kernel and machine.
//!
//! The same test binary carries the allocation ledger (`ledger.rs`): a
//! counting global allocator that pins the heap allocations of one
//! compile.

use ifko_blas::hil_src::hil_source;
use ifko_blas::ALL_KERNELS;
use ifko_fko::ir::PrefKind;
use ifko_fko::{AnalysisReport, CompileOpts, CompileSession, PrefSpec, TransformParams};
use ifko_xsim::{opteron, p4e, MachineConfig};
use std::fmt::Write;

#[path = "program_pin/ledger.rs"]
mod ledger;

/// FNV-1a, fed through `fmt::Write` so Debug text streams into it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// Every source on the pin: the suite by API name, then `kernels/*.hil`
/// by file name.
fn sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = ALL_KERNELS
        .iter()
        .map(|k| (k.name(), hil_source(k.op, k.prec)))
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("kernels/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "hil"))
        .collect();
    files.sort();
    for f in files {
        let name = f.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, std::fs::read_to_string(&f).expect("readable kernel")));
    }
    out
}

fn point(simd: bool, unroll: u32, ae: u32) -> TransformParams {
    let mut p = TransformParams::off();
    p.simd = simd;
    p.unroll = unroll;
    p.accum_expand = ae;
    p
}

/// The parameter grid: unroll × AE × SIMD; WNT over FKO's defaults at
/// every unroll; each prefetch kind at two distances; two points deep
/// enough in unroll × AE to spill; and the repeatable passes switched off.
fn grid(rep: &AnalysisReport, mach: &MachineConfig) -> Vec<TransformParams> {
    let unrolls = [1u32, 2, 3, 8, 24, 64, 128];
    let mut out = Vec::new();
    for &unroll in &unrolls {
        for ae in [1u32, 2, 4] {
            for simd in [false, true] {
                out.push(point(simd, unroll, ae));
            }
        }
        let mut p = TransformParams::defaults(rep, mach);
        p.unroll = unroll;
        p.wnt = true;
        out.push(p);
    }
    for kind in [
        PrefKind::T0,
        PrefKind::T1,
        PrefKind::T2,
        PrefKind::Nta,
        PrefKind::W,
    ] {
        for dist in [64i64, 1024] {
            for unroll in [1u32, 8] {
                let mut p = point(true, unroll, 1);
                p.prefetch = rep
                    .pf_candidates
                    .iter()
                    .map(|&ptr| PrefSpec {
                        ptr,
                        kind: Some(kind),
                        dist,
                    })
                    .collect();
                out.push(p);
            }
        }
    }
    out.push(point(true, 32, 6));
    out.push(point(false, 64, 8));
    let mut bare = point(true, 8, 2);
    bare.loop_control = false;
    bare.cisc_memops = false;
    bare.copy_prop = false;
    bare.dead_code_elim = false;
    bare.branch_cleanup = false;
    out.push(bare);
    out
}

/// Fold one session's results over the grid into a hash; also report
/// whether any point spilled.
fn fingerprint(src: &str, mach: &MachineConfig) -> (u64, bool) {
    let sess = CompileSession::from_source(src, mach).expect("kernel front-ends");
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut spilled = false;
    for p in grid(sess.report(), mach) {
        match sess.compile(&p, CompileOpts::verify(false)) {
            Ok(c) => {
                spilled |= c.frame_bytes > 0;
                write!(
                    h,
                    "{:?}|{}|{:?}|{:?};",
                    c.program, c.frame_bytes, c.arg_convention, c.ret
                )
                .unwrap();
            }
            Err(e) => write!(h, "error {e};").unwrap(),
        }
    }
    (h.0, spilled)
}

/// (source, P4E hash, Opteron hash).
const PINS: [(&str, u64, u64); 17] = [
    ("sswap", 0x5895_8be1_b8be_ce7d, 0x5895_8be1_b8be_ce7d),
    ("dswap", 0xa630_8aa1_a089_f77b, 0xa630_8aa1_a089_f77b),
    ("sscal", 0xac14_fc76_d270_44cb, 0xac14_fc76_d270_44cb),
    ("dscal", 0x448c_c74e_94df_2026, 0x448c_c74e_94df_2026),
    ("scopy", 0xf842_7937_b267_54ce, 0xf842_7937_b267_54ce),
    ("dcopy", 0x86e5_a447_19f3_2b1c, 0x86e5_a447_19f3_2b1c),
    ("saxpy", 0x59bc_8371_b3f2_d0eb, 0x59bc_8371_b3f2_d0eb),
    ("daxpy", 0xc9e4_09e4_971c_1400, 0xc9e4_09e4_971c_1400),
    ("sdot", 0x82fd_61ce_c848_c749, 0x82fd_61ce_c848_c749),
    ("ddot", 0x740c_8508_2eb6_77bb, 0x740c_8508_2eb6_77bb),
    ("sasum", 0x3310_de5c_1b8a_c16a, 0x3310_de5c_1b8a_c16a),
    ("dasum", 0xb9c8_67d6_e41c_7e9d, 0xb9c8_67d6_e41c_7e9d),
    ("isamax", 0xd35a_117d_79ac_42f5, 0xd35a_117d_79ac_42f5),
    ("idamax", 0x606d_3399_d239_4575, 0x606d_3399_d239_4575),
    ("ddot.hil", 0x740c_8508_2eb6_77bb, 0x740c_8508_2eb6_77bb),
    ("snrm2.hil", 0xe561_c092_4bdc_214a, 0xe561_c092_4bdc_214a),
    ("waxpby.hil", 0x8abc_5bf3_4df5_6ef2, 0x8abc_5bf3_4df5_6ef2),
];

#[test]
fn compiled_programs_match_pins() {
    let srcs = sources();
    let names: Vec<&str> = srcs.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = PINS.iter().map(|(n, ..)| *n).collect();
    assert_eq!(names, pinned, "the pinned source list changed");
    let mut wrong = Vec::new();
    let mut any_spill = false;
    for ((name, src), &(_, want_p4e, want_opteron)) in srcs.iter().zip(&PINS) {
        for (mach, want) in [(p4e(), want_p4e), (opteron(), want_opteron)] {
            let (got, spilled) = fingerprint(src, &mach);
            any_spill |= spilled;
            if got != want {
                wrong.push(format!("{name} on {}: {got:#018x}", mach.name));
            }
        }
    }
    assert!(
        any_spill,
        "no grid point spills: the allocator's spill path is unpinned"
    );
    assert!(
        wrong.is_empty(),
        "compiled programs moved:\n{}",
        wrong.join("\n")
    );
}
