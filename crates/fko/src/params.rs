//! Empirically tuned transformation parameters (the optimization space).
//!
//! These are exactly the knobs the paper's search varies (Table 3): SIMD
//! vectorization, non-temporal writes, per-array prefetch instruction type
//! and distance, unrolling, and accumulator expansion — plus the
//! always-on-by-default switches for loop control optimization and the
//! repeatable transformations, exposed for ablation studies.

use crate::analysis::AnalysisReport;
use crate::ir::{PrefKind, PtrId};
use ifko_xsim::MachineConfig;

/// Prefetch setting for one array.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PrefSpec {
    pub ptr: PtrId,
    /// `None` disables prefetch for this array.
    pub kind: Option<PrefKind>,
    /// Distance ahead of the current iteration, in bytes.
    pub dist: i64,
}

/// The full transformation parameter set.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TransformParams {
    /// SV: SIMD vectorize the tuned loop (applied only when legal).
    pub simd: bool,
    /// UR: unroll factor (≥ 1; after SV the computational unrolling is
    /// `unroll × veclen`, as the paper notes).
    pub unroll: u32,
    /// AE: number of accumulators (1 = off).
    pub accum_expand: u32,
    /// WNT: use non-temporal writes on output arrays.
    pub wnt: bool,
    /// PF: per-array prefetch settings.
    pub prefetch: Vec<PrefSpec>,
    /// LC: optimize loop control (countdown + dec-and-branch).
    pub loop_control: bool,
    /// Repeatable-transform switches (on by default; ablation only).
    pub cisc_memops: bool,
    pub copy_prop: bool,
    pub dead_code_elim: bool,
    pub branch_cleanup: bool,
}

impl TransformParams {
    /// FKO's defaults, which seed the line search (§2.3): SV = Yes,
    /// WNT = No, PF = (prefetchnta, 2·L) for every candidate array,
    /// UR = Lₑ, AE = No.
    pub fn defaults(rep: &AnalysisReport, mach: &MachineConfig) -> Self {
        let line = mach.prefetch_line() as i64;
        TransformParams {
            simd: rep.vectorizable.is_ok(),
            unroll: (rep.arch.line_elems as u32).clamp(1, rep.max_unroll),
            accum_expand: 1,
            wnt: false,
            prefetch: rep
                .pf_candidates
                .iter()
                .map(|p| PrefSpec {
                    ptr: *p,
                    kind: Some(PrefKind::Nta),
                    dist: 2 * line,
                })
                .collect(),
            loop_control: true,
            cisc_memops: true,
            copy_prop: true,
            dead_code_elim: true,
            branch_cleanup: true,
        }
    }

    /// A fully-off parameter set (scalar, no unroll, no prefetch) — the
    /// "untransformed" reference point used by tests and ablations.
    pub fn off() -> Self {
        TransformParams {
            simd: false,
            unroll: 1,
            accum_expand: 1,
            wnt: false,
            prefetch: vec![],
            loop_control: true,
            cisc_memops: true,
            copy_prop: true,
            dead_code_elim: true,
            branch_cleanup: true,
        }
    }

    /// Table-3-style one-line summary, e.g.
    /// `Y:N nta:1024 none:0 8:4`.
    pub fn table3_row(&self, rep: &AnalysisReport) -> String {
        let sv = if self.simd { "Y" } else { "N" };
        let wnt = if self.wnt { "Y" } else { "N" };
        let mut pf_cols: Vec<String> = Vec::new();
        for p in &rep.pf_candidates {
            match self.prefetch.iter().find(|s| s.ptr == *p) {
                Some(PrefSpec {
                    kind: Some(k),
                    dist,
                    ..
                }) => pf_cols.push(format!("{}:{}", k.abbrev(), dist)),
                _ => pf_cols.push("none:0".to_string()),
            }
        }
        while pf_cols.len() < 2 {
            pf_cols.push("n/a:0".to_string());
        }
        format!(
            "{}:{} {} {} {}:{}",
            sv,
            wnt,
            pf_cols[0],
            pf_cols[1],
            self.unroll,
            if self.accum_expand > 1 {
                self.accum_expand
            } else {
                0
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::lower::lower;
    use ifko_hil::compile_frontend;
    use ifko_xsim::p4e;

    const DOT: &str = r#"
ROUTINE dot(X, Y, N);
PARAMS :: X = DOUBLE_PTR, Y = DOUBLE_PTR, N = INT;
SCALARS :: dot = DOUBLE:OUT, x = DOUBLE, y = DOUBLE;
ROUT_BEGIN
  dot = 0.0;
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    y = Y[0];
    dot += x * y;
    X += 1;
    Y += 1;
  LOOP_END
  RETURN dot;
ROUT_END
"#;

    #[test]
    fn paper_defaults() {
        let (r, info) = compile_frontend(DOT).unwrap();
        let k = lower(&r, &info).unwrap();
        let mach = p4e();
        let rep = analyze(&k, &mach);
        let d = TransformParams::defaults(&rep, &mach);
        assert!(d.simd, "SV defaults to yes when legal");
        assert!(!d.wnt, "WNT defaults to no");
        assert_eq!(d.unroll, 8, "UR defaults to L_e (8 doubles per line)");
        assert_eq!(d.accum_expand, 1, "AE defaults to off");
        assert_eq!(d.prefetch.len(), 2);
        for p in &d.prefetch {
            assert_eq!(p.kind, Some(PrefKind::Nta));
            assert_eq!(p.dist, 128, "PF distance defaults to 2*L");
        }
    }

    #[test]
    fn table3_row_format() {
        let (r, info) = compile_frontend(DOT).unwrap();
        let k = lower(&r, &info).unwrap();
        let mach = p4e();
        let rep = analyze(&k, &mach);
        let d = TransformParams::defaults(&rep, &mach);
        let row = d.table3_row(&rep);
        assert!(row.starts_with("Y:N nta:128 nta:128 8:0"), "{row}");
    }
}
