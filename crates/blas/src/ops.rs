//! The Level 1 BLAS operation catalog (the paper's Table 1).

pub use ifko_xsim::isa::Prec;

/// The surveyed operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BlasOp {
    Swap,
    Scal,
    Copy,
    Axpy,
    Dot,
    Asum,
    Iamax,
    /// Givens plane rotation (extension beyond the paper's surveyed set).
    Rot,
    /// Euclidean norm (extension; exercises the post-loop sqrt epilogue).
    Nrm2,
}

/// What a kernel returns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RetKind {
    None,
    Float,
    Index,
}

impl BlasOp {
    /// Operation name without precision prefix.
    pub fn base_name(self) -> &'static str {
        match self {
            BlasOp::Swap => "swap",
            BlasOp::Scal => "scal",
            BlasOp::Copy => "copy",
            BlasOp::Axpy => "axpy",
            BlasOp::Dot => "dot",
            BlasOp::Asum => "asum",
            BlasOp::Iamax => "amax",
            BlasOp::Rot => "rot",
            BlasOp::Nrm2 => "nrm2",
        }
    }

    /// BLAS API name with precision prefix; iamax puts the precision
    /// second (`isamax`/`idamax`), as the paper notes.
    pub fn api_name(self, prec: Prec) -> String {
        match self {
            BlasOp::Iamax => format!("i{}amax", prec.blas_char()),
            _ => format!("{}{}", prec.blas_char(), self.base_name()),
        }
    }

    /// Table 1 FLOP count used for MFLOPS (some routines do no FP
    /// arithmetic; the conventional values below are the paper's).
    pub fn flops(self, n: u64) -> u64 {
        match self {
            BlasOp::Swap | BlasOp::Scal | BlasOp::Copy => n,
            BlasOp::Axpy | BlasOp::Dot | BlasOp::Asum | BlasOp::Iamax | BlasOp::Nrm2 => 2 * n,
            BlasOp::Rot => 6 * n,
        }
    }

    /// Table 1 one-line loop summary.
    pub fn summary(self) -> &'static str {
        match self {
            BlasOp::Swap => "for (i=0; i < N; i++) {tmp=y[i]; y[i]=x[i]; x[i]=tmp}",
            BlasOp::Scal => "for (i=0; i < N; i++) y[i] *= alpha;",
            BlasOp::Copy => "for (i=0; i < N; i++) y[i] = x[i];",
            BlasOp::Axpy => "for (i=0; i < N; i++) y[i] += alpha * x[i];",
            BlasOp::Dot => "for (dot=0.0,i=0; i < N; i++) dot += y[i] * x[i];",
            BlasOp::Asum => "for (sum=0.0,i=0; i < N; i++) sum += fabs(x[i])",
            BlasOp::Iamax => "for (imax=0,maxval=fabs(x[0]), i=1; i<N; i++) if (fabs(x[i]) > maxval) { imax = i; maxval = fabs(x[i]); }",
            BlasOp::Rot => "for (i=0; i < N; i++) {t=c*x[i]+s*y[i]; y[i]=c*y[i]-s*x[i]; x[i]=t}",
            BlasOp::Nrm2 => "for (sum=0.0,i=0; i < N; i++) sum += x[i]*x[i]; return sqrt(sum)",
        }
    }

    /// Number of vector (pointer) arguments.
    pub fn n_vectors(self) -> usize {
        match self {
            BlasOp::Swap | BlasOp::Copy | BlasOp::Axpy | BlasOp::Dot | BlasOp::Rot => 2,
            BlasOp::Scal | BlasOp::Asum | BlasOp::Iamax | BlasOp::Nrm2 => 1,
        }
    }

    /// Which vectors are written (indices into the vector argument list).
    pub fn written_vectors(self) -> &'static [usize] {
        match self {
            BlasOp::Swap | BlasOp::Rot => &[0, 1],
            BlasOp::Scal => &[0],
            BlasOp::Copy => &[1],
            BlasOp::Axpy => &[1],
            BlasOp::Dot | BlasOp::Asum | BlasOp::Iamax | BlasOp::Nrm2 => &[],
        }
    }

    /// Which vectors are read.
    pub fn read_vectors(self) -> &'static [usize] {
        match self {
            BlasOp::Swap | BlasOp::Rot => &[0, 1],
            BlasOp::Scal => &[0],
            BlasOp::Copy => &[0],
            BlasOp::Axpy => &[0, 1],
            BlasOp::Dot => &[0, 1],
            BlasOp::Asum | BlasOp::Iamax | BlasOp::Nrm2 => &[0],
        }
    }

    /// Return kind.
    pub fn ret(self) -> RetKind {
        match self {
            BlasOp::Dot | BlasOp::Asum | BlasOp::Nrm2 => RetKind::Float,
            BlasOp::Iamax => RetKind::Index,
            _ => RetKind::None,
        }
    }
}

/// All surveyed ops in the paper's presentation order.
pub fn all_ops() -> [BlasOp; 7] {
    [
        BlasOp::Swap,
        BlasOp::Scal,
        BlasOp::Copy,
        BlasOp::Axpy,
        BlasOp::Dot,
        BlasOp::Asum,
        BlasOp::Iamax,
    ]
}

/// A (operation, precision) pair — one kernel of the study.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Kernel {
    pub op: BlasOp,
    pub prec: Prec,
}

impl Kernel {
    pub fn name(&self) -> String {
        self.op.api_name(self.prec)
    }
    /// The suite or extension kernel whose [`Kernel::name`] is `name`.
    pub fn by_name(name: &str) -> Option<Kernel> {
        ALL_KERNELS
            .iter()
            .chain(EXTENDED_KERNELS.iter())
            .find(|k| k.name() == name)
            .copied()
    }
    pub fn flops(&self, n: u64) -> u64 {
        self.op.flops(n)
    }
}

/// The four extension kernels.
pub const EXTENDED_KERNELS: [Kernel; 4] = [
    Kernel {
        op: BlasOp::Rot,
        prec: Prec::S,
    },
    Kernel {
        op: BlasOp::Rot,
        prec: Prec::D,
    },
    Kernel {
        op: BlasOp::Nrm2,
        prec: Prec::S,
    },
    Kernel {
        op: BlasOp::Nrm2,
        prec: Prec::D,
    },
];

/// The paper's 14 studied kernels (7 ops × {s,d}), in figure order
/// (s-precision first for each op, as in Figures 2-4).
pub const ALL_KERNELS: [Kernel; 14] = [
    Kernel {
        op: BlasOp::Swap,
        prec: Prec::S,
    },
    Kernel {
        op: BlasOp::Swap,
        prec: Prec::D,
    },
    Kernel {
        op: BlasOp::Scal,
        prec: Prec::S,
    },
    Kernel {
        op: BlasOp::Scal,
        prec: Prec::D,
    },
    Kernel {
        op: BlasOp::Copy,
        prec: Prec::S,
    },
    Kernel {
        op: BlasOp::Copy,
        prec: Prec::D,
    },
    Kernel {
        op: BlasOp::Axpy,
        prec: Prec::S,
    },
    Kernel {
        op: BlasOp::Axpy,
        prec: Prec::D,
    },
    Kernel {
        op: BlasOp::Dot,
        prec: Prec::S,
    },
    Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    },
    Kernel {
        op: BlasOp::Asum,
        prec: Prec::S,
    },
    Kernel {
        op: BlasOp::Asum,
        prec: Prec::D,
    },
    Kernel {
        op: BlasOp::Iamax,
        prec: Prec::S,
    },
    Kernel {
        op: BlasOp::Iamax,
        prec: Prec::D,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_names_match_paper_convention() {
        assert_eq!(BlasOp::Dot.api_name(Prec::D), "ddot");
        assert_eq!(BlasOp::Dot.api_name(Prec::S), "sdot");
        assert_eq!(BlasOp::Iamax.api_name(Prec::S), "isamax");
        assert_eq!(BlasOp::Iamax.api_name(Prec::D), "idamax");
        assert_eq!(BlasOp::Copy.api_name(Prec::D), "dcopy");
    }

    #[test]
    fn flops_match_table1() {
        for (op, f) in [
            (BlasOp::Swap, 10),
            (BlasOp::Scal, 10),
            (BlasOp::Copy, 10),
            (BlasOp::Axpy, 20),
            (BlasOp::Dot, 20),
            (BlasOp::Asum, 20),
            (BlasOp::Iamax, 20),
        ] {
            assert_eq!(op.flops(10), f, "{op:?}");
        }
    }

    #[test]
    fn shapes_consistent() {
        for op in all_ops() {
            assert!(op.n_vectors() >= 1);
            for &w in op.written_vectors() {
                assert!(w < op.n_vectors());
            }
            for &r in op.read_vectors() {
                assert!(r < op.n_vectors());
            }
            // Every vector is read or written.
            for v in 0..op.n_vectors() {
                assert!(
                    op.written_vectors().contains(&v) || op.read_vectors().contains(&v),
                    "{op:?} vector {v} unused"
                );
            }
        }
    }

    #[test]
    fn fourteen_kernels() {
        assert_eq!(ALL_KERNELS.len(), 14);
        let names: Vec<String> = ALL_KERNELS.iter().map(|k| k.name()).collect();
        assert!(names.contains(&"sswap".to_string()));
        assert!(names.contains(&"idamax".to_string()));
    }
}
