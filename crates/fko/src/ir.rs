//! FKO's intermediate representation.
//!
//! A kernel is `pre` straight-line code, one optimizable loop (the paper's
//! L1 BLAS shape — the loop flagged by `!! TUNE LOOP`), and `post`
//! straight-line code. The loop body is a linear op list that may contain
//! intra-body control flow (labels/branches, e.g. the paper's `amax` loop)
//! plus *cold* out-of-line blocks reachable from the body (the `NEWMAX`
//! block) that are emitted after the loop and branch back into it.
//!
//! Ops are three-address over virtual registers; code generation lowers to
//! the two-address x86-like target, and register allocation maps virtual
//! registers onto the eight architectural registers of each class.
//! Pointer bumps are held out of the body (`bumps`) and applied once per
//! iteration at the latch — the paper's "avoiding repetitive index and
//! pointer updates" during unrolling.

pub use ifko_xsim::isa::{Cond, Prec, PrefKind};

/// A virtual register id. Class is tracked in [`KernelIr::vregs`].
pub type V = u32;

/// Virtual register class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VClass {
    /// Integer (pointer, counter, index).
    Int,
    /// Floating-point scalar.
    F,
    /// SIMD vector of the kernel precision.
    Vec,
}

/// Operation width: scalar or SIMD vector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    S,
    V,
}

/// Identifies a pointer parameter (index into [`KernelIr::ptrs`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PtrId(pub u32);

/// A memory reference: `[ptr + off_elems * elem_bytes]`. The element size
/// is the kernel precision; vector accesses read/write 16 bytes starting
/// at that element.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    pub ptr: PtrId,
    pub off_elems: i64,
}

/// FP right-hand operand: register or memory (the x86 CISC form produced
/// by the mem-operand fusion peephole).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RoM {
    Reg(V),
    Mem(MemRef),
}

/// FP arithmetic ops.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FOp {
    Add,
    Sub,
    Mul,
    Div,
    Max,
}

/// Integer arithmetic ops.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IOp {
    Add,
    Sub,
    /// Division by a constant (trip-count computation only).
    Div,
    /// Remainder by a constant.
    Rem,
}

/// Integer RHS: register or immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IOrImm {
    Reg(V),
    Imm(i64),
}

/// Label id, scoped to one kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LabelId(pub u32);

/// One IR operation.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    // ---- floating point ----
    FLd {
        dst: V,
        mem: MemRef,
        w: Width,
    },
    FSt {
        mem: MemRef,
        src: V,
        w: Width,
        nt: bool,
    },
    FMov {
        dst: V,
        src: V,
        w: Width,
    },
    /// Load an FP constant into a scalar register.
    FConst {
        dst: V,
        val: f64,
    },
    FZero {
        dst: V,
        w: Width,
    },
    /// `dst = a op b` (three-address).
    FBin {
        op: FOp,
        dst: V,
        a: V,
        b: RoM,
        w: Width,
    },
    FAbs {
        dst: V,
        src: V,
        w: Width,
    },
    /// Scalar square root (`sqrtss`/`sqrtsd`) — post-loop epilogues (nrm2).
    FSqrt {
        dst: V,
        src: V,
    },
    /// Broadcast scalar `src` into vector `dst`.
    FBcast {
        dst: V,
        src: V,
    },
    /// Horizontal sum of vector `src` into scalar `dst`.
    FHSum {
        dst: V,
        src: V,
    },
    /// Horizontal max of vector `src` into scalar `dst`.
    FHMax {
        dst: V,
        src: V,
    },
    /// Compare scalar `a` with `b`, setting flags.
    FCmp {
        a: V,
        b: RoM,
    },

    // ---- integer ----
    IConst {
        dst: V,
        val: i64,
    },
    IMov {
        dst: V,
        src: V,
    },
    IBin {
        op: IOp,
        dst: V,
        a: V,
        b: IOrImm,
    },
    ICmp {
        a: V,
        b: IOrImm,
    },
    /// `dst -= 1` setting flags — the loop-control-optimized latch form
    /// (LC transform), mapping to the target's `dec`.
    IDecFlags(V),

    // ---- control ----
    Label(LabelId),
    Br(LabelId),
    CondBr {
        cond: Cond,
        target: LabelId,
    },

    // ---- hints ----
    Prefetch {
        ptr: PtrId,
        dist_bytes: i64,
        kind: PrefKind,
    },

    // ---- spill code (inserted by register allocation) ----
    /// Reload from frame slot (16-byte slots off the frame pointer).
    FSpillLd {
        dst: V,
        slot: u32,
        w: Width,
    },
    FSpillSt {
        slot: u32,
        src: V,
        w: Width,
    },
    ISpillLd {
        dst: V,
        slot: u32,
    },
    ISpillSt {
        slot: u32,
        src: V,
    },

    // ---- latch pseudo (linearized stage) ----
    PtrBump {
        ptr: PtrId,
        elems: i64,
    },

    // ---- parameter materialization (prepended at linearization) ----
    /// Copy an integer argument from its arrival register into `dst`.
    IParamMov {
        dst: V,
        arrival: u8,
    },
    /// Copy an FP scalar argument from its arrival register into `dst`.
    FParamMov {
        dst: V,
        arrival: u8,
    },
}

impl Op {
    /// Visit every vreg read by this op, in operand order, without
    /// allocating (address registers are implicit via MemRef/PtrId, which
    /// are not vregs). Every pass from xform to codegen walks uses this
    /// way, so a compile costs no allocation per op.
    #[inline]
    pub fn for_each_use(&self, f: &mut impl FnMut(V)) {
        use Op::*;
        match self {
            FLd { .. }
            | FConst { .. }
            | FZero { .. }
            | IConst { .. }
            | Label(_)
            | Br(_)
            | CondBr { .. }
            | Prefetch { .. }
            | PtrBump { .. } => {}
            FSt { src, .. } => f(*src),
            IDecFlags(v) => f(*v),
            FSpillLd { .. } | ISpillLd { .. } | IParamMov { .. } | FParamMov { .. } => {}
            FSpillSt { src, .. } | ISpillSt { src, .. } => f(*src),
            FMov { src, .. }
            | FAbs { src, .. }
            | FSqrt { src, .. }
            | FBcast { src, .. }
            | FHSum { src, .. }
            | FHMax { src, .. } => f(*src),
            FBin { a, b, .. } => {
                f(*a);
                if let RoM::Reg(r) = b {
                    f(*r);
                }
            }
            FCmp { a, b } => {
                f(*a);
                if let RoM::Reg(r) = b {
                    f(*r);
                }
            }
            IMov { src, .. } => f(*src),
            IBin { a, b, .. } => {
                f(*a);
                if let IOrImm::Reg(r) = b {
                    f(*r);
                }
            }
            ICmp { a, b } => {
                f(*a);
                if let IOrImm::Reg(r) = b {
                    f(*r);
                }
            }
        }
    }

    /// Whether this op reads `v`.
    #[inline]
    pub fn reads(&self, v: V) -> bool {
        let mut found = false;
        self.for_each_use(&mut |u| found |= u == v);
        found
    }

    /// Virtual register written by this op.
    pub fn def(&self) -> Option<V> {
        use Op::*;
        match self {
            FLd { dst, .. }
            | FMov { dst, .. }
            | FConst { dst, .. }
            | FZero { dst, .. }
            | FBin { dst, .. }
            | FAbs { dst, .. }
            | FSqrt { dst, .. }
            | FBcast { dst, .. }
            | FHSum { dst, .. }
            | FHMax { dst, .. }
            | IConst { dst, .. }
            | IMov { dst, .. }
            | IBin { dst, .. } => Some(*dst),
            IDecFlags(v) => Some(*v),
            FSpillLd { dst, .. }
            | ISpillLd { dst, .. }
            | IParamMov { dst, .. }
            | FParamMov { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Substitute virtual register uses via `f` (defs untouched).
    pub fn map_uses(&mut self, f: &mut impl FnMut(V) -> V) {
        use Op::*;
        match self {
            FSt { src, .. }
            | FMov { src, .. }
            | FAbs { src, .. }
            | FSqrt { src, .. }
            | FBcast { src, .. }
            | FHSum { src, .. }
            | FHMax { src, .. }
            | IMov { src, .. } => *src = f(*src),
            FBin { a, b, .. } => {
                *a = f(*a);
                if let RoM::Reg(r) = b {
                    *r = f(*r);
                }
            }
            FCmp { a, b } => {
                *a = f(*a);
                if let RoM::Reg(r) = b {
                    *r = f(*r);
                }
            }
            IBin { a, b, .. } => {
                *a = f(*a);
                if let IOrImm::Reg(r) = b {
                    *r = f(*r);
                }
            }
            ICmp { a, b } => {
                *a = f(*a);
                if let IOrImm::Reg(r) = b {
                    *r = f(*r);
                }
            }
            IDecFlags(v) => *v = f(*v),
            FSpillSt { src, .. } | ISpillSt { src, .. } => *src = f(*src),
            _ => {}
        }
    }

    /// Substitute the def register.
    pub fn map_def(&mut self, f: &mut impl FnMut(V) -> V) {
        use Op::*;
        match self {
            FLd { dst, .. }
            | FMov { dst, .. }
            | FConst { dst, .. }
            | FZero { dst, .. }
            | FBin { dst, .. }
            | FAbs { dst, .. }
            | FSqrt { dst, .. }
            | FBcast { dst, .. }
            | FHSum { dst, .. }
            | FHMax { dst, .. }
            | IConst { dst, .. }
            | IMov { dst, .. }
            | IBin { dst, .. } => *dst = f(*dst),
            IDecFlags(v) => *v = f(*v),
            FSpillLd { dst, .. }
            | ISpillLd { dst, .. }
            | IParamMov { dst, .. }
            | FParamMov { dst, .. } => *dst = f(*dst),
            _ => {}
        }
    }

    /// The memory reference, if any (for offset rewriting during unroll).
    pub fn mem_mut(&mut self) -> Option<&mut MemRef> {
        use Op::*;
        match self {
            FLd { mem, .. } | FSt { mem, .. } => Some(mem),
            FBin { b: RoM::Mem(m), .. } | FCmp { b: RoM::Mem(m), .. } => Some(m),
            _ => None,
        }
    }
}

/// How the loop counts.
#[derive(Clone, PartialEq, Debug)]
pub enum Counter {
    /// Counter invisible to the body: an internal register counts the trip
    /// count down to zero (loop-control-optimized form).
    Hidden { trips: V },
    /// The body reads the induction variable `ivar`; `down: true` means it
    /// runs `N..1` stepping −1 (the paper's `LOOP i = N, 0, -1`), else
    /// `0..N-1` stepping +1.
    Visible { ivar: V, n: V, down: bool },
}

/// The optimizable loop.
#[derive(Clone, PartialEq, Debug)]
pub struct LoopIr {
    pub counter: Counter,
    /// Hot body (one original iteration before unrolling).
    pub body: Vec<Op>,
    /// Cold out-of-line blocks branched to from the body; each ends with a
    /// branch back into the body (or falls through to its own `Br`).
    pub cold: Vec<Op>,
    /// Pointer advances per original iteration, applied at the latch.
    pub bumps: Vec<(PtrId, i64)>,
    /// Elements consumed per original iteration (1 before vectorization).
    pub elems_per_iter: u64,
    /// Transformation state.
    pub vectorized: bool,
    pub unroll: u32,
}

/// A pointer parameter.
#[derive(Clone, PartialEq, Debug)]
pub struct PtrInfo {
    pub name: String,
    pub written: bool,
    pub read: bool,
    /// Excluded from prefetching by `!! NOPREFETCH` mark-up.
    pub no_prefetch: bool,
}

/// How each routine parameter arrives (calling convention order).
#[derive(Clone, PartialEq, Debug)]
pub enum ParamSlot {
    /// Pointer parameter: arrives in the k-th integer register.
    Ptr(PtrId),
    /// Integer parameter (e.g. N): k-th integer register.
    Int { vreg: V },
    /// FP scalar parameter (e.g. alpha): arrives in FReg(7).
    FScalar { vreg: V },
}

/// Return value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RetVal {
    None,
    /// FP scalar result, delivered in FReg(0) at halt.
    F(V),
    /// Integer result, delivered in IReg(0) at halt.
    I(V),
}

/// A whole kernel in IR form.
#[derive(Clone, PartialEq, Debug)]
pub struct KernelIr {
    pub name: String,
    pub prec: Prec,
    pub ptrs: Vec<PtrInfo>,
    pub params: Vec<ParamSlot>,
    /// Class of every virtual register.
    pub vregs: Vec<VClass>,
    pub pre: Vec<Op>,
    pub loop_: Option<LoopIr>,
    pub post: Vec<Op>,
    pub ret: RetVal,
    pub n_labels: u32,
    /// HIL source line of the declaration each vreg was born from
    /// (0 = unknown / compiler temporary). Parallel to `vregs`.
    pub vreg_lines: Vec<u32>,
    /// HIL source line of the tuned `LOOP` header (0 = unknown).
    pub loop_line: u32,
}

impl KernelIr {
    /// Allocate a fresh virtual register.
    pub fn new_vreg(&mut self, class: VClass) -> V {
        self.vregs.push(class);
        self.vreg_lines.push(0);
        (self.vregs.len() - 1) as V
    }
    /// Record the HIL source line a vreg originated from.
    pub fn set_vreg_line(&mut self, v: V, line: u32) {
        self.vreg_lines[v as usize] = line;
    }
    /// HIL source line for a vreg (0 = unknown).
    pub fn vreg_line(&self, v: V) -> u32 {
        self.vreg_lines.get(v as usize).copied().unwrap_or(0)
    }
    /// Allocate a fresh label.
    pub fn new_label(&mut self) -> LabelId {
        self.n_labels += 1;
        LabelId(self.n_labels - 1)
    }
    pub fn class(&self, v: V) -> VClass {
        self.vregs[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uses(op: &Op) -> Vec<V> {
        let mut out = Vec::new();
        op.for_each_use(&mut |v| out.push(v));
        out
    }

    #[test]
    fn def_use_classification() {
        let op = Op::FBin {
            op: FOp::Add,
            dst: 3,
            a: 1,
            b: RoM::Reg(2),
            w: Width::S,
        };
        assert_eq!(op.def(), Some(3));
        assert_eq!(uses(&op), vec![1, 2]);

        let st = Op::FSt {
            mem: MemRef {
                ptr: PtrId(0),
                off_elems: 0,
            },
            src: 5,
            w: Width::S,
            nt: false,
        };
        assert_eq!(st.def(), None);
        assert_eq!(uses(&st), vec![5]);

        let mem_bin = Op::FBin {
            op: FOp::Mul,
            dst: 2,
            a: 2,
            b: RoM::Mem(MemRef {
                ptr: PtrId(1),
                off_elems: 4,
            }),
            w: Width::V,
        };
        assert_eq!(uses(&mem_bin), vec![2]);
    }

    #[test]
    fn map_uses_rewrites_only_reads() {
        let mut op = Op::FBin {
            op: FOp::Add,
            dst: 3,
            a: 1,
            b: RoM::Reg(2),
            w: Width::S,
        };
        op.map_uses(&mut |v| v + 10);
        match op {
            Op::FBin {
                dst,
                a,
                b: RoM::Reg(r),
                ..
            } => {
                assert_eq!(dst, 3);
                assert_eq!(a, 11);
                assert_eq!(r, 12);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn vreg_and_label_allocation() {
        let mut k = KernelIr {
            name: "t".into(),
            prec: Prec::D,
            ptrs: vec![],
            params: vec![],
            vregs: vec![],
            pre: vec![],
            loop_: None,
            post: vec![],
            ret: RetVal::None,
            n_labels: 0,
            vreg_lines: vec![],
            loop_line: 0,
        };
        let a = k.new_vreg(VClass::Int);
        let b = k.new_vreg(VClass::F);
        assert_eq!((a, b), (0, 1));
        assert_eq!(k.class(b), VClass::F);
        let l0 = k.new_label();
        let l1 = k.new_label();
        assert_ne!(l0, l1);
    }

    #[test]
    fn mem_mut_reaches_mem_operands() {
        let mut op = Op::FBin {
            op: FOp::Mul,
            dst: 0,
            a: 0,
            b: RoM::Mem(MemRef {
                ptr: PtrId(0),
                off_elems: 1,
            }),
            w: Width::S,
        };
        op.mem_mut().unwrap().off_elems = 9;
        match op {
            Op::FBin { b: RoM::Mem(m), .. } => assert_eq!(m.off_elems, 9),
            _ => panic!(),
        }
    }
}
