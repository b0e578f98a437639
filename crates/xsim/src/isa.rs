//! Instruction set of the simulated machine.
//!
//! The ISA is deliberately shaped like 32-bit x86 + SSE2/SSE3 as seen by the
//! paper's FKO backend: two-operand arithmetic where the right-hand source
//! may be a memory operand (the CISC feature the paper's peephole pass
//! exploits), eight architectural integer registers, eight 16-byte vector
//! registers, explicit software prefetch instructions and non-temporal
//! stores. It is *not* binary-compatible x86; it is the minimal orthogonal
//! core needed to express every code shape the paper's compiler and the
//! hand-tuned ATLAS kernels generate.

use std::fmt;

/// Number of architectural integer registers (x86-32 has 8; one is the
/// stack pointer in practice, so compilers see ~7 usable).
pub const NUM_IREGS: usize = 8;
/// Number of architectural FP/vector registers (xmm0..xmm7 on x86-32).
pub const NUM_FREGS: usize = 8;

/// An integer register (`r0`..`r7`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IReg(pub u8);

/// An FP/vector register (`x0`..`x7`), 16 bytes wide. Scalar operations use
/// lane 0; vector operations use all lanes for the given precision.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FReg(pub u8);

impl fmt::Debug for IReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl fmt::Display for IReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl fmt::Debug for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}
impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Floating-point precision: single (`f32`) or double (`f64`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Prec {
    /// Single precision (`f32`): 4 bytes, SIMD vector length 4.
    S,
    /// Double precision (`f64`): 8 bytes, SIMD vector length 2.
    D,
}

impl Prec {
    /// Bytes per scalar element.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Prec::S => 4,
            Prec::D => 8,
        }
    }
    /// SIMD vector length (elements per 16-byte register).
    #[inline]
    pub fn veclen(self) -> u64 {
        match self {
            Prec::S => 4,
            Prec::D => 2,
        }
    }
    /// One-letter BLAS prefix (`s` / `d`).
    pub fn blas_char(self) -> char {
        match self {
            Prec::S => 's',
            Prec::D => 'd',
        }
    }
}

/// A memory address: `base + index*scale + disp`, like an x86 effective
/// address. `index` is optional; `scale` is 1, 2, 4 or 8.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Addr {
    pub base: IReg,
    pub index: Option<(IReg, u8)>,
    pub disp: i64,
}

impl Addr {
    /// `[base]`
    pub fn base(base: IReg) -> Self {
        Addr {
            base,
            index: None,
            disp: 0,
        }
    }
    /// `[base + disp]`
    pub fn base_disp(base: IReg, disp: i64) -> Self {
        Addr {
            base,
            index: None,
            disp,
        }
    }
    /// `[base + index*scale + disp]`
    pub fn base_index(base: IReg, index: IReg, scale: u8, disp: i64) -> Self {
        debug_assert!(matches!(scale, 1 | 2 | 4 | 8));
        Addr {
            base,
            index: Some((index, scale)),
            disp,
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}", self.base)?;
        if let Some((idx, sc)) = self.index {
            write!(f, "+{}*{}", idx, sc)?;
        }
        if self.disp != 0 {
            write!(f, "{:+}", self.disp)?;
        }
        write!(f, "]")
    }
}

/// Right-hand source of a two-operand FP/vector arithmetic instruction:
/// either a register or a memory operand (the x86 CISC form the paper's
/// peephole optimization produces, e.g. `addsd (%eax), %xmm0`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RegOrMem {
    Reg(FReg),
    Mem(Addr),
}

impl fmt::Display for RegOrMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegOrMem::Reg(r) => write!(f, "{}", r),
            RegOrMem::Mem(a) => write!(f, "{}", a),
        }
    }
}

/// Branch conditions over the (signed) flags set by `ICmp*`, `IDec`,
/// `ITest` and `FCmp`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cond {
    /// Evaluate the condition against a three-way comparison result
    /// (`ord < 0` means "left < right").
    #[inline]
    pub fn eval(self, ord: i32) -> bool {
        match self {
            Cond::Eq => ord == 0,
            Cond::Ne => ord != 0,
            Cond::Lt => ord < 0,
            Cond::Le => ord <= 0,
            Cond::Gt => ord > 0,
            Cond::Ge => ord >= 0,
        }
    }
}

/// Software prefetch flavours available on the simulated machines,
/// matching the paper's Table 3 abbreviations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PrefKind {
    /// `prefetcht0`: temporal prefetch into L1 (and L2).
    T0,
    /// `prefetcht1`: temporal prefetch into L2 only.
    T1,
    /// `prefetcht2`: like T1 on two-level machines.
    T2,
    /// `prefetchnta`: non-temporal prefetch into the cache level nearest the
    /// CPU without polluting outer levels.
    Nta,
    /// 3DNow! `prefetchw`: prefetch with intent to write (line arrives in
    /// modified state, so the later store needs no read-for-ownership).
    W,
}

impl PrefKind {
    /// Table-3 style abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            PrefKind::T0 => "t0",
            PrefKind::T1 => "t1",
            PrefKind::T2 => "t2",
            PrefKind::Nta => "nta",
            PrefKind::W => "w",
        }
    }
}

/// Label used by branches; resolved to an instruction index at assembly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Label(pub u32);

/// A machine instruction.
///
/// Two-operand arithmetic follows the x86 convention `dst = dst op src`.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    // ---- integer ----
    /// `dst = imm`
    IMovImm(IReg, i64),
    /// `dst = src`
    IMov(IReg, IReg),
    /// `dst += src`
    IAdd(IReg, IReg),
    /// `dst += imm`
    IAddImm(IReg, i64),
    /// `dst -= src`
    ISub(IReg, IReg),
    /// `dst -= imm`
    ISubImm(IReg, i64),
    /// `dst <<= imm`
    IShlImm(IReg, u8),
    /// `dst /= imm` (signed; used for trip-count computation)
    IDivImm(IReg, i64),
    /// `dst %= imm`
    IRemImm(IReg, i64),
    /// `dst = effective address` (x86 `lea`)
    Lea(IReg, Addr),
    /// compare `a ? b`, set flags
    ICmp(IReg, IReg),
    /// compare `a ? imm`, set flags
    ICmpImm(IReg, i64),
    /// `dst -= 1`, set flags (models `dec` / `sub $1` loop control)
    IDec(IReg),
    /// integer load (8 bytes)
    ILoad(IReg, Addr),
    /// integer store (8 bytes)
    IStore(Addr, IReg),

    // ---- control flow ----
    /// unconditional jump
    Jmp(Label),
    /// conditional jump on integer/FP flags
    Jcc(Cond, Label),
    /// stop execution
    Halt,

    // ---- FP scalar (lane 0) ----
    /// scalar load into lane 0 (`movss`/`movsd`)
    FLd(FReg, Addr, Prec),
    /// scalar store from lane 0
    FSt(Addr, FReg, Prec),
    /// scalar non-temporal store from lane 0 (models `movnti`-style streaming)
    FStNt(Addr, FReg, Prec),
    /// `dst = src` (register move)
    FMov(FReg, FReg, Prec),
    /// load immediate into lane 0 (stands in for a PC-relative constant load)
    FLdImm(FReg, f64, Prec),
    /// zero the whole register (`xorps x,x`)
    FZero(FReg),
    /// `dst += src`
    FAdd(FReg, RegOrMem, Prec),
    /// `dst -= src`
    FSub(FReg, RegOrMem, Prec),
    /// `dst *= src`
    FMul(FReg, RegOrMem, Prec),
    /// `dst /= src`
    FDiv(FReg, RegOrMem, Prec),
    /// `dst = |dst|` (models `andps` with a sign mask)
    FAbs(FReg, Prec),
    /// `dst = sqrt(dst)` (`sqrtss`/`sqrtsd`)
    FSqrt(FReg, Prec),
    /// `dst = max(dst, src)`
    FMax(FReg, RegOrMem, Prec),
    /// compare lane 0 of `a` with `b`, set flags (`comiss`/`comisd`)
    FCmp(FReg, RegOrMem, Prec),

    // ---- vector (all lanes) ----
    /// aligned vector load (`movaps`); `aligned=false` is `movups` (slower)
    VLd(FReg, Addr, Prec, bool),
    /// aligned vector store
    VSt(Addr, FReg, Prec, bool),
    /// non-temporal vector store (`movntps`/`movntpd`)
    VStNt(Addr, FReg, Prec),
    /// `dst = src` whole register
    VMov(FReg, FReg),
    /// broadcast lane 0 of `src` to all lanes of `dst` (`shufps`/`movddup`)
    VBcast(FReg, FReg, Prec),
    /// `dst += src` lanewise
    VAdd(FReg, RegOrMem, Prec),
    /// `dst -= src` lanewise
    VSub(FReg, RegOrMem, Prec),
    /// `dst *= src` lanewise
    VMul(FReg, RegOrMem, Prec),
    /// `dst = |dst|` lanewise
    VAbs(FReg, Prec),
    /// `dst = max(dst, src)` lanewise
    VMax(FReg, RegOrMem, Prec),
    /// lanewise `dst = (dst > src) ? all-ones : 0` (`cmpps`)
    VCmpGt(FReg, RegOrMem, Prec),
    /// move sign-bit mask of each lane into an integer register and set
    /// flags from the result (`movmskps` + `test`)
    VMovMsk(IReg, FReg, Prec),
    /// horizontal reduction of all lanes of `src` into lane 0 of `dst`
    /// (models the `haddps`/shuffle epilogue after a vectorized reduction)
    VHSum(FReg, FReg, Prec),
    /// horizontal max of all lanes of `src` into lane 0 of `dst`
    VHMax(FReg, FReg, Prec),

    // ---- memory hints ----
    /// software prefetch of the line containing the address; silently
    /// dropped by the hardware when the memory bus is busy
    Prefetch(Addr, PrefKind),
}

/// An assembled program: a flat instruction sequence plus resolved label
/// targets (`labels[l]` is the instruction index label `l` points to).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    pub insts: Vec<Inst>,
    pub labels: Vec<usize>,
}

impl Program {
    /// Instruction count (static size of the program).
    pub fn len(&self) -> usize {
        self.insts.len()
    }
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
    /// Resolve a label to its instruction index.
    #[inline]
    pub fn target(&self, l: Label) -> usize {
        self.labels[l.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prec_properties() {
        assert_eq!(Prec::S.bytes(), 4);
        assert_eq!(Prec::D.bytes(), 8);
        assert_eq!(Prec::S.veclen(), 4);
        assert_eq!(Prec::D.veclen(), 2);
        assert_eq!(Prec::S.bytes() * Prec::S.veclen(), 16);
        assert_eq!(Prec::D.bytes() * Prec::D.veclen(), 16);
        assert_eq!(Prec::S.blas_char(), 's');
        assert_eq!(Prec::D.blas_char(), 'd');
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(0));
        assert!(!Cond::Eq.eval(1));
        assert!(Cond::Ne.eval(-1));
        assert!(Cond::Lt.eval(-1));
        assert!(!Cond::Lt.eval(0));
        assert!(Cond::Le.eval(0));
        assert!(Cond::Gt.eval(2));
        assert!(Cond::Ge.eval(0));
        assert!(!Cond::Ge.eval(-3));
    }

    #[test]
    fn addr_display() {
        let a = Addr::base_index(IReg(1), IReg(2), 8, -16);
        assert_eq!(a.to_string(), "[r1+r2*8-16]");
        let b = Addr::base(IReg(0));
        assert_eq!(b.to_string(), "[r0]");
    }

    #[test]
    fn prefkind_abbrevs_match_paper_table3() {
        assert_eq!(PrefKind::Nta.abbrev(), "nta");
        assert_eq!(PrefKind::T0.abbrev(), "t0");
        assert_eq!(PrefKind::W.abbrev(), "w");
    }
}
