//! Code generation: allocated [`LinearKernel`] → executable xsim program.
//!
//! Calling convention (shared by every code generator in this repo so the
//! comparisons are fair):
//!
//! * pointer and integer parameters arrive in `r0..r_{k-1}` in declaration
//!   order; pointers stay pinned there (bumped in place);
//! * an FP scalar parameter (alpha) arrives in `x7`;
//! * `r7` is the frame pointer when the kernel spills (the harness
//!   allocates `frame_bytes` and loads `r7` before the run);
//! * the FP result is delivered in `x0`, an integer result in `r0`, right
//!   before `Halt`.

use crate::ir::{self as ir, IOrImm, Op, RoM, Width};
use crate::regalloc::{Allocation, Phys, FPARAM_REG, FRAME_REG};
use crate::xform::LinearKernel;
use ifko_xsim::isa::{Addr, FReg, IReg, Inst, Prec, Program, RegOrMem};
use ifko_xsim::Asm;

/// A compiled kernel plus everything the harness needs to run it.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    pub name: String,
    pub prec: Prec,
    pub program: Program,
    /// Bytes of frame memory required for spills (0 = no frame needed).
    pub frame_bytes: u64,
    /// How to pass each argument, in declaration order.
    pub arg_convention: Vec<ArgSlot>,
    /// Where the result is delivered.
    pub ret: RetSlot,
}

/// Argument passing for the harness.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ArgSlot {
    /// Pointer argument in this integer register.
    PtrReg(u8),
    /// Integer argument in this integer register.
    IntReg(u8),
    /// FP scalar argument in this FP register (lane 0).
    FReg(u8),
}

/// Result location.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RetSlot {
    None,
    /// Lane 0 of x0.
    F0,
    /// r0.
    I0,
}

/// Codegen failure.
#[derive(Clone, Debug, PartialEq)]
pub struct CodegenError(pub String);

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for CodegenError {}

/// Reusable working set for [`codegen_with`]: dense label and pointer
/// register tables sized by the kernel's label/pointer id spaces.
#[derive(Default)]
pub struct CodegenScratch {
    labmap: Vec<Option<ifko_xsim::isa::Label>>,
    ptr_reg: Vec<Option<u8>>,
}

/// Generate machine code for an allocated linear kernel.
pub fn codegen(k: &LinearKernel, alloc: &Allocation) -> Result<CompiledKernel, CodegenError> {
    codegen_with(k, alloc, &mut CodegenScratch::default())
}

/// [`codegen`] with caller-provided scratch buffers.
pub fn codegen_with(
    k: &LinearKernel,
    alloc: &Allocation,
    sc: &mut CodegenScratch,
) -> Result<CompiledKernel, CodegenError> {
    let prec = k.prec;
    let eb = prec.bytes() as i64;
    let mut asm = Asm::new();

    // Map IR labels to asm labels lazily.
    sc.labmap.clear();
    sc.labmap.resize(k.n_labels as usize, None);
    let labmap = &mut sc.labmap;
    macro_rules! lbl {
        ($l:expr) => {{
            let id = $l;
            let slot = &mut labmap[id.0 as usize];
            match *slot {
                Some(al) => al,
                None => {
                    let al = asm.new_label();
                    *slot = Some(al);
                    al
                }
            }
        }};
    }

    // Physical register lookups.
    let ireg = |v: ir::V| -> Result<IReg, CodegenError> {
        match alloc.get(v) {
            Some(Phys::I(r)) => Ok(IReg(r)),
            other => Err(CodegenError(format!(
                "int vreg v{v} has no int register: {other:?}"
            ))),
        }
    };
    let freg = |v: ir::V| -> Result<FReg, CodegenError> {
        match alloc.get(v) {
            Some(Phys::F(r)) => Ok(FReg(r)),
            other => Err(CodegenError(format!(
                "fp vreg v{v} has no fp register: {other:?}"
            ))),
        }
    };

    // Argument convention + pointer register table. The actual parameter
    // materialization is in the op stream (`IParamMov`/`FParamMov`),
    // emitted by linearization so the allocator can spill params too.
    let mut arg_convention = Vec::new();
    sc.ptr_reg.clear();
    let ptr_reg = &mut sc.ptr_reg;
    let mut int_slot = 0u8;
    let mut fp_slot = FPARAM_REG;
    for p in &k.params {
        match p {
            ir::ParamSlot::Ptr(id) => {
                let idx = id.0 as usize;
                if ptr_reg.len() <= idx {
                    ptr_reg.resize(idx + 1, None);
                }
                ptr_reg[idx] = Some(int_slot);
                arg_convention.push(ArgSlot::PtrReg(int_slot));
                int_slot += 1;
            }
            ir::ParamSlot::Int { .. } => {
                arg_convention.push(ArgSlot::IntReg(int_slot));
                int_slot += 1;
            }
            ir::ParamSlot::FScalar { .. } => {
                arg_convention.push(ArgSlot::FReg(fp_slot));
                fp_slot -= 1;
            }
        }
    }

    let ptr_reg: &[Option<u8>] = ptr_reg;
    let lookup_ptr = |id: u32| ptr_reg.get(id as usize).copied().flatten();
    let addr = |mem: &ir::MemRef| -> Result<Addr, CodegenError> {
        let base = lookup_ptr(mem.ptr.0)
            .ok_or_else(|| CodegenError(format!("unknown pointer {:?}", mem.ptr)))?;
        Ok(Addr::base_disp(IReg(base), mem.off_elems * eb))
    };
    let frame_addr = |slot: u32| Addr::base_disp(IReg(FRAME_REG), slot as i64 * 16);

    let rom = |b: &RoM| -> Result<RegOrMem, CodegenError> {
        Ok(match b {
            RoM::Reg(v) => RegOrMem::Reg(freg(*v)?),
            RoM::Mem(m) => RegOrMem::Mem(addr(m)?),
        })
    };

    for op in &k.ops {
        match op {
            Op::FLd { dst, mem, w } => {
                let d = freg(*dst)?;
                let a = addr(mem)?;
                match w {
                    Width::S => asm.push(Inst::FLd(d, a, prec)),
                    Width::V => asm.push(Inst::VLd(d, a, prec, true)),
                };
            }
            Op::FSt { mem, src, w, nt } => {
                let s = freg(*src)?;
                let a = addr(mem)?;
                match (w, nt) {
                    (Width::S, false) => asm.push(Inst::FSt(a, s, prec)),
                    (Width::S, true) => asm.push(Inst::FStNt(a, s, prec)),
                    (Width::V, false) => asm.push(Inst::VSt(a, s, prec, true)),
                    (Width::V, true) => asm.push(Inst::VStNt(a, s, prec)),
                };
            }
            Op::FMov { dst, src, w } => {
                let (d, s) = (freg(*dst)?, freg(*src)?);
                if d != s {
                    match w {
                        Width::S => asm.push(Inst::FMov(d, s, prec)),
                        Width::V => asm.push(Inst::VMov(d, s)),
                    };
                }
            }
            Op::FConst { dst, val } => {
                asm.push(Inst::FLdImm(freg(*dst)?, *val, prec));
            }
            Op::FZero { dst, .. } => {
                asm.push(Inst::FZero(freg(*dst)?));
            }
            Op::FBin { op, dst, a, b, w } => {
                let d = freg(*dst)?;
                let ar = freg(*a)?;
                if d != ar {
                    return Err(CodegenError(format!(
                        "untied FBin (dst {d} != a {ar}) reached codegen"
                    )));
                }
                let b = rom(b)?;
                let inst = match (op, w) {
                    (ir::FOp::Add, Width::S) => Inst::FAdd(d, b, prec),
                    (ir::FOp::Sub, Width::S) => Inst::FSub(d, b, prec),
                    (ir::FOp::Mul, Width::S) => Inst::FMul(d, b, prec),
                    (ir::FOp::Div, Width::S) => Inst::FDiv(d, b, prec),
                    (ir::FOp::Max, Width::S) => Inst::FMax(d, b, prec),
                    (ir::FOp::Add, Width::V) => Inst::VAdd(d, b, prec),
                    (ir::FOp::Sub, Width::V) => Inst::VSub(d, b, prec),
                    (ir::FOp::Mul, Width::V) => Inst::VMul(d, b, prec),
                    (ir::FOp::Max, Width::V) => Inst::VMax(d, b, prec),
                    (ir::FOp::Div, Width::V) => {
                        return Err(CodegenError("vector division unsupported".into()))
                    }
                };
                asm.push(inst);
            }
            Op::FAbs { dst, src, w } => {
                let (d, s) = (freg(*dst)?, freg(*src)?);
                if d != s {
                    match w {
                        Width::S => asm.push(Inst::FMov(d, s, prec)),
                        Width::V => asm.push(Inst::VMov(d, s)),
                    };
                }
                match w {
                    Width::S => asm.push(Inst::FAbs(d, prec)),
                    Width::V => asm.push(Inst::VAbs(d, prec)),
                };
            }
            Op::FSqrt { dst, src } => {
                let (d, s) = (freg(*dst)?, freg(*src)?);
                if d != s {
                    asm.push(Inst::FMov(d, s, prec));
                }
                asm.push(Inst::FSqrt(d, prec));
            }
            Op::FBcast { dst, src } => {
                let (d, s) = (freg(*dst)?, freg(*src)?);
                asm.push(Inst::VBcast(d, s, prec));
            }
            Op::FHSum { dst, src } => {
                asm.push(Inst::VHSum(freg(*dst)?, freg(*src)?, prec));
            }
            Op::FHMax { dst, src } => {
                asm.push(Inst::VHMax(freg(*dst)?, freg(*src)?, prec));
            }
            Op::FCmp { a, b } => {
                asm.push(Inst::FCmp(freg(*a)?, rom(b)?, prec));
            }
            Op::IConst { dst, val } => {
                asm.push(Inst::IMovImm(ireg(*dst)?, *val));
            }
            Op::IMov { dst, src } => {
                let (d, s) = (ireg(*dst)?, ireg(*src)?);
                if d != s {
                    asm.push(Inst::IMov(d, s));
                }
            }
            Op::IBin { op, dst, a, b } => {
                let d = ireg(*dst)?;
                let ar = ireg(*a)?;
                if d != ar {
                    return Err(CodegenError("untied IBin reached codegen".into()));
                }
                match (op, b) {
                    (ir::IOp::Add, IOrImm::Imm(v)) => asm.push(Inst::IAddImm(d, *v)),
                    (ir::IOp::Add, IOrImm::Reg(r)) => asm.push(Inst::IAdd(d, ireg(*r)?)),
                    (ir::IOp::Sub, IOrImm::Imm(v)) => asm.push(Inst::ISubImm(d, *v)),
                    (ir::IOp::Sub, IOrImm::Reg(r)) => asm.push(Inst::ISub(d, ireg(*r)?)),
                    (ir::IOp::Div, IOrImm::Imm(v)) => asm.push(Inst::IDivImm(d, *v)),
                    (ir::IOp::Rem, IOrImm::Imm(v)) => asm.push(Inst::IRemImm(d, *v)),
                    (ir::IOp::Div | ir::IOp::Rem, IOrImm::Reg(_)) => {
                        return Err(CodegenError("div/rem by register unsupported".into()))
                    }
                };
            }
            Op::ICmp { a, b } => match b {
                IOrImm::Imm(v) => {
                    asm.push(Inst::ICmpImm(ireg(*a)?, *v));
                }
                IOrImm::Reg(r) => {
                    asm.push(Inst::ICmp(ireg(*a)?, ireg(*r)?));
                }
            },
            Op::IDecFlags(v) => {
                asm.push(Inst::IDec(ireg(*v)?));
            }
            Op::Label(l) => {
                let al = lbl!(*l);
                asm.bind(al);
            }
            Op::Br(l) => {
                let al = lbl!(*l);
                asm.push(Inst::Jmp(al));
            }
            Op::CondBr { cond, target } => {
                let al = lbl!(*target);
                asm.push(Inst::Jcc(*cond, al));
            }
            Op::Prefetch {
                ptr,
                dist_bytes,
                kind,
            } => {
                let base = lookup_ptr(ptr.0)
                    .ok_or_else(|| CodegenError(format!("unknown pointer {ptr:?}")))?;
                asm.push(Inst::Prefetch(
                    Addr::base_disp(IReg(base), *dist_bytes),
                    *kind,
                ));
            }
            Op::PtrBump { ptr, elems } => {
                let base = lookup_ptr(ptr.0)
                    .ok_or_else(|| CodegenError(format!("unknown pointer {ptr:?}")))?;
                asm.push(Inst::IAddImm(IReg(base), elems * eb));
            }
            Op::FSpillLd { dst, slot, w } => {
                let d = freg(*dst)?;
                match w {
                    Width::S => asm.push(Inst::FLd(d, frame_addr(*slot), prec)),
                    Width::V => asm.push(Inst::VLd(d, frame_addr(*slot), prec, true)),
                };
            }
            Op::FSpillSt { slot, src, w } => {
                let s = freg(*src)?;
                match w {
                    Width::S => asm.push(Inst::FSt(frame_addr(*slot), s, prec)),
                    Width::V => asm.push(Inst::VSt(frame_addr(*slot), s, prec, true)),
                };
            }
            Op::ISpillLd { dst, slot } => {
                asm.push(Inst::ILoad(ireg(*dst)?, frame_addr(*slot)));
            }
            Op::ISpillSt { slot, src } => {
                asm.push(Inst::IStore(frame_addr(*slot), ireg(*src)?));
            }
            Op::IParamMov { dst, arrival } => {
                let d = ireg(*dst)?;
                if d != IReg(*arrival) {
                    asm.push(Inst::IMov(d, IReg(*arrival)));
                }
            }
            Op::FParamMov { dst, arrival } => {
                let d = freg(*dst)?;
                if d != FReg(*arrival) {
                    asm.push(Inst::FMov(d, FReg(*arrival), prec));
                }
            }
        }
    }

    // Return value and halt.
    let ret = match k.ret {
        ir::RetVal::None => RetSlot::None,
        ir::RetVal::F(v) => {
            let s = freg(v)?;
            if s != FReg(0) {
                asm.push(Inst::FMov(FReg(0), s, prec));
            }
            RetSlot::F0
        }
        ir::RetVal::I(v) => {
            let s = ireg(v)?;
            if s != IReg(0) {
                asm.push(Inst::IMov(IReg(0), s));
            }
            RetSlot::I0
        }
    };
    asm.push(Inst::Halt);

    Ok(CompiledKernel {
        name: k.name.clone(),
        prec,
        program: asm.finish(),
        frame_bytes: alloc.frame_slots as u64 * 16,
        arg_convention,
        ret,
    })
}
