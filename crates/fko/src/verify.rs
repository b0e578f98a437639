//! IR verifier: machine-checked invariants between pipeline stages.
//!
//! Each stage of `compile_ir` (`xform → opt → regalloc → codegen`) must
//! preserve a set of structural invariants; a transform bug otherwise
//! surfaces only as a wrong number from the simulator or a silent mistune.
//! [`verify_stage`] checks the linear IR after a stage and returns
//! structured [`Diagnostic`]s with stable codes:
//!
//! | code | invariant |
//! |------|-----------|
//! | V100 | every use dominated by a def (definite assignment)            |
//! | V101 | vreg class consistency (`VClass` vs operand kind and width)   |
//! | V102 | branch targets resolve to labels                              |
//! | V103 | no duplicate labels                                           |
//! | V104 | cold blocks re-enter the body via an explicit branch          |
//! | V105 | pointer bumps consistent with the unroll/vector factor        |
//! | V107 | two-address ops stay tied (`dst == a`)                        |
//! | V108 | post-regalloc: every vreg mapped, class-correct               |
//! | V109 | post-regalloc: no overlapping live ranges share a register    |
//! | V110 | post-regalloc: at most 8 registers per class live             |
//! | V111 | post-regalloc: physical register indices in range             |
//! | V112 | pointer ids resolve to declared pointers                      |
//! | V113 | post-codegen: the program terminates with `Halt`              |
//! | V114 | post-codegen: jump targets resolve inside the program         |
//! | V115 | post-codegen: frame bytes match the allocator's spill slots   |
//!
//! The same analyses power [`precheck`], the search-side legality filter
//! that rejects doomed candidates *before* the compile/simulate expense.

use crate::analysis::AnalysisReport;
use crate::dataflow;
use crate::diag::Diagnostic;
use crate::ir::*;
use crate::params::TransformParams;
use crate::regalloc::{Allocation, Phys};
use crate::xform::LinearKernel;

/// Registers per architectural class (the paper's 8 + 8 x86-like target).
pub const REGS_PER_CLASS: usize = 8;

fn wclass(w: Width) -> VClass {
    match w {
        Width::S => VClass::F,
        Width::V => VClass::Vec,
    }
}

fn class_name(c: VClass) -> &'static str {
    match c {
        VClass::Int => "Int",
        VClass::F => "F",
        VClass::Vec => "Vec",
    }
}

/// Verify the linear IR after `stage`. `orig` is the pre-transform kernel
/// (for pointer-bump expectations), `alloc` the register assignment when
/// the stage runs post-regalloc. Returns every violated invariant; an
/// empty vector means the IR is well-formed.
pub fn verify_stage(
    stage: &'static str,
    lin: &LinearKernel,
    orig: &KernelIr,
    params: &TransformParams,
    rep: &AnalysisReport,
    alloc: Option<&Allocation>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_ptrs(stage, lin, &mut diags);
    check_classes(stage, lin, orig, &mut diags);
    let labels_ok = check_labels(stage, lin, &mut diags);
    check_tied(stage, lin, &mut diags);
    if labels_ok {
        let cfg = dataflow::build_cfg(&lin.ops);
        check_defined(stage, lin, &cfg, &mut diags);
        check_cold_blocks(stage, lin, &mut diags);
        check_bumps(stage, lin, orig, params, rep, &mut diags);
        if let Some(alloc) = alloc {
            check_alloc(stage, lin, &cfg, alloc, &mut diags);
        }
    }
    diags
}

/// V112: every PtrId indexes a declared pointer.
fn check_ptrs(stage: &'static str, lin: &LinearKernel, diags: &mut Vec<Diagnostic>) {
    let n = lin.ptrs.len() as u32;
    for (i, op) in lin.ops.iter().enumerate() {
        let ptr = match op {
            Op::FLd { mem, .. } | Op::FSt { mem, .. } => Some(mem.ptr),
            Op::FBin { b: RoM::Mem(m), .. } | Op::FCmp { b: RoM::Mem(m), .. } => Some(m.ptr),
            Op::Prefetch { ptr, .. } | Op::PtrBump { ptr, .. } => Some(*ptr),
            _ => None,
        };
        if let Some(PtrId(p)) = ptr {
            if p >= n {
                diags.push(
                    Diagnostic::error(
                        "V112",
                        stage,
                        format!("op references pointer p{p} but only {n} pointers are declared"),
                    )
                    .at_op(i),
                );
            }
        }
    }
}

/// V101: class consistency. Every operand's vreg class must match what the
/// op demands (`Width::S` ⇒ scalar F, `Width::V` ⇒ Vec, integer ops ⇒
/// Int); this also catches mixed scalar/vector widths on one vreg after
/// vectorization, and out-of-range vreg ids.
fn check_classes(
    stage: &'static str,
    lin: &LinearKernel,
    orig: &KernelIr,
    diags: &mut Vec<Diagnostic>,
) {
    let expect = |i: usize, v: V, want: VClass, role: &str, diags: &mut Vec<Diagnostic>| match lin
        .vregs
        .get(v as usize)
    {
        None => diags.push(
            Diagnostic::error(
                "V101",
                stage,
                format!(
                    "{role} v{v} out of range ({} vregs declared)",
                    lin.vregs.len()
                ),
            )
            .at_op(i),
        ),
        Some(&got) if got != want => {
            let mut d = Diagnostic::error(
                "V101",
                stage,
                format!(
                    "{role} v{v} has class {} but the op requires {}",
                    class_name(got),
                    class_name(want)
                ),
            )
            .at_op(i);
            let line = orig.vreg_line(v);
            if line != 0 {
                d = d.at_line(line);
            }
            diags.push(d);
        }
        _ => {}
    };
    for (i, op) in lin.ops.iter().enumerate() {
        match op {
            Op::FLd { dst, w, .. } | Op::FZero { dst, w } | Op::FSpillLd { dst, w, .. } => {
                expect(i, *dst, wclass(*w), "dst", diags)
            }
            Op::FSt { src, w, .. } | Op::FSpillSt { src, w, .. } => {
                expect(i, *src, wclass(*w), "src", diags)
            }
            Op::FMov { dst, src, w } | Op::FAbs { dst, src, w } => {
                expect(i, *dst, wclass(*w), "dst", diags);
                expect(i, *src, wclass(*w), "src", diags);
            }
            Op::FConst { dst, .. } => expect(i, *dst, VClass::F, "dst", diags),
            Op::FBin { dst, a, b, w, .. } => {
                expect(i, *dst, wclass(*w), "dst", diags);
                expect(i, *a, wclass(*w), "operand a", diags);
                if let RoM::Reg(r) = b {
                    expect(i, *r, wclass(*w), "operand b", diags);
                }
            }
            Op::FSqrt { dst, src } => {
                expect(i, *dst, VClass::F, "dst", diags);
                expect(i, *src, VClass::F, "src", diags);
            }
            Op::FBcast { dst, src } => {
                expect(i, *dst, VClass::Vec, "dst", diags);
                expect(i, *src, VClass::F, "src", diags);
            }
            Op::FHSum { dst, src } | Op::FHMax { dst, src } => {
                expect(i, *dst, VClass::F, "dst", diags);
                expect(i, *src, VClass::Vec, "src", diags);
            }
            Op::FCmp { a, b } => {
                expect(i, *a, VClass::F, "operand a", diags);
                if let RoM::Reg(r) = b {
                    expect(i, *r, VClass::F, "operand b", diags);
                }
            }
            Op::IConst { dst, .. } | Op::ISpillLd { dst, .. } | Op::IParamMov { dst, .. } => {
                expect(i, *dst, VClass::Int, "dst", diags)
            }
            Op::IMov { dst, src } => {
                expect(i, *dst, VClass::Int, "dst", diags);
                expect(i, *src, VClass::Int, "src", diags);
            }
            Op::IBin { dst, a, b, .. } => {
                expect(i, *dst, VClass::Int, "dst", diags);
                expect(i, *a, VClass::Int, "operand a", diags);
                if let IOrImm::Reg(r) = b {
                    expect(i, *r, VClass::Int, "operand b", diags);
                }
            }
            Op::ICmp { a, b } => {
                expect(i, *a, VClass::Int, "operand a", diags);
                if let IOrImm::Reg(r) = b {
                    expect(i, *r, VClass::Int, "operand b", diags);
                }
            }
            Op::IDecFlags(v) => expect(i, *v, VClass::Int, "operand", diags),
            Op::ISpillSt { src, .. } => expect(i, *src, VClass::Int, "src", diags),
            Op::FParamMov { dst, .. } => expect(i, *dst, VClass::F, "dst", diags),
            Op::Label(_)
            | Op::Br(_)
            | Op::CondBr { .. }
            | Op::Prefetch { .. }
            | Op::PtrBump { .. } => {}
        }
    }
    match lin.ret {
        RetVal::F(v) => expect(lin.ops.len(), v, VClass::F, "return value", diags),
        RetVal::I(v) => expect(lin.ops.len(), v, VClass::Int, "return value", diags),
        RetVal::None => {}
    }
}

/// V102 (dangling branch) and V103 (duplicate label). Returns whether the
/// label structure is sound enough for CFG-based checks.
fn check_labels(stage: &'static str, lin: &LinearKernel, diags: &mut Vec<Diagnostic>) -> bool {
    // Latest position binding each label, indexed by label id.
    let mut seen: Vec<usize> = Vec::new();
    let mut ok = true;
    for (i, op) in lin.ops.iter().enumerate() {
        if let Op::Label(l) = op {
            let li = l.0 as usize;
            if seen.len() <= li {
                seen.resize(li + 1, dataflow::NONE);
            }
            let first = std::mem::replace(&mut seen[li], i);
            if first != dataflow::NONE {
                ok = false;
                diags.push(
                    Diagnostic::error(
                        "V103",
                        stage,
                        format!("label L{} defined twice (first at op {first})", l.0),
                    )
                    .at_op(i),
                );
            }
        }
    }
    for (i, op) in lin.ops.iter().enumerate() {
        let target = match op {
            Op::Br(l) => Some(*l),
            Op::CondBr { target, .. } => Some(*target),
            _ => None,
        };
        if let Some(l) = target {
            if seen.get(l.0 as usize).is_none_or(|&p| p == dataflow::NONE) {
                ok = false;
                diags.push(
                    Diagnostic::error("V102", stage, format!("branch to undefined label L{}", l.0))
                        .at_op(i),
                );
            }
        }
    }
    ok
}

/// V107: `FBin`/`IBin` stay in the tied two-address form the lowerer
/// establishes and code generation requires.
fn check_tied(stage: &'static str, lin: &LinearKernel, diags: &mut Vec<Diagnostic>) {
    for (i, op) in lin.ops.iter().enumerate() {
        match op {
            Op::FBin { dst, a, .. } | Op::IBin { dst, a, .. } if dst != a => diags.push(
                Diagnostic::error(
                    "V107",
                    stage,
                    format!("untied two-address op: dst v{dst} != a v{a}"),
                )
                .at_op(i),
            ),
            _ => {}
        }
    }
}

/// V100: definite assignment — on every path from entry, each vreg use is
/// preceded by a def.
fn check_defined(
    stage: &'static str,
    lin: &LinearKernel,
    cfg: &dataflow::Cfg,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, v) in dataflow::undefined_uses(&lin.ops, lin.vregs.len(), &[], cfg) {
        diags.push(
            Diagnostic::error(
                "V100",
                stage,
                format!("v{v} may be used before it is defined"),
            )
            .at_op(i),
        );
    }
}

/// V104: the cold region (between the body's jump to the halt label and
/// the halt label itself) may only re-enter the body through explicit
/// unconditional branches — no block may fall through into the next cold
/// block or off the end into the halt.
fn check_cold_blocks(stage: &'static str, lin: &LinearKernel, diags: &mut Vec<Diagnostic>) {
    // Halt label = last label in the stream (linearization appends it;
    // branch cleanup preserves the last label).
    let Some((halt_pos, halt)) = lin
        .ops
        .iter()
        .enumerate()
        .rev()
        .find_map(|(i, op)| match op {
            Op::Label(l) => Some((i, *l)),
            _ => None,
        })
    else {
        return;
    };
    let Some(br_pos) = lin.ops[..halt_pos]
        .iter()
        .position(|op| matches!(op, Op::Br(l) if *l == halt))
    else {
        return;
    };
    let region = br_pos + 1..halt_pos;
    if region.is_empty() {
        return;
    }
    for (i, op) in lin.ops[region.clone()].iter().enumerate() {
        let i = i + region.start;
        if matches!(op, Op::Label(_)) && i > region.start && !matches!(lin.ops[i - 1], Op::Br(_)) {
            diags.push(
                Diagnostic::error(
                    "V104",
                    stage,
                    "cold block falls through into the next cold block",
                )
                .at_op(i),
            );
        }
    }
    if !matches!(lin.ops[halt_pos - 1], Op::Br(_)) {
        diags.push(
            Diagnostic::error(
                "V104",
                stage,
                "cold block falls through into the halt label instead of re-entering the body",
            )
            .at_op(halt_pos - 1),
        );
    }
}

/// V105: the main loop's pointer bumps must equal the original
/// per-iteration bump scaled by the unroll factor and (when vectorized)
/// the vector length.
fn check_bumps(
    stage: &'static str,
    lin: &LinearKernel,
    orig: &KernelIr,
    params: &TransformParams,
    rep: &AnalysisReport,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(l) = &orig.loop_ else { return };
    let do_simd = params.simd && rep.vectorizable.is_ok();
    let veclen = if do_simd {
        orig.prec.veclen() as i64
    } else {
        1
    };
    let unroll = params.unroll.max(1) as i64;
    for &(p, b) in &l.bumps {
        if b == 0 {
            continue;
        }
        let expected = b * veclen * unroll;
        let found = lin
            .ops
            .iter()
            .any(|op| matches!(op, Op::PtrBump { ptr, elems } if *ptr == p && *elems == expected));
        if !found {
            let name = orig
                .ptrs
                .get(p.0 as usize)
                .map(|pi| pi.name.clone())
                .unwrap_or_else(|| format!("p{}", p.0));
            diags.push(Diagnostic::error(
                "V105",
                stage,
                format!(
                    "pointer `{name}` bumps by {b}/iter but no latch bump of \
                     {expected} elems (unroll {unroll} × veclen {veclen}) exists"
                ),
            ));
        }
    }
}

/// V108–V111: post-regalloc invariants over the final op stream.
fn check_alloc(
    stage: &'static str,
    lin: &LinearKernel,
    cfg: &dataflow::Cfg,
    alloc: &Allocation,
    diags: &mut Vec<Diagnostic>,
) {
    let class_of = |v: V| lin.vregs.get(v as usize).copied();
    let check_mapped = |i: usize, v: V, diags: &mut Vec<Diagnostic>| match alloc.get(v) {
        None => diags.push(
            Diagnostic::error("V108", stage, format!("v{v} has no register assignment")).at_op(i),
        ),
        Some(phys) => {
            let (idx, phys_is_int) = match phys {
                Phys::I(r) => (r, true),
                Phys::F(r) => (r, false),
            };
            if idx as usize >= REGS_PER_CLASS {
                diags.push(
                    Diagnostic::error(
                        "V111",
                        stage,
                        format!("v{v} assigned out-of-range register {phys:?}"),
                    )
                    .at_op(i),
                );
            }
            let want_int = class_of(v) == Some(VClass::Int);
            if phys_is_int != want_int {
                diags.push(
                    Diagnostic::error(
                        "V108",
                        stage,
                        format!(
                            "v{v} (class {}) assigned to the wrong bank ({phys:?})",
                            class_name(class_of(v).unwrap_or(VClass::Int))
                        ),
                    )
                    .at_op(i),
                );
            }
        }
    };
    for (i, op) in lin.ops.iter().enumerate() {
        op.for_each_use(&mut |v| check_mapped(i, v, diags));
        if let Some(d) = op.def() {
            check_mapped(i, d, diags);
        }
    }

    let exit_live: Vec<V> = match lin.ret {
        RetVal::F(v) | RetVal::I(v) => vec![v],
        RetVal::None => vec![],
    };
    let live = dataflow::liveness(&lin.ops, lin.vregs.len(), &exit_live, cfg);
    let per_op = dataflow::per_op_live_out(&lin.ops, cfg, &live);

    // V110: pressure — at most 8 live registers per class anywhere.
    for (i, live_out) in per_op.iter().enumerate() {
        let (mut ints, mut fps) = (0usize, 0usize);
        for v in live_out.iter() {
            match class_of(v as V) {
                Some(VClass::Int) => ints += 1,
                Some(_) => fps += 1,
                None => {}
            }
        }
        for (count, bank) in [(ints, "integer"), (fps, "FP")] {
            if count > REGS_PER_CLASS {
                diags.push(
                    Diagnostic::error(
                        "V110",
                        stage,
                        format!("{count} {bank} registers live at once (max {REGS_PER_CLASS})"),
                    )
                    .at_op(i),
                );
            }
        }
    }

    // V109: a def must not clobber a different live vreg in the same
    // physical register.
    for (i, op) in lin.ops.iter().enumerate() {
        let Some(d) = op.def() else { continue };
        let Some(pd) = alloc.get(d) else {
            continue;
        };
        for v in per_op[i].iter() {
            let v = v as V;
            if v != d && alloc.get(v) == Some(pd) {
                diags.push(
                    Diagnostic::error(
                        "V109",
                        stage,
                        format!("def of v{d} clobbers live v{v} (both in {pd:?})"),
                    )
                    .at_op(i),
                );
            }
        }
    }
}

/// Post-codegen sanity checks on the emitted machine program.
pub fn verify_compiled(
    out: &crate::codegen::CompiledKernel,
    alloc: &Allocation,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let stage = "codegen";
    if !matches!(out.program.insts.last(), Some(ifko_xsim::isa::Inst::Halt)) {
        diags.push(Diagnostic::error(
            "V113",
            stage,
            "program does not end with Halt (execution would run off the end)",
        ));
    }
    for (l, &target) in out.program.labels.iter().enumerate() {
        if target > out.program.insts.len() {
            diags.push(Diagnostic::error(
                "V114",
                stage,
                format!(
                    "label L{l} resolves to instruction {target} but the program has {}",
                    out.program.insts.len()
                ),
            ));
        }
    }
    let want = alloc.frame_slots as u64 * 16;
    if out.frame_bytes != want {
        diags.push(Diagnostic::error(
            "V115",
            stage,
            format!(
                "frame_bytes {} does not match {} spill slots ({} bytes)",
                out.frame_bytes, alloc.frame_slots, want
            ),
        ));
    }
    diags
}

// ---------------------------------------------------------------------------
// Search-side legality pruning
// ---------------------------------------------------------------------------

/// Why a candidate was rejected before compiling/simulating.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reject {
    /// The kernel has no `!! TUNE LOOP`; no transform applies.
    NoTunedLoop,
    /// SIMD requested but the analysis found a vectorization blocker.
    SimdBlocked,
    /// Accumulator expansion requested but no `ReductionAdd` scalar exists.
    NoAeCandidates,
    /// Non-temporal writes requested but the loop stores to no array.
    WntNoTargets,
    /// Unroll factor beyond the analysis' safe maximum.
    UnrollTooLarge,
}

impl Reject {
    pub fn as_str(self) -> &'static str {
        match self {
            Reject::NoTunedLoop => "no-tuned-loop",
            Reject::SimdBlocked => "simd-blocked",
            Reject::NoAeCandidates => "no-ae-candidates",
            Reject::WntNoTargets => "wnt-no-targets",
            Reject::UnrollTooLarge => "unroll-too-large",
        }
    }
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Analysis-level lint over a front-ended kernel: tuning-opportunity
/// diagnostics for `ifko lint` (stable `A1xx` codes, never errors — a
/// kernel that compiles is lint-clean modulo advice).
///
/// | code | severity | meaning |
/// |------|----------|---------|
/// | A100 | warning  | no `!! TUNE LOOP` marker — the search has nothing to tune |
/// | A101 | note     | tuned loop is not vectorizable (with the blocker)  |
/// | A102 | note     | no reduction add — accumulator expansion never applies |
/// | A103 | note     | loop stores to no array — WNT never applies        |
/// | A104 | note     | no sequentially-accessed arrays — prefetch never applies |
pub fn lint_analysis(rep: &AnalysisReport) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let at = |d: Diagnostic| {
        if rep.loop_line != 0 {
            d.at_line(rep.loop_line)
        } else {
            d
        }
    };
    if !rep.has_tuned_loop {
        diags.push(Diagnostic::warning(
            "A100",
            "analysis",
            "no `!! TUNE LOOP` marker: the empirical search has nothing to tune",
        ));
        return diags; // the remaining advice is about the tuned loop
    }
    if let Err(b) = &rep.vectorizable {
        diags.push(at(Diagnostic::note(
            "A101",
            "analysis",
            format!("tuned loop is not vectorizable: {b}"),
        )));
    }
    if rep.ae_candidates.is_empty() {
        diags.push(at(Diagnostic::note(
            "A102",
            "analysis",
            "no reduction add in the tuned loop: accumulator expansion never applies",
        )));
    }
    if rep.wnt_candidates.is_empty() {
        diags.push(at(Diagnostic::note(
            "A103",
            "analysis",
            "tuned loop stores to no array: non-temporal writes never apply",
        )));
    }
    if rep.pf_candidates.is_empty() {
        diags.push(at(Diagnostic::note(
            "A104",
            "analysis",
            "no sequentially-accessed arrays: prefetch tuning never applies",
        )));
    }
    diags
}

/// Cheap legality check the evaluation engine consults before paying for
/// compile + simulate. Sound with respect to the search: a pruned
/// candidate either fails `apply_transforms` outright (`NoTunedLoop`,
/// `NoAeCandidates`) or compiles to code identical to an already-seeded
/// cheaper twin (`SimdBlocked`, `WntNoTargets` are silent no-ops), so
/// pruning never changes the tuned winner.
pub fn precheck(params: &TransformParams, rep: &AnalysisReport) -> Result<(), Reject> {
    if !rep.has_tuned_loop {
        return Err(Reject::NoTunedLoop);
    }
    if params.simd && rep.vectorizable.is_err() {
        return Err(Reject::SimdBlocked);
    }
    if params.accum_expand > 1 && rep.ae_candidates.is_empty() {
        return Err(Reject::NoAeCandidates);
    }
    if params.wnt && rep.wnt_candidates.is_empty() {
        return Err(Reject::WntNoTargets);
    }
    if params.unroll > rep.max_unroll {
        return Err(Reject::UnrollTooLarge);
    }
    Ok(())
}
