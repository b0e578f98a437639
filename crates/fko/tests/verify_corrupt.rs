//! Adversarial verifier tests: hand-corrupt well-formed IR and assert the
//! exact diagnostic code each invariant suite reports. A verifier that
//! passes good IR but never fires on bad IR proves nothing.

use ifko_blas::hil_src::hil_source;
use ifko_blas::BlasOp;
use ifko_fko::analysis::analyze;
use ifko_fko::ir::*;
use ifko_fko::params::TransformParams;
use ifko_fko::regalloc::{Allocation, Phys};
use ifko_fko::verify::verify_stage;
use ifko_fko::xform::{apply_transforms, LinearKernel};
use ifko_xsim::{p4e, Prec};

/// Frontend + analysis + xform under `off()` params: a well-formed
/// LinearKernel to corrupt, plus everything `verify_stage` needs.
fn well_formed() -> (
    KernelIr,
    ifko_fko::AnalysisReport,
    TransformParams,
    LinearKernel,
) {
    let mach = p4e();
    let src = hil_source(BlasOp::Dot, Prec::D);
    let (k, rep) = ifko_fko::analyze_kernel(&src, &mach).expect("ddot compiles");
    let params = TransformParams::off();
    let lin = apply_transforms(&k, &params, &rep).expect("xform succeeds");
    // Sanity: the uncorrupted kernel verifies clean.
    let diags = verify_stage("xform", &lin, &k, &params, &rep, None);
    assert!(diags.is_empty(), "clean kernel must verify: {diags:?}");
    (k, rep, params, lin)
}

fn codes(diags: &[ifko_fko::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn undefined_vreg_use_is_v100() {
    let (k, rep, params, mut lin) = well_formed();
    // A use of a fresh vreg that no path defines.
    let ghost = lin.new_vreg(VClass::F);
    let victim = lin
        .ops
        .iter()
        .position(|op| matches!(op, Op::FBin { .. }))
        .expect("ddot has an FBin");
    if let Op::FBin { b, .. } = &mut lin.ops[victim] {
        *b = RoM::Reg(ghost);
    }
    let diags = verify_stage("opt", &lin, &k, &params, &rep, None);
    assert!(
        codes(&diags).contains(&"V100"),
        "expected V100, got {diags:?}"
    );
}

#[test]
fn class_mismatch_is_v101() {
    let (k, rep, params, mut lin) = well_formed();
    // Flip the class of a vreg used as an FP operand to Int.
    let victim = lin
        .ops
        .iter()
        .find_map(|op| match op {
            Op::FBin { a, .. } => Some(*a),
            _ => None,
        })
        .expect("ddot has an FBin");
    lin.vregs[victim as usize] = VClass::Int;
    let diags = verify_stage("opt", &lin, &k, &params, &rep, None);
    assert!(
        codes(&diags).contains(&"V101"),
        "expected V101, got {diags:?}"
    );
}

#[test]
fn out_of_range_vreg_is_v101() {
    let (k, rep, params, mut lin) = well_formed();
    let victim = lin
        .ops
        .iter()
        .position(|op| matches!(op, Op::FBin { .. }))
        .expect("ddot has an FBin");
    let bogus = lin.vregs.len() as V + 7;
    if let Op::FBin { b, .. } = &mut lin.ops[victim] {
        *b = RoM::Reg(bogus);
    }
    let diags = verify_stage("opt", &lin, &k, &params, &rep, None);
    assert!(
        codes(&diags).contains(&"V101"),
        "expected V101, got {diags:?}"
    );
}

#[test]
fn dangling_branch_is_v102() {
    let (k, rep, params, mut lin) = well_formed();
    lin.ops.push(Op::Br(LabelId(999)));
    let diags = verify_stage("opt", &lin, &k, &params, &rep, None);
    assert!(
        codes(&diags).contains(&"V102"),
        "expected V102, got {diags:?}"
    );
}

#[test]
fn duplicate_label_is_v103() {
    let (k, rep, params, mut lin) = well_formed();
    let existing = lin
        .ops
        .iter()
        .find_map(|op| match op {
            Op::Label(l) => Some(*l),
            _ => None,
        })
        .expect("kernel has a label");
    lin.ops.push(Op::Label(existing));
    let diags = verify_stage("opt", &lin, &k, &params, &rep, None);
    assert!(
        codes(&diags).contains(&"V103"),
        "expected V103, got {diags:?}"
    );
}

#[test]
fn untied_two_address_op_is_v107() {
    let (k, rep, params, mut lin) = well_formed();
    let victim = lin
        .ops
        .iter()
        .position(|op| matches!(op, Op::FBin { .. }))
        .expect("ddot has an FBin");
    // Re-point dst at another F vreg so dst != a.
    let other = lin.new_vreg(VClass::F);
    if let Op::FBin { dst, .. } = &mut lin.ops[victim] {
        *dst = other;
    }
    let diags = verify_stage("opt", &lin, &k, &params, &rep, None);
    assert!(
        codes(&diags).contains(&"V107"),
        "expected V107, got {diags:?}"
    );
}

#[test]
fn missing_pointer_bump_is_v105() {
    let (k, rep, params, mut lin) = well_formed();
    // Delete every bump for the first bumped pointer.
    let bumped = k.loop_.as_ref().unwrap().bumps[0].0;
    lin.ops
        .retain(|op| !matches!(op, Op::PtrBump { ptr, .. } if *ptr == bumped));
    let diags = verify_stage("opt", &lin, &k, &params, &rep, None);
    assert!(
        codes(&diags).contains(&"V105"),
        "expected V105, got {diags:?}"
    );
}

#[test]
fn bad_pointer_id_is_v112() {
    let (k, rep, params, mut lin) = well_formed();
    lin.ops.push(Op::PtrBump {
        ptr: PtrId(99),
        elems: 1,
    });
    let diags = verify_stage("opt", &lin, &k, &params, &rep, None);
    assert!(
        codes(&diags).contains(&"V112"),
        "expected V112, got {diags:?}"
    );
}

/// Hand-build a straight-line post-regalloc kernel with nine
/// simultaneously-live FP values: V110 (pressure) must fire, and the
/// 8-register assignment necessarily doubles up, so V109 (clobber) too.
#[test]
fn nine_live_fp_registers_is_v110() {
    let nine = 9usize;
    let mut ops = Vec::new();
    for v in 0..nine {
        ops.push(Op::FConst {
            dst: v as V,
            val: v as f64,
        });
    }
    // Fold them all into v0 so every const is live until consumed.
    for v in 1..nine {
        ops.push(Op::FBin {
            op: FOp::Add,
            dst: 0,
            a: 0,
            b: RoM::Reg(v as V),
            w: Width::S,
        });
    }
    let lin = LinearKernel {
        name: "pressure".into(),
        prec: Prec::D,
        ptrs: vec![],
        params: vec![],
        vregs: vec![VClass::F; nine],
        ops,
        ret: RetVal::F(0),
        n_labels: 0,
    };
    let orig = KernelIr {
        name: "pressure".into(),
        prec: Prec::D,
        ptrs: vec![],
        params: vec![],
        vregs: vec![VClass::F; nine],
        pre: vec![],
        loop_: None,
        post: vec![],
        ret: RetVal::F(0),
        n_labels: 0,
        vreg_lines: vec![0; nine],
        loop_line: 0,
    };
    let rep = analyze(&orig, &p4e());
    // An "allocation" that wraps the ninth value onto F(0).
    let mut alloc = Allocation::default();
    for v in 0..nine {
        alloc.set(v as V, Some(Phys::F((v % 8) as u8)));
    }
    let diags = verify_stage(
        "regalloc",
        &lin,
        &orig,
        &TransformParams::off(),
        &rep,
        Some(&alloc),
    );
    let cs = codes(&diags);
    assert!(cs.contains(&"V110"), "expected V110, got {diags:?}");
    assert!(cs.contains(&"V109"), "expected V109, got {diags:?}");
}

#[test]
fn unmapped_vreg_post_regalloc_is_v108() {
    let mach = p4e();
    let src = hil_source(BlasOp::Dot, Prec::D);
    let (k, rep) = ifko_fko::analyze_kernel(&src, &mach).expect("ddot compiles");
    let params = TransformParams::off();
    let mut lin = apply_transforms(&k, &params, &rep).expect("xform succeeds");
    ifko_fko::opt::optimize(&mut lin, &params);
    let mut alloc = ifko_fko::regalloc::allocate(&mut lin).expect("allocates");
    // Clean first, then drop one mapping.
    assert!(verify_stage("regalloc", &lin, &k, &params, &rep, Some(&alloc)).is_empty());
    let v = (0..lin.vregs.len() as V)
        .find(|&v| alloc.get(v).is_some())
        .expect("some vreg is mapped");
    alloc.set(v, None);
    let diags = verify_stage("regalloc", &lin, &k, &params, &rep, Some(&alloc));
    assert!(
        codes(&diags).contains(&"V108"),
        "expected V108, got {diags:?}"
    );
}

/// A corrupted program (Halt stripped) must trip the post-codegen checks.
#[test]
fn stripped_halt_is_v113() {
    let mach = p4e();
    let src = hil_source(BlasOp::Dot, Prec::D);
    let (k, rep) = ifko_fko::analyze_kernel(&src, &mach).expect("ddot compiles");
    let params = TransformParams::off();
    let mut lin = apply_transforms(&k, &params, &rep).expect("xform succeeds");
    ifko_fko::opt::optimize(&mut lin, &params);
    let alloc = ifko_fko::regalloc::allocate(&mut lin).expect("allocates");
    let mut out = ifko_fko::codegen::codegen(&lin, &alloc).expect("codegen succeeds");
    assert!(ifko_fko::verify::verify_compiled(&out, &alloc).is_empty());
    while matches!(out.program.insts.last(), Some(ifko_xsim::isa::Inst::Halt)) {
        out.program.insts.pop();
    }
    let diags = ifko_fko::verify::verify_compiled(&out, &alloc);
    assert!(
        codes(&diags).contains(&"V113"),
        "expected V113, got {diags:?}"
    );
}
