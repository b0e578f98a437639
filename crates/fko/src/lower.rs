//! Lowering from the HIL AST to [`KernelIr`].
//!
//! The lowering establishes FKO's canonical kernel shape: straight-line
//! `pre` code, the single tuned loop (with its hot body, latch-applied
//! pointer bumps, and any cold out-of-line blocks branched to from inside
//! the body — the paper's `amax` NEWMAX block), and `post` code ending in
//! the return value. Pointer offsets inside the body are normalized
//! against a running per-pointer offset so that all `X += k` updates can
//! be applied once at the latch ("avoiding repetitive index and pointer
//! updates", §2.2.3).
//!
//! All `FBin`/`IBin` ops are emitted in the two-address-friendly *tied*
//! form (`dst == a`), which later phases preserve; code generation then
//! maps them 1:1 onto the x86-like target.

use crate::ir::*;
use ifko_hil::ast::{self, AssignOp, CmpOp, Expr, LValue, Routine, Stmt, UnOp};
use std::collections::HashMap;

/// Lowering failure.
#[derive(Clone, PartialEq, Debug)]
pub struct LowerError(pub String);

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for LowerError {}

fn err<T>(m: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError(m.into()))
}

/// Resolved symbol during lowering.
#[derive(Clone, Copy, Debug)]
enum Sym {
    Ptr(PtrId),
    FV(V),
    IV(V),
}

struct Lowerer<'a> {
    routine: &'a Routine,
    k: KernelIr,
    syms: HashMap<String, Sym>,
    labels: HashMap<String, LabelId>,
    /// Running element offset per pointer id (reset at loop-body entry).
    run_off: Vec<i64>,
    /// Pointer bumps accumulated while lowering a loop body, per pointer
    /// id (`None` = never bumped).
    bumps: Vec<Option<i64>>,
    in_loop_body: bool,
    loop_ivar: Option<(String, V)>,
}

/// Convert an HIL precision to the simulator precision.
fn prec_of(p: ast::Prec) -> Prec {
    match p {
        ast::Prec::S => Prec::S,
        ast::Prec::D => Prec::D,
    }
}

/// Lower a parsed + checked routine to IR.
pub fn lower(routine: &Routine, info: &ifko_hil::SemaInfo) -> Result<KernelIr, LowerError> {
    let prec = prec_of(
        info.prec
            .ok_or_else(|| LowerError("no FP data in routine".into()))?,
    );
    let mut k = KernelIr {
        name: routine.name.clone(),
        prec,
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
    let mut syms = HashMap::new();

    // Parameters in declaration (calling convention) order.
    for p in &routine.params {
        match p.ty {
            ast::ParamType::Ptr { intent, .. } => {
                let id = PtrId(k.ptrs.len() as u32);
                k.ptrs.push(PtrInfo {
                    name: p.name.clone(),
                    written: matches!(intent, ast::Intent::Out | ast::Intent::InOut),
                    read: matches!(intent, ast::Intent::In | ast::Intent::InOut),
                    no_prefetch: routine.markup.no_prefetch.contains(&p.name),
                });
                k.params.push(ParamSlot::Ptr(id));
                syms.insert(p.name.clone(), Sym::Ptr(id));
            }
            ast::ParamType::Int => {
                let v = k.new_vreg(VClass::Int);
                k.set_vreg_line(v, p.line.0);
                k.params.push(ParamSlot::Int { vreg: v });
                syms.insert(p.name.clone(), Sym::IV(v));
            }
            ast::ParamType::Scalar(_) => {
                let v = k.new_vreg(VClass::F);
                k.set_vreg_line(v, p.line.0);
                k.params.push(ParamSlot::FScalar { vreg: v });
                syms.insert(p.name.clone(), Sym::FV(v));
            }
        }
    }
    // Local scalars.
    for s in &routine.scalars {
        let v = match s.prec {
            Some(_) => k.new_vreg(VClass::F),
            None => k.new_vreg(VClass::Int),
        };
        k.set_vreg_line(v, s.line.0);
        syms.insert(
            s.name.clone(),
            if s.prec.is_some() {
                Sym::FV(v)
            } else {
                Sym::IV(v)
            },
        );
    }

    let mut lw = Lowerer {
        routine,
        k,
        syms,
        labels: HashMap::new(),
        run_off: Vec::new(),
        bumps: Vec::new(),
        in_loop_body: false,
        loop_ivar: None,
    };
    lw.routine_body()?;
    Ok(lw.k)
}

impl Lowerer<'_> {
    fn label_id(&mut self, name: &str) -> LabelId {
        if let Some(l) = self.labels.get(name) {
            return *l;
        }
        let l = self.k.new_label();
        self.labels.insert(name.to_string(), l);
        l
    }

    fn routine_body(&mut self) -> Result<(), LowerError> {
        let body = self.routine.body.clone();
        let mut i = 0;
        let mut seen_loop = false;
        let mut cold_blocks: Vec<Op> = Vec::new();
        while i < body.len() {
            match &body[i] {
                Stmt::Loop(l) => {
                    if seen_loop {
                        return err("multiple loops are not supported (one tuned loop)");
                    }
                    if !l.tuned {
                        return err("the loop must carry `!! TUNE LOOP` mark-up");
                    }
                    seen_loop = true;
                    self.lower_loop(l)?;
                    i += 1;
                }
                Stmt::Label(name) => {
                    // Out-of-line cold block: statements until a GOTO/RETURN.
                    if !seen_loop {
                        return err("top-level labels before the loop are not supported");
                    }
                    let lid = self.label_id(name);
                    let mut ops = vec![Op::Label(lid)];
                    i += 1;
                    loop {
                        match body.get(i) {
                            Some(Stmt::Goto(target)) => {
                                let t = self.label_id(target);
                                ops.push(Op::Br(t));
                                i += 1;
                                break;
                            }
                            Some(st @ (Stmt::Assign { .. } | Stmt::PtrBump { .. })) => {
                                self.stmt_into(st, &mut ops)?;
                                i += 1;
                            }
                            other => {
                                return err(format!(
                                    "cold block `{name}` must end with GOTO (found {other:?})"
                                ))
                            }
                        }
                    }
                    cold_blocks.extend(ops);
                }
                Stmt::Return(e) => {
                    let mut ops = Vec::new();
                    let was = self.in_loop_body;
                    self.in_loop_body = false;
                    let (v, is_int) = self.expr_value(e, &mut ops)?;
                    self.in_loop_body = was;
                    self.k.post.extend(ops);
                    self.k.ret = if is_int { RetVal::I(v) } else { RetVal::F(v) };
                    i += 1;
                }
                st @ (Stmt::Assign { .. } | Stmt::PtrBump { .. }) => {
                    let mut ops = Vec::new();
                    self.stmt_into(st, &mut ops)?;
                    if seen_loop {
                        self.k.post.extend(ops);
                    } else {
                        self.k.pre.extend(ops);
                    }
                    i += 1;
                }
                other => return err(format!("unsupported top-level statement: {other:?}")),
            }
        }
        if let Some(l) = &mut self.k.loop_ {
            l.cold.extend(cold_blocks);
        } else if !cold_blocks.is_empty() {
            return err("cold blocks without a loop");
        }
        Ok(())
    }

    fn lower_loop(&mut self, l: &ast::Loop) -> Result<(), LowerError> {
        self.k.loop_line = l.line.0;
        // Counter shape: upward `LOOP i = 0, N` or downward `LOOP i = N, 0, -1`.
        let n_vreg = |lw: &Self, e: &Expr| -> Result<V, LowerError> {
            match e {
                Expr::Var(n) => match lw.syms.get(n) {
                    Some(Sym::IV(v)) => Ok(*v),
                    _ => err(format!("loop bound `{n}` must be an INT parameter")),
                },
                other => err(format!("unsupported loop bound {other:?}")),
            }
        };
        let reads_ivar =
            loop_reads_var(&l.body, &l.var) || routine_cold_reads_var(self.routine, &l.var);
        let counter = if l.down {
            if !matches!(l.end, Expr::IConst(0)) {
                return err("downward loops must end at 0");
            }
            let n = n_vreg(self, &l.start)?;
            let ivar = self.k.new_vreg(VClass::Int);
            self.loop_ivar = Some((l.var.clone(), ivar));
            Counter::Visible {
                ivar,
                n,
                down: true,
            }
        } else {
            if !matches!(l.start, Expr::IConst(0)) {
                return err("upward loops must start at 0");
            }
            let n = n_vreg(self, &l.end)?;
            if reads_ivar {
                return err(
                    "upward loops whose body reads the induction variable are not supported; \
                     use `LOOP i = N, 0, -1`",
                );
            }
            Counter::Hidden { trips: n }
        };

        self.in_loop_body = true;
        let n_ptrs = self.k.ptrs.len();
        self.run_off = vec![0; n_ptrs];
        self.bumps = vec![None; n_ptrs];
        let mut ops = Vec::new();
        for st in &l.body {
            self.stmt_into(st, &mut ops)?;
        }
        self.in_loop_body = false;

        let bumps: Vec<(PtrId, i64)> = self
            .bumps
            .iter()
            .enumerate()
            .filter_map(|(p, e)| Some((PtrId(p as u32), (*e)?)))
            .collect();
        // Every accessed pointer must advance uniformly by the same element
        // count (contiguous unit-stride kernels); non-advancing pointers
        // are allowed (they are simply not prefetch candidates).
        self.k.loop_ = Some(LoopIr {
            counter,
            body: ops,
            cold: Vec::new(),
            bumps,
            elems_per_iter: 1,
            vectorized: false,
            unroll: 1,
        });
        Ok(())
    }

    fn stmt_into(&mut self, st: &Stmt, ops: &mut Vec<Op>) -> Result<(), LowerError> {
        match st {
            Stmt::PtrBump { ptr, elems } => {
                let Some(Sym::Ptr(pid)) = self.syms.get(ptr).copied() else {
                    return err(format!("unknown pointer `{ptr}`"));
                };
                if self.in_loop_body {
                    let p = pid.0 as usize;
                    self.run_off[p] += elems;
                    *self.bumps[p].get_or_insert(0) += elems;
                } else {
                    ops.push(Op::PtrBump {
                        ptr: pid,
                        elems: *elems,
                    });
                }
                Ok(())
            }
            Stmt::Assign { lhs, op, rhs } => self.lower_assign(lhs, *op, rhs, ops),
            Stmt::IfGoto {
                lhs,
                cmp,
                rhs,
                label,
            } => {
                let (a, a_int) = self.expr_value(lhs, ops)?;
                let cond = match cmp {
                    CmpOp::Gt => Cond::Gt,
                    CmpOp::Ge => Cond::Ge,
                    CmpOp::Lt => Cond::Lt,
                    CmpOp::Le => Cond::Le,
                    CmpOp::Eq => Cond::Eq,
                    CmpOp::Ne => Cond::Ne,
                };
                if a_int {
                    let b = match rhs {
                        Expr::IConst(v) => IOrImm::Imm(*v),
                        other => {
                            let (bv, bint) = self.expr_value(other, ops)?;
                            if !bint {
                                return err("comparing int with float");
                            }
                            IOrImm::Reg(bv)
                        }
                    };
                    ops.push(Op::ICmp { a, b });
                } else {
                    let (b, b_int) = self.expr_value(rhs, ops)?;
                    if b_int {
                        return err("comparing float with int");
                    }
                    ops.push(Op::FCmp { a, b: RoM::Reg(b) });
                }
                let t = self.label_id(label);
                ops.push(Op::CondBr { cond, target: t });
                Ok(())
            }
            Stmt::Label(name) => {
                let l = self.label_id(name);
                ops.push(Op::Label(l));
                Ok(())
            }
            Stmt::Goto(name) => {
                let l = self.label_id(name);
                ops.push(Op::Br(l));
                Ok(())
            }
            other => err(format!("unsupported statement here: {other:?}")),
        }
    }

    fn lower_assign(
        &mut self,
        lhs: &LValue,
        op: AssignOp,
        rhs: &Expr,
        ops: &mut Vec<Op>,
    ) -> Result<(), LowerError> {
        match lhs {
            LValue::Scalar(name) => {
                let sym = self
                    .syms
                    .get(name)
                    .copied()
                    .ok_or_else(|| LowerError(format!("unknown symbol `{name}`")))?;
                match sym {
                    Sym::FV(dst) => {
                        match op {
                            AssignOp::Set => self.expr_into_f(rhs, dst, ops)?,
                            AssignOp::Add | AssignOp::Sub | AssignOp::Mul => {
                                let fop = match op {
                                    AssignOp::Add => FOp::Add,
                                    AssignOp::Sub => FOp::Sub,
                                    _ => FOp::Mul,
                                };
                                let (rv, rint) = self.expr_value(rhs, ops)?;
                                if rint {
                                    return err("float op with integer rhs");
                                }
                                ops.push(Op::FBin {
                                    op: fop,
                                    dst,
                                    a: dst,
                                    b: RoM::Reg(rv),
                                    w: Width::S,
                                });
                            }
                        }
                        Ok(())
                    }
                    Sym::IV(dst) => {
                        match op {
                            AssignOp::Set => self.expr_into_i(rhs, dst, ops)?,
                            AssignOp::Add | AssignOp::Sub => {
                                let iop = if op == AssignOp::Add {
                                    IOp::Add
                                } else {
                                    IOp::Sub
                                };
                                let b = match rhs {
                                    Expr::IConst(v) => IOrImm::Imm(*v),
                                    other => {
                                        let (rv, rint) = self.expr_value(other, ops)?;
                                        if !rint {
                                            return err("int op with float rhs");
                                        }
                                        IOrImm::Reg(rv)
                                    }
                                };
                                ops.push(Op::IBin {
                                    op: iop,
                                    dst,
                                    a: dst,
                                    b,
                                });
                            }
                            AssignOp::Mul => return err("integer *= not supported"),
                        }
                        Ok(())
                    }
                    Sym::Ptr(_) => err(format!("cannot assign to pointer `{name}`")),
                }
            }
            LValue::ArrayElem { ptr, offset } => {
                let Some(Sym::Ptr(pid)) = self.syms.get(ptr).copied() else {
                    return err(format!("unknown pointer `{ptr}`"));
                };
                let off = self.run_off.get(pid.0 as usize).copied().unwrap_or(0) + offset;
                let (rv, rint) = self.expr_value(rhs, ops)?;
                if rint {
                    return err("storing integer into FP array");
                }
                if op != AssignOp::Set {
                    // `Y[0] += e` — load, combine, store.
                    let t = self.k.new_vreg(VClass::F);
                    ops.push(Op::FLd {
                        dst: t,
                        mem: MemRef {
                            ptr: pid,
                            off_elems: off,
                        },
                        w: Width::S,
                    });
                    let fop = match op {
                        AssignOp::Add => FOp::Add,
                        AssignOp::Sub => FOp::Sub,
                        AssignOp::Mul => FOp::Mul,
                        AssignOp::Set => unreachable!(),
                    };
                    ops.push(Op::FBin {
                        op: fop,
                        dst: t,
                        a: t,
                        b: RoM::Reg(rv),
                        w: Width::S,
                    });
                    ops.push(Op::FSt {
                        mem: MemRef {
                            ptr: pid,
                            off_elems: off,
                        },
                        src: t,
                        w: Width::S,
                        nt: false,
                    });
                } else {
                    ops.push(Op::FSt {
                        mem: MemRef {
                            ptr: pid,
                            off_elems: off,
                        },
                        src: rv,
                        w: Width::S,
                        nt: false,
                    });
                }
                Ok(())
            }
        }
    }

    /// Evaluate an expression to a (vreg, is_int) pair, appending ops.
    fn expr_value(&mut self, e: &Expr, ops: &mut Vec<Op>) -> Result<(V, bool), LowerError> {
        match e {
            Expr::Var(name) => {
                if let Some((ivname, ivreg)) = &self.loop_ivar {
                    if name == ivname {
                        return Ok((*ivreg, true));
                    }
                }
                match self.syms.get(name) {
                    Some(Sym::FV(v)) => Ok((*v, false)),
                    Some(Sym::IV(v)) => Ok((*v, true)),
                    Some(Sym::Ptr(_)) => err(format!("pointer `{name}` used as value")),
                    None => err(format!("unknown symbol `{name}`")),
                }
            }
            Expr::IConst(v) => {
                let t = self.k.new_vreg(VClass::Int);
                ops.push(Op::IConst { dst: t, val: *v });
                Ok((t, true))
            }
            Expr::FConst(v) => {
                let t = self.k.new_vreg(VClass::F);
                ops.push(Op::FConst { dst: t, val: *v });
                Ok((t, false))
            }
            Expr::Load { ptr, offset } => {
                let Some(Sym::Ptr(pid)) = self.syms.get(ptr).copied() else {
                    return err(format!("unknown pointer `{ptr}`"));
                };
                let off = self.run_off.get(pid.0 as usize).copied().unwrap_or(0) + offset;
                let t = self.k.new_vreg(VClass::F);
                ops.push(Op::FLd {
                    dst: t,
                    mem: MemRef {
                        ptr: pid,
                        off_elems: off,
                    },
                    w: Width::S,
                });
                Ok((t, false))
            }
            Expr::Unary(UnOp::Abs, inner) => {
                let (v, is_int) = self.expr_value(inner, ops)?;
                if is_int {
                    return err("ABS of integer");
                }
                let t = self.k.new_vreg(VClass::F);
                ops.push(Op::FAbs {
                    dst: t,
                    src: v,
                    w: Width::S,
                });
                Ok((t, false))
            }
            Expr::Unary(UnOp::Sqrt, inner) => {
                let (v, is_int) = self.expr_value(inner, ops)?;
                if is_int {
                    return err("SQRT of integer");
                }
                let t = self.k.new_vreg(VClass::F);
                ops.push(Op::FSqrt { dst: t, src: v });
                Ok((t, false))
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let (v, is_int) = self.expr_value(inner, ops)?;
                if is_int {
                    let t = self.k.new_vreg(VClass::Int);
                    ops.push(Op::IConst { dst: t, val: 0 });
                    ops.push(Op::IBin {
                        op: IOp::Sub,
                        dst: t,
                        a: t,
                        b: IOrImm::Reg(v),
                    });
                    Ok((t, true))
                } else {
                    let t = self.k.new_vreg(VClass::F);
                    ops.push(Op::FConst { dst: t, val: 0.0 });
                    ops.push(Op::FBin {
                        op: FOp::Sub,
                        dst: t,
                        a: t,
                        b: RoM::Reg(v),
                        w: Width::S,
                    });
                    Ok((t, false))
                }
            }
            Expr::Bin(bop, a, b) => {
                let (av, aint) = self.expr_value(a, ops)?;
                if aint {
                    let t = self.k.new_vreg(VClass::Int);
                    ops.push(Op::IMov { dst: t, src: av });
                    let rhs = match &**b {
                        Expr::IConst(v) => IOrImm::Imm(*v),
                        other => {
                            let (bv, bint) = self.expr_value(other, ops)?;
                            if !bint {
                                return err("mixed int/float arithmetic");
                            }
                            IOrImm::Reg(bv)
                        }
                    };
                    let iop = match bop {
                        ast::BinaryOp::Add => IOp::Add,
                        ast::BinaryOp::Sub => IOp::Sub,
                        _ => return err("only +/- on integers"),
                    };
                    ops.push(Op::IBin {
                        op: iop,
                        dst: t,
                        a: t,
                        b: rhs,
                    });
                    Ok((t, true))
                } else {
                    let (bv, bint) = self.expr_value(b, ops)?;
                    if bint {
                        return err("mixed float/int arithmetic");
                    }
                    let t = self.k.new_vreg(VClass::F);
                    ops.push(Op::FMov {
                        dst: t,
                        src: av,
                        w: Width::S,
                    });
                    let fop = match bop {
                        ast::BinaryOp::Add => FOp::Add,
                        ast::BinaryOp::Sub => FOp::Sub,
                        ast::BinaryOp::Mul => FOp::Mul,
                        ast::BinaryOp::Div => FOp::Div,
                    };
                    ops.push(Op::FBin {
                        op: fop,
                        dst: t,
                        a: t,
                        b: RoM::Reg(bv),
                        w: Width::S,
                    });
                    Ok((t, false))
                }
            }
        }
    }

    /// Evaluate an FP expression directly into `dst`.
    fn expr_into_f(&mut self, e: &Expr, dst: V, ops: &mut Vec<Op>) -> Result<(), LowerError> {
        match e {
            Expr::FConst(v) => {
                ops.push(Op::FConst { dst, val: *v });
                Ok(())
            }
            Expr::Load { .. } => {
                let (v, _) = self.expr_value(e, ops)?;
                // Rewrite the load's destination directly (saves a move).
                if let Some(Op::FLd { dst: d, .. }) = ops.last_mut() {
                    *d = dst;
                    let _ = v;
                } else {
                    ops.push(Op::FMov {
                        dst,
                        src: v,
                        w: Width::S,
                    });
                }
                Ok(())
            }
            Expr::Unary(UnOp::Abs, inner) => {
                let (v, is_int) = self.expr_value(inner, ops)?;
                if is_int {
                    return err("ABS of integer");
                }
                ops.push(Op::FAbs {
                    dst,
                    src: v,
                    w: Width::S,
                });
                Ok(())
            }
            Expr::Unary(UnOp::Sqrt, inner) => {
                let (v, is_int) = self.expr_value(inner, ops)?;
                if is_int {
                    return err("SQRT of integer");
                }
                ops.push(Op::FSqrt { dst, src: v });
                Ok(())
            }
            other => {
                let (v, is_int) = self.expr_value(other, ops)?;
                if is_int {
                    return err("assigning integer to float scalar");
                }
                ops.push(Op::FMov {
                    dst,
                    src: v,
                    w: Width::S,
                });
                Ok(())
            }
        }
    }

    fn expr_into_i(&mut self, e: &Expr, dst: V, ops: &mut Vec<Op>) -> Result<(), LowerError> {
        match e {
            Expr::IConst(v) => {
                ops.push(Op::IConst { dst, val: *v });
                Ok(())
            }
            other => {
                let (v, is_int) = self.expr_value(other, ops)?;
                if !is_int {
                    return err("assigning float to integer scalar");
                }
                ops.push(Op::IMov { dst, src: v });
                Ok(())
            }
        }
    }
}

/// Does the loop body read the induction variable?
fn loop_reads_var(stmts: &[Stmt], var: &str) -> bool {
    stmts.iter().any(|s| stmt_reads_var(s, var))
}

fn stmt_reads_var(s: &Stmt, var: &str) -> bool {
    match s {
        Stmt::Assign { rhs, .. } => expr_reads_var(rhs, var),
        Stmt::IfGoto { lhs, rhs, .. } => expr_reads_var(lhs, var) || expr_reads_var(rhs, var),
        Stmt::Return(e) => expr_reads_var(e, var),
        Stmt::Loop(l) => loop_reads_var(&l.body, var),
        _ => false,
    }
}

fn expr_reads_var(e: &Expr, var: &str) -> bool {
    match e {
        Expr::Var(n) => n == var,
        Expr::Unary(_, i) => expr_reads_var(i, var),
        Expr::Bin(_, a, b) => expr_reads_var(a, var) || expr_reads_var(b, var),
        _ => false,
    }
}

/// Do cold blocks (top-level statements after the loop) read the var?
fn routine_cold_reads_var(r: &Routine, var: &str) -> bool {
    r.body.iter().any(|s| match s {
        Stmt::Loop(_) => false,
        other => stmt_reads_var(other, var),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifko_hil::compile_frontend;

    fn lower_src(src: &str) -> KernelIr {
        let (r, info) = compile_frontend(src).unwrap();
        lower(&r, &info).unwrap()
    }

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
    fn dot_lowers_to_expected_shape() {
        let k = lower_src(DOT);
        assert_eq!(k.ptrs.len(), 2);
        assert_eq!(k.prec, Prec::D);
        let l = k.loop_.as_ref().unwrap();
        assert!(matches!(l.counter, Counter::Hidden { .. }));
        assert_eq!(l.bumps, vec![(PtrId(0), 1), (PtrId(1), 1)]);
        assert!(l.cold.is_empty());
        // Body: FLd x, FLd y, (FMov t, x; FMul t, y), FAdd dot += t.
        assert!(
            l.body
                .iter()
                .filter(|o| matches!(o, Op::FLd { .. }))
                .count()
                == 2
        );
        assert!(l
            .body
            .iter()
            .any(|o| matches!(o, Op::FBin { op: FOp::Mul, .. })));
        assert!(l
            .body
            .iter()
            .any(|o| matches!(o, Op::FBin { op: FOp::Add, .. })));
        assert!(matches!(k.ret, RetVal::F(_)));
    }

    #[test]
    fn tied_form_invariant_holds() {
        let k = lower_src(DOT);
        let l = k.loop_.as_ref().unwrap();
        for op in l.body.iter().chain(&k.pre).chain(&k.post) {
            if let Op::FBin { dst, a, .. } = op {
                assert_eq!(dst, a, "FBin must be in tied two-address form");
            }
        }
    }

    const AMAX: &str = r#"
ROUTINE iamax(X, N);
PARAMS :: X = DOUBLE_PTR, N = INT;
SCALARS :: amax = DOUBLE, imax = INT:OUT, x = DOUBLE;
ROUT_BEGIN
  amax = -1.0;
  imax = 0;
  !! TUNE LOOP
  LOOP i = N, 0, -1
  LOOP_BODY
    x = X[0];
    x = ABS x;
    IF (x > amax) GOTO NEWMAX;
  ENDOFLOOP:
    X += 1;
  LOOP_END
  RETURN imax;
NEWMAX:
  amax = x;
  imax = N - i;
  GOTO ENDOFLOOP;
ROUT_END
"#;

    #[test]
    fn amax_lowers_with_cold_block_and_visible_counter() {
        let k = lower_src(AMAX);
        let l = k.loop_.as_ref().unwrap();
        assert!(matches!(l.counter, Counter::Visible { down: true, .. }));
        assert!(
            !l.cold.is_empty(),
            "NEWMAX block must be attached as cold code"
        );
        assert!(matches!(l.cold[0], Op::Label(_)));
        assert!(matches!(l.cold.last(), Some(Op::Br(_))));
        assert!(l.body.iter().any(|o| matches!(o, Op::CondBr { .. })));
        assert!(matches!(k.ret, RetVal::I(_)));
        assert_eq!(l.bumps, vec![(PtrId(0), 1)]);
    }

    #[test]
    fn mid_body_bump_normalizes_offsets() {
        let src = r#"
ROUTINE f(X, Y, N);
PARAMS :: X = DOUBLE_PTR, Y = DOUBLE_PTR:OUT, N = INT;
SCALARS :: x = DOUBLE;
ROUT_BEGIN
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    X += 1;
    Y[0] = x;
    x = X[0];
    Y[1] = x;
    X += 1;
    Y += 2;
  LOOP_END
ROUT_END
"#;
        let k = lower_src(src);
        let l = k.loop_.as_ref().unwrap();
        // Loads at running offsets 0 and 1; stores at 0 and 1.
        let loads: Vec<i64> = l
            .body
            .iter()
            .filter_map(|o| match o {
                Op::FLd { mem, .. } => Some(mem.off_elems),
                _ => None,
            })
            .collect();
        assert_eq!(loads, vec![0, 1]);
        assert_eq!(l.bumps, vec![(PtrId(0), 2), (PtrId(1), 2)]);
        // No PtrBump ops remain inside the body.
        assert!(!l.body.iter().any(|o| matches!(o, Op::PtrBump { .. })));
    }

    #[test]
    fn upward_loop_reading_ivar_rejected() {
        let src = r#"
ROUTINE f(X, N);
PARAMS :: X = DOUBLE_PTR, N = INT;
SCALARS :: s = INT;
ROUT_BEGIN
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    s = i;
    X += 1;
  LOOP_END
ROUT_END
"#;
        let (r, info) = compile_frontend(src).unwrap();
        assert!(lower(&r, &info).is_err());
    }

    #[test]
    fn untagged_loop_rejected() {
        let src = r#"
ROUTINE f(X, N);
PARAMS :: X = DOUBLE_PTR, N = INT;
SCALARS :: x = DOUBLE;
ROUT_BEGIN
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    X += 1;
  LOOP_END
ROUT_END
"#;
        let (r, info) = compile_frontend(src).unwrap();
        assert!(lower(&r, &info).is_err());
    }

    #[test]
    fn noprefetch_markup_reaches_ptrinfo() {
        let src = r#"
!! NOPREFETCH X
ROUTINE f(X, N);
PARAMS :: X = DOUBLE_PTR, N = INT;
SCALARS :: x = DOUBLE;
ROUT_BEGIN
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    X += 1;
  LOOP_END
ROUT_END
"#;
        let k = lower_src(src);
        assert!(k.ptrs[0].no_prefetch);
    }
}
