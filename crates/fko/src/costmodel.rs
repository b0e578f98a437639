//! Static cost model: IR-level performance prediction (ROADMAP item 3).
//!
//! A pure static-analysis pass over the post-xform [`LinearKernel`] — no
//! simulation. From the hot loop's instruction mix, its latency-weighted
//! dependence chains (via the [`crate::dataflow`] framework), register
//! pressure from liveness, and per-iteration memory traffic held against
//! the [`MachineConfig`] cache geometry, it derives three classic bounds
//! per element — issue, recurrence latency, and memory bandwidth — and
//! takes their max as the roofline — plus, out of cache, the demand-miss
//! latency the prefetch stream and out-of-order window fail to cover.
//!
//! The paper's whole point is that such models *mispredict* — that is why
//! iFKO searches empirically. The model therefore decides nothing the
//! search evaluates. It has two readers: `ifko explain`'s predicted
//! cycles beside each measured probe (priced only for a trace sink), and
//! `ifko lint`'s `A1xx` advice ([`lint_costmodel`]). Predictions are
//! deterministic functions of the post-xform IR, so they are identical
//! across sessions, `--jobs` counts, and reruns.
//!
//! Deliberate flatness: prefetch kinds that fill the same cache level
//! predict identically (the model has no principled way to rank NTA
//! against T0), and so do unroll factors once every stream's lead fits
//! the out-of-order window — only L2-only kinds (exposed L1-miss fill),
//! under-covering leads (visible stall), and over-long leads (L1
//! occupancy) move the cost.

use crate::analysis::AnalysisReport;
use crate::dataflow::{self, build_cfg, liveness, per_op_live_out, BitVec};
use crate::diag::Diagnostic;
use crate::ir::*;
use crate::params::TransformParams;
use crate::verify::REGS_PER_CLASS;
use crate::xform::{apply_transforms, LinearKernel};
use ifko_xsim::MachineConfig;

/// Where the operands live when the kernel runs — the timing context the
/// prediction is asked for (paper §3: out-of-cache vs in-L2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Locality {
    /// Operands resident in L1 (no memory bound).
    L1,
    /// Operands resident in L2 (the paper's in-cache context).
    L2,
    /// Operands streamed from DRAM (the paper's out-of-cache context).
    Mem,
}

/// Everything the static pass derives for one candidate. All fields are
/// per *hot-loop iteration* unless suffixed otherwise; the `*_bound`
/// fields are cycles per element.
#[derive(Clone, Debug, PartialEq)]
pub struct CostPrediction {
    /// Elements consumed per hot-loop iteration (veclen × unroll).
    pub elems_per_iter: u64,
    /// Issued instructions in the hot body (labels excluded).
    pub body_insts: u64,
    /// Issued instructions in the whole program (loop-buffer residency).
    pub program_insts: u64,
    /// Element-flops (vector arithmetic counts veclen).
    pub flops: u64,
    /// Load instructions (including memory operands of arithmetic).
    pub loads: u64,
    /// Store instructions.
    pub stores: u64,
    /// Non-temporal store instructions (subset of `stores`).
    pub nt_stores: u64,
    /// Software prefetch instructions.
    pub prefetches: u64,
    /// Vector-width instructions.
    pub vector_ops: u64,
    /// Latency-weighted longest dependence chain through one body.
    pub critical_path: u64,
    /// Loop-carried recurrence: the longest latency chain that must
    /// complete serially before the next iteration's copy can start
    /// (max over carried vregs of their tied-update chains).
    pub recurrence: u64,
    /// Peak simultaneously-live integer vregs in the hot body.
    pub int_pressure: u32,
    /// Peak simultaneously-live FP/vector vregs in the hot body.
    pub fp_pressure: u32,
    /// Fresh bytes touched per hot-loop iteration (streaming footprint).
    pub footprint_bytes: u64,
    /// Cycles/elem the issue width allows (front-end bound).
    pub issue_bound: f64,
    /// Cycles/elem the loop-carried recurrence forces (latency bound).
    pub latency_bound: f64,
    /// Cycles/elem of bus occupancy with DRAM-resident operands.
    pub mem_bound: f64,
    /// Cycles/elem of L2 transfer (plus any non-temporal-store penalty
    /// for NT stores hitting cache-resident lines) with L2-resident
    /// operands.
    pub l2_bound: f64,
    /// Cycles/elem of demand-miss latency left visible with DRAM-resident
    /// operands: the pooled per-iteration exposure of read streams whose
    /// prefetch (if any) under-covers one memory latency of bus delivery,
    /// minus what the out-of-order window hides.
    pub mem_stall: f64,
    /// Cycles/elem of L1-occupancy penalty for prefetch leads past full
    /// latency coverage: the shortest covering lead ranks first.
    pub pf_overshoot: f64,
    /// Per-iteration footprint as a fraction of the L1 size.
    pub l1_footprint_ratio: f64,
}

impl CostPrediction {
    /// The model's headline number: the roofline max of the compute and
    /// transfer bounds for the given operand locality, plus — out of
    /// cache — the visible demand-miss stall and the prefetch-overshoot
    /// occupancy penalty.
    pub fn cycles_per_elem(&self, loc: Locality) -> f64 {
        let compute = self.issue_bound.max(self.latency_bound);
        match loc {
            Locality::L1 => compute,
            Locality::L2 => compute.max(self.l2_bound),
            Locality::Mem => compute.max(self.mem_bound) + self.mem_stall + self.pf_overshoot,
        }
    }

    /// Predicted total cycles for an N-element run (never zero, so a
    /// prediction can stand in anywhere a measured cycle count can).
    pub fn predicted_cycles(&self, n: u64, loc: Locality) -> u64 {
        (self.cycles_per_elem(loc) * n as f64).round().max(1.0) as u64
    }
}

/// Completion latency of one op on `m`, in cycles. Zero-latency entries
/// (labels, branches, prefetch hints) occupy issue slots (except labels)
/// but never extend a dependence chain.
fn op_latency(op: &Op, m: &MachineConfig) -> u64 {
    let mem_extra = |b: &RoM| match b {
        RoM::Mem(_) => m.l1.latency,
        RoM::Reg(_) => 0,
    };
    match op {
        Op::FLd { .. } | Op::FSpillLd { .. } | Op::ISpillLd { .. } => m.l1.latency,
        Op::FSt { .. } | Op::FSpillSt { .. } | Op::ISpillSt { .. } => 1,
        Op::FMov { .. } | Op::FAbs { .. } | Op::FConst { .. } | Op::FZero { .. } => m.fmov_lat,
        Op::FParamMov { .. } => m.fmov_lat,
        Op::FBin { op, b, .. } => {
            let base = match op {
                FOp::Add | FOp::Sub | FOp::Max => m.fadd_lat,
                FOp::Mul => m.fmul_lat,
                FOp::Div => m.fdiv_lat,
            };
            base + mem_extra(b)
        }
        Op::FSqrt { .. } => m.fdiv_lat,
        Op::FBcast { .. } => m.bcast_lat,
        Op::FHSum { .. } | Op::FHMax { .. } => m.hsum_lat,
        Op::FCmp { b, .. } => m.fcmp_lat + mem_extra(b),
        Op::IConst { .. }
        | Op::IMov { .. }
        | Op::IBin { .. }
        | Op::ICmp { .. }
        | Op::IDecFlags(_)
        | Op::IParamMov { .. }
        | Op::PtrBump { .. } => m.int_lat,
        Op::Label(_) | Op::Br(_) | Op::CondBr { .. } | Op::Prefetch { .. } => 0,
    }
}

/// Locate the hot loop: the op range `start..end` (end exclusive,
/// including the latch branch) of the most plausible steady-state loop.
/// Back edges are branches targeting an earlier label; among them, prefer
/// conditional latches whose body advances a pointer (this excludes the
/// cold out-of-line blocks, whose unconditional branches back into the
/// body would otherwise span nearly the whole program), then the largest
/// body, then the earliest (the unrolled main loop precedes the scalar
/// remainder). A loop-free program is its own "body".
fn hot_loop(ops: &[Op]) -> (usize, usize) {
    let mut label_at = Vec::new();
    dataflow::label_table(ops, |i| i, &mut label_at);
    // (is_cond && bumps, body length) ranking; strict improvement keeps
    // the earliest among equals.
    let mut best: Option<(bool, usize, usize)> = None; // (rank, len, start)
    for (i, op) in ops.iter().enumerate() {
        let (target, cond) = match op {
            Op::Br(l) => (l, false),
            Op::CondBr { target, .. } => (target, true),
            _ => continue,
        };
        let t = match label_at.get(target.0 as usize) {
            Some(&t) if t != dataflow::NONE => t,
            _ => continue,
        };
        if t > i {
            continue;
        }
        let body = &ops[t..=i];
        let bumps = body.iter().any(|o| matches!(o, Op::PtrBump { .. }));
        let rank = cond && bumps;
        let len = i + 1 - t;
        let better = match best {
            None => true,
            Some((br, bl, _)) => (rank, len) > (br, bl),
        };
        if better {
            best = Some((rank, len, t));
        }
    }
    match best {
        Some((_, len, start)) => (start, start + len),
        None => (0, ops.len()),
    }
}

/// Run the static pass over a post-xform kernel. Deterministic: the same
/// `lin`/`mach` always produce the identical prediction.
pub fn predict_lin(lin: &LinearKernel, m: &MachineConfig) -> CostPrediction {
    let ops = &lin.ops;
    let (start, end) = hot_loop(ops);
    let body = &ops[start..end];
    let eb = lin.prec.bytes();
    let veclen = lin.prec.veclen();

    // ---- instruction mix and per-pointer traffic ----
    #[derive(Default, Clone)]
    struct PtrAcc {
        bump: u64,
        read: bool,
        st: u64,
        nt: u64,
        pf_lead: Option<i64>,
        pf_l1: bool,
    }
    let mut ptrs = vec![PtrAcc::default(); lin.ptrs.len()];
    let touch_read = |ptrs: &mut Vec<PtrAcc>, mem: &MemRef| {
        if let Some(p) = ptrs.get_mut(mem.ptr.0 as usize) {
            p.read = true;
        }
    };
    let (mut insts, mut flops, mut loads, mut stores, mut nt_stores) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut prefetches, mut vector_ops) = (0u64, 0u64);
    for op in body {
        if matches!(op, Op::Label(_)) {
            continue;
        }
        insts += 1;
        let width_elems = |w: &Width| match w {
            Width::V => veclen,
            Width::S => 1,
        };
        match op {
            Op::FLd { mem, w, .. } => {
                loads += 1;
                touch_read(&mut ptrs, mem);
                if *w == Width::V {
                    vector_ops += 1;
                }
            }
            Op::FSt { mem, w, nt, .. } => {
                stores += 1;
                if *nt {
                    nt_stores += 1;
                }
                if *w == Width::V {
                    vector_ops += 1;
                }
                if let Some(p) = ptrs.get_mut(mem.ptr.0 as usize) {
                    p.st += 1;
                    if *nt {
                        p.nt += 1;
                    }
                }
            }
            Op::FBin { b, w, .. } => {
                flops += width_elems(w); // element-flops: one per lane
                if let RoM::Mem(mem) = b {
                    loads += 1;
                    touch_read(&mut ptrs, mem);
                }
                if *w == Width::V {
                    vector_ops += 1;
                }
            }
            Op::FCmp {
                b: RoM::Mem(mem), ..
            } => {
                loads += 1;
                touch_read(&mut ptrs, mem);
            }
            Op::FCmp { .. } => {}
            Op::FSqrt { .. } => flops += 1,
            Op::FAbs { w: Width::V, .. }
            | Op::FMov { w: Width::V, .. }
            | Op::FZero { w: Width::V, .. } => vector_ops += 1,
            Op::FAbs { .. } | Op::FMov { .. } | Op::FZero { .. } => {}
            Op::FHSum { .. } | Op::FHMax { .. } | Op::FBcast { .. } => vector_ops += 1,
            Op::Prefetch {
                ptr,
                dist_bytes,
                kind,
            } => {
                prefetches += 1;
                if let Some(p) = ptrs.get_mut(ptr.0 as usize) {
                    // Unrolled copies prefetch at `dist`, `dist+line`, ...:
                    // the *minimum* is the true lead of the stream.
                    p.pf_lead = Some(match p.pf_lead {
                        Some(d) => d.min(*dist_bytes),
                        None => *dist_bytes,
                    });
                    use ifko_xsim::PrefKind::*;
                    if matches!(kind, Nta | T0 | W) {
                        p.pf_l1 = true;
                    }
                }
            }
            Op::PtrBump { ptr, elems } => {
                if let Some(p) = ptrs.get_mut(ptr.0 as usize) {
                    p.bump = p.bump.max(elems.unsigned_abs());
                }
            }
            Op::FSpillLd { .. } | Op::ISpillLd { .. } => loads += 1,
            Op::FSpillSt { .. } | Op::ISpillSt { .. } => stores += 1,
            _ => {}
        }
    }
    let program_insts = ops.iter().filter(|o| !matches!(o, Op::Label(_))).count() as u64;

    // ---- elements per iteration ----
    let elems_per_iter = ptrs
        .iter()
        .map(|p| p.bump)
        .max()
        .filter(|&b| b > 0)
        .unwrap_or(1);

    // ---- critical path (straight-line approximation over the body) ----
    let nv = lin.vregs.len();
    let mut depth = vec![0u64; nv];
    let mut critical_path = 0u64;
    for op in body {
        let lat = op_latency(op, m);
        let mut d = 0u64;
        op.for_each_use(&mut |u| d = d.max(depth[u as usize]));
        let d = d + lat;
        critical_path = critical_path.max(d);
        if let Some(def) = op.def() {
            depth[def as usize] = d;
        }
    }

    // ---- loop-carried recurrence via liveness over the body CFG ----
    let body_cfg = build_cfg(body);
    let body_live = liveness(body, nv, &[], &body_cfg);
    let entry_live = &body_live.live_in[body_cfg.entry()];
    let mut defs = BitVec::empty(nv.max(1));
    for op in body {
        if let Some(d) = op.def() {
            defs.set(d as usize);
        }
    }
    let mut recurrence = 0u64;
    for v in entry_live.iter() {
        if !defs.get(v) {
            continue;
        }
        let chain: u64 = body
            .iter()
            .filter(|o| o.def() == Some(v as V) && o.reads(v as V))
            .map(|o| op_latency(o, m))
            .sum();
        recurrence = recurrence.max(chain);
    }

    // ---- register pressure from whole-program liveness ----
    let cfg = build_cfg(ops);
    let exit_live: Vec<V> = match lin.ret {
        RetVal::F(v) | RetVal::I(v) => vec![v],
        RetVal::None => vec![],
    };
    let live = liveness(ops, nv, &exit_live, &cfg);
    let per_op = per_op_live_out(ops, &cfg, &live);
    let (mut int_pressure, mut fp_pressure) = (0u32, 0u32);
    for live_out in per_op.iter().take(end).skip(start) {
        let (mut ip, mut fp) = (0u32, 0u32);
        for v in live_out.iter() {
            match lin.vregs[v] {
                VClass::Int => ip += 1,
                VClass::F | VClass::Vec => fp += 1,
            }
        }
        int_pressure = int_pressure.max(ip);
        fp_pressure = fp_pressure.max(fp);
    }

    // ---- memory traffic against the cache geometry ----
    let mut footprint_bytes = 0u64;
    let mut bus_bytes = 0f64;
    let mut nt_bytes = 0f64;
    for p in &ptrs {
        if p.bump == 0 {
            continue;
        }
        let bytes = p.bump * eb;
        footprint_bytes += bytes;
        let written = p.st > 0;
        let nt_frac = if p.st > 0 {
            p.nt as f64 / p.st as f64
        } else {
            0.0
        };
        // Reads (and the read-for-ownership of non-NT stores) plus the
        // eventual writeback.
        if p.read || (written && nt_frac < 1.0) {
            bus_bytes += bytes as f64;
        }
        if written {
            bus_bytes += bytes as f64;
            nt_bytes += bytes as f64 * nt_frac;
        }
    }
    let e = elems_per_iter as f64;
    let width = m.effective_width(program_insts as usize) as f64;
    let issue_bound = insts as f64 / width / e;
    let latency_bound = recurrence as f64 / e;
    let mem_bound = bus_bytes / m.bus.bytes_per_cycle / e;
    // L2-resident operands: transfer at roughly line-per-latency
    // bandwidth, plus the penalty NT stores pay on cache-resident lines.
    let l2_bpc = m.l1.line as f64 / m.l2.latency.max(1) as f64;
    let nt_pen = (nt_bytes / m.l1.line as f64) * m.nt_cached_penalty as f64;
    let l2_bound = (bus_bytes / l2_bpc + nt_pen) / e;

    // ---- uncovered demand-miss latency (DRAM-resident operands) ----
    // Per hot-loop iteration, each read stream misses on its fresh lines.
    // A software prefetch hides a line's `mem_lat` once it leads the
    // demand by the bytes the bus delivers in one memory latency; shorter
    // leads hide pro rata, and L2-only kinds (T1/T2) leave the L1-miss
    // fill from L2 exposed even at full lead. The out-of-order window
    // then hides up to `window_cycles` of the *pooled per-iteration*
    // exposure — which is why a small unroll with an under-covering lead
    // still streams smoothly (its per-iteration exposure fits the
    // window) while a large unroll takes the same total exposure in
    // window-overflowing bursts. Leads past full coverage buy nothing
    // and park extra lines in L1 (to-L1 kinds), so they carry a mild
    // occupancy penalty: the shortest covering lead ranks first.
    let full_cover_bytes = (m.mem_lat as f64 * m.bus.bytes_per_cycle).max(1.0);
    let line = m.l1.line as f64;
    let mut exposed_iter = 0.0;
    let mut pf_overshoot = 0.0;
    for p in &ptrs {
        if p.bump == 0 || !p.read {
            continue;
        }
        let lines_per_iter = (p.bump * eb) as f64 / line;
        let (cover, fill_lat) = match p.pf_lead {
            None => (0.0, 0.0),
            Some(d) => (
                (d.max(0) as f64 / full_cover_bytes).min(1.0),
                if p.pf_l1 { 0.0 } else { m.l2.latency as f64 },
            ),
        };
        exposed_iter += lines_per_iter * ((1.0 - cover) * m.mem_lat as f64 + cover * fill_lat);
        if p.pf_l1 {
            let extra = (p.pf_lead.unwrap_or(0) as f64 - full_cover_bytes).max(0.0);
            pf_overshoot += extra / m.l1.size as f64 * m.l1.latency as f64;
        }
    }
    let mem_stall = (exposed_iter - m.window_cycles as f64).max(0.0) / e;

    CostPrediction {
        elems_per_iter,
        body_insts: insts,
        program_insts,
        flops,
        loads,
        stores,
        nt_stores,
        prefetches,
        vector_ops,
        critical_path,
        recurrence,
        int_pressure,
        fp_pressure,
        footprint_bytes,
        issue_bound,
        latency_bound,
        mem_bound,
        l2_bound,
        mem_stall,
        pf_overshoot,
        l1_footprint_ratio: footprint_bytes as f64 / m.l1.size.max(1) as f64,
    }
}

/// The largest unroll factor the model expects to stay profitable: the
/// unrolled body must fit the machine's full-issue loop buffer and its
/// per-iteration footprint must stay within an eighth of L1 (leaving room
/// for the prefetch stream). `unit` must be a prediction at `unroll = 1`,
/// `accum_expand = 1`.
pub fn unroll_cap(unit: &CostPrediction, m: &MachineConfig) -> u32 {
    let per_copy_insts = unit.body_insts.max(1);
    let cap_buffer = (m.loop_buffer_insts as u64 / per_copy_insts).max(1);
    let per_copy_bytes = unit.footprint_bytes.max(1);
    let cap_l1 = ((m.l1.size / 8) / per_copy_bytes).max(1);
    cap_buffer.min(cap_l1).min(u32::MAX as u64) as u32
}

/// Cost-model-backed lint advice for `ifko lint` (stable `A1xx` codes,
/// continuing [`crate::verify::lint_analysis`]'s table; all notes —
/// predictions advise, they never reject).
///
/// | code | severity | meaning |
/// |------|----------|---------|
/// | A105 | note | predicted register pressure at defaults exceeds the register file |
/// | A106 | note | unroll×vector footprint overflows the loop buffer or L1 before the analysis cap |
/// | A107 | note | accumulator-chain latency bound dominates at defaults — raise AE |
/// | A108 | note | memory-bound out of cache — prefetch/WNT tuning dominates |
pub fn lint_costmodel(k: &KernelIr, rep: &AnalysisReport, mach: &MachineConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !rep.has_tuned_loop {
        return diags; // A100 already covers this
    }
    let at = |d: Diagnostic| {
        if rep.loop_line != 0 {
            d.at_line(rep.loop_line)
        } else {
            d
        }
    };
    let defaults = TransformParams::defaults(rep, mach);
    let Ok(lin) = apply_transforms(k, &defaults, rep) else {
        return diags;
    };
    let pred = predict_lin(&lin, mach);

    let pressure = pred.int_pressure.max(pred.fp_pressure);
    if pressure as usize > REGS_PER_CLASS {
        diags.push(at(Diagnostic::note(
            "A105",
            "costmodel",
            format!(
                "predicted register pressure at defaults ({pressure} live values) \
                 exceeds the {REGS_PER_CLASS} architectural registers per class: \
                 expect spill traffic"
            ),
        )));
    }

    let mut unit = defaults.clone();
    unit.unroll = 1;
    unit.accum_expand = 1;
    if let Ok(unit_lin) = apply_transforms(k, &unit, rep) {
        let u = predict_lin(&unit_lin, mach);
        let cap = unroll_cap(&u, mach);
        if cap < rep.max_unroll {
            diags.push(at(Diagnostic::note(
                "A106",
                "costmodel",
                format!(
                    "unroll beyond ~{cap} overflows the machine's fast-issue loop \
                     buffer ({} insts) or L1 working set on {}: the analysis cap of \
                     {} is not reachable profitably",
                    mach.loop_buffer_insts, mach.name, rep.max_unroll
                ),
            )));
        }
    }

    if pred.latency_bound > pred.issue_bound && !rep.ae_candidates.is_empty() {
        diags.push(at(Diagnostic::note(
            "A107",
            "costmodel",
            format!(
                "accumulator-chain latency bound dominates at defaults \
                 ({:.2} vs {:.2} cycles/elem issue): raise accumulator expansion",
                pred.latency_bound, pred.issue_bound
            ),
        )));
    }

    if pred.mem_bound > pred.issue_bound.max(pred.latency_bound) {
        diags.push(at(Diagnostic::note(
            "A108",
            "costmodel",
            format!(
                "predicted memory-bound out of cache ({:.2} cycles/elem of bus \
                 transfer vs {:.2} compute): prefetch and non-temporal-store \
                 tuning should dominate",
                pred.mem_bound,
                pred.issue_bound.max(pred.latency_bound)
            ),
        )));
    }
    diags
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

    fn setup(src: &str, mach: &MachineConfig) -> (KernelIr, AnalysisReport) {
        let (r, info) = compile_frontend(src).unwrap();
        let k = lower(&r, &info).unwrap();
        let rep = analyze(&k, mach);
        (k, rep)
    }

    fn predict(src: &str, p: &TransformParams, mach: &MachineConfig) -> CostPrediction {
        let (k, rep) = setup(src, mach);
        let lin = apply_transforms(&k, p, &rep).unwrap();
        predict_lin(&lin, mach)
    }

    #[test]
    fn dot_defaults_shape() {
        let m = p4e();
        let (_, rep) = setup(DOT, &m);
        let p = TransformParams::defaults(&rep, &m);
        let pred = predict(DOT, &p, &m);
        // SV(veclen 2) x UR 8 = 16 elements per hot iteration.
        assert_eq!(pred.elems_per_iter, 16);
        assert!(pred.body_insts > 0);
        // dot reads two streams: 16 bytes/elem of bus traffic.
        assert!((pred.mem_bound - 16.0 / m.bus.bytes_per_cycle).abs() < 1e-9);
        // One tied add per unroll copy: 8 x fadd_lat cycles of recurrence.
        assert_eq!(pred.recurrence, 8 * m.fadd_lat);
        assert!((pred.latency_bound - (8 * m.fadd_lat) as f64 / 16.0).abs() < 1e-9);
        // Streaming dot out of cache is memory-bound on the P4E.
        assert!(pred.mem_bound > pred.issue_bound.max(pred.latency_bound));
        assert!(pred.cycles_per_elem(Locality::Mem) > pred.cycles_per_elem(Locality::L1));
        assert!(pred.predicted_cycles(1000, Locality::Mem) >= 1000);
    }

    #[test]
    fn accumulator_expansion_cuts_the_recurrence() {
        let m = p4e();
        let (_, rep) = setup(DOT, &m);
        let base = TransformParams::defaults(&rep, &m);
        let mut ae4 = base.clone();
        ae4.accum_expand = 4;
        let p1 = predict(DOT, &base, &m);
        let p4 = predict(DOT, &ae4, &m);
        assert!(
            p4.recurrence < p1.recurrence,
            "{} vs {}",
            p4.recurrence,
            p1.recurrence
        );
        assert!(p4.latency_bound < p1.latency_bound);
        // In L1 (no memory bound) the model must prefer AE.
        assert!(p4.cycles_per_elem(Locality::L1) <= p1.cycles_per_elem(Locality::L1));
    }

    #[test]
    fn huge_unroll_hits_the_issue_cliff_on_p4e() {
        let m = p4e();
        let (_, rep) = setup(DOT, &m);
        let mut small = TransformParams::defaults(&rep, &m);
        small.prefetch.clear();
        let mut big = small.clone();
        big.unroll = 128;
        let ps = predict(DOT, &small, &m);
        let pb = predict(DOT, &big, &m);
        // 128 unrolled copies overflow the 256-inst trace buffer: issue
        // width collapses and the model must see it.
        assert!(pb.program_insts as usize > m.loop_buffer_insts);
        assert!(pb.issue_bound > ps.issue_bound);
    }

    #[test]
    fn prefetch_distance_saturates_at_latency_coverage() {
        let m = p4e();
        let (_, rep) = setup(DOT, &m);
        // The 128-byte default lead covers only part of one memory
        // latency of bus delivery: some demand-miss stall stays exposed.
        let base = TransformParams::defaults(&rep, &m);
        let dist = |d: i64| {
            let mut p = base.clone();
            for s in &mut p.prefetch {
                s.dist = d;
            }
            predict(DOT, &p, &m)
        };
        let short = dist(128);
        let covered = dist(512);
        let far = dist(1024);
        assert!(short.mem_stall > 0.0);
        assert!(
            short.cycles_per_elem(Locality::Mem) > covered.cycles_per_elem(Locality::Mem),
            "an under-covering lead must predict worse than a covering one"
        );
        // Once the lead covers a full latency the stall is gone; past
        // that point longer leads only burn L1 occupancy, so the far end
        // of a PF DST sweep ranks strictly worse than the shortest
        // covering lead.
        assert_eq!(covered.mem_stall, 0.0);
        assert_eq!(far.mem_stall, 0.0);
        assert!(far.pf_overshoot > covered.pf_overshoot);
        assert!(
            far.cycles_per_elem(Locality::Mem) > covered.cycles_per_elem(Locality::Mem),
            "an over-long lead must rank behind the shortest covering one"
        );
        assert!(short.cycles_per_elem(Locality::Mem) > far.cycles_per_elem(Locality::Mem));
        // No prefetch at all exposes the full stall on both streams and
        // must rank worst of the lot.
        let mut none = base.clone();
        none.prefetch.clear();
        let pn = predict(DOT, &none, &m);
        assert!(pn.mem_stall > short.mem_stall);
        assert!(pn.cycles_per_elem(Locality::Mem) > short.cycles_per_elem(Locality::Mem));
        // Prefetch *kind* stays flat by design.
        let mut t0 = base.clone();
        for s in &mut t0.prefetch {
            s.kind = Some(ifko_xsim::PrefKind::T0);
        }
        let pk = predict(DOT, &t0, &m);
        assert_eq!(
            pk.cycles_per_elem(Locality::Mem),
            predict(DOT, &base, &m).cycles_per_elem(Locality::Mem)
        );
    }

    #[test]
    fn lint_flags_pressure_latency_and_memory() {
        // Ten independent accumulators: live across the back edge, so
        // predicted FP pressure exceeds the 8-register file.
        let many = r#"
ROUTINE many(X, N);
PARAMS :: X = DOUBLE_PTR, N = INT;
SCALARS :: s0 = DOUBLE:OUT, s1 = DOUBLE, s2 = DOUBLE, s3 = DOUBLE, s4 = DOUBLE, s5 = DOUBLE, s6 = DOUBLE, s7 = DOUBLE, s8 = DOUBLE, s9 = DOUBLE, x = DOUBLE;
ROUT_BEGIN
  s0 = 0.0; s1 = 0.0; s2 = 0.0; s3 = 0.0; s4 = 0.0;
  s5 = 0.0; s6 = 0.0; s7 = 0.0; s8 = 0.0; s9 = 0.0;
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    s0 += x; s1 += x; s2 += x; s3 += x; s4 += x;
    s5 += x; s6 += x; s7 += x; s8 += x; s9 += x;
    X += 1;
  LOOP_END
  RETURN s0;
ROUT_END
"#;
        let m = p4e();
        let (k, rep) = setup(many, &m);
        let codes: Vec<String> = lint_costmodel(&k, &rep, &m)
            .iter()
            .map(|d| d.code.to_string())
            .collect();
        assert!(codes.contains(&"A105".to_string()), "{codes:?}");

        // ddot on the P4E: recurrence-bound at defaults (A107), memory
        // bound out of cache (A108), and the trace buffer caps unrolling
        // before the analysis' max (A106).
        let (k, rep) = setup(DOT, &m);
        let codes: Vec<String> = lint_costmodel(&k, &rep, &m)
            .iter()
            .map(|d| d.code.to_string())
            .collect();
        assert!(codes.contains(&"A106".to_string()), "{codes:?}");
        assert!(codes.contains(&"A107".to_string()), "{codes:?}");
        assert!(codes.contains(&"A108".to_string()), "{codes:?}");
    }

    #[test]
    fn no_tuned_loop_is_silent() {
        let src = r#"
ROUTINE nada(X, N);
PARAMS :: X = DOUBLE_PTR:INOUT, N = INT;
SCALARS :: x = DOUBLE;
ROUT_BEGIN
  x = X[0];
  X[0] = x;
ROUT_END
"#;
        let m = p4e();
        let (k, rep) = setup(src, &m);
        assert!(lint_costmodel(&k, &rep, &m).is_empty());
    }
}
