//! End-to-end tests of the simulated CPU: hand-assembled programs whose
//! functional results and timing behaviour are both checked.

use ifko_xsim::isa::Inst::*;
use ifko_xsim::{
    opteron, p4e, Addr, Asm, Cond, Cpu, FReg, IReg, Inst, Memory, Prec, PrefKind, RegOrMem,
};

const X: IReg = IReg(0);
const Y: IReg = IReg(1);
const N: IReg = IReg(2);
const T0: FReg = FReg(0);
const T1: FReg = FReg(1);

fn mem_with_vec(n: usize) -> (Memory, u64, u64) {
    let mut m = Memory::new(8 << 20);
    let x = m.alloc_vector(n as u64, 8);
    let y = m.alloc_vector(n as u64, 8);
    let xs: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let ys: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.25).collect();
    m.store_f64_slice(x, &xs).unwrap();
    m.store_f64_slice(y, &ys).unwrap();
    (m, x, y)
}

/// Scalar ddot loop: dot += x[i]*y[i].
fn ddot_prog(unroll: usize) -> ifko_xsim::Program {
    let mut a = Asm::new();
    a.push(FZero(FReg(7)));
    let top = a.here();
    for u in 0..unroll {
        let off = (u * 8) as i64;
        a.push(FLd(T0, Addr::base_disp(X, off), Prec::D));
        a.push(FMul(T0, RegOrMem::Mem(Addr::base_disp(Y, off)), Prec::D));
        a.push(FAdd(FReg(7), RegOrMem::Reg(T0), Prec::D));
    }
    a.push(IAddImm(X, (unroll * 8) as i64));
    a.push(IAddImm(Y, (unroll * 8) as i64));
    a.push(ISubImm(N, unroll as i64));
    a.push(ICmpImm(N, 0));
    a.push(Jcc(Cond::Gt, top));
    a.push(Halt);
    a.finish()
}

fn run_ddot(cpu: &mut Cpu, n: usize, unroll: usize) -> (f64, ifko_xsim::RunStats) {
    let (mut m, x, y) = mem_with_vec(n);
    let expected: f64 = {
        let xs = m.load_f64_slice(x, n).unwrap();
        let ys = m.load_f64_slice(y, n).unwrap();
        xs.iter().zip(&ys).map(|(a, b)| a * b).sum()
    };
    cpu.set_ireg(X, x as i64);
    cpu.set_ireg(Y, y as i64);
    cpu.set_ireg(N, n as i64);
    let stats = cpu.run(&ddot_prog(unroll), &mut m).unwrap();
    let got = cpu.freg_f64(FReg(7));
    assert!(
        (got - expected).abs() < 1e-9,
        "dot result {got} != {expected}"
    );
    (got, stats)
}

#[test]
fn ddot_functional_and_counts() {
    let mut cpu = Cpu::new(p4e());
    cpu.flush_caches();
    let (_, s) = run_ddot(&mut cpu, 1024, 1);
    assert_eq!(s.loads, 2048);
    assert!(s.cycles > 0);
    assert!(
        s.l1_misses >= 2 * 1024 / 8,
        "cold caches must miss per line"
    );
}

#[test]
fn unrolling_reduces_dynamic_instructions() {
    let mut c1 = Cpu::new(p4e());
    c1.flush_caches();
    let (_, s1) = run_ddot(&mut c1, 1024, 1);
    let mut c4 = Cpu::new(p4e());
    c4.flush_caches();
    let (_, s4) = run_ddot(&mut c4, 1024, 4);
    assert!(s4.insts < s1.insts, "unroll 4 executes fewer instructions");
}

#[test]
fn warm_cache_is_faster_than_cold() {
    let n = 2048;
    let mut cold = Cpu::new(p4e());
    cold.flush_caches();
    let (_, sc) = run_ddot(&mut cold, n, 1);

    let mut warm = Cpu::new(p4e());
    warm.flush_caches();
    // Preload both vectors into L2.
    let (m, x, _y) = mem_with_vec(n);
    drop(m);
    warm.preload_l2(x, (2 * n * 8) as u64 + 4096);
    let (_, sw) = run_ddot(&mut warm, n, 1);
    // Simple scalar unroll-1 code is issue-stall bound either way (the
    // hardware stream prefetcher streams the cold data), so the gap here is
    // modest; tuned-code in-L2 speedups are exercised at the harness level.
    assert!(
        sw.cycles < sc.cycles,
        "in-L2 ({}) should beat cold ({})",
        sw.cycles,
        sc.cycles
    );
    assert_eq!(sw.l2_misses, 0, "preloaded run must not miss L2");
    assert!(
        sw.bus_read_bytes < sc.bus_read_bytes / 4,
        "warm run uses far less bus"
    );
}

/// Prefetched ddot: adds prefetchnta of X and Y `dist` bytes ahead, one per
/// line per iteration group of 8 doubles.
fn ddot_prefetch_prog(dist: i64, kind: PrefKind) -> ifko_xsim::Program {
    let mut a = Asm::new();
    a.push(FZero(FReg(7)));
    let top = a.here();
    a.push(Inst::Prefetch(Addr::base_disp(X, dist), kind));
    a.push(Inst::Prefetch(Addr::base_disp(Y, dist), kind));
    for u in 0..8 {
        let off = (u * 8) as i64;
        a.push(FLd(T0, Addr::base_disp(X, off), Prec::D));
        a.push(FMul(T0, RegOrMem::Mem(Addr::base_disp(Y, off)), Prec::D));
        a.push(FAdd(FReg(7), RegOrMem::Reg(T0), Prec::D));
    }
    a.push(IAddImm(X, 64));
    a.push(IAddImm(Y, 64));
    a.push(ISubImm(N, 8));
    a.push(ICmpImm(N, 0));
    a.push(Jcc(Cond::Gt, top));
    a.push(Halt);
    a.finish()
}

#[test]
fn prefetch_helps_out_of_cache() {
    let n = 8192;
    let (mut m, x, y) = mem_with_vec(n);
    let mut base = Cpu::new(p4e());
    base.flush_caches();
    base.set_ireg(X, x as i64);
    base.set_ireg(Y, y as i64);
    base.set_ireg(N, n as i64);
    let s0 = base.run(&ddot_prog(8), &mut m).unwrap();

    let mut pf = Cpu::new(p4e());
    pf.flush_caches();
    pf.set_ireg(X, x as i64);
    pf.set_ireg(Y, y as i64);
    pf.set_ireg(N, n as i64);
    let s1 = pf
        .run(&ddot_prefetch_prog(256, PrefKind::Nta), &mut m)
        .unwrap();
    assert!(
        s1.cycles < s0.cycles * 3 / 4,
        "prefetch ({}) should beat no-prefetch ({}) by >25%",
        s1.cycles,
        s0.cycles
    );
    assert!(s1.prefetch_issued > 0);
}

#[test]
fn prefetch_distance_has_interior_optimum() {
    let n = 8192;
    let cycles_at = |dist: i64| {
        let (mut m, x, y) = mem_with_vec(n);
        let mut cpu = Cpu::new(p4e());
        cpu.flush_caches();
        cpu.set_ireg(X, x as i64);
        cpu.set_ireg(Y, y as i64);
        cpu.set_ireg(N, n as i64);
        cpu.run(&ddot_prefetch_prog(dist, PrefKind::Nta), &mut m)
            .unwrap()
            .cycles
    };
    let near = cycles_at(64);
    let mid = cycles_at(256);
    let huge = cycles_at(12 * 1024); // beyond L1 capacity for 2 streams
    assert!(
        mid < near,
        "mid-distance ({mid}) should beat too-near ({near})"
    );
    assert!(
        mid < huge,
        "mid-distance ({mid}) should beat too-far ({huge})"
    );
}

#[test]
fn vectorized_dot_matches_scalar_and_is_faster_in_cache() {
    let n = 4096usize;
    let (mut m, x, y) = mem_with_vec(n);
    let expected: f64 = {
        let xs = m.load_f64_slice(x, n).unwrap();
        let ys = m.load_f64_slice(y, n).unwrap();
        xs.iter().zip(&ys).map(|(a, b)| a * b).sum()
    };

    // Vector version: 2 doubles per iteration.
    let mut a = Asm::new();
    a.push(FZero(FReg(7)));
    let top = a.here();
    a.push(VLd(T0, Addr::base(X), Prec::D, true));
    a.push(VMul(T0, RegOrMem::Mem(Addr::base(Y)), Prec::D));
    a.push(VAdd(FReg(7), RegOrMem::Reg(T0), Prec::D));
    a.push(IAddImm(X, 16));
    a.push(IAddImm(Y, 16));
    a.push(ISubImm(N, 2));
    a.push(ICmpImm(N, 0));
    a.push(Jcc(Cond::Gt, top));
    a.push(VHSum(T1, FReg(7), Prec::D));
    a.push(Halt);
    let vprog = a.finish();

    let mut vc = Cpu::new(p4e());
    vc.preload_all(x, (2 * n * 8) as u64 + 4096);
    vc.set_ireg(X, x as i64);
    vc.set_ireg(Y, y as i64);
    vc.set_ireg(N, n as i64);
    let sv = vc.run(&vprog, &mut m).unwrap();
    let got = vc.freg_f64(T1);
    assert!((got - expected).abs() < 1e-9);

    let mut sc = Cpu::new(p4e());
    sc.preload_all(x, (2 * n * 8) as u64 + 4096);
    sc.set_ireg(X, x as i64);
    sc.set_ireg(Y, y as i64);
    sc.set_ireg(N, n as i64);
    let ss = sc.run(&ddot_prog(1), &mut m).unwrap();
    assert!(
        sv.cycles * 3 < ss.cycles * 2,
        "in-cache SIMD ({}) should be at least 1.5x scalar ({})",
        sv.cycles,
        ss.cycles
    );
}

#[test]
fn accumulator_expansion_breaks_dependence_chain_in_cache() {
    // asum-like: sum += x[i], all in L1 (8 KB fits the 16 KB P4E L1). One
    // accumulator serializes on fadd_lat; four break the chain.
    let n = 1024usize;
    let build = |nacc: usize| {
        let mut a = Asm::new();
        for k in 0..nacc {
            a.push(FZero(FReg(4 + k as u8)));
        }
        let top = a.here();
        for k in 0..nacc {
            a.push(FAdd(
                FReg(4 + k as u8),
                RegOrMem::Mem(Addr::base_disp(X, (k * 8) as i64)),
                Prec::D,
            ));
        }
        a.push(IAddImm(X, (nacc * 8) as i64));
        a.push(ISubImm(N, nacc as i64));
        a.push(ICmpImm(N, 0));
        a.push(Jcc(Cond::Gt, top));
        for k in 1..nacc {
            a.push(FAdd(FReg(4), RegOrMem::Reg(FReg(4 + k as u8)), Prec::D));
        }
        a.push(Halt);
        a.finish()
    };
    let run = |nacc: usize| {
        let (mut m, x, _) = mem_with_vec(n);
        let mut cpu = Cpu::new(p4e());
        cpu.preload_all(x, (n * 8) as u64);
        cpu.set_ireg(X, x as i64);
        cpu.set_ireg(N, n as i64);
        let s = cpu.run(&build(nacc), &mut m).unwrap();
        let expected: f64 = m.load_f64_slice(x, n).unwrap().iter().sum();
        assert!((cpu.freg_f64(FReg(4)) - expected).abs() < 1e-9);
        s.cycles
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four * 2 < one,
        "4 accumulators ({four}) should be >2x faster than 1 ({one}) in-cache"
    );
}

#[test]
fn nt_store_to_read_line_penalized_on_opteron_not_p4e() {
    // swap-like single-array pattern: read x[i], write x[i] with NT store.
    let n = 4096usize;
    let prog = {
        let mut a = Asm::new();
        let top = a.here();
        a.push(FLd(T0, Addr::base(X), Prec::D));
        a.push(FAdd(T0, RegOrMem::Reg(T0), Prec::D));
        a.push(FStNt(Addr::base(X), T0, Prec::D));
        a.push(IAddImm(X, 8));
        a.push(ISubImm(N, 1));
        a.push(ICmpImm(N, 0));
        a.push(Jcc(Cond::Gt, top));
        a.push(Halt);
        a.finish()
    };
    let normal_prog = {
        let mut a = Asm::new();
        let top = a.here();
        a.push(FLd(T0, Addr::base(X), Prec::D));
        a.push(FAdd(T0, RegOrMem::Reg(T0), Prec::D));
        a.push(FSt(Addr::base(X), T0, Prec::D));
        a.push(IAddImm(X, 8));
        a.push(ISubImm(N, 1));
        a.push(ICmpImm(N, 0));
        a.push(Jcc(Cond::Gt, top));
        a.push(Halt);
        a.finish()
    };
    let run = |machine: ifko_xsim::MachineConfig, p: &ifko_xsim::Program| {
        let (mut m, x, _) = mem_with_vec(n);
        let mut cpu = Cpu::new(machine);
        cpu.flush_caches();
        cpu.set_ireg(X, x as i64);
        cpu.set_ireg(N, n as i64);
        cpu.run(p, &mut m).unwrap().cycles
    };
    let opt_nt = run(opteron(), &prog);
    let opt_st = run(opteron(), &normal_prog);
    assert!(
        opt_nt > opt_st * 2,
        "Opteron: NT store to read-write operand ({opt_nt}) must be much slower than normal ({opt_st})"
    );
    let p4_nt = run(p4e(), &prog);
    let p4_st = run(p4e(), &normal_prog);
    // At this size the plain P4E version's dirty lines are absorbed by L2,
    // so NT pays real write traffic the plain version defers; the claim is
    // architectural: the read-write NT *penalty ratio* is far worse on the
    // Opteron than on the P4E.
    let ratio_opt = opt_nt as f64 / opt_st as f64;
    let ratio_p4 = p4_nt as f64 / p4_st as f64;
    assert!(
        ratio_opt > 2.0 * ratio_p4,
        "NT penalty must be architecture-specific: opteron {ratio_opt:.2}x vs p4e {ratio_p4:.2}x"
    );
    assert!(
        ratio_p4 < 1.6,
        "P4E NT ratio should stay moderate ({ratio_p4:.2}x)"
    );
}

#[test]
fn nt_store_saves_rfo_traffic_for_write_only_stream() {
    // copy-like: read x, write y, with x prefetched (as tuned code would
    // be) so the loop is bus-bound. NT on y halves y's bus traffic by
    // skipping the read-for-ownership + writeback. The working set
    // (2 x 512 KB) exceeds L2, so the plain version really pays writebacks
    // — the paper's out-of-cache regime.
    let n = 65536usize;
    let build = |nt: bool| {
        let mut a = Asm::new();
        let top = a.here();
        a.push(Inst::Prefetch(Addr::base_disp(X, 1024), PrefKind::Nta));
        for u in 0..8 {
            let off = (u * 8) as i64;
            a.push(FLd(T0, Addr::base_disp(X, off), Prec::D));
            if nt {
                a.push(FStNt(Addr::base_disp(Y, off), T0, Prec::D));
            } else {
                a.push(FSt(Addr::base_disp(Y, off), T0, Prec::D));
            }
        }
        a.push(IAddImm(X, 64));
        a.push(IAddImm(Y, 64));
        a.push(ISubImm(N, 8));
        a.push(ICmpImm(N, 0));
        a.push(Jcc(Cond::Gt, top));
        a.push(Halt);
        a.finish()
    };
    let run = |nt: bool| {
        let (mut m, x, y) = mem_with_vec(n);
        let mut cpu = Cpu::new(p4e());
        cpu.flush_caches();
        cpu.set_ireg(X, x as i64);
        cpu.set_ireg(Y, y as i64);
        cpu.set_ireg(N, n as i64);
        let s = cpu.run(&build(nt), &mut m).unwrap();
        // Functional check: y == x afterwards.
        assert_eq!(
            m.load_f64_slice(y, n).unwrap(),
            m.load_f64_slice(x, n).unwrap()
        );
        s
    };
    let plain = run(false);
    let nt = run(true);
    assert!(
        nt.bus_read_bytes < plain.bus_read_bytes,
        "NT copy reads less ({} vs {})",
        nt.bus_read_bytes,
        plain.bus_read_bytes
    );
    assert!(
        nt.cycles < plain.cycles,
        "NT copy faster ({} vs {})",
        nt.cycles,
        plain.cycles
    );
}

#[test]
fn branchy_max_search_works_and_mispredicts() {
    // iamax-like: track max of x with a data-dependent branch.
    let n = 1000usize;
    let mut m = Memory::new(1 << 20);
    let x = m.alloc_vector(n as u64, 8);
    let xs: Vec<f64> = (0..n).map(|i| ((i * 37 % 101) as f64) - 50.0).collect();
    m.store_f64_slice(x, &xs).unwrap();
    let expected = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    let mut a = Asm::new();
    a.push(FLdImm(FReg(6), f64::NEG_INFINITY, Prec::D));
    let top = a.new_label();
    let skip = a.new_label();
    a.bind(top);
    a.push(FLd(T0, Addr::base(X), Prec::D));
    a.push(FCmp(T0, RegOrMem::Reg(FReg(6)), Prec::D));
    a.push(Jcc(Cond::Le, skip));
    a.push(FMov(FReg(6), T0, Prec::D));
    a.bind(skip);
    a.push(IAddImm(X, 8));
    a.push(ISubImm(N, 1));
    a.push(ICmpImm(N, 0));
    a.push(Jcc(Cond::Gt, top));
    a.push(Halt);
    let prog = a.finish();

    let mut cpu = Cpu::new(opteron());
    cpu.preload_all(x, (n * 8) as u64);
    cpu.set_ireg(X, x as i64);
    cpu.set_ireg(N, n as i64);
    let s = cpu.run(&prog, &mut m).unwrap();
    assert_eq!(cpu.freg_f64(FReg(6)), expected);
    assert!(
        s.mispredicts > 0,
        "data-dependent branch must mispredict sometimes"
    );
}

#[test]
fn vcmp_movmsk_detects_lanes() {
    let mut m = Memory::new(1 << 16);
    let x = m.alloc_vector(4, 8);
    m.store_f64_slice(x, &[1.0, 5.0]).unwrap();
    let mut a = Asm::new();
    a.push(FLdImm(T1, 3.0, Prec::D));
    a.push(VBcast(T1, T1, Prec::D));
    a.push(VLd(T0, Addr::base(X), Prec::D, true));
    a.push(VCmpGt(T0, RegOrMem::Reg(T1), Prec::D));
    a.push(VMovMsk(IReg(5), T0, Prec::D));
    a.push(Halt);
    let mut cpu = Cpu::new(p4e());
    cpu.set_ireg(X, x as i64);
    cpu.run(&a.finish(), &mut m).unwrap();
    // lane0: 1.0 > 3.0 false; lane1: 5.0 > 3.0 true => mask = 0b10.
    assert_eq!(cpu.ireg(IReg(5)), 0b10);
}

#[test]
fn inst_limit_catches_runaway() {
    let mut a = Asm::new();
    let top = a.here();
    a.push(Jmp(top));
    let prog = a.finish();
    let mut cpu = Cpu::new(p4e());
    cpu.set_inst_limit(10_000);
    let mut m = Memory::new(4096);
    let err = cpu.run(&prog, &mut m).unwrap_err();
    assert!(matches!(err, ifko_xsim::RunError::InstLimit { .. }));
}

#[test]
fn memory_fault_reported() {
    let mut a = Asm::new();
    a.push(FLd(T0, Addr::base_disp(X, 0), Prec::D));
    a.push(Halt);
    let prog = a.finish();
    let mut cpu = Cpu::new(p4e());
    cpu.set_ireg(X, 0); // below base
    let mut m = Memory::new(4096);
    assert!(matches!(
        cpu.run(&prog, &mut m),
        Err(ifko_xsim::RunError::Fault(_))
    ));
}

#[test]
fn single_precision_vector_arithmetic_uses_f32_rounding() {
    let mut m = Memory::new(1 << 16);
    let x = m.alloc_vector(4, 4);
    let y = m.alloc_vector(4, 4);
    let xs = [0.1f32, 0.2, 0.3, 0.4];
    let ys = [1.0f32, 2.0, 3.0, 4.0];
    m.store_f32_slice(x, &xs).unwrap();
    m.store_f32_slice(y, &ys).unwrap();
    let mut a = Asm::new();
    a.push(VLd(T0, Addr::base(X), Prec::S, true));
    a.push(VMul(T0, RegOrMem::Mem(Addr::base(Y)), Prec::S));
    a.push(VSt(Addr::base(X), T0, Prec::S, true));
    a.push(Halt);
    let mut cpu = Cpu::new(p4e());
    cpu.set_ireg(X, x as i64);
    cpu.set_ireg(Y, y as i64);
    cpu.run(&a.finish(), &mut m).unwrap();
    let got = m.load_f32_slice(x, 4).unwrap();
    for i in 0..4 {
        assert_eq!(got[i], xs[i] * ys[i], "lane {i} must use f32 arithmetic");
    }
}

#[test]
fn mem_operand_form_saves_instructions_and_time_in_cache() {
    // CISC peephole payoff: fmul with memory operand vs separate load+mul.
    let n = 4096usize;
    let fused = ddot_prog(1); // already uses FMul with mem operand
    let mut a = Asm::new();
    a.push(FZero(FReg(7)));
    let top = a.here();
    a.push(FLd(T0, Addr::base(X), Prec::D));
    a.push(FLd(T1, Addr::base(Y), Prec::D));
    a.push(FMul(T0, RegOrMem::Reg(T1), Prec::D));
    a.push(FAdd(FReg(7), RegOrMem::Reg(T0), Prec::D));
    a.push(IAddImm(X, 8));
    a.push(IAddImm(Y, 8));
    a.push(ISubImm(N, 1));
    a.push(ICmpImm(N, 0));
    a.push(Jcc(Cond::Gt, top));
    a.push(Halt);
    let split = a.finish();

    let run = |p: &ifko_xsim::Program| {
        let (mut m, x, y) = mem_with_vec(n);
        let mut cpu = Cpu::new(p4e());
        cpu.preload_all(x, (2 * n * 8) as u64 + 4096);
        cpu.set_ireg(X, x as i64);
        cpu.set_ireg(Y, y as i64);
        cpu.set_ireg(N, n as i64);
        cpu.run(p, &mut m).unwrap()
    };
    let sf = run(&fused);
    let ss = run(&split);
    assert!(sf.insts < ss.insts);
    // The fused form saves decode slots; it must never be meaningfully
    // slower than the split form.
    assert!(
        sf.cycles <= ss.cycles * 101 / 100,
        "fused {} vs split {}",
        sf.cycles,
        ss.cycles
    );
}

/// What one vector instruction at `[IReg(0) + disp]` does on a 64-byte
/// memory filled with 0xAA whose vector register 1 holds sixteen distinct
/// bytes: the run's result, register 0 afterwards, and the memory image.
fn vector_edge(
    inst: fn(Addr) -> Inst,
    disp: i64,
) -> (Result<(), ifko_xsim::RunError>, [u8; 16], Vec<u8>) {
    const CAP: usize = 64;
    let mut m = Memory::new(CAP);
    let base = m.base();
    for i in 0..CAP as u64 / 8 {
        m.write(base + 8 * i, [0xAA; 8]).unwrap();
    }
    let mut cpu = Cpu::new(p4e());
    // Register 1 = bytes 1..=16, through a vector load from scratch space
    // the instruction under test then overwrites again.
    m.write(base, std::array::from_fn::<u8, 16, _>(|i| i as u8 + 1))
        .unwrap();
    let mut a = Asm::new();
    a.push(VLd(FReg(1), Addr::base(IReg(0)), Prec::D, true));
    a.push(Halt);
    cpu.set_ireg(IReg(0), base as i64);
    cpu.run(&a.finish(), &mut m).unwrap();
    m.write(base, [0xAA; 16]).unwrap();

    let mut a = Asm::new();
    a.push(inst(Addr::base_disp(IReg(0), disp)));
    a.push(Halt);
    let res = cpu.run(&a.finish(), &mut m).map(|_| ());
    let mut reg0 = [0u8; 16];
    reg0[..8].copy_from_slice(&cpu.freg_f64(FReg(0)).to_bits().to_le_bytes());
    let image = (0..CAP as u64)
        .map(|i| m.read::<1>(base + i).unwrap()[0])
        .collect();
    (res, reg0, image)
}

/// A vector access whose 16 bytes are not all addressable behaves like the
/// loop of scalar accesses it stands for: the fault names the first lane
/// out of range (its address and its width), a store has written the
/// lanes below it and nothing else, a load has changed no register.
#[test]
fn vector_access_at_the_edges_of_memory_faults_lane_by_lane() {
    use ifko_xsim::mem::MemFault;
    use ifko_xsim::RunError::Fault;
    let base = Memory::new(64).base();
    let end = base + 64;
    type Mk = fn(Addr) -> Inst;
    let loads: [(Mk, u64); 4] = [
        (|a| VLd(FReg(0), a, Prec::D, false), 8),
        (|a| VLd(FReg(0), a, Prec::S, false), 4),
        (|a| VAdd(FReg(0), RegOrMem::Mem(a), Prec::D), 8),
        (|a| VMul(FReg(0), RegOrMem::Mem(a), Prec::S), 4),
    ];
    let stores: [(Mk, u64); 4] = [
        (|a| VSt(a, FReg(1), Prec::D, false), 8),
        (|a| VSt(a, FReg(1), Prec::S, false), 4),
        (|a| VStNt(a, FReg(1), Prec::D), 8),
        (|a| VStNt(a, FReg(1), Prec::S), 4),
    ];
    let untouched = vec![0xAA; 64];
    for (i, (inst, lane)) in loads.into_iter().enumerate() {
        // The last lane-aligned position that still fits succeeds ...
        let (res, _, image) = vector_edge(inst, 48);
        assert_eq!(res, Ok(()), "load {i} in range");
        assert_eq!(image, untouched, "load {i} in range");
        // ... and from there on the first lane past the end faults.
        for disp in [56i64, 60, 64, 1 << 40] {
            let first_out = (base + disp as u64..).step_by(lane as usize);
            let addr = first_out.take(4).find(|a| a + lane > end).unwrap();
            let (res, reg0, image) = vector_edge(inst, disp);
            let what = format!("load {i} at +{disp}");
            assert_eq!(res, Err(Fault(MemFault { addr, len: lane })), "{what}");
            assert_eq!(reg0, [0; 16], "{what}: register written");
            assert_eq!(image, untouched, "{what}");
        }
        // Below the base it is the first lane.
        let (res, reg0, _) = vector_edge(inst, -8);
        let addr = base - 8;
        assert_eq!(res, Err(Fault(MemFault { addr, len: lane })), "load {i}");
        assert_eq!(reg0, [0; 16], "load {i} below base");
    }
    for (i, (inst, lane)) in stores.into_iter().enumerate() {
        let (res, _, image) = vector_edge(inst, 48);
        assert_eq!(res, Ok(()), "store {i} in range");
        assert_eq!(&image[..48], &untouched[..48], "store {i} in range");
        assert_eq!(&image[48..], &(1..=16).collect::<Vec<u8>>(), "store {i}");
        for disp in [56i64, 60, 64] {
            let (res, _, image) = vector_edge(inst, disp);
            let what = format!("store {i} at +{disp}");
            // Lanes wholly below the end are written, then the fault.
            let written = (64 - disp as u64) / lane * lane;
            let addr = base + disp as u64 + written;
            assert_eq!(res, Err(Fault(MemFault { addr, len: lane })), "{what}");
            let mut want = untouched.clone();
            for k in 0..written as usize {
                want[disp as usize + k] = k as u8 + 1;
            }
            assert_eq!(image, want, "{what}");
        }
        let (res, _, image) = vector_edge(inst, -8);
        let addr = base - 8;
        assert_eq!(res, Err(Fault(MemFault { addr, len: lane })), "store {i}");
        assert_eq!(image, untouched, "store {i} below base: lane 1 is in range");
    }
}
