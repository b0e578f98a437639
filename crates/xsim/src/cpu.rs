//! The simulated processor: a functional interpreter with cycle accounting.
//!
//! Execution is in-order superscalar with a register scoreboard: each
//! instruction issues at `max(next issue slot, all source operands ready)`
//! and its destination becomes ready after the operation latency (memory
//! latencies come from the cache/bus model). This is simpler than the
//! out-of-order cores it models, but it is the *same* model for every code
//! generator being compared (FKO, the gcc/icc models, the hand-tuned ATLAS
//! kernels), so relative results — which is all the paper's figures report —
//! are meaningful. Crucially, the model is sensitive to exactly the
//! transformations the paper tunes: dependent FP adds serialize on
//! `fadd_lat` (accumulator expansion), loop overhead consumes issue slots
//! (unrolling, loop control), prefetches hide `mem_lat` only when issued
//! early enough and are dropped when the bus is busy, and non-temporal
//! stores change bus traffic and (on the Opteron-like config) penalize
//! read-write operands.
//!
//! [`Cpu::run`] decodes the program into basic blocks and interprets a
//! block at a time (DESIGN.md, "The simulator's interpreter").

use crate::bus::Bus;
use crate::cache::{Cache, Evicted, Miss, Probe};
use crate::isa::*;
use crate::machine::MachineConfig;
use crate::mem::{MemFault, Memory};
use crate::stats::RunStats;
use std::ops::{Add, Div, Mul, Sub};

/// Errors raised during simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// Out-of-range data access.
    Fault(MemFault),
    /// Instruction budget exhausted (runaway loop in generated code).
    InstLimit { limit: u64 },
    /// Fell off the end of the program without `Halt`.
    RanOffEnd,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Fault(m) => write!(f, "{m}"),
            RunError::InstLimit { limit } => {
                write!(f, "instruction limit ({limit}) exceeded — runaway loop?")
            }
            RunError::RanOffEnd => write!(f, "execution ran past the end of the program"),
        }
    }
}
impl std::error::Error for RunError {}

impl From<MemFault> for RunError {
    fn from(m: MemFault) -> Self {
        RunError::Fault(m)
    }
}

/// Default dynamic instruction budget.
pub const DEFAULT_INST_LIMIT: u64 = 500_000_000;

/// The simulated CPU. Caches persist across [`Cpu::run`] calls so the
/// harness can model in-cache and out-of-cache contexts
/// ([`Cpu::flush_caches`], [`Cpu::preload_l2`]); [`Cpu::reset`] makes one
/// instance reusable for unrelated runs, on any machine.
pub struct Cpu {
    cfg: MachineConfig,
    /// `log2` of the L1 line, L2 line and hardware-prefetch page sizes
    /// (all powers of two, asserted when the config is installed).
    l1_shift: u32,
    l2_shift: u32,
    page_shift: u32,
    l1: Cache,
    l2: Cache,
    bus: Bus,

    /// The integer registers, then [`ZERO_REG`] and spare slots that are
    /// never written: an address without an index register indexes zero.
    iregs: [i64; IREG_SLOTS],
    fregs: [VReg; NUM_FREGS],
    ireg_ready: [u64; IREG_SLOTS],
    freg_ready: [u64; NUM_FREGS],
    /// Flags as a three-way ordering (-1, 0, 1) plus readiness.
    flags: i32,
    flags_ready: u64,

    /// 1-bit dynamic branch predictor, one entry per block (a block ends
    /// in at most one conditional branch).
    predictor: Vec<u8>,
    /// Write-combining buffers for non-temporal stores: (line addr,
    /// bytes) per buffer, FIFO-evicted. x86 provides several, so multiple
    /// interleaved NT store streams (e.g. swap's X and Y) each fill whole
    /// lines before flushing.
    wc: Vec<(u64, u64)>,
    /// Hardware stream prefetcher state: per-stream frontier line address
    /// (`u64::MAX` = free slot) and a small recent-miss table used for
    /// stream detection (two consecutive line misses start a stream).
    hw_streams: [u64; 4],
    hw_misses: [u64; 8],
    hw_next: usize,

    /// Reusable decode buffers: back-to-back runs reuse the allocations.
    code: Code,

    pub stats: RunStats,
    inst_limit: u64,
}

const PRED_UNSEEN: u8 = 2;
/// Integer register slots (a power of two, for [`ri`]); [`ZERO_REG`]
/// always reads 0, ready at cycle 0.
const IREG_SLOTS: usize = 16;
const ZERO_REG: u8 = NUM_IREGS as u8;
/// Block index of "past the end of the program".
const END: u32 = u32::MAX;

/// The front end: issue cycle, slots taken, width and window. A local of
/// the interpreter, whose address nothing out of line takes, so it stays
/// in host registers.
#[derive(Clone, Copy)]
struct Issue {
    cycle: u64,
    slots: u32,
    width: u32,
    window: u64,
}

impl Issue {
    /// Take the next issue slot; returns the cycle it issues in.
    #[inline(always)]
    fn issue(&mut self) -> u64 {
        let t = self.cycle;
        self.slots += 1;
        if self.slots >= self.width {
            self.cycle += 1;
            self.slots = 0;
        }
        t
    }

    /// End the current issue group (taken branches).
    #[inline(always)]
    fn end_group(&mut self) {
        if self.slots != 0 {
            self.cycle += 1;
            self.slots = 0;
        }
    }

    /// Enforce the out-of-order window for a result ready at `ready`
    /// (returned): the front end runs at most `window_cycles` ahead of the
    /// oldest incomplete result, so cache hits hide and DRAM misses stall.
    #[inline(always)]
    fn window(&mut self, ready: u64) -> u64 {
        if ready > self.cycle + self.window {
            // Rare: a branch, not a select, keeps `cycle` off the
            // host's dependence chain through every result.
            std::hint::cold_path();
            self.cycle = ready - self.window;
            self.slots = 0;
        }
        ready
    }

    /// A write-combine flush of a cached line stalls the core.
    fn stall(&mut self, now: u64, penalty: u64) {
        self.cycle = self.cycle.max(now) + penalty;
        self.slots = 0;
    }
}

/// Arithmetic opcode of a two-operand FP/vector instruction.
#[derive(Clone, Copy)]
enum AOp {
    Add,
    Sub,
    Mul,
    Div,
    Max,
}

/// A decoded [`Addr`]: `base + (index << shift) + disp`. Without an index
/// it indexes [`ZERO_REG`], so every address computes branch-free.
#[derive(Clone, Copy)]
struct DAddr {
    base: u8,
    index: u8,
    shift: u8,
    disp: i64,
}

/// One decoded straight-line instruction: registers checked once, the
/// precision (`S`/`D`) and register-or-memory operand (`R`/`M`) in the
/// opcode. `ISubImm` is `IAddImm` of the negated immediate, `FMov` and
/// `VMov` are `Mov`, `FLdImm` and `FZero` a `Const` built at decode.
#[derive(Clone, Copy)]
enum Op {
    IMovImm(u8, i64),
    IMov(u8, u8),
    IAdd(u8, u8),
    IAddImm(u8, i64),
    ISub(u8, u8),
    IShlImm(u8, u8),
    IDivImm(u8, i64),
    IRemImm(u8, i64),
    Lea(u8, DAddr),
    ICmp(u8, u8),
    ICmpImm(u8, i64),
    IDec(u8),
    ILoad(u8, DAddr),
    IStore(DAddr, u8),
    FLdS(u8, DAddr),
    FLdD(u8, DAddr),
    FStS(DAddr, u8),
    FStD(DAddr, u8),
    FStNtS(DAddr, u8),
    FStNtD(DAddr, u8),
    Mov(u8, u8),
    Const(u8, [u8; 16]),
    FArRS(AOp, u8, u8),
    FArRD(AOp, u8, u8),
    FArMS(AOp, u8, DAddr),
    FArMD(AOp, u8, DAddr),
    FAbs(u8, Prec),
    FSqrt(u8, Prec),
    FCmpR(u8, u8, Prec),
    FCmpM(u8, DAddr, Prec),
    VLd(u8, DAddr, Prec, bool),
    VSt(DAddr, u8, Prec, bool),
    VStNt(DAddr, u8, Prec),
    VBcast(u8, u8, Prec),
    VArRS(AOp, u8, u8),
    VArRD(AOp, u8, u8),
    VArMS(AOp, u8, DAddr),
    VArMD(AOp, u8, DAddr),
    VAbs(u8, Prec),
    VCmpGtR(u8, u8, Prec),
    VCmpGtM(u8, DAddr, Prec),
    VMovMsk(u8, u8, Prec),
    VHSum(u8, u8, Prec),
    VHMax(u8, u8, Prec),
    Prefetch(DAddr, PrefKind),
}

/// How a block ends. Targets are block indices ([`END`] past the
/// program); only `Next` is not an instruction of its own.
#[derive(Clone, Copy)]
enum Term {
    /// Falls into the next block, which starts at a branch target.
    Next(u32),
    Jmp(u32),
    Jcc(Branch),
    Halt,
}

/// A conditional branch, with its static prediction (backward branches
/// predicted taken on first encounter).
#[derive(Clone, Copy)]
struct Branch {
    cond: Cond,
    taken: u32,
    next: u32,
    static_taken: bool,
}

/// A basic block: `ops[first..first + body]` then `term`; `insts`
/// counts the terminator too when it is an instruction.
#[derive(Clone, Copy)]
struct Block {
    first: u32,
    body: u32,
    insts: u32,
    term: Term,
}

impl Block {
    /// An empty block starting after `ops`.
    fn at(ops: &[Op]) -> Block {
        let (first, term) = (ops.len() as u32, Term::Halt);
        Block {
            first,
            body: 0,
            insts: 0,
            term,
        }
    }
}

/// A decoded program.
#[derive(Default)]
struct Code {
    ops: Vec<Op>,
    blocks: Vec<Block>,
    /// Block index of each instruction that starts a block, else [`END`].
    block_of: Vec<u32>,
}

/// Decode a register index, checked against its register file.
fn reg(r: u8, n: usize) -> u8 {
    assert!((r as usize) < n, "register {r} out of range");
    r
}

/// A decoded register's array index; the mask spares the bounds check.
fn ri(r: u8) -> usize {
    r as usize % IREG_SLOTS
}

fn rf(r: u8) -> usize {
    r as usize % NUM_FREGS
}

fn ix(r: IReg) -> u8 {
    reg(r.0, NUM_IREGS)
}

fn fx(r: FReg) -> u8 {
    reg(r.0, NUM_FREGS)
}

impl From<&Addr> for DAddr {
    fn from(a: &Addr) -> Self {
        let (index, scale) = a.index.map_or((ZERO_REG, 1), |(idx, sc)| (ix(idx), sc));
        assert!(scale.is_power_of_two(), "address scale {scale}");
        DAddr {
            base: ix(a.base),
            index,
            shift: scale.trailing_zeros() as u8,
            disp: a.disp,
        }
    }
}

impl Code {
    /// Decode `prog` into blocks, reusing the buffers.
    fn decode(&mut self, prog: &Program) {
        let len = prog.len();
        self.ops.clear();
        self.blocks.clear();
        self.block_of.clear();
        self.block_of.resize(len, END);
        // Leaders: the entry, every in-program branch target, and every
        // instruction after a branch or a halt.
        let mut lead = |pc: usize| {
            if let Some(b) = self.block_of.get_mut(pc) {
                *b = 0;
            }
        };
        lead(0);
        for (pc, inst) in prog.insts.iter().enumerate() {
            match inst {
                Inst::Jmp(l) | Inst::Jcc(_, l) => {
                    lead(prog.target(*l));
                    lead(pc + 1);
                }
                Inst::Halt => lead(pc + 1),
                _ => {}
            }
        }
        for (n, b) in self.block_of.iter_mut().filter(|b| **b != END).enumerate() {
            *b = n as u32;
        }
        let block = |t: usize| self.block_of.get(t).copied().unwrap_or(END);
        let mut open: Option<Block> = None;
        for (pc, inst) in prog.insts.iter().enumerate() {
            let mut cur = match open.take() {
                Some(b) if self.block_of[pc] == END => b,
                Some(mut b) => {
                    b.term = Term::Next(self.block_of[pc]);
                    self.blocks.push(b);
                    Block::at(&self.ops)
                }
                None => Block::at(&self.ops),
            };
            cur.insts += 1;
            let term = match (Op::decode(inst), inst) {
                (Some(op), _) => {
                    self.ops.push(op);
                    cur.body += 1;
                    open = Some(cur);
                    continue;
                }
                (None, Inst::Jmp(l)) => Term::Jmp(block(prog.target(*l))),
                (None, Inst::Jcc(cond, l)) => {
                    let tgt = prog.target(*l);
                    Term::Jcc(Branch {
                        cond: *cond,
                        taken: block(tgt),
                        next: block(pc + 1),
                        static_taken: tgt <= pc,
                    })
                }
                _ => Term::Halt,
            };
            cur.term = term;
            self.blocks.push(cur);
        }
        if let Some(mut b) = open {
            b.term = Term::Next(END);
            self.blocks.push(b);
        }
    }
}

impl Op {
    /// Decode one instruction; `None` for those that end a block.
    fn decode(inst: &Inst) -> Option<Op> {
        use Prec::{D, S};
        let rhs = |op: AOp, d: FReg, s: &RegOrMem, p: Prec, vector: bool| match (s, p, vector) {
            (RegOrMem::Reg(s), S, false) => Op::FArRS(op, fx(d), fx(*s)),
            (RegOrMem::Reg(s), D, false) => Op::FArRD(op, fx(d), fx(*s)),
            (RegOrMem::Mem(a), S, false) => Op::FArMS(op, fx(d), a.into()),
            (RegOrMem::Mem(a), D, false) => Op::FArMD(op, fx(d), a.into()),
            (RegOrMem::Reg(s), S, true) => Op::VArRS(op, fx(d), fx(*s)),
            (RegOrMem::Reg(s), D, true) => Op::VArRD(op, fx(d), fx(*s)),
            (RegOrMem::Mem(a), S, true) => Op::VArMS(op, fx(d), a.into()),
            (RegOrMem::Mem(a), D, true) => Op::VArMD(op, fx(d), a.into()),
        };
        Some(match inst {
            Inst::IMovImm(d, v) => Op::IMovImm(ix(*d), *v),
            Inst::IMov(d, s) => Op::IMov(ix(*d), ix(*s)),
            Inst::IAdd(d, s) => Op::IAdd(ix(*d), ix(*s)),
            Inst::IAddImm(d, v) => Op::IAddImm(ix(*d), *v),
            Inst::ISub(d, s) => Op::ISub(ix(*d), ix(*s)),
            Inst::ISubImm(d, v) => Op::IAddImm(ix(*d), v.wrapping_neg()),
            Inst::IShlImm(d, s) => Op::IShlImm(ix(*d), *s),
            Inst::IDivImm(d, v) => Op::IDivImm(ix(*d), *v),
            Inst::IRemImm(d, v) => Op::IRemImm(ix(*d), *v),
            Inst::Lea(d, a) => Op::Lea(ix(*d), a.into()),
            Inst::ICmp(a, b) => Op::ICmp(ix(*a), ix(*b)),
            Inst::ICmpImm(a, v) => Op::ICmpImm(ix(*a), *v),
            Inst::IDec(d) => Op::IDec(ix(*d)),
            Inst::ILoad(d, a) => Op::ILoad(ix(*d), a.into()),
            Inst::IStore(a, s) => Op::IStore(a.into(), ix(*s)),
            Inst::FLd(d, a, S) => Op::FLdS(fx(*d), a.into()),
            Inst::FLd(d, a, D) => Op::FLdD(fx(*d), a.into()),
            Inst::FSt(a, s, S) => Op::FStS(a.into(), fx(*s)),
            Inst::FSt(a, s, D) => Op::FStD(a.into(), fx(*s)),
            Inst::FStNt(a, s, S) => Op::FStNtS(a.into(), fx(*s)),
            Inst::FStNt(a, s, D) => Op::FStNtD(a.into(), fx(*s)),
            Inst::FMov(d, s, _) | Inst::VMov(d, s) => Op::Mov(fx(*d), fx(*s)),
            Inst::FLdImm(d, v, p) => {
                let mut r = VReg::ZERO;
                set_scalar(&mut r, *p, *v);
                Op::Const(fx(*d), r.0)
            }
            Inst::FZero(d) => Op::Const(fx(*d), [0; 16]),
            Inst::FAdd(d, s, p) => rhs(AOp::Add, *d, s, *p, false),
            Inst::FSub(d, s, p) => rhs(AOp::Sub, *d, s, *p, false),
            Inst::FMul(d, s, p) => rhs(AOp::Mul, *d, s, *p, false),
            Inst::FDiv(d, s, p) => rhs(AOp::Div, *d, s, *p, false),
            Inst::FMax(d, s, p) => rhs(AOp::Max, *d, s, *p, false),
            Inst::FAbs(d, p) => Op::FAbs(fx(*d), *p),
            Inst::FSqrt(d, p) => Op::FSqrt(fx(*d), *p),
            Inst::FCmp(a, RegOrMem::Reg(b), p) => Op::FCmpR(fx(*a), fx(*b), *p),
            Inst::FCmp(a, RegOrMem::Mem(b), p) => Op::FCmpM(fx(*a), b.into(), *p),
            Inst::VLd(d, a, p, al) => Op::VLd(fx(*d), a.into(), *p, *al),
            Inst::VSt(a, s, p, al) => Op::VSt(a.into(), fx(*s), *p, *al),
            Inst::VStNt(a, s, p) => Op::VStNt(a.into(), fx(*s), *p),
            Inst::VBcast(d, s, p) => Op::VBcast(fx(*d), fx(*s), *p),
            Inst::VAdd(d, s, p) => rhs(AOp::Add, *d, s, *p, true),
            Inst::VSub(d, s, p) => rhs(AOp::Sub, *d, s, *p, true),
            Inst::VMul(d, s, p) => rhs(AOp::Mul, *d, s, *p, true),
            Inst::VMax(d, s, p) => rhs(AOp::Max, *d, s, *p, true),
            Inst::VAbs(d, p) => Op::VAbs(fx(*d), *p),
            Inst::VCmpGt(d, RegOrMem::Reg(s), p) => Op::VCmpGtR(fx(*d), fx(*s), *p),
            Inst::VCmpGt(d, RegOrMem::Mem(a), p) => Op::VCmpGtM(fx(*d), a.into(), *p),
            Inst::VMovMsk(d, s, p) => Op::VMovMsk(ix(*d), fx(*s), *p),
            Inst::VHSum(d, s, p) => Op::VHSum(fx(*d), fx(*s), *p),
            Inst::VHMax(d, s, p) => Op::VHMax(fx(*d), fx(*s), *p),
            Inst::Prefetch(a, k) => Op::Prefetch(a.into(), *k),
            Inst::Jmp(_) | Inst::Jcc(..) | Inst::Halt => return None,
        })
    }
}

impl Cpu {
    pub fn new(cfg: MachineConfig) -> Self {
        let l1 = Cache::new(cfg.l1);
        let l2 = Cache::new(cfg.l2);
        let bus = Bus::new(cfg.bus);
        Cpu {
            l1_shift: cfg.l1.line.trailing_zeros(),
            l2_shift: cfg.l2.line.trailing_zeros(),
            page_shift: page_shift(&cfg),
            cfg,
            l1,
            l2,
            bus,
            iregs: [0; IREG_SLOTS],
            fregs: [VReg::ZERO; NUM_FREGS],
            ireg_ready: [0; IREG_SLOTS],
            freg_ready: [0; NUM_FREGS],
            flags: 0,
            flags_ready: 0,
            predictor: Vec::new(),
            wc: Vec::new(),
            hw_streams: [u64::MAX; 4],
            hw_misses: [u64::MAX; 8],
            hw_next: 0,
            code: Code::default(),
            stats: RunStats::default(),
            inst_limit: DEFAULT_INST_LIMIT,
        }
    }

    /// Return to the state of `Cpu::new(cfg.clone())` — registers, flags,
    /// scoreboard, caches, bus, write-combine buffers, prefetch streams,
    /// predictor, statistics and instruction budget — without giving up
    /// the cache line stores or the decode buffers. `cfg` may be any
    /// machine: the caches re-shape themselves when the geometry differs.
    pub fn reset(&mut self, cfg: &MachineConfig) {
        self.page_shift = page_shift(cfg);
        self.l1_shift = cfg.l1.line.trailing_zeros();
        self.l2_shift = cfg.l2.line.trailing_zeros();
        self.l1.reset(cfg.l1);
        self.l2.reset(cfg.l2);
        self.bus = Bus::new(cfg.bus);
        self.cfg = cfg.clone();
        self.iregs = [0; IREG_SLOTS];
        self.fregs = [VReg::ZERO; NUM_FREGS];
        self.ireg_ready = [0; IREG_SLOTS];
        self.freg_ready = [0; NUM_FREGS];
        self.flags = 0;
        self.flags_ready = 0;
        self.predictor.clear();
        self.wc.clear();
        self.hw_streams = [u64::MAX; 4];
        self.hw_misses = [u64::MAX; 8];
        self.hw_next = 0;
        self.stats = RunStats::default();
        self.inst_limit = DEFAULT_INST_LIMIT;
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Override the dynamic instruction budget.
    pub fn set_inst_limit(&mut self, limit: u64) {
        self.inst_limit = limit;
    }

    /// Set an integer register before a run (argument passing).
    pub fn set_ireg(&mut self, r: IReg, v: i64) {
        self.iregs[..NUM_IREGS][r.0 as usize] = v;
    }
    pub fn ireg(&self, r: IReg) -> i64 {
        self.iregs[..NUM_IREGS][r.0 as usize]
    }
    /// Set lane 0 of an FP register before a run (FP argument passing).
    pub fn set_freg_f64(&mut self, r: FReg, v: f64) {
        self.fregs[r.0 as usize] = VReg::ZERO;
        set_scalar(&mut self.fregs[r.0 as usize], Prec::D, v);
    }
    pub fn set_freg_f32(&mut self, r: FReg, v: f32) {
        self.fregs[r.0 as usize] = VReg::ZERO;
        self.fregs[r.0 as usize][0..4].copy_from_slice(&v.to_le_bytes());
    }
    /// Lane 0 of an FP register as f64.
    pub fn freg_f64(&self, r: FReg) -> f64 {
        f64::get(&self.fregs[r.0 as usize], 0)
    }
    pub fn freg_f32(&self, r: FReg) -> f32 {
        f32::get(&self.fregs[r.0 as usize], 0)
    }

    /// Cold-cache setup: empty both cache levels and idle the bus.
    pub fn flush_caches(&mut self) {
        self.l1.flush_all();
        self.l2.flush_all();
        self.bus.reset();
        self.wc.clear();
        self.hw_streams = [u64::MAX; 4];
        self.hw_misses = [u64::MAX; 8];
        self.hw_next = 0;
    }

    /// Pull the address range into L2 only (the paper's "in-L2-cache"
    /// context: operands pre-loaded in cache before timing).
    pub fn preload_l2(&mut self, addr: u64, len: u64) {
        let line = self.cfg.l2.line;
        let mut a = addr / line * line;
        while a < addr + len {
            // Setup traffic is not timed: evictions are dropped.
            let _ = self.l2.insert(a, 0, false);
            a += line;
        }
    }

    /// Pull the address range into both levels (fully warm).
    pub fn preload_all(&mut self, addr: u64, len: u64) {
        self.preload_l2(addr, len);
        let line = self.cfg.l1.line;
        let mut a = addr / line * line;
        while a < addr + len {
            let _ = self.l1.insert(a, 0, false);
            a += line;
        }
    }

    // --------------------------------------------------------------- memory

    /// Handle a line evicted from L1: dirty data falls into L2; if L2
    /// cannot absorb it, the displaced dirty L2 line goes over the bus.
    #[inline(always)]
    fn l1_evict(&mut self, ev: Option<Evicted>, now: u64) {
        if let Some(Evicted { addr, dirty: true }) = ev {
            self.l1_writeback(addr, now);
        }
    }

    #[inline(never)]
    fn l1_writeback(&mut self, addr: u64, now: u64) {
        if let Probe::Miss(miss) = self.l2.mark_dirty(addr) {
            let ev2 = self.l2.fill(miss, now, true);
            self.l2_evict(ev2, now);
        }
    }

    #[inline(always)]
    fn l2_evict(&mut self, ev: Option<Evicted>, now: u64) {
        if let Some(Evicted { dirty: true, .. }) = ev {
            self.bus.write(now, self.cfg.l2.line);
        }
    }

    /// Fetch the line of a demand access that missed L2 over the bus and
    /// fill it into L2; returns the cycle its data arrives.
    fn l2_demand_fill(&mut self, miss: Miss, now: u64) -> u64 {
        let (_, done) = self.bus.read(now, self.cfg.l1.line);
        let ready = done + self.cfg.mem_lat;
        let ev = self.l2.fill(miss, ready, false);
        self.l2_evict(ev, now);
        ready
    }

    /// A demand load of `bytes` at `addr`; returns the data-ready cycle.
    /// One line and an L1 hit — nearly every load — stays inline.
    #[inline(always)]
    fn load(&mut self, addr: u64, bytes: u64, now: u64) -> u64 {
        let sh = self.l1_shift;
        if addr >> sh != (addr + bytes - 1) >> sh {
            return self.load_split(addr, now);
        }
        self.load_line(addr, now)
    }

    /// A line-crossing load: both lines, plus the unaligned penalty.
    #[inline(never)]
    fn load_split(&mut self, addr: u64, now: u64) -> u64 {
        let split = ((addr >> self.l1_shift) + 1) << self.l1_shift;
        let a = self.load_line(addr, now);
        let b = self.load_line(split, now);
        a.max(b) + self.cfg.unaligned_penalty
    }

    #[inline(always)]
    fn load_line(&mut self, addr: u64, now: u64) -> u64 {
        self.stats.loads += 1;
        match self.l1.probe(addr) {
            Probe::Hit { fill_done } => {
                self.stats.l1_hits += 1;
                now.max(fill_done) + self.cfg.l1.latency
            }
            Probe::Miss(miss) => self.load_miss(miss, addr, now),
        }
    }

    /// An L1 load miss. Each level is looked up once: a miss is filled
    /// through the [`Miss`](crate::cache::Miss) its lookup returned
    /// (nothing touches that level's set in between).
    #[inline(never)]
    fn load_miss(&mut self, l1_miss: Miss, addr: u64, now: u64) -> u64 {
        self.stats.l1_misses += 1;
        let (ready, l2_missed) = match self.l2.probe(addr) {
            Probe::Hit { fill_done } => {
                self.stats.l2_hits += 1;
                (now.max(fill_done) + self.cfg.l2.latency, false)
            }
            Probe::Miss(miss) => {
                self.stats.l2_misses += 1;
                (self.l2_demand_fill(miss, now), true)
            }
        };
        let ev = self.l1.fill(l1_miss, ready, false);
        self.l1_evict(ev, now);
        self.hw_stream_access(addr, now, l2_missed);
        ready
    }

    /// Hardware stream prefetcher, consulted on every access that reaches
    /// the L2 (demand L2 miss or L2 hit). An ascending stream is detected
    /// after two consecutive line misses; once running, its frontier is
    /// kept `hw_prefetch_depth` lines ahead of the demand access. Fills go
    /// to **L2 only**, cannot cross a `hw_prefetch_page` boundary (the
    /// stream must be re-detected in the next page), and back off when the
    /// bus is saturated — all three of which are why well-tuned *software*
    /// prefetch still beats the hardware engine, while un-prefetched
    /// streaming code (e.g. copy with PF=none, as the paper's search picks
    /// on the P4E) still approaches bus speed.
    fn hw_stream_access(&mut self, addr: u64, now: u64, was_miss: bool) {
        let depth = self.cfg.hw_prefetch_depth;
        if depth == 0 {
            return;
        }
        let line = self.cfg.l2.line;
        let page_shift = self.page_shift;
        let cur = addr >> self.l2_shift << self.l2_shift;
        let window = depth * line;
        // Advance an existing stream whose frontier is within reach.
        for i in 0..self.hw_streams.len() {
            let frontier = self.hw_streams[i];
            if frontier != u64::MAX && cur <= frontier && frontier <= cur + window {
                let page_end = ((cur >> page_shift) + 1) << page_shift;
                let target = (cur + window).min(page_end - line);
                let mut l = frontier + line;
                while l <= target {
                    if !self.hw_fill_l2(l, now) {
                        break;
                    }
                    self.hw_streams[i] = l;
                    l += line;
                }
                if self.hw_streams[i] + line > page_end {
                    self.hw_streams[i] = u64::MAX; // stream dies at the page edge
                }
                return;
            }
        }
        if !was_miss {
            return;
        }
        // Detection: this miss plus a recent miss on the previous line.
        if self.hw_misses.contains(&cur.wrapping_sub(line)) {
            // Allocate a stream slot (round robin) with frontier at `cur`.
            let slot = self.hw_next % self.hw_streams.len();
            self.hw_streams[slot] = cur;
            let page_end = ((cur >> page_shift) + 1) << page_shift;
            let target = (cur + window).min(page_end - line);
            let mut l = cur + line;
            while l <= target {
                if !self.hw_fill_l2(l, now) {
                    break;
                }
                self.hw_streams[slot] = l;
                l += line;
            }
        }
        self.hw_misses[self.hw_next % self.hw_misses.len()] = cur;
        self.hw_next = self.hw_next.wrapping_add(1);
    }

    /// Fetch one line into L2 on behalf of the hardware prefetcher.
    /// Returns false (without fetching) when the bus is saturated. The
    /// hardware engine is lower priority than explicit software prefetch:
    /// it only fills when the bus is nearly idle, so it never crowds out
    /// tuned prefetch streams.
    fn hw_fill_l2(&mut self, line_addr: u64, now: u64) -> bool {
        let Probe::Miss(miss) = self.l2.peek(line_addr) else {
            return true;
        };
        if self.bus.effective_free(now) > now + self.cfg.pf_queue_slack / 4 {
            return false;
        }
        let (_, done) = self.bus.read(now, self.cfg.l2.line);
        let ev = self.l2.fill(miss, done + self.cfg.mem_lat, false);
        self.l2_evict(ev, now);
        self.stats.hw_prefetches += 1;
        true
    }

    /// A normal (write-allocate) store. Stores retire through a store
    /// buffer and do not stall the pipeline; they only change cache state
    /// and consume bus bandwidth (read-for-ownership on miss).
    #[inline(always)]
    fn store(&mut self, addr: u64, bytes: u64, now: u64) {
        let sh = self.l1_shift;
        if addr >> sh != (addr + bytes - 1) >> sh {
            let split = ((addr >> sh) + 1) << sh;
            self.store_line(addr, now);
            self.store_line(split, now);
            return;
        }
        self.store_line(addr, now);
    }

    #[inline(always)]
    fn store_line(&mut self, addr: u64, now: u64) {
        self.stats.stores += 1;
        match self.l1.mark_dirty(addr) {
            Probe::Hit { .. } => self.stats.l1_hits += 1,
            Probe::Miss(miss) => self.store_miss(miss, addr, now),
        }
    }

    #[inline(never)]
    fn store_miss(&mut self, l1_miss: Miss, addr: u64, now: u64) {
        self.stats.l1_misses += 1;
        let (ready, l2_missed) = match self.l2.probe(addr) {
            Probe::Hit { .. } => {
                self.stats.l2_hits += 1;
                (now + self.cfg.l2.latency, false)
            }
            Probe::Miss(miss) => {
                self.stats.l2_misses += 1;
                // Read-for-ownership: the line must be fetched before the
                // (partial) write can merge into it.
                (self.l2_demand_fill(miss, now), true)
            }
        };
        let ev = self.l1.fill(l1_miss, ready, true);
        self.l1_evict(ev, now);
        self.hw_stream_access(addr, now, l2_missed);
    }

    /// A non-temporal store: bypasses the caches via a write-combining
    /// buffer. Cached copies of the line stay readable until the buffer
    /// flushes (when the line fills or a new line starts); at flush the
    /// line is invalidated, and — if it was cache-resident, i.e. the
    /// operand was read earlier and is not write-only — the machine's
    /// `nt_cached_penalty` stalls the core once per line. This is the
    /// Opteron behaviour behind the paper's icc+prof swap/axpy collapse,
    /// while sequential read-then-NT-write streams (unrolled swap on the
    /// P4E) proceed unharmed.
    /// Returns whether a flush stalls the core ([`Issue::stall`]).
    #[inline(never)]
    fn nt_store(&mut self, addr: u64, bytes: u64, now: u64) -> bool {
        self.stats.stores += 1;
        self.stats.nt_stores += 1;
        let line = self.cfg.l1.line;
        let line_addr = addr >> self.l1_shift << self.l1_shift;
        if let Some(idx) = self.wc.iter().position(|(l, _)| *l == line_addr) {
            let filled = &mut self.wc[idx].1;
            *filled = (*filled + bytes).min(line);
            return *filled >= line && self.flush_wc_entry(idx, now);
        }
        // All buffers busy: flush the oldest (FIFO), possibly partial.
        let stall = self.wc.len() >= self.cfg.wc_buffers && self.flush_wc_entry(0, now);
        self.wc.push((line_addr, bytes));
        stall
    }

    /// Flush one write-combine buffer; returns whether the line was
    /// cached, which stalls the core on a machine that penalizes it.
    fn flush_wc_entry(&mut self, idx: usize, now: u64) -> bool {
        let (line_addr, b) = self.wc.remove(idx);
        self.bus.write(now, b);
        self.stats.wc_flushes += 1;
        let in_l1 = self.l1.invalidate(line_addr).is_some();
        let in_l2 = self.l2.invalidate(line_addr).is_some();
        (in_l1 || in_l2) && self.cfg.nt_cached_penalty > 0
    }

    /// A software prefetch. Useless if the target level nearest the CPU
    /// already has the line: the L1 look, the common outcome, is inline.
    /// Each level is looked at once; its `Miss` serves the fill.
    #[inline(always)]
    fn prefetch(&mut self, addr: u64, kind: PrefKind, now: u64) {
        let l1_miss = match kind {
            PrefKind::T1 | PrefKind::T2 => None,
            _ => match self.l1.peek(addr) {
                Probe::Hit { .. } => return self.stats.prefetch_useless += 1,
                Probe::Miss(miss) => Some(miss),
            },
        };
        self.prefetch_beyond_l1(l1_miss, addr, kind, now);
    }

    #[inline(never)]
    fn prefetch_beyond_l1(&mut self, l1_miss: Option<Miss>, addr: u64, kind: PrefKind, now: u64) {
        let (to_l2, dirty) = (kind != PrefKind::Nta, kind == PrefKind::W);
        let l2_miss = match (self.l2.peek(addr), l1_miss) {
            (Probe::Miss(miss), _) => miss,
            (Probe::Hit { .. }, None) => {
                self.stats.prefetch_useless += 1;
                return;
            }
            (Probe::Hit { .. }, Some(l1_miss)) => {
                // L2-resident line moving to L1 needs no bus.
                let ev = self.l1.fill(l1_miss, now + self.cfg.l2.latency, dirty);
                self.l1_evict(ev, now);
                self.stats.prefetch_issued += 1;
                return;
            }
        };
        if self.cfg.drop_prefetch_when_busy
            && self.bus.effective_free(now) > now + self.cfg.pf_queue_slack
        {
            self.stats.prefetch_dropped += 1;
            return;
        }
        let (_, done) = self.bus.read(now, self.cfg.l1.line);
        let ready = done + self.cfg.mem_lat;
        if to_l2 {
            let ev = self.l2.fill(l2_miss, ready, false);
            self.l2_evict(ev, now);
        }
        if let Some(l1_miss) = l1_miss {
            let ev = self.l1.fill(l1_miss, ready, dirty);
            self.l1_evict(ev, now);
        }
        self.stats.prefetch_issued += 1;
    }

    // ------------------------------------------------------------ operands

    #[inline(always)]
    fn ea(&self, a: &DAddr) -> u64 {
        let v = self.iregs[ri(a.base)] + (self.iregs[ri(a.index)] << a.shift);
        (v + a.disp) as u64
    }

    /// The readiness of an address's registers.
    #[inline(always)]
    fn ar(&self, a: &DAddr) -> u64 {
        self.ireg_ready[ri(a.base)].max(self.ireg_ready[ri(a.index)])
    }

    /// FP register `r` and its ready cycle; lane 0 of it as a `T`.
    #[inline(always)]
    fn vreg(&self, r: u8) -> (VReg, u64) {
        (self.fregs[rf(r)], self.freg_ready[rf(r)])
    }
    #[inline(always)]
    fn sreg<T: Lane>(&self, r: u8) -> (T, u64) {
        (T::get(&self.fregs[rf(r)], 0), self.freg_ready[rf(r)])
    }

    /// Write integer register `d`, its result ready at `ready`.
    #[inline(always)]
    fn iset(&mut self, d: u8, v: i64, ready: u64, is: &mut Issue) {
        self.iregs[ri(d)] = v;
        self.ireg_ready[ri(d)] = is.window(ready);
    }

    /// Write FP register `d`, its result ready at `ready`.
    #[inline(always)]
    fn fset(&mut self, d: u8, v: VReg, ready: u64, is: &mut Issue) {
        self.fregs[rf(d)] = v;
        self.freg_ready[rf(d)] = is.window(ready);
    }

    /// A scalar memory operand at issue cycle `t`: its value and ready
    /// cycle. The load starts once the address registers are ready.
    #[inline(always)]
    fn scalar_mem<T: Lane>(
        &mut self,
        a: &DAddr,
        t: u64,
        mem: &Memory,
    ) -> Result<(T, u64), MemFault> {
        let addr = self.ea(a);
        let ready = self.load(addr, T::PREC.bytes(), t.max(self.ar(a)));
        Ok((T::read(mem, addr)?, ready))
    }

    /// A vector memory operand at issue cycle `t`: its 16 bytes and ready
    /// cycle.
    #[inline(always)]
    fn vector_mem(
        &mut self,
        a: &DAddr,
        p: Prec,
        t: u64,
        mem: &Memory,
    ) -> Result<(VReg, u64), MemFault> {
        let addr = self.ea(a);
        let ready = self.load(addr, 16, t.max(self.ar(a)));
        Ok((load_vector(mem, addr, p)?, ready))
    }

    /// `d = d op rhs` in lane 0, issued at `t`.
    #[inline(always)]
    fn farith<T: Lane>(&mut self, op: AOp, d: u8, rhs: (T, u64), t: u64, is: &mut Issue) {
        let lhs = T::get(&self.fregs[rf(d)], 0);
        let c = &self.cfg;
        let (out, lat) = match op {
            AOp::Add => (lhs + rhs.0, c.fadd_lat),
            AOp::Sub => (lhs - rhs.0, c.fadd_lat),
            AOp::Mul => (lhs * rhs.0, c.fmul_lat),
            AOp::Div => (lhs / rhs.0, c.fdiv_lat),
            AOp::Max => (if rhs.0 > lhs { rhs.0 } else { lhs }, c.fadd_lat),
        };
        let r = t.max(self.freg_ready[rf(d)]).max(rhs.1) + lat;
        out.put(&mut self.fregs[rf(d)], 0);
        self.freg_ready[rf(d)] = is.window(r);
    }

    /// `d = d op rhs` in each of the `N` lanes of a `T`, issued at `t`.
    #[inline(always)]
    fn varith<T: Lane, const N: usize>(
        &mut self,
        op: AOp,
        d: u8,
        rhs: (VReg, u64),
        t: u64,
        is: &mut Issue,
    ) {
        let lhs = &self.fregs[rf(d)];
        let out = vput(lanewise(op, vget::<T, N>(lhs), vget(&rhs.0)));
        let lat = match op {
            AOp::Mul => self.cfg.fmul_lat,
            _ => self.cfg.fadd_lat,
        };
        let r = t.max(self.freg_ready[rf(d)]).max(rhs.1) + lat;
        self.fset(d, out, r, is);
    }

    /// Lanewise `d > rhs` as all-ones / all-zero masks, raw bits like
    /// cmpps (never through float casts, which are not NaN-stable).
    #[inline(always)]
    fn vcmpgt(&mut self, d: u8, rhs: (VReg, u64), p: Prec, t: u64, is: &mut Issue) {
        let (lhs, r) = (lanes(&self.fregs[rf(d)], p), lanes(&rhs.0, p));
        let lane = p.bytes() as usize;
        let mut raw = VReg::ZERO;
        for i in 0..p.veclen() as usize {
            if lhs[i] > r[i] {
                raw[i * lane..(i + 1) * lane].fill(0xFF);
            }
        }
        let ready = t.max(self.freg_ready[rf(d)]).max(rhs.1) + self.cfg.fcmp_lat;
        self.fset(d, raw, ready, is);
    }

    /// Set the flags from `lhs ? rhs` in lane 0 of a `T`.
    #[inline(always)]
    fn fcmp<T: Lane>(&mut self, a: u8, rhs: (T, u64), t: u64, is: &mut Issue) {
        let lhs = T::get(&self.fregs[rf(a)], 0);
        self.flags = fthreeway(lhs, rhs.0);
        self.flags_ready = is.window(t.max(self.freg_ready[rf(a)]).max(rhs.1) + self.cfg.fcmp_lat);
    }

    // ----------------------------------------------------------------- run

    /// Execute `prog` to `Halt`. Register and memory state persist; timing
    /// state (cycle counter, scoreboard, stats) is reset at entry, cache
    /// contents are **not** (context setup is the harness's job).
    pub fn run(&mut self, prog: &Program, mem: &mut Memory) -> Result<RunStats, RunError> {
        self.ireg_ready = [0; IREG_SLOTS];
        self.freg_ready = [0; NUM_FREGS];
        self.flags_ready = 0;
        self.stats = RunStats::default();
        self.bus.reset();
        self.wc.clear();
        let mut code = std::mem::take(&mut self.code);
        code.decode(prog);
        self.predictor.clear();
        self.predictor.resize(code.blocks.len(), PRED_UNSEEN);
        let width = self.cfg.effective_width(prog.len());
        let result = self.interp(&code, width, mem);
        self.code = code;
        result
    }

    /// The block loop. The count is settled once per block, yet a limit
    /// or fault inside a block stops exactly where a count per
    /// instruction would.
    fn interp(&mut self, code: &Code, width: u32, mem: &mut Memory) -> Result<RunStats, RunError> {
        let limit = self.inst_limit;
        let mut is = Issue {
            cycle: 0,
            slots: 0,
            width,
            window: self.cfg.window_cycles,
        };
        let is = &mut is;
        let mut b = match code.blocks.is_empty() {
            true => END,
            false => 0,
        };
        loop {
            let start = self.stats.insts;
            let Some(block) = code.blocks.get(b as usize) else {
                return Err(match start >= limit {
                    true => RunError::InstLimit { limit },
                    false => RunError::RanOffEnd,
                });
            };
            let n = (block.insts as u64).min(limit - start);
            self.stats.insts = start + n;
            let first = block.first as usize;
            let body = &code.ops[first..first + (block.body as usize).min(n as usize)];
            for (i, op) in body.iter().enumerate() {
                if let Err(fault) = self.exec(op, is, mem) {
                    self.stats.insts = start + i as u64 + 1;
                    return Err(RunError::Fault(fault));
                }
            }
            if n < block.insts as u64 {
                return Err(RunError::InstLimit { limit });
            }
            b = match block.term {
                Term::Next(next) => next,
                Term::Jmp(target) => {
                    is.issue();
                    is.end_group();
                    target
                }
                Term::Jcc(br) => self.branch(br, b as usize, is),
                Term::Halt => return Ok(self.halt(*is)),
            };
        }
    }

    /// The conditional branch ending block `b`; returns the next block.
    #[inline(always)]
    fn branch(&mut self, br: Branch, b: usize, is: &mut Issue) -> u32 {
        let t = is.issue();
        self.stats.branches += 1;
        let taken = br.cond.eval(self.flags);
        let predicted_taken = match self.predictor[b] {
            PRED_UNSEEN => br.static_taken,
            p => p == 1,
        };
        if predicted_taken != taken {
            // The pipeline restarts once the branch resolves (flags
            // ready), plus the mispredict penalty.
            self.stats.mispredicts += 1;
            is.cycle = t.max(self.flags_ready) + self.cfg.branch_misp;
            is.slots = 0;
        } else if taken {
            is.end_group();
        }
        self.predictor[b] = taken as u8;
        match taken {
            true => br.taken,
            false => br.next,
        }
    }

    /// Drain the write-combine buffers and the bus; all in-flight results
    /// must complete.
    fn halt(&mut self, mut is: Issue) -> RunStats {
        let now = is.cycle;
        while !self.wc.is_empty() {
            if self.flush_wc_entry(0, now) {
                is.stall(now, self.cfg.nt_cached_penalty);
            }
        }
        let regs_done = self
            .ireg_ready
            .iter()
            .chain(&self.freg_ready)
            .fold(self.flags_ready, |m, &r| m.max(r));
        let drained = self.bus.drain_all(is.cycle);
        self.stats.cycles = is.cycle.max(regs_done).max(drained);
        self.stats.bus_read_bytes = self.bus.bytes_read;
        self.stats.bus_write_bytes = self.bus.bytes_written;
        self.stats
    }

    /// Execute one op: it issues at the next slot, and operand readiness
    /// delays only its *result*, bounded by the window.
    #[inline(always)]
    fn exec(&mut self, op: &Op, is: &mut Issue, mem: &mut Memory) -> Result<(), MemFault> {
        let intl = self.cfg.int_lat;
        let fmov = self.cfg.fmov_lat;
        let t = is.issue();
        match *op {
            Op::IMovImm(d, v) => {
                self.iset(d, v, t + intl, is);
            }
            Op::IMov(d, s) => {
                let r = t.max(self.ireg_ready[ri(s)]) + intl;
                self.iset(d, self.iregs[ri(s)], r, is);
            }
            Op::IAdd(d, s) | Op::ISub(d, s) => {
                let r = t.max(self.ireg_ready[ri(d)]).max(self.ireg_ready[ri(s)]) + intl;
                let v = match op {
                    Op::IAdd(..) => self.iregs[ri(d)].wrapping_add(self.iregs[ri(s)]),
                    _ => self.iregs[ri(d)].wrapping_sub(self.iregs[ri(s)]),
                };
                self.iset(d, v, r, is);
            }
            Op::IAddImm(d, v) => {
                let r = t.max(self.ireg_ready[ri(d)]) + intl;
                self.iset(d, self.iregs[ri(d)].wrapping_add(v), r, is);
            }
            Op::IShlImm(d, s) => {
                let r = t.max(self.ireg_ready[ri(d)]) + intl;
                self.iregs[ri(d)] <<= s;
                self.ireg_ready[ri(d)] = is.window(r);
            }
            Op::IDivImm(d, v) | Op::IRemImm(d, v) => {
                let r = t.max(self.ireg_ready[ri(d)]) + 20;
                let x = self.iregs[ri(d)];
                self.iregs[ri(d)] = match op {
                    Op::IDivImm(..) => x / v,
                    _ => x % v,
                };
                self.ireg_ready[ri(d)] = is.window(r);
            }
            Op::Lea(d, a) => {
                let r = t.max(self.ar(&a)) + intl;
                self.iset(d, self.ea(&a) as i64, r, is);
            }
            Op::ICmp(a, b) => {
                let r = t.max(self.ireg_ready[ri(a)]).max(self.ireg_ready[ri(b)]) + intl;
                self.flags = threeway(self.iregs[ri(a)], self.iregs[ri(b)]);
                self.flags_ready = is.window(r);
            }
            Op::ICmpImm(a, v) => {
                let r = t.max(self.ireg_ready[ri(a)]) + intl;
                self.flags = threeway(self.iregs[ri(a)], v);
                self.flags_ready = is.window(r);
            }
            Op::IDec(d) => {
                let r = t.max(self.ireg_ready[ri(d)]) + intl;
                self.iregs[ri(d)] -= 1;
                self.flags = threeway(self.iregs[ri(d)], 0);
                self.ireg_ready[ri(d)] = r;
                self.flags_ready = is.window(r);
            }
            Op::ILoad(d, a) => {
                let addr = self.ea(&a);
                let ready = self.load(addr, 8, t.max(self.ar(&a)));
                self.iset(d, mem.read_i64(addr)?, ready, is);
            }
            Op::IStore(a, s) => {
                let addr = self.ea(&a);
                self.store(addr, 8, t.max(self.ar(&a)).max(self.ireg_ready[ri(s)]));
                mem.write_i64(addr, self.iregs[ri(s)])?;
            }
            Op::FLdS(d, a) => self.fld::<f32>(d, &a, t, is, mem)?,
            Op::FLdD(d, a) => self.fld::<f64>(d, &a, t, is, mem)?,
            Op::FStS(a, s) => self.fst::<f32, false>(&a, s, t, is, mem)?,
            Op::FStD(a, s) => self.fst::<f64, false>(&a, s, t, is, mem)?,
            Op::FStNtS(a, s) => self.fst::<f32, true>(&a, s, t, is, mem)?,
            Op::FStNtD(a, s) => self.fst::<f64, true>(&a, s, t, is, mem)?,
            Op::Mov(d, s) => {
                let r = t.max(self.freg_ready[rf(s)]) + fmov;
                self.fset(d, self.fregs[rf(s)], r, is);
            }
            Op::Const(d, bytes) => {
                self.fset(d, VReg(bytes), t + fmov, is);
            }
            Op::FArRS(op, d, s) => self.farith::<f32>(op, d, self.sreg(s), t, is),
            Op::FArRD(op, d, s) => self.farith::<f64>(op, d, self.sreg(s), t, is),
            Op::FArMS(op, d, a) => {
                let rhs = self.scalar_mem::<f32>(&a, t, mem)?;
                self.farith(op, d, rhs, t, is)
            }
            Op::FArMD(op, d, a) => {
                let rhs = self.scalar_mem::<f64>(&a, t, mem)?;
                self.farith(op, d, rhs, t, is)
            }
            Op::FAbs(d, p) => {
                let r = t.max(self.freg_ready[rf(d)]) + fmov;
                let b = &mut self.fregs[rf(d)];
                *b = VReg((u128::from_le_bytes(**b) & !(1 << (8 * p.bytes() - 1))).to_le_bytes());
                self.freg_ready[rf(d)] = is.window(r);
            }
            Op::FSqrt(d, p) => {
                let r = t.max(self.freg_ready[rf(d)]) + self.cfg.fdiv_lat; // ~ divide
                let b = &mut self.fregs[rf(d)];
                match p {
                    Prec::S => f32::get(b, 0).sqrt().put(b, 0),
                    Prec::D => f64::get(b, 0).sqrt().put(b, 0),
                }
                self.freg_ready[rf(d)] = is.window(r);
            }
            Op::FCmpR(a, b, Prec::S) => self.fcmp::<f32>(a, self.sreg(b), t, is),
            Op::FCmpR(a, b, Prec::D) => self.fcmp::<f64>(a, self.sreg(b), t, is),
            Op::FCmpM(a, b, Prec::S) => {
                let rhs = self.scalar_mem::<f32>(&b, t, mem)?;
                self.fcmp(a, rhs, t, is)
            }
            Op::FCmpM(a, b, Prec::D) => {
                let rhs = self.scalar_mem::<f64>(&b, t, mem)?;
                self.fcmp(a, rhs, t, is)
            }
            Op::VLd(d, a, p, aligned) => {
                let (v, mut ready) = self.vector_mem(&a, p, t, mem)?;
                if !aligned {
                    ready += self.cfg.unaligned_penalty;
                }
                self.fset(d, v, ready, is);
            }
            Op::VSt(a, s, p, aligned) => {
                let mut te = t.max(self.ar(&a)).max(self.freg_ready[rf(s)]);
                if !aligned {
                    te += self.cfg.unaligned_penalty;
                }
                let addr = self.ea(&a);
                self.store(addr, 16, te);
                store_vector(mem, addr, p, self.fregs[rf(s)])?;
            }
            Op::VStNt(a, s, p) => {
                let addr = self.ea(&a);
                let now = t.max(self.ar(&a)).max(self.freg_ready[rf(s)]);
                if self.nt_store(addr, 16, now) {
                    is.stall(now, self.cfg.nt_cached_penalty);
                }
                store_vector(mem, addr, p, self.fregs[rf(s)])?;
            }
            Op::VBcast(d, s, p) => {
                let r = t.max(self.freg_ready[rf(s)]) + self.cfg.bcast_lat;
                let (ones, lane0) = lane_bits(p);
                let v = (u128::from_le_bytes(*self.fregs[rf(s)]) & lane0) * ones;
                self.fset(d, VReg(v.to_le_bytes()), r, is);
            }
            Op::VArRS(op, d, s) => self.varith::<f32, 4>(op, d, self.vreg(s), t, is),
            Op::VArRD(op, d, s) => self.varith::<f64, 2>(op, d, self.vreg(s), t, is),
            Op::VArMS(op, d, a) => {
                let rhs = self.vector_mem(&a, Prec::S, t, mem)?;
                self.varith::<f32, 4>(op, d, rhs, t, is)
            }
            Op::VArMD(op, d, a) => {
                let rhs = self.vector_mem(&a, Prec::D, t, mem)?;
                self.varith::<f64, 2>(op, d, rhs, t, is)
            }
            Op::VAbs(d, p) => {
                let r = t.max(self.freg_ready[rf(d)]) + fmov;
                let signs = lane_bits(p).0 << (8 * p.bytes() - 1);
                let v = u128::from_le_bytes(*self.fregs[rf(d)]) & !signs;
                self.fset(d, VReg(v.to_le_bytes()), r, is);
            }
            Op::VCmpGtR(d, s, p) => self.vcmpgt(d, self.vreg(s), p, t, is),
            Op::VCmpGtM(d, a, p) => {
                let rhs = self.vector_mem(&a, p, t, mem)?;
                self.vcmpgt(d, rhs, p, t, is)
            }
            Op::VMovMsk(d, s, p) => {
                let lane = p.bytes() as usize;
                let b = &self.fregs[rf(s)];
                let mask = (0..p.veclen() as usize)
                    .filter(|i| b[(i + 1) * lane - 1] & 0x80 != 0)
                    .fold(0i64, |m, i| m | 1 << i);
                self.iregs[ri(d)] = mask;
                self.flags = (mask != 0) as i32;
                let r = t.max(self.freg_ready[rf(s)]) + self.cfg.fcmp_lat + 1;
                self.ireg_ready[ri(d)] = r;
                self.flags_ready = is.window(r);
            }
            Op::VHSum(d, s, p) | Op::VHMax(d, s, p) => {
                let v = &lanes(&self.fregs[rf(s)], p)[..p.veclen() as usize];
                let out = match (op, p) {
                    (Op::VHSum(..), Prec::S) => v.iter().sum::<f64>() as f32 as f64,
                    (Op::VHSum(..), Prec::D) => v.iter().sum(),
                    _ => v.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                };
                let r = t.max(self.freg_ready[rf(s)]) + self.cfg.hsum_lat;
                self.fregs[rf(d)] = VReg::ZERO;
                set_scalar(&mut self.fregs[rf(d)], p, out);
                self.freg_ready[rf(d)] = is.window(r);
            }
            Op::Prefetch(a, kind) => {
                let addr = self.ea(&a);
                self.prefetch(addr, kind, t.max(self.ar(&a)));
            }
        }
        Ok(())
    }

    /// A scalar load into lane 0; the other lanes are zeroed.
    #[inline(always)]
    fn fld<T: Lane>(
        &mut self,
        d: u8,
        a: &DAddr,
        t: u64,
        is: &mut Issue,
        mem: &Memory,
    ) -> Result<(), MemFault> {
        let (v, ready) = self.scalar_mem::<T>(a, t, mem)?;
        self.fregs[rf(d)] = VReg::ZERO;
        v.put(&mut self.fregs[rf(d)], 0);
        self.freg_ready[rf(d)] = is.window(ready);
        Ok(())
    }

    /// A scalar store of lane 0, non-temporal if `NT`.
    #[inline(always)]
    fn fst<T: Lane, const NT: bool>(
        &mut self,
        a: &DAddr,
        s: u8,
        t: u64,
        is: &mut Issue,
        mem: &mut Memory,
    ) -> Result<(), MemFault> {
        let te = t.max(self.ar(a)).max(self.freg_ready[rf(s)]);
        let addr = self.ea(a);
        let bytes = T::PREC.bytes();
        match NT {
            true if self.nt_store(addr, bytes, te) => is.stall(te, self.cfg.nt_cached_penalty),
            true => {}
            false => self.store(addr, bytes, te),
        }
        T::get(&self.fregs[rf(s)], 0).write(mem, addr)
    }
}

/// A vector register: 16 bytes holding its lanes little-endian in lane
/// order — 2 x f64 or 4 x f32 — which is also how a vector lies in
/// memory, so a vector load or store is one 16-byte move in either
/// precision. Aligned, so that the host moves it as one unit too.
#[derive(Clone, Copy)]
#[repr(align(16))]
struct VReg([u8; 16]);

impl VReg {
    const ZERO: VReg = VReg([0; 16]);
}

impl std::ops::Deref for VReg {
    type Target = [u8; 16];
    fn deref(&self) -> &[u8; 16] {
        &self.0
    }
}

impl std::ops::DerefMut for VReg {
    fn deref_mut(&mut self) -> &mut [u8; 16] {
        &mut self.0
    }
}

/// Write `v` into lane 0 at precision `p`, leaving the other bytes.
#[inline(always)]
fn set_scalar(b: &mut VReg, p: Prec, v: f64) {
    match p {
        Prec::S => b[0..4].copy_from_slice(&(v as f32).to_le_bytes()),
        Prec::D => b[0..8].copy_from_slice(&v.to_le_bytes()),
    }
}

/// The float a lane holds: `f32` at single precision, `f64` at double.
/// A lane computes in its own type — one `f32` add, subtract, multiply,
/// divide or square root is exactly the f64 result rounded once — and
/// moves as its own bits, never through a widening that may or may not
/// quiet a signalling NaN.
trait Lane:
    Copy
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    const PREC: Prec;
    /// Lane `i` of a register.
    fn get(b: &[u8; 16], i: usize) -> Self;
    /// Write lane `i` of a register, leaving the other bytes.
    fn put(self, b: &mut [u8; 16], i: usize);
    fn read(mem: &Memory, addr: u64) -> Result<Self, MemFault>;
    fn write(self, mem: &mut Memory, addr: u64) -> Result<(), MemFault>;
}

macro_rules! lane {
    ($t:ty, $prec:expr, $bytes:literal, $read:ident, $write:ident) => {
        impl Lane for $t {
            const PREC: Prec = $prec;
            #[inline(always)]
            fn get(b: &[u8; 16], i: usize) -> Self {
                <$t>::from_le_bytes(b.as_chunks::<$bytes>().0[i])
            }
            #[inline(always)]
            fn put(self, b: &mut [u8; 16], i: usize) {
                b.as_chunks_mut::<$bytes>().0[i] = self.to_le_bytes();
            }
            #[inline(always)]
            fn read(mem: &Memory, addr: u64) -> Result<Self, MemFault> {
                mem.$read(addr)
            }
            #[inline(always)]
            fn write(self, mem: &mut Memory, addr: u64) -> Result<(), MemFault> {
                mem.$write(addr, self)
            }
        }
    };
}
lane!(f32, Prec::S, 4, read_f32, write_f32);
lane!(f64, Prec::D, 8, read_f64, write_f64);

/// The first `N` lanes of a register.
#[inline(always)]
fn vget<T: Lane, const N: usize>(b: &[u8; 16]) -> [T; N] {
    std::array::from_fn(|i| T::get(b, i))
}

/// The register holding `v`, its lanes filling all 16 bytes.
#[inline(always)]
fn vput<T: Lane, const N: usize>(v: [T; N]) -> VReg {
    let mut b = VReg::ZERO;
    for (i, x) in v.into_iter().enumerate() {
        x.put(&mut b, i);
    }
    b
}

/// A register as one `u128` at precision `p`: the lowest bit of every
/// lane, and lane 0's bits. Abs clears a lane's sign bit and a broadcast
/// copies lane 0's bits, so neither converts a float.
#[inline(always)]
fn lane_bits(p: Prec) -> (u128, u128) {
    match p {
        Prec::S => (0x0000_0001_0000_0001_0000_0001_0000_0001, 0xFFFF_FFFF),
        Prec::D => (1 << 64 | 1, 0xFFFF_FFFF_FFFF_FFFF),
    }
}

/// A register's lanes as f64, the unused upper two of a double vector 0.
#[inline(always)]
fn lanes(b: &[u8; 16], p: Prec) -> [f64; 4] {
    match p {
        Prec::D => {
            let [lo, hi] = vget::<f64, 2>(b);
            [lo, hi, 0.0, 0.0]
        }
        Prec::S => vget::<f32, 4>(b).map(f64::from),
    }
}

/// `lhs op rhs` in every lane; a max keeps the `lhs` lane itself unless
/// `rhs` is greater. (The ISA has no vector divide; the assembler never
/// emits one, and a lanewise divide is what one would be.)
#[inline(always)]
fn lanewise<T: Lane, const N: usize>(op: AOp, lhs: [T; N], rhs: [T; N]) -> [T; N] {
    match op {
        AOp::Add => std::array::from_fn(|i| lhs[i] + rhs[i]),
        AOp::Sub => std::array::from_fn(|i| lhs[i] - rhs[i]),
        AOp::Mul => std::array::from_fn(|i| lhs[i] * rhs[i]),
        AOp::Div => std::array::from_fn(|i| lhs[i] / rhs[i]),
        AOp::Max => std::array::from_fn(|i| if rhs[i] > lhs[i] { rhs[i] } else { lhs[i] }),
    }
}

/// The 16 bytes of a vector at `addr`: one move when they are all
/// addressable.
#[inline(always)]
fn load_vector(mem: &Memory, addr: u64, p: Prec) -> Result<VReg, MemFault> {
    match mem.chunk(addr) {
        Some(v) => Ok(VReg(*v)),
        None => load_lanes(mem, addr, p),
    }
}

/// Store the 16 bytes of a vector register at `addr`.
#[inline(always)]
fn store_vector(mem: &mut Memory, addr: u64, p: Prec, reg: VReg) -> Result<(), MemFault> {
    match mem.chunk_mut(addr) {
        Some(v) => {
            *v = reg.0;
            Ok(())
        }
        None => store_lanes(mem, addr, p, reg),
    }
}

/// A vector load whose 16 bytes are not all addressable, lane by lane as
/// a loop of scalar loads would do it: the fault names the first lane out
/// of range.
#[cold]
fn load_lanes(mem: &Memory, addr: u64, p: Prec) -> Result<VReg, MemFault> {
    let mut reg = VReg::ZERO;
    match p {
        Prec::D => {
            for (i, lane) in reg.as_chunks_mut::<8>().0.iter_mut().enumerate() {
                *lane = mem.read(addr.wrapping_add(8 * i as u64))?;
            }
        }
        Prec::S => {
            for (i, lane) in reg.as_chunks_mut::<4>().0.iter_mut().enumerate() {
                *lane = mem.read(addr.wrapping_add(4 * i as u64))?;
            }
        }
    }
    Ok(reg)
}

/// The store counterpart of [`load_lanes`]: the lanes below the first one
/// out of range are written before the fault.
#[cold]
fn store_lanes(mem: &mut Memory, addr: u64, p: Prec, reg: VReg) -> Result<(), MemFault> {
    match p {
        Prec::D => {
            for (i, lane) in reg.as_chunks::<8>().0.iter().enumerate() {
                mem.write(addr.wrapping_add(8 * i as u64), *lane)?;
            }
        }
        Prec::S => {
            for (i, lane) in reg.as_chunks::<4>().0.iter().enumerate() {
                mem.write(addr.wrapping_add(4 * i as u64), *lane)?;
            }
        }
    }
    Ok(())
}

/// `log2(cfg.hw_prefetch_page)`; the stream prefetcher's page-edge
/// arithmetic needs a power of two.
fn page_shift(cfg: &MachineConfig) -> u32 {
    assert!(
        cfg.hw_prefetch_page.is_power_of_two(),
        "hw_prefetch_page must be a power of two: {}",
        cfg.hw_prefetch_page
    );
    cfg.hw_prefetch_page.trailing_zeros()
}

#[inline(always)]
fn threeway(a: i64, b: i64) -> i32 {
    a.cmp(&b) as i32
}

#[inline(always)]
fn fthreeway<T: PartialOrd>(a: T, b: T) -> i32 {
    if a < b {
        -1
    } else if a > b {
        1
    } else {
        0
    }
}
