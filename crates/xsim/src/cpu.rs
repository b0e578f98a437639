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

use crate::bus::Bus;
use crate::cache::{Cache, Evicted, Miss, Probe};
use crate::isa::*;
use crate::machine::MachineConfig;
use crate::mem::{MemFault, Memory};
use crate::stats::RunStats;

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

    iregs: [i64; NUM_IREGS],
    fregs: [VReg; NUM_FREGS],
    ireg_ready: [u64; NUM_IREGS],
    freg_ready: [u64; NUM_FREGS],
    /// Flags as a three-way ordering (-1, 0, 1) plus readiness.
    flags: i32,
    flags_ready: u64,

    cycle: u64,
    slots: u32,
    width: u32,

    /// 1-bit dynamic branch predictor, indexed by instruction address.
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

    /// Reusable predecode buffer: [`run`](Cpu::run) lowers the program
    /// into dense [`DInst`]s here, so back-to-back runs reuse the
    /// allocation.
    decoded: Vec<DInst>,

    pub stats: RunStats,
    inst_limit: u64,
}

const PRED_UNSEEN: u8 = 2;

/// Arithmetic opcode of a folded two-operand FP/vector instruction.
#[derive(Clone, Copy)]
enum AOp {
    Add,
    Sub,
    Mul,
    Div,
    Max,
}

/// A predecoded [`Addr`]: `base + index*scale + disp` with the index
/// always there. An address without one names its base again at scale 0,
/// which adds nothing and is ready whenever the base is, so the
/// interpreter computes every address the same branch-free way.
#[derive(Clone, Copy)]
struct DAddr {
    base: u8,
    index: u8,
    scale: u8,
    disp: i64,
}

impl From<&Addr> for DAddr {
    fn from(a: &Addr) -> Self {
        let (index, scale) = a.index.map_or((a.base.0, 0), |(idx, sc)| (idx.0, sc));
        DAddr {
            base: a.base.0,
            index,
            scale,
            disp: a.disp,
        }
    }
}

/// A predecoded [`RegOrMem`].
#[derive(Clone, Copy)]
enum DSrc {
    Reg(FReg),
    Mem(DAddr),
}

impl From<&RegOrMem> for DSrc {
    fn from(s: &RegOrMem) -> Self {
        match s {
            RegOrMem::Reg(r) => DSrc::Reg(*r),
            RegOrMem::Mem(a) => DSrc::Mem(a.into()),
        }
    }
}

/// One predecoded instruction: a dense `Copy` mirror of [`Inst`] with the
/// per-step interpretive work hoisted to decode time — branch targets are
/// resolved to instruction indices, the static (unseen) branch prediction
/// is precomputed per site, addresses are [`DAddr`]s, and the five
/// two-operand arithmetic variants are folded behind an [`AOp`] opcode so
/// the interpreter matches each instruction exactly once per step.
#[derive(Clone, Copy)]
enum DInst {
    IMovImm(IReg, i64),
    IMov(IReg, IReg),
    IAdd(IReg, IReg),
    IAddImm(IReg, i64),
    ISub(IReg, IReg),
    ISubImm(IReg, i64),
    IShlImm(IReg, u8),
    IDivImm(IReg, i64),
    IRemImm(IReg, i64),
    Lea(IReg, DAddr),
    ICmp(IReg, IReg),
    ICmpImm(IReg, i64),
    IDec(IReg),
    ILoad(IReg, DAddr),
    IStore(DAddr, IReg),
    /// Unconditional jump, target resolved to an instruction index.
    Jmp(u32),
    /// Conditional jump: (condition, resolved target, static prediction —
    /// backward branches predicted taken on first encounter).
    Jcc(Cond, u32, bool),
    Halt,
    FLd(FReg, DAddr, Prec),
    FSt(DAddr, FReg, Prec),
    FStNt(DAddr, FReg, Prec),
    FMov(FReg, FReg),
    FLdImm(FReg, f64, Prec),
    FZero(FReg),
    FArith(AOp, FReg, DSrc, Prec),
    FAbs(FReg, Prec),
    FSqrt(FReg, Prec),
    FCmp(FReg, DSrc, Prec),
    VLd(FReg, DAddr, Prec, bool),
    VSt(DAddr, FReg, Prec, bool),
    VStNt(DAddr, FReg, Prec),
    VMov(FReg, FReg),
    VBcast(FReg, FReg, Prec),
    VArith(AOp, FReg, DSrc, Prec),
    VAbs(FReg, Prec),
    VCmpGt(FReg, DSrc, Prec),
    VMovMsk(IReg, FReg, Prec),
    VHSum(FReg, FReg, Prec),
    VHMax(FReg, FReg, Prec),
    Prefetch(DAddr, PrefKind),
}

/// Lower an assembled program into `out` (cleared first).
fn predecode(prog: &Program, out: &mut Vec<DInst>) {
    out.clear();
    out.reserve(prog.insts.len());
    for (pc, inst) in prog.insts.iter().enumerate() {
        out.push(match inst {
            Inst::IMovImm(d, v) => DInst::IMovImm(*d, *v),
            Inst::IMov(d, s) => DInst::IMov(*d, *s),
            Inst::IAdd(d, s) => DInst::IAdd(*d, *s),
            Inst::IAddImm(d, v) => DInst::IAddImm(*d, *v),
            Inst::ISub(d, s) => DInst::ISub(*d, *s),
            Inst::ISubImm(d, v) => DInst::ISubImm(*d, *v),
            Inst::IShlImm(d, s) => DInst::IShlImm(*d, *s),
            Inst::IDivImm(d, v) => DInst::IDivImm(*d, *v),
            Inst::IRemImm(d, v) => DInst::IRemImm(*d, *v),
            Inst::Lea(d, a) => DInst::Lea(*d, a.into()),
            Inst::ICmp(a, b) => DInst::ICmp(*a, *b),
            Inst::ICmpImm(a, v) => DInst::ICmpImm(*a, *v),
            Inst::IDec(d) => DInst::IDec(*d),
            Inst::ILoad(d, a) => DInst::ILoad(*d, a.into()),
            Inst::IStore(a, s) => DInst::IStore(a.into(), *s),
            Inst::Jmp(l) => DInst::Jmp(prog.target(*l) as u32),
            Inst::Jcc(c, l) => {
                let tgt = prog.target(*l);
                DInst::Jcc(*c, tgt as u32, tgt <= pc)
            }
            Inst::Halt => DInst::Halt,
            Inst::FLd(d, a, p) => DInst::FLd(*d, a.into(), *p),
            Inst::FSt(a, s, p) => DInst::FSt(a.into(), *s, *p),
            Inst::FStNt(a, s, p) => DInst::FStNt(a.into(), *s, *p),
            Inst::FMov(d, s, _p) => DInst::FMov(*d, *s),
            Inst::FLdImm(d, v, p) => DInst::FLdImm(*d, *v, *p),
            Inst::FZero(d) => DInst::FZero(*d),
            Inst::FAdd(d, s, p) => DInst::FArith(AOp::Add, *d, s.into(), *p),
            Inst::FSub(d, s, p) => DInst::FArith(AOp::Sub, *d, s.into(), *p),
            Inst::FMul(d, s, p) => DInst::FArith(AOp::Mul, *d, s.into(), *p),
            Inst::FDiv(d, s, p) => DInst::FArith(AOp::Div, *d, s.into(), *p),
            Inst::FMax(d, s, p) => DInst::FArith(AOp::Max, *d, s.into(), *p),
            Inst::FAbs(d, p) => DInst::FAbs(*d, *p),
            Inst::FSqrt(d, p) => DInst::FSqrt(*d, *p),
            Inst::FCmp(a, b, p) => DInst::FCmp(*a, b.into(), *p),
            Inst::VLd(d, a, p, al) => DInst::VLd(*d, a.into(), *p, *al),
            Inst::VSt(a, s, p, al) => DInst::VSt(a.into(), *s, *p, *al),
            Inst::VStNt(a, s, p) => DInst::VStNt(a.into(), *s, *p),
            Inst::VMov(d, s) => DInst::VMov(*d, *s),
            Inst::VBcast(d, s, p) => DInst::VBcast(*d, *s, *p),
            Inst::VAdd(d, s, p) => DInst::VArith(AOp::Add, *d, s.into(), *p),
            Inst::VSub(d, s, p) => DInst::VArith(AOp::Sub, *d, s.into(), *p),
            Inst::VMul(d, s, p) => DInst::VArith(AOp::Mul, *d, s.into(), *p),
            Inst::VMax(d, s, p) => DInst::VArith(AOp::Max, *d, s.into(), *p),
            Inst::VAbs(d, p) => DInst::VAbs(*d, *p),
            Inst::VCmpGt(d, s, p) => DInst::VCmpGt(*d, s.into(), *p),
            Inst::VMovMsk(d, s, p) => DInst::VMovMsk(*d, *s, *p),
            Inst::VHSum(d, s, p) => DInst::VHSum(*d, *s, *p),
            Inst::VHMax(d, s, p) => DInst::VHMax(*d, *s, *p),
            Inst::Prefetch(a, k) => DInst::Prefetch(a.into(), *k),
        });
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
            iregs: [0; NUM_IREGS],
            fregs: [VReg::ZERO; NUM_FREGS],
            ireg_ready: [0; NUM_IREGS],
            freg_ready: [0; NUM_FREGS],
            flags: 0,
            flags_ready: 0,
            cycle: 0,
            slots: 0,
            width: 3,
            predictor: Vec::new(),
            wc: Vec::new(),
            hw_streams: [u64::MAX; 4],
            hw_misses: [u64::MAX; 8],
            hw_next: 0,
            decoded: Vec::new(),
            stats: RunStats::default(),
            inst_limit: DEFAULT_INST_LIMIT,
        }
    }

    /// Return to the state of `Cpu::new(cfg.clone())` — registers, flags,
    /// scoreboard, caches, bus, write-combine buffers, prefetch streams,
    /// predictor, statistics and instruction budget — without giving up
    /// the cache line stores or the predecode buffer. `cfg` may be any
    /// machine: the caches re-shape themselves when the geometry differs.
    pub fn reset(&mut self, cfg: &MachineConfig) {
        self.page_shift = page_shift(cfg);
        self.l1_shift = cfg.l1.line.trailing_zeros();
        self.l2_shift = cfg.l2.line.trailing_zeros();
        self.l1.reset(cfg.l1);
        self.l2.reset(cfg.l2);
        self.bus = Bus::new(cfg.bus);
        self.cfg = cfg.clone();
        self.iregs = [0; NUM_IREGS];
        self.fregs = [VReg::ZERO; NUM_FREGS];
        self.ireg_ready = [0; NUM_IREGS];
        self.freg_ready = [0; NUM_FREGS];
        self.flags = 0;
        self.flags_ready = 0;
        self.cycle = 0;
        self.slots = 0;
        self.width = 3;
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
        self.iregs[r.0 as usize] = v;
    }
    pub fn ireg(&self, r: IReg) -> i64 {
        self.iregs[r.0 as usize]
    }
    /// Set lane 0 of an FP register before a run (FP argument passing).
    pub fn set_freg_f64(&mut self, r: FReg, v: f64) {
        self.fregs[r.0 as usize] = VReg::ZERO;
        self.fregs[r.0 as usize][0..8].copy_from_slice(&v.to_le_bytes());
    }
    pub fn set_freg_f32(&mut self, r: FReg, v: f32) {
        self.fregs[r.0 as usize] = VReg::ZERO;
        self.fregs[r.0 as usize][0..4].copy_from_slice(&v.to_le_bytes());
    }
    /// Lane 0 of an FP register as f64.
    pub fn freg_f64(&self, r: FReg) -> f64 {
        f64::from_le_bytes(self.fregs[r.0 as usize][0..8].try_into().unwrap())
    }
    pub fn freg_f32(&self, r: FReg) -> f32 {
        f32::from_le_bytes(self.fregs[r.0 as usize][0..4].try_into().unwrap())
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

    // ---------------------------------------------------------------- issue

    #[inline]
    fn issue_at(&mut self, ready: u64) -> u64 {
        if ready > self.cycle {
            self.cycle = ready;
            self.slots = 0;
        }
        let t = self.cycle;
        self.slots += 1;
        if self.slots >= self.width {
            self.cycle += 1;
            self.slots = 0;
        }
        t
    }

    /// End the current issue group (taken branches).
    #[inline]
    fn end_group(&mut self) {
        if self.slots != 0 {
            self.cycle += 1;
            self.slots = 0;
        }
    }

    // --------------------------------------------------------------- memory

    /// Handle a line evicted from L1: dirty data falls into L2; if L2
    /// cannot absorb it, the displaced dirty L2 line goes over the bus.
    fn l1_evict(&mut self, ev: Option<Evicted>, now: u64) {
        let Some(Evicted { addr, dirty: true }) = ev else {
            return;
        };
        if let Probe::Miss(miss) = self.l2.mark_dirty(addr) {
            let ev2 = self.l2.fill(miss, now, true);
            self.l2_evict(ev2, now);
        }
    }

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
    #[inline]
    fn load_access(&mut self, addr: u64, bytes: u64, now: u64) -> u64 {
        let sh = self.l1_shift;
        if addr >> sh != (addr + bytes - 1) >> sh {
            // Line-crossing access: both lines, plus the unaligned penalty.
            let split = ((addr >> sh) + 1) << sh;
            let a = self.load_access_aligned(addr, now);
            let b = self.load_access_aligned(split, now);
            return a.max(b) + self.cfg.unaligned_penalty;
        }
        self.load_access_aligned(addr, now)
    }

    /// Each level is looked up once: a miss is filled through the
    /// [`Miss`](crate::cache::Miss) its lookup returned (nothing touches
    /// that level's set in between).
    fn load_access_aligned(&mut self, addr: u64, now: u64) -> u64 {
        self.stats.loads += 1;
        let l1_miss = match self.l1.probe(addr) {
            Probe::Hit { fill_done } => {
                self.stats.l1_hits += 1;
                return now.max(fill_done) + self.cfg.l1.latency;
            }
            Probe::Miss(miss) => miss,
        };
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
    #[inline]
    fn store_access(&mut self, addr: u64, bytes: u64, now: u64) {
        let sh = self.l1_shift;
        if addr >> sh != (addr + bytes - 1) >> sh {
            let split = ((addr >> sh) + 1) << sh;
            self.store_access_aligned(addr, now);
            self.store_access_aligned(split, now);
            return;
        }
        self.store_access_aligned(addr, now);
    }

    fn store_access_aligned(&mut self, addr: u64, now: u64) {
        self.stats.stores += 1;
        let Probe::Miss(l1_miss) = self.l1.mark_dirty(addr) else {
            self.stats.l1_hits += 1;
            return;
        };
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
    fn nt_store_access(&mut self, addr: u64, bytes: u64, now: u64) {
        self.stats.stores += 1;
        self.stats.nt_stores += 1;
        let line = self.cfg.l1.line;
        let line_addr = addr >> self.l1_shift << self.l1_shift;
        if let Some(entry) = self.wc.iter_mut().find(|(l, _)| *l == line_addr) {
            entry.1 = (entry.1 + bytes).min(line);
            if entry.1 >= line {
                let idx = self.wc.iter().position(|(l, _)| *l == line_addr).unwrap();
                self.flush_wc_entry(idx, now);
            }
            return;
        }
        if self.wc.len() >= self.cfg.wc_buffers {
            // All buffers busy: flush the oldest (FIFO), possibly partial.
            self.flush_wc_entry(0, now);
        }
        self.wc.push((line_addr, bytes));
    }

    fn flush_wc_entry(&mut self, idx: usize, now: u64) {
        let (line_addr, b) = self.wc.remove(idx);
        self.bus.write(now, b);
        self.stats.wc_flushes += 1;
        let mut hit_cached = false;
        if self.l1.invalidate(line_addr).is_some() {
            hit_cached = true;
        }
        if self.l2.invalidate(line_addr).is_some() {
            hit_cached = true;
        }
        if hit_cached && self.cfg.nt_cached_penalty > 0 {
            self.cycle = self.cycle.max(now) + self.cfg.nt_cached_penalty;
            self.slots = 0;
        }
    }

    fn flush_wc(&mut self, now: u64) {
        while !self.wc.is_empty() {
            self.flush_wc_entry(0, now);
        }
    }

    fn prefetch_access(&mut self, addr: u64, kind: PrefKind, now: u64) {
        let (to_l1, to_l2, dirty) = match kind {
            PrefKind::T0 => (true, true, false),
            PrefKind::T1 | PrefKind::T2 => (false, true, false),
            PrefKind::Nta => (true, false, false),
            PrefKind::W => (true, true, true),
        };
        // Useless if the target level nearest the CPU already has the
        // line. Each level is looked at once; its `Miss` serves the fill.
        let l1_miss = if to_l1 {
            match self.l1.peek(addr) {
                Probe::Hit { .. } => {
                    self.stats.prefetch_useless += 1;
                    return;
                }
                Probe::Miss(miss) => Some(miss),
            }
        } else {
            None
        };
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

    #[inline]
    fn ea(&self, a: &DAddr) -> u64 {
        let v = self.iregs[a.base as usize] + self.iregs[a.index as usize] * a.scale as i64;
        (v + a.disp) as u64
    }

    #[inline]
    fn addr_ready(&self, a: &DAddr) -> u64 {
        self.ireg_ready[a.base as usize].max(self.ireg_ready[a.index as usize])
    }

    /// Read a scalar (lane 0) value as f64 regardless of precision.
    #[inline]
    fn scalar(&self, r: FReg, p: Prec) -> f64 {
        match p {
            Prec::S => self.freg_f32(r) as f64,
            Prec::D => self.freg_f64(r),
        }
    }
    #[inline]
    fn set_scalar(&mut self, r: FReg, p: Prec, v: f64) {
        let b = &mut self.fregs[r.0 as usize];
        match p {
            Prec::S => b[0..4].copy_from_slice(&(v as f32).to_le_bytes()),
            Prec::D => b[0..8].copy_from_slice(&v.to_le_bytes()),
        }
    }

    /// Register readiness an instruction with this RHS must wait for at
    /// *issue*: the register itself, or — for a memory operand — only the
    /// address registers. Cache/memory latency of the operand does **not**
    /// block issue (the load is pipelined); it only delays the result.
    #[inline]
    fn rhs_issue_ready(&self, src: &DSrc) -> u64 {
        match src {
            DSrc::Reg(r) => self.freg_ready[r.0 as usize],
            DSrc::Mem(a) => self.addr_ready(a),
        }
    }

    /// Resolve a scalar RHS at issue time `at`: returns (value, data-ready
    /// time). Memory operands perform a timed load of `prec` bytes
    /// initiated at `at`.
    #[inline]
    fn scalar_rhs(
        &mut self,
        src: &DSrc,
        p: Prec,
        mem: &Memory,
        at: u64,
    ) -> Result<(f64, u64), RunError> {
        match src {
            DSrc::Reg(r) => Ok((self.scalar(*r, p), self.freg_ready[r.0 as usize])),
            DSrc::Mem(a) => {
                let addr = self.ea(a);
                let ready = self.load_access(addr, p.bytes(), at);
                let v = match p {
                    Prec::S => mem.read_f32(addr)? as f64,
                    Prec::D => mem.read_f64(addr)?,
                };
                Ok((v, ready))
            }
        }
    }

    /// Resolve a vector RHS as the 16 bytes of a register, with their
    /// data-ready time; a memory operand is a timed 16-byte load at `at`.
    #[inline]
    fn vector_rhs(
        &mut self,
        src: &DSrc,
        p: Prec,
        mem: &Memory,
        at: u64,
    ) -> Result<(VReg, u64), RunError> {
        match src {
            DSrc::Reg(r) => Ok((self.fregs[r.0 as usize], self.freg_ready[r.0 as usize])),
            DSrc::Mem(a) => {
                let addr = self.ea(a);
                let ready = self.load_access(addr, 16, at);
                Ok((load_vector(mem, addr, p)?, ready))
            }
        }
    }

    #[inline]
    fn read_lanes(&self, r: FReg, p: Prec) -> [f64; 4] {
        lanes(&self.fregs[r.0 as usize], p)
    }

    #[inline]
    fn write_lanes(&mut self, r: FReg, p: Prec, v: [f64; 4]) {
        self.fregs[r.0 as usize] = match p {
            Prec::D => from_f64x2([v[0], v[1]]),
            Prec::S => from_f32x4(v),
        };
    }

    // ----------------------------------------------------------------- run

    /// Enforce the finite out-of-order window: the in-order issue front
    /// end may run at most `window_cycles` ahead of the oldest incomplete
    /// result. Short (cache-hit) latencies are fully hidden; DRAM misses
    /// exceed the window and stall the core for the excess — which is why
    /// prefetching remains essential while in-cache dependence chains
    /// (FP-add accumulators) still surface.
    #[inline]
    fn enforce_window(&mut self, ready: u64) {
        let horizon = self.cycle + self.cfg.window_cycles;
        if ready > horizon {
            self.cycle = ready - self.cfg.window_cycles;
            self.slots = 0;
        }
    }

    /// Execute `prog` to `Halt`. Register and memory state persist; timing
    /// state (cycle counter, scoreboard, stats) is reset at entry, cache
    /// contents are **not** (context setup is the harness's job).
    pub fn run(&mut self, prog: &Program, mem: &mut Memory) -> Result<RunStats, RunError> {
        self.cycle = 0;
        self.slots = 0;
        self.ireg_ready = [0; NUM_IREGS];
        self.freg_ready = [0; NUM_FREGS];
        self.flags_ready = 0;
        self.stats = RunStats::default();
        self.bus.reset();
        self.wc.clear();
        self.width = self.cfg.effective_width(prog.len());
        self.predictor.clear();
        self.predictor.resize(prog.len(), PRED_UNSEEN);
        let mut decoded = std::mem::take(&mut self.decoded);
        predecode(prog, &mut decoded);
        let result = self.interp(&decoded, mem);
        self.decoded = decoded;
        result
    }

    /// The interpret loop over the predecoded program.
    fn interp(&mut self, decoded: &[DInst], mem: &mut Memory) -> Result<RunStats, RunError> {
        let mut pc = 0usize;
        let fadd = self.cfg.fadd_lat;
        let fmul = self.cfg.fmul_lat;
        let fdiv = self.cfg.fdiv_lat;
        let fmov = self.cfg.fmov_lat;
        let intl = self.cfg.int_lat;

        loop {
            if self.stats.insts >= self.inst_limit {
                return Err(RunError::InstLimit {
                    limit: self.inst_limit,
                });
            }
            let Some(inst) = decoded.get(pc) else {
                return Err(RunError::RanOffEnd);
            };
            self.stats.insts += 1;
            let mut next_pc = pc + 1;

            macro_rules! ird {
                ($r:expr) => {
                    self.ireg_ready[$r.0 as usize]
                };
            }
            macro_rules! frd {
                ($r:expr) => {
                    self.freg_ready[$r.0 as usize]
                };
            }
            // Issue at the next front-end slot; operand readiness delays
            // only the *result*, bounded by the window.
            macro_rules! fin {
                ($dst_ready:expr) => {{
                    let r = $dst_ready;
                    self.enforce_window(r);
                    r
                }};
            }

            match *inst {
                DInst::IMovImm(d, v) => {
                    let t = self.issue_at(0);
                    self.iregs[d.0 as usize] = v;
                    ird!(d) = fin!(t + intl);
                }
                DInst::IMov(d, s) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(s)) + intl;
                    self.iregs[d.0 as usize] = self.iregs[s.0 as usize];
                    ird!(d) = fin!(r);
                }
                DInst::IAdd(d, s) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(d)).max(ird!(s)) + intl;
                    self.iregs[d.0 as usize] =
                        self.iregs[d.0 as usize].wrapping_add(self.iregs[s.0 as usize]);
                    ird!(d) = fin!(r);
                }
                DInst::IAddImm(d, v) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(d)) + intl;
                    self.iregs[d.0 as usize] = self.iregs[d.0 as usize].wrapping_add(v);
                    ird!(d) = fin!(r);
                }
                DInst::ISub(d, s) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(d)).max(ird!(s)) + intl;
                    self.iregs[d.0 as usize] =
                        self.iregs[d.0 as usize].wrapping_sub(self.iregs[s.0 as usize]);
                    ird!(d) = fin!(r);
                }
                DInst::ISubImm(d, v) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(d)) + intl;
                    self.iregs[d.0 as usize] = self.iregs[d.0 as usize].wrapping_sub(v);
                    ird!(d) = fin!(r);
                }
                DInst::IShlImm(d, s) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(d)) + intl;
                    self.iregs[d.0 as usize] <<= s;
                    ird!(d) = fin!(r);
                }
                DInst::IDivImm(d, v) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(d)) + 20;
                    self.iregs[d.0 as usize] /= v;
                    ird!(d) = fin!(r);
                }
                DInst::IRemImm(d, v) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(d)) + 20;
                    self.iregs[d.0 as usize] %= v;
                    ird!(d) = fin!(r);
                }
                DInst::Lea(d, a) => {
                    let t = self.issue_at(0);
                    let r = t.max(self.addr_ready(&a)) + intl;
                    self.iregs[d.0 as usize] = self.ea(&a) as i64;
                    ird!(d) = fin!(r);
                }
                DInst::ICmp(a, b) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(a)).max(ird!(b)) + intl;
                    self.flags = threeway(self.iregs[a.0 as usize], self.iregs[b.0 as usize]);
                    self.flags_ready = fin!(r);
                }
                DInst::ICmpImm(a, v) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(a)) + intl;
                    self.flags = threeway(self.iregs[a.0 as usize], v);
                    self.flags_ready = fin!(r);
                }
                DInst::IDec(d) => {
                    let t = self.issue_at(0);
                    let r = t.max(ird!(d)) + intl;
                    self.iregs[d.0 as usize] -= 1;
                    self.flags = threeway(self.iregs[d.0 as usize], 0);
                    ird!(d) = r;
                    self.flags_ready = fin!(r);
                }
                DInst::ILoad(d, a) => {
                    let t = self.issue_at(0);
                    let start = t.max(self.addr_ready(&a));
                    let addr = self.ea(&a);
                    let ready = self.load_access(addr, 8, start);
                    self.iregs[d.0 as usize] = mem.read_i64(addr)?;
                    ird!(d) = fin!(ready);
                }
                DInst::IStore(a, s) => {
                    let t = self.issue_at(0);
                    let te = t.max(self.addr_ready(&a)).max(ird!(s));
                    let addr = self.ea(&a);
                    self.store_access(addr, 8, te);
                    mem.write_i64(addr, self.iregs[s.0 as usize])?;
                }
                DInst::Jmp(target) => {
                    self.issue_at(0);
                    self.end_group();
                    next_pc = target as usize;
                }
                DInst::Jcc(c, target, static_taken) => {
                    let t = self.issue_at(0);
                    self.stats.branches += 1;
                    let taken = c.eval(self.flags);
                    let pred = self.predictor[pc];
                    let predicted_taken = match pred {
                        PRED_UNSEEN => static_taken, // static: backward taken
                        p => p == 1,
                    };
                    if predicted_taken != taken {
                        // The pipeline restarts once the branch resolves
                        // (flags ready), plus the mispredict penalty.
                        self.stats.mispredicts += 1;
                        self.cycle = t.max(self.flags_ready) + self.cfg.branch_misp;
                        self.slots = 0;
                    } else if taken {
                        self.end_group();
                    }
                    self.predictor[pc] = taken as u8;
                    if taken {
                        next_pc = target as usize;
                    }
                }
                DInst::Halt => {
                    let now = self.cycle;
                    self.flush_wc(now);
                    // All in-flight results must complete.
                    let regs_done = self
                        .ireg_ready
                        .iter()
                        .chain(self.freg_ready.iter())
                        .copied()
                        .max()
                        .unwrap_or(0)
                        .max(self.flags_ready);
                    let drained = self.bus.drain_all(self.cycle);
                    self.stats.cycles = self.cycle.max(regs_done).max(drained);
                    self.stats.bus_read_bytes = self.bus.bytes_read;
                    self.stats.bus_write_bytes = self.bus.bytes_written;
                    return Ok(self.stats);
                }

                DInst::FLd(d, a, p) => {
                    let t = self.issue_at(0);
                    let start = t.max(self.addr_ready(&a));
                    let addr = self.ea(&a);
                    let ready = self.load_access(addr, p.bytes(), start);
                    let v = match p {
                        Prec::S => mem.read_f32(addr)? as f64,
                        Prec::D => mem.read_f64(addr)?,
                    };
                    self.fregs[d.0 as usize] = VReg::ZERO;
                    self.set_scalar(d, p, v);
                    frd!(d) = fin!(ready);
                }
                DInst::FSt(a, s, p) => {
                    let t = self.issue_at(0);
                    let te = t.max(self.addr_ready(&a)).max(frd!(s));
                    let addr = self.ea(&a);
                    self.store_access(addr, p.bytes(), te);
                    let v = self.scalar(s, p);
                    match p {
                        Prec::S => mem.write_f32(addr, v as f32)?,
                        Prec::D => mem.write_f64(addr, v)?,
                    }
                }
                DInst::FStNt(a, s, p) => {
                    let t = self.issue_at(0);
                    let te = t.max(self.addr_ready(&a)).max(frd!(s));
                    let addr = self.ea(&a);
                    self.nt_store_access(addr, p.bytes(), te);
                    let v = self.scalar(s, p);
                    match p {
                        Prec::S => mem.write_f32(addr, v as f32)?,
                        Prec::D => mem.write_f64(addr, v)?,
                    }
                }
                DInst::FMov(d, s) => {
                    let t = self.issue_at(0);
                    let r = t.max(frd!(s)) + fmov;
                    self.fregs[d.0 as usize] = self.fregs[s.0 as usize];
                    frd!(d) = fin!(r);
                }
                DInst::FLdImm(d, v, p) => {
                    let t = self.issue_at(0);
                    self.fregs[d.0 as usize] = VReg::ZERO;
                    self.set_scalar(d, p, v);
                    frd!(d) = fin!(t + fmov);
                }
                DInst::FZero(d) => {
                    let t = self.issue_at(0);
                    self.fregs[d.0 as usize] = VReg::ZERO;
                    frd!(d) = fin!(t + fmov);
                }
                DInst::FArith(op, d, s, p) => {
                    let t = self.issue_at(0);
                    let load_at = t.max(self.rhs_issue_ready(&s));
                    let (rhs, rhs_ready) = self.scalar_rhs(&s, p, mem, load_at)?;
                    let lhs = self.scalar(d, p);
                    let (out, lat) = match op {
                        AOp::Add => (lhs + rhs, fadd),
                        AOp::Sub => (lhs - rhs, fadd),
                        AOp::Mul => (lhs * rhs, fmul),
                        AOp::Div => (lhs / rhs, fdiv),
                        AOp::Max => (if rhs > lhs { rhs } else { lhs }, fadd),
                    };
                    let out = match p {
                        Prec::S => (out as f32) as f64,
                        Prec::D => out,
                    };
                    let r = t.max(frd!(d)).max(rhs_ready) + lat;
                    self.set_scalar(d, p, out);
                    frd!(d) = fin!(r);
                }
                DInst::FAbs(d, p) => {
                    let t = self.issue_at(0);
                    let r = t.max(frd!(d)) + fmov;
                    let v = self.scalar(d, p).abs();
                    self.set_scalar(d, p, v);
                    frd!(d) = fin!(r);
                }
                DInst::FSqrt(d, p) => {
                    let t = self.issue_at(0);
                    let r = t.max(frd!(d)) + fdiv; // sqrt ~ divide latency
                    let v = match p {
                        Prec::S => (self.scalar(d, p) as f32).sqrt() as f64,
                        Prec::D => self.scalar(d, p).sqrt(),
                    };
                    self.set_scalar(d, p, v);
                    frd!(d) = fin!(r);
                }
                DInst::FCmp(a, b, p) => {
                    let t = self.issue_at(0);
                    let load_at = t.max(self.rhs_issue_ready(&b));
                    let (rhs, rhs_ready) = self.scalar_rhs(&b, p, mem, load_at)?;
                    let lhs = self.scalar(a, p);
                    self.flags = fthreeway(lhs, rhs);
                    self.flags_ready = fin!(t.max(frd!(a)).max(rhs_ready) + self.cfg.fcmp_lat);
                }

                DInst::VLd(d, a, p, aligned) => {
                    let t = self.issue_at(0);
                    let start = t.max(self.addr_ready(&a));
                    let addr = self.ea(&a);
                    let mut ready = self.load_access(addr, 16, start);
                    if !aligned {
                        ready += self.cfg.unaligned_penalty;
                    }
                    self.fregs[d.0 as usize] = load_vector(mem, addr, p)?;
                    frd!(d) = fin!(ready);
                }
                DInst::VSt(a, s, p, aligned) => {
                    let t = self.issue_at(0);
                    let mut te = t.max(self.addr_ready(&a)).max(frd!(s));
                    if !aligned {
                        te += self.cfg.unaligned_penalty;
                    }
                    let addr = self.ea(&a);
                    self.store_access(addr, 16, te);
                    store_vector(mem, addr, p, self.fregs[s.0 as usize])?;
                }
                DInst::VStNt(a, s, p) => {
                    let t = self.issue_at(0);
                    let te = t.max(self.addr_ready(&a)).max(frd!(s));
                    let addr = self.ea(&a);
                    self.nt_store_access(addr, 16, te);
                    store_vector(mem, addr, p, self.fregs[s.0 as usize])?;
                }
                DInst::VMov(d, s) => {
                    let t = self.issue_at(0);
                    let r = t.max(frd!(s)) + fmov;
                    self.fregs[d.0 as usize] = self.fregs[s.0 as usize];
                    frd!(d) = fin!(r);
                }
                DInst::VBcast(d, s, p) => {
                    let t = self.issue_at(0);
                    let r = t.max(frd!(s)) + self.cfg.bcast_lat;
                    let v = self.scalar(s, p);
                    self.write_lanes(d, p, [v, v, v, v]);
                    frd!(d) = fin!(r);
                }
                DInst::VArith(op, d, s, p) => {
                    let t = self.issue_at(0);
                    let load_at = t.max(self.rhs_issue_ready(&s));
                    let (rhs, rhs_ready) = self.vector_rhs(&s, p, mem, load_at)?;
                    let lhs = &self.fregs[d.0 as usize];
                    // Single precision computes in f64 and rounds once:
                    // exact for one add, subtract or multiply of f32s.
                    let out = match p {
                        Prec::D => from_f64x2(lanewise(op, f64x2(lhs), f64x2(&rhs))),
                        Prec::S => from_f32x4(lanewise(op, f32x4(lhs), f32x4(&rhs))),
                    };
                    let lat = match op {
                        AOp::Mul => fmul,
                        _ => fadd,
                    };
                    let r = t.max(frd!(d)).max(rhs_ready) + lat;
                    self.fregs[d.0 as usize] = out;
                    frd!(d) = fin!(r);
                }
                DInst::VAbs(d, p) => {
                    let t = self.issue_at(0);
                    let r = t.max(frd!(d)) + fmov;
                    let mut v = self.read_lanes(d, p);
                    for x in &mut v {
                        *x = x.abs();
                    }
                    self.write_lanes(d, p, v);
                    frd!(d) = fin!(r);
                }
                DInst::VCmpGt(d, s, p) => {
                    let t = self.issue_at(0);
                    let load_at = t.max(self.rhs_issue_ready(&s));
                    let (rhs, rhs_ready) = self.vector_rhs(&s, p, mem, load_at)?;
                    let (lhs, rhs) = (self.read_lanes(d, p), lanes(&rhs, p));
                    let n = p.veclen() as usize;
                    // Write lane masks as raw bit patterns (all-ones /
                    // all-zeros), exactly like cmpps — never through float
                    // casts, whose NaN handling is not bit-stable.
                    let lane_bytes = p.bytes() as usize;
                    let mut raw = VReg::ZERO;
                    for i in 0..n {
                        if lhs[i] > rhs[i] {
                            for b in 0..lane_bytes {
                                raw[i * lane_bytes + b] = 0xFF;
                            }
                        }
                    }
                    let r = t.max(frd!(d)).max(rhs_ready) + self.cfg.fcmp_lat;
                    self.fregs[d.0 as usize] = raw;
                    frd!(d) = fin!(r);
                }
                DInst::VMovMsk(d, s, p) => {
                    let t = self.issue_at(0);
                    let n = p.veclen() as usize;
                    let mut mask = 0i64;
                    let b = &self.fregs[s.0 as usize];
                    for i in 0..n {
                        let sign = match p {
                            Prec::D => b[i * 8 + 7] & 0x80 != 0,
                            Prec::S => b[i * 4 + 3] & 0x80 != 0,
                        };
                        if sign {
                            mask |= 1 << i;
                        }
                    }
                    self.iregs[d.0 as usize] = mask;
                    self.flags = if mask == 0 { 0 } else { 1 };
                    let lat = self.cfg.fcmp_lat + 1;
                    let r = t.max(frd!(s)) + lat;
                    ird!(d) = r;
                    self.flags_ready = fin!(r);
                }
                DInst::VHSum(d, s, p) => {
                    let t = self.issue_at(0);
                    let v = self.read_lanes(s, p);
                    let n = p.veclen() as usize;
                    let sum: f64 = v[..n].iter().sum();
                    let sum = if p == Prec::S {
                        (sum as f32) as f64
                    } else {
                        sum
                    };
                    self.fregs[d.0 as usize] = VReg::ZERO;
                    self.set_scalar(d, p, sum);
                    frd!(d) = fin!(t.max(frd!(s)) + self.cfg.hsum_lat);
                }
                DInst::VHMax(d, s, p) => {
                    let t = self.issue_at(0);
                    let v = self.read_lanes(s, p);
                    let n = p.veclen() as usize;
                    let m = v[..n].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    self.fregs[d.0 as usize] = VReg::ZERO;
                    self.set_scalar(d, p, m);
                    frd!(d) = fin!(t.max(frd!(s)) + self.cfg.hsum_lat);
                }

                DInst::Prefetch(a, kind) => {
                    let t = self.issue_at(0);
                    let at = t.max(self.addr_ready(&a));
                    let addr = self.ea(&a);
                    self.prefetch_access(addr, kind, at);
                }
            }
            pc = next_pc;
        }
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

#[inline]
fn f64x2(b: &[u8; 16]) -> [f64; 2] {
    std::array::from_fn(|i| f64::from_le_bytes(b[8 * i..8 * i + 8].try_into().unwrap()))
}

#[inline]
fn from_f64x2(v: [f64; 2]) -> VReg {
    let mut b = VReg::ZERO;
    for (i, x) in v.iter().enumerate() {
        b[8 * i..8 * i + 8].copy_from_slice(&x.to_le_bytes());
    }
    b
}

/// Four f32 lanes widened to f64.
#[inline]
fn f32x4(b: &[u8; 16]) -> [f64; 4] {
    std::array::from_fn(|i| f32::from_le_bytes(b[4 * i..4 * i + 4].try_into().unwrap()) as f64)
}

/// Four lanes narrowed to f32.
#[inline]
fn from_f32x4(v: [f64; 4]) -> VReg {
    let mut b = VReg::ZERO;
    for (i, x) in v.iter().enumerate() {
        b[4 * i..4 * i + 4].copy_from_slice(&(*x as f32).to_le_bytes());
    }
    b
}

/// A register's lanes as f64, the unused upper two of a double vector 0.
#[inline]
fn lanes(b: &[u8; 16], p: Prec) -> [f64; 4] {
    match p {
        Prec::D => {
            let [lo, hi] = f64x2(b);
            [lo, hi, 0.0, 0.0]
        }
        Prec::S => f32x4(b),
    }
}

/// `lhs op rhs` in every lane.
#[inline]
fn lanewise<const N: usize>(op: AOp, lhs: [f64; N], rhs: [f64; N]) -> [f64; N] {
    match op {
        AOp::Add => std::array::from_fn(|i| lhs[i] + rhs[i]),
        AOp::Sub => std::array::from_fn(|i| lhs[i] - rhs[i]),
        AOp::Mul => std::array::from_fn(|i| lhs[i] * rhs[i]),
        AOp::Max => std::array::from_fn(|i| if rhs[i] > lhs[i] { rhs[i] } else { lhs[i] }),
        // The ISA has no lanewise divide; the assembler never emits one.
        AOp::Div => unreachable!("no vector divide"),
    }
}

/// The 16 bytes of a vector at `addr`: one move when they are all
/// addressable.
#[inline]
fn load_vector(mem: &Memory, addr: u64, p: Prec) -> Result<VReg, MemFault> {
    match mem.chunk(addr) {
        Some(v) => Ok(VReg(*v)),
        None => load_lanes(mem, addr, p),
    }
}

/// Store the 16 bytes of a vector register at `addr`.
#[inline]
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

#[inline]
fn threeway(a: i64, b: i64) -> i32 {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    }
}

#[inline]
fn fthreeway(a: f64, b: f64) -> i32 {
    if a < b {
        -1
    } else if a > b {
        1
    } else {
        0
    }
}
