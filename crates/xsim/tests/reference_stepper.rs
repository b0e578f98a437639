//! `Cpu::run` against a deliberately naive reference: one `step()` per
//! [`Inst`], straight off the program, with its own issue slots,
//! scoreboard, window, write-combine buffers and hardware stream
//! prefetcher, over the public [`Cache`], [`Bus`] and [`Memory`]. Nothing
//! is predecoded, batched or fused here, so whatever the real interpreter
//! resolves ahead of time must come out exactly as this step-at-a-time
//! reading of the model does: the full [`RunStats`], every register, the
//! memory image and the error, with the instruction count at the error.
//!
//! Inputs are `Rng64`-generated programs (straight-line code, loops,
//! faulting addresses, tiny instruction limits) and every suite kernel
//! at FKO's defaults, UR 1 and UR 16, on both machines, in both contexts.
//!
//! FP arithmetic here is done in f64 and rounded once to the lane's
//! precision; loads, stores, abs, broadcast and max copy a lane's bits.
//! The random data's 4-byte halves include signalling NaNs, so a lane
//! that `Cpu::run` widened and narrowed back would show as a mismatch in
//! any build that quiets it.

use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::ALL_KERNELS;
use ifko_fko::{ArgSlot, CompileOpts, CompileSession, TransformParams};
use ifko_xsim::bus::Bus;
use ifko_xsim::cache::{Cache, Evicted, Probe};
use ifko_xsim::cpu::RunError;
use ifko_xsim::isa::{Label, NUM_FREGS, NUM_IREGS};
use ifko_xsim::{
    opteron, p4e, Addr, Cond, Cpu, FReg, IReg, Inst, MachineConfig, Memory, Prec, PrefKind,
    Program, RegOrMem, Rng64, RunStats,
};

// ------------------------------------------------------------ reference

/// The reference machine: the whole architectural and timing state, as
/// plain fields.
struct Reference {
    cfg: MachineConfig,
    l1: Cache,
    l2: Cache,
    bus: Bus,
    iregs: [i64; NUM_IREGS],
    fregs: [[u8; 16]; NUM_FREGS],
    ireg_ready: [u64; NUM_IREGS],
    freg_ready: [u64; NUM_FREGS],
    flags: i32,
    flags_ready: u64,
    cycle: u64,
    slots: u32,
    width: u32,
    /// Per instruction: `None` until the branch there first executes,
    /// then whether it was last taken.
    predictor: Vec<Option<bool>>,
    wc: Vec<(u64, u64)>,
    hw_streams: [u64; 4],
    hw_misses: [u64; 8],
    hw_next: usize,
    stats: RunStats,
    limit: u64,
}

enum Step {
    Next(usize),
    Halted,
}

impl Reference {
    /// The state of `Cpu::new(cfg)` followed by `flush_caches`.
    fn new(cfg: &MachineConfig) -> Self {
        Reference {
            cfg: cfg.clone(),
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            bus: Bus::new(cfg.bus),
            iregs: [0; NUM_IREGS],
            fregs: [[0; 16]; NUM_FREGS],
            ireg_ready: [0; NUM_IREGS],
            freg_ready: [0; NUM_FREGS],
            flags: 0,
            flags_ready: 0,
            cycle: 0,
            slots: 0,
            width: 0,
            predictor: Vec::new(),
            wc: Vec::new(),
            hw_streams: [u64::MAX; 4],
            hw_misses: [u64::MAX; 8],
            hw_next: 0,
            stats: RunStats::default(),
            limit: ifko_xsim::cpu::DEFAULT_INST_LIMIT,
        }
    }

    fn preload_l2(&mut self, addr: u64, len: u64) {
        let line = self.cfg.l2.line;
        let mut a = addr / line * line;
        while a < addr + len {
            let _ = self.l2.insert(a, 0, false);
            a += line;
        }
    }

    fn run(&mut self, prog: &Program, mem: &mut Memory) -> Result<RunStats, RunError> {
        self.cycle = 0;
        self.slots = 0;
        self.ireg_ready = [0; NUM_IREGS];
        self.freg_ready = [0; NUM_FREGS];
        self.flags_ready = 0;
        self.stats = RunStats::default();
        self.bus.reset();
        self.wc.clear();
        self.width = self.cfg.effective_width(prog.len());
        self.predictor = vec![None; prog.len()];
        let mut pc = 0;
        loop {
            if self.stats.insts >= self.limit {
                return Err(RunError::InstLimit { limit: self.limit });
            }
            if pc >= prog.len() {
                return Err(RunError::RanOffEnd);
            }
            self.stats.insts += 1;
            match self.step(prog, pc, mem)? {
                Step::Next(next) => pc = next,
                Step::Halted => return Ok(self.stats),
            }
        }
    }

    // ---- issue

    /// Take the next issue slot; returns the issue cycle.
    fn issue(&mut self) -> u64 {
        let t = self.cycle;
        self.slots += 1;
        if self.slots >= self.width {
            self.cycle += 1;
            self.slots = 0;
        }
        t
    }

    fn end_group(&mut self) {
        if self.slots != 0 {
            self.cycle += 1;
            self.slots = 0;
        }
    }

    /// A result ready at `ready`: the front end may run at most
    /// `window_cycles` ahead of it.
    fn window(&mut self, ready: u64) -> u64 {
        if ready > self.cycle + self.cfg.window_cycles {
            self.cycle = ready - self.cfg.window_cycles;
            self.slots = 0;
        }
        ready
    }

    // ---- operands

    fn ea(&self, a: &Addr) -> u64 {
        let mut v = self.iregs[a.base.0 as usize];
        if let Some((idx, scale)) = a.index {
            v += self.iregs[idx.0 as usize] * scale as i64;
        }
        (v + a.disp) as u64
    }

    fn addr_ready(&self, a: &Addr) -> u64 {
        let base = self.ireg_ready[a.base.0 as usize];
        match a.index {
            Some((idx, _)) => base.max(self.ireg_ready[idx.0 as usize]),
            None => base,
        }
    }

    fn scalar(&self, r: FReg, p: Prec) -> f64 {
        let b = &self.fregs[r.0 as usize];
        match p {
            Prec::S => f32::from_le_bytes(b[0..4].try_into().unwrap()) as f64,
            Prec::D => f64::from_le_bytes(b[0..8].try_into().unwrap()),
        }
    }

    fn set_scalar(&mut self, r: FReg, p: Prec, v: f64) {
        let b = &mut self.fregs[r.0 as usize];
        match p {
            Prec::S => b[0..4].copy_from_slice(&(v as f32).to_le_bytes()),
            Prec::D => b[0..8].copy_from_slice(&v.to_le_bytes()),
        }
    }

    /// A register's lanes as f64 (a double register's upper two are 0).
    fn lanes(b: &[u8; 16], p: Prec) -> [f64; 4] {
        let mut out = [0.0; 4];
        for (i, o) in out.iter_mut().enumerate().take(p.veclen() as usize) {
            *o = match p {
                Prec::S => f32::from_le_bytes(b[4 * i..4 * i + 4].try_into().unwrap()) as f64,
                Prec::D => f64::from_le_bytes(b[8 * i..8 * i + 8].try_into().unwrap()),
            };
        }
        out
    }

    fn from_lanes(v: [f64; 4], p: Prec) -> [u8; 16] {
        let mut b = [0u8; 16];
        for (i, x) in v.iter().enumerate().take(p.veclen() as usize) {
            match p {
                Prec::S => b[4 * i..4 * i + 4].copy_from_slice(&(*x as f32).to_le_bytes()),
                Prec::D => b[8 * i..8 * i + 8].copy_from_slice(&x.to_le_bytes()),
            }
        }
        b
    }

    /// Readiness an instruction with this right-hand side waits for at
    /// issue: the register, or a memory operand's address registers.
    fn rhs_issue_ready(&self, s: &RegOrMem) -> u64 {
        match s {
            RegOrMem::Reg(r) => self.freg_ready[r.0 as usize],
            RegOrMem::Mem(a) => self.addr_ready(a),
        }
    }

    /// The 16 bytes of a vector right-hand side and their ready cycle.
    fn vector_rhs(
        &mut self,
        s: &RegOrMem,
        p: Prec,
        mem: &Memory,
        at: u64,
    ) -> Result<([u8; 16], u64), RunError> {
        match s {
            RegOrMem::Reg(r) => Ok((self.fregs[r.0 as usize], self.freg_ready[r.0 as usize])),
            RegOrMem::Mem(a) => {
                let addr = self.ea(a);
                let ready = self.load(addr, 16, at);
                Ok((read_vector(mem, addr, p)?, ready))
            }
        }
    }

    /// A scalar right-hand side as f64 and its ready cycle.
    fn scalar_rhs(
        &mut self,
        s: &RegOrMem,
        p: Prec,
        mem: &Memory,
        at: u64,
    ) -> Result<(f64, u64), RunError> {
        match s {
            RegOrMem::Reg(r) => Ok((self.scalar(*r, p), self.freg_ready[r.0 as usize])),
            RegOrMem::Mem(a) => {
                let addr = self.ea(a);
                let ready = self.load(addr, p.bytes(), at);
                Ok((read_scalar(mem, addr, p)?, ready))
            }
        }
    }

    // ---- memory hierarchy

    /// The lines an access of `bytes` at `addr` touches: one, or two
    /// when it crosses an L1 line.
    fn split(&self, addr: u64, bytes: u64) -> Option<u64> {
        let line = self.cfg.l1.line;
        (addr / line != (addr + bytes - 1) / line).then(|| (addr / line + 1) * line)
    }

    fn load(&mut self, addr: u64, bytes: u64, now: u64) -> u64 {
        match self.split(addr, bytes) {
            Some(second) => {
                let a = self.load_line(addr, now);
                let b = self.load_line(second, now);
                a.max(b) + self.cfg.unaligned_penalty
            }
            None => self.load_line(addr, now),
        }
    }

    fn load_line(&mut self, addr: u64, now: u64) -> u64 {
        self.stats.loads += 1;
        let l1_miss = match self.l1.probe(addr) {
            Probe::Hit { fill_done } => {
                self.stats.l1_hits += 1;
                return now.max(fill_done) + self.cfg.l1.latency;
            }
            Probe::Miss(m) => m,
        };
        self.stats.l1_misses += 1;
        let (ready, l2_missed) = match self.l2.probe(addr) {
            Probe::Hit { fill_done } => {
                self.stats.l2_hits += 1;
                (now.max(fill_done) + self.cfg.l2.latency, false)
            }
            Probe::Miss(m) => {
                self.stats.l2_misses += 1;
                (self.demand_fill(m, now), true)
            }
        };
        let ev = self.l1.fill(l1_miss, ready, false);
        self.l1_evicted(ev, now);
        self.hw_stream(addr, now, l2_missed);
        ready
    }

    fn store(&mut self, addr: u64, bytes: u64, now: u64) {
        let second = self.split(addr, bytes);
        self.store_line(addr, now);
        if let Some(second) = second {
            self.store_line(second, now);
        }
    }

    fn store_line(&mut self, addr: u64, now: u64) {
        self.stats.stores += 1;
        let l1_miss = match self.l1.mark_dirty(addr) {
            Probe::Hit { .. } => {
                self.stats.l1_hits += 1;
                return;
            }
            Probe::Miss(m) => m,
        };
        self.stats.l1_misses += 1;
        let (ready, l2_missed) = match self.l2.probe(addr) {
            Probe::Hit { .. } => {
                self.stats.l2_hits += 1;
                (now + self.cfg.l2.latency, false)
            }
            Probe::Miss(m) => {
                self.stats.l2_misses += 1;
                (self.demand_fill(m, now), true)
            }
        };
        let ev = self.l1.fill(l1_miss, ready, true);
        self.l1_evicted(ev, now);
        self.hw_stream(addr, now, l2_missed);
    }

    fn demand_fill(&mut self, miss: ifko_xsim::cache::Miss, now: u64) -> u64 {
        let (_, done) = self.bus.read(now, self.cfg.l1.line);
        let ready = done + self.cfg.mem_lat;
        let ev = self.l2.fill(miss, ready, false);
        self.l2_evicted(ev, now);
        ready
    }

    fn l1_evicted(&mut self, ev: Option<Evicted>, now: u64) {
        if let Some(Evicted { addr, dirty: true }) = ev {
            if let Probe::Miss(m) = self.l2.mark_dirty(addr) {
                let ev2 = self.l2.fill(m, now, true);
                self.l2_evicted(ev2, now);
            }
        }
    }

    fn l2_evicted(&mut self, ev: Option<Evicted>, now: u64) {
        if let Some(Evicted { dirty: true, .. }) = ev {
            self.bus.write(now, self.cfg.l2.line);
        }
    }

    /// Run a stream's frontier forward to `target`, one L2 fill per line,
    /// stopping at the first the bus refuses.
    fn advance(&mut self, slot: usize, from: u64, target: u64, now: u64) {
        let line = self.cfg.l2.line;
        let mut l = from;
        while l <= target {
            if !self.hw_fill(l, now) {
                break;
            }
            self.hw_streams[slot] = l;
            l += line;
        }
    }

    fn hw_stream(&mut self, addr: u64, now: u64, was_miss: bool) {
        let depth = self.cfg.hw_prefetch_depth;
        if depth == 0 {
            return;
        }
        let (line, page) = (self.cfg.l2.line, self.cfg.hw_prefetch_page);
        let cur = addr / line * line;
        let window = depth * line;
        let page_end = (cur / page + 1) * page;
        let target = (cur + window).min(page_end - line);
        for i in 0..self.hw_streams.len() {
            let frontier = self.hw_streams[i];
            if frontier != u64::MAX && cur <= frontier && frontier <= cur + window {
                self.advance(i, frontier + line, target, now);
                if self.hw_streams[i] + line > page_end {
                    self.hw_streams[i] = u64::MAX;
                }
                return;
            }
        }
        if !was_miss {
            return;
        }
        if self.hw_misses.contains(&cur.wrapping_sub(line)) {
            let slot = self.hw_next % self.hw_streams.len();
            self.hw_streams[slot] = cur;
            self.advance(slot, cur + line, target, now);
        }
        self.hw_misses[self.hw_next % self.hw_misses.len()] = cur;
        self.hw_next = self.hw_next.wrapping_add(1);
    }

    fn hw_fill(&mut self, line_addr: u64, now: u64) -> bool {
        let Probe::Miss(m) = self.l2.peek(line_addr) else {
            return true;
        };
        if self.bus.effective_free(now) > now + self.cfg.pf_queue_slack / 4 {
            return false;
        }
        let (_, done) = self.bus.read(now, self.cfg.l2.line);
        let ev = self.l2.fill(m, done + self.cfg.mem_lat, false);
        self.l2_evicted(ev, now);
        self.stats.hw_prefetches += 1;
        true
    }

    fn nt_store(&mut self, addr: u64, bytes: u64, now: u64) {
        self.stats.stores += 1;
        self.stats.nt_stores += 1;
        let line = self.cfg.l1.line;
        let line_addr = addr / line * line;
        if let Some(i) = self.wc.iter().position(|(l, _)| *l == line_addr) {
            self.wc[i].1 = (self.wc[i].1 + bytes).min(line);
            if self.wc[i].1 >= line {
                self.flush_wc(i, now);
            }
            return;
        }
        if self.wc.len() >= self.cfg.wc_buffers {
            self.flush_wc(0, now);
        }
        self.wc.push((line_addr, bytes));
    }

    fn flush_wc(&mut self, i: usize, now: u64) {
        let (line_addr, bytes) = self.wc.remove(i);
        self.bus.write(now, bytes);
        self.stats.wc_flushes += 1;
        let in_l1 = self.l1.invalidate(line_addr).is_some();
        let in_l2 = self.l2.invalidate(line_addr).is_some();
        if (in_l1 || in_l2) && self.cfg.nt_cached_penalty > 0 {
            self.cycle = self.cycle.max(now) + self.cfg.nt_cached_penalty;
            self.slots = 0;
        }
    }

    fn prefetch(&mut self, addr: u64, kind: PrefKind, now: u64) {
        let (to_l1, to_l2, dirty) = match kind {
            PrefKind::T0 => (true, true, false),
            PrefKind::T1 | PrefKind::T2 => (false, true, false),
            PrefKind::Nta => (true, false, false),
            PrefKind::W => (true, true, true),
        };
        let l1_miss = match (to_l1, self.l1.peek(addr)) {
            (false, _) => None,
            (true, Probe::Hit { .. }) => {
                self.stats.prefetch_useless += 1;
                return;
            }
            (true, Probe::Miss(m)) => Some(m),
        };
        let l2_miss = match (self.l2.peek(addr), l1_miss) {
            (Probe::Miss(m), _) => m,
            (Probe::Hit { .. }, None) => {
                self.stats.prefetch_useless += 1;
                return;
            }
            (Probe::Hit { .. }, Some(m1)) => {
                let ev = self.l1.fill(m1, now + self.cfg.l2.latency, dirty);
                self.l1_evicted(ev, now);
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
            self.l2_evicted(ev, now);
        }
        if let Some(m1) = l1_miss {
            let ev = self.l1.fill(m1, ready, dirty);
            self.l1_evicted(ev, now);
        }
        self.stats.prefetch_issued += 1;
    }

    // ---- one instruction

    fn step(&mut self, prog: &Program, pc: usize, mem: &mut Memory) -> Result<Step, RunError> {
        use Inst::*;
        let c = self.cfg.clone();
        let ir = |r: IReg| r.0 as usize;
        let fr = |r: FReg| r.0 as usize;
        match &prog.insts[pc] {
            IMovImm(d, v) => {
                let t = self.issue();
                self.iregs[ir(*d)] = *v;
                self.ireg_ready[ir(*d)] = self.window(t + c.int_lat);
            }
            IMov(d, s) => {
                let t = self.issue();
                let r = t.max(self.ireg_ready[ir(*s)]) + c.int_lat;
                self.iregs[ir(*d)] = self.iregs[ir(*s)];
                self.ireg_ready[ir(*d)] = self.window(r);
            }
            IAdd(d, s) | ISub(d, s) => {
                let t = self.issue();
                let r = t.max(self.ireg_ready[ir(*d)]).max(self.ireg_ready[ir(*s)]) + c.int_lat;
                let (a, b) = (self.iregs[ir(*d)], self.iregs[ir(*s)]);
                self.iregs[ir(*d)] = match &prog.insts[pc] {
                    IAdd(..) => a.wrapping_add(b),
                    _ => a.wrapping_sub(b),
                };
                self.ireg_ready[ir(*d)] = self.window(r);
            }
            IAddImm(d, v) | ISubImm(d, v) | IDivImm(d, v) | IRemImm(d, v) => {
                let t = self.issue();
                let a = self.iregs[ir(*d)];
                let (val, lat) = match &prog.insts[pc] {
                    IAddImm(..) => (a.wrapping_add(*v), c.int_lat),
                    ISubImm(..) => (a.wrapping_sub(*v), c.int_lat),
                    IDivImm(..) => (a / v, 20),
                    _ => (a % v, 20),
                };
                let r = t.max(self.ireg_ready[ir(*d)]) + lat;
                self.iregs[ir(*d)] = val;
                self.ireg_ready[ir(*d)] = self.window(r);
            }
            IShlImm(d, s) => {
                let t = self.issue();
                let r = t.max(self.ireg_ready[ir(*d)]) + c.int_lat;
                self.iregs[ir(*d)] <<= s;
                self.ireg_ready[ir(*d)] = self.window(r);
            }
            Lea(d, a) => {
                let t = self.issue();
                let r = t.max(self.addr_ready(a)) + c.int_lat;
                self.iregs[ir(*d)] = self.ea(a) as i64;
                self.ireg_ready[ir(*d)] = self.window(r);
            }
            ICmp(a, b) => {
                let t = self.issue();
                let r = t.max(self.ireg_ready[ir(*a)]).max(self.ireg_ready[ir(*b)]) + c.int_lat;
                self.flags = self.iregs[ir(*a)].cmp(&self.iregs[ir(*b)]) as i32;
                self.flags_ready = self.window(r);
            }
            ICmpImm(a, v) => {
                let t = self.issue();
                let r = t.max(self.ireg_ready[ir(*a)]) + c.int_lat;
                self.flags = self.iregs[ir(*a)].cmp(v) as i32;
                self.flags_ready = self.window(r);
            }
            IDec(d) => {
                let t = self.issue();
                let r = t.max(self.ireg_ready[ir(*d)]) + c.int_lat;
                self.iregs[ir(*d)] -= 1;
                self.flags = self.iregs[ir(*d)].cmp(&0) as i32;
                self.ireg_ready[ir(*d)] = r;
                self.flags_ready = self.window(r);
            }
            ILoad(d, a) => {
                let t = self.issue();
                let start = t.max(self.addr_ready(a));
                let addr = self.ea(a);
                let ready = self.load(addr, 8, start);
                self.iregs[ir(*d)] = mem.read_i64(addr)?;
                self.ireg_ready[ir(*d)] = self.window(ready);
            }
            IStore(a, s) => {
                let t = self.issue();
                let te = t.max(self.addr_ready(a)).max(self.ireg_ready[ir(*s)]);
                let addr = self.ea(a);
                self.store(addr, 8, te);
                mem.write_i64(addr, self.iregs[ir(*s)])?;
            }
            Jmp(l) => {
                self.issue();
                self.end_group();
                return Ok(Step::Next(prog.target(*l)));
            }
            Jcc(cond, l) => {
                let t = self.issue();
                self.stats.branches += 1;
                let target = prog.target(*l);
                let taken = cond.eval(self.flags);
                let predicted = self.predictor[pc].unwrap_or(target <= pc);
                if predicted != taken {
                    self.stats.mispredicts += 1;
                    self.cycle = t.max(self.flags_ready) + c.branch_misp;
                    self.slots = 0;
                } else if taken {
                    self.end_group();
                }
                self.predictor[pc] = Some(taken);
                if taken {
                    return Ok(Step::Next(target));
                }
            }
            Halt => {
                let now = self.cycle;
                while !self.wc.is_empty() {
                    self.flush_wc(0, now);
                }
                let regs_done = self
                    .ireg_ready
                    .iter()
                    .chain(&self.freg_ready)
                    .fold(self.flags_ready, |m, &r| m.max(r));
                let drained = self.bus.drain_all(self.cycle);
                self.stats.cycles = self.cycle.max(regs_done).max(drained);
                self.stats.bus_read_bytes = self.bus.bytes_read;
                self.stats.bus_write_bytes = self.bus.bytes_written;
                return Ok(Step::Halted);
            }
            FLd(d, a, p) => {
                let t = self.issue();
                let start = t.max(self.addr_ready(a));
                let addr = self.ea(a);
                let ready = self.load(addr, p.bytes(), start);
                // The lane's own bits: a load converts nothing.
                let mut b = [0; 16];
                match p {
                    Prec::S => b[0..4].copy_from_slice(&mem.read::<4>(addr)?),
                    Prec::D => b[0..8].copy_from_slice(&mem.read::<8>(addr)?),
                }
                self.fregs[fr(*d)] = b;
                self.freg_ready[fr(*d)] = self.window(ready);
            }
            FSt(a, s, p) | FStNt(a, s, p) => {
                let t = self.issue();
                let te = t.max(self.addr_ready(a)).max(self.freg_ready[fr(*s)]);
                let addr = self.ea(a);
                match &prog.insts[pc] {
                    FSt(..) => self.store(addr, p.bytes(), te),
                    _ => self.nt_store(addr, p.bytes(), te),
                }
                let b = self.fregs[fr(*s)];
                match p {
                    Prec::S => mem.write::<4>(addr, b[0..4].try_into().unwrap())?,
                    Prec::D => mem.write::<8>(addr, b[0..8].try_into().unwrap())?,
                }
            }
            FMov(d, s, _) | VMov(d, s) => {
                let t = self.issue();
                let r = t.max(self.freg_ready[fr(*s)]) + c.fmov_lat;
                self.fregs[fr(*d)] = self.fregs[fr(*s)];
                self.freg_ready[fr(*d)] = self.window(r);
            }
            FLdImm(d, v, p) => {
                let t = self.issue();
                self.fregs[fr(*d)] = [0; 16];
                self.set_scalar(*d, *p, *v);
                self.freg_ready[fr(*d)] = self.window(t + c.fmov_lat);
            }
            FZero(d) => {
                let t = self.issue();
                self.fregs[fr(*d)] = [0; 16];
                self.freg_ready[fr(*d)] = self.window(t + c.fmov_lat);
            }
            FAdd(d, s, p) | FSub(d, s, p) | FMul(d, s, p) | FDiv(d, s, p) | FMax(d, s, p) => {
                let t = self.issue();
                let load_at = t.max(self.rhs_issue_ready(s));
                let (rhs, rhs_ready) = self.scalar_rhs(s, *p, mem, load_at)?;
                let lhs = self.scalar(*d, *p);
                let (out, lat) = match &prog.insts[pc] {
                    FAdd(..) => (Some(lhs + rhs), c.fadd_lat),
                    FSub(..) => (Some(lhs - rhs), c.fadd_lat),
                    FMul(..) => (Some(lhs * rhs), c.fmul_lat),
                    FDiv(..) => (Some(lhs / rhs), c.fdiv_lat),
                    // A max leaves the destination's own bits unless the
                    // right-hand side is greater.
                    _ => ((rhs > lhs).then_some(rhs), c.fadd_lat),
                };
                let r = t.max(self.freg_ready[fr(*d)]).max(rhs_ready) + lat;
                if let Some(out) = out {
                    self.set_scalar(*d, *p, out);
                }
                self.freg_ready[fr(*d)] = self.window(r);
            }
            FAbs(d, p) => {
                let t = self.issue();
                let r = t.max(self.freg_ready[fr(*d)]) + c.fmov_lat;
                // Clear the sign bit, the top bit of the lane's last byte.
                self.fregs[fr(*d)][p.bytes() as usize - 1] &= 0x7F;
                self.freg_ready[fr(*d)] = self.window(r);
            }
            FSqrt(d, p) => {
                let t = self.issue();
                let r = t.max(self.freg_ready[fr(*d)]) + c.fdiv_lat;
                let b = &mut self.fregs[fr(*d)];
                match p {
                    Prec::S => {
                        let x = f32::from_le_bytes(b[0..4].try_into().unwrap());
                        b[0..4].copy_from_slice(&x.sqrt().to_le_bytes());
                    }
                    Prec::D => {
                        let x = f64::from_le_bytes(b[0..8].try_into().unwrap());
                        b[0..8].copy_from_slice(&x.sqrt().to_le_bytes());
                    }
                }
                self.freg_ready[fr(*d)] = self.window(r);
            }
            FCmp(a, s, p) => {
                let t = self.issue();
                let load_at = t.max(self.rhs_issue_ready(s));
                let (rhs, rhs_ready) = self.scalar_rhs(s, *p, mem, load_at)?;
                let lhs = self.scalar(*a, *p);
                self.flags = if lhs < rhs {
                    -1
                } else if lhs > rhs {
                    1
                } else {
                    0
                };
                let r = t.max(self.freg_ready[fr(*a)]).max(rhs_ready) + c.fcmp_lat;
                self.flags_ready = self.window(r);
            }
            VLd(d, a, p, aligned) => {
                let t = self.issue();
                let start = t.max(self.addr_ready(a));
                let addr = self.ea(a);
                let mut ready = self.load(addr, 16, start);
                if !aligned {
                    ready += c.unaligned_penalty;
                }
                self.fregs[fr(*d)] = read_vector(mem, addr, *p)?;
                self.freg_ready[fr(*d)] = self.window(ready);
            }
            VSt(a, s, p, aligned) => {
                let t = self.issue();
                let mut te = t.max(self.addr_ready(a)).max(self.freg_ready[fr(*s)]);
                if !aligned {
                    te += c.unaligned_penalty;
                }
                let addr = self.ea(a);
                self.store(addr, 16, te);
                write_vector(mem, addr, *p, &self.fregs[fr(*s)])?;
            }
            VStNt(a, s, p) => {
                let t = self.issue();
                let te = t.max(self.addr_ready(a)).max(self.freg_ready[fr(*s)]);
                let addr = self.ea(a);
                self.nt_store(addr, 16, te);
                write_vector(mem, addr, *p, &self.fregs[fr(*s)])?;
            }
            VBcast(d, s, p) => {
                let t = self.issue();
                let r = t.max(self.freg_ready[fr(*s)]) + c.bcast_lat;
                // Lane 0's bytes copied into every lane.
                let (src, lane) = (self.fregs[fr(*s)], p.bytes() as usize);
                let mut b = [0u8; 16];
                for i in 0..p.veclen() as usize {
                    b[i * lane..(i + 1) * lane].copy_from_slice(&src[..lane]);
                }
                self.fregs[fr(*d)] = b;
                self.freg_ready[fr(*d)] = self.window(r);
            }
            VAdd(d, s, p) | VSub(d, s, p) | VMul(d, s, p) | VMax(d, s, p) => {
                let t = self.issue();
                let load_at = t.max(self.rhs_issue_ready(s));
                let (rhs, rhs_ready) = self.vector_rhs(s, *p, mem, load_at)?;
                let (l, r) = (Self::lanes(&self.fregs[fr(*d)], *p), Self::lanes(&rhs, *p));
                let mut out = [0.0; 4];
                for i in 0..4 {
                    out[i] = match &prog.insts[pc] {
                        VAdd(..) => l[i] + r[i],
                        VSub(..) => l[i] - r[i],
                        _ => l[i] * r[i],
                    };
                }
                let lat = match &prog.insts[pc] {
                    VMul(..) => c.fmul_lat,
                    _ => c.fadd_lat,
                };
                let ready = t.max(self.freg_ready[fr(*d)]).max(rhs_ready) + lat;
                self.fregs[fr(*d)] = match &prog.insts[pc] {
                    // A max keeps each destination lane's own bytes
                    // unless the right-hand lane is greater.
                    VMax(..) => {
                        let (lane, mut b) = (p.bytes() as usize, self.fregs[fr(*d)]);
                        for i in 0..p.veclen() as usize {
                            if r[i] > l[i] {
                                b[i * lane..(i + 1) * lane]
                                    .copy_from_slice(&rhs[i * lane..(i + 1) * lane]);
                            }
                        }
                        b
                    }
                    _ => Self::from_lanes(out, *p),
                };
                self.freg_ready[fr(*d)] = self.window(ready);
            }
            VAbs(d, p) => {
                let t = self.issue();
                let r = t.max(self.freg_ready[fr(*d)]) + c.fmov_lat;
                let lane = p.bytes() as usize;
                for i in 0..p.veclen() as usize {
                    self.fregs[fr(*d)][(i + 1) * lane - 1] &= 0x7F;
                }
                self.freg_ready[fr(*d)] = self.window(r);
            }
            VCmpGt(d, s, p) => {
                let t = self.issue();
                let load_at = t.max(self.rhs_issue_ready(s));
                let (rhs, rhs_ready) = self.vector_rhs(s, *p, mem, load_at)?;
                let (l, r) = (Self::lanes(&self.fregs[fr(*d)], *p), Self::lanes(&rhs, *p));
                let lane = p.bytes() as usize;
                let mut raw = [0u8; 16];
                for i in 0..p.veclen() as usize {
                    if l[i] > r[i] {
                        raw[i * lane..(i + 1) * lane].fill(0xFF);
                    }
                }
                let ready = t.max(self.freg_ready[fr(*d)]).max(rhs_ready) + c.fcmp_lat;
                self.fregs[fr(*d)] = raw;
                self.freg_ready[fr(*d)] = self.window(ready);
            }
            VMovMsk(d, s, p) => {
                let t = self.issue();
                let lane = p.bytes() as usize;
                let b = &self.fregs[fr(*s)];
                let mask = (0..p.veclen() as usize)
                    .filter(|i| b[(i + 1) * lane - 1] & 0x80 != 0)
                    .fold(0i64, |m, i| m | 1 << i);
                self.iregs[ir(*d)] = mask;
                self.flags = (mask != 0) as i32;
                let r = t.max(self.freg_ready[fr(*s)]) + c.fcmp_lat + 1;
                self.ireg_ready[ir(*d)] = r;
                self.flags_ready = self.window(r);
            }
            VHSum(d, s, p) | VHMax(d, s, p) => {
                let t = self.issue();
                let v = Self::lanes(&self.fregs[fr(*s)], *p);
                let n = p.veclen() as usize;
                let out = match &prog.insts[pc] {
                    VHSum(..) => {
                        let sum: f64 = v[..n].iter().sum();
                        match p {
                            Prec::S => sum as f32 as f64,
                            Prec::D => sum,
                        }
                    }
                    _ => v[..n].iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                };
                self.fregs[fr(*d)] = [0; 16];
                self.set_scalar(*d, *p, out);
                let r = t.max(self.freg_ready[fr(*s)]) + c.hsum_lat;
                self.freg_ready[fr(*d)] = self.window(r);
            }
            Prefetch(a, kind) => {
                let t = self.issue();
                let at = t.max(self.addr_ready(a));
                let addr = self.ea(a);
                self.prefetch(addr, *kind, at);
            }
        }
        Ok(Step::Next(pc + 1))
    }
}

fn read_scalar(mem: &Memory, addr: u64, p: Prec) -> Result<f64, RunError> {
    Ok(match p {
        Prec::S => mem.read_f32(addr)? as f64,
        Prec::D => mem.read_f64(addr)?,
    })
}

/// A vector load is its lanes' scalar loads: the fault names the first
/// lane out of range.
fn read_vector(mem: &Memory, addr: u64, p: Prec) -> Result<[u8; 16], RunError> {
    let lane = p.bytes() as usize;
    let mut out = [0u8; 16];
    for i in 0..p.veclen() as usize {
        let a = addr.wrapping_add((i * lane) as u64);
        match p {
            Prec::S => out[4 * i..4 * i + 4].copy_from_slice(&mem.read::<4>(a)?),
            Prec::D => out[8 * i..8 * i + 8].copy_from_slice(&mem.read::<8>(a)?),
        }
    }
    Ok(out)
}

/// A vector store, lane by lane: the lanes below a faulting one land.
fn write_vector(mem: &mut Memory, addr: u64, p: Prec, v: &[u8; 16]) -> Result<(), RunError> {
    let lane = p.bytes() as usize;
    for i in 0..p.veclen() as usize {
        let a = addr.wrapping_add((i * lane) as u64);
        match p {
            Prec::S => mem.write::<4>(a, v[4 * i..4 * i + 4].try_into().unwrap())?,
            Prec::D => mem.write::<8>(a, v[8 * i..8 * i + 8].try_into().unwrap())?,
        }
    }
    Ok(())
}

// ----------------------------------------------------------- comparison

/// One starting state, handed to both machines.
struct Setup<'a> {
    mach: &'a MachineConfig,
    mem: Memory,
    iregs: [i64; NUM_IREGS],
    /// Lane 0 of each FP register, set at `single` precision.
    fregs: [f64; NUM_FREGS],
    single: bool,
    /// Ranges preloaded into L2 (the in-cache context).
    preload: Vec<(u64, u64)>,
    limit: Option<u64>,
}

/// Run `prog` from `setup` on `cpu` (reset to the machine first) and on
/// the reference, and require the same result, statistics, registers and
/// memory image.
fn compare(what: &str, cpu: &mut Cpu, prog: &Program, setup: &Setup) {
    cpu.reset(setup.mach);
    cpu.flush_caches();
    let mut reference = Reference::new(setup.mach);
    let (mut mem, mut ref_mem) = (setup.mem.clone(), setup.mem.clone());
    for &(a, len) in &setup.preload {
        cpu.preload_l2(a, len);
        reference.preload_l2(a, len);
    }
    for i in 0..NUM_IREGS {
        cpu.set_ireg(IReg(i as u8), setup.iregs[i]);
        reference.iregs[i] = setup.iregs[i];
    }
    for i in 0..NUM_FREGS {
        let (r, v) = (FReg(i as u8), setup.fregs[i]);
        let p = match setup.single {
            true => Prec::S,
            false => Prec::D,
        };
        match p {
            Prec::S => cpu.set_freg_f32(r, v as f32),
            Prec::D => cpu.set_freg_f64(r, v),
        }
        reference.fregs[i] = [0; 16];
        reference.set_scalar(r, p, v);
    }
    if let Some(limit) = setup.limit {
        cpu.set_inst_limit(limit);
        reference.limit = limit;
    }
    let got = cpu.run(prog, &mut mem);
    let want = reference.run(prog, &mut ref_mem);
    assert_eq!(got, want, "{what}: result");
    assert_eq!(cpu.stats, reference.stats, "{what}: statistics");
    for i in 0..NUM_IREGS {
        assert_eq!(cpu.ireg(IReg(i as u8)), reference.iregs[i], "{what}: r{i}");
    }
    for i in 0..NUM_FREGS {
        let lane0 = u64::from_le_bytes(reference.fregs[i][..8].try_into().unwrap());
        assert_eq!(cpu.freg_f64(FReg(i as u8)).to_bits(), lane0, "{what}: x{i}");
    }
    let image = |m: &Memory| {
        m.load_elems(m.base(), m.capacity(), |b: [u8; 1]| b[0])
            .unwrap()
    };
    assert!(image(&mem) == image(&ref_mem), "{what}: memory image");
}

// ------------------------------------------------------ random programs

/// Registers the generator gives fixed roles, so that no address
/// computation can overflow: r0..r3 are bases that only step by small
/// amounts, r4 is a small index, r5 and r6 take arbitrary arithmetic
/// (and r6 counts loops), r7 is a base too.
const BASES: [u8; 5] = [0, 1, 2, 3, 7];
const DATA_BYTES: u64 = 4096;

struct Gen<'a> {
    rng: &'a mut Rng64,
    insts: Vec<Inst>,
    labels: Vec<usize>,
    /// Allow addresses outside the data region.
    wild: bool,
}

impl Gen<'_> {
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.rng.range_usize(xs.len())]
    }
    fn prec(&mut self) -> Prec {
        self.pick(&[Prec::S, Prec::D])
    }
    fn freg(&mut self) -> FReg {
        FReg(self.rng.range_usize(NUM_FREGS) as u8)
    }
    fn scratch(&mut self) -> IReg {
        IReg(self.pick(&[5, 6]))
    }
    fn addr(&mut self) -> Addr {
        let base = IReg(self.pick(&BASES));
        // Mostly 16-byte aligned; sometimes odd, line-crossing, or (when
        // wild) off either end of memory.
        let disp = match self.rng.range_usize(10) {
            0 => self.rng.range_usize(200) as i64 - 100,
            // Below the base (but not below zero) or far past the end.
            1 if self.wild => self.pick(&[-0x8000, 5000, 1 << 20, i32::MAX as i64]),
            _ => 16 * self.rng.range_usize(24) as i64,
        };
        if self.rng.gen_bool(0.3) {
            Addr::base_index(base, IReg(4), self.pick(&[1, 2, 4, 8]), disp)
        } else {
            Addr::base_disp(base, disp)
        }
    }
    fn rhs(&mut self) -> RegOrMem {
        if self.rng.gen_bool(0.5) {
            RegOrMem::Reg(self.freg())
        } else {
            RegOrMem::Mem(self.addr())
        }
    }

    /// One random non-branching instruction.
    fn inst(&mut self) -> Inst {
        use Inst::*;
        let (d, s, p) = (self.freg(), self.freg(), self.prec());
        match self.rng.range_usize(34) {
            0 => IMovImm(self.scratch(), self.rng.range_usize(2000) as i64 - 1000),
            1 => IMov(self.scratch(), self.scratch()),
            2 => IAdd(self.scratch(), self.scratch()),
            3 => ISub(self.scratch(), self.scratch()),
            4 => IAddImm(IReg(self.pick(&BASES)), 16 * self.rng.range_usize(4) as i64),
            5 => ISubImm(self.scratch(), self.rng.range_usize(9) as i64),
            6 => IShlImm(self.scratch(), self.rng.range_usize(3) as u8),
            7 => IDivImm(self.scratch(), self.pick(&[2, 3, 7, -5])),
            8 => IRemImm(self.scratch(), self.pick(&[2, 3, 7, -5])),
            9 => Lea(self.scratch(), self.addr()),
            10 => ICmp(self.scratch(), self.scratch()),
            11 => ICmpImm(self.scratch(), self.rng.range_usize(20) as i64 - 10),
            12 => ILoad(self.scratch(), self.addr()),
            13 => IStore(self.addr(), self.scratch()),
            14 => FLd(d, self.addr(), p),
            15 => FSt(self.addr(), s, p),
            16 => FStNt(self.addr(), s, p),
            17 => FMov(d, s, p),
            18 => FLdImm(d, self.rng.range_f64(-4.0, 4.0), p),
            19 => FZero(d),
            20 => match self.rng.range_usize(5) {
                0 => FAdd(d, self.rhs(), p),
                1 => FSub(d, self.rhs(), p),
                2 => FMul(d, self.rhs(), p),
                3 => FDiv(d, self.rhs(), p),
                _ => FMax(d, self.rhs(), p),
            },
            21 if self.rng.gen_bool(0.5) => FAbs(d, p),
            21 => FSqrt(d, p),
            22 => FCmp(d, self.rhs(), p),
            23 => VLd(d, self.addr(), p, self.rng.gen_bool(0.8)),
            24 => VSt(self.addr(), s, p, self.rng.gen_bool(0.8)),
            25 => VStNt(self.addr(), s, p),
            26 => match self.rng.range_usize(3) {
                0 => VMov(d, s),
                1 => VBcast(d, s, p),
                _ => VAbs(d, p),
            },
            27 | 28 => match self.rng.range_usize(4) {
                0 => VAdd(d, self.rhs(), p),
                1 => VSub(d, self.rhs(), p),
                2 => VMul(d, self.rhs(), p),
                _ => VMax(d, self.rhs(), p),
            },
            29 => VCmpGt(d, self.rhs(), p),
            30 => VMovMsk(self.scratch(), s, p),
            31 if self.rng.gen_bool(0.5) => VHSum(d, s, p),
            31 => VHMax(d, s, p),
            _ => {
                let kinds = [
                    PrefKind::T0,
                    PrefKind::T1,
                    PrefKind::T2,
                    PrefKind::Nta,
                    PrefKind::W,
                ];
                Prefetch(self.addr(), self.pick(&kinds))
            }
        }
    }

    fn label_here(&mut self) -> Label {
        self.labels.push(self.insts.len());
        Label(self.labels.len() as u32 - 1)
    }

    /// A counted loop over a random body, closed the ways codegen closes
    /// loops: `IDec` + `Jcc`, or a step and an `ICmpImm` + `Jcc`.
    fn counted_loop(&mut self) {
        let trips = 1 + self.rng.range_usize(12) as i64;
        self.insts.push(Inst::IMovImm(IReg(6), trips));
        let top = self.label_here();
        for _ in 0..1 + self.rng.range_usize(10) {
            let mut i = self.inst();
            // The body must not clobber the counter.
            while format!("{i:?}").contains("r6") {
                i = self.inst();
            }
            self.insts.push(i);
        }
        let base = IReg(self.pick(&BASES));
        self.insts.push(Inst::IAddImm(base, 16));
        if self.rng.gen_bool(0.5) {
            self.insts.push(Inst::IDec(IReg(6)));
            self.insts.push(Inst::Jcc(Cond::Gt, top));
        } else {
            self.insts.push(Inst::ISubImm(IReg(6), 1));
            self.insts.push(Inst::ICmpImm(IReg(6), 0));
            let c = self.pick(&[Cond::Gt, Cond::Ne]);
            self.insts.push(Inst::Jcc(c, top));
        }
    }

    /// A forward branch over a few instructions, on whatever the flags
    /// hold, or an unconditional jump.
    fn forward_branch(&mut self) {
        let skip = Label(self.labels.len() as u32);
        self.labels.push(usize::MAX);
        let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];
        let jump = match self.rng.range_usize(4) {
            0 => Inst::Jmp(skip),
            _ => Inst::Jcc(self.pick(&conds), skip),
        };
        self.insts.push(jump);
        for _ in 0..self.rng.range_usize(4) {
            let i = self.inst();
            self.insts.push(i);
        }
        self.labels[skip.0 as usize] = self.insts.len();
    }
}

/// A random program and the state to start it from. `shape` 0 is
/// straight-line code, 1 adds loops and branches, 2 also wild addresses
/// and an ending that may run off the program.
fn random_case<'m>(rng: &mut Rng64, mach: &'m MachineConfig, shape: usize) -> (Program, Setup<'m>) {
    let mut g = Gen {
        rng,
        insts: Vec::new(),
        labels: Vec::new(),
        wild: shape == 2,
    };
    for _ in 0..4 + g.rng.range_usize(40) {
        match (shape, g.rng.range_usize(8)) {
            (1 | 2, 0) => g.counted_loop(),
            (1 | 2, 1) => g.forward_branch(),
            _ => {
                let i = g.inst();
                g.insts.push(i);
            }
        }
    }
    match (shape, g.rng.range_usize(4)) {
        (2, 0) => {}
        (2, 1) => {
            // A jump to a label past the last instruction.
            let end = Label(g.labels.len() as u32);
            g.labels.push(g.insts.len() + 1);
            g.insts.push(Inst::Jmp(end));
        }
        _ => g.insts.push(Inst::Halt),
    }
    let prog = Program {
        insts: g.insts,
        labels: g.labels,
    };

    let mut mem = Memory::new(3 * DATA_BYTES as usize);
    let data = mem.alloc(DATA_BYTES, 64);
    let bytes: Vec<f64> = (0..DATA_BYTES / 8)
        .map(|_| rng.range_f64(-8.0, 8.0))
        .collect();
    mem.store_f64_slice(data, &bytes).unwrap();
    let mut iregs = [0i64; NUM_IREGS];
    for (i, b) in BASES.iter().enumerate() {
        iregs[*b as usize] = (data + 512 * i as u64) as i64;
    }
    iregs[4] = rng.range_usize(8) as i64;
    iregs[5] = rng.range_usize(100) as i64;
    iregs[6] = 3;
    let fregs = std::array::from_fn(|_| rng.range_f64(-2.0, 2.0));
    let preload = if rng.gen_bool(0.5) {
        vec![(data, DATA_BYTES)]
    } else {
        vec![]
    };
    let limit = match rng.range_usize(6) {
        0 => Some(rng.range_usize(prog.len() + 3) as u64),
        1 => Some(rng.range_usize(200) as u64),
        _ => None,
    };
    let setup = Setup {
        mach,
        mem,
        iregs,
        fregs,
        single: false,
        preload,
        limit,
    };
    (prog, setup)
}

#[test]
fn random_programs_run_exactly_as_the_reference_steps_them() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0049);
    let (mut errors, mut halts) = (0, 0);
    for mach in [p4e(), opteron()] {
        // One CPU for every case: `reset` must leave nothing behind.
        let mut cpu = Cpu::new(mach.clone());
        for case in 0..400 {
            let shape = case % 3;
            let (prog, setup) = random_case(&mut rng, &mach, shape);
            let what = format!("{} case {case} (shape {shape}): {prog:?}", mach.name);
            compare(&what, &mut cpu, &prog, &setup);
            match cpu.stats.cycles {
                0 => errors += 1,
                _ => halts += 1,
            }
        }
    }
    // Both endings are exercised in quantity.
    assert!(
        errors > 100 && halts > 300,
        "{errors} errors, {halts} halts"
    );
}

#[test]
fn every_instruction_limit_inside_a_loop_stops_where_the_reference_does() {
    let mut rng = Rng64::seed_from_u64(7);
    let mach = p4e();
    let mut cpu = Cpu::new(mach.clone());
    let (prog, mut setup) = random_case(&mut rng, &mach, 1);
    setup.limit = None;
    compare("unlimited", &mut cpu, &prog, &setup);
    let total = cpu.stats.insts;
    for limit in 0..=total + 1 {
        setup.limit = Some(limit);
        compare(&format!("limit {limit}"), &mut cpu, &prog, &setup);
    }
}

#[test]
fn suite_kernels_run_exactly_as_the_reference_steps_them() {
    let n = 509u64; // odd: every kernel's cleanup loop runs
    let mut rng = Rng64::seed_from_u64(2005);
    let x: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let y: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    for mach in [p4e(), opteron()] {
        let mut cpu = Cpu::new(mach.clone());
        for k in ALL_KERNELS {
            let sess = CompileSession::from_source(&hil_source(k.op, k.prec), &mach).unwrap();
            let defaults = TransformParams::defaults(sess.report(), &mach);
            for unroll in [None, Some(1), Some(16)] {
                let mut params = defaults.clone();
                params.unroll = unroll.unwrap_or(params.unroll);
                let compiled = sess.compile(&params, CompileOpts::default()).unwrap();
                let eb = k.prec.bytes();
                let mut mem = Memory::new((n * eb * 2 + (1 << 16)) as usize);
                let mut addrs = Vec::new();
                for data in [&x, &y] {
                    let a = mem.alloc_vector(n, eb);
                    match k.prec {
                        Prec::D => mem.store_f64_slice(a, data).unwrap(),
                        Prec::S => mem
                            .store_elems(a, data, |v| (v as f32).to_le_bytes())
                            .unwrap(),
                    }
                    addrs.push(a);
                }
                let mut iregs = [0i64; NUM_IREGS];
                let mut fregs = [0.0f64; NUM_FREGS];
                let (mut ptrs, mut scalars) = (addrs.iter(), [1.25, -0.5].into_iter());
                for slot in &compiled.arg_convention {
                    match *slot {
                        ArgSlot::PtrReg(r) => iregs[r as usize] = *ptrs.next().unwrap() as i64,
                        ArgSlot::IntReg(r) => iregs[r as usize] = n as i64,
                        ArgSlot::FReg(r) => fregs[r as usize] = scalars.next().unwrap(),
                    }
                }
                if compiled.frame_bytes > 0 {
                    iregs[7] = mem.alloc(compiled.frame_bytes, 16) as i64;
                }
                for in_l2 in [false, true] {
                    let preload = match in_l2 {
                        true => addrs.iter().map(|&a| (a, n * eb)).collect(),
                        false => vec![],
                    };
                    let setup = Setup {
                        mach: &mach,
                        mem: mem.clone(),
                        iregs,
                        fregs,
                        single: k.prec == Prec::S,
                        preload,
                        limit: None,
                    };
                    let what = format!(
                        "{} {} UR {unroll:?} in_l2 {in_l2}",
                        mach.name, compiled.name
                    );
                    compare(&what, &mut cpu, &compiled.program, &setup);
                    assert!(cpu.stats.cycles > 0, "{what} did not halt");
                }
            }
        }
    }
}
