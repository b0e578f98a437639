//! Exactness cases for the states the recency-ordered sets add or
//! reshape: a set emptied by a non-temporal flush, a dirty line promoted
//! from the least recently used way, a cache re-shaped by `Cpu::reset`,
//! the flush-epoch wrap and a line whose fill is still in flight. Each
//! case pins what the model must do, not how: a hit or a miss, the victim
//! and its dirt, the counters of a run, the cycle a load completes.

use super::*;
use crate::isa::Inst::*;
use crate::{opteron, p4e, Addr, Asm, Cpu, FReg, IReg, MachineConfig, Memory, Prec, PrefKind};

const X: IReg = IReg(0);

/// A memory with one 64-byte aligned 4 KiB buffer, and its address.
fn buffer() -> (Memory, u64) {
    let mut mem = Memory::new(1 << 16);
    let x = mem.alloc(4096, 64);
    (mem, x)
}

/// A cold `cfg` machine with `X` pointing at the buffer of `mem`.
fn cold(cfg: &MachineConfig, x: u64) -> Cpu {
    let mut cpu = Cpu::new(cfg.clone());
    cpu.flush_caches();
    cpu.set_ireg(X, x as i64);
    cpu
}

fn program(insts: impl IntoIterator<Item = crate::Inst>) -> crate::Program {
    let mut a = Asm::new();
    a.extend(insts);
    a.push(Halt);
    a.finish()
}

/// Four 16-byte non-temporal stores fill the write-combine buffer of the
/// line at `X + disp`, whose flush invalidates it in both cache levels.
fn nt_line(disp: i64) -> [crate::Inst; 4] {
    [0, 16, 32, 48].map(|o| VStNt(Addr::base_disp(X, disp + o), FReg(1), Prec::D))
}

/// A non-temporal flush that takes a set's most recent line — its only
/// line, or the front of two — leaves the set without it: the next load
/// of the line misses, and the set's other line is still there.
#[test]
fn nt_flush_of_a_sets_most_recent_line_then_a_load_of_it() {
    for cfg in [p4e(), opteron()] {
        let (mut mem, x) = buffer();
        let ld = |d: i64, r: u8| FLd(FReg(r), Addr::base_disp(X, d), Prec::D);
        // Alone in its set: the flush empties the set.
        let mut cpu = cold(&cfg, x);
        let alone = program([ld(0, 0)].into_iter().chain(nt_line(0)).chain([ld(8, 2)]));
        let s = cpu.run(&alone, &mut mem).unwrap();
        assert_eq!(
            (s.l1_hits, s.l1_misses, s.wc_flushes),
            (0, 2, 1),
            "{}",
            cfg.name
        );
        // In front of an older line of the same set: the older one moves
        // up, and it is the flushed line that misses.
        let span = (cfg.l1.size / cfg.l1.assoc) as i64;
        let mut cpu = cold(&cfg, x);
        let pair = [ld(span, 3), ld(0, 0)]
            .into_iter()
            .chain(nt_line(0))
            .chain([ld(8, 2), ld(span + 8, 4)]);
        let s = cpu.run(&program(pair), &mut mem).unwrap();
        assert_eq!(
            (s.l1_hits, s.l1_misses, s.wc_flushes),
            (1, 3, 1),
            "{}",
            cfg.name
        );
    }
}

/// What an L1 write-back does to the L2 (`mark_dirty`), and a plain hit
/// (`probe`), on a line at a full set's least recently used way: the line
/// moves to the front with its dirt and every other line keeps its own,
/// so the set later evicts each line once, in recency order, with the
/// right dirt.
#[test]
fn dirty_line_promoted_from_the_lru_way() {
    for assoc in [2, 8, 16] {
        let cfg = CacheCfg {
            size: 64 * assoc,
            line: 64,
            assoc,
            latency: 1,
        };
        let line = |i: u64| i * 64;
        for write_back in [false, true] {
            let mut c = Cache::new(cfg);
            // Lines 0..assoc, odd ones dirty; line 0 is the LRU and is
            // dirty only when it is promoted by a plain hit.
            for i in 0..assoc {
                let dirty = i % 2 == 1 || (i == 0 && !write_back);
                assert_eq!(c.insert(line(i), 7 + i, dirty), None);
            }
            let hit = match write_back {
                true => c.mark_dirty(line(0)),
                false => c.probe(line(0)),
            };
            assert_eq!(hit, Probe::Hit { fill_done: 7 });
            let evicted: Vec<Evicted> = (assoc..2 * assoc)
                .filter_map(|i| c.insert(line(i), 0, false))
                .collect();
            let want: Vec<Evicted> = (1..assoc)
                .chain([0])
                .map(|i| Evicted {
                    addr: line(i),
                    dirty: i % 2 == 1 || i == 0,
                })
                .collect();
            assert_eq!(evicted, want, "assoc {assoc}, write-back {write_back}");
        }
    }
}

/// A kernel that sweeps a 12 KiB window ten times — loads, stores,
/// prefetches, NT stores into the window, evictions in both levels — run
/// on one `Cpu` reset to the other machine between runs counts, computes
/// and stores exactly what a fresh `Cpu` does. No flush in between: the
/// reset alone must leave both caches empty and re-shaped.
#[test]
fn reset_to_the_other_machine_between_runs() {
    let (i, off, n) = (IReg(1), IReg(2), IReg(3));
    let at = |disp| Addr::base_index(X, off, 1, disp);
    let mut a = Asm::new();
    let top = a.here();
    a.extend([
        Prefetch(at(256), PrefKind::T0),
        FLd(FReg(0), at(0), Prec::D),
        FAdd(FReg(0), crate::RegOrMem::Mem(at(8)), Prec::D),
        FSt(at(16), FReg(0), Prec::D),
        VStNt(at(4096), FReg(0), Prec::D),
        IAddImm(i, 40),
        IMov(off, i),
        IRemImm(off, 12 << 10),
        ISubImm(n, 1),
        ICmpImm(n, 0),
        Jcc(crate::Cond::Gt, top),
        Halt,
    ]);
    let prog = a.finish();
    let run = |cpu: &mut Cpu| {
        let mut mem = Memory::new(1 << 16);
        let x = mem.alloc(1 << 15, 64);
        let data: Vec<f64> = (0..4096).map(|i| i as f64 * 0.5).collect();
        mem.store_f64_slice(x, &data).unwrap();
        cpu.set_ireg(X, x as i64);
        cpu.set_ireg(n, 3000);
        let stats = cpu.run(&prog, &mut mem).unwrap();
        (
            stats,
            cpu.freg_f64(FReg(0)),
            mem.load_f64_slice(x, 4096).unwrap(),
        )
    };
    let mut reused = Cpu::new(p4e());
    for cfg in [p4e(), opteron(), p4e(), opteron()] {
        reused.reset(&cfg);
        let got = run(&mut reused);
        let want = run(&mut Cpu::new(cfg.clone()));
        assert_eq!(got.0, want.0, "{}: statistics", cfg.name);
        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{}: x0", cfg.name);
        assert!(got.2 == want.2, "{}: memory", cfg.name);
        assert!(got.0.l1_misses > 0 && got.0.wc_flushes > 0, "{}", cfg.name);
    }
}

/// A set last filled 2^32 flushes ago holds the epoch that becomes
/// current again when the counter wraps: the wrap must empty it, so its
/// old lines neither hit nor count, and a fill evicts nothing.
#[test]
fn flush_epoch_wrap_empties_sets_filled_an_epoch_cycle_ago() {
    let cfg = CacheCfg {
        size: 1024,
        line: 64,
        assoc: 4,
        latency: 1,
    };
    let mut c = Cache::new(cfg);
    // Filled at epoch 1, as right after a wrap.
    c.epoch = 1;
    for i in 0..4 {
        c.insert(i * 256, 0, true);
    }
    c.insert(64, 0, false);
    assert_eq!(c.resident_lines(), 5);
    // The flushes in between touch no set.
    c.epoch = u32::MAX;
    c.flush_all();
    assert_eq!(c.epoch, 1, "the counter wrapped to the epoch of the fills");
    assert_eq!(c.resident_lines(), 0);
    for i in 0..4 {
        assert_eq!(c.peek(i * 256), c.probe(i * 256));
        assert!(!c.peek(i * 256).is_hit(), "{:#x}", i * 256);
        assert!(c.invalidate(i * 256).is_none());
    }
    for i in 4..8 {
        assert_eq!(c.insert(i * 256, 0, false), None, "a fill after the wrap");
    }
    let ev = c.insert(8 * 256, 0, false);
    assert_eq!(
        ev,
        Some(Evicted {
            addr: 4 * 256,
            dirty: false
        })
    );
}

/// A prefetch, a second prefetch and a load of a line whose fill is
/// still in flight: the line is present, so the second prefetch is
/// useless and the load hits, and the load completes when the fill does,
/// plus the L1 latency — at the cycle the bus and memory latency give.
#[test]
fn prefetch_and_load_of_a_line_in_flight() {
    for cfg in [p4e(), opteron()] {
        for kind in [PrefKind::T0, PrefKind::Nta] {
            let (mut mem, x) = buffer();
            let mut cpu = cold(&cfg, x);
            let pf = Prefetch(Addr::base_disp(X, 64), kind);
            let prog = program([
                pf.clone(),
                pf,
                FLd(FReg(0), Addr::base_disp(X, 72), Prec::D),
            ]);
            let s = cpu.run(&prog, &mut mem).unwrap();
            let what = format!("{} {kind:?}", cfg.name);
            assert_eq!(
                (
                    s.prefetch_issued,
                    s.prefetch_useless,
                    s.l1_hits,
                    s.l1_misses
                ),
                (1, 1, 1, 0),
                "{what}"
            );
            let transfer = (cfg.l1.line as f64 / cfg.bus.bytes_per_cycle).ceil() as u64;
            let arrives = transfer + cfg.mem_lat;
            assert_eq!(s.cycles, arrives + cfg.l1.latency, "{what}");
        }
        // An L2-only prefetch, then one into L1 while the L2 fill is in
        // flight: the line moves up from L2 without a second bus read.
        let (mut mem, x) = buffer();
        let mut cpu = cold(&cfg, x);
        let prog = program([
            Prefetch(Addr::base(X), PrefKind::T1),
            Prefetch(Addr::base(X), PrefKind::T0),
            FLd(FReg(0), Addr::base(X), Prec::D),
        ]);
        let s = cpu.run(&prog, &mut mem).unwrap();
        assert_eq!(
            (s.prefetch_issued, s.l1_hits, s.bus_read_bytes),
            (2, 1, cfg.l1.line),
            "{}",
            cfg.name
        );
    }
}
