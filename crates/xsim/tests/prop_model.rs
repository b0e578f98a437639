//! Property tests of the machine-model substrate: the cache against a
//! reference set-associative LRU model, bus invariants, and memory
//! round-trips. Cases are drawn from the in-repo `Rng64` with fixed
//! seeds, so the suite runs ungated in Tier-1 and a failure names its
//! case.

use ifko_xsim::bus::{Bus, BusCfg};
use ifko_xsim::cache::{Cache, CacheCfg, Evicted, Probe};
use ifko_xsim::{Memory, Rng64};
use std::collections::VecDeque;

/// One resident line of the reference model.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RefLine {
    lineno: u64,
    dirty: bool,
    fill_done: u64,
}

/// Reference LRU model: per set a queue of lines, least recently used at
/// the front. It knows nothing of ways, hints, epochs or ticks.
struct RefCache {
    cfg: CacheCfg,
    sets: Vec<VecDeque<RefLine>>,
}

impl RefCache {
    fn new(cfg: CacheCfg) -> Self {
        RefCache {
            cfg,
            sets: vec![VecDeque::new(); cfg.sets() as usize],
        }
    }
    fn locate(&mut self, addr: u64) -> (&mut VecDeque<RefLine>, u64, Option<usize>) {
        let lineno = addr / self.cfg.line;
        let q = &mut self.sets[(lineno % self.cfg.sets()) as usize];
        let pos = q.iter().position(|l| l.lineno == lineno);
        (q, lineno, pos)
    }
    /// `Some(fill_done)` on a hit, which also makes the line most recent.
    fn probe(&mut self, addr: u64) -> Option<u64> {
        let (q, _, pos) = self.locate(addr);
        let l = q.remove(pos?)?;
        q.push_back(l);
        Some(l.fill_done)
    }
    fn peek(&mut self, addr: u64) -> Option<u64> {
        let (q, _, pos) = self.locate(addr);
        Some(q[pos?].fill_done)
    }
    fn mark_dirty(&mut self, addr: u64) -> Option<u64> {
        let (q, _, pos) = self.locate(addr);
        let mut l = q.remove(pos?)?;
        l.dirty = true;
        q.push_back(l);
        Some(l.fill_done)
    }
    fn insert(&mut self, addr: u64, fill_done: u64, dirty: bool) -> Option<Evicted> {
        let (line, assoc) = (self.cfg.line, self.cfg.assoc as usize);
        let (q, lineno, pos) = self.locate(addr);
        if let Some(pos) = pos {
            let mut l = q.remove(pos).unwrap();
            l.dirty |= dirty;
            l.fill_done = l.fill_done.min(fill_done);
            q.push_back(l);
            return None;
        }
        let victim = if q.len() == assoc {
            q.pop_front()
        } else {
            None
        };
        q.push_back(RefLine {
            lineno,
            dirty,
            fill_done,
        });
        victim.map(|v| Evicted {
            addr: v.lineno * line,
            dirty: v.dirty,
        })
    }
    fn invalidate(&mut self, addr: u64) -> Option<Evicted> {
        let line = self.cfg.line;
        let (q, lineno, pos) = self.locate(addr);
        let l = q.remove(pos?)?;
        Some(Evicted {
            addr: lineno * line,
            dirty: l.dirty,
        })
    }
    fn resident(&self) -> usize {
        self.sets.iter().map(VecDeque::len).sum()
    }
}

const GEOMETRIES: [CacheCfg; 6] = [
    geometry(1024, 64, 2),
    geometry(2048, 64, 8),
    geometry(512, 32, 1),
    geometry(4096, 64, 16),
    geometry(1024, 64, 4),
    geometry(768, 64, 3),
];

const fn geometry(size: u64, line: u64, assoc: u64) -> CacheCfg {
    CacheCfg {
        size,
        line,
        assoc,
        latency: 1,
    }
}

fn hit(p: Probe) -> Option<u64> {
    match p {
        Probe::Hit { fill_done } => Some(fill_done),
        Probe::Miss(_) => None,
    }
}

/// The cache agrees with the reference LRU model on every observable —
/// hit or miss, the fill time a hit reports, the victim (`addr`, `dirty`)
/// of every fill and invalidation, the resident count — under arbitrary
/// sequences of every operation, a miss being filled either through its
/// `Miss` or by address, with flushes and re-shapes to other geometries
/// in mid-sequence.
#[test]
fn cache_matches_reference_lru() {
    for case in 0..48u64 {
        let mut rng = Rng64::seed_from_u64(0xcac_4e00 + case);
        let mut cfg = GEOMETRIES[rng.range_usize(GEOMETRIES.len())];
        let mut dut = Cache::new(cfg);
        let mut model = RefCache::new(cfg);
        let ops = 1 + rng.range_usize(1500);
        for step in 0..ops {
            // A small window so sets collide and evictions happen, with
            // the odd address from the far end of the address space (the
            // cache sees addresses before the memory bounds check does).
            let addr = match rng.range_usize(64) {
                0 => u64::MAX - rng.range_usize(4096) as u64,
                _ => rng.range_usize(4 * cfg.size as usize) as u64,
            };
            let (fill_done, dirty) = (rng.range_usize(1000) as u64, rng.gen_bool(0.3));
            let what = format!("case {case} step {step} {cfg:?} addr {addr:#x}");
            match rng.range_usize(100) {
                // A lookup, then — usually — the fill of its miss.
                0..=59 => {
                    let (got, want) = match rng.range_usize(3) {
                        0 => (dut.probe(addr), model.probe(addr)),
                        1 => (dut.mark_dirty(addr), model.mark_dirty(addr)),
                        _ => (dut.peek(addr), model.peek(addr)),
                    };
                    assert_eq!(hit(got), want, "lookup: {what}");
                    if let (Probe::Miss(miss), true) = (got, rng.gen_bool(0.8)) {
                        assert_eq!(
                            dut.fill(miss, fill_done, dirty),
                            model.insert(addr, fill_done, dirty),
                            "fill: {what}"
                        );
                    }
                }
                60..=79 => assert_eq!(
                    dut.insert(addr, fill_done, dirty),
                    model.insert(addr, fill_done, dirty),
                    "insert: {what}"
                ),
                80..=93 => assert_eq!(
                    dut.invalidate(addr),
                    model.invalidate(addr),
                    "invalidate: {what}"
                ),
                94..=96 => {
                    dut.flush_all();
                    model = RefCache::new(cfg);
                }
                _ => {
                    cfg = GEOMETRIES[rng.range_usize(GEOMETRIES.len())];
                    dut.reset(cfg);
                    model = RefCache::new(cfg);
                }
            }
            assert_eq!(dut.resident_lines(), model.resident(), "resident: {what}");
        }
    }
}

/// Bus reads never travel back in time and bandwidth is respected: a read
/// of B bytes occupies at least B/bpc cycles.
#[test]
fn bus_reads_are_monotonic_and_bandwidth_limited() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(0x0b05_0000 + case);
        let bpc = 2.0;
        let mut bus = Bus::new(BusCfg {
            bytes_per_cycle: bpc,
            turnaround: 8,
            write_queue: 256,
        });
        let (mut last_done, mut now) = (0u64, 0u64);
        for _ in 0..1 + rng.range_usize(100) {
            now += rng.range_usize(64) as u64;
            let bytes = 1 + rng.range_usize(511) as u64;
            let (start, done) = bus.read(now, bytes);
            assert!(start >= now, "case {case}: transfer starts before request");
            assert!(start >= last_done, "case {case}: overlapping transfers");
            let min_cycles = (bytes as f64 / bpc).floor() as u64;
            assert!(
                done >= start + min_cycles.max(1),
                "case {case}: {bytes} bytes in {} cycles",
                done - start
            );
            last_done = done;
        }
    }
}

/// Buffered writes never reject and never shrink the busy horizon, and
/// drain_all clears the backlog completely.
#[test]
fn bus_write_backlog_drains() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(0xd2a1_0000 + case);
        let mut bus = Bus::new(BusCfg {
            bytes_per_cycle: 2.0,
            turnaround: 4,
            write_queue: 128,
        });
        let mut total = 0u64;
        for _ in 0..1 + rng.range_usize(50) {
            let w = 1 + rng.range_usize(255) as u64;
            let before = bus.effective_free(0);
            bus.write(0, w);
            assert!(bus.effective_free(0) >= before, "case {case}");
            total += w;
        }
        assert_eq!(bus.bytes_written, total, "case {case}");
        let done = bus.drain_all(0);
        // All bytes must take at least total/bpc cycles to drain.
        assert!(done >= (total as f64 / 2.0) as u64, "case {case}");
        assert!(!bus.busy(done), "case {case}");
    }
}

/// Memory round-trips arbitrary f64 bit patterns (NaN payloads included)
/// at arbitrary aligned offsets, element by element and as one slice.
#[test]
fn memory_roundtrip() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(0x03e3_0000 + case);
        let data: Vec<f64> = (0..1 + rng.range_usize(63))
            .map(|_| f64::from_bits(rng.next_u64()))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut m = Memory::new(1 << 16);
        let base = m.alloc(8 * 64 + 1024, 64) + 8 * rng.range_usize(128) as u64;
        for (i, v) in data.iter().enumerate() {
            m.write_f64(base + 8 * i as u64, *v).unwrap();
        }
        for (i, v) in data.iter().enumerate() {
            let got = m.read_f64(base + 8 * i as u64).unwrap();
            assert_eq!(got.to_bits(), v.to_bits(), "case {case} element {i}");
        }
        assert_eq!(
            bits(&m.load_f64_slice(base, data.len()).unwrap()),
            bits(&data),
            "case {case}"
        );
        let mut m = Memory::new(1 << 16);
        m.store_f64_slice(base, &data).unwrap();
        for (i, v) in data.iter().enumerate() {
            let got = m.read_f64(base + 8 * i as u64).unwrap();
            assert_eq!(got.to_bits(), v.to_bits(), "case {case} element {i}");
        }
    }
}
