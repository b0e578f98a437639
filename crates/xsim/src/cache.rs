//! Set-associative cache model with LRU replacement and in-flight fills.
//!
//! Each line records the cycle at which its fill completes, so a software
//! prefetch issued too close to the demand access yields only a *partial*
//! latency hiding — this is what gives prefetch distance its interior
//! optimum in the empirical search (too small: fill not complete; too
//! large: line evicted again before use in a small L1).

/// Static configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheCfg {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity (ways per set).
    pub assoc: u64,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheCfg {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size / (self.line * self.assoc)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    /// Flush epoch the line was filled in: the line is valid iff this
    /// equals the cache's current epoch (0 is never current).
    epoch: u32,
    dirty: bool,
    /// LRU timestamp (larger = more recently used).
    lru: u64,
    /// Cycle at which the line's fill completes (0 if long resident).
    fill_done: u64,
}

/// Result of probing a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Line present; data available at `max(now, fill_done)`.
    Hit {
        fill_done: u64,
    },
    Miss,
}

/// A line evicted by an insertion; dirty lines must be written back by the
/// caller (they cost bus bandwidth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    pub addr: u64,
    pub dirty: bool,
}

/// One level of set-associative cache.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheCfg,
    sets: u64,
    /// `log2(cfg.line)` and `log2(sets)`: both are powers of two.
    line_shift: u32,
    set_shift: u32,
    /// At least `sets * assoc` lines; a cache re-shaped by
    /// [`reset`](Cache::reset) to a smaller geometry keeps the excess.
    lines: Vec<Line>,
    /// Current flush epoch (never 0); see [`Line::epoch`].
    epoch: u32,
    tick: u64,
}

impl Cache {
    pub fn new(cfg: CacheCfg) -> Self {
        let mut c = Cache {
            cfg,
            sets: 0,
            line_shift: 0,
            set_shift: 0,
            lines: Vec::new(),
            epoch: 1,
            tick: 0,
        };
        c.reset(cfg);
        c
    }

    /// Re-shape to `cfg` and drop all contents: afterwards the cache
    /// behaves exactly like `Cache::new(cfg)`. The line store is reused
    /// whenever it is large enough for the new geometry.
    pub fn reset(&mut self, cfg: CacheCfg) {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two: {:?}",
            cfg
        );
        assert!(cfg.line.is_power_of_two());
        self.cfg = cfg;
        self.sets = sets;
        self.line_shift = cfg.line.trailing_zeros();
        self.set_shift = sets.trailing_zeros();
        let need = (sets * cfg.assoc) as usize;
        if self.lines.len() < need {
            // Every old line is about to be invalidated: a new store
            // avoids `resize` copying them.
            self.lines = vec![Line::default(); need];
        }
        self.flush_all();
    }

    pub fn cfg(&self) -> &CacheCfg {
        &self.cfg
    }

    #[inline]
    fn index(&self, addr: u64) -> (u64, u64) {
        let lineno = addr >> self.line_shift;
        let set = lineno & (self.sets - 1);
        let tag = lineno >> self.set_shift;
        (set, tag)
    }

    #[inline]
    fn set_slice(&mut self, set: u64) -> &mut [Line] {
        let a = (set * self.cfg.assoc) as usize;
        let b = a + self.cfg.assoc as usize;
        &mut self.lines[a..b]
    }

    /// Probe for the line containing `addr`; updates LRU on hit.
    pub fn probe(&mut self, addr: u64) -> Probe {
        let (set, tag) = self.index(addr);
        self.tick += 1;
        let (tick, epoch) = (self.tick, self.epoch);
        for l in self.set_slice(set) {
            if l.epoch == epoch && l.tag == tag {
                l.lru = tick;
                return Probe::Hit {
                    fill_done: l.fill_done,
                };
            }
        }
        Probe::Miss
    }

    /// Probe without disturbing LRU state (used by the harness/tests).
    pub fn peek(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let a = (set * self.cfg.assoc) as usize;
        self.lines[a..a + self.cfg.assoc as usize]
            .iter()
            .any(|l| l.epoch == self.epoch && l.tag == tag)
    }

    /// Insert the line containing `addr`, with its fill completing at
    /// `fill_done`. Returns the victim if a valid line was evicted.
    pub fn insert(&mut self, addr: u64, fill_done: u64, dirty: bool) -> Option<Evicted> {
        let (set, tag) = self.index(addr);
        self.tick += 1;
        let (tick, epoch) = (self.tick, self.epoch);
        let (line_shift, set_shift) = (self.line_shift, self.set_shift);
        let slice = self.set_slice(set);
        // Already present (e.g. prefetch raced a demand fill): refresh.
        if let Some(l) = slice.iter_mut().find(|l| l.epoch == epoch && l.tag == tag) {
            l.lru = tick;
            l.dirty |= dirty;
            l.fill_done = l.fill_done.min(fill_done);
            return None;
        }
        // Choose victim: the first invalid way, else LRU (`min_by_key`
        // returns the first of equal minima).
        let victim = slice
            .iter_mut()
            .min_by_key(|l| if l.epoch == epoch { (1, l.lru) } else { (0, 0) })
            .expect("assoc >= 1");
        let evicted = if victim.epoch == epoch {
            let old_lineno = (victim.tag << set_shift) | set;
            Some(Evicted {
                addr: old_lineno << line_shift,
                dirty: victim.dirty,
            })
        } else {
            None
        };
        *victim = Line {
            tag,
            epoch,
            dirty,
            lru: tick,
            fill_done,
        };
        evicted
    }

    /// Mark the line containing `addr` dirty (if present). Returns whether
    /// the line was present.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.tick += 1;
        let (tick, epoch) = (self.tick, self.epoch);
        for l in self.set_slice(set) {
            if l.epoch == epoch && l.tag == tag {
                l.dirty = true;
                l.lru = tick;
                return true;
            }
        }
        false
    }

    /// Invalidate the line containing `addr` (non-temporal store semantics).
    /// Returns the evicted line if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<Evicted> {
        let (set, tag) = self.index(addr);
        let (epoch, line_shift) = (self.epoch, self.line_shift);
        for l in self.set_slice(set) {
            if l.epoch == epoch && l.tag == tag {
                let dirty = l.dirty;
                l.epoch = 0;
                l.dirty = false;
                return Some(Evicted {
                    addr: addr >> line_shift << line_shift,
                    dirty,
                });
            }
        }
        None
    }

    /// Drop all contents (cold-cache setup for out-of-cache timings).
    /// O(1): advancing the epoch invalidates every line at once.
    pub fn flush_all(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: really clear, so no line filled 2^32 flushes
            // ago can read as current again.
            self.lines.fill(Line::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        self.tick = 0;
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.epoch == self.epoch).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheCfg {
            size: 512,
            line: 64,
            assoc: 2,
            latency: 3,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert_eq!(c.probe(0x1000), Probe::Miss);
        c.insert(0x1000, 100, false);
        assert!(matches!(c.probe(0x1000), Probe::Hit { fill_done: 100 }));
        // Same line, different offset.
        assert!(matches!(c.probe(0x103f), Probe::Hit { .. }));
        // Next line misses.
        assert_eq!(c.probe(0x1040), Probe::Miss);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 lines * 64B = 256B).
        c.insert(0x0000, 0, false);
        c.insert(0x0100, 0, false);
        // Touch the first so the second is LRU.
        c.probe(0x0000);
        let ev = c.insert(0x0200, 0, false).expect("eviction");
        assert_eq!(ev.addr, 0x0100);
        assert!(!ev.dirty);
        assert!(c.peek(0x0000));
        assert!(!c.peek(0x0100));
        assert!(c.peek(0x0200));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.insert(0x0000, 0, false);
        assert!(c.mark_dirty(0x0008));
        c.insert(0x0100, 0, false);
        let ev = c.insert(0x0200, 0, false).unwrap();
        assert!(ev.dirty, "dirty victim must be reported for writeback");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(0x0000, 0, true);
        let ev = c.invalidate(0x0010).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.addr, 0x0000);
        assert_eq!(c.probe(0x0000), Probe::Miss);
        assert!(c.invalidate(0x0000).is_none());
    }

    #[test]
    fn reinsert_refreshes_fill_time() {
        let mut c = tiny();
        c.insert(0x0000, 500, false);
        c.insert(0x0000, 200, true);
        match c.probe(0x0000) {
            Probe::Hit { fill_done } => assert_eq!(fill_done, 200),
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn flush_all_empties() {
        let mut c = tiny();
        c.insert(0x0000, 0, false);
        c.insert(0x0040, 0, false);
        assert_eq!(c.resident_lines(), 2);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.probe(0x0000), Probe::Miss);
    }

    #[test]
    fn flushed_lines_are_refilled_first_invalid_way_first() {
        let mut c = tiny();
        c.insert(0x0000, 0, true);
        c.insert(0x0100, 0, true);
        c.flush_all();
        // Both ways of set 0 are stale: refilling them evicts nothing,
        // and a third line then evicts the first refill (LRU), clean.
        assert!(c.insert(0x0200, 0, false).is_none());
        assert!(c.insert(0x0300, 0, false).is_none());
        let ev = c.insert(0x0400, 0, false).expect("eviction");
        assert_eq!(ev.addr, 0x0200);
        assert!(!ev.dirty, "dirt from before the flush must not survive");
    }

    #[test]
    fn flush_survives_epoch_wrap() {
        let mut c = tiny();
        c.epoch = u32::MAX - 1;
        c.insert(0x0000, 0, false);
        c.flush_all();
        c.insert(0x0040, 0, false);
        c.flush_all(); // wraps
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.probe(0x0000), Probe::Miss);
        assert_eq!(c.probe(0x0040), Probe::Miss);
        c.insert(0x0040, 7, false);
        assert!(matches!(c.probe(0x0040), Probe::Hit { fill_done: 7 }));
    }

    #[test]
    fn reset_reshapes_and_empties() {
        let mut c = tiny();
        c.insert(0x0000, 0, true);
        // Direct-mapped, 8 sets: same capacity, different indexing.
        let cfg = CacheCfg {
            size: 512,
            line: 64,
            assoc: 1,
            latency: 9,
        };
        c.reset(cfg);
        assert_eq!(c.cfg().latency, 9);
        assert_eq!(c.resident_lines(), 0);
        c.insert(0x0000, 0, false);
        // 0x0100 shares a set with 0x0000 only in the 4-set geometry.
        assert!(c.insert(0x0100, 0, false).is_none());
        assert!(c.peek(0x0000) && c.peek(0x0100));
        // Growing past the line store rebuilds it.
        c.reset(CacheCfg {
            size: 4096,
            line: 64,
            assoc: 4,
            latency: 3,
        });
        assert_eq!(c.resident_lines(), 0);
        c.insert(0x0fc0, 0, false);
        assert!(c.peek(0x0fc0));
    }

    #[test]
    fn sets_computed() {
        let cfg = CacheCfg {
            size: 16 * 1024,
            line: 64,
            assoc: 8,
            latency: 4,
        };
        assert_eq!(cfg.sets(), 32);
    }
}
