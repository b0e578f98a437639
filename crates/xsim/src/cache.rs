//! Set-associative cache model with LRU replacement and in-flight fills.
//!
//! Each line records the cycle at which its fill completes, so a software
//! prefetch issued too close to the demand access yields only a *partial*
//! latency hiding — this is what gives prefetch distance its interior
//! optimum in the empirical search (too small: fill not complete; too
//! large: line evicted again before use in a small L1).
//!
//! The model is the inner loop of every simulated memory access, so it is
//! laid out for the host: a set's line numbers sit side by side (an 8-way
//! set is one host cache line), everything else about a way is kept
//! beside them and touched only on a hit or a fill, and an access walks
//! its set **once** — a lookup that misses hands back a [`Miss`] naming
//! the line and the free way it saw, and [`Cache::fill`] completes it
//! without looking again.

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

/// An empty way. Ways hold *line number + 1*, so no address maps to it.
const FREE: u64 = 0;
/// "No way" in [`Miss::free`].
const NO_WAY: u32 = u32::MAX;

/// What a set keeps beside its line numbers.
#[derive(Clone, Copy, Debug)]
struct SetState {
    /// Flush epoch of the set's contents. When it is not the cache's
    /// current epoch every way is free, whatever `lines` still holds (and
    /// `dirty` and `order` are stale too): the first fill clears the set.
    /// 0 is never current.
    epoch: u32,
    /// Bit `w` is set when way `w` holds a dirty line.
    dirty: u32,
    /// The ways from most to least recently used, a nibble each, most
    /// recent lowest (nibbles past the associativity keep their index).
    /// Lookups try the first; a full set's victim is the last.
    order: u64,
}

/// Nibble `p` holds `p`: every way ranked by its index.
const IN_WAY_ORDER: u64 = 0xFEDC_BA98_7654_3210;
const NIBBLES_ONES: u64 = 0x1111_1111_1111_1111;

/// A set as no fill has touched it.
const FRESH: SetState = SetState {
    epoch: 0,
    dirty: 0,
    order: IN_WAY_ORDER,
};

impl SetState {
    /// The set's `rank`-th most recently used way.
    #[inline(always)]
    fn way(&self, rank: usize) -> usize {
        (self.order >> (4 * rank) & 0xF) as usize
    }

    /// Make `way` the most recently used.
    #[inline]
    fn promote(&mut self, way: usize) {
        let order = self.order;
        // `way`'s rank: the lowest zero nibble of `x` (borrows run up).
        let x = order ^ (way as u64).wrapping_mul(NIBBLES_ONES);
        let zeros = x.wrapping_sub(NIBBLES_ONES) & !x & (NIBBLES_ONES << 3);
        let at = zeros.trailing_zeros() & !3;
        let above = (1u64 << at) - 1;
        self.order = order & !(above | 0xF << at) | (order & above) << 4 | way as u64;
    }
}

/// Result of looking a line up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Line present; data available at `max(now, fill_done)`.
    Hit { fill_done: u64 },
    /// Line absent; pass the [`Miss`] to [`Cache::fill`] to bring it in.
    Miss(Miss),
}

impl Probe {
    pub fn is_hit(&self) -> bool {
        matches!(self, Probe::Hit { .. })
    }
}

/// A lookup that missed: the line it wanted and what the walk of its set
/// saw. Good for one [`Cache::fill`], and only while nothing else has
/// filled, flushed or re-shaped the cache in between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Miss {
    /// Line number + 1.
    line: u64,
    set: u32,
    /// First free way of the set, or [`NO_WAY`] when the set is full.
    free: u32,
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
    assoc: usize,
    /// `log2(cfg.line)`; lines and sets are powers of two.
    line_shift: u32,
    set_mask: u64,
    /// Way `w` of set `s` is slot `s * assoc + w` of the two arrays
    /// below. `lines` holds line number + 1, or [`FREE`]; `fill_done`
    /// (cycle at which the fill completes, 0 if long resident) means
    /// something only where `lines` is not free. Both are at least
    /// `sets * assoc` long: a cache re-shaped by [`reset`](Cache::reset)
    /// to a smaller geometry keeps the excess.
    lines: Vec<u64>,
    fill_done: Vec<u64>,
    sets: Vec<SetState>,
    /// Current flush epoch (never 0); see [`SetState::epoch`].
    epoch: u32,
}

impl Cache {
    pub fn new(cfg: CacheCfg) -> Self {
        let mut c = Cache {
            cfg,
            assoc: 0,
            line_shift: 0,
            set_mask: 0,
            lines: Vec::new(),
            fill_done: Vec::new(),
            sets: Vec::new(),
            epoch: 1,
        };
        c.reset(cfg);
        c
    }

    /// Re-shape to `cfg` and drop all contents: afterwards the cache
    /// behaves exactly like `Cache::new(cfg)`. The stores are reused
    /// whenever they are large enough for the new geometry, and nothing
    /// is cleared here — the new epoch makes every set stale, hints
    /// left over from a wider shape included.
    pub fn reset(&mut self, cfg: CacheCfg) {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two: {:?}",
            cfg
        );
        assert!(cfg.line.is_power_of_two());
        // Any `u64` address can arrive here (the memory bounds check comes
        // after the cache access): with two-byte lines or longer, line
        // number + 1 neither overflows nor collides with `FREE`.
        assert!(cfg.line >= 2, "line size must be at least 2: {:?}", cfg);
        assert!(
            (1..=16).contains(&cfg.assoc),
            "associativity must be 1..=16: {:?}",
            cfg
        );
        self.cfg = cfg;
        self.assoc = cfg.assoc as usize;
        self.line_shift = cfg.line.trailing_zeros();
        self.set_mask = sets - 1;
        let need = (sets * cfg.assoc) as usize;
        if self.lines.len() < need {
            // Zeroed stores come straight from the allocator; `resize`
            // would copy the old contents first.
            self.lines = vec![FREE; need];
            self.fill_done = vec![0; need];
        }
        if self.sets.len() < sets as usize {
            self.sets = vec![FRESH; sets as usize];
        }
        self.flush_all();
    }

    pub fn cfg(&self) -> &CacheCfg {
        &self.cfg
    }

    /// The one walk of an access: the (set, way) holding the line of
    /// `addr`, and whether that way is the set's most recently used, or
    /// the [`Miss`] a fill needs.
    #[inline(always)]
    fn find(&self, addr: u64) -> Result<(usize, usize, bool), Miss> {
        let lineno = addr >> self.line_shift;
        let line = lineno + 1;
        let set = (lineno & self.set_mask) as usize;
        let state = &self.sets[set];
        let mut free = 0;
        if state.epoch == self.epoch {
            let base = set * self.assoc;
            let ways = &self.lines[base..base + self.assoc];
            let hint = state.way(0);
            if ways[hint] == line {
                return Ok((set, hint, true));
            }
            free = NO_WAY;
            for (w, &l) in ways.iter().enumerate().rev() {
                if l == line {
                    return Ok((set, w, false));
                }
                if l == FREE {
                    free = w as u32;
                }
            }
        }
        Err(Miss {
            line,
            set: set as u32,
            free,
        })
    }

    /// A hit on `way` of `set`: it becomes the most recently used way,
    /// and dirty if `dirty`. Returns its slot.
    #[inline]
    fn touch(&mut self, set: usize, way: usize, dirty: bool) -> usize {
        let state = &mut self.sets[set];
        state.promote(way);
        state.dirty |= (dirty as u32) << way;
        set * self.assoc + way
    }

    /// A lookup that counts as a use of the line. A hit on the set's most
    /// recently used way (most hits) leaves the set's order as it is.
    #[inline(always)]
    fn access(&mut self, addr: u64, dirty: bool) -> Probe {
        match self.find(addr) {
            Ok((set, way, mru)) => {
                let slot = match mru {
                    true => {
                        self.sets[set].dirty |= (dirty as u32) << way;
                        set * self.assoc + way
                    }
                    false => self.touch(set, way, dirty),
                };
                Probe::Hit {
                    fill_done: self.fill_done[slot],
                }
            }
            Err(miss) => Probe::Miss(miss),
        }
    }

    /// Probe for the line containing `addr`; updates LRU on hit.
    #[inline(always)]
    pub fn probe(&mut self, addr: u64) -> Probe {
        self.access(addr, false)
    }

    /// Mark the line containing `addr` dirty and most recently used, if
    /// it is present.
    #[inline(always)]
    pub fn mark_dirty(&mut self, addr: u64) -> Probe {
        self.access(addr, true)
    }

    /// Probe without disturbing LRU state (prefetch filtering, the
    /// harness, tests).
    #[inline(always)]
    pub fn peek(&self, addr: u64) -> Probe {
        match self.find(addr) {
            Ok((set, way, _)) => Probe::Hit {
                fill_done: self.fill_done[set * self.assoc + way],
            },
            Err(miss) => Probe::Miss(miss),
        }
    }

    /// Bring in the line a lookup missed, with its fill completing at
    /// `fill_done`. The victim is the first free way of the set, else its
    /// least recently used way. Returns the victim if a line was evicted.
    pub fn fill(&mut self, miss: Miss, fill_done: u64, dirty: bool) -> Option<Evicted> {
        let set = miss.set as usize;
        let base = set * self.assoc;
        let ways = &mut self.lines[base..base + self.assoc];
        let state = &mut self.sets[set];
        if state.epoch != self.epoch {
            ways.fill(FREE);
            *state = SetState {
                epoch: self.epoch,
                ..FRESH
            };
        }
        debug_assert!(!ways.contains(&miss.line), "stale miss: line present");
        let way = match miss.free {
            NO_WAY => state.way(self.assoc - 1),
            free => free as usize,
        };
        let bit = 1u32 << way;
        let evicted = (ways[way] != FREE).then(|| Evicted {
            addr: (ways[way] - 1) << self.line_shift,
            dirty: state.dirty & bit != 0,
        });
        debug_assert_eq!(evicted.is_some(), miss.free == NO_WAY, "stale miss");
        ways[way] = miss.line;
        state.promote(way);
        state.dirty = if dirty {
            state.dirty | bit
        } else {
            state.dirty & !bit
        };
        self.fill_done[base + way] = fill_done;
        evicted
    }

    /// Insert the line containing `addr`, with its fill completing at
    /// `fill_done`: a [`fill`](Cache::fill) if it is absent, a refresh if
    /// it is already there. Returns the victim if a line was evicted.
    pub fn insert(&mut self, addr: u64, fill_done: u64, dirty: bool) -> Option<Evicted> {
        match self.find(addr) {
            Ok((set, way, _)) => {
                let slot = self.touch(set, way, dirty);
                self.fill_done[slot] = self.fill_done[slot].min(fill_done);
                None
            }
            Err(miss) => self.fill(miss, fill_done, dirty),
        }
    }

    /// Invalidate the line containing `addr` (non-temporal store semantics).
    /// Returns the evicted line if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<Evicted> {
        let (set, way, _) = self.find(addr).ok()?;
        self.lines[set * self.assoc + way] = FREE;
        let state = &mut self.sets[set];
        let dirty = state.dirty & (1 << way) != 0;
        state.dirty &= !(1 << way);
        Some(Evicted {
            addr: addr >> self.line_shift << self.line_shift,
            dirty,
        })
    }

    /// Drop all contents (cold-cache setup for out-of-cache timings).
    /// O(1): advancing the epoch makes every set stale at once.
    pub fn flush_all(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: really clear, so no set filled 2^32 flushes ago
            // can read as current again.
            self.sets.fill(FRESH);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn resident_lines(&self) -> usize {
        let sets = self.set_mask as usize + 1;
        (0..sets)
            .filter(|&s| self.sets[s].epoch == self.epoch)
            .flat_map(|s| &self.lines[s * self.assoc..(s + 1) * self.assoc])
            .filter(|&&l| l != FREE)
            .count()
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
        assert!(!c.probe(0x1000).is_hit());
        c.insert(0x1000, 100, false);
        assert!(matches!(c.probe(0x1000), Probe::Hit { fill_done: 100 }));
        // Same line, different offset.
        assert!(matches!(c.probe(0x103f), Probe::Hit { .. }));
        // Next line misses.
        assert!(!c.probe(0x1040).is_hit());
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
        assert!(c.peek(0x0000).is_hit());
        assert!(!c.peek(0x0100).is_hit());
        assert!(c.peek(0x0200).is_hit());
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.insert(0x0000, 0, false);
        assert!(c.mark_dirty(0x0008).is_hit());
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
        assert!(!c.probe(0x0000).is_hit());
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
        assert!(!c.probe(0x0000).is_hit());
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
        assert!(!c.probe(0x0000).is_hit());
        assert!(!c.probe(0x0040).is_hit());
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
        assert!(c.peek(0x0000).is_hit() && c.peek(0x0100).is_hit());
        // Growing past the line store rebuilds it.
        c.reset(CacheCfg {
            size: 4096,
            line: 64,
            assoc: 4,
            latency: 3,
        });
        assert_eq!(c.resident_lines(), 0);
        c.insert(0x0fc0, 0, false);
        assert!(c.peek(0x0fc0).is_hit());
    }

    /// A cache used wide, re-shaped narrow and back holds exactly what it
    /// was given since the reset: nothing a set remembers from the other
    /// shape — line numbers, way hints, dirty bits — shows through.
    #[test]
    fn reshape_forgets_the_other_geometrys_sets() {
        let wide = CacheCfg {
            size: 4096,
            line: 64,
            assoc: 8,
            latency: 3,
        };
        let narrow = CacheCfg { assoc: 2, ..wide };
        let lines = || (0..4 * 4096u64).step_by(64);
        let mut c = Cache::new(wide);
        for round in 0..3 {
            // Touch every set, leaving hints on the highest ways and
            // every line dirty.
            for a in lines() {
                c.insert(a, 0, true);
                assert!(c.probe(a).is_hit());
            }
            let cfg = if round % 2 == 0 { narrow } else { wide };
            c.reset(cfg);
            assert_eq!(c.resident_lines(), 0);
            for a in lines() {
                assert!(!c.peek(a).is_hit(), "{a:#x} after reset {round}");
                assert!(!c.probe(a).is_hit(), "{a:#x} after reset {round}");
                assert!(!c.mark_dirty(a).is_hit(), "{a:#x} after reset {round}");
                assert!(c.invalidate(a).is_none(), "{a:#x} after reset {round}");
            }
            // One line per set: no victim, and only those lines hit.
            let one_per_set = cfg.sets() * 64;
            for a in (0..one_per_set).step_by(64) {
                assert_eq!(c.insert(a, 7, false), None, "{a:#x}");
            }
            for a in lines() {
                assert_eq!(c.probe(a).is_hit(), a < one_per_set, "{a:#x}");
            }
            // Filling the sets up evicts nothing either, and what a full
            // set evicts next is the clean line it was given first.
            for a in (one_per_set..cfg.assoc * one_per_set).step_by(64) {
                assert_eq!(c.insert(a, 7, false), None, "{a:#x}");
            }
            for a in (0..one_per_set).step_by(64) {
                let ev = c.insert(a + cfg.size, 7, false);
                assert_eq!(
                    ev,
                    Some(Evicted {
                        addr: a,
                        dirty: false
                    })
                );
            }
        }
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
