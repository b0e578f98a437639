//! Front-side memory bus model.
//!
//! A single shared channel between the cache hierarchy and DRAM with finite
//! bandwidth (`bytes_per_cycle`). **Reads are demand-prioritized; writes are
//! buffered**: writebacks, read-for-ownership writeback halves and
//! non-temporal write-combine flushes enter a write queue that drains in bus
//! idle gaps. A read only pays for writes when the queue is over capacity
//! (it must partially drain first, plus a direction-turnaround penalty, as
//! on a real DRAM bus). This is what makes batching reads apart from writes
//! (the ATLAS "block fetch" dcopy technique, Wall, AMD tech report)
//! profitable, while keeping write-heavy streams from starving demand
//! reads.
//!
//! The *busy* predicate (`effective_free`) counts both the in-flight
//! transfer and the write backlog; it is used to drop software prefetches —
//! the paper's explanation for why bus-bound kernels (swap, axpy) gain
//! little from prefetch is that "many architectures discard prefetches when
//! they are issued while the bus is busy".

/// Configuration of the bus.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BusCfg {
    /// Sustained bandwidth in bytes per core cycle.
    pub bytes_per_cycle: f64,
    /// Extra cycles when a read forces the write queue to drain
    /// (direction turnaround).
    pub turnaround: u64,
    /// Write-queue capacity in bytes; writes beyond this stall reads.
    pub write_queue: u64,
}

/// The bus: tracks when the read channel frees and the buffered write
/// backlog.
#[derive(Clone, Debug)]
pub struct Bus {
    cfg: BusCfg,
    free_at: u64,
    /// Bytes of buffered writes not yet on the wire.
    backlog: u64,
    /// Size and duration of the transfer last read: reads come one cache
    /// line at a time, so nearly every [`cycles_for`](Bus::cycles_for)
    /// asks for this size again.
    last_read: (u64, u64),
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl Bus {
    pub fn new(cfg: BusCfg) -> Self {
        assert!(cfg.bytes_per_cycle > 0.0);
        Bus {
            cfg,
            free_at: 0,
            backlog: 0,
            last_read: (0, 1),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    pub fn cfg(&self) -> &BusCfg {
        &self.cfg
    }

    #[inline]
    fn cycles_for(&self, bytes: u64) -> u64 {
        if bytes == self.last_read.0 {
            return self.last_read.1;
        }
        transfer_cycles(bytes, self.cfg.bytes_per_cycle)
    }

    /// Let the write backlog drain through any idle gap ending at `now`.
    #[inline]
    fn drain_idle(&mut self, now: u64) {
        if now > self.free_at && self.backlog > 0 {
            let idle = now - self.free_at;
            let can_drain = (idle as f64 * self.cfg.bytes_per_cycle) as u64;
            if can_drain >= self.backlog {
                self.free_at += self.cycles_for(self.backlog);
                self.backlog = 0;
            } else {
                // The bus wrote for the whole gap and still has backlog.
                self.backlog -= can_drain;
                self.free_at = now;
            }
        }
    }

    /// Cycle at which all current commitments (in-flight transfer plus
    /// write backlog) are done — the "busy horizon" used for prefetch
    /// dropping.
    pub fn effective_free(&self, now: u64) -> u64 {
        let mut horizon = self.free_at;
        if self.backlog > 0 {
            horizon += self.cycles_for(self.backlog);
        }
        horizon.max(now)
    }

    /// Raw read-channel availability.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Is the bus occupied at `now` (including write backlog)?
    pub fn busy(&self, now: u64) -> bool {
        self.effective_free(now) > now
    }

    /// A demand (or prefetch) read of `bytes` starting no earlier than
    /// `now`. Returns `(start, done)`.
    pub fn read(&mut self, now: u64, bytes: u64) -> (u64, u64) {
        self.drain_idle(now);
        let mut start = self.free_at.max(now);
        if self.backlog > self.cfg.write_queue {
            // Over-capacity: the queue must drain down before the read.
            let excess = self.backlog - self.cfg.write_queue;
            start += self.cycles_for(excess) + self.cfg.turnaround;
            self.backlog = self.cfg.write_queue;
        }
        if bytes != self.last_read.0 {
            self.last_read = (bytes, transfer_cycles(bytes, self.cfg.bytes_per_cycle));
        }
        let done = start + self.last_read.1;
        self.free_at = done;
        self.bytes_read += bytes;
        (start, done)
    }

    /// Buffer a write of `bytes` (writeback or write-combine flush). Writes
    /// drain in idle gaps and never directly stall the requester.
    pub fn write(&mut self, now: u64, bytes: u64) {
        self.drain_idle(now);
        self.backlog += bytes;
        self.bytes_written += bytes;
    }

    /// Finish all outstanding traffic (used at Halt): returns the cycle at
    /// which the bus is fully drained.
    pub fn drain_all(&mut self, now: u64) -> u64 {
        self.drain_idle(now);
        let mut done = self.free_at.max(now);
        if self.backlog > 0 {
            done = self.free_at + self.cycles_for(self.backlog);
            self.backlog = 0;
        }
        self.free_at = done;
        done
    }

    /// Reset occupancy and statistics (new timing run).
    pub fn reset(&mut self) {
        self.free_at = 0;
        self.backlog = 0;
        self.bytes_read = 0;
        self.bytes_written = 0;
    }
}

/// `ceil(bytes / bytes_per_cycle)`, at least 1. The quotient is
/// non-negative, so truncating and stepping up when something was cut off
/// is `f64::ceil` exactly — without the libm call the baseline x86-64
/// target makes of it.
#[inline]
fn transfer_cycles(bytes: u64, bytes_per_cycle: f64) -> u64 {
    let exact = bytes as f64 / bytes_per_cycle;
    let whole = exact as u64;
    whole.saturating_add(((whole as f64) < exact) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(bpc: f64, ta: u64, wq: u64) -> Bus {
        Bus::new(BusCfg {
            bytes_per_cycle: bpc,
            turnaround: ta,
            write_queue: wq,
        })
    }

    #[test]
    fn reads_serialize() {
        let mut b = bus(2.0, 0, 256);
        let (s1, d1) = b.read(0, 64);
        assert_eq!((s1, d1), (0, 32));
        let (s2, d2) = b.read(0, 64);
        assert_eq!(s2, 32);
        assert_eq!(d2, 64);
    }

    #[test]
    fn writes_do_not_stall_reads_under_capacity() {
        let mut b = bus(2.0, 10, 256);
        b.write(0, 64);
        b.write(0, 64);
        let (s, _) = b.read(0, 64);
        assert_eq!(s, 0, "buffered writes must not delay the read");
    }

    #[test]
    fn over_capacity_writes_stall_reads_with_turnaround() {
        let mut b = bus(2.0, 10, 128);
        for _ in 0..4 {
            b.write(0, 64); // backlog 256 > 128
        }
        let (s, _) = b.read(0, 64);
        // Excess 128 bytes drain at 2 B/c = 64 cycles, plus 10 turnaround.
        assert_eq!(s, 74);
    }

    #[test]
    fn backlog_drains_in_idle_gaps() {
        let mut b = bus(2.0, 10, 128);
        for _ in 0..4 {
            b.write(0, 64);
        }
        // Long idle: backlog fully drains, read is immediate.
        let (s, _) = b.read(10_000, 64);
        assert_eq!(s, 10_000);
    }

    #[test]
    fn busy_accounts_for_backlog() {
        let mut b = bus(1.0, 0, 1024);
        assert!(!b.busy(0));
        b.write(0, 100);
        assert!(b.busy(0), "write backlog counts toward busy horizon");
        assert!(!b.busy(200));
    }

    #[test]
    fn effective_free_monotone_with_backlog() {
        let mut b = bus(2.0, 0, 1024);
        let f0 = b.effective_free(0);
        b.write(0, 256);
        assert!(b.effective_free(0) > f0);
    }

    #[test]
    fn drain_all_flushes_backlog() {
        let mut b = bus(2.0, 0, 1024);
        b.write(0, 128);
        let done = b.drain_all(0);
        assert_eq!(done, 64);
        assert!(!b.busy(done));
    }

    #[test]
    fn transfer_cycles_is_ceil_of_the_quotient() {
        for bpc in [0.5, 1.0, 1.7, 2.0, 3.2, 6.4, 64.0] {
            for bytes in (0..600).chain([4096, 1 << 20, u64::MAX]) {
                let want = ((bytes as f64 / bpc).ceil() as u64).max(1);
                assert_eq!(transfer_cycles(bytes, bpc), want, "{bytes} B at {bpc} B/c");
            }
        }
        // The remembered read size answers like the formula.
        let mut b = bus(1.7, 0, 256);
        let (_, done) = b.read(0, 64);
        assert_eq!(done, 38);
        assert_eq!(b.cycles_for(64), 38);
        assert_eq!(b.cycles_for(63), 38);
        assert_eq!(b.cycles_for(65), 39);
    }

    #[test]
    fn stats_and_reset() {
        let mut b = bus(2.0, 0, 256);
        b.read(0, 64);
        b.write(0, 32);
        assert_eq!(b.bytes_read, 64);
        assert_eq!(b.bytes_written, 32);
        b.reset();
        assert_eq!(b.bytes_read, 0);
        assert!(!b.busy(0));
    }
}
