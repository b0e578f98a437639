//! Machine configurations.
//!
//! Two configurations mirror the paper's experimental platforms (Table 2):
//! a 2.8 GHz Pentium 4E and a 1.6 GHz Opteron. Parameter values are drawn
//! from the public microarchitectural literature for those parts; they do
//! not need to be exact — what matters for reproducing the paper's *shape*
//! is the relative structure:
//!
//! * P4E: fast clock, long FP latencies, relatively slow bus per cycle
//!   (more bus-bound), a trace cache that keeps wide issue only for loop
//!   bodies that fit, high mispredict penalty, cheap non-temporal stores.
//! * Opteron: slower clock, short FP latencies, more bus headroom per
//!   cycle (so prefetch has more room to help — the paper notes iFKO does
//!   better on the Opteron for exactly this reason), conventional decode,
//!   and **expensive non-temporal stores to cache-resident lines** — the
//!   mechanism behind the paper's icc+prof pathology on swap/axpy.

use crate::bus::BusCfg;
use crate::cache::CacheCfg;
use crate::isa::PrefKind;

/// Full static description of a simulated machine.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name used in reports ("P4E", "Opteron").
    pub name: &'static str,
    /// Core frequency in MHz (used to convert cycles to MFLOPS).
    pub mhz: u64,

    // --- front end / issue ---
    /// Superscalar issue width for loop bodies resident in the loop/trace
    /// buffer.
    pub issue_width: u32,
    /// Maximum loop-body (program) size, in instructions, that sustains
    /// `issue_width`; larger bodies fall back to `decode_width_big`.
    pub loop_buffer_insts: usize,
    /// Issue width once the body exceeds the loop buffer.
    pub decode_width_big: u32,
    /// Out-of-order window depth in cycles: the front end may run at most
    /// this far ahead of the oldest incomplete result. Cache-hit latencies
    /// are hidden inside the window; DRAM misses exceed it and stall.
    pub window_cycles: u64,

    // --- execution latencies (cycles) ---
    pub int_lat: u64,
    pub fadd_lat: u64,
    pub fmul_lat: u64,
    pub fdiv_lat: u64,
    /// Register-to-register FP/vector moves, abs (bitwise ops).
    pub fmov_lat: u64,
    /// comiss/comisd to flags.
    pub fcmp_lat: u64,
    /// Horizontal reduction epilogue (shuffle+add sequence).
    pub hsum_lat: u64,
    /// Broadcast / shuffle.
    pub bcast_lat: u64,
    /// Extra cycles for unaligned vector memory access.
    pub unaligned_penalty: u64,

    // --- branches ---
    /// Mispredict penalty in cycles.
    pub branch_misp: u64,

    // --- memory hierarchy ---
    pub l1: CacheCfg,
    pub l2: CacheCfg,
    /// Extra latency (beyond bus occupancy) for a line to arrive from DRAM.
    pub mem_lat: u64,
    pub bus: BusCfg,
    /// Number of write-combining buffers for non-temporal stores.
    pub wc_buffers: usize,
    /// Penalty in cycles applied to a non-temporal store that hits a line
    /// resident in cache (the operand was read earlier — i.e. not
    /// write-only). Models the Opteron write-combining interaction the
    /// paper describes; zero on the P4E-like machine.
    pub nt_cached_penalty: u64,
    /// Prefetch instruction flavours this machine supports.
    pub prefetch_kinds: &'static [PrefKind],
    /// Whether software prefetches are dropped when the bus is busy
    /// (true on both paper machines; an ablation bench flips it).
    pub drop_prefetch_when_busy: bool,
    /// Backlog tolerance of the prefetch queue, in cycles: a prefetch is
    /// accepted if the bus frees within this window, and dropped only when
    /// the backlog is deeper (bus saturation, as on bus-bound kernels).
    pub pf_queue_slack: u64,
    /// Hardware stream prefetcher: lines fetched ahead on a detected
    /// ascending miss stream (0 disables). Modest on 2005 hardware, and it
    /// cannot cross `hw_prefetch_page` boundaries — software prefetch can,
    /// which is part of why tuned software prefetch still wins.
    pub hw_prefetch_depth: u64,
    /// Page size limiting the hardware prefetcher.
    pub hw_prefetch_page: u64,
}

impl MachineConfig {
    /// The machine model called `name` on a command line, in a wire
    /// frame or in a handshake: `p4e`, `opteron` (or `opt`), in any case.
    pub fn by_name(name: &str) -> Option<MachineConfig> {
        match name.to_ascii_lowercase().as_str() {
            "p4e" => Some(p4e()),
            "opteron" | "opt" => Some(opteron()),
            _ => None,
        }
    }

    /// Line size of the first prefetchable cache — the paper's `L` used in
    /// the search defaults (`PF dist = 2·L`, `UR = Lₑ`).
    pub fn prefetch_line(&self) -> u64 {
        self.l1.line
    }

    /// The paper's `Lₑ`: elements of `elem_bytes` per L1 line.
    pub fn line_elems(&self, elem_bytes: u64) -> u64 {
        self.l1.line / elem_bytes
    }

    /// Effective issue width for a program of `body` static instructions.
    pub fn effective_width(&self, body: usize) -> u32 {
        if body <= self.loop_buffer_insts {
            self.issue_width
        } else {
            self.decode_width_big
        }
    }
}

/// 2.8 GHz Pentium 4E (Prescott)-like configuration.
pub fn p4e() -> MachineConfig {
    MachineConfig {
        name: "P4E",
        mhz: 2800,
        issue_width: 3,
        loop_buffer_insts: 256,
        decode_width_big: 1,
        window_cycles: 42,
        int_lat: 1,
        fadd_lat: 5,
        fmul_lat: 7,
        fdiv_lat: 32,
        fmov_lat: 1,
        fcmp_lat: 3,
        hsum_lat: 6,
        bcast_lat: 2,
        unaligned_penalty: 6,
        branch_misp: 25,
        l1: CacheCfg {
            size: 16 * 1024,
            line: 64,
            assoc: 8,
            latency: 4,
        },
        l2: CacheCfg {
            size: 1024 * 1024,
            line: 64,
            assoc: 8,
            latency: 22,
        },
        mem_lat: 200,
        wc_buffers: 4,
        // 6.4 GB/s FSB at 2.8 GHz ~= 2.3 bytes per core cycle.
        bus: BusCfg {
            bytes_per_cycle: 2.3,
            turnaround: 12,
            write_queue: 256,
        },
        nt_cached_penalty: 0,
        prefetch_kinds: &[PrefKind::Nta, PrefKind::T0, PrefKind::T1, PrefKind::T2],
        drop_prefetch_when_busy: true,
        pf_queue_slack: 140,
        hw_prefetch_depth: 2,
        hw_prefetch_page: 4096,
    }
}

/// 1.6 GHz Opteron-like configuration.
pub fn opteron() -> MachineConfig {
    MachineConfig {
        name: "Opteron",
        mhz: 1600,
        issue_width: 3,
        loop_buffer_insts: 4096,
        decode_width_big: 3,
        window_cycles: 24,
        int_lat: 1,
        fadd_lat: 4,
        fmul_lat: 4,
        fdiv_lat: 20,
        fmov_lat: 1,
        fcmp_lat: 2,
        hsum_lat: 5,
        bcast_lat: 2,
        unaligned_penalty: 1,
        branch_misp: 11,
        l1: CacheCfg {
            size: 64 * 1024,
            line: 64,
            assoc: 2,
            latency: 3,
        },
        l2: CacheCfg {
            size: 1024 * 1024,
            line: 64,
            assoc: 16,
            latency: 12,
        },
        mem_lat: 110,
        wc_buffers: 4,
        // Integrated controller, DDR333 dual channel ~5.3 GB/s at 1.6 GHz
        // ~= 3.3 bytes per core cycle: slower chip, faster memory access —
        // less bus-bound, as the paper notes.
        bus: BusCfg {
            bytes_per_cycle: 3.3,
            turnaround: 6,
            write_queue: 512,
        },
        nt_cached_penalty: 220,
        prefetch_kinds: &[
            PrefKind::Nta,
            PrefKind::T0,
            PrefKind::T1,
            PrefKind::T2,
            PrefKind::W,
        ],
        drop_prefetch_when_busy: true,
        pf_queue_slack: 100,
        hw_prefetch_depth: 2,
        hw_prefetch_page: 4096,
    }
}

/// All paper machines, for sweeps.
pub fn all_machines() -> Vec<MachineConfig> {
    vec![p4e(), opteron()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_derivable() {
        let m = p4e();
        assert_eq!(m.prefetch_line(), 64);
        // L_e: 8 doubles or 16 singles per line.
        assert_eq!(m.line_elems(8), 8);
        assert_eq!(m.line_elems(4), 16);
    }

    #[test]
    fn p4e_more_bus_bound_than_opteron() {
        assert!(p4e().bus.bytes_per_cycle < opteron().bus.bytes_per_cycle);
    }

    #[test]
    fn opteron_penalizes_nt_to_cached_lines() {
        assert_eq!(p4e().nt_cached_penalty, 0);
        assert!(opteron().nt_cached_penalty > 0);
    }

    #[test]
    fn effective_width_narrows_for_big_bodies() {
        let m = p4e();
        assert_eq!(m.effective_width(100), 3);
        assert_eq!(m.effective_width(1000), 1);
        let o = opteron();
        assert_eq!(o.effective_width(1000), 3);
    }

    #[test]
    fn caches_are_well_formed() {
        for m in all_machines() {
            assert!(m.l1.sets().is_power_of_two());
            assert!(m.l2.sets().is_power_of_two());
            assert_eq!(m.l1.line, m.l2.line);
            assert!(m.prefetch_kinds.contains(&PrefKind::Nta));
        }
    }

    #[test]
    fn opteron_supports_prefetchw() {
        assert!(opteron().prefetch_kinds.contains(&PrefKind::W));
        assert!(!p4e().prefetch_kinds.contains(&PrefKind::W));
    }
}
