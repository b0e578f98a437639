//! Execution statistics returned by a simulated run.

/// Counters collected during one program execution. `cycles` is the
/// simulated wall time (including draining outstanding bus traffic at
/// halt); everything else is diagnostic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total simulated core cycles.
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub insts: u64,
    /// Data loads executed (scalar, vector, integer, and memory operands).
    pub loads: u64,
    /// Data stores executed (normal + non-temporal).
    pub stores: u64,
    /// L1 data cache hits / misses.
    pub l1_hits: u64,
    pub l1_misses: u64,
    /// L2 hits / misses (probed only on L1 miss).
    pub l2_hits: u64,
    pub l2_misses: u64,
    /// Bytes moved over the memory bus.
    pub bus_read_bytes: u64,
    pub bus_write_bytes: u64,
    /// Software prefetches: accepted, dropped because the bus was busy, and
    /// useless (line already resident in the target level).
    pub prefetch_issued: u64,
    pub prefetch_dropped: u64,
    pub prefetch_useless: u64,
    /// Lines fetched by the hardware stream prefetcher.
    pub hw_prefetches: u64,
    /// Non-temporal stores executed and write-combine buffer flushes.
    pub nt_stores: u64,
    pub wc_flushes: u64,
    /// Conditional branches executed / mispredicted.
    pub branches: u64,
    pub mispredicts: u64,
}

/// Accessor for one named `RunStats` counter (see [`RunStats::FIELDS`]).
pub type FieldGet = fn(&RunStats) -> u64;
/// Setter for one named `RunStats` counter (see [`RunStats::FIELDS`]).
pub type FieldSet = fn(&mut RunStats, u64);

impl RunStats {
    /// The single source of truth for counter names: every serializer
    /// (trace records) and parser (report/explain) iterates this table,
    /// so a counter added to the struct but not listed here fails the
    /// `field_table_covers_every_counter` test instead of silently
    /// drifting between writer and reader. Order matches the struct
    /// (and therefore the on-disk trace field order).
    pub const FIELDS: &'static [(&'static str, FieldGet, FieldSet)] = &[
        ("cycles", |s| s.cycles, |s, v| s.cycles = v),
        ("insts", |s| s.insts, |s, v| s.insts = v),
        ("loads", |s| s.loads, |s, v| s.loads = v),
        ("stores", |s| s.stores, |s, v| s.stores = v),
        ("l1_hits", |s| s.l1_hits, |s, v| s.l1_hits = v),
        ("l1_misses", |s| s.l1_misses, |s, v| s.l1_misses = v),
        ("l2_hits", |s| s.l2_hits, |s, v| s.l2_hits = v),
        ("l2_misses", |s| s.l2_misses, |s, v| s.l2_misses = v),
        (
            "bus_read_bytes",
            |s| s.bus_read_bytes,
            |s, v| s.bus_read_bytes = v,
        ),
        (
            "bus_write_bytes",
            |s| s.bus_write_bytes,
            |s, v| s.bus_write_bytes = v,
        ),
        (
            "prefetch_issued",
            |s| s.prefetch_issued,
            |s, v| s.prefetch_issued = v,
        ),
        (
            "prefetch_dropped",
            |s| s.prefetch_dropped,
            |s, v| s.prefetch_dropped = v,
        ),
        (
            "prefetch_useless",
            |s| s.prefetch_useless,
            |s, v| s.prefetch_useless = v,
        ),
        (
            "hw_prefetches",
            |s| s.hw_prefetches,
            |s, v| s.hw_prefetches = v,
        ),
        ("nt_stores", |s| s.nt_stores, |s, v| s.nt_stores = v),
        ("wc_flushes", |s| s.wc_flushes, |s, v| s.wc_flushes = v),
        ("branches", |s| s.branches, |s, v| s.branches = v),
        ("mispredicts", |s| s.mispredicts, |s, v| s.mispredicts = v),
    ];

    /// Look up a counter value by its `FIELDS` name.
    pub fn field(&self, name: &str) -> Option<u64> {
        Self::FIELDS
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, get, _)| get(self))
    }

    /// MFLOPS given a FLOP count and a core frequency in MHz:
    /// `flops / (cycles / mhz)` — the paper's Figure 5 metric.
    pub fn mflops(&self, flops: u64, mhz: u64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        flops as f64 * mhz as f64 / self.cycles as f64
    }

    /// Cycles per element for an N-element kernel (diagnostic).
    pub fn cycles_per_elem(&self, n: u64) -> f64 {
        self.cycles as f64 / n.max(1) as f64
    }

    /// L1 miss ratio over all cache-probing accesses.
    pub fn l1_miss_ratio(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_misses as f64 / total as f64
        }
    }

    /// L2 miss ratio over L2 probes (which happen only on L1 miss).
    pub fn l2_miss_ratio(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_misses as f64 / total as f64
        }
    }

    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Total bytes moved over the memory bus (reads + writes).
    pub fn bus_bytes(&self) -> u64 {
        self.bus_read_bytes + self.bus_write_bytes
    }

    /// Bus traffic per retired instruction, in bytes.
    pub fn bus_bytes_per_inst(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.bus_bytes() as f64 / self.insts as f64
        }
    }

    /// Fraction of issued software prefetches that did useful work
    /// (neither dropped on a busy bus nor targeting a resident line).
    pub fn prefetch_efficacy(&self) -> f64 {
        if self.prefetch_issued == 0 {
            0.0
        } else {
            let useful = self
                .prefetch_issued
                .saturating_sub(self.prefetch_dropped)
                .saturating_sub(self.prefetch_useless);
            useful as f64 / self.prefetch_issued as f64
        }
    }

    /// Conditional-branch misprediction ratio.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// A stable, named vector of size-normalized rates derived from one
/// candidate's counters: the winner's feature vector that `ifko explain`
/// prints (DESIGN.md, "Observability architecture"). Rates rather than
/// raw counts so vectors from different problem sizes and machines stay
/// comparable, and a fixed `NAMES` order so persisted vectors never
/// reshuffle between versions.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureVector {
    pub values: Vec<f64>,
}

impl FeatureVector {
    /// Feature names, index-aligned with `values`. Append-only: new
    /// features go at the end so old persisted vectors stay readable.
    pub const NAMES: &'static [&'static str] = &[
        "cycles_per_elem",
        "ipc",
        "loads_per_elem",
        "stores_per_elem",
        "l1_miss_ratio",
        "l2_miss_ratio",
        "bus_bytes_per_elem",
        "bus_bytes_per_inst",
        "prefetch_efficacy",
        "hw_prefetches_per_elem",
        "nt_store_fraction",
        "mispredict_ratio",
    ];

    /// Derive the feature vector from raw counters for an N-element run.
    pub fn from_stats(s: &RunStats, n: u64) -> Self {
        let per_elem = |v: u64| v as f64 / n.max(1) as f64;
        let nt_frac = if s.stores == 0 {
            0.0
        } else {
            s.nt_stores as f64 / s.stores as f64
        };
        FeatureVector {
            values: vec![
                s.cycles_per_elem(n),
                s.ipc(),
                per_elem(s.loads),
                per_elem(s.stores),
                s.l1_miss_ratio(),
                s.l2_miss_ratio(),
                per_elem(s.bus_bytes()),
                s.bus_bytes_per_inst(),
                s.prefetch_efficacy(),
                per_elem(s.hw_prefetches),
                nt_frac,
                s.mispredict_ratio(),
            ],
        }
    }

    /// Deterministic JSON object `{name: value, ...}` with fixed
    /// 6-decimal formatting (stable across platforms).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in Self::NAMES.iter().zip(&self.values).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v:.6}"));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mflops_formula() {
        let s = RunStats {
            cycles: 2800,
            ..Default::default()
        };
        // 2800 cycles at 2800 MHz = 1 microsecond; 1000 flops in 1us = 1000 MFLOPS.
        assert!((s.mflops(1000, 2800) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn mflops_zero_cycles_is_zero() {
        assert_eq!(RunStats::default().mflops(100, 1000), 0.0);
    }

    #[test]
    fn miss_ratio() {
        let s = RunStats {
            l1_hits: 75,
            l1_misses: 25,
            ..Default::default()
        };
        assert!((s.l1_miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(RunStats::default().l1_miss_ratio(), 0.0);
    }

    #[test]
    fn derived_rates() {
        let s = RunStats {
            cycles: 1000,
            insts: 2500,
            l2_hits: 30,
            l2_misses: 10,
            bus_read_bytes: 4000,
            bus_write_bytes: 1000,
            prefetch_issued: 100,
            prefetch_dropped: 15,
            prefetch_useless: 5,
            branches: 200,
            mispredicts: 8,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.l2_miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(s.bus_bytes(), 5000);
        assert!((s.bus_bytes_per_inst() - 2.0).abs() < 1e-12);
        assert!((s.prefetch_efficacy() - 0.80).abs() < 1e-12);
        assert!((s.mispredict_ratio() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn derived_rates_guard_division_by_zero() {
        let z = RunStats::default();
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.l2_miss_ratio(), 0.0);
        assert_eq!(z.bus_bytes_per_inst(), 0.0);
        assert_eq!(z.prefetch_efficacy(), 0.0);
        assert_eq!(z.mispredict_ratio(), 0.0);
    }

    /// A counter added to the struct but not to `FIELDS` (or vice versa)
    /// must fail here: the derived Debug output enumerates the real
    /// struct fields, so the two name sets must match exactly.
    #[test]
    fn field_table_covers_every_counter() {
        let dbg = format!("{:?}", RunStats::default());
        let inner = dbg
            .trim_start_matches("RunStats {")
            .trim_end_matches('}')
            .trim();
        let struct_fields: Vec<&str> = inner
            .split(", ")
            .map(|kv| kv.split(':').next().unwrap().trim())
            .collect();
        let table_fields: Vec<&str> = RunStats::FIELDS.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(struct_fields, table_fields);
    }

    #[test]
    fn field_getters_and_setters_agree() {
        let mut s = RunStats::default();
        for (i, (_, _, set)) in RunStats::FIELDS.iter().enumerate() {
            set(&mut s, (i as u64 + 1) * 11);
        }
        for (i, (name, get, _)) in RunStats::FIELDS.iter().enumerate() {
            assert_eq!(get(&s), (i as u64 + 1) * 11, "field {name}");
            assert_eq!(s.field(name), Some((i as u64 + 1) * 11));
        }
        assert_eq!(s.field("no_such_counter"), None);
    }

    #[test]
    fn feature_vector_is_stable_and_named() {
        let s = RunStats {
            cycles: 4096,
            insts: 8192,
            loads: 2048,
            stores: 1024,
            l1_hits: 900,
            l1_misses: 100,
            l2_hits: 75,
            l2_misses: 25,
            bus_read_bytes: 8192,
            bus_write_bytes: 0,
            prefetch_issued: 64,
            prefetch_dropped: 16,
            prefetch_useless: 0,
            hw_prefetches: 32,
            nt_stores: 512,
            branches: 1024,
            mispredicts: 2,
            ..Default::default()
        };
        let f = FeatureVector::from_stats(&s, 1024);
        assert_eq!(f.values.len(), FeatureVector::NAMES.len());
        let get = |name: &str| {
            let i = FeatureVector::NAMES.iter().position(|n| *n == name);
            f.values[i.unwrap()]
        };
        assert!((get("cycles_per_elem") - 4.0).abs() < 1e-12);
        assert!((get("ipc") - 2.0).abs() < 1e-12);
        assert!((get("bus_bytes_per_elem") - 8.0).abs() < 1e-12);
        assert!((get("prefetch_efficacy") - 0.75).abs() < 1e-12);
        assert!((get("nt_store_fraction") - 0.5).abs() < 1e-12);
        // JSON is deterministic and lists every feature by name.
        let j = f.to_json();
        for name in FeatureVector::NAMES {
            assert!(j.contains(&format!("\"{name}\":")), "missing {name}");
        }
        assert_eq!(j, f.to_json());
    }
}
