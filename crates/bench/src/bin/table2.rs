//! Regenerates the paper's **Table 2**: platform and compiler information.
//! The original listed icc/gcc flags per machine; this reproduction lists
//! the simulated machine configurations and the model-compiler policies
//! standing in for them (see DESIGN.md's substitution table).

use ifko::flags::Command;
use ifko_xsim::machine::all_machines;

fn main() {
    Command::new("table2", &[]).from_env();
    println!("Table 2. Platform / compiler information (simulated)");
    for m in all_machines() {
        println!("\n{} @ {} MHz", m.name, m.mhz);
        println!(
            "  issue width        : {} (loop buffer {} insts, {} wide beyond)",
            m.issue_width, m.loop_buffer_insts, m.decode_width_big
        );
        println!("  OoO window         : {} cycles", m.window_cycles);
        println!(
            "  FP latencies       : add {} / mul {} / div {}",
            m.fadd_lat, m.fmul_lat, m.fdiv_lat
        );
        println!(
            "  L1                 : {} KB, {}-way, {}B lines, {} cycles",
            m.l1.size / 1024,
            m.l1.assoc,
            m.l1.line,
            m.l1.latency
        );
        println!(
            "  L2                 : {} KB, {}-way, {}B lines, {} cycles",
            m.l2.size / 1024,
            m.l2.assoc,
            m.l2.line,
            m.l2.latency
        );
        println!(
            "  memory             : {} cycles + bus {:.1} B/cycle (turnaround {})",
            m.mem_lat, m.bus.bytes_per_cycle, m.bus.turnaround
        );
        println!(
            "  NT-store penalty   : {} cycles per cached line",
            m.nt_cached_penalty
        );
        let kinds: Vec<&str> = m.prefetch_kinds.iter().map(|k| k.abbrev()).collect();
        println!("  prefetch kinds     : {}", kinds.join(", "));
        println!("  branch mispredict  : {} cycles", m.branch_misp);
    }
    println!("\nModel compilers (stand-ins for the paper's icc 8.0 / gcc 3.x):");
    println!("  gcc+ref  : scalar, unroll 4, no prefetch, no WNT");
    println!("  icc+ref  : SIMD on friendly loops, unroll 2, 2-way reduction split,");
    println!("             fixed prefetchnta at 6 lines, no WNT");
    println!("  icc+prof : icc+ref, unroll 4, plus blind WNT when the profiled");
    println!("             working set exceeds L2");
}
