//! Regenerates the paper's **Table 1**: the Level 1 BLAS summary —
//! operation loops and the FLOP counts used for MFLOPS reporting.

use ifko::flags::Command;
use ifko_blas::ops::all_ops;

fn main() {
    Command::new("table1", &[]).from_env();
    println!("Table 1. Level 1 BLAS summary");
    println!("{:<7} {:<64} {:>6}", "NAME", "Operation Summary", "FLOPs");
    for op in all_ops() {
        let flops = match op.flops(1) {
            1 => "N",
            2 => "2N",
            _ => "?",
        };
        println!("{:<7} {:<64} {:>6}", op.base_name(), op.summary(), flops);
    }
}
