//! Prints the paper's **Figure 6**: the HIL implementations of the `dot`
//! and `amax` loops (sanity listing — these are the exact sources the
//! other experiments compile).

use ifko::flags::Command;
use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::BlasOp;
use ifko_xsim::isa::Prec;

fn main() {
    Command::new("figure6", &[]).from_env();
    println!("Figure 6(a). dot loop (HIL)\n");
    println!("{}", hil_source(BlasOp::Dot, Prec::D));
    println!("Figure 6(b). amax loop (HIL)\n");
    println!("{}", hil_source(BlasOp::Iamax, Prec::D));
}
