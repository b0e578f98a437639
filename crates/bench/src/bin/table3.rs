//! Regenerates the paper's **Table 3**: the transformation parameters the
//! empirical search selects, per platform and context — `SV:WNT`,
//! per-array prefetch instruction and distance, `UR:AE`.

use ifko_bench::{table3, Experiment};

fn main() {
    print!("{}", table3(Experiment::new("table3")));
}
