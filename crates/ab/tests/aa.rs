//! The A/B harness in A/A mode: this build on every side, on a small set.
//! `scripts/ab.sh` runs the same harness with another revision as the
//! base; here it must compile, agree with itself and refuse what it
//! cannot compare.

use ifko_ab::{ab, Case, Context, Run, Set, Side, Variant};

ifko_ab::side!(this, ifko_xsim, ifko_fko, ifko_blas);

fn small() -> Set {
    Set {
        contexts: vec![
            Context {
                name: "out of cache",
                in_l2: false,
                n: 301,
            },
            Context {
                name: "in L2",
                in_l2: true,
                n: 64,
            },
        ],
        variants: vec![Variant::Defaults, Variant::Unroll(1), Variant::Wnt],
        kernels: 4,
    }
}

#[test]
fn one_build_against_itself_reads_every_context() {
    let set = small();
    let (mut a, mut b, mut c) = (
        this::Side::default(),
        this::Side::default(),
        this::Side::default(),
    );
    let readings = ab(&set, 3, &mut a, &mut b, &mut c).unwrap();
    assert_eq!(readings.len(), 2);
    for r in &readings {
        assert_eq!(r.programs, 4 * 3 * 2, "{r:?}");
        assert!(r.insts > 0, "{r:?}");
        assert!(r.ratio > 0.0 && r.aa > 0.0, "{r:?}");
    }
    let table = ifko_ab::table(&readings, 3);
    assert!(
        table.contains("out of cache") && table.contains("in L2"),
        "{table}"
    );
}

/// This build, except that one program's listing or one run's counters
/// read differently.
struct Skewed {
    inner: this::Side,
    listing: bool,
}

impl Side for Skewed {
    fn compile(&mut self, set: &Set) -> Result<Vec<Case>, String> {
        let mut cases = self.inner.compile(set)?;
        if self.listing {
            if let Ok(l) = &mut cases[1].listing {
                l.push_str("nop\n");
            }
        }
        Ok(cases)
    }
    fn run(&mut self, case: usize, context: usize) -> Result<Run, String> {
        let mut run = self.inner.run(case, context)?;
        if !self.listing && case == 2 {
            run.stats[0] += 1;
        }
        Ok(run)
    }
}

#[test]
fn sides_that_differ_are_refused() {
    let set = small();
    for listing in [true, false] {
        let (mut a, mut c) = (this::Side::default(), this::Side::default());
        let mut b = Skewed {
            inner: this::Side::default(),
            listing,
        };
        let err = ab(&set, 1, &mut a, &mut b, &mut c).unwrap_err();
        let want = match listing {
            true => "different programs",
            false => "RunStats differ",
        };
        assert!(err.contains(want), "{err}");
    }
}
