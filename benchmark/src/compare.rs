//! `compare A.json[,A2.json..] B.json[,B2.json..]`: one row per
//! (workload, end-to-end metric) between two sides of result files
//! written by `run`, judged against the bounds in `spec`.

use crate::spec::{EndToEnd, END_TO_END, WORKLOADS};
use crate::util::quantile;
use ifko::report::{parse_json, Json};

struct Side {
    files: Vec<Json>,
}

impl Side {
    fn load(list: &str) -> Result<Side, String> {
        let files = list
            .split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                parse_json(text.trim()).ok_or_else(|| format!("{path}: not a result file"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Side { files })
    }

    /// One value per file.
    fn values(&self, workload: &str, get: impl Fn(&Json) -> Option<f64>) -> Vec<f64> {
        let of = |f: &Json| {
            f.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(&get)
        };
        self.files.iter().filter_map(of).collect()
    }

    fn metric(&self, workload: &str, name: &str) -> Vec<f64> {
        self.values(workload, |w| w.get("end_to_end")?.get(name)?.as_f64())
    }

    fn failed_share(&self, workload: &str) -> Vec<f64> {
        self.values(workload, |w| {
            Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
        })
    }
}

/// Median and quartiles of one side's values.
struct Summary {
    q1: f64,
    med: f64,
    q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        Summary {
            q1: quantile(values, 0.25),
            med: quantile(values, 0.5),
            q3: quantile(values, 0.75),
        }
    }
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.med.abs().max(f64::MIN_POSITIVE)
    }
}

/// `worse` when B's median is worse than A's by more than the bound;
/// `unresolved` when it is not but either side's quartile spread is wider
/// than the bound (unless every run of B reads better than every run of
/// A); otherwise `ok`.
fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (&'static str, f64) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let lower = metric.better == "lower";
    let change = (sb.med - sa.med) / sa.med.abs().max(f64::MIN_POSITIVE);
    let worse_by = if lower { change } else { -change };
    let fold = |xs: &[f64], f: fn(f64, f64) -> f64, init: f64| xs.iter().copied().fold(init, f);
    let all_better = if lower {
        fold(b, f64::max, f64::NEG_INFINITY) < fold(a, f64::min, f64::INFINITY)
    } else {
        fold(b, f64::min, f64::INFINITY) > fold(a, f64::max, f64::NEG_INFINITY)
    };
    let word = if worse_by > metric.bound {
        "worse"
    } else if sa.spread().max(sb.spread()) > metric.bound && !all_better {
        "unresolved"
    } else {
        "ok"
    };
    (word, worse_by)
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: compare A.json[,A2.json..] B.json[,B2.json..]".to_string());
    };
    let (a, b) = (Side::load(a)?, Side::load(b)?);
    println!(
        "{:<13} {:<23} {:>6} {:>6}  {:>36}  {:>36}  {:>8}  verdict",
        "workload",
        "metric",
        "better",
        "bound",
        "A q1 / median / q3",
        "B q1 / median / q3",
        "worse by"
    );
    let mut bad = Vec::new();
    for w in WORKLOADS {
        for metric in END_TO_END {
            let (va, vb) = (a.metric(w.name, metric.name), b.metric(w.name, metric.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} {}: missing on one side", w.name, metric.name));
            }
            let (word, worse_by) = verdict(metric, &va, &vb);
            let show = |v: &[f64]| {
                let s = Summary::of(v);
                format!("{:.5} / {:.5} / {:.5}", s.q1, s.med, s.q3)
            };
            println!(
                "{:<13} {:<23} {:>6} {:>5.1}%  {:>36}  {:>36}  {:>+7.2}%  {word}",
                w.name,
                metric.name,
                metric.better,
                metric.bound * 100.0,
                show(&va),
                show(&vb),
                worse_by * 100.0
            );
            if word == "worse" {
                bad.push(format!(
                    "{} {} worse by {:.2}%",
                    w.name,
                    metric.name,
                    worse_by * 100.0
                ));
            }
        }
        let (fa, fb) = (a.failed_share(w.name), b.failed_share(w.name));
        if fa.is_empty() || fb.is_empty() {
            return Err(format!("{}: failed/attempted missing on one side", w.name));
        }
        let (fa, fb) = (Summary::of(&fa).med, Summary::of(&fb).med);
        println!(
            "{:<13} {:<23} {:>6} {:>6}  {fa:>36.6}  {fb:>36.6}",
            w.name, "failed_share", "lower", "0"
        );
        if fb > fa {
            bad.push(format!("{} failed_share rose from {fa} to {fb}", w.name));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}
