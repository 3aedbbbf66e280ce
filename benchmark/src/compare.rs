//! `compare A.json B.json`: per workload and untraced metric, both
//! medians with their quartiles, the ratio B/A, and a verdict by the
//! metric's bound. A is the base.

use crate::json::{self, Value};
use crate::metrics::{self, Better};
use std::path::Path;

/// The bound secondary metrics are judged by; they gate nothing.
const SECONDARY_BOUND: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    /// The medians are within the bound, or the quartile ranges overlap:
    /// the runs cannot tell the two apart.
    Unresolved,
}

#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// B against base A. `worse` needs the median to move against the
/// metric's direction by more than `bound` of A's; either direction is
/// unresolved while the quartile ranges overlap and the medians differ
/// by less than the bound.
pub fn verdict(a: Quartiles, b: Quartiles, better: Better, bound: f64) -> Verdict {
    let change = (b.median - a.median) / a.median;
    let gain = match better {
        Better::Higher => change,
        Better::Lower => -change,
    };
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if gain < -bound {
        Verdict::Worse
    } else if (gain.abs() < bound && overlap) || gain <= 0.0 {
        Verdict::Unresolved
    } else {
        Verdict::Better
    }
}

fn load(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    // A full run holds a `workloads` array; a single-workload result is
    // one such entry on its own.
    Ok(match doc.get("workloads").and_then(Value::as_arr) {
        Some(list) => list.to_vec(),
        None => vec![doc],
    })
}

fn quartiles_of(v: &Value) -> Option<Quartiles> {
    Some(Quartiles {
        median: v.get("median")?.as_f64()?,
        q1: v.get("q1")?.as_f64()?,
        q3: v.get("q3")?.as_f64()?,
    })
}

/// Prints the comparison; `Ok(false)` when any metric is worse or any
/// deterministic count changed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8}  verdict (base A = {})",
        "workload",
        "metric",
        "A median",
        "B median",
        "B/A",
        a_path.display()
    );
    for wa in &a {
        let name = wa.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = b
            .iter()
            .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<16} missing from {}", b_path.display());
            ok = false;
            continue;
        };
        // End-to-end metrics gate; the secondary ones a workload has are
        // shown by the same rule and gate nothing.
        let gated = metrics::END_TO_END
            .iter()
            .map(|m| ("end_to_end", m.name, m.unit, m.better, m.bound, true));
        let shown = metrics::SECONDARY
            .iter()
            .map(|&(n, unit, better)| ("secondary", n, unit, better, SECONDARY_BOUND, false));
        for (group, metric, unit, better, bound, gates) in gated.chain(shown) {
            let find = |w: &Value| w.get(group)?.get(metric).and_then(quartiles_of);
            let (qa, qb) = match (find(wa), find(wb)) {
                (Some(qa), Some(qb)) => (qa, qb),
                (None, None) if !gates => continue,
                _ => {
                    println!("{name:<16} {metric:<18} missing");
                    ok = false;
                    continue;
                }
            };
            let v = verdict(qa, qb, better, bound);
            ok &= !(gates && v == Verdict::Worse);
            println!(
                "{name:<16} {metric:<18} {:>14.4} {:>14.4} {:>8.4}  {}{} (A {:.4}..{:.4}, B {:.4}..{:.4} {unit}, bound {bound})",
                qa.median,
                qb.median,
                qb.median / qa.median,
                match v {
                    Verdict::Better => "better",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                if gates { "" } else { ", not gated" },
                qa.q1,
                qa.q3,
                qb.q1,
                qb.q3,
            );
        }
        let counts = |w: &Value| w.get("counts").and_then(Value::as_obj).map(<[_]>::to_vec);
        if counts(wa) != counts(wb) {
            println!(
                "{name:<16} deterministic counts changed: {:?} -> {:?}",
                counts(wa),
                counts(wb)
            );
            ok = false;
        }
    }
    println!(
        "{}",
        if ok {
            "no metric worse, no count changed"
        } else {
            "REGRESSION"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(median: f64, q1: f64, q3: f64) -> Quartiles {
        Quartiles { median, q1, q3 }
    }

    #[test]
    fn verdict_follows_direction_bound_and_overlap() {
        let base = q(100.0, 98.0, 102.0);
        // Throughput down 15% against a 10% bound.
        assert_eq!(
            verdict(base, q(85.0, 84.0, 86.0), Better::Higher, 0.10),
            Verdict::Worse
        );
        // The same move is a gain for a latency.
        assert_eq!(
            verdict(base, q(85.0, 84.0, 86.0), Better::Lower, 0.10),
            Verdict::Better
        );
        // Inside the bound with overlapping quartiles: cannot tell.
        assert_eq!(
            verdict(base, q(103.0, 101.0, 105.0), Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // Inside the bound, ranges apart: a resolved small gain.
        assert_eq!(
            verdict(base, q(106.0, 105.0, 107.0), Better::Higher, 0.10),
            Verdict::Better
        );
        // A small loss inside the bound is never "worse".
        assert_eq!(
            verdict(base, q(95.0, 94.0, 96.0), Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // Beyond the bound even when noisy quartiles overlap.
        assert_eq!(
            verdict(base, q(120.0, 100.0, 140.0), Better::Lower, 0.10),
            Verdict::Worse
        );
    }
}
