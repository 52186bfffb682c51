//! `compare A B`: two result sets, metric by metric and workload by
//! workload, with the decision rule of a claimed gain: B counts as better
//! only when it wins at least nine pairs in ten and the medians differ by
//! more than A's own quartile spread; it counts as worse when its median
//! is worse than A's by more than the metric's bound; and when the spread
//! of either side is wider than the bound the result is "unresolved",
//! unless every run of one side beats every run of the other.

use crate::metrics::{Def, Spec};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// `(workload, metric)` → values in file order.
type Set = BTreeMap<(String, String), Vec<f64>>;

/// Reads a result set: one JSON object per line, as `run --record`
/// appends them (`{"workload", "seed", "trace", "result"}`).
pub fn load(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = rec["workload"].as_str().ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = rec["result"]["metrics"]
            .as_object()
            .ok_or(format!("line {}: no result.metrics", i + 1))?;
        for (name, m) in metrics {
            let v = m["value"].as_f64().ok_or(format!("line {}: {name} has no value", i + 1))?;
            set.entry((workload.to_string(), name.clone())).or_default().push(v);
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
    /// Per-layer metrics have no bound.
    Unbounded,
}

/// Side-by-side summary of one metric.
pub struct Row {
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Share of pairs (i-th run of A against i-th of B) that B won.
    pub won: f64,
    pub verdict: Verdict,
}

fn summary(v: &[f64]) -> (f64, f64, f64) {
    let m = median(v).unwrap_or(f64::NAN);
    let (q1, q3) = quartiles(v).unwrap_or((m, m));
    (q1, m, q3)
}

pub fn row(def: &Def, a: &[f64], b: &[f64]) -> Row {
    let better = |x: f64, y: f64| if def.higher { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let won = (0..pairs).filter(|&i| better(b[i], a[i])).count() as f64 / pairs.max(1) as f64;
    let (sa, sb) = (summary(a), summary(b));
    let verdict = match def.bound {
        None => Verdict::Unbounded,
        Some(bound) => {
            let spread = ((sa.2 - sa.0) / sa.1.abs()).max((sb.2 - sb.0) / sb.1.abs());
            let worse_by = if def.higher { (sa.1 - sb.1) / sa.1 } else { (sb.1 - sa.1) / sa.1 };
            let all = |f: &dyn Fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| f(y, x)));
            if spread > bound {
                if all(&better) {
                    Verdict::Better
                } else if all(&|y, x| better(x, y)) {
                    Verdict::Worse
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by > bound {
                Verdict::Worse
            } else if won >= 0.9 && better(sb.1, sa.1) && (sb.1 - sa.1).abs() > sa.2 - sa.0 {
                Verdict::Better
            } else {
                Verdict::WithinBound
            }
        }
    };
    Row { a: sa, b: sb, won, verdict }
}

/// The comparison as text, end-to-end metrics first.
pub fn report(spec: &Spec, a: &Set, b: &Set) -> String {
    let mut out = String::new();
    let mut workloads: Vec<&String> = a.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    for w in workloads {
        out.push_str(&format!("== {w}\n"));
        out.push_str(&format!(
            "{:<32} {:>34} {:>34} {:>6}  {}\n",
            "metric", "A median [q1, q3]", "B median [q1, q3]", "B won", "verdict"
        ));
        for def in spec.end_to_end.iter().chain(&spec.per_layer) {
            let key = (w.clone(), def.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else { continue };
            // a layer this workload does not reach
            if va.iter().chain(vb).all(|&v| v == 0.0) {
                continue;
            }
            let r = row(def, va, vb);
            let fmt = |s: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", s.1, s.0, s.2);
            out.push_str(&format!(
                "{:<32} {:>34} {:>34} {:>5.0}%  {:?}\n",
                format!("{} ({})", def.name, def.unit),
                fmt(r.a),
                fmt(r.b),
                100.0 * r.won,
                r.verdict
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(bound: f64) -> Def {
        Def { name: "t".into(), unit: "us".into(), higher: false, bound: Some(bound) }
    }

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let same: Vec<f64> = a.iter().map(|x| x + 0.001).collect();
        assert_eq!(row(&def(0.1), &a, &same).verdict, Verdict::WithinBound);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.5).collect();
        assert_eq!(row(&def(0.1), &a, &slower).verdict, Verdict::Worse);
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(row(&def(0.1), &a, &faster).verdict, Verdict::Better);
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(row(&def(0.1), &a, &noisy).verdict, Verdict::Unresolved);
    }
}
