//! `perfbench compare A.jsonl B.jsonl`: one row per workload and metric,
//! labelled better, same, worse or unresolved.
//!
//! Each file holds the run records `--json` appends, one per run. A is the
//! parent, B the change; runs pair up in file order, so record them
//! alternating (A, B, A, B, …). The rules are the benchmark's own:
//!
//! * **unresolved** — an end-to-end metric whose run-to-run spread (the
//!   quartile distance as a share of the median, on either side) exceeds
//!   its `BENCHMARK.json` bound, unless every B run beats every A run;
//! * **worse** — B's median is worse than A's by more than the bound;
//! * **better** — at least ten pairs, B wins at least nine in ten of them
//!   (ties count for neither), and the medians differ by more than A's
//!   quartile distance;
//! * **same** — otherwise.
//!
//! Per-layer metrics have no bound: they read better or worse only by the
//! pair rule, and same otherwise.

use crate::metrics::definition;
use crate::stats::{median, quartiles, relative_spread};
use serde_json::Value;
use std::collections::BTreeMap;

/// Looks `key` up in a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// `(workload, metric)` → values in run order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec: Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = match field(&rec, "workload") {
            Some(Value::Str(w)) => w.clone(),
            _ => return Err(format!("{path}:{}: no workload", n + 1)),
        };
        let metrics = field(&rec, "metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}:{}: no metrics", n + 1))?;
        for (name, v) in metrics {
            if let Some(x) = number(v) {
                runs.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(runs)
}

/// The `bound` of every end-to-end metric in `BENCHMARK.json`.
fn read_bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = field(&doc, "end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    let mut bounds = BTreeMap::new();
    for m in list {
        if let (Some(Value::Str(name)), Some(bound)) =
            (field(m, "name"), field(m, "bound").and_then(number))
        {
            bounds.insert(name.clone(), bound);
        }
    }
    Ok(bounds)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs needed before a gain may be claimed, and the share it must win.
const MIN_PAIRS: usize = 10;
const WIN_SHARE: f64 = 0.9;

/// Applies the rules in the module docs to parent runs `a` and change runs
/// `b` of one metric.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: Option<f64>) -> Verdict {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let (ma, mb) = (median(a), median(b));
    let pairs = a.len().min(b.len());
    let wins = |x: &[f64], y: &[f64]| {
        x.iter()
            .zip(y)
            .filter(|(p, q)| sign * (**q - **p) > 0.0)
            .count()
    };
    let (b_wins, a_wins) = (wins(a, b), wins(b, a));
    let (q1, _, q3) = quartiles(a);
    let beyond_spread = (mb - ma).abs() > q3 - q1;
    let claims =
        |w: usize| pairs >= MIN_PAIRS && w as f64 >= WIN_SHARE * pairs as f64 && beyond_spread;
    let Some(bound) = bound else {
        return if claims(b_wins) {
            Verdict::Better
        } else if claims(a_wins) {
            Verdict::Worse
        } else {
            Verdict::Same
        };
    };
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        sign * (ma - mb) / ma.abs()
    };
    if relative_spread(a).max(relative_spread(b)) > bound {
        let lo = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let b_all_better = if higher_is_better {
            lo(b) > hi(a)
        } else {
            hi(b) < lo(a)
        };
        return if b_all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if claims(b_wins) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints the comparison table; returns whether any row reads worse.
pub fn run(a_path: &str, b_path: &str, bench_path: &str) -> Result<bool, String> {
    let (a, b, bounds) = (
        read_runs(a_path)?,
        read_runs(b_path)?,
        read_bounds(bench_path)?,
    );
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>8} {:>6} {:>5}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread", "bound", "pairs"
    );
    let mut any_worse = false;
    for ((workload, name), av) in &a {
        let (Some(bv), Some(def)) = (b.get(&(workload.clone(), name.clone())), definition(name))
        else {
            continue;
        };
        let bound = bounds.get(name).copied();
        let v = verdict(av, bv, def.higher_is_better, bound);
        any_worse |= v == Verdict::Worse;
        let (ma, mb) = (median(av), median(bv));
        let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
        println!(
            "{:<14} {:<28} {:>14.6} {:>14.6} {:>7.1}% {:>7.1}% {:>6} {:>5}  {}",
            workload,
            name,
            ma,
            mb,
            100.0 * change,
            100.0 * relative_spread(av).max(relative_spread(bv)),
            bound.map_or("-".to_owned(), |x| format!("{:.0}%", 100.0 * x)),
            av.len().min(bv.len()),
            v.label()
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bounds_spread_and_pairs() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        // Lower is better; 20% slower with a 10% bound.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slow, false, Some(0.1)), Verdict::Worse);
        // 5% faster in every pair: a gain.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict(&a, &fast, false, Some(0.1)), Verdict::Better);
        // Same gain on only five pairs cannot be claimed.
        assert_eq!(
            verdict(&a[..5], &fast[..5], false, Some(0.1)),
            Verdict::Same
        );
        // A spread wider than the bound leaves the metric unresolved…
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(
            verdict(&noisy, &noisy, false, Some(0.1)),
            Verdict::Unresolved
        );
        // …unless every change run beats every parent run.
        let far: Vec<f64> = vec![10.0; 10];
        assert_eq!(verdict(&noisy, &far, false, Some(0.1)), Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&a, &slow, true, Some(0.1)), Verdict::Better);
        // No bound: the pair rule decides both ways.
        assert_eq!(verdict(&a, &slow, false, None), Verdict::Worse);
        assert_eq!(verdict(&a, &a, false, None), Verdict::Same);
    }
}
