//! Benchmark regression gate: compare a freshly generated `BENCH_*.json`
//! against the committed baseline and fail loudly on a silent regression.
//!
//! Comparison rules, keyed by leaf name:
//!
//! - workload-shape keys (anything under a `workload`/`workloads` object,
//!   plus `quick`) must match **exactly** — otherwise the two files measured
//!   different experiments and the rest is meaningless;
//! - figure-of-merit keys (`figure_of_merit`, `nodes`) and `task_msgs`
//!   must match exactly: the traversal/update counts and the scale sweep's
//!   task messages (one spawn per place, whatever the scheduler) are
//!   deterministic, any drift is a correctness bug, not noise;
//! - `*per_sec*` throughput keys are **one-sided**: fresh must not fall
//!   more than `--rel-tol` below baseline, but may beat it by any margin
//!   (commit the faster file to ratchet the ceiling up);
//! - `*_pct` overhead keys must stay within an absolute tolerance band
//!   (`--pct-tol` percentage points, default 5.0);
//! - `*seconds*` keys get a generous **one-sided** relative band
//!   (`--rel-tol` fraction, default 0.5) — wall time on shared CI is noisy,
//!   only catastrophic slowdowns should trip the gate; a faster fresh run
//!   never fails;
//! - every baseline key must exist in the fresh file (a silently dropped
//!   metric is exactly the regression this gate exists to catch).
//!
//! `within_budget` booleans are deliberately NOT gated: they are derived
//! from `*_pct` keys that already sit under the tolerance band, and on an
//! oversubscribed CI runner the binary flag flips on scheduling noise long
//! before the band trips. A real budget blow-out shows up as an
//! out-of-band pct drift, which fails on its own.
//!
//! All other leaves (finish-control, steal and envelope counts, metric
//! values…) are run-dependent and ignored.
//!
//! Usage: `cargo run -p bench --bin bench_check -- BASELINE FRESH
//!   [--pct-tol POINTS] [--rel-tol FRACTION]`

use bench::ablation_cli::flag_value;
use serde_json::Value;

struct Tolerances {
    pct_points: f64,
    rel_fraction: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let positional: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let flagged: Vec<&str> = ["--pct-tol", "--rel-tol"]
        .iter()
        .filter_map(|f| flag_value(&args, f))
        .collect();
    let positional: Vec<&&String> = positional
        .iter()
        .filter(|p| !flagged.contains(&p.as_str()))
        .collect();
    let [baseline_path, fresh_path] = positional[..] else {
        eprintln!("usage: bench_check BASELINE FRESH [--pct-tol POINTS] [--rel-tol FRACTION]");
        std::process::exit(2);
    };
    let tol = Tolerances {
        pct_points: flag_value(&args, "--pct-tol")
            .map(|v| v.parse().expect("--pct-tol takes a number"))
            .unwrap_or(5.0),
        rel_fraction: flag_value(&args, "--rel-tol")
            .map(|v| v.parse().expect("--rel-tol takes a number"))
            .unwrap_or(0.5),
    };

    let baseline = load(baseline_path);
    let fresh = load(fresh_path);
    let mut violations = Vec::new();
    compare("", &baseline, &fresh, false, &tol, &mut violations);

    if violations.is_empty() {
        println!("bench-check OK: {fresh_path} within tolerance of {baseline_path}");
        return;
    }
    eprintln!(
        "bench-check FAILED: {} violation(s) comparing {fresh_path} against {baseline_path}",
        violations.len()
    );
    for v in &violations {
        eprintln!("  {v}");
    }
    std::process::exit(1);
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Recursively compare `fresh` against `base`, collecting violations.
/// `in_workload` marks subtrees that must match exactly.
fn compare(
    path: &str,
    base: &Value,
    fresh: &Value,
    in_workload: bool,
    tol: &Tolerances,
    out: &mut Vec<String>,
) {
    match (base, fresh) {
        (Value::Object(bm), Value::Object(fm)) => {
            for (k, bv) in bm {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match fm.get(k) {
                    None => out.push(format!("{p}: present in baseline, missing in fresh file")),
                    // The embedded critical-path report is a diagnostic
                    // payload whose shape (root count, hops per root) is
                    // schedule-dependent — presence is all that's gated.
                    Some(_) if k == "critical_paths" => {}
                    Some(fv) => {
                        let wl = in_workload || k == "workload" || k == "workloads";
                        compare(&p, bv, fv, wl, tol, out);
                    }
                }
            }
        }
        (Value::Array(ba), Value::Array(fa)) => {
            if ba.len() != fa.len() {
                out.push(format!(
                    "{path}: baseline has {} entries, fresh has {}",
                    ba.len(),
                    fa.len()
                ));
                return;
            }
            for (i, (bv, fv)) in ba.iter().zip(fa).enumerate() {
                compare(&format!("{path}[{i}]"), bv, fv, in_workload, tol, out);
            }
        }
        _ => check_leaf(path, base, fresh, in_workload, tol, out),
    }
}

fn check_leaf(
    path: &str,
    base: &Value,
    fresh: &Value,
    in_workload: bool,
    tol: &Tolerances,
    out: &mut Vec<String>,
) {
    let key = path.rsplit('.').next().unwrap_or(path);
    let key = key.split('[').next().unwrap_or(key);
    if in_workload || key == "quick" || key == "mode" || key == "kernel" || key == "benchmark" {
        if base != fresh {
            out.push(format!(
                "{path}: experiment shape differs (baseline {base:?}, fresh {fresh:?}) — \
                 regenerate the baseline or rerun with matching flags"
            ));
        }
        return;
    }
    if key == "within_budget" {
        // Informational only (see module docs): the pct key it derives from
        // is band-checked above, and the boolean flips on runner noise.
        if base.as_bool() == Some(true) && fresh.as_bool() != Some(true) {
            println!("note: {path} held in baseline but not in fresh run (pct band decides)");
        }
        return;
    }
    if key == "figure_of_merit" || key == "nodes" || key == "task_msgs" {
        if base != fresh {
            out.push(format!(
                "{path}: deterministic count changed (baseline {base:?}, fresh {fresh:?}) — \
                 it must not drift"
            ));
        }
        return;
    }
    let (Some(b), Some(f)) = (base.as_f64(), fresh.as_f64()) else {
        return; // non-numeric, non-special leaf: informational only
    };
    if key.contains("per_sec") {
        // Throughput ceilings are one-sided: the gate exists so message
        // rates can only go up. Fresh may beat the baseline by any margin
        // (commit the new file to ratchet the ceiling) but must not fall
        // more than the relative band below it.
        if f < b * (1.0 - tol.rel_fraction) {
            out.push(format!(
                "{path}: {f:.1}/s fell more than {:.0}% below baseline {b:.1}/s",
                tol.rel_fraction * 100.0
            ));
        }
    } else if key.ends_with("_pct") || key.contains("pct") {
        if (f - b).abs() > tol.pct_points {
            out.push(format!(
                "{path}: {f:.4} is more than {} points from baseline {b:.4}",
                tol.pct_points
            ));
        }
    } else if key.contains("seconds") {
        // One-sided like the throughput keys: only slowdowns are
        // regressions — a fresh run beating the baseline is the ratchet
        // working, not a violation.
        let band = tol.rel_fraction * b.abs().max(1e-9);
        if f - b > band {
            out.push(format!(
                "{path}: {f:.6}s more than {:.0}% over baseline {b:.6}s",
                tol.rel_fraction * 100.0
            ));
        }
    }
}
