//! `perfbench compare A B`: the median of every metric per workload in two
//! files of records written with `--out`, refusing when the records come
//! from hosts with different fingerprints.

use crate::host::{median, Fingerprint};
use std::collections::BTreeMap;

/// (workload, trace) → metric → values.
type Values = BTreeMap<(String, u64), BTreeMap<String, Vec<f64>>>;

fn load(path: &str, prints: &mut Vec<(String, Fingerprint)>) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out = Values::new();
    for line in text.lines().filter(|l| l.starts_with("{\"perfbench\"")) {
        let v = serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))?;
        let r = v
            .get("perfbench")
            .ok_or(format!("{path}: record without body"))?;
        let fp = r
            .get("fingerprint")
            .and_then(Fingerprint::from_json)
            .ok_or(format!("{path}: record without a fingerprint"))?;
        prints.push((path.to_string(), fp));
        let workload = r.get("workload").and_then(|w| w.as_str()).unwrap_or("?");
        let trace = r.get("trace").and_then(|t| t.as_u64()).unwrap_or(0);
        let metrics = r
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or(format!("{path}: record without metrics"))?;
        let slot = out.entry((workload.to_string(), trace)).or_default();
        for (name, value) in metrics {
            if let Some(x) = value.as_f64() {
                slot.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// Exit code: 0 compared, 2 bad input, 3 fingerprints differ.
pub fn run(paths: &[String]) -> i32 {
    let [a, b] = paths else {
        eprintln!("usage: perfbench compare A.jsonl B.jsonl");
        return 2;
    };
    let mut prints = Vec::new();
    let (va, vb) = match (load(a, &mut prints), load(b, &mut prints)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if let Some((path, fp)) = prints.iter().find(|(_, fp)| *fp != prints[0].1) {
        eprintln!(
            "refusing to compare: {path} has host fingerprint {} but {} has {}",
            fp.to_json(),
            prints[0].0,
            prints[0].1.to_json()
        );
        return 3;
    }
    println!(
        "{:<12} {:>5} {:<40} {:>16} {:>16} {:>8}",
        "workload", "trace", "metric", "median A", "median B", "B/A"
    );
    for ((workload, trace), metrics) in &va {
        let Some(other) = vb.get(&(workload.clone(), *trace)) else {
            continue;
        };
        for (name, xs) in metrics {
            let Some(ys) = other.get(name) else { continue };
            let (x, y) = (median(xs), median(ys));
            let ratio = if x != 0.0 { y / x } else { f64::NAN };
            println!("{workload:<12} {trace:>5} {name:<40} {x:>16.6} {y:>16.6} {ratio:>8.3}");
        }
    }
    0
}
