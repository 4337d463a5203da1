//! Host fingerprint, process resource readings and the small statistics the
//! benchmark reports with.

use std::time::Instant;

/// What a result depends on besides the code: two result sets are only
/// comparable when their fingerprints are equal.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub executor_threads: usize,
}

impl Fingerprint {
    pub fn current() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            executor_threads: nproc(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"executor_threads\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            self.executor_threads
        )
    }

    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        Some(Fingerprint {
            nproc: v.get("nproc")?.as_u64()? as usize,
            cpu_model: v.get("cpu_model")?.as_str()?.to_string(),
            rustc: v.get("rustc")?.as_str()?.to_string(),
            executor_threads: v.get("executor_threads")?.as_u64()? as usize,
        })
    }
}

/// Cores available to this process; every in-process workload runs its
/// places on this many executor threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User + system CPU seconds consumed by the whole process so far, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Linear-interpolation quantile of `sorted` (ascending), `q` in [0, 1].
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// splitmix64: the benchmark derives every input stream from the seed
/// through this mixer.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A named value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A span the benchmark records around its own phases (set-up, timed
/// region, verification), in seconds since the run started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}
