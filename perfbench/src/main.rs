//! The repository's benchmark: workloads on the M:N executor pool,
//! end-to-end metrics from untraced runs, and per-layer costs, counts and a
//! causal split from a separate traced run. See README.md.
//!
//! ```text
//! perfbench --workload <storm32|pingpong|uts256|storm_tcp8|uts4096> --seed N
//!           --seconds S --trace <0|1> [--out FILE]
//! perfbench compare A.jsonl B.jsonl
//! ```
//!
//! The last stdout line is the result object; the line before it is the
//! full record (fingerprint, seed, spans, every value), which `--out`
//! also appends to FILE for `compare`.

mod compare;
mod host;
mod layers;
mod workloads;

use host::{cpu_seconds, json_str, median, metric, peak_rss_mb, secs, Fingerprint, Metric, Span};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;
use workloads::{counter, obs_counters, Kind, Live, Rep, Workload};

const USAGE: &str = "usage: perfbench --workload <storm32|pingpong|uts256|storm_tcp8|uts4096> \
                     --seed N --seconds S --trace <0|1> [--out FILE]\n       \
                     perfbench compare A.jsonl B.jsonl";

/// Fewest set-ups an untraced run records; `setup_s` is their median.
const SETUPS: usize = 41;
/// Fewest timed repetitions an untraced run makes, however long they take.
const MIN_REPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// What one invocation measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    reps: usize,
    /// The metrics of the result line (end-to-end or per-layer).
    metrics: Vec<Metric>,
    spans: Vec<Span>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::run(&argv[1..]));
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let record = record_json(&args, &outcome);
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("open {path}: {e}"));
        writeln!(f, "{record}").unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    println!("{record}");
    println!("{}", result_json(&outcome));
}

/// What one phase of repetitions measured.
struct Phase {
    /// The untimed warm-up repetitions, one per runtime that is reused.
    warm: Vec<Rep>,
    /// The timed repetitions.
    reps: Vec<Rep>,
    /// Set-up seconds of every runtime the phase built.
    setups: Vec<f64>,
    /// Obs counters summed over the timed repetitions.
    obs: BTreeMap<String, u64>,
    /// `mailbox.lanes_allocated` of the runtime after a repetition, at most.
    lanes_allocated: u64,
    /// Causal split of each traced runtime (see [`causal_split`]).
    causal: Vec<[f64; 3]>,
    /// CPU seconds of the timed repetitions, set-ups excluded.
    cpu_s: f64,
    /// Peak resident set in MiB after the warm-up and `min_reps`
    /// repetitions (which cover every UTS tree).
    rss_mb: f64,
    timed: Span,
}

/// Run `w` for `seconds` (and at least `min_reps` repetitions), numbering
/// repetitions from 1. Every runtime the phase builds is one set-up
/// sample. A workload that asks for it ([`Workload::fresh_runtime`]) gets
/// a new runtime for every repetition; only the first is warmed up. The
/// others reuse a runtime, warmed up by one untimed repetition, and
/// rebuild it whenever set-ups fall behind an even spread of `setups`
/// over the timed region. So `setup_s` samples the same stretch of time
/// as the other metrics, and each set-up runs with no other runtime
/// alive.
fn phase(
    w: &Workload,
    causal: bool,
    seconds: f64,
    min_reps: usize,
    setups: usize,
    span: (&'static str, Instant),
) -> Phase {
    let fresh = w.fresh_runtime();
    let (mut live, first) = w.build(causal);
    let mut p = Phase {
        warm: vec![w.rep(&live, 0)],
        reps: Vec::new(),
        setups: vec![first],
        obs: BTreeMap::new(),
        lanes_allocated: 0,
        causal: Vec::new(),
        cpu_s: 0.0,
        rss_mb: 0.0,
        timed: Span {
            name: span.0,
            start_s: secs(span.1),
            end_s: 0.0,
        },
    };
    // The first timed repetition on the current runtime.
    let mut since = 0;
    let mut rss_mb = None;
    let t = Instant::now();
    while p.reps.len() < min_reps || secs(t) < seconds {
        let due = seconds * p.setups.len() as f64 / setups as f64;
        if fresh || (p.reps.len() >= min_reps && p.setups.len() < setups && secs(t) >= due) {
            retire(&mut p, live, causal, since);
            let (l, s) = w.build(causal);
            live = l;
            p.setups.push(s);
            since = p.reps.len();
            if !fresh {
                p.warm.push(w.rep(&live, 0));
            }
        }
        let before = obs_counters(&live.rt);
        let cpu = cpu_seconds();
        let rep = w.rep(&live, 1 + p.reps.len() as u64);
        p.cpu_s += cpu_seconds() - cpu;
        let after = obs_counters(&live.rt);
        for (name, v) in &after {
            *p.obs.entry(name.clone()).or_default() += v.saturating_sub(counter(&before, name));
        }
        p.lanes_allocated = p
            .lanes_allocated
            .max(counter(&after, obs::names::MAILBOX_LANES_ALLOCATED));
        p.reps.push(rep);
        if p.reps.len() == min_reps {
            rss_mb = Some(peak_rss_mb());
        }
    }
    p.timed.end_s = secs(span.1);
    p.rss_mb = rss_mb.expect("min_reps repetitions ran");
    retire(&mut p, live, causal, since);
    while p.setups.len() < setups {
        p.setups.push(w.build(causal).1);
    }
    p
}

/// Drop `live`, first taking the causal split of its timed repetitions
/// (those from `since` on) when the phase is traced.
fn retire(p: &mut Phase, live: Live, causal: bool, since: usize) {
    let windows: Vec<(u64, u64)> = p.reps[since..].iter().map(|r| r.window).collect();
    if causal && !windows.is_empty() {
        p.causal.push(causal_split(&live, &windows));
    }
}

/// Median over repetitions of one per-repetition value.
fn median_of(reps: &[Rep], f: fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// (attempted, failed) over repetitions.
fn tally<'a>(reps: impl Iterator<Item = &'a Rep>) -> (u64, u64) {
    reps.fold((0, 0), |(a, f), r| (a + r.ops, f + r.failed))
}

/// The end-to-end run: the inputs, then one phase of `--seconds`.
fn untraced(args: &Args) -> Outcome {
    let run = Instant::now();
    let w = Workload::new(args.kind, args.seed);
    let inputs = Span {
        name: "inputs",
        start_s: 0.0,
        end_s: secs(run),
    };
    let p = phase(&w, false, args.seconds, MIN_REPS, SETUPS, ("timed", run));
    let verify = Span {
        name: "verify",
        start_s: p.timed.end_s,
        end_s: p.timed.end_s + p.reps.iter().map(|r| r.verify_s).sum::<f64>(),
    };
    let (attempted, failed) = tally(p.warm.iter().chain(&p.reps));
    Outcome {
        attempted,
        failed,
        reps: p.reps.len(),
        metrics: vec![
            metric("setup_s", median(&p.setups), "s"),
            metric("wall_s", median_of(&p.reps, |r| r.wall_s), "s"),
            metric(
                "ops_per_sec",
                median_of(&p.reps, |r| r.ops as f64 / r.wall_s),
                "1/s",
            ),
            metric(
                "lat_p50_us",
                median_of(&p.reps, |r| r.lat_ns[0]) / 1e3,
                "us",
            ),
            metric(
                "lat_p99_us",
                median_of(&p.reps, |r| r.lat_ns[1]) / 1e3,
                "us",
            ),
            metric("cpu_s", p.cpu_s / p.reps.len() as f64, "s"),
            metric("peak_rss_mb", p.rss_mb, "MB"),
        ],
        spans: vec![inputs, p.timed, verify],
    }
}

/// Obs counters reported per repetition of the traced run's untraced
/// phase (`mailbox.lanes_allocated` as the runtime's running total).
const OBS_COUNTERS: [&str; 8] = [
    obs::names::WORKER_PARKS,
    obs::names::WORKER_ACTIVITIES,
    obs::names::FINISH_CTL_MSGS,
    obs::names::MAILBOX_RING_OVERFLOW,
    obs::names::MAILBOX_LANES_ALLOCATED,
    obs::names::COALESCE_FLUSH_THRESHOLD_MSGS,
    obs::names::COALESCE_FLUSH_THRESHOLD_BYTES,
    obs::names::COALESCE_FLUSH_EXPLICIT,
];

/// The per-layer run: every layer's isolated cost, then the workload twice
/// for a quarter of `--seconds` each (at least one repetition after the
/// warm-up) — untraced (per-layer counts, ledger) and with causal tracing
/// on (critical-path split, tracing overhead).
fn traced(args: &Args) -> Outcome {
    let run = Instant::now();
    let mut metrics = layers::measure_all();
    let layers: BTreeMap<String, f64> = metrics.iter().map(|m| (m.name.clone(), m.value)).collect();
    let layer = |name: &str| layers[name];
    let w = Workload::new(args.kind, args.seed);
    let seconds = args.seconds / 4.0;
    let a = phase(&w, false, seconds, 1, 1, ("timed", run));
    let b = phase(&w, true, seconds, 1, 1, ("traced", run));

    let reps = &a.reps;
    let n = reps.len() as f64;
    let sum = |f: fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>() as f64;
    let messages = sum(|r| r.net.messages);
    let envelopes = sum(|r| r.net.envelopes);
    let nodes = if w.kind.is_uts() { sum(|r| r.ops) } else { 0.0 };
    let count = |name: &str| a.obs.get(name).copied().unwrap_or(0) as f64;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let hits = count(obs::names::ARENA_RECYCLE_HITS);
    let misses = count(obs::names::ARENA_RECYCLE_MISSES);
    let wall_s = median_of(reps, |r| r.wall_s);

    metrics.extend([
        metric(
            "coalesce.msgs_per_envelope",
            ratio(messages, envelopes),
            "ratio",
        ),
        metric("arena.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "glb.steal_hit_ratio",
            ratio(sum(|r| r.steal_hits), sum(|r| r.steal_attempts)),
            "ratio",
        ),
        metric(
            "glb.steal_msgs_per_knode",
            ratio(sum(|r| r.net.steal_msgs), nodes / 1e3),
            "count",
        ),
    ]);
    for name in OBS_COUNTERS {
        let value = if name == obs::names::MAILBOX_LANES_ALLOCATED {
            a.lanes_allocated as f64
        } else {
            count(name) / n
        };
        metrics.push(metric(name, value, "count"));
    }
    let split = |i: usize| median(&b.causal.iter().map(|c| c[i]).collect::<Vec<_>>());
    metrics.extend([
        metric("causal.transport_ns", split(0), "ns"),
        metric("causal.queue_wait_ns", split(1), "ns"),
        metric("causal.exec_ns", split(2), "ns"),
        metric(
            "trace.overhead_frac",
            median_of(&b.reps, |r| r.wall_s) / wall_s,
            "ratio",
        ),
        metric("bench.setup_s", median(&a.setups), "s"),
        metric("bench.timed_s", a.timed.dur_s(), "s"),
        metric("bench.verify_s", reps.iter().map(|r| r.verify_s).sum(), "s"),
    ]);
    let per_rep = Ledger {
        messages: messages / n,
        envelopes: envelopes / n,
        nodes: nodes / n,
    };
    metrics.push(metric(
        "ledger.unexplained_frac",
        per_rep.unexplained(&w, &layer, wall_s),
        "ratio",
    ));
    let (attempted, failed) = tally(a.warm.iter().chain(&a.reps).chain(&b.warm).chain(&b.reps));
    metrics.push(metric(
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
    ));
    Outcome {
        attempted,
        failed,
        reps: a.reps.len() + b.reps.len(),
        metrics,
        spans: vec![a.timed, b.timed],
    }
}

/// Per-repetition counts of the untraced phase.
struct Ledger {
    messages: f64,
    envelopes: f64,
    nodes: f64,
}

impl Ledger {
    /// 1 − Σ(layer ns × count) / (wall × executor threads): the share of
    /// the pool's thread time that the isolated layer costs do not explain.
    /// Messages pay the coalescer (interpolated in 1/batch between the b1
    /// and b256 costs at the measured messages per envelope) and one
    /// activity dispatch; envelopes pay the transport (and, over TCP, the
    /// socket plus a header and spawn codec per message); UTS nodes pay
    /// the sequential traversal cost.
    fn unexplained(&self, w: &Workload, layer: &dyn Fn(&str) -> f64, wall_s: f64) -> f64 {
        let batch = (self.messages / self.envelopes.max(1.0)).clamp(1.0, 256.0);
        let (b1, b256) = (
            layer("coalesce.send_flush_ns.b1"),
            layer("coalesce.send_flush_ns.b256"),
        );
        let coalesce = b256 + (b1 - b256) * (256.0 / batch - 1.0) / 255.0;
        let transport = if w.places() > 64 {
            layer("transport.send_recv_ns.p4096")
        } else {
            layer("transport.send_recv_ns.p32")
        };
        let mut ns = self.messages * (coalesce + layer("apgas.local_async_ns"))
            + self.envelopes * transport
            + self.nodes * 1e9 / layer("uts.seq_nodes_per_sec");
        if w.kind == Kind::StormTcp8 {
            ns += self.envelopes * layer("tcp.send_recv_ns")
                + self.messages * (layer("codec.header_ns") + layer("wire.spawn_ns"));
        }
        1.0 - ns / (wall_s * 1e9 * w.threads as f64)
    }
}

/// Transport, queue-wait and execution nanoseconds along the critical
/// paths of the finishes that started inside a timed part (so the
/// workload's own finishes, not its checks), as the median over those
/// paths of each component's sum. Paths cut short by ring overwrite (a hop
/// without its send or receive stamp) are skipped.
fn causal_split(live: &Live, windows: &[(u64, u64)]) -> [f64; 3] {
    let json = live.rt.critical_path_json().unwrap_or_default();
    let v = serde_json::from_str(&json).unwrap_or(serde_json::Value::Null);
    let num = |h: &serde_json::Value, key: &str| h.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let mut parts: [Vec<f64>; 3] = Default::default();
    for root in v
        .get("roots")
        .and_then(|r| r.as_array())
        .into_iter()
        .flatten()
    {
        let Some(hops) = root.get("hops").and_then(|h| h.as_array()) else {
            continue;
        };
        let Some(first) = hops.first() else { continue };
        let start = num(first, "send_ts_ns") as u64;
        let complete = hops
            .iter()
            .all(|h| num(h, "send_ts_ns") > 0.0 && num(h, "transport_ns") > 0.0);
        if !complete || !windows.iter().any(|&(a, b)| (a..=b).contains(&start)) {
            continue;
        }
        for (part, key) in parts
            .iter_mut()
            .zip(["transport_ns", "queue_ns", "exec_ns"])
        {
            part.push(hops.iter().map(|h| num(h, key)).sum());
        }
    }
    parts.map(|p| if p.is_empty() { 0.0 } else { median(&p) })
}

fn record_json(args: &Args, o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| format!("{}: {}", json_str(&m.name), m.value))
        .collect();
    let spans: Vec<String> = o
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"start_s\": {}, \"end_s\": {}}}",
                json_str(s.name),
                s.start_s,
                s.end_s
            )
        })
        .collect();
    format!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"reps\": {}, \"attempted\": {}, \"failed\": {}, \"fingerprint\": {}, \
         \"metrics\": {{{}}}, \"spans\": [{}]}}}}",
        json_str(args.kind.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.reps,
        o.attempted,
        o.failed,
        Fingerprint::current().to_json(),
        metrics.join(", "),
        spans.join(", ")
    )
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not a finite number", m.name);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
