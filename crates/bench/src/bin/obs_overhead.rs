//! Observability-overhead ablation: UTS under the lifeline GLB with the
//! `obs` layer fully off (`Config::obs_disable`, the pre-observability
//! baseline), with metrics only (the default), and with event tracing on —
//! verifying that the tracing-off configurations cost ≤ 1% wall time.
//!
//! Full (non-`--quick`) runs add a second, at-scale stage: the same three
//! modes at 1,024 places multiplexed over a small executor pool
//! (`Config::executor_threads`), so the overhead budget is ratcheted where
//! the paper's scaling story lives, not just at laptop place counts. The
//! at-scale rows land in an `"at_scale"` section of the JSON, which
//! `bench_check` gates with the same `*_pct` tolerance band.
//!
//! Writes `BENCH_obs_overhead.json` (including the metric values of the
//! metrics-mode run) and the chrome-trace JSON of the best traced run,
//! loadable in `about:tracing` / Perfetto.
//!
//! Usage: `cargo run --release -p bench --bin obs_overhead [--quick]
//!   [--places N] [--depth D] [--reps R] [--trace-capacity N]
//!   [--out PATH] [--trace-out PATH]`

use apgas::{Config, Runtime};
use bench::ablation_cli::AblationCli;
use kernels::util::timed;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No observability state at all — the baseline.
    Off,
    /// Metrics registry on, tracer off (the default runtime configuration).
    Metrics,
    /// Metrics and event tracing both on.
    Trace,
}

const MODES: [Mode; 3] = [Mode::Off, Mode::Metrics, Mode::Trace];

/// The at-scale stage: 1,024 lightweight places multiplexed over a small
/// executor pool. The depth is trimmed — the point is the per-event
/// overhead ratio at scale, not absolute wall time. The rep count is not:
/// on a 2-vCPU VM, once UTS hashes with SHA-NI, one 1,024-place traversal
/// varies by ±25 % run to run, and min-of-4 left the overhead percentages
/// spread wider than `bench_check`'s 10-point band; min-of-24 keeps them
/// inside it.
const AT_SCALE_PLACES: usize = 1024;
const AT_SCALE_THREADS: usize = 2;
const AT_SCALE_DEPTH: u32 = 10;
const AT_SCALE_REPS: usize = 24;

/// Shape of one measured stage (place count, multiplexing, tree, reps).
#[derive(Clone, Copy)]
struct Stage {
    places: usize,
    /// `Some(n)` = M:N multiplexing over an `n`-thread executor pool.
    executor_threads: Option<usize>,
    depth: u32,
    reps: usize,
}

impl Mode {
    fn config(self, stage: &Stage, cli: &AblationCli) -> Config {
        let base = Config::new(stage.places);
        let base = match stage.executor_threads {
            Some(t) => base.executor_threads(t),
            None => base,
        };
        match self {
            Mode::Off => base.obs_disable(true),
            Mode::Metrics => base,
            Mode::Trace => base
                .trace_enable(true)
                .trace_buffer_events(cli.trace_capacity),
        }
    }
}

/// One measured run: wall time, figure of merit, and the artifacts captured
/// from the runtime before teardown.
struct Run {
    wall_seconds: f64,
    nodes: u64,
    metrics_json: Option<String>,
    chrome_trace: Option<String>,
}

fn main() {
    let cli = AblationCli::parse("BENCH_obs_overhead.json", "TRACE_uts.json");

    let main_stage = Stage {
        places: cli.places,
        executor_threads: None,
        depth: cli.depth,
        reps: cli.reps,
    };
    let main_runs = measure(&cli, &main_stage);
    let main_rows = rows(&main_runs);
    print_table(&format!("{} places", main_stage.places), &main_rows);

    // Quick mode (CI's fast gate) skips the at-scale stage; the committed
    // full-mode baseline carries it, so bench_check ratchets both.
    let at_scale_stage = Stage {
        places: AT_SCALE_PLACES,
        executor_threads: Some(AT_SCALE_THREADS),
        depth: AT_SCALE_DEPTH,
        reps: AT_SCALE_REPS,
    };
    let at_scale_runs = (!cli.quick).then(|| measure(&cli, &at_scale_stage));
    if let Some(runs) = &at_scale_runs {
        print_table(
            &format!(
                "{} places / {} threads",
                at_scale_stage.places, AT_SCALE_THREADS
            ),
            &rows(runs),
        );
    }

    let chrome = main_runs[2]
        .chrome_trace
        .as_deref()
        .expect("traced run exports");
    std::fs::write(&cli.trace_out, chrome)
        .unwrap_or_else(|e| panic!("write {}: {e}", cli.trace_out));
    let json = to_json(
        &cli,
        &main_stage,
        &main_rows,
        &at_scale_stage,
        &at_scale_runs,
    );
    std::fs::write(&cli.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", cli.out));
    println!("\nwrote {} and {}", cli.out, cli.trace_out);
}

/// Interleave the modes (off, metrics, trace, off, …) so all three see the
/// same machine-load drift, and keep the minimum-time run per mode — the
/// standard estimator under scheduling noise.
fn measure(cli: &AblationCli, stage: &Stage) -> [Run; 3] {
    let mut best: [Option<Run>; 3] = [None, None, None];
    for _ in 0..stage.reps {
        for (slot, mode) in MODES.into_iter().enumerate() {
            let r = bench_uts(cli, stage, mode);
            if best[slot]
                .as_ref()
                .is_none_or(|b| r.wall_seconds < b.wall_seconds)
            {
                best[slot] = Some(r);
            }
        }
    }
    let runs = best.map(|r| r.expect("every mode measured"));
    assert_eq!(runs[0].nodes, runs[1].nodes, "UTS node count must not vary");
    assert_eq!(runs[0].nodes, runs[2].nodes, "UTS node count must not vary");
    runs
}

/// Pair each best run with its overhead over the obs-off baseline.
fn rows(runs: &[Run; 3]) -> [(&Run, f64); 3] {
    let off = runs[0].wall_seconds;
    let pct = |r: &Run| (r.wall_seconds / off - 1.0) * 100.0;
    [
        (&runs[0], 0.0),
        (&runs[1], pct(&runs[1])),
        (&runs[2], pct(&runs[2])),
    ]
}

fn print_table(stage: &str, rows: &[(&Run, f64)]) {
    println!(
        "\n[{stage}]\n{:>8} {:>10} {:>12} {:>10}",
        "mode", "ms", "nodes", "overhead"
    );
    for ((r, p), name) in rows.iter().zip(["off", "metrics", "trace"]) {
        println!(
            "{:>8} {:>10.2} {:>12} {:>9.2}%",
            name,
            r.wall_seconds * 1e3,
            r.nodes,
            p
        );
    }
}

fn bench_uts(cli: &AblationCli, stage: &Stage, mode: Mode) -> Run {
    let rt = Runtime::new(mode.config(stage, cli));
    let tree = uts::GeoTree::paper(stage.depth);
    let (nodes, secs) = rt.run(move |ctx| {
        let (run, secs) = timed(|| uts::run_distributed(ctx, tree, glb::GlbConfig::default()));
        (run.stats.nodes, secs)
    });
    Run {
        wall_seconds: secs,
        nodes,
        metrics_json: rt.metrics_json(),
        chrome_trace: if mode == Mode::Trace {
            rt.chrome_trace_json()
        } else {
            None
        },
    }
}

/// Append one stage's `"workload"`, `"results"`, pct and budget keys at the
/// given indent (the at-scale section nests one level deeper).
fn push_stage(s: &mut String, ind: &str, stage: &Stage, rows: &[(&Run, f64)]) {
    match stage.executor_threads {
        Some(t) => s.push_str(&format!(
            "{ind}\"workload\": {{\"kernel\": \"uts\", \"places\": {}, \
             \"executor_threads\": {t}, \"depth\": {}, \"reps\": {}}},\n",
            stage.places, stage.depth, stage.reps
        )),
        None => s.push_str(&format!(
            "{ind}\"workload\": {{\"kernel\": \"uts\", \"places\": {}, \
             \"depth\": {}, \"reps\": {}}},\n",
            stage.places, stage.depth, stage.reps
        )),
    }
    s.push_str(&format!("{ind}\"results\": [\n"));
    let names = ["off", "metrics", "trace"];
    for (i, ((r, pct), name)) in rows.iter().zip(names).enumerate() {
        s.push_str(&format!(
            "{ind}  {{\"mode\": \"{}\", \"wall_seconds\": {:.6}, \"nodes\": {}, \
             \"overhead_pct\": {:.4}}}{}\n",
            name,
            r.wall_seconds,
            r.nodes,
            pct,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!("{ind}],\n"));
    let (metrics_pct, trace_pct) = (rows[1].1, rows[2].1);
    s.push_str(&format!(
        "{ind}\"overhead_trace_off_pct\": {metrics_pct:.4},\n"
    ));
    s.push_str(&format!(
        "{ind}\"overhead_trace_on_pct\": {trace_pct:.4},\n"
    ));
    s.push_str(&format!("{ind}\"within_budget\": {}", metrics_pct <= 1.0));
}

fn to_json(
    cli: &AblationCli,
    main_stage: &Stage,
    main_rows: &[(&Run, f64)],
    at_scale_stage: &Stage,
    at_scale_runs: &Option<[Run; 3]>,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"benchmark\": \"observability overhead ablation\",\n");
    s.push_str(&format!("  \"quick\": {},\n", cli.quick));
    push_stage(&mut s, "  ", main_stage, main_rows);
    s.push_str(",\n");
    if let Some(runs) = at_scale_runs {
        s.push_str("  \"at_scale\": {\n");
        push_stage(&mut s, "    ", at_scale_stage, &rows(runs));
        s.push_str("\n  },\n");
    }
    // The metrics-mode run's counter values, verbatim (already JSON).
    let metrics = main_rows[1]
        .0
        .metrics_json
        .as_deref()
        .expect("metrics-mode run");
    s.push_str("  \"metrics\": ");
    s.push_str(metrics.trim_end());
    s.push_str("\n}\n");
    s
}
