//! Chaos matrix driver.
//!
//! Runs (workload × fault × seed) cells and checks the graceful-degradation
//! contract: identical result, or a clean typed error for lossy faults —
//! never a silent wrong answer, never a hang. Each failing cell prints a
//! one-line reproduction command; the process exits non-zero if any cell
//! fails.
//!
//! Usage:
//!
//! ```text
//! chaos --matrix                               # full matrix, default seeds
//! chaos --workload uts --fault drop --seed 3   # one cell
//! chaos --matrix --seeds 1,2,3 --places 8 --timeout-secs 60
//! chaos --matrix --repro-out failing.txt       # write repro lines on failure
//! ```
//!
//! `--workload` takes `uts`, `ra-msgs`, `uts-res` or `all`; `--fault` takes `drop`,
//! `delay`, `dup`, `trunc`, `place-kill` or `all`. With `--trace-dir PATH`,
//! cells run with event + causal tracing on and every failing cell writes
//! its chrome trace and critical-path report there (CI uploads them).

use chaos::{
    run_cell_traced, BaselineCache, CellFailure, CellOutcome, CellSpec, FaultKind, Workload,
};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    workloads: Vec<Workload>,
    faults: Vec<FaultKind>,
    seeds: Vec<u64>,
    places: usize,
    tcp: bool,
    timeout: Duration,
    repro_out: Option<String>,
    trace_dir: Option<PathBuf>,
}

fn usage(err: &str) -> ! {
    eprintln!("chaos: {err}");
    eprintln!(
        "usage: chaos [--matrix] [--workload uts|ra-msgs|uts-res|all] \
         [--fault drop|delay|dup|trunc|place-kill|all] \
         [--seed N | --seeds A,B,C] [--places N] \
         [--transport local|tcp] [--timeout-secs N] [--repro-out PATH] \
         [--trace-dir PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workloads: Option<Vec<Workload>> = None;
    let mut faults: Option<Vec<FaultKind>> = None;
    let mut seeds: Option<Vec<u64>> = None;
    let mut places = 8usize;
    let mut tcp = false;
    let mut timeout = Duration::from_secs(120);
    let mut repro_out = None;
    let mut trace_dir = None;
    let mut matrix = false;

    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--matrix" => matrix = true,
            "--workload" => {
                let v = value(&mut i, "--workload");
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload {v}")))]
                });
            }
            "--fault" => {
                let v = value(&mut i, "--fault");
                faults = Some(if v == "all" {
                    FaultKind::ALL.to_vec()
                } else {
                    vec![FaultKind::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown fault {v}")))]
                });
            }
            "--seed" => {
                let v = value(&mut i, "--seed");
                seeds = Some(vec![v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))]);
            }
            "--seeds" => {
                let v = value(&mut i, "--seeds");
                seeds = Some(
                    v.split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .unwrap_or_else(|_| usage("--seeds takes integers"))
                        })
                        .collect(),
                );
            }
            "--places" => {
                places = value(&mut i, "--places")
                    .parse()
                    .unwrap_or_else(|_| usage("--places takes an integer"));
            }
            "--transport" => {
                tcp = match value(&mut i, "--transport").as_str() {
                    "local" => false,
                    "tcp" => true,
                    _ => usage("--transport takes local|tcp"),
                };
            }
            "--timeout-secs" => {
                timeout = Duration::from_secs(
                    value(&mut i, "--timeout-secs")
                        .parse()
                        .unwrap_or_else(|_| usage("--timeout-secs takes an integer")),
                );
            }
            "--repro-out" => repro_out = Some(value(&mut i, "--repro-out")),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value(&mut i, "--trace-dir"))),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    if !matrix && workloads.is_none() && faults.is_none() {
        usage("pass --matrix, or select a cell with --workload/--fault");
    }
    if places < 2 {
        usage("--places must be at least 2 (faults need a remote edge)");
    }
    Args {
        workloads: workloads.unwrap_or_else(|| Workload::ALL.to_vec()),
        faults: faults.unwrap_or_else(|| FaultKind::ALL.to_vec()),
        seeds: seeds.unwrap_or_else(|| vec![1, 2, 3]),
        places,
        tcp,
        timeout,
        repro_out,
        trace_dir,
    }
}

fn main() {
    chaos::install_quiet_panic_hook();
    let args = parse_args();
    let mut baselines = BaselineCache::new();
    let mut failures: Vec<(CellSpec, CellFailure)> = Vec::new();
    let mut ran = 0usize;

    for &workload in &args.workloads {
        let want = baselines.get(workload, args.places);
        println!(
            "baseline {:>8} @ {} places: {}",
            workload.label(),
            args.places,
            want
        );
        for &fault in &args.faults {
            for &seed in &args.seeds {
                let spec = CellSpec {
                    workload,
                    fault,
                    seed,
                    places: args.places,
                    tcp: args.tcp,
                };
                let report = run_cell_traced(spec, want, args.timeout, args.trace_dir.as_deref());
                ran += 1;
                let ms = report.elapsed.as_millis();
                match &report.result {
                    Ok(CellOutcome::Identical) => {
                        println!(
                            "PASS {:>8} {:>10} seed={:<3} {:>6}ms identical",
                            workload.label(),
                            fault.label(),
                            seed,
                            ms
                        );
                    }
                    Ok(CellOutcome::TypedError(e)) => {
                        println!(
                            "PASS {:>8} {:>10} seed={:<3} {:>6}ms typed error: {}",
                            workload.label(),
                            fault.label(),
                            seed,
                            ms,
                            first_line(e)
                        );
                    }
                    Ok(CellOutcome::AccountedLoss { got, lost_steal }) => {
                        println!(
                            "PASS {:>8} {:>10} seed={:<3} {:>6}ms accounted loss: got {} \
                             (want {}), {} steal msgs destroyed",
                            workload.label(),
                            fault.label(),
                            seed,
                            ms,
                            got,
                            want,
                            lost_steal
                        );
                    }
                    Err(f) => {
                        println!(
                            "FAIL {:>8} {:>10} seed={:<3} {:>6}ms {}",
                            workload.label(),
                            fault.label(),
                            seed,
                            ms,
                            describe(f)
                        );
                        println!("  repro: {}", spec.repro_line());
                        failures.push((spec, f.clone()));
                    }
                }
            }
        }
    }

    println!(
        "chaos: {} cells, {} passed, {} failed",
        ran,
        ran - failures.len(),
        failures.len()
    );
    if let Some(path) = &args.repro_out {
        if !failures.is_empty() {
            let body: String = failures
                .iter()
                .map(|(spec, f)| format!("# {}\n{}\n", describe(f), spec.repro_line()))
                .collect();
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("chaos: cannot write {path}: {e}");
            } else {
                println!("chaos: wrote failing-seed repro lines to {path}");
            }
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn describe(f: &CellFailure) -> String {
    match f {
        CellFailure::Mismatch { want, got } => {
            format!("SILENT MISMATCH want={want} got={got}")
        }
        CellFailure::UnexpectedError(e) => {
            format!("error from a lossless fault: {}", first_line(e))
        }
        CellFailure::UntypedPanic(e) => format!("untyped panic: {}", first_line(e)),
        CellFailure::Hang => "HANG (hard timeout exceeded)".into(),
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}
