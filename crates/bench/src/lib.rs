//! Shared harness utilities: measured base rates for every kernel and the
//! table/series printing the Figure-1 and Table-1/2 binaries use.
//!
//! The experiment methodology (see EXPERIMENTS.md): each kernel's *rates*
//! are measured for real on this machine — sequential base rate plus
//! in-process multi-place runs that exercise the full protocol stack — and
//! the paper's *scale axis* comes from `p775::model`, whose shape constants
//! are calibrated against the paper's anchors. A figure is "reproduced"
//! when the measured code plus the machine model yields the paper's curve
//! shape.

use apgas::{Config, Runtime};
use kernels::util::timed;

pub mod ablation_cli;

/// A measured or projected series: (cores, aggregate, per-core) rows.
pub struct Series {
    /// Kernel/figure name.
    pub title: String,
    /// Unit of the aggregate column.
    pub agg_unit: &'static str,
    /// Unit of the per-core column.
    pub per_unit: &'static str,
    /// `(cores, aggregate, per_core)` rows.
    pub rows: Vec<(usize, f64, f64)>,
}

impl Series {
    /// Pretty-print the series like a Figure-1 panel's data table.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        println!(
            "{:>10}  {:>16}  {:>16}",
            "cores", self.agg_unit, self.per_unit
        );
        for &(c, agg, per) in &self.rows {
            println!("{c:>10}  {agg:>16.3}  {per:>16.4}");
        }
    }
}

/// The paper's Figure-1 x-axis sample points.
pub const PAPER_CORES: [usize; 7] = [1, 32, 1024, 8192, 16_384, 32_768, 55_680];

/// Build a runtime with `places` places (32 per modeled host).
pub fn runtime(places: usize) -> Runtime {
    Runtime::new(Config::new(places))
}

/// Print a two-column comparison table (paper vs reproduction).
pub fn print_comparison(title: &str, rows: &[(String, f64, f64)]) {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>12} {:>12} {:>8}",
        "benchmark", "paper", "ours", "ratio"
    );
    for (name, paper, ours) in rows {
        let ratio = if *paper != 0.0 { ours / paper } else { 0.0 };
        println!("{name:<28} {paper:>12.3} {ours:>12.3} {ratio:>8.2}");
    }
}

/// Measure UTS single-place traversal rate (nodes/s) at tree depth `d`.
pub fn measure_uts_rate(depth: u32) -> f64 {
    let tree = uts::GeoTree::paper(depth);
    let (stats, secs) = timed(|| uts::traverse(&tree));
    stats.nodes as f64 / secs
}

/// Measure local Stream Triad bandwidth (bytes/s).
pub fn measure_stream_rate(n: usize) -> f64 {
    kernels::stream::stream_local(n, 5).bytes_per_sec
}

/// Measure sequential HPL rate (flop/s) at order `n`.
pub fn measure_hpl_rate(n: usize) -> f64 {
    let r = kernels::hpl::hpl_sequential(kernels::hpl::HplParams {
        n,
        nb: 32.min(n),
        seed: 42,
    });
    assert!(r.residual < 16.0, "HPL verification failed");
    kernels::hpl::flops(n) / r.seconds
}

/// Measure local FFT rate (flop/s, HPCC accounting) at size `n`.
pub fn measure_fft_rate(n: usize) -> f64 {
    let x: Vec<_> = (0..n).map(|j| kernels::fft::input_element(j, 19)).collect();
    let (_, secs) = timed(|| kernels::fft::fft_six_step(&x));
    5.0 * n as f64 * (n as f64).log2() / secs
}

/// Measure sequential BC rate (edges/s) at R-MAT scale `s`.
pub fn measure_bc_rate(scale: u32) -> f64 {
    let g = kernels::bc::rmat::generate(&kernels::bc::rmat::RmatParams::paper(scale));
    let r = kernels::bc::bc_sequential(&g);
    r.edges_traversed as f64 / r.seconds
}

/// Measure K-Means sequential time (seconds) for the scaled workload.
pub fn measure_kmeans_seconds(points: usize, k: usize) -> f64 {
    let p = kernels::kmeans::KMeansParams::scaled(points, k);
    let (_, secs) = timed(|| kernels::kmeans::kmeans_sequential(&p, 1));
    secs
}

/// Measure Smith-Waterman sequential time (seconds).
pub fn measure_sw_seconds(qlen: usize, tlen: usize) -> f64 {
    let q = kernels::sw::generate_query(qlen, 19);
    let t = kernels::sw::generate_dna(tlen, 19, &q, tlen / 2);
    let (_, secs) = timed(|| kernels::sw::sw_sequential(&q, &t, kernels::sw::Scoring::default()));
    secs
}
