//! Scale tier (ignored by default — run with `--ignored` in release): the
//! real UTS/GLB protocol stack at thousands of places in one process, on
//! the M:N multiplexed scheduler (`Config::executor_threads`).
//!
//! These are the acceptance tests for lightweight places: the traversal at
//! 4,096 places must count exactly the tree the sequential oracle and a
//! conventional 8-place run count. Debug builds are ~20× slower and the CI
//! `scale` job runs these release-only; see TESTING.md.

use apgas::{Config, Runtime};
use glb::GlbConfig;
use std::sync::Mutex;
use std::time::Instant;
use uts::{run_distributed, traverse, GeoTree};

fn cfg() -> GlbConfig {
    GlbConfig {
        chunk: 64,
        ..GlbConfig::default()
    }
}

/// Held by every test here: each one wants the whole machine, and the
/// soak's timings mean nothing while another test shares its cores.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Executor pool width: every core the runner has, min 2 so contexts
/// actually migrate.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
}

#[test]
#[ignore = "scale tier: minutes in debug — run release via `cargo test --release -- --ignored`"]
fn uts_4096_places_matches_sequential_and_8_places() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let tree = GeoTree::paper(9);
    let want = traverse(&tree);

    let rt8 = Runtime::new(Config::new(8).places_per_host(8));
    let got8 = rt8.run(move |ctx| run_distributed(ctx, tree, cfg()));
    assert_eq!(got8.stats.nodes, want.nodes, "8-place baseline diverged");

    let rt = Runtime::new(
        Config::new(4096)
            .places_per_host(32)
            .executor_threads(threads()),
    );
    let got = rt.run(move |ctx| run_distributed(ctx, tree, cfg()));
    assert_eq!(got.stats.nodes, want.nodes, "4,096-place node count");
    assert_eq!(got.stats.leaves, want.leaves, "4,096-place leaf count");
    assert_eq!(got.stats.hashes, want.hashes, "4,096-place hash count");
    assert_eq!(got.stats.max_depth, want.max_depth);
    assert_eq!(got.stats.nodes, got8.stats.nodes);
    assert_eq!(got.per_place_nodes.len(), 4096);
}

#[test]
#[ignore = "scale tier: minutes in debug — run release via `cargo test --release -- --ignored`"]
fn uts_1024_places_matches_sequential() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let tree = GeoTree::paper(9);
    let want = traverse(&tree);
    let rt = Runtime::new(
        Config::new(1024)
            .places_per_host(32)
            .executor_threads(threads()),
    );
    let got = rt.run(move |ctx| run_distributed(ctx, tree, cfg()));
    assert_eq!(got.stats, want);
}

/// Median of ten traversal times.
fn median10(ms: &[f64]) -> f64 {
    let mut v = ms.to_vec();
    v.sort_by(f64::total_cmp);
    (v[4] + v[5]) / 2.0
}

/// A long-lived runtime must not slow down. GLB's random steals keep
/// touching new victims, so the lanes each place has ever used only grow;
/// a mailbox sweep must cost the lanes that hold messages, not all of them.
#[test]
#[ignore = "scale tier: minutes in debug — run release via `cargo test --release -- --ignored`"]
fn uts_256_places_soak_stays_flat_over_80_traversals() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let tree = GeoTree::paper(9);
    let want = traverse(&tree).nodes;
    let rt = Runtime::new(Config::new(256).places_per_host(32).executor_threads(2));
    let mut ms = Vec::with_capacity(80);
    for i in 0..80u64 {
        let glb = GlbConfig {
            seed: 0x5eed ^ i,
            ..cfg()
        };
        let t = Instant::now();
        let got = rt.run(move |ctx| run_distributed(ctx, tree, glb));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(got.stats.nodes, want, "traversal {i} node count");
    }
    let (first, last) = (median10(&ms[..10]), median10(&ms[70..]));
    eprintln!("soak: first-10 median {first:.1} ms, last-10 median {last:.1} ms");
    assert!(
        last <= 1.1 * first,
        "last-10 median {last:.1} ms > 1.1 x first-10 median {first:.1} ms"
    );
}
