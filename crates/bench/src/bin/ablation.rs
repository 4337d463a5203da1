//! Ablations for the design choices DESIGN.md calls out. The `ms` columns
//! are wall times on this host, of one run unless the row is a mean.
//!
//! * finish protocols (§3.1) — the same fan-out of one remote activity per
//!   place under FINISH_DEFAULT, FINISH_SPMD and FINISH_DENSE at 8 places
//!   per host: control messages, control bytes, root in-degree, ms;
//! * the round-trip ("get") idiom under FINISH_DEFAULT vs FINISH_HERE, and
//!   64 local spawns at one place under FINISH_DEFAULT vs FINISH_LOCAL:
//!   control messages, control bytes and ms per round, the mean of
//!   [`ROUNDS`] rounds;
//! * GLB on UTS at 4 places (§6) — the default configuration against no
//!   random steals (lifelines only), eight random steals, one victim and
//!   tiny chunks: nodes, ms, steal attempts and hits, lifeline gifts,
//!   deaths; then the time of one `UtsBag::split` (a fragment of every
//!   interval) after `process(2000)` on a depth-10 tree, the mean of
//!   [`ROUNDS`] splits;
//! * place-group broadcast, tree vs flat: task messages, max out-degree, ms.
//!
//! Usage: `cargo run --release -p bench --bin ablation [--quick]`

use apgas::{Config, Ctx, FinishKind, MsgClass, PlaceGroup, Runtime};
use glb::GlbConfig;
use kernels::util::timed;

/// Rounds averaged for each µs-scale row (round trips, local spawns and
/// bag splits).
const ROUNDS: u32 = 200;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    finish_ablation(if quick { 32 } else { 96 });
    glb_ablation(if quick { 9 } else { 11 });
    bcast_ablation(if quick { 64 } else { 128 });
}

fn finish_ablation(places: usize) {
    println!("== ablation: finish protocol cost (fan-out of {places} remote activities) ==");
    println!(
        "{:>16} {:>10} {:>12} {:>12} {:>10}",
        "protocol", "ctl msgs", "ctl bytes", "root in-deg", "ms"
    );
    for kind in [FinishKind::Default, FinishKind::Spmd, FinishKind::Dense] {
        let rt = Runtime::new(Config::new(places).places_per_host(8));
        rt.run(move |ctx| {
            ctx.net_stats().reset();
            let (_, secs) = timed(|| {
                ctx.finish_pragma(kind, |c| {
                    for p in c.places().skip(1) {
                        c.at_async(p, |_| {});
                    }
                });
            });
            let ctl = ctx.net_stats().class(MsgClass::FinishCtl);
            println!(
                "{:>16} {:>10} {:>12} {:>12} {:>10.2}",
                kind.label(),
                ctl.messages,
                ctl.bytes,
                ctx.net_stats().received_at(0),
                secs * 1e3
            );
        });
    }
    // FINISH_HERE vs default for the round-trip ("get") idiom, and
    // FINISH_LOCAL vs default for activities that never leave the place.
    println!("\n-- per round, mean of {ROUNDS} rounds --");
    println!(
        "{:>26} {:>10} {:>12} {:>10}",
        "round", "ctl msgs", "ctl bytes", "ms"
    );
    let get: fn(&Ctx) = |c| {
        let home = c.here();
        c.at_async(apgas::PlaceId(1), move |cc| cc.at_async(home, |_| {}));
    };
    let spawns: fn(&Ctx) = |c| (0..64).for_each(|_| c.spawn(|_| {}));
    for (places, what, kind, body) in [
        (2, "get", FinishKind::Default, get),
        (2, "get", FinishKind::Here, get),
        (1, "64 spawns", FinishKind::Default, spawns),
        (1, "64 spawns", FinishKind::Local, spawns),
    ] {
        Runtime::new(Config::new(places)).run(move |ctx| {
            ctx.net_stats().reset();
            let (_, secs) = timed(|| (0..ROUNDS).for_each(|_| ctx.finish_pragma(kind, body)));
            let ctl = ctx.net_stats().class(MsgClass::FinishCtl);
            let per_round = |n: u64| n as f64 / f64::from(ROUNDS);
            println!(
                "{:>26} {:>10.2} {:>12.1} {:>10.4}",
                format!("{what} {}", kind.label()),
                per_round(ctl.messages),
                per_round(ctl.bytes),
                secs * 1e3 / f64::from(ROUNDS)
            );
        });
    }
}

fn glb_ablation(depth: u32) {
    println!("\n== ablation: GLB configuration on UTS (depth {depth}, 4 places) ==");
    println!(
        "{:>26} {:>10} {:>10} {:>8} {:>8} {:>9} {:>8}",
        "config", "nodes", "ms", "steals", "hits", "gifts", "deaths"
    );
    let tree = uts::GeoTree::paper(depth);
    let configs: Vec<(&str, GlbConfig)> = vec![
        ("default", GlbConfig::default()),
        (
            "no-random-steals (w=0)",
            GlbConfig {
                random_attempts: 0,
                ..GlbConfig::default()
            },
        ),
        (
            "many-random (w=8)",
            GlbConfig {
                random_attempts: 8,
                ..GlbConfig::default()
            },
        ),
        (
            "victims bounded to 1",
            GlbConfig {
                max_victims: 1,
                ..GlbConfig::default()
            },
        ),
        (
            "tiny chunks (n=32)",
            GlbConfig {
                chunk: 32,
                ..GlbConfig::default()
            },
        ),
    ];
    for (name, cfg) in configs {
        let rt = Runtime::new(Config::new(4));
        let (run, secs) = timed(|| rt.run(move |ctx| uts::run_distributed(ctx, tree, cfg.clone())));
        let b = run.balancer;
        println!(
            "{name:>26} {:>10} {:>10.1} {:>8} {:>8} {:>9} {:>8}",
            run.stats.nodes,
            secs * 1e3,
            b.random_attempts,
            b.random_hits,
            b.lifeline_gifts,
            b.deaths
        );
    }
    use glb::TaskBag;
    let (mut secs, mut stolen) = (0.0, 0);
    for _ in 0..ROUNDS {
        let mut bag = uts::UtsBag::root(uts::GeoTree::paper(10));
        bag.process(2000);
        let (loot, s) = timed(|| bag.split());
        secs += s;
        stolen = loot.map_or(0, |l| l.intervals().len());
    }
    println!(
        "UtsBag::split after process(2000), depth 10: {stolen} intervals, {:.2} µs per split",
        secs * 1e6 / f64::from(ROUNDS)
    );
}

fn bcast_ablation(places: usize) {
    println!("\n== ablation: place-group broadcast, tree vs flat ({places} places) ==");
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "variant", "task msgs", "max out-deg", "ms"
    );
    for flat in [false, true] {
        let rt = Runtime::new(Config::new(places));
        rt.run(move |ctx| {
            ctx.net_stats().reset();
            let (_, secs) = timed(|| {
                let g = PlaceGroup::world(ctx);
                if flat {
                    g.broadcast_flat(ctx, |_| {});
                } else {
                    g.broadcast(ctx, |_| {});
                }
            });
            println!(
                "{:>8} {:>12} {:>12} {:>14.2}",
                if flat { "flat" } else { "tree" },
                ctx.net_stats().class(MsgClass::Task).messages,
                ctx.net_stats().max_out_degree(),
                secs * 1e3
            );
        });
    }
}
