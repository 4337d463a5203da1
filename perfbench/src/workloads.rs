//! The workloads, driven through the public `apgas`/`x10rt`/`glb`/`uts`
//! APIs. Each one builds its inputs from the seed, runs one repetition of a
//! fixed unit of work per call to [`Workload::rep`], and checks that
//! repetition's outputs before returning.

use crate::host::{mix, nproc, quantile};
use apgas::{CodecMode, Config, Ctx, PlaceGroup, PlaceId, PlaceLocalHandle, Runtime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use uts::GeoTree;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    Storm32,
    Pingpong,
    Uts256,
    Uts4096,
    StormTcp8,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Storm32,
        Kind::Pingpong,
        Kind::Uts256,
        Kind::Uts4096,
        Kind::StormTcp8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Storm32 => "storm32",
            Kind::Pingpong => "pingpong",
            Kind::Uts256 => "uts256",
            Kind::Uts4096 => "uts4096",
            Kind::StormTcp8 => "storm_tcp8",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn is_uts(self) -> bool {
        matches!(self, Kind::Uts256 | Kind::Uts4096)
    }
}

/// Storm: XOR updates each place sends per repetition.
const STORM_PER_PLACE: usize = 2048;
/// Storm: updates per repetition that carry their send time, so the
/// receiver can record a one-way delivery latency (spread evenly over
/// each place's stream).
const LAT_SAMPLES: usize = 1024;
/// Pingpong: blocking round trips per repetition.
const PINGPONG_TRIPS: usize = 1000;
/// UTS: GEO tree depth (b0 = 4), as in the repository's scale sweep.
const UTS_DEPTH: u32 = 9;
/// UTS: accepted trees are within this share of the expected size, so
/// the work per repetition does not depend on the seed.
const UTS_SIZE_BAND: f64 = 0.05;
/// UTS: trees per run; repetitions cycle through them, so a run's median
/// does not hinge on one tree's shape.
const UTS_TREES: u64 = 4;
/// UTS: GLB work units processed between network probes.
const GLB_CHUNK: usize = 64;
/// Causal ring capacity per worker in traced runs (events; oldest are
/// overwritten and counted as dropped).
const CAUSAL_RING_EVENTS: usize = 8192;

/// Nanoseconds since the first call in this process; storm latency stamps
/// are taken on this clock at the sender and the receiver.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One repetition's outcome.
#[derive(Default)]
pub struct Rep {
    /// Wall time of the timed part (verification excluded).
    pub wall_s: f64,
    /// Time spent checking the outputs after the timed part.
    pub verify_s: f64,
    /// Operations attempted: storm updates, pingpong trips, UTS nodes.
    pub ops: u64,
    /// Operations that failed or whose result did not verify.
    pub failed: u64,
    /// Median and 99th percentile of the repetition's latency samples, in
    /// nanoseconds (storm: sampled one-way deliveries; pingpong: every
    /// trip; UTS: the traversal, its one sample).
    pub lat_ns: [f64; 2],
    /// GLB random steal attempts and hits (uts only).
    pub steal_attempts: u64,
    pub steal_hits: u64,
    /// Transport traffic of the timed part.
    pub net: Net,
    /// The timed part on the causal tracer's clock (nanoseconds), so a
    /// traced run can pick out the finishes that started inside it.
    pub window: (u64, u64),
}

/// Now on the causal tracer's clock (0 when observability is off).
fn causal_now(ctx: &Ctx) -> u64 {
    ctx.obs().map_or(0, |o| o.causal.now_ns())
}

/// Transport counters of one timed part (`NetStats`, reset at its start).
#[derive(Default, Clone, Copy)]
pub struct Net {
    pub messages: u64,
    pub envelopes: u64,
    pub steal_msgs: u64,
}

impl Net {
    fn read(ctx: &Ctx) -> Net {
        let s = ctx.net_stats();
        Net {
            messages: s.total_messages(),
            envelopes: s.total_envelopes(),
            steal_msgs: s.class(apgas::MsgClass::Steal).messages,
        }
    }
}

/// Per-place state the storm workloads keep across repetitions.
#[derive(Copy, Clone)]
struct StormState {
    sink: PlaceLocalHandle<AtomicU64>,
    lat: PlaceLocalHandle<Mutex<Vec<u64>>>,
}

/// A built runtime, ready for repetitions.
pub struct Live {
    pub rt: Runtime,
    storm: Option<StormState>,
}

pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// Executor threads the places run on.
    pub threads: usize,
    /// UTS workloads: the selected trees and their sequential node counts.
    pub trees: Vec<(GeoTree, u64)>,
}

impl Workload {
    /// Build the workload's inputs from `seed`. For UTS this selects
    /// [`UTS_TREES`] trees (see [`select_tree`]) and counts each one
    /// sequentially with `uts::traverse`, the oracle the parallel runs are
    /// checked against.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let threads = if kind == Kind::Pingpong { 1 } else { nproc() };
        let trees = if kind.is_uts() {
            (0..UTS_TREES).map(|t| select_tree(mix(seed) ^ t)).collect()
        } else {
            Vec::new()
        };
        Workload {
            kind,
            seed,
            threads,
            trees,
        }
    }

    /// A reused runtime slows down with every UTS traversal (README.md,
    /// "Findings"), so UTS repetitions each get a fresh runtime; its set-up
    /// is not timed.
    pub fn fresh_runtime(&self) -> bool {
        self.kind.is_uts()
    }

    pub fn places(&self) -> usize {
        match self.kind {
            Kind::Storm32 => 32,
            Kind::Pingpong => 2,
            Kind::Uts256 => 256,
            Kind::Uts4096 => 4096,
            Kind::StormTcp8 => 8,
        }
    }

    fn config(&self, causal: bool) -> Config {
        let mut cfg = Config::new(self.places())
            .places_per_host(32)
            .executor_threads(self.threads);
        if self.kind == Kind::StormTcp8 {
            cfg = cfg.codec(CodecMode::Bytes);
        }
        if causal {
            cfg = cfg
                .causal_enable(true)
                .trace_buffer_events(CAUSAL_RING_EVENTS);
        }
        cfg
    }

    /// Set-up as a user pays it: build the runtime (for `storm_tcp8`
    /// including the loopback socket handshake) and run one empty
    /// activity. Returns the runtime and the set-up seconds.
    pub fn build(&self, causal: bool) -> (Live, f64) {
        let t = Instant::now();
        let cfg = self.config(causal);
        let rt = if self.kind == Kind::StormTcp8 {
            let tcp = x10rt::TcpTransport::self_loop(self.places()).expect("loopback transport");
            Runtime::with_transport(cfg, tcp)
        } else {
            Runtime::new(cfg)
        };
        rt.run(|_| ());
        let setup_s = t.elapsed().as_secs_f64();
        let storm = matches!(self.kind, Kind::Storm32 | Kind::StormTcp8).then(|| {
            rt.run(|ctx| {
                let world = PlaceGroup::world(ctx);
                StormState {
                    sink: PlaceLocalHandle::init(ctx, &world, |_| AtomicU64::new(0)),
                    lat: PlaceLocalHandle::init(ctx, &world, |_| Mutex::new(Vec::new())),
                }
            })
        });
        (Live { rt, storm }, setup_s)
    }

    /// Run repetition `i` and check its outputs. A typed runtime error
    /// fails every operation of the repetition instead of aborting the run.
    pub fn rep(&self, live: &Live, i: u64) -> Rep {
        let rep_seed = mix(self.seed ^ mix(i));
        match self.kind {
            Kind::Storm32 | Kind::StormTcp8 => {
                let st = live.storm.expect("storm state initialised");
                let expected = storm_expected(self.places(), rep_seed);
                let ops = (self.places() * STORM_PER_PLACE) as u64;
                live.rt
                    .run_checked(move |ctx| storm_rep(ctx, st, rep_seed, &expected))
                    .unwrap_or_else(|_| failed_rep(ops))
            }
            Kind::Pingpong => live
                .rt
                .run_checked(move |ctx| pingpong_rep(ctx, rep_seed))
                .unwrap_or_else(|_| failed_rep(PINGPONG_TRIPS as u64)),
            Kind::Uts256 | Kind::Uts4096 => {
                let (tree, expected) = self.trees[(i % UTS_TREES) as usize];
                let glb = glb::GlbConfig {
                    chunk: GLB_CHUNK,
                    seed: rep_seed,
                    ..glb::GlbConfig::default()
                };
                live.rt
                    .run_checked(move |ctx| {
                        ctx.net_stats().reset();
                        let w0 = causal_now(ctx);
                        let t = Instant::now();
                        let run = uts::run_distributed(ctx, tree, glb);
                        let wall_s = t.elapsed().as_secs_f64();
                        let window = (w0, causal_now(ctx));
                        let net = Net::read(ctx);
                        Rep {
                            wall_s,
                            verify_s: 0.0,
                            ops: expected,
                            failed: if run.stats.nodes == expected {
                                0
                            } else {
                                expected
                            },
                            lat_ns: [wall_s * 1e9; 2],
                            steal_attempts: run.balancer.random_attempts,
                            steal_hits: run.balancer.random_hits,
                            net,
                            window,
                        }
                    })
                    .unwrap_or_else(|_| failed_rep(expected))
            }
        }
    }
}

fn p50_p99(mut samples: Vec<f64>) -> [f64; 2] {
    if samples.is_empty() {
        return [0.0; 2];
    }
    samples.sort_by(f64::total_cmp);
    [quantile(&samples, 0.50), quantile(&samples, 0.99)]
}

fn failed_rep(ops: u64) -> Rep {
    Rep {
        ops,
        failed: ops,
        ..Rep::default()
    }
}

/// Destination of place `me`'s `i`-th storm update: round-robin over every
/// other place.
fn storm_dest(me: usize, i: usize, places: usize) -> usize {
    (me + 1 + i % (places - 1)) % places
}

/// The update stream of place `me`: xorshift64 from a seed-derived state.
fn storm_stream(rep_seed: u64, me: usize) -> impl Iterator<Item = u64> {
    let mut x = mix(rep_seed ^ (me as u64 + 1)) | 1;
    std::iter::repeat_with(move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    })
}

/// Each place's XOR sink after one repetition, predicted from the seed.
fn storm_expected(places: usize, rep_seed: u64) -> Vec<u64> {
    let mut expected = vec![0u64; places];
    for me in 0..places {
        for (i, x) in storm_stream(rep_seed, me).take(STORM_PER_PLACE).enumerate() {
            expected[storm_dest(me, i, places)] ^= x;
        }
    }
    expected
}

/// Closed storm: every place sends its updates under one finish, which
/// waits for all of them; then each sink is read back (and reset) and
/// compared with the prediction.
fn storm_rep(ctx: &Ctx, st: StormState, rep_seed: u64, expected: &[u64]) -> Rep {
    let places = ctx.num_places();
    let sample_every = places * STORM_PER_PLACE / LAT_SAMPLES;
    ctx.net_stats().reset();
    let w0 = causal_now(ctx);
    let t = Instant::now();
    ctx.finish(|c| {
        for p in c.places() {
            c.at_async(p, move |cc| {
                let me = cc.here().index();
                for (i, x) in storm_stream(rep_seed, me).take(STORM_PER_PLACE).enumerate() {
                    let dest = PlaceId(storm_dest(me, i, places) as u32);
                    if i % sample_every == 0 {
                        let sent = now_ns();
                        cc.at_async(dest, move |rc| {
                            st.sink.get(rc).fetch_xor(x, Ordering::Relaxed);
                            let lat = now_ns().saturating_sub(sent);
                            st.lat.get(rc).lock().expect("latency buffer").push(lat);
                        });
                    } else {
                        cc.at_async(dest, move |rc| {
                            st.sink.get(rc).fetch_xor(x, Ordering::Relaxed);
                        });
                    }
                }
            });
        }
    });
    let wall_s = t.elapsed().as_secs_f64();
    let window = (w0, causal_now(ctx));
    let net = Net::read(ctx);
    let v = Instant::now();
    let mut failed = 0u64;
    let mut lat_ns = Vec::new();
    let per_dest = STORM_PER_PLACE as u64; // every place receives as many as it sends
    for p in ctx.places() {
        let (sink, lats) = ctx.at(p, move |c| {
            let lats = std::mem::take(&mut *st.lat.get(c).lock().expect("latency buffer"));
            (st.sink.get(c).swap(0, Ordering::Relaxed), lats)
        });
        if sink != expected[p.index()] {
            failed += per_dest;
        }
        lat_ns.extend(lats.into_iter().map(|l| l as f64));
    }
    let lat_ns = p50_p99(lat_ns);
    Rep {
        wall_s,
        verify_s: v.elapsed().as_secs_f64(),
        ops: (places * STORM_PER_PLACE) as u64,
        failed,
        lat_ns,
        net,
        window,
        ..Rep::default()
    }
}

/// Closed loop: place 0 keeps one blocking `at` to place 1 outstanding at
/// a time and checks every returned value.
fn pingpong_rep(ctx: &Ctx, rep_seed: u64) -> Rep {
    let peer = PlaceId(1);
    let mut lat_ns = Vec::with_capacity(PINGPONG_TRIPS);
    let mut failed = 0u64;
    ctx.net_stats().reset();
    let w0 = causal_now(ctx);
    let t = Instant::now();
    for k in 0..PINGPONG_TRIPS as u64 {
        let x = mix(rep_seed ^ k);
        let s = Instant::now();
        let got = ctx.at(peer, move |c| mix(x ^ c.here().index() as u64));
        lat_ns.push(s.elapsed().as_nanos() as f64);
        failed += u64::from(got != mix(x ^ 1));
    }
    let lat_ns = p50_p99(lat_ns);
    let wall_s = t.elapsed().as_secs_f64();
    Rep {
        wall_s,
        window: (w0, causal_now(ctx)),
        net: Net::read(ctx),
        ops: PINGPONG_TRIPS as u64,
        failed,
        lat_ns,
        ..Rep::default()
    }
}

/// Depth of the cheap size estimate [`select_tree`] screens candidates
/// with.
const UTS_PROBE_DEPTH: u32 = 6;

/// Estimated node count of `tree`: the nodes above [`UTS_PROBE_DEPTH`]
/// exactly, plus the expected subtree size for each node at that depth.
fn estimated_nodes(tree: &GeoTree) -> f64 {
    let below = GeoTree {
        depth: tree.depth - UTS_PROBE_DEPTH,
        ..*tree
    }
    .expected_size();
    let (mut above, mut frontier) = (0u64, 0u64);
    let mut stack = vec![(tree.root(), 0u32)];
    while let Some((s, d)) = stack.pop() {
        if d == UTS_PROBE_DEPTH {
            frontier += 1;
            continue;
        }
        above += 1;
        for i in 0..tree.num_children(&s, d) {
            stack.push((uts::rng::spawn(&s, i), d + 1));
        }
    }
    above as f64 + frontier as f64 * below
}

/// The first tree, over root seeds derived from `seed`, whose node count
/// (by `uts::traverse`) is within [`UTS_SIZE_BAND`] of the GEO expectation,
/// with that count. Candidates whose estimate is off by more than twice the
/// band are skipped without a full traversal.
fn select_tree(seed: u64) -> (GeoTree, u64) {
    let target = GeoTree::paper(UTS_DEPTH).expected_size();
    let near = |n: f64, band: f64| (n / target - 1.0).abs() <= band;
    (0u64..)
        .map(|k| GeoTree {
            seed: (mix(seed ^ mix(k)) & 0x7fff_ffff) as u32,
            ..GeoTree::paper(UTS_DEPTH)
        })
        .filter(|t| near(estimated_nodes(t), 2.0 * UTS_SIZE_BAND))
        .map(|t| (t, uts::traverse(&t).nodes))
        .find(|&(_, n)| near(n as f64, UTS_SIZE_BAND))
        .expect("some seed-derived tree falls in the size band")
}

/// Runtime obs counters by name.
pub fn obs_counters(rt: &Runtime) -> Vec<(String, u64)> {
    rt.obs()
        .map(|o| o.metrics.snapshot().counters)
        .unwrap_or_default()
}

pub fn counter(snap: &[(String, u64)], name: &str) -> u64 {
    snap.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}
