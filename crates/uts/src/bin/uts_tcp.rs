//! Two-process UTS over TCP loopback: the cross-process acceptance harness
//! for the command codec and [`x10rt::TcpTransport`] (PROTOCOL.md).
//!
//! Rank 1 hosts place 1: it binds an ephemeral loopback port, prints
//! `LISTEN <addr>` for the launcher, accepts rank 0's connection and serves
//! until the shutdown command arrives. Rank 0 hosts place 0: it dials rank
//! 1, builds the UTS root bag, keeps half the sibling intervals and ships
//! the other half — as *serialized bytes*, not closures — to place 1 with
//! [`apgas::Ctx::at_async_cmd`]. Place 1 traverses its intervals and sends
//! the node count back the same way. Every message in between (the spawn
//! commands, their finish-protocol credits, the results) crosses a real
//! socket in `CodecMode::Bytes`, so the total node count checks the whole
//! wire stack against the sequential oracle.
//!
//! Work is split *statically* here: GLB's dynamic steal handshake carries
//! closures, which the codec deliberately refuses to ship across processes
//! (`EncodeError::NotSerializable`) — serialized interval commands are the
//! cross-process work representation.
//!
//! Usage:
//!
//! ```text
//! uts_tcp --rank 1 [--depth N]                  # prints LISTEN addr, serves
//! uts_tcp --rank 0 --peer ADDR [--depth N]      # dials, runs, prints NODES
//! uts_tcp --rank 0 --peer ADDR --force-version 99   # handshake-reject probe
//! uts_tcp --rank 0 --peer ADDR --metrics-out M.json --trace-out T.json
//! ```
//!
//! Rank 0 prints `NODES <n>` and exits 0 only when `<n>` equals the
//! sequential traversal of the same tree; any transport or protocol error
//! exits non-zero. The integration test additionally checks `<n>` against a
//! `LocalTransport` run.
//!
//! With `--metrics-out`, rank 0 collects every rank's metrics snapshot over
//! `H_OBS` (PROTOCOL.md §4) before shutting down and writes ONE aggregated
//! cluster metrics JSON (the `uts.nodes` counter then sums both ranks'
//! traversals); it also queries rank 1's live status report over the socket
//! and prints `REMOTE_STATUS ok`. With `--trace-out`, both ranks run with
//! causal tracing on; rank 0 stitches the shipped ring segments into one
//! cross-process DAG, writes the chrome trace (per-rank process lanes,
//! cross-socket flow arrows), and prints `CROSS_RANK_HOPS <n>` — the number
//! of critical-path transport edges that crossed the socket. Pass the same
//! flags to rank 1 (it ignores the file paths; they only switch tracing on).

use apgas::{CodecMode, Config, PlaceId, Runtime};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uts::{GeoTree, Interval, UtsBag};
use x10rt::codec::{put_u32, put_u64, Cursor};
use x10rt::{HandlerId, ProcSpec, TcpConfig, TcpTransport};

/// Traverse the intervals in the args at the receiving place, then command
/// the node count back to place 0.
const H_TRAVERSE: HandlerId = HandlerId(2001);
/// Deliver a remote node count to place 0's accumulator.
const H_RESULT: HandlerId = HandlerId(2002);

/// One serialized [`Interval`]: 20-byte parent SHA-1 state, then depth, lo,
/// hi as little-endian u32 — 32 bytes.
fn put_interval(out: &mut Vec<u8>, iv: &Interval) {
    out.extend_from_slice(&iv.parent);
    put_u32(out, iv.depth);
    put_u32(out, iv.lo);
    put_u32(out, iv.hi);
}

fn read_interval(cur: &mut Cursor) -> Result<Interval, x10rt::DecodeError> {
    let parent: [u8; 20] = cur.take(20)?.try_into().expect("take(20) is 20 bytes");
    Ok(Interval {
        parent,
        depth: cur.u32()?,
        lo: cur.u32()?,
        hi: cur.u32()?,
    })
}

fn encode_intervals(depth: u32, ivs: &[Interval]) -> Vec<u8> {
    let mut args = Vec::with_capacity(8 + 32 * ivs.len());
    put_u32(&mut args, depth);
    put_u32(&mut args, ivs.len() as u32);
    for iv in ivs {
        put_interval(&mut args, iv);
    }
    args
}

/// Rebuild a work bag from serialized intervals and run it dry.
fn traverse_intervals(args: &[u8]) -> u64 {
    let mut cur = Cursor::new(args);
    let depth = cur.u32().expect("tree depth");
    let n = cur.u32().expect("interval count");
    let tree = GeoTree::paper(depth);
    let mut bag = UtsBag::empty(tree);
    for _ in 0..n {
        let iv = read_interval(&mut cur).expect("interval");
        bag.push_interval(iv);
    }
    cur.finish().expect("trailing bytes after intervals");
    while glb::TaskBag::process(&mut bag, 4096) > 0 {}
    glb::TaskBag::take_result(&mut bag).nodes
}

/// Cluster-summable traversal counter: each rank adds the nodes it
/// traversed, so the merged cluster snapshot's `uts.nodes` value is the
/// whole tree — the aggregation-parity oracle of the integration test.
const NODES_METRIC: &str = "uts.nodes";

/// Install both command handlers in `cfg`: they are in place before any
/// worker runs, so a command that arrives the moment the transport is up
/// finds its handler.
fn with_handlers(cfg: Config, remote_nodes: Arc<AtomicU64>) -> Config {
    cfg.handler(H_TRAVERSE, move |ctx, args| {
        let nodes = traverse_intervals(args);
        if let Some(o) = ctx.obs() {
            o.metrics.counter(NODES_METRIC).add(ctx.here().0, nodes);
        }
        let mut reply = Vec::with_capacity(8);
        put_u64(&mut reply, nodes);
        ctx.at_async_cmd(PlaceId(0), H_RESULT, reply);
    })
    .handler(H_RESULT, move |_ctx, args| {
        let mut cur = Cursor::new(args);
        let nodes = cur.u64().expect("node count");
        remote_nodes.fetch_add(nodes, Ordering::Relaxed);
    })
}

fn usage(err: &str) -> ! {
    eprintln!("uts_tcp: {err}");
    eprintln!(
        "usage: uts_tcp --rank 0|1 [--peer ADDR] [--depth N] [--force-version V] \
         [--metrics-out FILE] [--trace-out FILE]"
    );
    std::process::exit(2);
}

/// Output requests (rank 0 writes the files; rank 1 only uses the presence
/// of `trace_out` to switch causal tracing on so its segments ship).
#[derive(Default, Clone)]
struct ObsOut {
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut rank: Option<usize> = None;
    let mut peer: Option<String> = None;
    let mut depth = 10u32;
    let mut version: Option<u16> = None;
    let mut out = ObsOut::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--rank" => {
                rank = Some(
                    value(&mut i, "--rank")
                        .parse()
                        .unwrap_or_else(|_| usage("--rank takes 0 or 1")),
                )
            }
            "--peer" => peer = Some(value(&mut i, "--peer")),
            "--depth" => {
                depth = value(&mut i, "--depth")
                    .parse()
                    .unwrap_or_else(|_| usage("--depth takes an integer"))
            }
            "--force-version" => {
                version = Some(
                    value(&mut i, "--force-version")
                        .parse()
                        .unwrap_or_else(|_| usage("--force-version takes a u16")),
                )
            }
            "--metrics-out" => out.metrics_out = Some(value(&mut i, "--metrics-out")),
            "--trace-out" => out.trace_out = Some(value(&mut i, "--trace-out")),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let rank = rank.unwrap_or_else(|| usage("--rank is required"));

    match rank {
        0 => rank0(
            peer.unwrap_or_else(|| usage("--rank 0 needs --peer ADDR")),
            depth,
            version,
            out,
        ),
        1 => rank1(depth, version, out),
        _ => usage("--rank takes 0 or 1"),
    }
}

/// Place-range table shared by both ranks: one place per process.
fn proc_specs(rank0_addr: String, rank1_addr: String) -> Vec<ProcSpec> {
    vec![
        ProcSpec {
            addr: rank0_addr,
            place_start: 0,
            place_count: 1,
        },
        ProcSpec {
            addr: rank1_addr,
            place_start: 1,
            place_count: 1,
        },
    ]
}

fn config(rank: u32, out: &ObsOut) -> Config {
    let causal = out.trace_out.is_some();
    Config::new(2)
        .codec(CodecMode::Bytes)
        .host_places(rank, 1)
        .trace_enable(causal)
        .causal_enable(causal)
}

fn rank1(_depth: u32, version: Option<u16>, out: ObsOut) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    // The launcher scrapes this line to learn where to point rank 0.
    println!("LISTEN {addr}");
    // Rank 1 never dials rank 0, so rank 0's advertised address is unused.
    let mut cfg = TcpConfig::new(proc_specs("127.0.0.1:0".into(), addr.to_string()), 1);
    if let Some(v) = version {
        cfg = cfg.version(v);
    }
    let transport = match TcpTransport::connect_with_listener(cfg, listener) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("uts_tcp rank 1: handshake failed: {e}");
            std::process::exit(1);
        }
    };
    let cfg = with_handlers(config(1, &out), Arc::new(AtomicU64::new(0)));
    let rt = Runtime::with_transport(cfg, transport);
    rt.serve(); // returns when rank 0 broadcasts shutdown
}

fn rank0(peer: String, depth: u32, version: Option<u16>, out: ObsOut) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let mut cfg = TcpConfig::new(proc_specs(addr.to_string(), peer), 0);
    if let Some(v) = version {
        cfg = cfg.version(v);
    }
    let transport = match TcpTransport::connect_with_listener(cfg, listener) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("uts_tcp rank 0: handshake failed: {e}");
            std::process::exit(1);
        }
    };
    let remote_nodes = Arc::new(AtomicU64::new(0));
    let rt = Runtime::with_transport(
        with_handlers(config(0, &out), remote_nodes.clone()),
        transport,
    );

    let tree = GeoTree::paper(depth);
    let local_nodes = rt.run(move |ctx| {
        // Expand a little depth-first so the split has several intervals to
        // take fragments of, then ship the loot to place 1 as bytes.
        let mut bag = UtsBag::root(tree);
        glb::TaskBag::process(&mut bag, 64);
        let loot: Vec<Interval> = match glb::TaskBag::split(&mut bag) {
            Some(loot) => loot.intervals().to_vec(),
            None => Vec::new(),
        };
        ctx.finish(|c| {
            c.at_async_cmd(PlaceId(1), H_TRAVERSE, encode_intervals(tree.depth, &loot));
        });
        while glb::TaskBag::process(&mut bag, 4096) > 0 {}
        glb::TaskBag::take_result(&mut bag).nodes
    });
    if let Some(o) = rt.obs() {
        o.metrics.counter(NODES_METRIC).add(0, local_nodes);
    }
    if out.metrics_out.is_some() || out.trace_out.is_some() {
        // Pull the serving rank's observability state over the socket
        // *before* the shutdown broadcast tears the launch down, and probe
        // the live status query while the peer still serves.
        if let Some((text, _json)) = rt.remote_status(PlaceId(1), std::time::Duration::from_secs(5))
        {
            if text.contains("runtime status: rank 1") {
                println!("REMOTE_STATUS ok");
            } else {
                eprintln!("uts_tcp: unexpected remote status report:\n{text}");
            }
        }
        rt.collect_cluster_obs(std::time::Duration::from_secs(5));
        if let Some(path) = &out.metrics_out {
            let json = rt.cluster_metrics_json().expect("obs enabled");
            std::fs::write(path, json).expect("write --metrics-out");
        }
        if let Some(path) = &out.trace_out {
            let trace = rt.cluster_chrome_trace_json().expect("obs enabled");
            std::fs::write(path, trace).expect("write --trace-out");
            let cp = rt.cluster_critical_path_json().expect("obs enabled");
            let crossings = cp.matches("\"from\": 0, \"to\": 1").count()
                + cp.matches("\"from\": 1, \"to\": 0").count();
            println!("CROSS_RANK_HOPS {crossings}");
        }
    }
    rt.broadcast_shutdown();

    let total = local_nodes + remote_nodes.load(Ordering::Relaxed);
    let want = uts::traverse(&tree).nodes;
    println!("NODES {total}");
    if total != want {
        eprintln!("uts_tcp: node count {total} != sequential oracle {want}");
        std::process::exit(1);
    }
}
