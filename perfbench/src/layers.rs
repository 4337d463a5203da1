//! Per-layer costs, each timed from outside through the layer's public
//! functions, in isolation, as the median nanoseconds per operation over
//! several fixed-size batches.

use crate::host::{median, metric, nproc, Metric};
use apgas::finish::{Attach, Deltas, FinishId, FinishMsg, FinishRef};
use apgas::{Config, FinishKind, MsgClass, PlaceId, Runtime};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use x10rt::codec::{put_msg_header, read_msg_header, Cursor, HandlerId, MsgHeader, WireMsg};
use x10rt::transport::Waker;
use x10rt::{Coalescer, Envelope, LocalTransport, NetStats, SendError, SpscRing, Transport};

/// Batches per measurement; the reported value is their median.
const BATCHES: usize = 15;

/// Median over [`BATCHES`] batches of `f` (which performs `ops`
/// operations), in nanoseconds per operation.
fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy state
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per_batch)
}

fn ns(name: &str, value: f64) -> Metric {
    metric(name, value, "ns")
}

/// Every per-layer measurement, in the order `BENCHMARK.json` lists them.
pub fn measure_all() -> Vec<Metric> {
    let mut out = vec![
        ns("ring.push_pop_ns", ring_push_pop()),
        ns("transport.send_recv_ns.p32", transport_send_recv(32)),
        ns("transport.send_recv_ns.p4096", transport_send_recv(4096)),
        ns("coalesce.send_flush_ns.b1", coalesce_send_flush(1)),
        ns("coalesce.send_flush_ns.b256", coalesce_send_flush(256)),
        ns("codec.header_ns", codec_header()),
        ns("wire.spawn_ns", wire_spawn()),
        ns("wire.finish_ns", wire_finish()),
        ns("tcp.send_recv_ns", tcp_send_recv()),
        ns("apgas.local_async_ns", local_async()),
        ns("apgas.remote_async_ns", remote_async()),
        ns("executor.fanout_ns_per_place.p64", fanout_per_place(64)),
        ns("executor.fanout_ns_per_place.p4096", fanout_per_place(4096)),
    ];
    out.extend(finish_rounds());
    out.push(metric("uts.seq_nodes_per_sec", seq_nodes_per_sec(), "1/s"));
    out
}

/// `SpscRing` push immediately followed by pop.
fn ring_push_pop() -> f64 {
    const OPS: usize = 1 << 16;
    let ring = SpscRing::<u64>::new(x10rt::DEFAULT_RING_CAPACITY);
    ns_per_op(OPS, || {
        for i in 0..OPS as u64 {
            ring.push(black_box(i)).expect("ring has room");
            black_box(ring.pop());
        }
    })
}

fn tiny_env(from: usize, to: usize) -> Envelope {
    Envelope::new(
        PlaceId(from as u32),
        PlaceId(to as u32),
        MsgClass::Task,
        8,
        Box::new(()),
    )
}

/// `LocalTransport::send` of 64 envelopes from up to 64 distinct senders to
/// one destination, then one `try_recv_batch` draining them; the
/// destination rotates over 64 places spread across the world, so at 4,096
/// places the traffic runs on lazily allocated sparse lanes.
fn transport_send_recv(places: usize) -> f64 {
    const PER_BATCH: usize = 64;
    const ROUNDS: usize = 256;
    let t = LocalTransport::new(places);
    let senders = (places - 1).min(PER_BATCH);
    let stride = places / PER_BATCH.min(places);
    let mut out = Vec::with_capacity(PER_BATCH);
    ns_per_op(PER_BATCH * ROUNDS, || {
        for r in 0..ROUNDS {
            let dest = (r % PER_BATCH.min(places)) * stride;
            for j in 0..PER_BATCH {
                // 1 + k·stride is never a multiple of `places`, so no
                // sender is the destination itself.
                let from = (dest + 1 + (j % senders) * stride) % places;
                t.send(tiny_env(from, dest)).expect("live place");
            }
            out.clear();
            let got = t.try_recv_batch(PlaceId(dest as u32), PER_BATCH, &mut out);
            assert_eq!(got, PER_BATCH, "every envelope delivered");
        }
    })
}

/// A transport that keeps what it is handed, so the coalescer is timed
/// without the cost of a real delivery.
struct Sink {
    stats: NetStats,
    kept: Mutex<Vec<Envelope>>,
}

impl Transport for Sink {
    fn send(&self, env: Envelope) -> Result<(), SendError> {
        self.kept.lock().expect("sink lock").push(env);
        Ok(())
    }
    fn try_recv(&self, _place: PlaceId) -> Option<Envelope> {
        None
    }
    fn register_waker(&self, _place: PlaceId, _waker: Waker) {}
    fn stats(&self) -> &NetStats {
        &self.stats
    }
    fn num_places(&self) -> usize {
        2
    }
    fn queue_len(&self, _place: PlaceId) -> usize {
        0
    }
}

/// `Coalescer::send` of `batch` messages to one destination, then `flush`;
/// the flushed batch box goes back to the coalescer's arena as the receive
/// path would return it.
fn coalesce_send_flush(batch: usize) -> f64 {
    const MSGS: usize = 1 << 14;
    let sink = Sink {
        stats: NetStats::new(2),
        kept: Mutex::new(Vec::new()),
    };
    let mut c = Coalescer::new(
        PlaceId(0),
        2,
        batch,
        x10rt::coalesce::DEFAULT_MAX_BYTES,
        true,
    );
    ns_per_op(MSGS, || {
        for _ in 0..MSGS / batch {
            for _ in 0..batch {
                c.send(&sink, tiny_env(0, 1)).expect("sink accepts");
            }
            c.flush(&sink).expect("sink accepts");
            for env in sink.kept.lock().expect("sink lock").drain(..) {
                if let Ok(b) = env.unbatch_boxed() {
                    let mut b = b;
                    b.envs.clear();
                    c.recycle_batch(b);
                }
            }
        }
    })
}

/// `put_msg_header` + `read_msg_header`.
fn codec_header() -> f64 {
    const OPS: usize = 1 << 16;
    let mut buf = Vec::with_capacity(64);
    ns_per_op(OPS, || {
        for i in 0..OPS as u32 {
            buf.clear();
            let h = MsgHeader {
                class: MsgClass::Task,
                flags: 0,
                handler: HandlerId(black_box(1)),
                causal: None,
                modeled_bytes: 40 + (i & 7),
                args_len: 0,
            };
            put_msg_header(&mut buf, &h);
            let got = read_msg_header(&mut Cursor::new(&buf)).expect("valid header");
            black_box(got);
        }
    })
}

fn counted(kind: FinishKind) -> FinishRef {
    FinishRef {
        id: FinishId {
            home: PlaceId(0),
            seq: black_box(7),
        },
        kind,
    }
}

/// Spawn-message encode + decode (`apgas::wire`).
fn wire_spawn() -> f64 {
    const OPS: usize = 1 << 15;
    let attach = Attach::Counted {
        fin: counted(FinishKind::Default),
        weight: 0,
        remote: true,
    };
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let bytes = apgas::wire::encode_spawn_closure(black_box(&attach));
            black_box(apgas::wire::decode_spawn(&bytes).expect("valid spawn"));
        }
    })
}

/// Finish-control (a default-protocol delta flush) encode + decode.
fn wire_finish() -> f64 {
    const OPS: usize = 1 << 14;
    ns_per_op(OPS, || {
        for i in 0..OPS as u32 {
            let msg = FinishMsg::Flush {
                fin: counted(FinishKind::Default),
                deltas: Deltas {
                    spawned: vec![(0, 1 + (i & 7), 1)],
                    recv: vec![(0, 1 + (i & 7), 1)],
                    live: vec![(1 + (i & 7), -1)],
                    panics: Vec::new(),
                },
            };
            let bytes = apgas::wire::encode_finish_msg(black_box(&msg));
            black_box(apgas::wire::decode_finish_msg(&bytes).expect("valid finish msg"));
        }
    })
}

/// Envelopes through the loopback socket of `TcpTransport::self_loop`:
/// 32 sent, then all 32 received at the destination.
fn tcp_send_recv() -> f64 {
    const PER_BATCH: usize = 32;
    const ROUNDS: usize = 32;
    let t = x10rt::TcpTransport::self_loop(2).expect("loopback transport");
    ns_per_op(PER_BATCH * ROUNDS, || {
        for _ in 0..ROUNDS {
            for i in 0..PER_BATCH as u64 {
                let env = Envelope::new(
                    PlaceId(0),
                    PlaceId(1),
                    MsgClass::Task,
                    8,
                    Box::new(WireMsg::new(HandlerId(2000), i.to_le_bytes().to_vec())),
                );
                t.send(env).expect("loopback accepts");
            }
            let mut got = 0;
            while got < PER_BATCH {
                match t.try_recv(PlaceId(1)) {
                    Some(e) => {
                        black_box(e);
                        got += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        }
    })
}

/// One `spawn` under `finish` (one place, one executor thread).
fn local_async() -> f64 {
    const OPS: usize = 1 << 12;
    let rt = Runtime::new(Config::new(1).executor_threads(1));
    rt.run(|ctx| {
        ns_per_op(OPS, || {
            ctx.finish(|c| {
                for _ in 0..OPS {
                    c.spawn(|_| ());
                }
            })
        })
    })
}

/// One `at_async` to the other place under `finish` (two places, one
/// executor thread).
fn remote_async() -> f64 {
    const OPS: usize = 1 << 12;
    let rt = Runtime::new(Config::new(2).executor_threads(1));
    rt.run(|ctx| {
        ns_per_op(OPS, || {
            ctx.finish(|c| {
                for _ in 0..OPS {
                    c.at_async(PlaceId(1), |_| ());
                }
            })
        })
    })
}

/// An empty SPMD finish that reaches every place, per place (nproc
/// executor threads). Near-equal values at 64 and 4,096 places mean the
/// scheduling cost per place is constant.
fn fanout_per_place(places: usize) -> f64 {
    let rt = Runtime::new(Config::new(places).executor_threads(nproc()));
    rt.run(move |ctx| {
        ns_per_op(places, || {
            ctx.finish_pragma(FinishKind::Spmd, |c| {
                for p in c.places() {
                    c.at_async(p, |_| ());
                }
            })
        })
    })
}

/// One round of each finish kind at 64 places (an `at_async` to every
/// place), in nanoseconds per round, and the finish-control messages each
/// round costs.
fn finish_rounds() -> Vec<Metric> {
    const PLACES: usize = 64;
    const ROUNDS: usize = 8;
    let rt = Runtime::new(Config::new(PLACES).executor_threads(nproc()));
    let kinds = [
        ("default", FinishKind::Default),
        ("spmd", FinishKind::Spmd),
        ("dense", FinishKind::Dense),
        ("resilient", FinishKind::Resilient),
    ];
    let mut times = Vec::new();
    let mut ctl = Vec::new();
    for (label, kind) in kinds {
        let (round_ns, ctl_per_round) = rt.run(move |ctx| {
            let round = |ctx: &apgas::Ctx| {
                ctx.finish_pragma(kind, |c| {
                    for p in c.places() {
                        c.at_async(p, |_| ());
                    }
                })
            };
            let ns = ns_per_op(1, || {
                for _ in 0..ROUNDS {
                    round(ctx);
                }
            }) / ROUNDS as f64;
            ctx.net_stats().reset();
            for _ in 0..ROUNDS {
                round(ctx);
            }
            let msgs = ctx.net_stats().class(MsgClass::FinishCtl).messages;
            (ns, msgs as f64 / ROUNDS as f64)
        });
        times.push(ns(&format!("finish.round_ns.{label}"), round_ns));
        ctl.push(metric(
            &format!("finish.ctl_msgs_per_round.{label}"),
            ctl_per_round,
            "count",
        ));
    }
    times.extend(ctl);
    times
}

/// The sequential `uts::traverse` floor, nodes per second.
fn seq_nodes_per_sec() -> f64 {
    let tree = uts::GeoTree::paper(7);
    let nodes = uts::traverse(&tree).nodes;
    1e9 / ns_per_op(nodes as usize, || {
        black_box(uts::traverse(black_box(&tree)));
    })
}
