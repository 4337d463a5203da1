//! The two kernels the chaos matrix drives, each reduced to a single
//! deterministic `u64` figure so faulted runs can be compared bit-for-bit
//! against a fault-free baseline.

use apgas::{Config, Ctx, FinishKind, HandlerId, PlaceGroup, PlaceId, PlaceLocalHandle};
use glb::GlbConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use uts::GeoTree;

/// UTS tree depth for chaos runs: big enough that steals, lifelines and
/// finish traffic all happen at 8 places, small enough for CI.
pub const UTS_DEPTH: u32 = 9;

/// RandomAccess table size per place (log2 words): tiny — the point is
/// message traffic, not memory pressure.
pub const RA_LOG2_LOCAL: u32 = 8;

/// Distributed UTS node count (GLB + FINISH_DENSE + steal/lifeline
/// traffic). Deterministic: the tree is a pure function of its parameters.
pub fn uts_nodes(ctx: &Ctx, cfg: GlbConfig) -> u64 {
    uts::run_distributed(ctx, GeoTree::paper(UTS_DEPTH), cfg)
        .stats
        .nodes
}

/// Handler id of the resilient-UTS subtree command (app range, see
/// PROTOCOL.md §3): count one depth-2 subtree and reply to place 0.
pub const H_UTS_SUBTREE: HandlerId = HandlerId(1100);

/// Handler id of the resilient-UTS reply command: record one subtree count
/// at place 0.
pub const H_UTS_REPLY: HandlerId = HandlerId(1101);

/// Reply ledger of [`uts_resilient_nodes`]: task id → subtree node count,
/// shared between the reply handler and the dispatching activity.
pub type UtsReplies = Arc<Mutex<HashMap<u64, u64>>>;

/// Install the resilient-UTS command handlers in `cfg` and hand back the
/// reply ledger they fill. Both handlers honour the `FinishKind::Resilient`
/// re-execution contract: they are **idempotent** (the subtree count is a
/// pure function of the task id, and the reply ledger inserts-if-absent, so
/// a re-executed task's duplicate reply cannot double-count) and
/// **location-independent** (re-execution runs them at the finish home, not
/// at the dead place they were originally sent to).
pub fn uts_resilient_handlers(cfg: Config) -> (Config, UtsReplies) {
    let replies: UtsReplies = Arc::new(Mutex::new(HashMap::new()));
    let sink = replies.clone();
    let cfg = cfg
        .handler(H_UTS_SUBTREE, |ctx, args| {
            let id = u64::from_le_bytes(args[0..8].try_into().unwrap());
            let i = u32::from_le_bytes(args[8..12].try_into().unwrap());
            let j = u32::from_le_bytes(args[12..16].try_into().unwrap());
            let n = uts::subtree_nodes(&GeoTree::paper(UTS_DEPTH), &[i, j]);
            let mut reply = Vec::with_capacity(16);
            reply.extend_from_slice(&id.to_le_bytes());
            reply.extend_from_slice(&n.to_le_bytes());
            ctx.at_async_cmd(PlaceId(0), H_UTS_REPLY, reply);
        })
        .handler(H_UTS_REPLY, move |_ctx, args| {
            let id = u64::from_le_bytes(args[0..8].try_into().unwrap());
            let n = u64::from_le_bytes(args[8..16].try_into().unwrap());
            sink.lock().unwrap().entry(id).or_insert(n);
        });
    (cfg, replies)
}

/// Distributed UTS as re-executable commands under `FINISH_RESILIENT`:
/// place 0 counts tree levels 0–1 locally, fans one serializable command
/// per depth-2 subtree out across all places, and sums the replies. A
/// killed place loses its queued subtree commands *and* its in-flight
/// replies — the resilient finish adopts the orphans, re-executes the
/// registered commands at home, and the run still produces the exact
/// sequential node count. Handlers come from [`uts_resilient_handlers`].
pub fn uts_resilient_nodes(ctx: &Ctx, replies: &UtsReplies) -> u64 {
    let tree = GeoTree::paper(UTS_DEPTH);
    let places = ctx.num_places() as u64;
    let b0 = uts::num_children_at(&tree, &[]);
    let local = 1 + b0 as u64; // root + its children, counted here
    let mut tasks: Vec<(u64, u32, u32)> = Vec::new();
    for i in 0..b0 {
        for j in 0..uts::num_children_at(&tree, &[i]) {
            tasks.push((tasks.len() as u64, i, j));
        }
    }
    ctx.finish_pragma(FinishKind::Resilient, |c| {
        for &(id, i, j) in &tasks {
            let mut args = Vec::with_capacity(16);
            args.extend_from_slice(&id.to_le_bytes());
            args.extend_from_slice(&i.to_le_bytes());
            args.extend_from_slice(&j.to_le_bytes());
            c.at_async_cmd(PlaceId((id % places) as u32), H_UTS_SUBTREE, args);
        }
    });
    local + replies.lock().unwrap().values().sum::<u64>()
}

/// Message-path RandomAccess checksum: every place scatters XOR updates to
/// the global table as tiny counted spawns under one Default finish, then
/// the table is folded to a single XOR digest. Updates commute, so the
/// digest is deterministic; any lost update changes it.
pub fn ra_msgs_checksum(ctx: &Ctx) -> u64 {
    let places = ctx.num_places();
    assert!(places.is_power_of_two(), "RA needs power-of-two places");
    let local_n = 1usize << RA_LOG2_LOCAL;
    let updates_per_place = 2 * local_n;
    let global_mask = local_n * places - 1;

    let table = PlaceLocalHandle::init(ctx, &PlaceGroup::world(ctx), move |_| {
        (0..local_n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>()
    });

    ctx.finish(|c| {
        for p in c.places() {
            c.at_async(p, move |cc| {
                let me = cc.here().index();
                let mine = table.get(cc);
                // xorshift64 stream, seeded per place.
                let mut x = 0x9e3779b97f4a7c15u64 ^ ((me as u64 + 1) << 17);
                for _ in 0..updates_per_place {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let idx = (x as usize) & global_mask;
                    let dest = idx >> RA_LOG2_LOCAL;
                    let word = idx & (local_n - 1);
                    if dest == me {
                        mine[word].fetch_xor(x, Ordering::Relaxed);
                    } else {
                        cc.at_async(PlaceId(dest as u32), move |rc| {
                            table.get(rc)[word].fetch_xor(x, Ordering::Relaxed);
                        });
                    }
                }
            });
        }
    });

    let mut digest = 0u64;
    for p in 0..places {
        digest ^= ctx.at(PlaceId(p as u32), move |c| {
            table
                .get(c)
                .iter()
                .fold(0u64, |a, w| a ^ w.load(Ordering::Relaxed))
        });
    }
    PlaceGroup::world(ctx).broadcast(ctx, move |c| table.free_local(c));
    digest
}
