//! Distributed causal tracing: cross-place message DAGs and finish
//! critical paths.
//!
//! The place-local tracer ([`crate::trace`]) can say *that* place 7 ran an
//! activity, but not that the activity was caused by a spawn leaving place 0
//! forty microseconds earlier — so it cannot answer "why did this finish
//! take 40 ms". This module closes that gap:
//!
//! * every cross-place message carries a compact [`CausalId`] — the packed
//!   root-finish identity plus a globally unique send-event sequence — paid
//!   for with [`CAUSAL_HEADER_BYTES`] in the existing byte ledgers;
//! * each worker records [`CausalEvent`]s (send / receive / execute) into
//!   its one [`EventRing`], next to its trace events: the causal bit of the
//!   ring's enable word gates them, and overwrite of a causal event counts
//!   as a causal drop;
//! * [`CausalGraph::build`] stitches the per-worker rings into one message
//!   DAG, splitting every edge into **transport** (send stamp → receive
//!   dispatch, which includes coalescer buffering), **queue-wait** (receive
//!   dispatch → execution start) and **execution** (body run) components;
//! * [`CausalGraph::critical_path`] walks the dependency chain ending at
//!   the latest event of a finish root back to the root's first message —
//!   the longest chain that bounded the finish — as an ordered hop list
//!   with per-hop attribution;
//! * exporters: a JSON + text critical-path report, a place×place×class
//!   latency/byte flow matrix, and chrome-trace **flow events** (the
//!   `"s"`/`"f"` phases Perfetto renders as arrows across place tracks).
//!
//! Identity packing: a finish root `FinishId { home, seq }` becomes
//! `home << 40 | seq` (see [`CausalId::pack_root`]); `root == 0` marks
//! traffic with no governing finish (e.g. GLB's uncounted steal handshake
//! before it inherits a root from its causing activity). Event sequences
//! are minted from one shared counter, so a `seq` names one message
//! uniquely across the whole runtime.

use crate::trace::{EventRing, Kind, Record, Shared, Tracer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Modeled wire cost of the causal header, charged on top of the regular
/// message header when a message is stamped: the packed root id fits in a
/// delta-coded word and the event sequence in another, roughly 12 bytes the
/// way PAMI would lay out an optional header extension.
pub const CAUSAL_HEADER_BYTES: usize = 12;

/// Bits reserved for the sequence part of a packed root id.
const ROOT_SEQ_BITS: u32 = 40;

/// Message-class labels by dense class index, mirroring
/// `x10rt::MsgClass::label` (a consistency test in `x10rt` pins the two
/// tables together; `obs` sits below `x10rt` in the crate graph, so the
/// labels are duplicated here rather than imported).
pub const CLASS_LABELS: [&str; 8] = [
    "task",
    "finish-ctl",
    "team",
    "clock",
    "rdma",
    "steal",
    "system",
    "batch",
];

/// Label for a dense class index (out-of-range indices render as `"?"`).
pub fn class_label(class: u8) -> &'static str {
    CLASS_LABELS.get(class as usize).copied().unwrap_or("?")
}

/// The compact causal identity a message carries on the wire: which finish
/// root it ultimately serves, and which send event created it.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct CausalId {
    /// Packed root-finish identity ([`CausalId::pack_root`]); 0 when the
    /// message serves no finish root.
    pub root: u64,
    /// Globally unique send-event sequence (minted per message).
    pub seq: u64,
}

impl CausalId {
    /// Pack a finish root's home place and home-local sequence into one
    /// word. Home-local sequences start at 1, so a packed root is never 0
    /// (0 is the "no root" marker).
    pub fn pack_root(home: u32, seq: u64) -> u64 {
        ((home as u64) << ROOT_SEQ_BITS) | (seq & ((1 << ROOT_SEQ_BITS) - 1))
    }

    /// The home place of a packed root id.
    pub fn root_home(root: u64) -> u32 {
        (root >> ROOT_SEQ_BITS) as u32
    }

    /// The home-local finish sequence of a packed root id.
    pub fn root_seq(root: u64) -> u64 {
        root & ((1 << ROOT_SEQ_BITS) - 1)
    }
}

/// What a [`CausalEvent`] records.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CausalKind {
    /// A stamped message left this worker (`peer` = destination place).
    Send,
    /// A stamped message was dispatched by this worker (`peer` = source).
    Recv,
    /// The handling/execution the message caused, with its duration.
    Exec,
}

/// One causal occurrence in a worker's ring.
#[derive(Copy, Clone, Debug)]
pub struct CausalEvent {
    /// Nanoseconds since the shared tracer epoch.
    pub ts_ns: u64,
    /// Execution duration for [`CausalKind::Exec`]; 0 otherwise.
    pub dur_ns: u64,
    /// Send, receive, or execute.
    pub kind: CausalKind,
    /// The message this event belongs to.
    pub id: CausalId,
    /// For sends: the `seq` of the message whose handling caused this send
    /// (0 when the send has no recorded cause) — the DAG's edges.
    pub parent_seq: u64,
    /// Peer place: destination for sends, source for receives/execs.
    pub peer: u32,
    /// Dense message-class index (`x10rt::MsgClass::index`).
    pub class: u8,
    /// Modeled wire bytes of the message (header and causal header
    /// included).
    pub bytes: u32,
}

/// The causal half of a worker's [`EventRing`]: stamps recorded into the
/// same ring as its trace events, gated by the causal bit of the shared
/// enable word.
impl EventRing {
    /// A causal event of `kind` for message `id`, stamped now; the
    /// kind-specific fields are zero.
    #[inline]
    fn stamp(&self, kind: CausalKind, id: CausalId, peer: u32) -> CausalEvent {
        CausalEvent {
            ts_ns: self.shared.now_ns(),
            dur_ns: 0,
            kind,
            id,
            parent_seq: 0,
            peer,
            class: 0,
            bytes: 0,
        }
    }

    /// Record a stamped message leaving this worker.
    #[inline]
    pub fn causal_send(&self, id: CausalId, parent_seq: u64, to: u32, class: u8, bytes: usize) {
        if self.causal_enabled() {
            self.push(Record::Causal(CausalEvent {
                parent_seq,
                class,
                bytes: bytes.min(u32::MAX as usize) as u32,
                ..self.stamp(CausalKind::Send, id, to)
            }));
        }
    }

    /// Record a stamped message being dispatched at this worker.
    #[inline]
    pub fn causal_recv(&self, id: CausalId, from: u32, class: u8, bytes: usize) {
        if self.causal_enabled() {
            self.push(Record::Causal(CausalEvent {
                class,
                bytes: bytes.min(u32::MAX as usize) as u32,
                ..self.stamp(CausalKind::Recv, id, from)
            }));
        }
    }

    /// Capture an execution start stamp; `None` when causal recording is
    /// off so a disabled runtime never reads the clock.
    #[inline]
    pub fn causal_start(&self) -> Option<u64> {
        self.causal_enabled().then(|| self.shared.now_ns())
    }

    /// Record the execution a message caused, from a stamp taken with
    /// [`EventRing::causal_start`]. Tolerates causal recording having been
    /// toggled mid-execution.
    #[inline]
    pub fn causal_exec_end(&self, id: CausalId, from: u32, start_ns: u64) {
        let end = self.stamp(CausalKind::Exec, id, from);
        self.push(Record::Causal(CausalEvent {
            ts_ns: start_ns,
            dur_ns: end.ts_ns.saturating_sub(start_ns),
            ..end
        }));
    }
}

/// One worker's causal events as captured by [`Tracer::snapshot_views`].
#[derive(Clone, Debug)]
pub struct WorkerCausal {
    /// Place id.
    pub place: u32,
    /// Worker index within the place (always 0).
    pub worker: u32,
    /// Buffered events, oldest first.
    pub events: Vec<CausalEvent>,
    /// Causal events lost to ring overwrite on this ring.
    pub dropped: u64,
}

/// The runtime's causal-tracing handle: the causal bit of the tracer's
/// enable word, and the runtime-wide id counter. Causal events land in the
/// tracer's per-worker rings, on the tracer's epoch.
pub struct CausalTracer {
    shared: Arc<Shared>,
    next_seq: AtomicU64,
}

impl CausalTracer {
    /// The causal handle of `tracer`'s rings, with causal recording
    /// initially `enabled`.
    pub fn new(tracer: &Tracer, enabled: bool) -> Self {
        let c = CausalTracer {
            shared: tracer.shared.clone(),
            next_seq: AtomicU64::new(1),
        };
        c.set_enabled(enabled);
        c
    }

    /// Is causal tracing currently enabled?
    pub fn enabled(&self) -> bool {
        self.shared.on(Kind::Causal)
    }

    /// Turn causal tracing on or off; takes effect at every stamping site's
    /// next branch.
    pub fn set_enabled(&self, on: bool) {
        self.shared.set(Kind::Causal, on);
    }

    /// Mint a fresh causal id under `root` (call only when enabled; the id
    /// sequence is shared runtime-wide so ids never collide across places).
    #[inline]
    pub fn mint(&self, root: u64) -> CausalId {
        CausalId {
            root,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Namespace this process's causal sequence numbers: all ids minted
    /// after this call start at `base`. A multi-process job gives each rank
    /// a disjoint base (derived from its first hosted place) so shipped
    /// ring segments merge into one DAG without `CausalId` collisions.
    /// Call before any event is minted; a lower base than already issued is
    /// ignored (sequences never move backwards).
    pub fn set_seq_base(&self, base: u64) {
        self.next_seq.fetch_max(base.max(1), Ordering::Relaxed);
    }

    /// Nanoseconds elapsed since the shared epoch — the timebase every
    /// [`CausalEvent::ts_ns`] is stamped in. Shipped alongside snapshot
    /// pushes so the aggregating rank can shift remote timestamps onto its
    /// own timeline (clock-skew approximation: one offset per shipment).
    pub fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }
}

// ----------------------------------------------------------------------
// DAG stitching
// ----------------------------------------------------------------------

/// One message of the causal DAG: its identity, endpoints, and the three
/// timestamps the per-worker rings contributed. A node missing its receive
/// or execution stamps (ring overwrite, truncated-in-flight payloads, a
/// snapshot taken mid-run) keeps what it has — exporters skip incomplete
/// edges rather than inventing components.
#[derive(Clone, Debug)]
pub struct MsgNode {
    /// The message's unique send-event sequence.
    pub seq: u64,
    /// Packed root-finish identity (0 = unrooted traffic).
    pub root: u64,
    /// `seq` of the message whose handling caused this one (0 = none).
    pub parent_seq: u64,
    /// Sending place.
    pub from: u32,
    /// Destination place.
    pub to: u32,
    /// Dense message-class index.
    pub class: u8,
    /// Modeled wire bytes.
    pub bytes: u64,
    /// Send stamp (nanoseconds since epoch), when the send was captured.
    pub send_ts: Option<u64>,
    /// Receive-dispatch stamp, when the receive was captured.
    pub recv_ts: Option<u64>,
    /// Execution start stamp, when the execution was captured.
    pub exec_start: Option<u64>,
    /// Execution duration in nanoseconds.
    pub exec_dur: u64,
}

impl MsgNode {
    /// The latest instant this message is known to have influenced: its
    /// execution end, else its dispatch, else its send stamp.
    pub fn end_ts(&self) -> u64 {
        if let Some(s) = self.exec_start {
            return s + self.exec_dur;
        }
        self.recv_ts.or(self.send_ts).unwrap_or(0)
    }

    /// Send-to-dispatch latency (coalescer buffering + transport + mailbox
    /// wait), when both stamps were captured.
    pub fn transport_ns(&self) -> Option<u64> {
        Some(self.recv_ts?.saturating_sub(self.send_ts?))
    }

    /// Dispatch-to-execution latency (activity-queue wait; ≈0 for control
    /// messages handled inline), when both stamps were captured.
    pub fn queue_ns(&self) -> Option<u64> {
        Some(self.exec_start?.saturating_sub(self.recv_ts?))
    }
}

/// One hop of a critical path, with its per-component attribution.
#[derive(Clone, Debug)]
pub struct Hop {
    /// The message's send-event sequence.
    pub seq: u64,
    /// Sending place.
    pub from: u32,
    /// Destination place.
    pub to: u32,
    /// Dense message-class index.
    pub class: u8,
    /// Modeled wire bytes.
    pub bytes: u64,
    /// Send stamp, nanoseconds since epoch.
    pub send_ts: u64,
    /// Send → dispatch component.
    pub transport_ns: u64,
    /// Dispatch → execution-start component.
    pub queue_ns: u64,
    /// Execution component.
    pub exec_ns: u64,
}

/// The critical path of one finish root: the dependency chain ending at the
/// root's latest recorded event, in causal order (first hop first).
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Packed root id.
    pub root: u64,
    /// The root finish's home place.
    pub home: u32,
    /// The root finish's home-local sequence.
    pub finish_seq: u64,
    /// First-hop send stamp → last recorded event, nanoseconds.
    pub total_ns: u64,
    /// The chain's hops.
    pub hops: Vec<Hop>,
}

/// One cell of the place×place×class flow matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowCell {
    /// Sending place.
    pub from: u32,
    /// Destination place.
    pub to: u32,
    /// Dense message-class index.
    pub class: u8,
    /// Messages with both send and receive stamps on this edge.
    pub msgs: u64,
    /// Their modeled wire bytes.
    pub bytes: u64,
    /// Summed send→dispatch latency.
    pub total_transport_ns: u64,
    /// Worst send→dispatch latency.
    pub max_transport_ns: u64,
}

/// The stitched cross-place message DAG.
#[derive(Debug, Default)]
pub struct CausalGraph {
    /// Messages by send-event sequence.
    pub nodes: BTreeMap<u64, MsgNode>,
    /// Causal events lost to ring overwrite across the snapshot — when
    /// nonzero the DAG (and any critical path cut from it) is a lower
    /// bound, not the full picture.
    pub dropped: u64,
}

impl CausalGraph {
    /// Stitch per-worker causal views into one DAG: send events create
    /// nodes, receive/execute events complete them. Order-independent —
    /// a receive whose send was overwritten still yields a (partial) node.
    pub fn build(traces: &[WorkerCausal]) -> CausalGraph {
        let mut g = CausalGraph::default();
        for t in traces {
            g.dropped += t.dropped;
            for e in &t.events {
                let node = g.nodes.entry(e.id.seq).or_insert_with(|| MsgNode {
                    seq: e.id.seq,
                    root: e.id.root,
                    parent_seq: 0,
                    from: 0,
                    to: 0,
                    class: e.class,
                    bytes: e.bytes as u64,
                    send_ts: None,
                    recv_ts: None,
                    exec_start: None,
                    exec_dur: 0,
                });
                match e.kind {
                    CausalKind::Send => {
                        node.parent_seq = e.parent_seq;
                        node.from = t.place;
                        node.to = e.peer;
                        node.class = e.class;
                        node.bytes = e.bytes as u64;
                        node.send_ts = Some(e.ts_ns);
                    }
                    CausalKind::Recv => {
                        node.from = e.peer;
                        node.to = t.place;
                        node.class = e.class;
                        node.recv_ts = Some(e.ts_ns);
                    }
                    CausalKind::Exec => {
                        node.exec_start = Some(e.ts_ns);
                        node.exec_dur = e.dur_ns;
                    }
                }
            }
        }
        g
    }

    /// Number of messages in the DAG.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the DAG empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Distinct finish roots present (ascending; excludes the unrooted
    /// marker 0).
    pub fn roots(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .nodes
            .values()
            .map(|n| n.root)
            .filter(|&r| r != 0)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The critical path of `root`: find the root's latest recorded event
    /// and walk its dependency chain back to the root's first message.
    /// Empty when the root has no messages in the DAG.
    pub fn critical_path(&self, root: u64) -> Vec<Hop> {
        let leaf = self
            .nodes
            .values()
            .filter(|n| n.root == root)
            .max_by_key(|n| n.end_ts());
        let Some(leaf) = leaf else {
            return Vec::new();
        };
        let mut chain: Vec<&MsgNode> = Vec::new();
        let mut cur = Some(leaf);
        while let Some(n) = cur {
            chain.push(n);
            // Stop at the root's boundary: the first message of a finish was
            // caused by an activity of the *enclosing* scope.
            cur = self
                .nodes
                .get(&n.parent_seq)
                .filter(|p| p.root == root && !chain.iter().any(|c| c.seq == p.seq));
        }
        chain.reverse();
        chain
            .into_iter()
            .map(|n| Hop {
                seq: n.seq,
                from: n.from,
                to: n.to,
                class: n.class,
                bytes: n.bytes,
                send_ts: n.send_ts.unwrap_or(0),
                transport_ns: n.transport_ns().unwrap_or(0),
                queue_ns: n.queue_ns().unwrap_or(0),
                exec_ns: n.exec_dur,
            })
            .collect()
    }

    /// Critical paths for every finish root in the DAG, longest total span
    /// first.
    pub fn critical_paths(&self) -> Vec<CriticalPath> {
        let mut out: Vec<CriticalPath> = self
            .roots()
            .into_iter()
            .filter_map(|root| {
                let hops = self.critical_path(root);
                let first = hops.first()?;
                let end = self
                    .nodes
                    .values()
                    .filter(|n| n.root == root)
                    .map(MsgNode::end_ts)
                    .max()
                    .unwrap_or(first.send_ts);
                Some(CriticalPath {
                    root,
                    home: CausalId::root_home(root),
                    finish_seq: CausalId::root_seq(root),
                    total_ns: end.saturating_sub(first.send_ts),
                    hops,
                })
            })
            .collect();
        out.sort_by_key(|p| std::cmp::Reverse(p.total_ns));
        out
    }

    /// The place×place×class flow matrix over every edge with both stamps,
    /// ordered by (from, to, class).
    pub fn flow_matrix(&self) -> Vec<FlowCell> {
        let mut cells: BTreeMap<(u32, u32, u8), FlowCell> = BTreeMap::new();
        for n in self.nodes.values() {
            let Some(lat) = n.transport_ns() else {
                continue;
            };
            let cell = cells
                .entry((n.from, n.to, n.class))
                .or_insert_with(|| FlowCell {
                    from: n.from,
                    to: n.to,
                    class: n.class,
                    msgs: 0,
                    bytes: 0,
                    total_transport_ns: 0,
                    max_transport_ns: 0,
                });
            cell.msgs += 1;
            cell.bytes += n.bytes;
            cell.total_transport_ns += lat;
            cell.max_transport_ns = cell.max_transport_ns.max(lat);
        }
        cells.into_values().collect()
    }
}

// ----------------------------------------------------------------------
// Exporters
// ----------------------------------------------------------------------

/// The critical-path report as JSON: one entry per finish root, longest
/// first, with per-hop attribution.
pub fn critical_path_json(g: &CausalGraph) -> String {
    let mut s = String::from("{\"dropped_events\": ");
    s.push_str(&g.dropped.to_string());
    s.push_str(", \"roots\": [");
    for (i, p) in g.critical_paths().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"root\": {}, \"home\": {}, \"finish_seq\": {}, \"total_ns\": {}, \"hops\": [",
            p.root, p.home, p.finish_seq, p.total_ns
        ));
        for (j, h) in p.hops.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"seq\": {}, \"from\": {}, \"to\": {}, \"class\": \"{}\", \"bytes\": {}, \
                 \"send_ts_ns\": {}, \"transport_ns\": {}, \"queue_ns\": {}, \"exec_ns\": {}}}",
                h.seq,
                h.from,
                h.to,
                class_label(h.class),
                h.bytes,
                h.send_ts,
                h.transport_ns,
                h.queue_ns,
                h.exec_ns
            ));
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

/// The critical-path report as human-readable text — the "why was this
/// finish slow" recipe's output (see OBSERVABILITY.md).
pub fn critical_path_text(g: &CausalGraph) -> String {
    let mut s = String::new();
    if g.dropped > 0 {
        s.push_str(&format!(
            "WARNING: {} causal events dropped (ring wrap) — paths are lower bounds\n",
            g.dropped
        ));
    }
    let paths = g.critical_paths();
    if paths.is_empty() {
        s.push_str("no rooted causal traffic recorded\n");
        return s;
    }
    for p in &paths {
        s.push_str(&format!(
            "finish root {} (home place {}, seq {}): critical path {} hop{}, {:.3} ms\n",
            p.root,
            p.home,
            p.finish_seq,
            p.hops.len(),
            if p.hops.len() == 1 { "" } else { "s" },
            p.total_ns as f64 / 1e6
        ));
        for h in &p.hops {
            s.push_str(&format!(
                "  {:>5} -> {:<5} {:<10} {:>7} B  transport {:>9.3} us  queue {:>9.3} us  exec {:>9.3} us\n",
                h.from,
                h.to,
                class_label(h.class),
                h.bytes,
                h.transport_ns as f64 / 1e3,
                h.queue_ns as f64 / 1e3,
                h.exec_ns as f64 / 1e3,
            ));
        }
    }
    s
}

/// The flow matrix as JSON: per (from, to, class) message/byte counts with
/// mean and max transport latency.
pub fn flow_matrix_json(g: &CausalGraph) -> String {
    let mut s = String::from("{\"flows\": [");
    for (i, c) in g.flow_matrix().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let mean = c.total_transport_ns.checked_div(c.msgs).unwrap_or(0);
        s.push_str(&format!(
            "{{\"from\": {}, \"to\": {}, \"class\": \"{}\", \"msgs\": {}, \"bytes\": {}, \
             \"mean_transport_ns\": {}, \"max_transport_ns\": {}}}",
            c.from,
            c.to,
            class_label(c.class),
            c.msgs,
            c.bytes,
            mean,
            c.max_transport_ns
        ));
    }
    s.push_str("]}");
    s
}

/// The flow matrix as an aligned text table.
pub fn flow_matrix_text(g: &CausalGraph) -> String {
    let cells = g.flow_matrix();
    if cells.is_empty() {
        return "no cross-place causal edges recorded\n".to_string();
    }
    let mut s = format!(
        "{:>5} {:>5} {:<10} {:>8} {:>10} {:>14} {:>14}\n",
        "from", "to", "class", "msgs", "bytes", "mean_us", "max_us"
    );
    for c in &cells {
        let mean = if c.msgs > 0 {
            c.total_transport_ns as f64 / c.msgs as f64 / 1e3
        } else {
            0.0
        };
        s.push_str(&format!(
            "{:>5} {:>5} {:<10} {:>8} {:>10} {:>14.3} {:>14.3}\n",
            c.from,
            c.to,
            class_label(c.class),
            c.msgs,
            c.bytes,
            mean,
            c.max_transport_ns as f64 / 1e3
        ));
    }
    s
}

/// Render chrome-trace flow events (plus the small anchor slices the flow
/// arrows bind to) from a causal snapshot, as pre-rendered JSON event
/// objects for [`crate::chrome::chrome_trace_with`].
///
/// Per message edge this emits, on the sender's track, a 1 ns `send:<class>`
/// anchor slice with a flow-start (`"ph": "s"`) at the send stamp, and on
/// the receiver's track a `recv:<class>` anchor with the flow-finish
/// (`"ph": "f"`, `"bp": "e"`) at the dispatch stamp — which Perfetto draws
/// as an arrow from place track to place track. Executions become plain
/// `exec` complete slices so the arrow lands on visible work.
pub fn chrome_flow_events(traces: &[WorkerCausal]) -> Vec<String> {
    let micros = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
    let mut out = Vec::new();
    for t in traces {
        for e in &t.events {
            let ts = micros(e.ts_ns);
            match e.kind {
                CausalKind::Send => {
                    out.push(format!(
                        "{{\"ph\": \"X\", \"name\": \"send:{}\", \"cat\": \"causal\", \
                         \"pid\": {}, \"tid\": {}, \"ts\": {ts}, \"dur\": 0.001, \
                         \"args\": {{\"seq\": {}, \"root\": {}, \"to\": {}, \"bytes\": {}}}}}",
                        class_label(e.class),
                        t.place,
                        t.worker,
                        e.id.seq,
                        e.id.root,
                        e.peer,
                        e.bytes
                    ));
                    out.push(format!(
                        "{{\"ph\": \"s\", \"id\": {}, \"name\": \"msg\", \"cat\": \"causal\", \
                         \"pid\": {}, \"tid\": {}, \"ts\": {ts}}}",
                        e.id.seq, t.place, t.worker
                    ));
                }
                CausalKind::Recv => {
                    out.push(format!(
                        "{{\"ph\": \"X\", \"name\": \"recv:{}\", \"cat\": \"causal\", \
                         \"pid\": {}, \"tid\": {}, \"ts\": {ts}, \"dur\": 0.001, \
                         \"args\": {{\"seq\": {}, \"root\": {}, \"from\": {}}}}}",
                        class_label(e.class),
                        t.place,
                        t.worker,
                        e.id.seq,
                        e.id.root,
                        e.peer
                    ));
                    out.push(format!(
                        "{{\"ph\": \"f\", \"bp\": \"e\", \"id\": {}, \"name\": \"msg\", \
                         \"cat\": \"causal\", \"pid\": {}, \"tid\": {}, \"ts\": {ts}}}",
                        e.id.seq, t.place, t.worker
                    ));
                }
                CausalKind::Exec => {
                    if e.dur_ns > 0 {
                        out.push(format!(
                            "{{\"ph\": \"X\", \"name\": \"exec\", \"cat\": \"causal\", \
                             \"pid\": {}, \"tid\": {}, \"ts\": {ts}, \"dur\": {}, \
                             \"args\": {{\"seq\": {}, \"root\": {}}}}}",
                            t.place,
                            t.worker,
                            micros(e.dur_ns),
                            e.id.seq,
                            e.id.root
                        ));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_packing_round_trips() {
        let r = CausalId::pack_root(7, 12345);
        assert_eq!(CausalId::root_home(r), 7);
        assert_eq!(CausalId::root_seq(r), 12345);
        assert_ne!(CausalId::pack_root(0, 1), 0, "seq 1 at place 0 is rooted");
    }

    #[test]
    fn mint_is_unique_and_seq_base_only_moves_forward() {
        let c = CausalTracer::new(&Tracer::new(64, false), true);
        let first: Vec<u64> = (0..10).map(|_| c.mint(0).seq).collect();
        assert_eq!(first, (1..11).collect::<Vec<_>>());
        c.set_seq_base(1 << 20);
        assert_eq!(c.mint(0).seq, 1 << 20);
        c.set_seq_base(5); // lower than already issued: ignored
        assert_eq!(c.mint(0).seq, (1 << 20) + 1);
    }

    /// Build the synthetic 3-hop chain used by several tests:
    /// root spawn 0→1 (task), nested send 1→2 (task), done ctl 2→0.
    fn three_hop_snapshot() -> Vec<WorkerCausal> {
        let root = CausalId::pack_root(0, 9);
        let m1 = CausalId { root, seq: 1 };
        let m2 = CausalId { root, seq: 2 };
        let m3 = CausalId { root, seq: 3 };
        let ev = |ts, dur, kind, id, parent, peer, class, bytes| CausalEvent {
            ts_ns: ts,
            dur_ns: dur,
            kind,
            id,
            parent_seq: parent,
            peer,
            class,
            bytes,
        };
        vec![
            WorkerCausal {
                place: 0,
                worker: 0,
                events: vec![
                    ev(100, 0, CausalKind::Send, m1, 0, 1, 0, 64),
                    ev(2_000, 0, CausalKind::Recv, m3, 0, 2, 1, 48),
                    ev(2_050, 30, CausalKind::Exec, m3, 0, 2, 0, 0),
                ],
                dropped: 0,
            },
            WorkerCausal {
                place: 1,
                worker: 0,
                events: vec![
                    ev(300, 0, CausalKind::Recv, m1, 0, 0, 0, 64),
                    ev(400, 500, CausalKind::Exec, m1, 0, 0, 0, 0),
                    ev(600, 0, CausalKind::Send, m2, 1, 2, 0, 80),
                ],
                dropped: 0,
            },
            WorkerCausal {
                place: 2,
                worker: 0,
                events: vec![
                    ev(900, 0, CausalKind::Recv, m2, 0, 1, 0, 80),
                    ev(1_000, 400, CausalKind::Exec, m2, 0, 1, 0, 0),
                    ev(1_450, 0, CausalKind::Send, m3, 2, 0, 1, 48),
                ],
                dropped: 0,
            },
        ]
    }

    #[test]
    fn graph_stitches_send_recv_exec_into_nodes() {
        let g = CausalGraph::build(&three_hop_snapshot());
        assert_eq!(g.len(), 3);
        let n1 = &g.nodes[&1];
        assert_eq!((n1.from, n1.to), (0, 1));
        assert_eq!(n1.send_ts, Some(100));
        assert_eq!(n1.recv_ts, Some(300));
        assert_eq!(n1.exec_start, Some(400));
        assert_eq!(n1.exec_dur, 500);
        assert_eq!(n1.transport_ns(), Some(200));
        assert_eq!(n1.queue_ns(), Some(100));
        let n2 = &g.nodes[&2];
        assert_eq!(n2.parent_seq, 1);
    }

    #[test]
    fn critical_path_walks_parent_chain_in_causal_order() {
        let g = CausalGraph::build(&three_hop_snapshot());
        let root = CausalId::pack_root(0, 9);
        let hops = g.critical_path(root);
        assert_eq!(hops.len(), 3);
        assert_eq!(
            hops.iter().map(|h| h.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!((hops[0].from, hops[0].to), (0, 1));
        assert_eq!((hops[2].from, hops[2].to), (2, 0));
        // Per-hop attribution: transport + queue + exec match the stamps.
        assert_eq!(hops[1].transport_ns, 300); // 900 - 600
        assert_eq!(hops[1].queue_ns, 100); // 1000 - 900
        assert_eq!(hops[1].exec_ns, 400);
        let paths = g.critical_paths();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].home, 0);
        assert_eq!(paths[0].finish_seq, 9);
        assert_eq!(paths[0].total_ns, 2_080 - 100); // last exec end - first send
    }

    #[test]
    fn critical_path_stops_at_root_boundary() {
        // Message 5 under root B is caused by message 1 under root A; the
        // path for B must not cross into A.
        let a = CausalId::pack_root(0, 1);
        let b = CausalId::pack_root(0, 2);
        let snap = vec![WorkerCausal {
            place: 0,
            worker: 0,
            events: vec![
                CausalEvent {
                    ts_ns: 10,
                    dur_ns: 0,
                    kind: CausalKind::Send,
                    id: CausalId { root: a, seq: 1 },
                    parent_seq: 0,
                    peer: 1,
                    class: 0,
                    bytes: 32,
                },
                CausalEvent {
                    ts_ns: 50,
                    dur_ns: 0,
                    kind: CausalKind::Send,
                    id: CausalId { root: b, seq: 5 },
                    parent_seq: 1,
                    peer: 1,
                    class: 0,
                    bytes: 32,
                },
            ],
            dropped: 0,
        }];
        let g = CausalGraph::build(&snap);
        let hops = g.critical_path(b);
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].seq, 5);
    }

    #[test]
    fn incomplete_nodes_survive_without_invented_components() {
        // Receive whose send was overwritten: node exists, transport
        // unknown, flow matrix skips it.
        let snap = vec![WorkerCausal {
            place: 3,
            worker: 0,
            events: vec![CausalEvent {
                ts_ns: 77,
                dur_ns: 0,
                kind: CausalKind::Recv,
                id: CausalId {
                    root: CausalId::pack_root(1, 4),
                    seq: 42,
                },
                parent_seq: 0,
                peer: 1,
                class: 2,
                bytes: 64,
            }],
            dropped: 5,
        }];
        let g = CausalGraph::build(&snap);
        let n = &g.nodes[&42];
        assert_eq!((n.from, n.to), (1, 3));
        assert_eq!(n.transport_ns(), None);
        assert!(g.flow_matrix().is_empty());
        // But the critical path still reports the hop it knows about.
        assert_eq!(g.critical_path(CausalId::pack_root(1, 4)).len(), 1);
    }

    #[test]
    fn flow_matrix_aggregates_per_edge_and_class() {
        let g = CausalGraph::build(&three_hop_snapshot());
        let m = g.flow_matrix();
        assert_eq!(m.len(), 3);
        let c01 = m.iter().find(|c| (c.from, c.to) == (0, 1)).unwrap();
        assert_eq!((c01.msgs, c01.bytes), (1, 64));
        assert_eq!(c01.total_transport_ns, 200);
        let c20 = m.iter().find(|c| (c.from, c.to) == (2, 0)).unwrap();
        assert_eq!(c20.class, 1); // finish-ctl
    }

    #[test]
    fn exporters_render_expected_shapes() {
        let g = CausalGraph::build(&three_hop_snapshot());
        let json = critical_path_json(&g);
        assert!(json.contains("\"roots\": [{"));
        assert!(json.contains("\"class\": \"finish-ctl\""));
        assert!(json.contains("\"transport_ns\": 300"));
        let text = critical_path_text(&g);
        assert!(text.contains("critical path 3 hops"));
        let fm = flow_matrix_json(&g);
        assert!(fm.contains("\"from\": 2, \"to\": 0, \"class\": \"finish-ctl\""));
        let fmt = flow_matrix_text(&g);
        assert!(fmt.contains("finish-ctl"));
    }

    #[test]
    fn chrome_flow_events_emit_arrow_pairs() {
        let evs = chrome_flow_events(&three_hop_snapshot());
        let joined = evs.join("\n");
        // One flow start per send, one flow finish per receive, ids match.
        assert_eq!(joined.matches("\"ph\": \"s\"").count(), 3);
        assert_eq!(joined.matches("\"ph\": \"f\"").count(), 3);
        assert!(joined.contains("\"bp\": \"e\""));
        assert!(joined.contains("\"name\": \"send:task\""));
        assert!(joined.contains("\"name\": \"recv:finish-ctl\""));
        assert!(joined.contains("\"name\": \"exec\""));
        // Every emitted object is parseable JSON.
        for e in &evs {
            serde_json::from_str(e).unwrap_or_else(|_| panic!("unparseable event: {e}"));
        }
    }

    #[test]
    fn empty_graph_exports_gracefully() {
        let g = CausalGraph::build(&[]);
        assert!(g.is_empty());
        assert!(g.roots().is_empty());
        assert!(g.critical_paths().is_empty());
        assert_eq!(
            critical_path_json(&g),
            "{\"dropped_events\": 0, \"roots\": []}"
        );
        assert!(critical_path_text(&g).contains("no rooted causal traffic"));
        assert!(flow_matrix_text(&g).contains("no cross-place causal edges"));
    }
}
