//! Live runtime introspection: the status report.
//!
//! A status report is a process-wide view of the runtime *right now* — per-
//! place run states (alive/dead, queued activities, mailbox depth, outgoing
//! lanes and their slot memory, parks, coalescer buffering, finish proxies,
//! dense buffering), every
//! in-flight finish root with its protocol kind and liveness progress
//! counter, the finish residue, and the full name-sorted metrics dump
//! (which carries the mailbox ring-overflow, GLB steal/lifeline, and arena
//! hit-rate counters). It renders as text
//! (for humans and crash artifacts) and JSON (for tools), is dumped
//! automatically when the finish liveness watchdog trips or a chaos cell
//! fails, and is served to any place over the transport via the `H_OBS`
//! status query (PROTOCOL.md §4).

use crate::runtime::Global;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cross-process observability-plane state hanging off [`Global`]: obs
/// shipments and status replies accepted from other ranks, the last
/// watchdog-triggered report, and the one-shot serve-shutdown shipping
/// guard.
pub(crate) struct ObsPlane {
    /// Remote [`obs::RankObs`] shipments, each paired with the local causal
    /// clock (`CausalTracer::now_ns`) read at acceptance — the skew anchor
    /// `ClusterObs::accept` shifts remote timestamps with.
    pub shipments: Mutex<Vec<(obs::RankObs, u64)>>,
    /// Status-query replies: (replying rank, text report, JSON report).
    pub status_replies: Mutex<Vec<(u32, String, String)>>,
    /// The report rendered the last time the finish watchdog tripped in
    /// this process (kept for crash artifacts).
    pub last_watchdog_report: Mutex<Option<String>>,
    /// Set once the serve-shutdown path has shipped this process's
    /// snapshot, so a re-delivered `H_SHUTDOWN` cannot ship twice.
    pub shutdown_shipped: AtomicBool,
}

impl ObsPlane {
    pub fn new() -> ObsPlane {
        ObsPlane {
            shipments: Mutex::new(Vec::new()),
            status_replies: Mutex::new(Vec::new()),
            last_watchdog_report: Mutex::new(None),
            shutdown_shipped: AtomicBool::new(false),
        }
    }
}

/// One hosted place's instantaneous state, collected under no global lock
/// (each field is an independent atomic or short critical section, so a
/// report never blocks the schedulers it describes).
struct PlaceStatus {
    place: u32,
    dead: bool,
    queue: usize,
    mailbox: usize,
    /// Outgoing mailbox lanes and the KiB of ring slots they hold, walked
    /// from the transport on demand.
    lanes: usize,
    lane_kib: usize,
    parks: u64,
    probing: usize,
    coalesced_bytes: u64,
    /// Resilient-finish backup snapshots this place holds for finishes
    /// homed elsewhere (nonzero after completion means a missed release).
    backup_roots: usize,
    /// Finish proxies this place holds for remotely-homed finishes (a
    /// finish stalled on stranded proxies shows them here).
    proxies: usize,
    /// Does this place's dense aggregator buffer undelivered deltas?
    dense_pending: bool,
    /// (kind label, finish seq, progress events, done?)
    roots: Vec<(&'static str, u64, u64, bool)>,
}

impl PlaceStatus {
    /// Idle places are elided from reports so a 1,024-place dump stays
    /// readable; anything that could explain a stall keeps the place in.
    fn interesting(&self) -> bool {
        self.dead
            || self.queue > 0
            || self.mailbox > 0
            || self.probing > 0
            || self.coalesced_bytes > 0
            || self.backup_roots > 0
            || self.proxies > 0
            || self.dense_pending
            || !self.roots.is_empty()
    }
}

fn collect(g: &Global) -> Vec<PlaceStatus> {
    let dead = g.transport.dead_places();
    g.cfg
        .hosted()
        .map(|i| {
            let p = &g.places[i];
            let roots = p
                .roots
                .lock()
                .values()
                .map(|r| (r.kind.label(), r.id.seq, r.progress_events(), r.is_done()))
                .collect();
            let (lanes, lane_bytes) = g.transport.lane_footprint(p.id);
            PlaceStatus {
                place: p.id.0,
                dead: dead.contains(&p.id),
                queue: p.queued_total(),
                mailbox: g.transport.queue_len(p.id),
                lanes,
                lane_kib: lane_bytes.div_ceil(1024),
                parks: p.parks.load(Ordering::Relaxed),
                probing: p.probing.load(Ordering::Relaxed),
                coalesced_bytes: p.coalesced_bytes.load(Ordering::Relaxed),
                backup_roots: p.backup_count.load(Ordering::Relaxed),
                proxies: p.proxy_count.load(Ordering::Relaxed),
                dense_pending: p.dense_pending.load(Ordering::Relaxed),
                roots,
            }
        })
        .collect()
}

/// Render the process-wide status report as human-readable text.
pub(crate) fn report_text(g: &Global) -> String {
    let states = collect(g);
    let dead = g.transport.dead_places();
    let hosted = g.cfg.hosted();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "runtime status: rank {} hosts places {}..{} of {} ({})",
        g.rank(),
        hosted.start,
        hosted.end,
        g.cfg.places,
        match crate::executor::shared_threads(g.cfg.executor_threads, hosted.len()) {
            Some(t) => format!("shared executor, {t} threads"),
            None => format!("dedicated executor, {} threads", hosted.len()),
        }
    );
    let _ = writeln!(
        s,
        "shutdown: {}  dead places: {:?}",
        g.shutdown.load(Ordering::Acquire),
        dead.iter().map(|p| p.0).collect::<Vec<_>>()
    );
    let mut elided = 0usize;
    for ps in &states {
        if !ps.interesting() {
            elided += 1;
            continue;
        }
        let _ = writeln!(
            s,
            "place {}: {}  queue {}  mailbox {}  lanes {}  lane_kib {}  parks {}  \
             probing {}  coalesced_bytes {}  backup_roots {}  proxies {}  dense_pending {}",
            ps.place,
            if ps.dead { "DEAD" } else { "alive" },
            ps.queue,
            ps.mailbox,
            ps.lanes,
            ps.lane_kib,
            ps.parks,
            ps.probing,
            ps.coalesced_bytes,
            ps.backup_roots,
            ps.proxies,
            ps.dense_pending
        );
        for (kind, seq, progress, done) in &ps.roots {
            let _ = writeln!(
                s,
                "  finish[{kind}] seq {seq}: progress {progress}, {}",
                if *done { "done" } else { "open" }
            );
        }
    }
    if elided > 0 {
        let _ = writeln!(s, "({elided} idle place(s) elided)");
    }
    let residue = g.residue();
    let _ = writeln!(
        s,
        "finish residue: roots {}  proxies {}  dense_pending {}",
        residue.roots, residue.proxies, residue.dense_pending
    );
    let _ = writeln!(s, "uncounted panics: {}", g.uncounted_panics.lock().len());
    if let Some(o) = &g.obs {
        s.push_str("# metrics\n");
        s.push_str(&o.metrics_text());
    }
    s
}

/// Render the process-wide status report as JSON (same data as
/// [`report_text`]; active places only, with an elided-idle count).
pub(crate) fn report_json(g: &Global) -> String {
    let states = collect(g);
    let dead = g.transport.dead_places();
    let hosted = g.cfg.hosted();
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"rank\": {}, \"places\": {}, \"hosted\": [{}, {}], \"shutdown\": {}, ",
        g.rank(),
        g.cfg.places,
        hosted.start,
        hosted.len(),
        g.shutdown.load(Ordering::Acquire)
    );
    let _ = write!(
        s,
        "\"dead\": [{}], ",
        dead.iter()
            .map(|p| p.0.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    s.push_str("\"place_states\": [");
    let mut first = true;
    let mut elided = 0usize;
    for ps in &states {
        if !ps.interesting() {
            elided += 1;
            continue;
        }
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(
            s,
            "{{\"place\": {}, \"dead\": {}, \"queue\": {}, \"mailbox\": {}, \
             \"lanes\": {}, \"lane_kib\": {}, \"parks\": {}, \"probing\": {}, \
             \"coalesced_bytes\": {}, \"backup_roots\": {}, \"proxies\": {}, \
             \"dense_pending\": {}, \"roots\": [",
            ps.place,
            ps.dead,
            ps.queue,
            ps.mailbox,
            ps.lanes,
            ps.lane_kib,
            ps.parks,
            ps.probing,
            ps.coalesced_bytes,
            ps.backup_roots,
            ps.proxies,
            ps.dense_pending
        );
        for (i, (kind, seq, progress, done)) in ps.roots.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"kind\": \"{kind}\", \"seq\": {seq}, \"progress\": {progress}, \
                 \"done\": {done}}}"
            );
        }
        s.push_str("]}");
    }
    let residue = g.residue();
    let _ = write!(
        s,
        "], \"idle_places\": {elided}, \"residue\": {{\"roots\": {}, \
         \"proxies\": {}, \"dense_pending\": {}}}, \"uncounted_panics\": {}",
        residue.roots,
        residue.proxies,
        residue.dense_pending,
        g.uncounted_panics.lock().len()
    );
    if let Some(o) = &g.obs {
        let _ = write!(s, ", \"metrics\": {}", o.metrics_json());
    }
    s.push('}');
    s
}

/// A cloneable read-only handle on a runtime's status reports, detachable
/// from the [`crate::Runtime`] itself — the chaos harness smuggles one out
/// of a failing cell (alongside its `Obs`) so failure artifacts can include
/// the last watchdog report even while the cell thread is wedged.
#[derive(Clone)]
pub struct StatusHandle {
    pub(crate) g: Arc<Global>,
}

impl StatusHandle {
    /// The live status report as text (see [`crate::Runtime::status_report`]).
    pub fn text(&self) -> String {
        report_text(&self.g)
    }

    /// The live status report as JSON.
    pub fn json(&self) -> String {
        report_json(&self.g)
    }

    /// The report rendered the last time the finish watchdog tripped in
    /// this process, if it ever did.
    pub fn last_watchdog_report(&self) -> Option<String> {
        self.g.obs_plane.last_watchdog_report.lock().clone()
    }
}
