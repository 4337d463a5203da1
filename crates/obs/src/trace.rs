//! The per-worker event ring: one bounded ring per worker holds both event
//! kinds the runtime records — trace spans and instants ([`Event`]) and
//! causal send/receive/execute stamps ([`CausalEvent`]).
//!
//! Every worker registers one [`EventRing`] with the runtime's [`Tracer`];
//! place identity lives on the ring, not on each event. All timestamps are
//! nanoseconds since the tracer's shared epoch (taken once, at
//! construction), which is what lets events from different workers — and
//! of both kinds — interleave correctly on one timeline. One snapshot
//! ([`Tracer::snapshot_views`]) splits every ring into its trace view (the
//! chrome exporter's input) and its causal view (the causal DAG's input).
//! The causal recording hooks and the id counter live in [`crate::causal`].
//!
//! # Zero cost when disabled
//!
//! Both kinds are gated by one atomic word with a bit per [`Kind`]; every
//! hook is one relaxed load of it. A disabled kind costs a predictable
//! branch per hook site and touches no clock. Span hooks use the two-call
//! pattern — [`EventRing::span_start`] returns `None` when disabled, and
//! [`EventRing::span_end`] is a no-op on `None` — so a span's clock reads
//! are also skipped entirely.
//!
//! # Capacity and drops
//!
//! Both kinds share one ring capacity. When the ring wraps, the oldest
//! event is overwritten, and the *evicted* event's kind decides which drop
//! counter it is charged to (`trace.dropped_events` or
//! `causal.dropped_events`).
//!
//! # Spans under ring overwrite
//!
//! A span is recorded as *one* event at its end (start timestamp + duration)
//! rather than paired begin/end events. Ring-buffer overwrite can therefore
//! never orphan half a span — the failure mode that makes B/E-phase chrome
//! traces unloadable — and the exporter emits complete (`"ph": "X"`) events.

use crate::causal::{CausalEvent, WorkerCausal};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default per-worker ring capacity, in events of either kind.
pub const DEFAULT_BUFFER_EVENTS: usize = 65_536;

/// The two kinds of event a ring holds; each has its own enable bit and
/// its own drop count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Trace spans and instants ([`Event`]).
    Trace,
    /// Causal send/receive/execute stamps ([`CausalEvent`]).
    Causal,
}

impl Kind {
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// One traced occurrence: an instant (`dur_ns == 0` by convention of the
/// instant hooks) or a completed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Start time, nanoseconds since the tracer epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// Category (chrome-trace `cat`): the subsystem, e.g. `"finish"`,
    /// `"team"`, `"glb"`, `"spawn"`.
    pub cat: &'static str,
    /// Event kind within the category, e.g. `"FINISH_DENSE"`, `"barrier"`,
    /// `"steal"`.
    pub kind: &'static str,
    /// One kind-specific payload word (peer place, victim id, sequence
    /// number — see the event taxonomy in OBSERVABILITY.md).
    pub arg: u64,
}

/// The timestamp a span hook captured at its start; opaque to callers.
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(u64);

/// One ring slot.
#[derive(Clone, Copy)]
pub(crate) enum Record {
    Trace(Event),
    Causal(CausalEvent),
}

impl Record {
    fn kind(&self) -> Kind {
        match self {
            Record::Trace(_) => Kind::Trace,
            Record::Causal(_) => Kind::Causal,
        }
    }
}

/// What every ring and both tracer handles share: the enable word and the
/// epoch.
pub(crate) struct Shared {
    enabled: AtomicU8,
    epoch: Instant,
}

impl Shared {
    /// Is `kind` currently enabled? One relaxed atomic load.
    #[inline]
    pub(crate) fn on(&self, kind: Kind) -> bool {
        self.enabled.load(Ordering::Relaxed) & kind.bit() != 0
    }

    pub(crate) fn set(&self, kind: Kind, on: bool) {
        if on {
            self.enabled.fetch_or(kind.bit(), Ordering::Relaxed);
        } else {
            self.enabled.fetch_and(!kind.bit(), Ordering::Relaxed);
        }
    }

    /// Nanoseconds since the shared epoch.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

struct Ring {
    slots: Vec<Record>,
    /// Next overwrite position once `slots` is at capacity.
    next: usize,
    /// Events evicted on wrap, indexed by the evicted event's [`Kind`].
    dropped: [u64; 2],
}

/// One worker's event ring. The ring itself is behind a mutex, but the lock
/// is thread-private in practice — only the owning worker pushes, and the
/// exporters read after (or between) runs.
pub struct EventRing {
    place: u32,
    capacity: usize,
    pub(crate) shared: Arc<Shared>,
    ring: Mutex<Ring>,
}

impl EventRing {
    /// Is trace recording currently enabled? One relaxed atomic load — the
    /// branch every trace hook compiles down to when tracing is off.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.shared.on(Kind::Trace)
    }

    /// Is causal recording currently enabled? One relaxed atomic load of
    /// the same word.
    #[inline]
    pub fn causal_enabled(&self) -> bool {
        self.shared.on(Kind::Causal)
    }

    /// Record an instantaneous event (no-op when tracing is off).
    #[inline]
    pub fn instant(&self, cat: &'static str, kind: &'static str, arg: u64) {
        if !self.trace_enabled() {
            return;
        }
        let ts_ns = self.shared.now_ns();
        self.push(Record::Trace(Event {
            ts_ns,
            dur_ns: 0,
            cat,
            kind,
            arg,
        }));
    }

    /// Capture a span's start time; `None` when tracing is off (making the
    /// whole span free, clock reads included).
    #[inline]
    pub fn span_start(&self) -> Option<SpanStart> {
        self.trace_enabled()
            .then(|| SpanStart(self.shared.now_ns()))
    }

    /// Complete a span opened with [`EventRing::span_start`]. Tolerates
    /// tracing having been toggled mid-span: a `None` start is a no-op.
    #[inline]
    pub fn span_end(
        &self,
        start: Option<SpanStart>,
        cat: &'static str,
        kind: &'static str,
        arg: u64,
    ) {
        let Some(SpanStart(ts_ns)) = start else {
            return;
        };
        let dur_ns = self.shared.now_ns().saturating_sub(ts_ns);
        self.push(Record::Trace(Event {
            ts_ns,
            dur_ns,
            cat,
            kind,
            arg,
        }));
    }

    pub(crate) fn push(&self, r: Record) {
        let mut ring = self.ring.lock();
        if ring.slots.len() < self.capacity {
            ring.slots.push(r);
            return;
        }
        // Wrap: overwrite the oldest event, charging its kind.
        let at = ring.next;
        let evicted = std::mem::replace(&mut ring.slots[at], r).kind();
        ring.next = (at + 1) % self.capacity;
        ring.dropped[evicted as usize] += 1;
    }

    /// Split the buffered events, oldest first, into the trace and causal
    /// views.
    fn views(&self) -> (WorkerTrace, WorkerCausal) {
        let ring = self.ring.lock();
        let (newer, older) = ring.slots.split_at(ring.next);
        let mut trace = WorkerTrace {
            place: self.place,
            worker: 0,
            events: Vec::new(),
            dropped: ring.dropped[Kind::Trace as usize],
        };
        let mut causal = WorkerCausal {
            place: self.place,
            worker: 0,
            events: Vec::new(),
            dropped: ring.dropped[Kind::Causal as usize],
        };
        for r in older.iter().chain(newer) {
            match r {
                Record::Trace(e) => trace.events.push(*e),
                Record::Causal(e) => causal.events.push(*e),
            }
        }
        (trace, causal)
    }
}

/// One worker's trace events as captured by [`Tracer::snapshot`] — the
/// input shape of the chrome exporter.
#[derive(Clone, Debug)]
pub struct WorkerTrace {
    /// Place id (chrome-trace `pid`).
    pub place: u32,
    /// Worker index within the place (chrome-trace `tid`); always 0, as
    /// every place runs one worker.
    pub worker: u32,
    /// Buffered events, oldest first (push order; span events carry their
    /// start timestamp, so this is not strictly `ts_ns`-sorted).
    pub events: Vec<Event>,
    /// Trace events lost to ring overwrite on this ring.
    pub dropped: u64,
}

/// The per-runtime event collector: owns the shared epoch and enable word,
/// hands out per-worker [`EventRing`]s, and snapshots them for export. Its
/// own toggle is the trace bit; [`crate::causal::CausalTracer`] toggles the
/// causal bit of the same word.
pub struct Tracer {
    pub(crate) shared: Arc<Shared>,
    capacity: usize,
    rings: Mutex<Vec<Arc<EventRing>>>,
}

impl Tracer {
    /// A tracer whose rings hold `capacity` events each (clamped to ≥ 16),
    /// with tracing initially `enabled` and causal recording off.
    pub fn new(capacity: usize, enabled: bool) -> Self {
        let t = Tracer {
            shared: Arc::new(Shared {
                enabled: AtomicU8::new(0),
                epoch: Instant::now(),
            }),
            capacity: capacity.max(16),
            rings: Mutex::new(Vec::new()),
        };
        t.set_enabled(enabled);
        t
    }

    /// Is tracing currently enabled?
    pub fn enabled(&self) -> bool {
        self.shared.on(Kind::Trace)
    }

    /// Turn tracing on or off; takes effect at every hook's next branch.
    pub fn set_enabled(&self, on: bool) {
        self.shared.set(Kind::Trace, on);
    }

    /// The instant all events are stamped against. The metrics sampler
    /// shares it so every exported timestamp lives on one timeline.
    pub fn epoch(&self) -> Instant {
        self.shared.epoch
    }

    /// Register the event ring of `place`'s worker.
    pub fn register(&self, place: u32) -> Arc<EventRing> {
        let ring = Arc::new(EventRing {
            place,
            capacity: self.capacity,
            shared: self.shared.clone(),
            ring: Mutex::new(Ring {
                slots: Vec::new(),
                next: 0,
                dropped: [0; 2],
            }),
        });
        self.rings.lock().push(ring.clone());
        ring
    }

    /// Snapshot every registered ring once, split into the trace views and
    /// the causal views (each sorted by place). Non-destructive: rings keep
    /// accumulating afterwards.
    pub fn snapshot_views(&self) -> (Vec<WorkerTrace>, Vec<WorkerCausal>) {
        let mut views: Vec<(WorkerTrace, WorkerCausal)> =
            self.rings.lock().iter().map(|r| r.views()).collect();
        views.sort_by_key(|(t, _)| t.place);
        views.into_iter().unzip()
    }

    /// The trace views of [`Tracer::snapshot_views`].
    pub fn snapshot(&self) -> Vec<WorkerTrace> {
        self.snapshot_views().0
    }

    /// Events of `kind` lost to ring overwrite across all rings.
    pub fn dropped(&self, kind: Kind) -> u64 {
        self.rings
            .lock()
            .iter()
            .map(|r| r.ring.lock().dropped[kind as usize])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::{CausalGraph, CausalId, CausalTracer};

    /// A tracer over minimum-capacity rings plus its causal handle.
    fn tracers(trace: bool, causal: bool) -> (Tracer, CausalTracer) {
        let t = Tracer::new(16, trace);
        let c = CausalTracer::new(&t, causal);
        (t, c)
    }

    /// Record one event of each kind through every hook.
    fn record_both(r: &EventRing, arg: u64) {
        r.instant("x", "i", arg);
        let s = r.span_start();
        r.span_end(s, "x", "s", arg);
        let id = CausalId { root: 1, seq: arg };
        r.causal_send(id, 0, 1, 0, 40);
        r.causal_recv(id, 1, 0, 40);
        if let Some(s) = r.causal_start() {
            r.causal_exec_end(id, 1, s);
        }
    }

    #[test]
    fn kinds_toggle_independently_and_off_reads_no_clock() {
        let (t, c) = tracers(false, false);
        let r = t.register(0);
        record_both(&r, 0);
        // Off: the span and exec hooks never captured a start stamp.
        assert!(r.span_start().is_none());
        assert!(r.causal_start().is_none());
        let (tv, cv) = t.snapshot_views();
        assert!(tv[0].events.is_empty() && cv[0].events.is_empty());

        t.set_enabled(true);
        record_both(&r, 1);
        assert!(r.causal_start().is_none(), "trace bit leaves causal off");
        t.set_enabled(false);
        c.set_enabled(true);
        record_both(&r, 2);
        assert!(r.span_start().is_none(), "causal bit leaves trace off");
        assert!(c.enabled() && !t.enabled());

        let (tv, cv) = t.snapshot_views();
        let trace: Vec<(&str, u64)> = tv[0].events.iter().map(|e| (e.kind, e.arg)).collect();
        assert_eq!(trace, vec![("i", 1), ("s", 1)]);
        let causal: Vec<u64> = cv[0].events.iter().map(|e| e.id.seq).collect();
        assert_eq!(
            causal,
            vec![2, 2, 2],
            "send, recv, exec of the causal-on round"
        );
    }

    #[test]
    fn records_instants_and_spans() {
        let t = Tracer::new(64, true);
        let b = t.register(3);
        b.instant("glb", "gift", 7);
        let s = b.span_start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        b.span_end(s, "finish", "FINISH_DENSE", 42);
        let snap = t.snapshot();
        let evs = &snap[0].events;
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].cat, evs[0].kind, evs[0].arg), ("glb", "gift", 7));
        assert_eq!(evs[0].dur_ns, 0);
        assert_eq!(evs[1].kind, "FINISH_DENSE");
        assert!(evs[1].dur_ns >= 1_000_000, "span shorter than the sleep");
        // The span started after the instant was stamped.
        assert!(evs[1].ts_ns >= evs[0].ts_ns);
    }

    #[test]
    fn wrap_keeps_newest_of_each_kind_and_charges_the_evicted_kind() {
        let (t, _c) = tracers(true, true);
        let r = t.register(0);
        let send = |seq| r.causal_send(CausalId { root: 0, seq }, 0, 1, 0, 32);
        // 12 causal events, then 10 trace events: 22 pushes into 16 slots
        // evict the 6 oldest, all causal.
        (0..12).for_each(send);
        (0..10).for_each(|i| r.instant("x", "i", i));
        let (tv, cv) = t.snapshot_views();
        let seqs: Vec<u64> = cv[0].events.iter().map(|e| e.id.seq).collect();
        assert_eq!(seqs, (6..12).collect::<Vec<_>>());
        let args: Vec<u64> = tv[0].events.iter().map(|e| e.arg).collect();
        assert_eq!(args, (0..10).collect::<Vec<_>>());
        assert_eq!((tv[0].dropped, cv[0].dropped), (0, 6));

        // 10 more trace events: the remaining 6 causal and the 4 oldest
        // trace events go.
        (10..20).for_each(|i| r.instant("x", "i", i));
        let (tv, cv) = t.snapshot_views();
        assert!(cv[0].events.is_empty());
        let args: Vec<u64> = tv[0].events.iter().map(|e| e.arg).collect();
        assert_eq!(args, (4..20).collect::<Vec<_>>());
        assert_eq!((tv[0].dropped, cv[0].dropped), (4, 12));
        assert_eq!((t.dropped(Kind::Trace), t.dropped(Kind::Causal)), (4, 12));
        assert_eq!(CausalGraph::build(&cv).dropped, 12);
    }

    #[test]
    fn snapshot_sorts_rings_by_place() {
        let t = Tracer::new(64, true);
        for place in [2, 0, 1] {
            t.register(place).instant("x", "i", place as u64);
        }
        let ids: Vec<(u32, u32)> = t.snapshot().iter().map(|w| (w.place, w.worker)).collect();
        assert_eq!(ids, vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn span_tolerates_disable_between_start_and_end() {
        let t = Tracer::new(64, true);
        let b = t.register(0);
        let s = b.span_start();
        t.set_enabled(false);
        b.span_end(s, "x", "s", 0); // started enabled: still recorded
        assert_eq!(t.snapshot()[0].events.len(), 1);
    }
}
