//! The point-to-point transport API and the in-process back-end.
//!
//! X10RT back-ends (PAMI, MPI, sockets) all provide the same primitive: send
//! an active message to a place, with FIFO ordering *per sender/destination
//! pair*. The APGAS layer builds everything else (finish protocols, teams,
//! clocks, load balancing) on top of that primitive — which is why this crate
//! is deliberately tiny.
//!
//! # Lanes
//!
//! [`LocalTransport`] realizes the API with one *lane* per (sender,
//! destination) pair: a growable lock-free SPSC ring (see [`crate::ring`]).
//! The hot send path is a ring push — no allocation while the lane keeps
//! up — and the receive path bulk-drains whole rings. Per-pair FIFO
//! holds because one sender's messages to one destination all travel the
//! same lane in program order (this is exactly the PAMI guarantee the finish
//! protocols rely on; see `apgas::finish::default_proto`). No ordering holds
//! *across* lanes — a real network reorders freely across routes.
//!
//! Lanes materialize on a pair's first message, at every place count: each
//! sender owns a row of its outgoing lanes keyed by destination, read-locked
//! on every send and write-locked only on first contact, so senders to one
//! receiver never share a lock word. Real communication graphs are sparse —
//! finish protocols talk to a home place, GLB to O(log P) lifelines and a
//! few random victims — so at 4,096 places a run allocates thousands of
//! lanes, not 16.7 M. The `mailbox.lanes_allocated` metric
//! ([`LocalTransport::lanes_allocated`]) counts them, and the status
//! report shows each place's outgoing lanes and the slot bytes they hold
//! ([`Transport::lane_footprint`]).
//!
//! # Ready list
//!
//! The receiver never scans its lanes. Each lane carries a `queued` flag,
//! and each destination a FIFO *ready list* of lanes. A sender that moves
//! `queued` false→true with an `AcqRel` swap appends the lane to the list;
//! every other send to a queued lane appends nothing. A sweep takes the
//! whole list under one lock, then for each lane clears `queued` (again an
//! `AcqRel` swap) *before* draining it. A sweep therefore costs
//! O(non-empty lanes), however many lanes the destination has ever had.
//!
//! Clearing before draining is what makes the edge lose-proof. A send
//! whose swap precedes the clear in the flag's modification order read
//! `true` and appended nothing, but the clear reads that swap's release
//! sequence, so the drain sees its message. A send whose swap follows the
//! clear reads `false` and queues the lane again, even while it is being
//! drained (the lane may then turn up empty in the next sweep, which is
//! harmless). A sweep that runs out of budget puts the lanes it never
//! reached back at the head of the list, still queued, and the lane it
//! stopped in at the tail, so a hot sender cannot starve the others.
//!
//! # Growth
//!
//! A full lane must not block the sender (the worker that would drain it may
//! itself be blocked on this send completing) and must not drop. A lane
//! starts with a [`DEFAULT_RING_CAPACITY`]-slot array (or the capacity given
//! to [`LocalTransport::with_ring_capacity`]); a push that finds it full
//! links an array twice the size behind it, and the receiver frees the old
//! one once drained. FIFO needs no rule of its own: the ring is one queue
//! however many arrays it spans. Growths are counted (`NetStats::
//! total_ring_overflows`, the `mailbox.ring_overflow` metric), so a lane
//! pays for a burst once per doubling and an idle pair costs one small
//! array.
//!
//! # Wakes
//!
//! The lane's `queued` edge is the only wake: the send whose swap moves it
//! false→true, and so appends the lane to the ready list, fires the
//! destination's waker; no other send does. A burst on one lane therefore
//! wakes once, and a burst across several lanes once per lane — debouncing
//! those is the scheduler's job, not the transport's. No wake is lost: a
//! send that read `true` has its message drained by the sweep that clears
//! the flag (see above), and a lane the budget cut short stays queued, so
//! the receiver, which got a full budget, sweeps again without a wake.
//! Each destination's waker is set once, before traffic, and invoked with
//! no lock held, so it may re-enter the transport.

use crate::hash::IntMap;
use crate::message::{Envelope, MsgClass};
use crate::place::PlaceId;
use crate::ring::{SpscRing, DEFAULT_RING_CAPACITY};
use crate::stats::NetStats;
use obs::metrics::{Counter, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A callback invoked when a message arrives for a place, used to wake its
/// worker.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// A failed send: a place at one end of it is dead — the destination's
/// mailbox was closed or, under fault injection, the sender was killed —
/// so the envelope(s) were destroyed. Terminal: a send either lands or
/// fails for good, and retrying can never succeed. Real back-ends surface
/// this as a destination error (PAMI); the upper layers degrade on it (a
/// `finish` reports a dead place instead of hanging, GLB routes around the
/// victim).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SendError {
    /// The dead place.
    pub place: PlaceId,
    /// Envelopes destroyed.
    pub dropped: usize,
}

impl SendError {
    /// `dropped` envelopes destroyed because `place` is dead.
    pub fn dead(place: PlaceId, dropped: usize) -> Self {
        SendError { place, dropped }
    }
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "place {} is dead", self.place)
    }
}

impl std::error::Error for SendError {}

/// Point-to-point transport between places.
///
/// Implementations must deliver messages between any fixed (sender,
/// destination) pair in order; no ordering is guaranteed across pairs (a real
/// network reorders freely across routes — the paper's default finish
/// protocol is designed for exactly this).
pub trait Transport: Send + Sync {
    /// Enqueue a message for delivery. Never blocks. The only failure is a
    /// dead destination (see [`SendError`]).
    fn send(&self, env: Envelope) -> Result<(), SendError>;

    /// Poll for the next message addressed to `place`. Non-blocking.
    fn try_recv(&self, place: PlaceId) -> Option<Envelope>;

    /// Drain up to `max` messages addressed to `place` into `out`,
    /// returning how many were appended. Non-blocking. The default loops
    /// [`Transport::try_recv`]; back-ends override it to drain in bulk.
    fn try_recv_batch(&self, place: PlaceId, max: usize, out: &mut Vec<Envelope>) -> usize {
        let mut n = 0;
        while n < max {
            match self.try_recv(place) {
                Some(env) => {
                    out.push(env);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Register the waker invoked when a message is enqueued for `place`.
    /// Once per place, before traffic: a second registration is ignored.
    /// Implementations may debounce: sends that find `place`'s queue
    /// already ready may fire no wake.
    fn register_waker(&self, place: PlaceId, waker: Waker);

    /// Shared statistics counters.
    fn stats(&self) -> &NetStats;

    /// Number of places this transport connects.
    fn num_places(&self) -> usize;

    /// Number of messages currently queued for `place` (status reports,
    /// the schedule controller's enabled-step check, tests).
    fn queue_len(&self, place: PlaceId) -> usize;

    /// The lanes `from` has opened to other places and the slot bytes they
    /// hold, computed on demand (status reports). Zero for back-ends without
    /// per-pair lanes.
    fn lane_footprint(&self, _from: PlaceId) -> (usize, usize) {
        (0, 0)
    }

    /// Mirror this transport's own counters into `metrics`. The runtime
    /// calls it once, before any worker runs, on whatever transport it was
    /// built over; decorators and wrappers forward it to the transport they
    /// hold. The default has nothing to mirror.
    fn wire_obs(&self, _metrics: &MetricsRegistry) {}

    /// Kill `place`: its mailbox black-holes (pending and future traffic is
    /// destroyed) and subsequent sends to it fail with [`SendError`].
    /// Irreversible. The default is a no-op for back-ends without failure
    /// support.
    fn kill_place(&self, _place: PlaceId) {}

    /// Has `place` been killed?
    fn is_dead(&self, _place: PlaceId) -> bool {
        false
    }

    /// All places killed so far, ascending.
    fn dead_places(&self) -> Vec<PlaceId> {
        Vec::new()
    }
}

/// One (sender place, destination place) channel.
struct Lane {
    ring: SpscRing<Envelope>,
    /// True while the lane is on its destination's ready list (or taken off
    /// it by a sweep that has not cleared the flag yet). See the module docs.
    queued: AtomicBool,
}

/// Lanes in the order they became ready.
type ReadyList = VecDeque<Arc<Lane>>;

/// One sender's outgoing lanes, keyed by destination.
type LaneRow = RwLock<IntMap<u32, Arc<Lane>>>;

/// Per-destination receive state, cache-line isolated from its neighbours.
#[repr(align(64))]
struct RecvState {
    /// Fired by the send that queues a lane (module docs). Set once.
    waker: OnceLock<Waker>,
    /// Set when the place is killed: the lanes are purged, receive paths
    /// return nothing, and sends fail with [`SendError`].
    closed: AtomicBool,
    /// Lanes holding messages, appended by the sender that queued them.
    ready: Mutex<ReadyList>,
    /// Mirror of `ready`'s length, so an empty poll takes no lock.
    ready_len: AtomicUsize,
    /// The list a sweep is working through, swapped with `ready` so both
    /// buffers keep their capacity. Held for the whole sweep: it serializes
    /// sweeps and the kill-time purge, so each lane sees one consumer.
    draining: Mutex<ReadyList>,
}

/// In-process transport: a growable lock-free SPSC ring lane per (sender,
/// receiver) pair, per-destination ready lists, a wake per lane ready edge
/// and bulk sweep drain.
pub struct LocalTransport {
    places: usize,
    ring_capacity: usize,
    /// Row `s` holds sender `s`'s lanes.
    lanes: Box<[LaneRow]>,
    recv: Box<[RecvState]>,
    stats: NetStats,
    /// Observability mirror of the ring-growth counter (sharded by sender),
    /// set once by [`Transport::wire_obs`].
    growth_obs: OnceLock<Counter>,
    /// Observability mirror of [`Self::lanes_allocated`] (sharded by
    /// sender), set with `growth_obs`.
    lanes_obs: OnceLock<Counter>,
}

impl LocalTransport {
    /// A transport connecting `places` places with the default per-lane ring
    /// capacity ([`DEFAULT_RING_CAPACITY`]).
    pub fn new(places: usize) -> Self {
        Self::with_ring_capacity(places, DEFAULT_RING_CAPACITY)
    }

    /// A transport whose lanes start with `ring_capacity` slots (rounded up
    /// to a power of two). Lanes are allocated on a pair's first message.
    pub fn with_ring_capacity(places: usize, ring_capacity: usize) -> Self {
        assert!(places > 0);
        let recv = (0..places)
            .map(|_| RecvState {
                waker: OnceLock::new(),
                closed: AtomicBool::new(false),
                ready: Mutex::new(VecDeque::new()),
                ready_len: AtomicUsize::new(0),
                draining: Mutex::new(VecDeque::new()),
            })
            .collect();
        LocalTransport {
            places,
            ring_capacity: ring_capacity.next_power_of_two().max(2),
            lanes: (0..places).map(|_| RwLock::default()).collect(),
            recv,
            stats: NetStats::new(places),
            growth_obs: OnceLock::new(),
            lanes_obs: OnceLock::new(),
        }
    }

    /// How many (sender, receiver) lanes are backed by storage: one per
    /// pair that has communicated — the number the
    /// `mailbox.lanes_allocated` metric mirrors. Walks every sender's row.
    pub fn lanes_allocated(&self) -> usize {
        self.lanes.iter().map(|row| row.read().len()).sum()
    }

    /// Run `f` on the lane for `(from, to)`, materializing it on first
    /// contact. The sender's row is read-locked on the hot path; the write
    /// lock is taken only to insert a new lane (`entry` re-checks, since two
    /// threads pushing for one sender can both miss the read probe).
    fn with_lane<R>(&self, from: usize, to: u32, f: impl FnOnce(&Arc<Lane>) -> R) -> R {
        let row = &self.lanes[from];
        if let Some(lane) = row.read().get(&to) {
            return f(lane);
        }
        let mut row = row.write();
        let lane = row.entry(to).or_insert_with(|| {
            if let Some(c) = self.lanes_obs.get() {
                c.inc(from as u32);
            }
            Arc::new(Lane {
                ring: SpscRing::new(self.ring_capacity),
                queued: AtomicBool::new(false),
            })
        });
        f(lane)
    }

    /// Count this envelope: one physical envelope always; one logical
    /// message unless it is a batch (whose inner messages were counted by
    /// the coalescer at pack time).
    fn record(&self, env: &Envelope) {
        self.stats.record_envelope(env.from.0, env.bytes);
        if env.class != MsgClass::Batch {
            self.stats
                .record_send(env.from.0, env.to.0, env.class, env.bytes);
        }
    }

    /// Enqueue `env` on its lane's ring (counting a growth), then queue the
    /// lane on the destination's ready list if this push won the `queued`
    /// edge. Returns whether it did — the caller then owes the destination
    /// its one wake.
    fn push_lane(&self, env: Envelope) -> bool {
        let (from, to) = (env.from.0, env.to.index());
        self.with_lane(env.from.index(), env.to.0, |lane| {
            let Ok(grew) = lane.ring.push(env);
            if grew {
                self.stats.record_ring_overflow(from);
                if let Some(c) = self.growth_obs.get() {
                    c.inc(from);
                }
            }
            if lane.queued.swap(true, Ordering::AcqRel) {
                return false;
            }
            let rs = &self.recv[to];
            let mut ready = rs.ready.lock();
            ready.push_back(lane.clone());
            rs.ready_len.store(ready.len(), Ordering::Release);
            true
        })
    }

    /// One pass over destination `r`'s ready lanes, in the order they became
    /// ready: take the whole list under one lock, then clear each lane's
    /// `queued` flag and drain it, all under the `draining` lock.
    ///
    /// A lane cut short by the budget goes to the back of the list, behind
    /// the other ready lanes — or, with `resume`, to the front, so that
    /// one-message polls drain a lane before moving on instead of
    /// alternating senders message by message.
    fn sweep(&self, r: usize, budget: usize, out: &mut Vec<Envelope>, resume: bool) -> usize {
        let rs = &self.recv[r];
        // Nothing ready: no lock. A lane queued after this load wakes the
        // receiver, as one queued after the take would.
        if rs.ready_len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut batch = rs.draining.lock();
        {
            let mut ready = rs.ready.lock();
            std::mem::swap(&mut *ready, &mut *batch);
            rs.ready_len.store(0, Ordering::Release);
        }
        let mut total = 0;
        while let Some(lane) = batch.pop_front() {
            // Clear before draining: a push that misses this drain re-queues
            // the lane itself (module docs).
            lane.queued.swap(false, Ordering::AcqRel);
            total += lane.ring.pop_many(budget - total, out);
            if total >= budget {
                // Out of budget. The lanes not reached keep their place
                // ahead of anything queued meanwhile; the lane cut short is
                // re-queued unless a sender has done so already.
                let mut ready = rs.ready.lock();
                batch.append(&mut ready);
                std::mem::swap(&mut *ready, &mut *batch);
                if !lane.ring.is_empty() && !lane.queued.swap(true, Ordering::AcqRel) {
                    if resume {
                        ready.push_front(lane);
                    } else {
                        ready.push_back(lane);
                    }
                }
                rs.ready_len.store(ready.len(), Ordering::Release);
                break;
            }
        }
        total
    }

    /// Receive up to `max` envelopes for `r`: one sweep (see [`Self::sweep`]
    /// for `resume`), nothing once the place is dead.
    fn recv(&self, r: usize, max: usize, out: &mut Vec<Envelope>, resume: bool) -> usize {
        if self.recv[r].closed.load(Ordering::Acquire) {
            return 0;
        }
        self.sweep(r, max, out, resume)
    }
}

impl Transport for LocalTransport {
    fn send(&self, env: Envelope) -> Result<(), SendError> {
        debug_assert!(env.to.index() < self.places, "bad destination");
        debug_assert!(env.from.index() < self.places, "bad sender");
        let to = env.to.index();
        if self.recv[to].closed.load(Ordering::Acquire) {
            return Err(SendError::dead(env.to, 1));
        }
        self.record(&env);
        if self.push_lane(env) {
            if let Some(w) = self.recv[to].waker.get() {
                w();
            }
        }
        Ok(())
    }

    fn try_recv(&self, place: PlaceId) -> Option<Envelope> {
        let mut out = Vec::with_capacity(1);
        self.recv(place.index(), 1, &mut out, true);
        out.pop()
    }

    fn try_recv_batch(&self, place: PlaceId, max: usize, out: &mut Vec<Envelope>) -> usize {
        self.recv(place.index(), max, out, false)
    }

    fn register_waker(&self, place: PlaceId, waker: Waker) {
        let _ = self.recv[place.index()].waker.set(waker);
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn num_places(&self) -> usize {
        self.places
    }

    fn queue_len(&self, place: PlaceId) -> usize {
        let rs = &self.recv[place.index()];
        if rs.closed.load(Ordering::Acquire) {
            return 0;
        }
        rs.ready.lock().iter().map(|lane| lane.ring.len()).sum()
    }

    fn lane_footprint(&self, from: PlaceId) -> (usize, usize) {
        let row = self.lanes[from.index()].read();
        let bytes = row.values().map(|lane| lane.ring.slot_bytes()).sum();
        (row.len(), bytes)
    }

    /// Mirror ring growths and lane materializations, resolving the
    /// counters once so the hot paths stay one relaxed increment. Lanes
    /// created before the call are caught up: every row is write-locked
    /// while the counter is installed, so a lane inserted concurrently is
    /// counted either here or by its inserter, never both.
    fn wire_obs(&self, metrics: &MetricsRegistry) {
        let _ = self
            .growth_obs
            .set(metrics.counter(obs::names::MAILBOX_RING_OVERFLOW));
        let rows: Vec<_> = self.lanes.iter().map(|row| row.write()).collect();
        let lanes = metrics.counter(obs::names::MAILBOX_LANES_ALLOCATED);
        if self.lanes_obs.set(lanes.clone()).is_ok() {
            let already: usize = rows.iter().map(|row| row.len()).sum();
            if already > 0 {
                lanes.add(0, already as u64);
            }
        }
    }

    fn kill_place(&self, place: PlaceId) {
        let r = place.index();
        // Order matters: close first, then purge, so a concurrent send
        // either observed `closed` (and failed) or landed before the purge
        // (and is destroyed with the rest). A straggler
        // that slips a message in after the purge is harmless: every
        // receive path gates on `closed`, so it is never delivered, and it
        // is freed when the transport drops.
        self.recv[r].closed.store(true, Ordering::Release);
        // Wait out a sweep in flight: it may put back a lane it cut short
        // after the purge's first look at the empty list.
        drop(self.recv[r].draining.lock());
        let mut sink = Vec::new();
        while self.sweep(r, usize::MAX, &mut sink, false) > 0 {
            sink.clear();
        }
    }

    fn is_dead(&self, place: PlaceId) -> bool {
        self.recv[place.index()].closed.load(Ordering::Acquire)
    }

    fn dead_places(&self) -> Vec<PlaceId> {
        (0..self.places)
            .filter(|&i| self.recv[i].closed.load(Ordering::Acquire))
            .map(|i| PlaceId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn env(from: u32, to: u32, tag: u64) -> Envelope {
        Envelope::new(PlaceId(from), PlaceId(to), MsgClass::Task, 8, Box::new(tag))
    }

    #[test]
    fn delivers_point_to_point() {
        let t = LocalTransport::new(3);
        t.send(env(0, 2, 7)).unwrap();
        assert!(t.try_recv(PlaceId(1)).is_none());
        let got = t.try_recv(PlaceId(2)).expect("message for place 2");
        assert_eq!(*got.payload.downcast::<u64>().unwrap(), 7);
        assert!(t.try_recv(PlaceId(2)).is_none());
    }

    #[test]
    fn per_pair_fifo_order() {
        let t = LocalTransport::new(2);
        for i in 0..100u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        for i in 0..100u64 {
            let got = t.try_recv(PlaceId(1)).unwrap();
            assert_eq!(*got.payload.downcast::<u64>().unwrap(), i);
        }
    }

    const SLOT: usize = std::mem::size_of::<Envelope>();

    #[test]
    fn per_pair_fifo_across_growth() {
        // A first array of 4: the burst links arrays of 8, 16, 32 and 64,
        // and order must survive every link.
        let t = LocalTransport::with_ring_capacity(2, 4);
        for i in 0..100u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        assert_eq!(t.stats().total_ring_overflows(), 4, "one count per growth");
        assert_eq!(t.queue_len(PlaceId(1)), 100);
        for i in 0..100u64 {
            let got = t.try_recv(PlaceId(1)).unwrap();
            assert_eq!(*got.payload.downcast::<u64>().unwrap(), i);
        }
        assert!(t.try_recv(PlaceId(1)).is_none());
        // Drained, the lane holds only its newest array.
        assert_eq!(t.lane_footprint(PlaceId(0)), (1, 64 * SLOT));
    }

    #[test]
    fn lane_that_keeps_up_never_grows() {
        let t = LocalTransport::new(3);
        let mut out = Vec::new();
        for burst in 0..4 * DEFAULT_RING_CAPACITY as u64 {
            for i in 0..burst % (DEFAULT_RING_CAPACITY as u64 + 1) {
                t.send(env(0, 1, i)).unwrap();
                t.send(env(0, 2, i)).unwrap();
            }
            t.try_recv_batch(PlaceId(1), usize::MAX, &mut out);
            t.try_recv_batch(PlaceId(2), usize::MAX, &mut out);
        }
        assert_eq!(t.stats().total_ring_overflows(), 0);
        let held = 2 * DEFAULT_RING_CAPACITY * SLOT;
        assert_eq!(t.lane_footprint(PlaceId(0)), (2, held));
        assert_eq!(t.lane_footprint(PlaceId(1)), (0, 0), "place 1 never sent");
    }

    #[test]
    fn waker_debounced_per_burst() {
        let t = LocalTransport::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        t.register_waker(
            PlaceId(1),
            Arc::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        // A burst on one lane wakes once: only the send that queues it.
        t.send(env(0, 1, 0)).unwrap();
        t.send(env(0, 1, 1)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // The first send on a second lane queues that lane and wakes again,
        // with nothing drained in between.
        t.send(env(2, 1, 2)).unwrap();
        t.send(env(2, 1, 3)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        // A sweep clears both lanes' edges, so the next send wakes again.
        let mut out = Vec::new();
        assert_eq!(t.try_recv_batch(PlaceId(1), usize::MAX, &mut out), 4);
        t.send(env(0, 1, 4)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        assert!(t.try_recv(PlaceId(1)).is_some());
    }

    #[test]
    fn waker_may_reenter_transport() {
        // The waker is invoked with no lock held, so a waker that touches
        // the transport (here: registering another waker) cannot deadlock.
        // That second registration is ignored: the first waker stays.
        let t = Arc::new(LocalTransport::new(2));
        let hits = Arc::new(AtomicUsize::new(0));
        let (t2, h) = (t.clone(), hits.clone());
        t.register_waker(
            PlaceId(1),
            Arc::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
                let h2 = h.clone();
                t2.register_waker(
                    PlaceId(1),
                    Arc::new(move || {
                        h2.fetch_add(100, Ordering::SeqCst);
                    }),
                );
            }),
        );
        t.send(env(0, 1, 0)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(t.try_recv(PlaceId(1)).is_some());
        t.send(env(0, 1, 1)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2, "the first waker stays");
    }

    #[test]
    fn stats_accumulate() {
        let t = LocalTransport::new(2);
        t.send(env(0, 1, 0)).unwrap();
        assert_eq!(t.stats().class(MsgClass::Task).messages, 1);
        assert_eq!(t.stats().total_envelopes(), 1);
        assert_eq!(t.queue_len(PlaceId(1)), 1);
    }

    #[test]
    fn interleaved_sends_preserve_order_and_counts() {
        let t = LocalTransport::new(3);
        for i in 0..10u64 {
            t.send(env(0, 1 + (i % 2) as u32, i)).unwrap();
        }
        // Per-destination order is send order.
        for want in [0u64, 2, 4, 6, 8] {
            let got = t.try_recv(PlaceId(1)).unwrap();
            assert_eq!(*got.payload.downcast::<u64>().unwrap(), want);
        }
        for want in [1u64, 3, 5, 7, 9] {
            let got = t.try_recv(PlaceId(2)).unwrap();
            assert_eq!(*got.payload.downcast::<u64>().unwrap(), want);
        }
        assert_eq!(t.stats().total_messages(), 10);
        assert_eq!(t.stats().total_envelopes(), 10);
    }

    #[test]
    fn try_recv_batch_drains_in_order() {
        let t = LocalTransport::new(2);
        for i in 0..10u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(t.try_recv_batch(PlaceId(1), 4, &mut out), 4);
        assert_eq!(t.try_recv_batch(PlaceId(1), 100, &mut out), 6);
        assert_eq!(t.try_recv_batch(PlaceId(1), 100, &mut out), 0);
        for (i, e) in out.into_iter().enumerate() {
            assert_eq!(*e.payload.downcast::<u64>().unwrap(), i as u64);
        }
    }

    #[test]
    fn batch_envelope_counts_once_physically() {
        let t = LocalTransport::new(2);
        let inner: Vec<Envelope> = (0..4u64).map(|i| env(0, 1, i)).collect();
        t.send(Envelope::batch(PlaceId(0), PlaceId(1), inner))
            .unwrap();
        // The transport only counts the physical envelope; logical counts
        // for the inner messages are the coalescer's job.
        assert_eq!(t.stats().total_envelopes(), 1);
        assert_eq!(t.stats().total_messages(), 0);
        let got = t.try_recv(PlaceId(1)).unwrap();
        let envs = got.unbatch().expect("batch");
        assert_eq!(envs.len(), 4);
    }

    #[test]
    fn send_to_dead_place_returns_typed_error() {
        let t = LocalTransport::new(3);
        t.send(env(0, 1, 0)).unwrap();
        t.send(env(2, 1, 1)).unwrap();
        t.kill_place(PlaceId(1));
        // Pending traffic is destroyed; the mailbox black-holes.
        assert_eq!(t.queue_len(PlaceId(1)), 0);
        assert!(t.try_recv(PlaceId(1)).is_none());
        let err = t.send(env(0, 1, 1)).unwrap_err();
        assert_eq!(err, SendError::dead(PlaceId(1), 1));
        assert!(t.is_dead(PlaceId(1)));
        assert!(!t.is_dead(PlaceId(2)));
        assert_eq!(t.dead_places(), vec![PlaceId(1)]);
        // Other places are unaffected.
        t.send(env(0, 2, 9)).unwrap();
        assert!(t.try_recv(PlaceId(2)).is_some());
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        // Eight threads, two per sender place, all making first contact
        // with one receiver at once: each lane is created exactly once, and
        // threads sharing a lane serialize on its ring guard.
        let t = Arc::new(LocalTransport::new(5));
        let mut handles = vec![];
        for s in 0..8u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    t.send(env((s % 4) as u32, 4, s << 32 | i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.lanes_allocated(), 4);
        let mut n = 0;
        while t.try_recv(PlaceId(4)).is_some() {
            n += 1;
        }
        assert_eq!(n, 4000);
    }

    #[test]
    fn round_robin_sweep_interleaves_senders() {
        // Three senders, bulk drain: every sender's run arrives FIFO, and
        // the receiver sees all of them however the sweep interleaves.
        let t = LocalTransport::new(4);
        for i in 0..30u64 {
            t.send(env((i % 3) as u32, 3, i)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(t.try_recv_batch(PlaceId(3), usize::MAX, &mut out), 30);
        let mut per_sender: [Vec<u64>; 3] = Default::default();
        for e in out {
            let tag = *e.payload.downcast::<u64>().unwrap();
            per_sender[(tag % 3) as usize].push(tag);
        }
        for (s, tags) in per_sender.iter().enumerate() {
            let want: Vec<u64> = (0..30).filter(|i| i % 3 == s as u64).collect();
            assert_eq!(tags, &want, "sender {s} order broken");
        }
    }

    #[test]
    fn queue_len_counts_across_linked_arrays() {
        // 4 envelopes in the first array, 6 in the linked array of 8.
        let t = LocalTransport::with_ring_capacity(2, 4);
        for i in 0..10u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        assert_eq!(t.lane_footprint(PlaceId(0)), (1, 12 * SLOT));
        assert_eq!(t.queue_len(PlaceId(1)), 10);
        let mut out = Vec::new();
        for (take, left) in [(1, 9), (3, 6), (1, 5), (5, 0)] {
            assert_eq!(t.try_recv_batch(PlaceId(1), take, &mut out), take);
            assert_eq!(t.queue_len(PlaceId(1)), left);
        }
        // The first array was freed when the receiver crossed the link.
        assert_eq!(t.lane_footprint(PlaceId(0)), (1, 8 * SLOT));
    }

    #[test]
    fn lanes_materialize_on_first_contact() {
        let t = LocalTransport::new(16);
        assert_eq!(t.lanes_allocated(), 0, "no traffic, no lanes");
        for s in [3u32, 9, 14] {
            t.send(env(s, 7, u64::from(s))).unwrap();
        }
        assert_eq!(t.lanes_allocated(), 3, "one lane per talking pair");
        // Repeat traffic on an existing pair creates nothing.
        t.send(env(3, 7, 99)).unwrap();
        assert_eq!(t.lanes_allocated(), 3);
        // A new pair — even a familiar sender — creates exactly one more.
        t.send(env(3, 8, 1)).unwrap();
        assert_eq!(t.lanes_allocated(), 4);
        let mut got = 0;
        while t.try_recv(PlaceId(7)).is_some() {
            got += 1;
        }
        assert_eq!(got, 4);
    }

    #[test]
    fn lane_over_budget_requeues_behind_other_ready_lanes() {
        // Sender 0 is hot; senders 1 and 2 each queue one message after it.
        let t = LocalTransport::new(4);
        for i in 0..10u64 {
            t.send(env(0, 3, i)).unwrap();
        }
        t.send(env(1, 3, 100)).unwrap();
        t.send(env(2, 3, 200)).unwrap();
        let tags = |out: &mut Vec<Envelope>| -> Vec<u64> {
            out.drain(..)
                .map(|e| *e.payload.downcast::<u64>().unwrap())
                .collect()
        };
        let mut out = Vec::new();
        assert_eq!(t.try_recv_batch(PlaceId(3), 4, &mut out), 4);
        assert_eq!(tags(&mut out), [0, 1, 2, 3]);
        // The cut-short lane went to the back: the others drain first.
        assert_eq!(t.try_recv_batch(PlaceId(3), 3, &mut out), 3);
        assert_eq!(tags(&mut out), [100, 200, 4]);
        assert_eq!(t.try_recv_batch(PlaceId(3), 100, &mut out), 5);
        assert_eq!(tags(&mut out), [5, 6, 7, 8, 9]);
    }

    #[test]
    fn message_sent_while_its_lane_drains_is_delivered() {
        // The receiver sweeps only when woken, as a parked worker does; the
        // sender sends short bursts and waits for each to arrive, so its
        // pushes keep landing in a lane the sweep has just taken. A push
        // lost on that edge strands its burst: no wake ever comes.
        use parking_lot::Condvar;
        use std::time::{Duration, Instant};
        const ROUNDS: u64 = 50_000;
        let t = Arc::new(LocalTransport::with_ring_capacity(2, 4));
        let signal = Arc::new((Mutex::new(false), Condvar::new()));
        let s = signal.clone();
        t.register_waker(
            PlaceId(1),
            Arc::new(move || {
                *s.0.lock() = true;
                s.1.notify_one();
            }),
        );
        let received = Arc::new(AtomicUsize::new(0));
        let (ts, rx) = (t.clone(), received.clone());
        let sender = std::thread::spawn(move || {
            let mut sent = 0;
            for round in 0..ROUNDS {
                for _ in 0..1 + round % 6 {
                    ts.send(env(0, 1, sent as u64)).unwrap();
                    sent += 1;
                }
                let deadline = Instant::now() + Duration::from_secs(60);
                while rx.load(Ordering::Acquire) < sent && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            sent
        });
        let total = (0..ROUNDS).map(|r| 1 + r % 6).sum::<u64>() as usize;
        let mut out = Vec::new();
        let mut next = 0u64;
        while (next as usize) < total {
            {
                let mut woken = signal.0.lock();
                if !*woken {
                    let wait = signal.1.wait_for(&mut woken, Duration::from_secs(5));
                    assert!(!wait.timed_out(), "lost wake after {next} messages");
                }
                *woken = false;
            }
            // Sweep until one leaves budget unused: a lane the budget cut
            // short stays queued, and its next send wakes nobody.
            while t.try_recv_batch(PlaceId(1), 3, &mut out) == 3 {}
            for e in out.drain(..) {
                assert_eq!(*e.payload.downcast::<u64>().unwrap(), next);
                next += 1;
            }
            received.store(next as usize, Ordering::Release);
        }
        assert_eq!(sender.join().unwrap(), total);
    }
}
