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
//! destination) pair: a bounded lock-free SPSC ring (see [`crate::ring`])
//! backed by an overflow side-queue. The hot send path is a ring push — no
//! allocation — and the receive path bulk-drains whole rings. Per-pair FIFO
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
//! ([`LocalTransport::lanes_allocated`]) counts them.
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
//! # Overflow side-queue
//!
//! A full ring must not block the sender (the worker that would drain it may
//! itself be blocked on this send completing) and must not drop. When a push
//! finds the ring full, the envelope diverts to the lane's mutex-protected
//! overflow deque and the lane stays in *overflow mode* — subsequent sends
//! append to the overflow, never the ring, until the receiver has drained
//! the overflow empty. That rule is what preserves FIFO: ring items are
//! always older than overflow items, so the receiver drains ring-then-
//! overflow. Overflow engagements are counted (`NetStats::
//! total_ring_overflows`, the `mailbox.ring_overflow` metric); a workload
//! that lives in overflow mode needs a bigger ring capacity
//! ([`LocalTransport::with_ring_capacity`]), not a faster mutex.
//!
//! # Waker debouncing
//!
//! Only the sender that queued a lane wakes the destination, and through a
//! per-destination `notified` flag: it fires the waker only on the
//! false→true edge of an `AcqRel` swap, so a burst across several lanes
//! still costs one wake. The *receiver* re-arms the flag when a sweep
//! leaves budget unused — also with a `swap` — and then re-checks the
//! ready list's length. The two swaps on the same flag are totally
//! ordered, and RMWs extend release sequences, so either the sender's swap
//! observes the re-arm (and fires) or the receiver's re-arm acquires the
//! sender's append (and the re-check sees it). Spurious wakes are possible;
//! lost wakes are not. An idle worker's park is bounded by the runtime's
//! `park_timeout`, so even a misused waker costs a delay, not a hang.

use crate::hash::IntMap;
use crate::message::{Envelope, MsgClass};
use crate::place::PlaceId;
use crate::ring::{spin_lock, SpscRing, DEFAULT_RING_CAPACITY};
use crate::stats::NetStats;
use obs::metrics::{Counter, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A callback invoked when a message arrives for a place, used to unpark its
/// worker thread(s).
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// Why a send could not be completed.
///
/// Real back-ends fail in exactly two shapes: *terminally* (the peer is gone
/// — PAMI surfaces this as a destination error) and *transiently* (the
/// injection FIFO is full and the NIC pushes back). The upper layers treat
/// them very differently: transient rejections are retried with backoff (see
/// [`crate::coalesce::Coalescer`]), terminal failures are surfaced so the
/// protocol layer can degrade (a `finish` reports a dead place instead of
/// hanging, GLB routes around the victim).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The destination place is dead (its mailbox was closed). Terminal:
    /// retrying can never succeed.
    PlaceDead {
        /// The dead destination.
        place: PlaceId,
    },
    /// The transport transiently refused the message (modeled injection-FIFO
    /// backpressure). Retryable.
    Rejected {
        /// The refusing destination.
        place: PlaceId,
    },
    /// Bounded retry gave up without the message being accepted.
    Timeout {
        /// The destination that kept refusing.
        place: PlaceId,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PlaceDead { place } => write!(f, "destination {place} is dead"),
            TransportError::Rejected { place } => {
                write!(f, "send to {place} transiently rejected")
            }
            TransportError::Timeout { place } => {
                write!(f, "send to {place} timed out after bounded retry")
            }
        }
    }
}

impl TransportError {
    /// The destination place the failure concerns.
    pub fn place(&self) -> PlaceId {
        match *self {
            TransportError::PlaceDead { place }
            | TransportError::Rejected { place }
            | TransportError::Timeout { place } => place,
        }
    }
}

impl std::error::Error for TransportError {}

/// A failed send: the error plus what happened to the envelope(s).
///
/// Envelopes in `retry` were *not* consumed and may be resubmitted (only
/// transient [`TransportError::Rejected`] failures return them); `dropped`
/// counts envelopes destroyed outright (sends to a dead place black-hole).
#[derive(Debug)]
pub struct SendError {
    /// The first error encountered.
    pub error: TransportError,
    /// Envelopes eligible for retry (empty for terminal failures).
    pub retry: Vec<Envelope>,
    /// Envelopes destroyed (e.g. addressed to a dead place).
    pub dropped: usize,
}

impl SendError {
    /// A terminal dead-place failure that destroyed `dropped` envelopes.
    pub fn dead(place: PlaceId, dropped: usize) -> Self {
        SendError {
            error: TransportError::PlaceDead { place },
            retry: Vec::new(),
            dropped,
        }
    }

    /// Total envelopes this failure affected (destroyed or returned).
    pub fn affected(&self) -> usize {
        self.dropped + self.retry.len()
    }

    /// The destination place the failure concerns.
    pub fn place(&self) -> PlaceId {
        self.error.place()
    }
}

/// Point-to-point transport between places.
///
/// Implementations must deliver messages between any fixed (sender,
/// destination) pair in order; no ordering is guaranteed across pairs (a real
/// network reorders freely across routes — the paper's default finish
/// protocol is designed for exactly this).
pub trait Transport: Send + Sync {
    /// Enqueue a message for delivery. Never blocks. A send to a dead place
    /// fails with [`TransportError::PlaceDead`]; a transiently refused
    /// message comes back in [`SendError::retry`] for resubmission.
    fn send(&self, env: Envelope) -> Result<(), SendError>;

    /// Enqueue several messages for delivery, preserving their order per
    /// (sender, destination) pair. The default loops [`Transport::send`];
    /// back-ends override it to amortize per-message submission costs.
    ///
    /// On failure the whole batch is still attempted (skipping a failed
    /// envelope cannot break per-pair FIFO for the ones that follow it only
    /// when the failure is terminal for that destination; transient
    /// rejections therefore return the refused envelope *and* every later
    /// same-destination envelope in `retry`, in order). The default
    /// implementation keeps this property by funneling each envelope through
    /// [`Transport::send`] and routing later same-destination envelopes
    /// straight to `retry` once one was refused.
    fn send_batch(&self, envs: Vec<Envelope>) -> Result<(), SendError> {
        let mut first: Option<TransportError> = None;
        let mut retry: Vec<Envelope> = Vec::new();
        let mut dropped = 0usize;
        // Destinations with a transiently refused envelope: later envelopes
        // to the same destination must queue behind it, not overtake it.
        let mut refused: Vec<PlaceId> = Vec::new();
        for env in envs {
            if refused.contains(&env.to) {
                retry.push(env);
                continue;
            }
            match self.send(env) {
                Ok(()) => {}
                Err(e) => {
                    if first.is_none() {
                        first = Some(e.error);
                    }
                    if let TransportError::Rejected { place } = e.error {
                        if !refused.contains(&place) {
                            refused.push(place);
                        }
                    }
                    retry.extend(e.retry);
                    dropped += e.dropped;
                }
            }
        }
        match first {
            None => Ok(()),
            Some(error) => Err(SendError {
                error,
                retry,
                dropped,
            }),
        }
    }

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

    /// Register a waker invoked when a message is enqueued for `place`.
    /// Implementations may debounce: a burst of sends while the place has
    /// not yet drained its queue may fire the waker only once.
    fn register_waker(&self, place: PlaceId, waker: Waker);

    /// Shared statistics counters.
    fn stats(&self) -> &NetStats;

    /// Number of places this transport connects.
    fn num_places(&self) -> usize;

    /// Number of messages currently queued for `place` (diagnostics and the
    /// scheduler's pre-park re-check).
    fn queue_len(&self, place: PlaceId) -> usize;

    /// Kill `place`: its mailbox black-holes (pending and future traffic is
    /// destroyed) and subsequent sends to it fail with
    /// [`TransportError::PlaceDead`]. Irreversible. The default is a no-op
    /// for back-ends without failure support.
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

/// One (sender place, destination place) channel: a lock-free ring plus the
/// overflow side-queue that catches what the ring cannot hold.
struct Lane {
    ring: SpscRing<Envelope>,
    /// Overflow side-queue — only touched when the ring fills (or until the
    /// receiver has drained a previous overflow empty). Deliberately a
    /// mutex: this is the documented escape hatch, not the fast path.
    overflow: Mutex<VecDeque<Envelope>>,
    /// Mirror of the overflow queue length, written under the mutex, so the
    /// fast path can check "overflow engaged?" with one relaxed-cost load.
    overflow_len: AtomicUsize,
    /// True while the lane is on its destination's ready list (or taken off
    /// it by a sweep that has not cleared the flag yet). See the module docs.
    queued: AtomicBool,
}

impl Lane {
    fn new(ring_capacity: usize) -> Self {
        Lane {
            ring: SpscRing::new(ring_capacity),
            overflow: Mutex::new(VecDeque::new()),
            overflow_len: AtomicUsize::new(0),
            queued: AtomicBool::new(false),
        }
    }

    /// Messages queued in this lane (approximate under concurrency).
    fn len(&self) -> usize {
        self.ring.len() + self.overflow_len.load(Ordering::Acquire)
    }

    /// Any message queued in this lane?
    fn is_active(&self) -> bool {
        !self.ring.is_empty() || self.overflow_len.load(Ordering::Acquire) != 0
    }
}

/// Lanes in the order they became ready.
type ReadyList = VecDeque<Arc<Lane>>;

/// One sender's outgoing lanes, keyed by destination.
type LaneRow = RwLock<IntMap<u32, Arc<Lane>>>;

/// Per-destination receive state, cache-line isolated from its neighbours.
#[repr(align(64))]
struct RecvState {
    /// Waker debounce: true while the place has been notified of pending
    /// traffic and has not yet drained to empty.
    notified: AtomicBool,
    /// Set when the place is killed: the lanes are purged, receive paths
    /// return nothing, and sends fail with [`TransportError::PlaceDead`].
    closed: AtomicBool,
    /// Consumer spin guard: serializes sweeps (and the kill-time purge) so
    /// each destination's lanes see one consumer.
    sweep_guard: AtomicBool,
    /// Lanes holding messages, appended by the sender that queued them.
    ready: Mutex<ReadyList>,
    /// Mirror of `ready`'s length, for the re-arm re-check.
    ready_len: AtomicUsize,
    /// The list a sweep is working through, swapped with `ready` so both
    /// buffers keep their capacity. Locked only under `sweep_guard`.
    draining: Mutex<ReadyList>,
}

/// In-process transport: a lock-free SPSC ring lane per (sender, receiver)
/// pair, with overflow side-queues, per-destination ready lists, debounced
/// wakers and bulk sweep drain.
pub struct LocalTransport {
    places: usize,
    ring_capacity: usize,
    /// Row `s` holds sender `s`'s lanes.
    lanes: Box<[LaneRow]>,
    recv: Box<[RecvState]>,
    wakers: RwLock<Vec<Option<Waker>>>,
    stats: NetStats,
    /// Observability mirror of the ring-overflow counter (sharded by
    /// sender), resolved once at construction.
    overflow_obs: Option<Counter>,
    /// Lanes materialized so far, one per pair that has communicated.
    lanes_allocated: AtomicUsize,
    /// Observability mirror of `lanes_allocated` (sharded by sender).
    lanes_obs: Option<Counter>,
}

impl LocalTransport {
    /// A transport connecting `places` places with the default per-lane ring
    /// capacity ([`DEFAULT_RING_CAPACITY`]).
    pub fn new(places: usize) -> Self {
        Self::with_ring_capacity(places, DEFAULT_RING_CAPACITY)
    }

    /// A transport with an explicit per-lane ring capacity (rounded up to a
    /// power of two). Lanes and their ring buffers are allocated lazily, on
    /// a pair's first message.
    pub fn with_ring_capacity(places: usize, ring_capacity: usize) -> Self {
        assert!(places > 0);
        let recv = (0..places)
            .map(|_| RecvState {
                notified: AtomicBool::new(false),
                closed: AtomicBool::new(false),
                sweep_guard: AtomicBool::new(false),
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
            wakers: RwLock::new(vec![None; places]),
            stats: NetStats::new(places),
            overflow_obs: None,
            lanes_allocated: AtomicUsize::new(0),
            lanes_obs: None,
        }
    }

    /// Mirror ring-overflow engagements and lane materializations into the
    /// shared metrics registry (builder style): resolves the counters once
    /// so the hot paths stay one relaxed increment.
    pub fn with_obs(mut self, metrics: &MetricsRegistry) -> Self {
        self.overflow_obs = Some(metrics.counter(obs::names::MAILBOX_RING_OVERFLOW));
        let lanes = metrics.counter(obs::names::MAILBOX_LANES_ALLOCATED);
        // Catch up on lanes created before this call.
        let already = self.lanes_allocated.load(Ordering::Relaxed);
        if already > 0 {
            lanes.add(0, already as u64);
        }
        self.lanes_obs = Some(lanes);
        self
    }

    /// The per-lane ring capacity this transport was built with.
    pub fn ring_capacity(&self) -> usize {
        self.ring_capacity
    }

    /// How many (sender, receiver) lanes are backed by storage: one per
    /// pair that has communicated — the number the
    /// `mailbox.lanes_allocated` metric mirrors.
    pub fn lanes_allocated(&self) -> usize {
        self.lanes_allocated.load(Ordering::Relaxed)
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
            self.lanes_allocated.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = &self.lanes_obs {
                c.inc(from as u32);
            }
            Arc::new(Lane::new(self.ring_capacity))
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

    /// Enqueue `env` on its lane: ring fast path, overflow side-queue when
    /// the ring is full *or* a previous overflow has not drained yet (the
    /// rule that keeps ring items strictly older than overflow items, hence
    /// per-pair FIFO). Then queue the lane on the destination's ready list
    /// if this push won the `queued` edge. Returns whether it did — the
    /// caller then owes the destination a wake.
    fn push_lane(&self, env: Envelope) -> bool {
        let to = env.to.index();
        self.with_lane(env.from.index(), env.to.0, |lane| {
            if lane.overflow_len.load(Ordering::Acquire) == 0 {
                if let Err(env) = lane.ring.push(env) {
                    self.push_overflow(lane, env);
                }
            } else {
                self.push_overflow(lane, env);
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

    fn push_overflow(&self, lane: &Lane, env: Envelope) {
        let from = env.from.0;
        {
            let mut q = lane.overflow.lock();
            q.push_back(env);
            lane.overflow_len.store(q.len(), Ordering::Release);
        }
        self.stats.record_ring_overflow(from);
        if let Some(c) = &self.overflow_obs {
            c.inc(from);
        }
    }

    /// Fire `to`'s waker on the false→true edge of its debounce flag. The
    /// `AcqRel` swap pairs with the receiver's re-arm swap (see the module
    /// docs for why this cannot lose a wakeup).
    fn wake(&self, to: usize) {
        if !self.recv[to].notified.swap(true, Ordering::AcqRel) {
            // Clone the waker out and drop the read guard *before* invoking:
            // the waker may re-enter the transport (e.g. register_waker needs
            // the write lock), which deadlocks if invoked under the guard.
            let waker = self.wakers.read()[to].clone();
            if let Some(w) = waker {
                w();
            }
        }
    }

    /// Drain one lane FIFO-correctly: ring first (strictly older), then the
    /// overflow, then the ring again (items pushed after the overflow
    /// emptied). Returns how many envelopes were appended (≤ `budget`).
    ///
    /// Ordering subtlety: the first `pop_many` may run against a *stale*
    /// view of the ring (the producer's tail store not yet observed) while
    /// the `overflow_len` load — which synchronizes with the producer's
    /// *later* overflow push — succeeds. Draining the overflow on that
    /// stale view would deliver newer items ahead of older ring items, so
    /// after every non-zero `overflow_len` observation the ring is drained
    /// *again* first: the Acquire load made every earlier ring push
    /// visible.
    fn drain_lane(&self, lane: &Lane, budget: usize, out: &mut Vec<Envelope>) -> usize {
        let mut n = lane.ring.pop_many(budget, out);
        loop {
            if n >= budget || lane.overflow_len.load(Ordering::Acquire) == 0 {
                return n;
            }
            // Ring items are strictly older than overflow items (producers
            // divert only on full-or-diverting) — and the Acquire above is
            // what guarantees we can actually see all of them. Ring first.
            let more = lane.ring.pop_many(budget - n, out);
            n += more;
            if n >= budget {
                return n;
            }
            let drained = {
                let mut q = lane.overflow.lock();
                let k = (budget - n).min(q.len());
                out.extend(q.drain(..k));
                lane.overflow_len.store(q.len(), Ordering::Release);
                k
            };
            n += drained;
            if drained == 0 && more == 0 {
                return n;
            }
        }
    }

    /// One pass over destination `r`'s ready lanes, in the order they became
    /// ready: take the whole list under one lock, then clear each lane's
    /// `queued` flag and drain it. Caller holds the sweep guard.
    ///
    /// A lane cut short by the budget goes to the back of the list, behind
    /// the other ready lanes — or, with `resume`, to the front, so that
    /// one-message polls drain a lane before moving on instead of
    /// alternating senders message by message.
    fn sweep(&self, r: usize, budget: usize, out: &mut Vec<Envelope>, resume: bool) -> usize {
        let rs = &self.recv[r];
        // Nothing ready: no lock. A lane queued after this load is left to
        // the re-arm re-check, as one queued after the take would be.
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
            total += self.drain_lane(&lane, budget - total, out);
            if total >= budget {
                // Out of budget. The lanes not reached keep their place
                // ahead of anything queued meanwhile; the lane cut short is
                // re-queued unless a sender has done so already.
                let mut ready = rs.ready.lock();
                batch.append(&mut ready);
                std::mem::swap(&mut *ready, &mut *batch);
                if lane.is_active() && !lane.queued.swap(true, Ordering::AcqRel) {
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

    /// Re-arm the debounce for `r` and re-check the ready list. Returns true
    /// when the race was lost to a concurrent sender — a lane was queued
    /// around the re-arm — and the caller should sweep again.
    fn rearm_and_recheck(&self, r: usize) -> bool {
        let rs = &self.recv[r];
        // Must be a swap (RMW), not a plain store: reading the senders' swap
        // chain is what acquires their ready-list appends for the re-check.
        rs.notified.swap(false, Ordering::AcqRel);
        if rs.ready_len.load(Ordering::Acquire) == 0 {
            return false;
        }
        // Reclaim the notification — we are about to consume the message.
        rs.notified.swap(true, Ordering::AcqRel);
        true
    }

    /// Receive up to `max` envelopes for `r` (see [`Self::sweep`] for
    /// `resume`), re-arming the debounce when a sweep leaves budget unused.
    fn recv(&self, r: usize, max: usize, out: &mut Vec<Envelope>, resume: bool) -> usize {
        let rs = &self.recv[r];
        if rs.closed.load(Ordering::Acquire) {
            return 0;
        }
        let _guard = spin_lock(&rs.sweep_guard);
        let mut total = 0;
        loop {
            total += self.sweep(r, max - total, out, resume);
            if total >= max {
                return total;
            }
            // Every ready lane drained: re-arm the debounce; keep draining
            // if a sender raced the re-arm.
            if !self.rearm_and_recheck(r) {
                return total;
            }
        }
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
            self.wake(to);
        }
        Ok(())
    }

    fn send_batch(&self, envs: Vec<Envelope>) -> Result<(), SendError> {
        // Enqueue each same-destination run and fire at most one (debounced)
        // wake per run. Processing runs in order preserves per-pair FIFO.
        // Runs addressed to a dead place are destroyed (black hole) and
        // reported via the returned error.
        let mut err: Option<SendError> = None;
        let mut iter = envs.into_iter().peekable();
        while let Some(env) = iter.next() {
            debug_assert!(env.to.index() < self.places, "bad destination");
            let to = env.to.index();
            if self.recv[to].closed.load(Ordering::Acquire) {
                let mut destroyed = 1;
                while iter.peek().is_some_and(|next| next.to.index() == to) {
                    iter.next();
                    destroyed += 1;
                }
                match &mut err {
                    Some(e) => e.dropped += destroyed,
                    None => err = Some(SendError::dead(env.to, destroyed)),
                }
                continue;
            }
            self.record(&env);
            let mut queued = self.push_lane(env);
            while let Some(next) = iter.next_if(|next| next.to.index() == to) {
                self.record(&next);
                queued |= self.push_lane(next);
            }
            if queued {
                self.wake(to);
            }
        }
        match err {
            None => Ok(()),
            Some(e) => Err(e),
        }
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
        self.wakers.write()[place.index()] = Some(waker);
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
        rs.ready.lock().iter().map(|lane| lane.len()).sum()
    }

    fn kill_place(&self, place: PlaceId) {
        let r = place.index();
        // Order matters: close first, then purge under the sweep guard, so
        // a concurrent send either observed `closed` (and failed) or landed
        // before the purge (and is destroyed with the rest). A straggler
        // that slips a message in after the purge is harmless: every
        // receive path gates on `closed`, so it is never delivered, and it
        // is freed when the transport drops.
        self.recv[r].closed.store(true, Ordering::Release);
        let _guard = spin_lock(&self.recv[r].sweep_guard);
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

    #[test]
    fn per_pair_fifo_through_overflow() {
        // Ring capacity 4: most of the burst lands in the overflow
        // side-queue, and order must survive the ring → overflow → ring
        // transitions.
        let t = LocalTransport::with_ring_capacity(2, 4);
        for i in 0..100u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        assert!(t.stats().total_ring_overflows() > 0, "overflow must engage");
        assert_eq!(t.queue_len(PlaceId(1)), 100);
        for i in 0..100u64 {
            let got = t.try_recv(PlaceId(1)).unwrap();
            assert_eq!(*got.payload.downcast::<u64>().unwrap(), i);
        }
        assert!(t.try_recv(PlaceId(1)).is_none());
    }

    #[test]
    fn no_overflow_within_ring_capacity() {
        let t = LocalTransport::new(2);
        for i in 0..DEFAULT_RING_CAPACITY as u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        assert_eq!(t.stats().total_ring_overflows(), 0);
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
        // A burst of sends with no drain in between fires the waker once.
        t.send(env(0, 1, 0)).unwrap();
        t.send(env(0, 1, 1)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // Draining to empty re-arms the debounce ...
        assert!(t.try_recv(PlaceId(1)).is_some());
        assert!(t.try_recv(PlaceId(1)).is_some());
        assert!(t.try_recv(PlaceId(1)).is_none());
        // ... so the next burst fires it again, even on a lane created
        // after the previous drain cycle.
        t.send(env(2, 1, 2)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert!(t.try_recv(PlaceId(1)).is_some());
    }

    #[test]
    fn waker_may_reenter_transport() {
        // Regression test: the waker used to be invoked while the `wakers`
        // read guard was held, so a waker touching the transport (here:
        // re-registering itself, which takes the write lock) deadlocked.
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
                        h2.fetch_add(1, Ordering::SeqCst);
                    }),
                );
            }),
        );
        t.send(env(0, 1, 0)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
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
    fn send_batch_preserves_order_and_counts() {
        let t = LocalTransport::new(3);
        let batch: Vec<Envelope> = (0..10u64).map(|i| env(0, 1 + (i % 2) as u32, i)).collect();
        t.send_batch(batch).unwrap();
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
        assert_eq!(err.error, TransportError::PlaceDead { place: PlaceId(1) });
        assert!(err.retry.is_empty());
        assert_eq!(err.dropped, 1);
        assert!(t.is_dead(PlaceId(1)));
        assert!(!t.is_dead(PlaceId(2)));
        assert_eq!(t.dead_places(), vec![PlaceId(1)]);
        // Other places are unaffected.
        t.send(env(0, 2, 9)).unwrap();
        assert!(t.try_recv(PlaceId(2)).is_some());
    }

    #[test]
    fn send_batch_skips_dead_runs_and_reports() {
        let t = LocalTransport::new(3);
        t.kill_place(PlaceId(1));
        let batch: Vec<Envelope> = (0..6u64).map(|i| env(0, 1 + (i % 2) as u32, i)).collect();
        let err = t.send_batch(batch).unwrap_err();
        assert_eq!(err.error, TransportError::PlaceDead { place: PlaceId(1) });
        assert_eq!(err.dropped, 3);
        assert!(err.retry.is_empty());
        // The live destination still got its run, in order.
        for want in [1u64, 3, 5] {
            let got = t.try_recv(PlaceId(2)).unwrap();
            assert_eq!(*got.payload.downcast::<u64>().unwrap(), want);
        }
        // Destroyed envelopes are not recorded in the ledgers.
        assert_eq!(t.stats().total_messages(), 3);
        assert_eq!(t.stats().total_envelopes(), 3);
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
    fn queue_len_counts_ring_and_overflow() {
        let t = LocalTransport::with_ring_capacity(2, 4);
        for i in 0..10u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        assert_eq!(t.queue_len(PlaceId(1)), 10);
        assert!(t.try_recv(PlaceId(1)).is_some());
        assert_eq!(t.queue_len(PlaceId(1)), 9);
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
            // Sweep until one leaves budget unused: only that re-arms.
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
