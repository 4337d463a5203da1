//! The point-to-point transport API and the in-process back-end.
//!
//! X10RT back-ends (PAMI, MPI, sockets) all provide the same primitive: send
//! an active message to a place, with FIFO ordering *per sender/destination
//! pair*. The APGAS layer builds everything else (finish protocols, teams,
//! clocks, load balancing) on top of that primitive — which is why this crate
//! is deliberately tiny.
//!
//! # Lane matrix
//!
//! [`LocalTransport`] realizes the API with one *lane* per (sender,
//! destination) pair: a bounded lock-free SPSC ring (see [`crate::ring`])
//! backed by an overflow side-queue. The hot send path is a ring push — no
//! mutex, no allocation — and the hot receive path is a round-robin sweep of
//! the destination's incoming lanes, bulk-draining each ring. Per-pair FIFO
//! holds because one sender's messages to one destination all travel the
//! same lane in program order (this is exactly the PAMI guarantee the finish
//! protocols rely on; see `apgas::finish::default_proto`). No ordering holds
//! *across* lanes — a real network reorders freely across routes.
//!
//! # Dense vs. sparse lane storage
//!
//! Up to [`DENSE_LANES_MAX`] places the lanes live in a dense row-major
//! `places × places` array — zero indirection on the hot paths. Above it the
//! quadratic header cost becomes real money (at 4,096 places a dense matrix
//! is 16.7M lane headers, gigabytes before a single message flows), so the
//! transport switches to one *sparse row* per receiver: lanes materialize on
//! a sender's first message, held in an append-only vector guarded by an
//! `RwLock` (reads on every send/sweep, a write only on first contact).
//! Append-only matters: lane positions are stable, so the receiver's
//! round-robin cursor survives concurrent lane creation. Real communication
//! graphs at scale are sparse — finish protocols talk to a home place, GLB
//! to O(log P) lifelines — so the populated rows stay short. The
//! `mailbox.lanes_allocated` metric ([`LocalTransport::lanes_allocated`])
//! reports how many pairs actually paid for storage.
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
//! that lives in overflow mode needs a bigger `mailbox_ring_capacity`, not a
//! faster mutex.
//!
//! # Waker debouncing
//!
//! Each destination carries a `notified` flag. A sender fires the
//! destination's waker only on the false→true transition of an `AcqRel`
//! `swap`, so a burst of sends costs one wake instead of one per message.
//! The *receiver* re-arms the flag when a sweep finds every lane empty —
//! also with a `swap`, then re-checks the lanes. The two swaps on the same
//! flag are totally ordered, and RMWs extend release sequences, so either
//! the sender's swap observes the re-arm (and fires) or the receiver's
//! re-arm swap acquires the sender's push (and the re-check sees the
//! message). Spurious wakes are possible; lost wakes are not. The
//! scheduler's park path additionally re-checks [`Transport::queue_len`]
//! before sleeping, which makes the protocol robust even against misuse.

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
}

impl Lane {
    fn new(ring_capacity: usize) -> Self {
        Lane {
            ring: SpscRing::new(ring_capacity),
            overflow: Mutex::new(VecDeque::new()),
            overflow_len: AtomicUsize::new(0),
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

/// Largest place count served by the dense `places × places` lane array.
/// Above it, lane storage switches to per-receiver sparse rows (see the
/// module docs): `128² = 16,384` headers is the most the dense layout is
/// allowed to cost up front.
pub const DENSE_LANES_MAX: usize = 128;

/// Lane storage: dense matrix for small worlds, lazily-populated sparse
/// rows for big ones.
enum Lanes {
    /// Row-major by sender: lane `(s, r)` lives at `s * places + r`.
    Dense(Box<[Lane]>),
    /// One row per *receiver*; a sender's lane materializes on its first
    /// message to that receiver.
    Sparse(Box<[SparseRow]>),
}

/// A receiver's lazily-populated incoming lanes.
///
/// The lock is read-held on every send and sweep and write-held only to
/// append a new sender's lane — first contact per pair, once ever. Lane
/// operations themselves (ring push/pop, overflow mutex) happen under the
/// *read* guard, so senders and the receiver proceed concurrently; only a
/// first-contact insert briefly excludes them.
struct SparseRow {
    inner: RwLock<SparseLanes>,
}

#[derive(Default)]
struct SparseLanes {
    /// Sender place id → position in `lanes`.
    by_sender: IntMap<u32, usize>,
    /// Append-only — positions are stable, so the receiver's round-robin
    /// cursor (an index into this vector) survives concurrent growth.
    lanes: Vec<(u32, Arc<Lane>)>,
}

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
    /// the lane matrix sees one consumer per destination.
    sweep_guard: AtomicBool,
    /// Round-robin sweep position (which sender lane to take next);
    /// accessed under `sweep_guard`.
    cursor: AtomicUsize,
}

/// In-process transport: a lock-free SPSC ring lane per (sender, receiver)
/// pair, with overflow side-queues, debounced wakers and bulk sweep drain.
pub struct LocalTransport {
    places: usize,
    ring_capacity: usize,
    /// Dense matrix at ≤ [`DENSE_LANES_MAX`] places, sparse per-receiver
    /// rows above (see the module docs).
    lanes: Lanes,
    recv: Box<[RecvState]>,
    wakers: RwLock<Vec<Option<Waker>>>,
    stats: NetStats,
    /// Observability mirror of the ring-overflow counter (sharded by
    /// sender), resolved once at construction.
    overflow_obs: Option<Counter>,
    /// Lanes actually backed by storage. Dense mode records the whole
    /// matrix at construction; sparse mode counts each first-contact
    /// materialization.
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
    /// power of two). Ring buffers are allocated lazily per active lane, so
    /// the `places²` matrix costs headers, not buffers, for idle pairs.
    pub fn with_ring_capacity(places: usize, ring_capacity: usize) -> Self {
        assert!(places > 0);
        let lanes = if places <= DENSE_LANES_MAX {
            Lanes::Dense(
                (0..places * places)
                    .map(|_| Lane::new(ring_capacity))
                    .collect(),
            )
        } else {
            Lanes::Sparse(
                (0..places)
                    .map(|_| SparseRow {
                        inner: RwLock::new(SparseLanes::default()),
                    })
                    .collect(),
            )
        };
        let lanes_allocated = AtomicUsize::new(match &lanes {
            Lanes::Dense(l) => l.len(),
            Lanes::Sparse(_) => 0,
        });
        let recv = (0..places)
            .map(|_| RecvState {
                notified: AtomicBool::new(false),
                closed: AtomicBool::new(false),
                sweep_guard: AtomicBool::new(false),
                cursor: AtomicUsize::new(0),
            })
            .collect();
        LocalTransport {
            places,
            ring_capacity: ring_capacity.next_power_of_two().max(2),
            lanes,
            recv,
            wakers: RwLock::new(vec![None; places]),
            stats: NetStats::new(places),
            overflow_obs: None,
            lanes_allocated,
            lanes_obs: None,
        }
    }

    /// Mirror ring-overflow engagements and lane materializations into the
    /// shared metrics registry (builder style): resolves the counters once
    /// so the hot paths stay one relaxed increment.
    pub fn with_obs(mut self, metrics: &MetricsRegistry) -> Self {
        self.overflow_obs = Some(metrics.counter(obs::names::MAILBOX_RING_OVERFLOW));
        let lanes = metrics.counter(obs::names::MAILBOX_LANES_ALLOCATED);
        // Catch up on lanes that predate the registry (the dense matrix, or
        // — defensively — sparse lanes created before this call).
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

    /// How many (sender, receiver) lanes are actually backed by storage.
    /// Dense mode: the full `places²` matrix. Sparse mode: one per pair
    /// that has communicated — the number the `mailbox.lanes_allocated`
    /// metric mirrors.
    pub fn lanes_allocated(&self) -> usize {
        self.lanes_allocated.load(Ordering::Relaxed)
    }

    /// The lane for `(from, to)` in sparse mode, materializing it on first
    /// contact. Read-lock lookup on the hot path; the write lock is taken
    /// only to append a new sender's lane (with a double-check, since two
    /// racing first messages can both miss the read probe — only one
    /// inserts; per-pair SPSC discipline means the pair's *owner* sender is
    /// normally the only writer anyway).
    fn sparse_lane(&self, rows: &[SparseRow], from: u32, to: usize) -> Arc<Lane> {
        {
            let row = rows[to].inner.read();
            if let Some(&i) = row.by_sender.get(&from) {
                return row.lanes[i].1.clone();
            }
        }
        let mut row = rows[to].inner.write();
        if let Some(&i) = row.by_sender.get(&from) {
            return row.lanes[i].1.clone();
        }
        let lane = Arc::new(Lane::new(self.ring_capacity));
        let pos = row.lanes.len();
        row.lanes.push((from, lane.clone()));
        row.by_sender.insert(from, pos);
        self.lanes_allocated.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.lanes_obs {
            c.inc(from);
        }
        lane
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
    /// per-pair FIFO). Counts the overflow engagement when it happens.
    fn push_lane(&self, env: Envelope) {
        match &self.lanes {
            Lanes::Dense(lanes) => {
                let lane = &lanes[env.from.index() * self.places + env.to.index()];
                self.push_to(lane, env);
            }
            Lanes::Sparse(rows) => {
                // Lane creation (under the row's write lock) happens-before
                // the push, which happens-before the waker swap — so the
                // receiver's re-arm/re-check protocol (module docs) sees
                // fresh lanes exactly as reliably as fresh messages: its
                // re-check takes the row's read lock, which synchronizes
                // with the creating write.
                let lane = self.sparse_lane(rows, env.from.0, env.to.index());
                self.push_to(&lane, env);
            }
        }
    }

    fn push_to(&self, lane: &Lane, env: Envelope) {
        if lane.overflow_len.load(Ordering::Acquire) == 0 {
            match lane.ring.push(env) {
                Ok(()) => {}
                Err(env) => self.push_overflow(lane, env),
            }
        } else {
            self.push_overflow(lane, env);
        }
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

    /// Any message queued for destination `r`?
    fn has_pending(&self, r: usize) -> bool {
        match &self.lanes {
            Lanes::Dense(lanes) => (0..self.places).any(|s| lanes[s * self.places + r].is_active()),
            Lanes::Sparse(rows) => rows[r]
                .inner
                .read()
                .lanes
                .iter()
                .any(|(_, lane)| lane.is_active()),
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

    /// One round-robin pass over destination `r`'s incoming lanes, starting
    /// at the sweep cursor. Caller holds the sweep guard.
    ///
    /// The cursor indexes *senders* in dense mode and *row positions* in
    /// sparse mode — either way a stable identity for "the lane to resume
    /// at" (sparse rows are append-only, so positions never move).
    fn sweep(&self, r: usize, budget: usize, out: &mut Vec<Envelope>) -> usize {
        if budget == 0 {
            return 0;
        }
        let start = self.recv[r].cursor.load(Ordering::Relaxed);
        let mut total = 0;
        match &self.lanes {
            Lanes::Dense(lanes) => {
                for i in 0..self.places {
                    let s = (start + i) % self.places;
                    total += self.drain_lane(&lanes[s * self.places + r], budget - total, out);
                    if total >= budget {
                        // Resume at this lane next sweep — it may hold more.
                        self.recv[r].cursor.store(s, Ordering::Relaxed);
                        break;
                    }
                }
            }
            Lanes::Sparse(rows) => {
                let row = rows[r].inner.read();
                let n = row.lanes.len();
                if n == 0 {
                    return 0;
                }
                for i in 0..n {
                    let p = (start + i) % n;
                    total += self.drain_lane(&row.lanes[p].1, budget - total, out);
                    if total >= budget {
                        self.recv[r].cursor.store(p, Ordering::Relaxed);
                        break;
                    }
                }
            }
        }
        total
    }

    /// Pop one envelope from `lane`, FIFO-correctly (same stale-ring hazard
    /// as `drain_lane`: after a non-zero `overflow_len` observation the
    /// Acquire load has made every older ring push visible, so re-take the
    /// ring before the overflow).
    fn pop_lane(&self, lane: &Lane) -> Option<Envelope> {
        lane.ring.pop().or_else(|| {
            if lane.overflow_len.load(Ordering::Acquire) != 0 {
                lane.ring.pop().or_else(|| {
                    let mut q = lane.overflow.lock();
                    let e = q.pop_front();
                    lane.overflow_len.store(q.len(), Ordering::Release);
                    // The ring may have refilled once the overflow emptied.
                    e.or_else(|| lane.ring.pop())
                })
            } else {
                None
            }
        })
    }

    /// Pop a single envelope for `r`, resuming at the sweep cursor so an
    /// in-progress lane drains FIFO before the sweep moves on. Caller holds
    /// the sweep guard.
    fn sweep_one(&self, r: usize) -> Option<Envelope> {
        let start = self.recv[r].cursor.load(Ordering::Relaxed);
        match &self.lanes {
            Lanes::Dense(lanes) => {
                for i in 0..self.places {
                    let s = (start + i) % self.places;
                    if let Some(env) = self.pop_lane(&lanes[s * self.places + r]) {
                        self.recv[r].cursor.store(s, Ordering::Relaxed);
                        return Some(env);
                    }
                }
            }
            Lanes::Sparse(rows) => {
                let row = rows[r].inner.read();
                let n = row.lanes.len();
                for i in 0..n {
                    let p = (start + i) % n;
                    if let Some(env) = self.pop_lane(&row.lanes[p].1) {
                        self.recv[r].cursor.store(p, Ordering::Relaxed);
                        return Some(env);
                    }
                }
            }
        }
        None
    }

    /// Re-arm the debounce for `r` and re-check the lanes. Returns true when
    /// the race was lost to a concurrent sender — a message landed around
    /// the re-arm — and the caller should sweep again.
    fn rearm_and_recheck(&self, r: usize) -> bool {
        let rs = &self.recv[r];
        // Must be a swap (RMW), not a plain store: reading the senders' swap
        // chain is what acquires their ring pushes for the re-check below.
        rs.notified.swap(false, Ordering::AcqRel);
        if !self.has_pending(r) {
            return false;
        }
        // Reclaim the notification — we are about to consume the message.
        rs.notified.swap(true, Ordering::AcqRel);
        true
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
        self.push_lane(env);
        self.wake(to);
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
            self.push_lane(env);
            while let Some(next) = iter.peek() {
                if next.to.index() != to {
                    break;
                }
                let next = iter.next().expect("peeked");
                self.record(&next);
                self.push_lane(next);
            }
            self.wake(to);
        }
        match err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn try_recv(&self, place: PlaceId) -> Option<Envelope> {
        let r = place.index();
        let rs = &self.recv[r];
        if rs.closed.load(Ordering::Acquire) {
            return None;
        }
        let _guard = spin_lock(&rs.sweep_guard);
        loop {
            if let Some(env) = self.sweep_one(r) {
                return Some(env);
            }
            if !self.rearm_and_recheck(r) {
                return None;
            }
        }
    }

    fn try_recv_batch(&self, place: PlaceId, max: usize, out: &mut Vec<Envelope>) -> usize {
        let r = place.index();
        let rs = &self.recv[r];
        if rs.closed.load(Ordering::Acquire) {
            return 0;
        }
        let _guard = spin_lock(&rs.sweep_guard);
        let mut total = 0;
        loop {
            total += self.sweep(r, max - total, out);
            if total >= max {
                return total;
            }
            // Every lane observed empty: re-arm the debounce; keep draining
            // if a sender raced the re-arm.
            if !self.rearm_and_recheck(r) {
                return total;
            }
        }
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
        let r = place.index();
        if self.recv[r].closed.load(Ordering::Acquire) {
            return 0;
        }
        match &self.lanes {
            Lanes::Dense(lanes) => (0..self.places)
                .map(|s| lanes[s * self.places + r].len())
                .sum(),
            Lanes::Sparse(rows) => rows[r]
                .inner
                .read()
                .lanes
                .iter()
                .map(|(_, lane)| lane.len())
                .sum(),
        }
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
        match &self.lanes {
            Lanes::Dense(lanes) => {
                for s in 0..self.places {
                    let lane = &lanes[s * self.places + r];
                    while self.drain_lane(lane, usize::MAX, &mut sink) > 0 {}
                    sink.clear();
                }
            }
            Lanes::Sparse(rows) => {
                let row = rows[r].inner.read();
                for (_, lane) in row.lanes.iter() {
                    while self.drain_lane(lane, usize::MAX, &mut sink) > 0 {}
                    sink.clear();
                }
            }
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
        let t = LocalTransport::new(2);
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
        // ... so the next burst fires it again.
        t.send(env(0, 1, 2)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
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
        let t = Arc::new(LocalTransport::new(2));
        let mut handles = vec![];
        for s in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    t.send(env(0, 1, (s as u64) << 32 | i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut n = 0;
        while t.try_recv(PlaceId(1)).is_some() {
            n += 1;
        }
        assert_eq!(n, 2000);
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

    /// Above the dense threshold: the number of places that would cost
    /// `150² = 22,500` lane headers eagerly.
    const SPARSE_PLACES: usize = 150;

    #[test]
    fn dense_mode_accounts_for_the_whole_matrix() {
        let t = LocalTransport::new(4);
        assert_eq!(t.lanes_allocated(), 16);
        t.send(env(0, 1, 0)).unwrap();
        assert_eq!(t.lanes_allocated(), 16, "dense count is fixed at build");
    }

    #[test]
    fn sparse_mode_materializes_lanes_on_first_contact() {
        let t = LocalTransport::new(SPARSE_PLACES);
        assert_eq!(t.lanes_allocated(), 0, "no traffic, no lanes");
        for s in [3u32, 9, 140] {
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
    fn sparse_per_pair_fifo_through_overflow() {
        // Tiny rings in sparse mode: order must survive the ring →
        // overflow → ring transitions on a lazily-created lane.
        let t = LocalTransport::with_ring_capacity(SPARSE_PLACES, 4);
        for i in 0..100u64 {
            t.send(env(0, 149, i)).unwrap();
        }
        assert!(t.stats().total_ring_overflows() > 0, "overflow must engage");
        assert_eq!(t.queue_len(PlaceId(149)), 100);
        for i in 0..100u64 {
            let got = t.try_recv(PlaceId(149)).unwrap();
            assert_eq!(*got.payload.downcast::<u64>().unwrap(), i);
        }
        assert!(t.try_recv(PlaceId(149)).is_none());
    }

    #[test]
    fn sparse_round_robin_sweep_interleaves_senders() {
        let t = LocalTransport::new(SPARSE_PLACES);
        for i in 0..30u64 {
            t.send(env((i % 3) as u32, 120, i)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(t.try_recv_batch(PlaceId(120), usize::MAX, &mut out), 30);
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
    fn sparse_waker_fires_for_a_brand_new_lane() {
        // The debounce re-arm must see messages on lanes created *after*
        // the previous drain cycle (the row read-lock in the re-check
        // synchronizes with the creating write).
        let t = LocalTransport::new(SPARSE_PLACES);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        t.register_waker(
            PlaceId(60),
            Arc::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        t.send(env(1, 60, 0)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(t.try_recv(PlaceId(60)).is_some());
        assert!(t.try_recv(PlaceId(60)).is_none()); // re-arms the debounce
        t.send(env(2, 60, 1)).unwrap(); // fresh sender, fresh lane
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert!(t.try_recv(PlaceId(60)).is_some());
    }

    #[test]
    fn sparse_kill_place_purges_lazy_lanes() {
        let t = LocalTransport::new(SPARSE_PLACES);
        t.send(env(0, 33, 0)).unwrap();
        t.send(env(5, 33, 1)).unwrap();
        t.kill_place(PlaceId(33));
        assert_eq!(t.queue_len(PlaceId(33)), 0);
        assert!(t.try_recv(PlaceId(33)).is_none());
        let err = t.send(env(0, 33, 2)).unwrap_err();
        assert_eq!(err.error, TransportError::PlaceDead { place: PlaceId(33) });
        // Unrelated pairs keep working.
        t.send(env(0, 34, 3)).unwrap();
        assert!(t.try_recv(PlaceId(34)).is_some());
    }

    #[test]
    fn sparse_concurrent_first_contacts_race_safely() {
        // Many senders hit the same receiver's row concurrently, all
        // first-contact: every lane must be created exactly once and every
        // message delivered.
        let t = Arc::new(LocalTransport::new(SPARSE_PLACES));
        let mut handles = vec![];
        for s in 0..8u32 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    t.send(env(s, 77, (u64::from(s)) << 32 | i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.lanes_allocated(), 8);
        let mut n = 0;
        while t.try_recv(PlaceId(77)).is_some() {
            n += 1;
        }
        assert_eq!(n, 1600);
    }
}
