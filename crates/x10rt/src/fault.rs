//! Deterministic fault injection over any [`Transport`].
//!
//! At petascale the network *will* misbehave: messages are lost, delayed,
//! duplicated by retransmission, truncated by failing links, and whole nodes
//! die mid-job. The paper's protocols (distributed finish, lifeline GLB) are
//! only trustworthy if they degrade cleanly under exactly that churn —
//! which is impossible to establish from happy-path tests. [`FaultTransport`]
//! decorates a real back-end and injects those faults *deterministically*:
//! every decision is a pure function of the [`FaultPlan`] seed and the
//! message's (sender, destination, class, per-pair attempt index), so a
//! failing run is replayed exactly from its seed alone.
//!
//! # Fault model
//!
//! Per message class, a plan assigns independent probabilities for:
//!
//! * **drop** — the envelope vanishes after submission (the NIC accepted it;
//!   the wire lost it). The send reports success, like a real unreliable
//!   datagram.
//! * **delay** — the envelope is *held* for a seeded number of logical steps
//!   and released later. Held envelopes queue per (sender, destination) pair
//!   and release strictly in pair order — later traffic on a delayed pair
//!   queues *behind* the held messages — so per-pair FIFO survives while
//!   traffic reorders freely across pairs, the exact guarantee/weakness mix
//!   of the real network.
//! * **duplicate** — a phantom copy travels the wire alongside the original.
//!   With the `CodecMode::Bytes` codec the payload is serialized bytes and a
//!   true byte-for-byte clone *could* be delivered, but the protocols above
//!   do not carry per-message sequence numbers, so delivering one would be
//!   indistinguishable from real traffic and would double finish counts.
//!   The decorator therefore models **receiver-side dedup** uniformly: the
//!   copy is a marker envelope, charged to the wire ledgers (and, under the
//!   TCP back-end, physically framed and shipped — handler `H_MARKER` in
//!   `PROTOCOL.md`) like real duplicate traffic, then filtered at the
//!   receive edge before any protocol sees it.
//! * **truncate** — the envelope's payload is destroyed in flight; the
//!   mangled envelope still transits (and is charged) but is discarded at
//!   the receive edge, like a frame that fails its checksum.
//!
//! No fault refuses a send: as on every back-end, a send fails only when
//! its destination (or, here, its sender) is dead, and then for good.
//!
//! On top of the probabilistic faults, a plan scripts discrete events on the
//! decorator's *logical clock* (one tick per send or receive operation):
//! [`FaultPlan::kill_place`] kills a place when the clock reaches a step,
//! black-holing its mailbox via [`Transport::kill_place`].
//!
//! # Liveness of held messages
//!
//! Releases are driven by the same logical clock, pumped on every send *and*
//! receive. Workers poll their mailboxes even while otherwise idle (the
//! scheduler's park path wakes on a bounded timeout), so held messages are
//! always eventually released — delay can starve no one forever.

use crate::message::{Envelope, MsgClass};
use crate::place::PlaceId;
use crate::stats::NetStats;
use crate::transport::{SendError, Transport, Waker};
use obs::metrics::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-class fault probabilities, each in `[0.0, 1.0]`. All zero by default.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ClassFaults {
    /// Probability the envelope is silently lost after submission.
    pub drop: f64,
    /// Probability the envelope is held for a seeded number of steps.
    pub delay: f64,
    /// Probability a phantom duplicate transits alongside the original.
    pub duplicate: f64,
    /// Probability the payload is destroyed in flight.
    pub truncate: f64,
}

impl ClassFaults {
    /// Faults that only drop with probability `p`.
    pub fn dropping(p: f64) -> Self {
        ClassFaults {
            drop: p,
            ..Default::default()
        }
    }

    /// Faults that only delay with probability `p`.
    pub fn delaying(p: f64) -> Self {
        ClassFaults {
            delay: p,
            ..Default::default()
        }
    }

    /// Faults that only duplicate with probability `p`.
    pub fn duplicating(p: f64) -> Self {
        ClassFaults {
            duplicate: p,
            ..Default::default()
        }
    }

    /// Faults that only truncate with probability `p`.
    pub fn truncating(p: f64) -> Self {
        ClassFaults {
            truncate: p,
            ..Default::default()
        }
    }

    fn is_zero(&self) -> bool {
        self.drop == 0.0 && self.delay == 0.0 && self.duplicate == 0.0 && self.truncate == 0.0
    }
}

/// A discrete scripted event on the decorator's logical clock.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Kill `place` once the logical clock reaches `step`.
    KillPlace {
        /// Logical step (send/recv operations observed) at which to fire.
        step: u64,
        /// The victim.
        place: PlaceId,
    },
}

impl FaultEvent {
    fn step(&self) -> u64 {
        match self {
            FaultEvent::KillPlace { step, .. } => *step,
        }
    }
}

/// A complete, replayable description of the faults to inject: seed,
/// per-class probabilities, delay magnitude, and scripted events.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    faults: [ClassFaults; MsgClass::ALL.len()],
    /// Inclusive range of logical steps a delayed envelope is held.
    delay_steps: (u64, u64),
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: [ClassFaults::default(); MsgClass::ALL.len()],
            delay_steps: (1, 64),
            events: Vec::new(),
        }
    }

    /// Set the fault probabilities for one message class.
    pub fn class(mut self, class: MsgClass, f: ClassFaults) -> Self {
        self.faults[class.index()] = f;
        self
    }

    /// Set the same fault probabilities for every message class (including
    /// `Batch` envelopes — faults strike at envelope granularity).
    pub fn all_classes(mut self, f: ClassFaults) -> Self {
        self.faults = [f; MsgClass::ALL.len()];
        self
    }

    /// Hold delayed envelopes between `min` and `max` logical steps
    /// (inclusive; `max` is clamped up to `min`).
    pub fn delay_steps(mut self, min: u64, max: u64) -> Self {
        self.delay_steps = (min.max(1), max.max(min.max(1)));
        self
    }

    /// Script a place kill at logical step `step`.
    pub fn kill_place(mut self, place: PlaceId, step: u64) -> Self {
        self.events.push(FaultEvent::KillPlace { step, place });
        self.events.sort_by_key(|e| e.step());
        self
    }

    /// True when the plan injects nothing: all probabilities zero and no
    /// scripted events. A [`FaultTransport`] under such a plan must be
    /// observably identical to its inner transport.
    pub fn is_zero(&self) -> bool {
        self.events.is_empty() && self.faults.iter().all(ClassFaults::is_zero)
    }

    /// The fault probabilities in effect for `class`.
    pub fn faults_for(&self, class: MsgClass) -> ClassFaults {
        self.faults[class.index()]
    }

    /// The scripted events, ascending by step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Running totals of the faults a [`FaultTransport`] has injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Envelopes silently lost.
    pub dropped: u64,
    /// Envelopes held and later released.
    pub delayed: u64,
    /// Phantom duplicates injected.
    pub duplicated: u64,
    /// Payloads destroyed in flight.
    pub truncated: u64,
    /// Places killed by scripted events or [`Transport::kill_place`].
    pub killed: u64,
    /// Marker envelopes (duplicates, truncations) filtered at the receive
    /// edge.
    pub filtered: u64,
    /// Protocol-visible messages destroyed by drop/truncate, tallied by the
    /// *inner* message class (indexed by [`MsgClass::index`]). `dropped` and
    /// `truncated` count physical envelopes — a lost [`MsgClass::Batch`]
    /// envelope counts once there but loses every coalesced message inside
    /// it, which used to be a silent-loss channel: a dropped batch carrying
    /// GLB steal handshakes was invisible to any per-class reconciliation.
    /// This array opens every batched class to the lossy-fault oracles.
    pub lost_by_class: [u64; MsgClass::ALL.len()],
}

impl FaultCounts {
    /// Messages of `class` destroyed by drop/truncate, counting through
    /// batch envelopes.
    pub fn lost(&self, class: MsgClass) -> u64 {
        self.lost_by_class[class.index()]
    }

    /// Total messages destroyed by drop/truncate across every class,
    /// counting through batch envelopes. Always `>= dropped + truncated`
    /// (strictly greater whenever a multi-message batch was lost), and zero
    /// exactly when nothing was lost.
    pub fn lost_total(&self) -> u64 {
        self.lost_by_class.iter().sum()
    }
}

#[derive(Default)]
struct FaultTallies {
    dropped: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
    truncated: AtomicU64,
    killed: AtomicU64,
    filtered: AtomicU64,
    lost_by_class: [AtomicU64; MsgClass::ALL.len()],
}

/// Resolved observability counters mirroring [`FaultCounts`].
struct FaultHooks {
    dropped: Counter,
    delayed: Counter,
    duplicated: Counter,
    truncated: Counter,
    killed: Counter,
}

/// Payload of an injected marker envelope. Marker envelopes transit the
/// inner transport (so the wire ledgers charge them) and are filtered out at
/// [`FaultTransport::try_recv`] before any protocol sees them. `pub(crate)`
/// so the TCP back-end can serialize markers across its socket (handler id
/// `H_MARKER` in `PROTOCOL.md`) — receive-edge filtering stays observable
/// when the inner transport is a real wire.
pub(crate) enum FaultMarker {
    /// A phantom duplicate (receiver-side dedup removes it).
    Duplicate,
    /// A payload destroyed in flight (checksum failure discards the frame).
    Truncated,
}

/// An envelope held for delayed release: release step + the envelope.
type Held = (u64, Envelope);

/// Deterministic, seed-driven fault-injection decorator over any transport.
///
/// See the [module docs](self) for the fault model. Construction wires the
/// decorator *between* the upper layers and the inner back-end; everything —
/// wakers, statistics, place count — delegates to the inner transport, so a
/// runtime built over a `FaultTransport` behaves identically to one built
/// over the bare back-end whenever the plan [is zero](FaultPlan::is_zero).
pub struct FaultTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    /// Logical clock: one tick per send or receive operation.
    clock: AtomicU64,
    /// Scripted events not yet fired (drained front-to-back; sorted by step).
    pending_events: Mutex<VecDeque<FaultEvent>>,
    /// Lock-free fast path: how many scripted events remain.
    events_left: AtomicUsize,
    /// Per-place death flags (scripted kills and explicit `kill_place`).
    dead: Vec<AtomicBool>,
    /// Per (sender, destination) pair decision counters; index = from*n+to.
    pair_seq: Vec<AtomicU64>,
    /// Held (delayed) envelopes per pair. BTreeMap so the release sweep
    /// visits pairs in a deterministic order.
    held: Mutex<BTreeMap<(u32, u32), VecDeque<Held>>>,
    /// Lock-free fast path: how many envelopes are currently held.
    held_count: AtomicUsize,
    tallies: FaultTallies,
    /// Metric mirrors, set once by [`Transport::wire_obs`].
    hooks: OnceLock<FaultHooks>,
}

impl FaultTransport {
    /// Decorate `inner` with the faults described by `plan`.
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan) -> Self {
        let places = inner.num_places();
        let events: VecDeque<FaultEvent> = plan.events.iter().copied().collect();
        FaultTransport {
            inner,
            clock: AtomicU64::new(0),
            events_left: AtomicUsize::new(events.len()),
            pending_events: Mutex::new(events),
            dead: (0..places).map(|_| AtomicBool::new(false)).collect(),
            pair_seq: (0..places * places).map(|_| AtomicU64::new(0)).collect(),
            held: Mutex::new(BTreeMap::new()),
            held_count: AtomicUsize::new(0),
            tallies: FaultTallies::default(),
            hooks: OnceLock::new(),
            plan,
        }
    }

    /// The plan governing this decorator.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Running totals of the faults injected so far.
    pub fn fault_counts(&self) -> FaultCounts {
        let mut lost_by_class = [0u64; MsgClass::ALL.len()];
        for (out, tally) in lost_by_class.iter_mut().zip(&self.tallies.lost_by_class) {
            *out = tally.load(Ordering::Relaxed);
        }
        FaultCounts {
            dropped: self.tallies.dropped.load(Ordering::Relaxed),
            delayed: self.tallies.delayed.load(Ordering::Relaxed),
            duplicated: self.tallies.duplicated.load(Ordering::Relaxed),
            truncated: self.tallies.truncated.load(Ordering::Relaxed),
            killed: self.tallies.killed.load(Ordering::Relaxed),
            filtered: self.tallies.filtered.load(Ordering::Relaxed),
            lost_by_class,
        }
    }

    /// Tally the protocol-visible messages destroyed with `env` by a drop
    /// or truncation: the envelope's own class, or — for a batch — the
    /// class of every coalesced message inside it. Pure counting, **no
    /// decision draws**: the seeded fault stream is untouched, so recorded
    /// corpora and the `fault_golden` pins stay valid.
    fn tally_lost(&self, env: &Envelope) {
        if env.class == MsgClass::Batch {
            if let Some(batch) = env.payload.downcast_ref::<crate::message::BatchPayload>() {
                for inner in &batch.envs {
                    self.tallies.lost_by_class[inner.class.index()].fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        }
        self.tallies.lost_by_class[env.class.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// The decorator's logical clock (diagnostics).
    pub fn logical_step(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Envelopes currently held for delayed release (diagnostics).
    pub fn held_len(&self) -> usize {
        self.held_count.load(Ordering::Relaxed)
    }

    /// Scripted events not yet fired.
    pub fn pending_events(&self) -> usize {
        self.events_left.load(Ordering::Acquire)
    }

    /// Advance the logical clock one step with no traffic: fire due
    /// scripted events and release due held envelopes. The clock normally
    /// advances only on send/recv, so when traffic stops, held state can
    /// strand; an external scheduler (the DST controller) pokes the layer
    /// to drain it deterministically.
    pub fn poke(&self) {
        let now = self.tick();
        self.apply_events(now);
        self.pump(now);
    }

    /// Advance the logical clock by one operation and return the new time.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Fire scripted events whose step has been reached.
    fn apply_events(&self, now: u64) {
        if self.events_left.load(Ordering::Acquire) == 0 {
            return;
        }
        loop {
            let event = {
                let mut pending = self.pending_events.lock();
                match pending.front() {
                    Some(e) if e.step() <= now => {
                        let e = *e;
                        pending.pop_front();
                        self.events_left.store(pending.len(), Ordering::Release);
                        e
                    }
                    _ => return,
                }
            };
            match event {
                FaultEvent::KillPlace { place, .. } => self.kill(place),
            }
        }
    }

    fn kill(&self, place: PlaceId) {
        if self.dead[place.index()].swap(true, Ordering::AcqRel) {
            return; // already dead
        }
        self.inner.kill_place(place);
        // Held traffic addressed to the victim is destroyed with it —
        // tallied per inner class like any other destroyed message, so the
        // loss stays accounted even when it happens as a side effect of a
        // kill rather than a drop decision.
        {
            let mut held = self.held.lock();
            held.retain(|&(_, to), q| {
                if to != place.0 {
                    return true;
                }
                for (_, env) in q.iter() {
                    self.tally_lost(env);
                }
                false
            });
            let remaining = held.values().map(VecDeque::len).sum();
            self.held_count.store(remaining, Ordering::Relaxed);
        }
        self.tallies.killed.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = self.hooks.get() {
            h.killed.inc(place.0);
        }
    }

    /// Release every held envelope whose release step has passed, in
    /// deterministic pair order (which is what reorders traffic *across*
    /// pairs while each pair's own queue drains FIFO).
    fn pump(&self, now: u64) {
        if self.held_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut ready: Vec<Envelope> = Vec::new();
        {
            let mut held = self.held.lock();
            held.retain(|_, q| {
                while q.front().is_some_and(|(release, _)| *release <= now) {
                    ready.push(q.pop_front().expect("front checked").1);
                }
                !q.is_empty()
            });
            let remaining = held.values().map(VecDeque::len).sum();
            self.held_count.store(remaining, Ordering::Relaxed);
        }
        for env in ready {
            // The destination may have died while the envelope was held;
            // the black hole swallows it silently, like in-flight traffic
            // to a crashed node.
            let _ = self.inner.send(env);
        }
    }

    /// One decision draw: uniform in `[0, 1)`, a pure function of the plan
    /// seed, the pair, the class, the per-pair attempt index, and the fault
    /// kind (`salt`).
    fn draw(&self, from: u32, to: u32, class: MsgClass, seq: u64, salt: u64) -> f64 {
        let bits = decision_bits(self.plan.seed, from, to, class, seq, salt);
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn count(&self, tally: &AtomicU64, hook: impl Fn(&FaultHooks) -> &Counter, shard: u32) {
        tally.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = self.hooks.get() {
            hook(h).inc(shard);
        }
    }
}

/// Salts separating the independent per-fault-kind draws.
const SALT_DROP: u64 = 0xD0;
const SALT_DELAY: u64 = 0xDE;
const SALT_DELAY_LEN: u64 = 0xDF;
const SALT_DUP: u64 = 0xD2;
const SALT_TRUNC: u64 = 0x7C;

/// SplitMix64 over the packed decision inputs.
fn decision_bits(seed: u64, from: u32, to: u32, class: MsgClass, seq: u64, salt: u64) -> u64 {
    let pair = ((from as u64) << 24) ^ (to as u64) ^ ((class.index() as u64) << 48);
    let mut z = seed
        ^ pair.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ seq.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ salt.wrapping_mul(0x94d0_49bb_1331_11eb);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Transport for FaultTransport {
    fn send(&self, env: Envelope) -> Result<(), SendError> {
        let now = self.tick();
        self.apply_events(now);
        self.pump(now);

        let (from, to) = (env.from.0, env.to.0);
        if self.dead[env.to.index()].load(Ordering::Acquire) {
            return Err(SendError::dead(env.to, 1));
        }
        // A killed place is fully isolated: nothing it tries to send after
        // the kill reaches the network either.
        if self.dead[env.from.index()].load(Ordering::Acquire) {
            return Err(SendError::dead(env.from, 1));
        }
        let class = env.class;
        let faults = self.plan.faults[class.index()];
        let seq = self.pair_seq[env.from.index() * self.dead.len() + env.to.index()]
            .fetch_add(1, Ordering::Relaxed);

        if faults.drop > 0.0 && self.draw(from, to, class, seq, SALT_DROP) < faults.drop {
            // The NIC accepted it; the wire lost it. Success, silently.
            self.count(&self.tallies.dropped, |h| &h.dropped, from);
            self.tally_lost(&env);
            return Ok(());
        }

        let env = if faults.truncate > 0.0
            && self.draw(from, to, class, seq, SALT_TRUNC) < faults.truncate
        {
            self.count(&self.tallies.truncated, |h| &h.truncated, from);
            self.tally_lost(&env);
            Envelope {
                payload: Box::new(FaultMarker::Truncated),
                ..env
            }
        } else {
            env
        };
        let duplicate =
            faults.duplicate > 0.0 && self.draw(from, to, class, seq, SALT_DUP) < faults.duplicate;

        // Delay, or forced queueing behind already-held same-pair traffic
        // (anything else would let this envelope overtake them and break
        // per-pair FIFO).
        let delayed =
            faults.delay > 0.0 && self.draw(from, to, class, seq, SALT_DELAY) < faults.delay;
        let env = {
            let mut held = self.held.lock();
            if delayed {
                let (lo, hi) = self.plan.delay_steps;
                let span = hi - lo + 1;
                let extra =
                    lo + decision_bits(self.plan.seed, from, to, class, seq, SALT_DELAY_LEN) % span;
                let q = held.entry((from, to)).or_default();
                // Never release before a held predecessor on the same pair.
                let release = q
                    .back()
                    .map_or(now + extra, |(prev, _)| (now + extra).max(*prev));
                q.push_back((release, env));
                self.held_count.fetch_add(1, Ordering::Relaxed);
                self.count(&self.tallies.delayed, |h| &h.delayed, from);
                None
            } else {
                match held.get_mut(&(from, to)).filter(|q| !q.is_empty()) {
                    Some(q) => {
                        let prev = q.back().expect("non-empty").0;
                        q.push_back((prev, env));
                        self.held_count.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                    None => Some(env),
                }
            }
        };
        let Some(env) = env else {
            return Ok(());
        };

        self.inner.send(env)?;
        if duplicate {
            self.count(&self.tallies.duplicated, |h| &h.duplicated, from);
            let phantom = Envelope {
                from: PlaceId(from),
                to: PlaceId(to),
                class,
                bytes: crate::message::HEADER_BYTES,
                // A phantom is transport noise, not a caused message; it
                // carries no causal identity and never enters the DAG.
                causal: None,
                payload: Box::new(FaultMarker::Duplicate),
            };
            let _ = self.inner.send(phantom);
        }
        Ok(())
    }

    fn try_recv(&self, place: PlaceId) -> Option<Envelope> {
        let now = self.tick();
        self.apply_events(now);
        self.pump(now);
        if self.dead[place.index()].load(Ordering::Acquire) {
            return None;
        }
        loop {
            let env = self.inner.try_recv(place)?;
            if env.payload.downcast_ref::<FaultMarker>().is_some() {
                self.tallies.filtered.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            return Some(env);
        }
    }

    fn try_recv_batch(&self, place: PlaceId, max: usize, out: &mut Vec<Envelope>) -> usize {
        let now = self.tick();
        self.apply_events(now);
        self.pump(now);
        if self.dead[place.index()].load(Ordering::Acquire) {
            return 0;
        }
        let before = out.len();
        self.inner.try_recv_batch(place, max, out);
        let mut filtered = 0u64;
        out.retain(|env| {
            let marker = env.payload.downcast_ref::<FaultMarker>().is_some();
            filtered += marker as u64;
            !marker
        });
        if filtered > 0 {
            self.tallies.filtered.fetch_add(filtered, Ordering::Relaxed);
        }
        out.len() - before
    }

    fn register_waker(&self, place: PlaceId, waker: Waker) {
        self.inner.register_waker(place, waker)
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn num_places(&self) -> usize {
        self.dead.len()
    }

    fn queue_len(&self, place: PlaceId) -> usize {
        if self.dead[place.index()].load(Ordering::Acquire) {
            return 0;
        }
        self.inner.queue_len(place)
    }

    fn lane_footprint(&self, from: PlaceId) -> (usize, usize) {
        self.inner.lane_footprint(from)
    }

    /// Mirror every injected fault into `metrics` (sharded by sending
    /// place), and wire the inner transport too.
    fn wire_obs(&self, metrics: &MetricsRegistry) {
        let _ = self.hooks.set(FaultHooks {
            dropped: metrics.counter(obs::names::FAULT_DROPPED),
            delayed: metrics.counter(obs::names::FAULT_DELAYED),
            duplicated: metrics.counter(obs::names::FAULT_DUPLICATED),
            truncated: metrics.counter(obs::names::FAULT_TRUNCATED),
            killed: metrics.counter(obs::names::FAULT_KILLED),
        });
        self.inner.wire_obs(metrics);
    }

    fn kill_place(&self, place: PlaceId) {
        self.kill(place)
    }

    fn is_dead(&self, place: PlaceId) -> bool {
        self.dead[place.index()].load(Ordering::Acquire)
    }

    fn dead_places(&self) -> Vec<PlaceId> {
        (0..self.dead.len())
            .filter(|&i| self.dead[i].load(Ordering::Acquire))
            .map(|i| PlaceId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalTransport;

    fn env(from: u32, to: u32, tag: u64) -> Envelope {
        Envelope::new(PlaceId(from), PlaceId(to), MsgClass::Task, 8, Box::new(tag))
    }

    fn wrap(places: usize, plan: FaultPlan) -> FaultTransport {
        FaultTransport::new(Arc::new(LocalTransport::new(places)), plan)
    }

    /// Drain place `p`, ticking the clock until `want` messages arrived or
    /// `budget` polls elapsed.
    fn drain(t: &FaultTransport, p: u32, want: usize, budget: usize) -> Vec<u64> {
        let mut tags = Vec::new();
        for _ in 0..budget {
            if let Some(e) = t.try_recv(PlaceId(p)) {
                tags.push(*e.payload.downcast::<u64>().unwrap());
                if tags.len() == want {
                    break;
                }
            }
        }
        tags
    }

    #[test]
    fn zero_plan_passes_everything_through() {
        let t = wrap(2, FaultPlan::new(42));
        assert!(t.plan().is_zero());
        for i in 0..50u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        assert_eq!(drain(&t, 1, 50, 60), (0..50).collect::<Vec<_>>());
        assert_eq!(t.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn drop_loses_messages_deterministically() {
        let run = || {
            let t = wrap(2, FaultPlan::new(7).all_classes(ClassFaults::dropping(0.3)));
            for i in 0..200u64 {
                t.send(env(0, 1, i)).unwrap();
            }
            (drain(&t, 1, 200, 400), t.fault_counts().dropped)
        };
        let (got_a, dropped_a) = run();
        let (got_b, dropped_b) = run();
        assert!(dropped_a > 0, "p=0.3 over 200 sends should drop some");
        assert_eq!(got_a.len() as u64 + dropped_a, 200);
        // Same seed, same traffic: identical losses.
        assert_eq!(got_a, got_b);
        assert_eq!(dropped_a, dropped_b);
        // Survivors keep their relative order.
        assert!(got_a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn different_seeds_differ() {
        let survivors = |seed| {
            let t = wrap(
                2,
                FaultPlan::new(seed).all_classes(ClassFaults::dropping(0.3)),
            );
            for i in 0..200u64 {
                t.send(env(0, 1, i)).unwrap();
            }
            drain(&t, 1, 200, 400)
        };
        assert_ne!(survivors(1), survivors(2));
    }

    #[test]
    fn delay_preserves_per_pair_fifo() {
        let t = wrap(
            3,
            FaultPlan::new(11).all_classes(ClassFaults::delaying(0.5)),
        );
        for i in 0..100u64 {
            t.send(env(0, 2, i)).unwrap();
            t.send(env(1, 2, 1000 + i)).unwrap();
        }
        let got = drain(&t, 2, 200, 2000);
        assert_eq!(got.len(), 200, "delay must not lose messages");
        assert!(t.held_len() == 0);
        assert!(t.fault_counts().delayed > 0);
        let from0: Vec<u64> = got.iter().copied().filter(|&x| x < 1000).collect();
        let from1: Vec<u64> = got.iter().copied().filter(|&x| x >= 1000).collect();
        assert_eq!(from0, (0..100).collect::<Vec<_>>());
        assert_eq!(from1, (1000..1100).collect::<Vec<_>>());
        // With half the traffic delayed, the interleaving across pairs must
        // differ from the strict alternation it was sent in.
        let alternation: Vec<u64> = (0..100u64).flat_map(|i| [i, 1000 + i]).collect();
        assert_ne!(got, alternation, "cross-pair reordering expected");
    }

    #[test]
    fn duplicates_charged_but_filtered() {
        let t = wrap(
            2,
            FaultPlan::new(5).all_classes(ClassFaults::duplicating(0.5)),
        );
        for i in 0..100u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        let dup = t.fault_counts().duplicated;
        assert!(dup > 0);
        // Phantom envelopes transit the wire ...
        assert_eq!(t.stats().total_envelopes(), 100 + dup);
        // ... but the protocol layer sees each message exactly once.
        assert_eq!(drain(&t, 1, 200, 400), (0..100).collect::<Vec<_>>());
        assert_eq!(t.fault_counts().filtered, dup);
    }

    #[test]
    fn truncation_discards_at_receive_edge() {
        let t = wrap(
            2,
            FaultPlan::new(3).all_classes(ClassFaults::truncating(0.4)),
        );
        for i in 0..100u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        let counts = t.fault_counts();
        assert!(counts.truncated > 0);
        let got = drain(&t, 1, 100, 300);
        assert_eq!(got.len() as u64 + counts.truncated, 100);
        // Mangled frames transited (and were charged) before discard.
        assert_eq!(t.stats().total_envelopes(), 100);
        assert_eq!(t.fault_counts().filtered, counts.truncated);
    }

    #[test]
    fn scripted_kill_fires_on_logical_clock() {
        let plan = FaultPlan::new(9).kill_place(PlaceId(1), 10);
        let t = wrap(3, plan);
        for i in 0..9u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        assert!(!t.is_dead(PlaceId(1)));
        // The tenth operation crosses the scripted step and fires the kill
        // before the envelope is submitted: it dies with the place.
        let err = t.send(env(0, 1, 9)).unwrap_err();
        assert_eq!(err, SendError::dead(PlaceId(1), 1));
        assert!(t.is_dead(PlaceId(1)));
        assert_eq!(t.fault_counts().killed, 1);
        // The mailbox black-holed its backlog.
        assert!(t.try_recv(PlaceId(1)).is_none());
        assert_eq!(t.queue_len(PlaceId(1)), 0);
        // Other places keep working.
        t.send(env(0, 2, 99)).unwrap();
        assert_eq!(drain(&t, 2, 1, 10), vec![99]);
    }

    #[test]
    fn lost_by_class_counts_through_batches() {
        // A dropped Batch envelope loses every coalesced message inside it:
        // `dropped` says 1, but the per-class ledger must say what was
        // really destroyed (this was the GLB steal-handshake silent-loss
        // channel under batching).
        let t = wrap(2, FaultPlan::new(1).all_classes(ClassFaults::dropping(1.0)));
        let inner = vec![
            env(0, 1, 10),
            Envelope::new(PlaceId(0), PlaceId(1), MsgClass::Steal, 8, Box::new(11u64)),
            Envelope::new(PlaceId(0), PlaceId(1), MsgClass::Steal, 8, Box::new(12u64)),
        ];
        t.send(Envelope::batch(PlaceId(0), PlaceId(1), inner))
            .unwrap();
        let counts = t.fault_counts();
        assert_eq!(counts.dropped, 1, "one physical envelope dropped");
        assert_eq!(counts.lost(MsgClass::Task), 1);
        assert_eq!(counts.lost(MsgClass::Steal), 2);
        assert_eq!(
            counts.lost(MsgClass::Batch),
            0,
            "count the cargo, not the crate"
        );
        assert_eq!(counts.lost_total(), 3);
        assert!(counts.lost_total() >= counts.dropped + counts.truncated);
    }

    #[test]
    fn lost_by_class_counts_unbatched_drops_and_truncations() {
        let t = wrap(
            2,
            FaultPlan::new(3).all_classes(ClassFaults::truncating(0.4)),
        );
        for i in 0..100u64 {
            t.send(env(0, 1, i)).unwrap();
        }
        let counts = t.fault_counts();
        assert!(counts.truncated > 0);
        assert_eq!(counts.lost(MsgClass::Task), counts.truncated);
        assert_eq!(counts.lost_total(), counts.truncated);
        // Lossless kinds leave the ledger untouched.
        let clean = wrap(2, FaultPlan::new(5).all_classes(ClassFaults::delaying(0.5)));
        for i in 0..50u64 {
            clean.send(env(0, 1, i)).unwrap();
        }
        assert_eq!(clean.fault_counts().lost_total(), 0);
    }

    #[test]
    fn held_traffic_to_killed_place_is_destroyed() {
        let plan = FaultPlan::new(13)
            .all_classes(ClassFaults::delaying(1.0))
            .delay_steps(1000, 1000);
        let t = wrap(2, plan);
        t.send(env(0, 1, 0)).unwrap();
        assert_eq!(t.held_len(), 1);
        t.kill_place(PlaceId(1));
        assert_eq!(t.held_len(), 0);
    }
    #[test]
    fn inline_batch_losses_count_like_a_boxed_batch() {
        // A batch whose cells ride inline loses the same messages, in the
        // same ledgers, as the batch with every cell boxed; each inline
        // value is dropped exactly once wherever the batch dies.
        use crate::message::tests::{count, drops, mixed_batch};
        let batch = |inline: bool, n: &Arc<std::sync::atomic::AtomicUsize>| {
            let b = mixed_batch(3, n);
            if inline {
                b
            } else {
                Envelope::batch(PlaceId(0), PlaceId(1), b.unbatch().unwrap())
            }
        };
        let lossy = [ClassFaults::dropping(1.0), ClassFaults::truncating(1.0)];
        for faults in lossy {
            let mut seen = Vec::new();
            for inline in [false, true] {
                let n = drops();
                let t = wrap(2, FaultPlan::new(1).all_classes(faults));
                t.send(batch(inline, &n)).unwrap();
                while t.try_recv(PlaceId(1)).is_some() {}
                let c = t.fault_counts();
                assert_eq!((c.lost(MsgClass::Task), c.lost(MsgClass::Steal)), (3, 3));
                assert_eq!(c.lost(MsgClass::Batch), 0);
                assert_eq!(count(&n), 3, "inline {inline}: values dropped once");
                seen.push(c);
            }
            assert_eq!(seen[0], seen[1], "{faults:?}");
        }
        let mut errs = Vec::new();
        for inline in [false, true] {
            let n = drops();
            let t = wrap(2, FaultPlan::new(1));
            t.kill_place(PlaceId(1));
            errs.push(t.send(batch(inline, &n)).unwrap_err());
            assert_eq!(count(&n), 3, "inline {inline}: values dropped once");
            assert_eq!(t.fault_counts().lost_total(), 0);
        }
        assert_eq!(errs, [SendError::dead(PlaceId(1), 1); 2]);
    }
}
