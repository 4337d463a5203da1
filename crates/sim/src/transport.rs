//! `SimTransport` — the simulated network.
//!
//! Unlike [`x10rt::LocalTransport`], a send does **not** land in the
//! destination mailbox: it parks in an in-flight channel keyed by
//! `(from, to, class)`, and only the schedule controller moves envelopes
//! from channels to mailboxes, one at a time, in an order it chooses. Each
//! channel is a FIFO, so the per-(sender, destination) ordering guarantee
//! the finish protocols rely on is preserved *per class* while everything
//! across channels is reorderable — the adversarial-but-legal delivery
//! space the fuzzer explores.
//!
//! The transport also keeps the bookkeeping the harness oracles read:
//!
//! * a **virtual clock** ticking once per schedule action;
//! * a **delivery log** (time, from, to, class, bytes) — the causal record
//!   a run hashes to for record/replay, and the input to route-legality
//!   oracles like the FINISH_DENSE hop check;
//! * an **envelope ledger** (`sent = delivered + in-flight + purged +
//!   mutation drops`) that must balance at all times;
//! * an optional **mutation** — a deliberately injected protocol bug (drop
//!   the n-th envelope of a class) used to prove the fuzzer has teeth.

use crate::rng::SplitMix64;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use x10rt::transport::Waker;
use x10rt::{Envelope, MsgClass, NetStats, PlaceId, SendError, Transport};

/// Identifies one in-flight FIFO channel: `(from, to, class index)`.
pub type ChannelKey = (u32, u32, usize);

/// One delivery, as recorded in the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Virtual time of the delivery.
    pub time: u64,
    /// Sender.
    pub from: u32,
    /// Destination.
    pub to: u32,
    /// Traffic class.
    pub class: MsgClass,
    /// Modeled wire bytes.
    pub bytes: usize,
}

/// A deliberately injected transport-level protocol bug (mutation testing).
#[derive(Clone, Copy, Debug)]
pub enum Mutation {
    /// Silently destroy the `nth` (0-based) envelope sent with `class` —
    /// e.g. `DropNth { class: FinishCtl, nth: 0 }` models a lost
    /// termination-control delta, which a correct fuzzer must flag as a
    /// quiescence failure.
    DropNth {
        /// The class whose send stream is sabotaged.
        class: MsgClass,
        /// Which send of that class (0-based) to destroy.
        nth: u64,
    },
}

/// Snapshot of the envelope ledger. The identity
/// `sent == delivered + in_flight + purged + mutation_drops`
/// must hold at every quiescent point (checked by [`Ledger::balanced`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Envelopes accepted by [`Transport::send`].
    pub sent: u64,
    /// Envelopes moved from a channel into a destination mailbox.
    pub delivered: u64,
    /// Envelopes destroyed because their channel or mailbox belonged to a
    /// killed place.
    pub purged: u64,
    /// Envelopes destroyed by the installed [`Mutation`].
    pub mutation_drops: u64,
    /// Envelopes currently parked in in-flight channels.
    pub in_flight: u64,
    /// Envelopes delivered but not yet consumed by a receiver.
    pub mailboxed: u64,
}

impl Ledger {
    /// Does the ledger identity hold?
    pub fn balanced(&self) -> bool {
        self.sent == self.delivered + self.in_flight + self.purged + self.mutation_drops
    }
}

struct SimState {
    /// In-flight envelopes, FIFO per `(from, to, class)`. A `BTreeMap` so
    /// enumeration order is deterministic.
    channels: BTreeMap<ChannelKey, VecDeque<Envelope>>,
    /// Per-class send counters (mutation matching).
    class_sends: [u64; MsgClass::ALL.len()],
    ledger: Ledger,
    /// FNV-1a accumulator over every schedule action — the causal trace
    /// hash a replay must reproduce bit-for-bit.
    trace_hash: u64,
    log: Vec<DeliveryRecord>,
    mutation: Option<Mutation>,
}

impl SimState {
    fn mix(&mut self, words: &[u64]) {
        for &w in words {
            for byte in w.to_le_bytes() {
                self.trace_hash ^= byte as u64;
                self.trace_hash = self.trace_hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
}

/// The simulated network (see module docs). Plugs into
/// `apgas::Runtime::with_transport`.
pub struct SimTransport {
    state: Mutex<SimState>,
    mailboxes: Vec<Mutex<VecDeque<Envelope>>>,
    closed: Vec<AtomicBool>,
    /// Each place's waker, set once.
    waker: Vec<OnceLock<Waker>>,
    stats: NetStats,
    /// Virtual clock: one tick per schedule action.
    now: AtomicU64,
}

impl SimTransport {
    /// A simulated network connecting `places` places.
    pub fn new(places: usize) -> Self {
        assert!(places > 0);
        SimTransport {
            state: Mutex::new(SimState {
                channels: BTreeMap::new(),
                class_sends: [0; MsgClass::ALL.len()],
                ledger: Ledger::default(),
                // FNV-1a offset basis.
                trace_hash: 0xCBF2_9CE4_8422_2325,
                log: Vec::new(),
                mutation: None,
            }),
            mailboxes: (0..places).map(|_| Mutex::new(VecDeque::new())).collect(),
            closed: (0..places).map(|_| AtomicBool::new(false)).collect(),
            waker: (0..places).map(|_| OnceLock::new()).collect(),
            stats: NetStats::new(places),
            now: AtomicU64::new(0),
        }
    }

    /// Install a [`Mutation`] (builder style) — mutation testing only.
    pub fn with_mutation(self, m: Mutation) -> Self {
        self.state.lock().mutation = Some(m);
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::Acquire)
    }

    /// Advance the virtual clock by one schedule action.
    pub fn tick(&self) -> u64 {
        self.now.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Nonempty in-flight channels, in deterministic (sorted-key) order —
    /// the controller's `Deliver` action menu.
    pub fn deliverable(&self) -> Vec<ChannelKey> {
        let s = self.state.lock();
        s.channels
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&k, _)| k)
            .collect()
    }

    /// Envelopes currently in flight (all channels).
    pub fn in_flight(&self) -> u64 {
        self.state.lock().ledger.in_flight
    }

    /// Deliver the head envelope of `key` into its destination mailbox
    /// (or purge it if the destination died meanwhile). Returns `false`
    /// when the channel was empty.
    pub fn deliver(&self, key: ChannelKey) -> bool {
        let time = self.tick();
        let mut s = self.state.lock();
        let env = match s.channels.get_mut(&key).and_then(|q| q.pop_front()) {
            Some(e) => e,
            None => return false,
        };
        s.ledger.in_flight -= 1;
        let to = env.to.index();
        if self.closed[to].load(Ordering::Acquire) {
            s.ledger.purged += 1;
            return true;
        }
        s.ledger.delivered += 1;
        s.mix(&[
            2,
            env.from.0 as u64,
            env.to.0 as u64,
            env.class.index() as u64,
            env.bytes as u64,
        ]);
        s.log.push(DeliveryRecord {
            time,
            from: env.from.0,
            to: env.to.0,
            class: env.class,
            bytes: env.bytes,
        });
        drop(s);
        self.mailboxes[to].lock().push_back(env);
        if let Some(w) = self.waker[to].get() {
            w();
        }
        true
    }

    /// Record a `Step(place)` schedule action into the trace hash (grants
    /// shape causality just like deliveries do).
    pub fn record_step(&self, place: u32) {
        self.tick();
        self.state.lock().mix(&[1, place as u64]);
    }

    /// Record a `Kill(place)` schedule action into the trace hash — a kill
    /// reshapes causality more than any delivery, so replays must agree on
    /// exactly when it struck.
    pub fn record_kill(&self, place: u32) {
        self.tick();
        self.state.lock().mix(&[3, place as u64]);
    }

    /// The causal trace hash accumulated so far. Two runs of the same
    /// `(workload seed, schedule seed)` must agree on this bit-for-bit.
    pub fn trace_hash(&self) -> u64 {
        self.state.lock().trace_hash
    }

    /// The delivery log so far.
    pub fn delivery_log(&self) -> Vec<DeliveryRecord> {
        self.state.lock().log.clone()
    }

    /// Envelopes of `class` still sitting in channels or mailboxes — the
    /// zero-residual oracle reads this after quiescence.
    pub fn residual(&self, class: MsgClass) -> usize {
        let s = self.state.lock();
        let in_ch: usize = s
            .channels
            .iter()
            .filter(|(&(_, _, c), _)| c == class.index())
            .map(|(_, q)| q.len())
            .sum();
        let in_mb: usize = self
            .mailboxes
            .iter()
            .map(|m| m.lock().iter().filter(|e| e.class == class).count())
            .sum();
        in_ch + in_mb
    }

    /// Snapshot the envelope ledger.
    pub fn ledger(&self) -> Ledger {
        let mut l = self.state.lock().ledger;
        l.mailboxed = self.mailboxes.iter().map(|m| m.lock().len() as u64).sum();
        l
    }

    fn record_stats(&self, env: &Envelope) {
        // Same discipline as LocalTransport: one physical envelope always;
        // one logical message unless it is a batch (inner messages were
        // counted by the coalescer at pack time).
        self.stats.record_envelope(env.from.0, env.bytes);
        if env.class != MsgClass::Batch {
            self.stats
                .record_send(env.from.0, env.to.0, env.class, env.bytes);
        }
    }
}

impl Transport for SimTransport {
    fn send(&self, env: Envelope) -> Result<(), SendError> {
        debug_assert!(env.to.index() < self.mailboxes.len(), "bad destination");
        if self.closed[env.to.index()].load(Ordering::Acquire) {
            return Err(SendError::dead(env.to, 1));
        }
        // A killed place is fully isolated: nothing it tries to send after
        // the kill reaches the network either (matches `FaultTransport`).
        if self.closed[env.from.index()].load(Ordering::Acquire) {
            return Err(SendError::dead(env.from, 1));
        }
        self.record_stats(&env);
        let mut s = self.state.lock();
        let class_seq = s.class_sends[env.class.index()];
        s.class_sends[env.class.index()] += 1;
        s.ledger.sent += 1;
        if let Some(Mutation::DropNth { class, nth }) = s.mutation {
            if env.class == class && class_seq == nth {
                s.ledger.mutation_drops += 1;
                return Ok(());
            }
        }
        s.ledger.in_flight += 1;
        let key = (env.from.0, env.to.0, env.class.index());
        s.channels.entry(key).or_default().push_back(env);
        Ok(())
    }

    fn try_recv(&self, place: PlaceId) -> Option<Envelope> {
        self.mailboxes[place.index()].lock().pop_front()
    }

    fn try_recv_batch(&self, place: PlaceId, max: usize, out: &mut Vec<Envelope>) -> usize {
        let mut q = self.mailboxes[place.index()].lock();
        let n = max.min(q.len());
        out.extend(q.drain(..n));
        n
    }

    fn register_waker(&self, place: PlaceId, waker: Waker) {
        let _ = self.waker[place.index()].set(waker);
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn num_places(&self) -> usize {
        self.mailboxes.len()
    }

    fn queue_len(&self, place: PlaceId) -> usize {
        // Only *delivered* traffic is visible at the destination; in-flight
        // envelopes don't exist for the receiver until the controller
        // chooses to deliver them.
        self.mailboxes[place.index()].lock().len()
    }

    fn kill_place(&self, place: PlaceId) {
        let p = place.index();
        self.closed[p].store(true, Ordering::Release);
        let mut s = self.state.lock();
        // Purge in-flight traffic addressed to the victim...
        let mut purged = 0u64;
        for (&(_, to, _), q) in s.channels.iter_mut() {
            if to == place.0 {
                purged += q.len() as u64;
                q.clear();
            }
        }
        s.ledger.in_flight -= purged;
        s.ledger.purged += purged;
        drop(s);
        // ... and everything already in its mailbox.
        let drained = self.mailboxes[p].lock().drain(..).count() as u64;
        let mut s = self.state.lock();
        s.ledger.delivered -= drained;
        s.ledger.purged += drained;
    }

    fn is_dead(&self, place: PlaceId) -> bool {
        self.closed[place.index()].load(Ordering::Acquire)
    }

    fn dead_places(&self) -> Vec<PlaceId> {
        (0..self.mailboxes.len())
            .filter(|&i| self.closed[i].load(Ordering::Acquire))
            .map(|i| PlaceId(i as u32))
            .collect()
    }
}

/// Seeded helper: pick a uniformly random element index (used by the
/// controller's chooser, re-exported here so transport tests can drive the
/// sim by hand).
pub fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    rng.below(n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: u32, to: u32, class: MsgClass, tag: u64) -> Envelope {
        Envelope::new(PlaceId(from), PlaceId(to), class, 8, Box::new(tag))
    }

    #[test]
    fn sends_park_in_flight_until_delivered() {
        let t = SimTransport::new(3);
        t.send(env(0, 2, MsgClass::Task, 7)).unwrap();
        // Not visible at the destination yet.
        assert_eq!(t.queue_len(PlaceId(2)), 0);
        assert!(t.try_recv(PlaceId(2)).is_none());
        assert_eq!(t.in_flight(), 1);
        // The controller delivers it.
        let chans = t.deliverable();
        assert_eq!(chans, vec![(0, 2, MsgClass::Task.index())]);
        assert!(t.deliver(chans[0]));
        let got = t.try_recv(PlaceId(2)).expect("delivered");
        assert_eq!(*got.payload.downcast::<u64>().unwrap(), 7);
        assert!(t.ledger().balanced());
    }

    #[test]
    fn per_channel_fifo_holds_across_interleaving() {
        let t = SimTransport::new(2);
        for i in 0..5u64 {
            t.send(env(0, 1, MsgClass::Task, i)).unwrap();
            t.send(env(0, 1, MsgClass::FinishCtl, 100 + i)).unwrap();
        }
        // Deliver the two channels in an adversarial interleaving; each
        // channel must still drain in send order.
        let task = (0, 1, MsgClass::Task.index());
        let ctl = (0, 1, MsgClass::FinishCtl.index());
        for k in [ctl, task, task, ctl, ctl, task, task, ctl, ctl, task] {
            assert!(t.deliver(k));
        }
        let (mut tasks, mut ctls) = (Vec::new(), Vec::new());
        while let Some(e) = t.try_recv(PlaceId(1)) {
            let v = *e.payload.downcast::<u64>().unwrap();
            if v < 100 {
                tasks.push(v);
            } else {
                ctls.push(v);
            }
        }
        assert_eq!(tasks, vec![0, 1, 2, 3, 4]);
        assert_eq!(ctls, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn trace_hash_reflects_delivery_order() {
        let run = |order: [usize; 2]| {
            let t = SimTransport::new(3);
            t.send(env(0, 1, MsgClass::Task, 1)).unwrap();
            t.send(env(0, 2, MsgClass::Task, 2)).unwrap();
            let chans = t.deliverable();
            for &i in &order {
                assert!(t.deliver(chans[i]));
            }
            t.trace_hash()
        };
        assert_eq!(run([0, 1]), run([0, 1]));
        assert_ne!(run([0, 1]), run([1, 0]));
    }

    #[test]
    fn mutation_drops_exactly_the_named_send() {
        let t = SimTransport::new(2).with_mutation(Mutation::DropNth {
            class: MsgClass::FinishCtl,
            nth: 1,
        });
        t.send(env(0, 1, MsgClass::FinishCtl, 0)).unwrap();
        t.send(env(0, 1, MsgClass::FinishCtl, 1)).unwrap(); // dropped
        t.send(env(0, 1, MsgClass::FinishCtl, 2)).unwrap();
        t.send(env(0, 1, MsgClass::Task, 3)).unwrap(); // other classes unaffected
        let l = t.ledger();
        assert_eq!(l.mutation_drops, 1);
        assert_eq!(l.in_flight, 3);
        assert!(l.balanced());
        while let Some(k) = t.deliverable().first().copied() {
            t.deliver(k);
        }
        let mut got = Vec::new();
        while let Some(e) = t.try_recv(PlaceId(1)) {
            got.push(*e.payload.downcast::<u64>().unwrap());
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 2, 3]);
    }

    #[test]
    fn kill_purges_and_ledger_balances() {
        let t = SimTransport::new(3);
        t.send(env(0, 1, MsgClass::Task, 0)).unwrap();
        t.send(env(0, 1, MsgClass::Task, 1)).unwrap();
        t.deliver((0, 1, MsgClass::Task.index())); // one reaches the mailbox
        t.kill_place(PlaceId(1));
        assert!(t.is_dead(PlaceId(1)));
        assert!(t.try_recv(PlaceId(1)).is_none());
        let err = t.send(env(0, 1, MsgClass::Task, 2)).unwrap_err();
        assert_eq!(err.dropped, 1);
        let l = t.ledger();
        assert_eq!(l.purged, 2);
        assert_eq!(l.in_flight, 0);
        assert!(l.balanced());
    }

    #[test]
    fn killed_place_cannot_send_and_kills_hash_the_trace() {
        let t = SimTransport::new(3);
        t.kill_place(PlaceId(1));
        let err = t.send(env(1, 2, MsgClass::Task, 0)).unwrap_err();
        assert_eq!(err.dropped, 1, "a dead sender is isolated");
        assert!(t.ledger().balanced());
        // A kill is a schedule action: it must move the trace hash, and
        // differently from a step of the same place.
        let hash = |kill: bool| {
            let t = SimTransport::new(3);
            if kill {
                t.record_kill(2);
            } else {
                t.record_step(2);
            }
            t.trace_hash()
        };
        assert_ne!(hash(true), hash(false));
        assert_eq!(hash(true), hash(true));
    }

    #[test]
    fn residual_counts_channels_and_mailboxes() {
        let t = SimTransport::new(2);
        t.send(env(0, 1, MsgClass::FinishCtl, 0)).unwrap();
        t.send(env(0, 1, MsgClass::FinishCtl, 1)).unwrap();
        assert_eq!(t.residual(MsgClass::FinishCtl), 2);
        t.deliver((0, 1, MsgClass::FinishCtl.index()));
        assert_eq!(t.residual(MsgClass::FinishCtl), 2); // one in-flight, one mailboxed
        t.try_recv(PlaceId(1));
        assert_eq!(t.residual(MsgClass::FinishCtl), 1);
    }
}
