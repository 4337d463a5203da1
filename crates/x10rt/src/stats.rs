//! Network statistics.
//!
//! The paper argues about protocol cost in terms of control-message counts,
//! who receives them (the root of a `finish` can be flooded), and communication
//! out-degree (the Power 775 stack "favors communication graphs with low
//! out-degree"; UTS bounds its victim list at 1,024 for this reason). These
//! counters make all three observable so tests and benches can assert e.g.
//! that `FINISH_SPMD` sends exactly `n` termination messages or that
//! `FINISH_DENSE` reduces the in-degree at the finish root.
//!
//! # Logical messages vs physical envelopes
//!
//! Transport aggregation (see [`crate::coalesce`]) packs several *logical*
//! messages into one *physical* envelope. The per-class counters here always
//! count logical messages — the protocol-cost arguments above are about
//! protocol messages, and they must not change when aggregation is toggled.
//! A separate envelope counter ([`NetStats::total_envelopes`] /
//! [`NetStats::envelope_bytes`]) counts what actually crosses the transport,
//! which is where aggregation's savings show up.
//!
//! # Sharding
//!
//! The hot counters are sharded per *sender*: every place's worker thread
//! updates its own cache-line-aligned shard (`#[repr(align(128))]`, two lines
//! on common hardware to defeat adjacent-line prefetching), so concurrent
//! senders never contend on a counter cache line. Readers aggregate across
//! shards — reads are rare (end of a bench phase or an assertion), writes are
//! per-message, so the read-side sum is the right trade. `recv_per_place` and
//! `peer_bits` are already indexed by place and mostly write-once
//! respectively, so they stay unsharded.

use crate::message::MsgClass;
use std::sync::atomic::{AtomicU64, Ordering};

const NCLASS: usize = MsgClass::ALL.len();

/// Cap on the number of counter shards; senders hash onto shards modulo this.
const MAX_SHARDS: usize = 32;

/// A snapshot of one class's counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Messages sent.
    pub messages: u64,
    /// Modeled wire bytes sent (headers included).
    pub bytes: u64,
}

/// One sender's slice of the hot counters. Aligned to 128 bytes so two
/// shards never share a cache line (128 covers adjacent-line prefetch pairs).
#[repr(align(128))]
#[derive(Default)]
struct Shard {
    /// Logical messages sent, per class.
    sent: [AtomicU64; NCLASS],
    /// Logical wire bytes sent, per class.
    bytes: [AtomicU64; NCLASS],
    /// Physical envelopes handed to the transport.
    envelopes: AtomicU64,
    /// Physical wire bytes handed to the transport.
    env_bytes: AtomicU64,
    /// Pushes that found a mailbox lane's newest slot array full and grew
    /// its ring.
    ring_overflows: AtomicU64,
}

/// Shared counters, updated lock-free on every send.
pub struct NetStats {
    /// Per-sender shards of the hot counters (`sender % shards.len()`).
    shards: Vec<Shard>,
    /// Messages *received into* each place's queue (in-degree pressure).
    recv_per_place: Vec<AtomicU64>,
    /// Destination bitmap per sender (out-degree), lock-free: row `p` has
    /// `⌈places/64⌉` words.
    peer_bits: Vec<AtomicU64>,
    words_per_place: usize,
}

impl NetStats {
    /// Counters for a transport with `places` places.
    pub fn new(places: usize) -> Self {
        let words_per_place = places.div_ceil(64);
        let nshards = places.clamp(1, MAX_SHARDS);
        NetStats {
            shards: (0..nshards).map(|_| Shard::default()).collect(),
            recv_per_place: (0..places).map(|_| AtomicU64::new(0)).collect(),
            peer_bits: (0..places * words_per_place)
                .map(|_| AtomicU64::new(0))
                .collect(),
            words_per_place,
        }
    }

    #[inline]
    fn shard(&self, from: u32) -> &Shard {
        &self.shards[from as usize % self.shards.len()]
    }

    /// Record one *logical* sent message. Lock-free; writes land in the
    /// sender's shard.
    #[inline]
    pub fn record_send(&self, from: u32, to: u32, class: MsgClass, nbytes: usize) {
        self.record_send_many(from, to, class, 1, nbytes as u64);
    }

    /// Record `count` logical sends of one class between one place pair in
    /// one call — the batch emit path's amortization of
    /// [`record_send`](Self::record_send):
    /// a 64-message batch costs ~4 atomic adds per class present instead
    /// of ~4 per message.
    #[inline]
    pub fn record_send_many(&self, from: u32, to: u32, class: MsgClass, count: u64, nbytes: u64) {
        if count == 0 {
            return;
        }
        let i = class.index();
        let shard = self.shard(from);
        shard.sent[i].fetch_add(count, Ordering::Relaxed);
        shard.bytes[i].fetch_add(nbytes, Ordering::Relaxed);
        self.recv_per_place[to as usize].fetch_add(count, Ordering::Relaxed);
        let word = from as usize * self.words_per_place + (to as usize >> 6);
        let bit = 1u64 << (to & 63);
        // Skip the RMW when the bit is already set (the common case).
        if self.peer_bits[word].load(Ordering::Relaxed) & bit == 0 {
            self.peer_bits[word].fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Take back a [`record_send_many`](Self::record_send_many) whose
    /// messages never entered the transport (the send failed). The pair's
    /// out-degree bit stays set.
    pub(crate) fn unrecord_send_many(
        &self,
        from: u32,
        to: u32,
        class: MsgClass,
        count: u64,
        nbytes: u64,
    ) {
        let i = class.index();
        let shard = self.shard(from);
        shard.sent[i].fetch_sub(count, Ordering::Relaxed);
        shard.bytes[i].fetch_sub(nbytes, Ordering::Relaxed);
        self.recv_per_place[to as usize].fetch_sub(count, Ordering::Relaxed);
    }

    /// Record one *physical* envelope handed to the transport (a batch
    /// envelope counts once here however many messages it carries).
    #[inline]
    pub fn record_envelope(&self, from: u32, nbytes: usize) {
        let shard = self.shard(from);
        shard.envelopes.fetch_add(1, Ordering::Relaxed);
        shard.env_bytes.fetch_add(nbytes as u64, Ordering::Relaxed);
    }

    /// Record one push that found its mailbox lane's newest slot array full
    /// and grew the ring (the name predates growth: it was an overflow).
    #[inline]
    pub fn record_ring_overflow(&self, from: u32) {
        self.shard(from)
            .ring_overflows
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of one class (aggregated over the sender shards).
    pub fn class(&self, class: MsgClass) -> ClassStats {
        let i = class.index();
        let mut snap = ClassStats::default();
        for s in &self.shards {
            snap.messages += s.sent[i].load(Ordering::Relaxed);
            snap.bytes += s.bytes[i].load(Ordering::Relaxed);
        }
        snap
    }

    /// Total logical messages across all classes.
    pub fn total_messages(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.sent)
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Total modeled logical wire bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.bytes)
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Total physical envelopes handed to the transport. With aggregation on
    /// this is ≤ [`NetStats::total_messages`]; the gap is the saving.
    pub fn total_envelopes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.envelopes.load(Ordering::Relaxed))
            .sum()
    }

    /// Total physical wire bytes handed to the transport (batch envelopes
    /// amortize per-message headers, so this is ≤ the logical byte total).
    pub fn envelope_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.env_bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Total mailbox ring growths (one per doubling of a lane's slot array).
    /// Zero while every lane keeps up within its first array; a few per
    /// lane mean bursts, and each costs one allocation.
    pub fn total_ring_overflows(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.ring_overflows.load(Ordering::Relaxed))
            .sum()
    }

    /// Messages received (queued) at `place` so far — in-degree pressure.
    pub fn received_at(&self, place: usize) -> u64 {
        self.recv_per_place[place].load(Ordering::Relaxed)
    }

    /// The place with the highest in-degree pressure and its message count.
    pub fn hottest_receiver(&self) -> (usize, u64) {
        self.recv_per_place
            .iter()
            .enumerate()
            .map(|(p, c)| (p, c.load(Ordering::Relaxed)))
            .max_by_key(|&(_, c)| c)
            .unwrap_or((0, 0))
    }

    /// Number of distinct destinations `place` has sent to (out-degree).
    pub fn out_degree(&self, place: usize) -> usize {
        let base = place * self.words_per_place;
        self.peer_bits[base..base + self.words_per_place]
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Maximum out-degree over all places.
    pub fn max_out_degree(&self) -> usize {
        (0..self.recv_per_place.len())
            .map(|p| self.out_degree(p))
            .max()
            .unwrap_or(0)
    }

    /// Reset all counters (used between benchmark phases).
    pub fn reset(&self) {
        for s in &self.shards {
            for c in &s.sent {
                c.store(0, Ordering::Relaxed);
            }
            for c in &s.bytes {
                c.store(0, Ordering::Relaxed);
            }
            s.envelopes.store(0, Ordering::Relaxed);
            s.env_bytes.store(0, Ordering::Relaxed);
            s.ring_overflows.store(0, Ordering::Relaxed);
        }
        for c in &self.recv_per_place {
            c.store(0, Ordering::Relaxed);
        }
        for w in &self.peer_bits {
            w.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let s = NetStats::new(4);
        s.record_send(0, 1, MsgClass::Task, 100);
        s.record_send(0, 2, MsgClass::Task, 50);
        s.record_send(3, 1, MsgClass::FinishCtl, 40);
        assert_eq!(s.class(MsgClass::Task).messages, 2);
        assert_eq!(s.class(MsgClass::Task).bytes, 150);
        assert_eq!(s.class(MsgClass::FinishCtl).messages, 1);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), 190);
        assert_eq!(s.received_at(1), 2);
        assert_eq!(s.out_degree(0), 2);
        assert_eq!(s.max_out_degree(), 2);
        assert_eq!(s.hottest_receiver(), (1, 2));
    }

    #[test]
    fn reset_clears_everything() {
        let s = NetStats::new(2);
        s.record_send(0, 1, MsgClass::Team, 8);
        s.record_envelope(0, 8);
        s.record_ring_overflow(0);
        assert_eq!(s.total_ring_overflows(), 1);
        s.reset();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.total_envelopes(), 0);
        assert_eq!(s.envelope_bytes(), 0);
        assert_eq!(s.total_ring_overflows(), 0);
        assert_eq!(s.received_at(1), 0);
        assert_eq!(s.out_degree(0), 0);
    }

    #[test]
    fn shards_aggregate_across_senders() {
        // More senders than shards: counts must still sum correctly.
        let s = NetStats::new(100);
        for from in 0..100u32 {
            s.record_send(from, (from + 1) % 100, MsgClass::Task, 10);
            s.record_envelope(from, 10);
        }
        assert_eq!(s.class(MsgClass::Task).messages, 100);
        assert_eq!(s.total_messages(), 100);
        assert_eq!(s.total_bytes(), 1000);
        assert_eq!(s.total_envelopes(), 100);
        assert_eq!(s.envelope_bytes(), 1000);
    }

    #[test]
    fn envelope_counters_independent_of_logical() {
        let s = NetStats::new(2);
        // Three logical messages carried by one physical envelope.
        s.record_send(0, 1, MsgClass::Task, 40);
        s.record_send(0, 1, MsgClass::Task, 40);
        s.record_send(0, 1, MsgClass::FinishCtl, 40);
        s.record_envelope(0, 56);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_envelopes(), 1);
        assert_eq!(s.envelope_bytes(), 56);
    }

    #[test]
    fn shard_alignment_defeats_false_sharing() {
        assert_eq!(std::mem::align_of::<Shard>(), 128);
        assert!(std::mem::size_of::<Shard>().is_multiple_of(128));
    }
}
