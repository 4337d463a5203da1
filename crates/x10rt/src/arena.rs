//! Freelist recycling of coalescer batch buffers.
//!
//! Every coalesced flush used to allocate a fresh `Box<BatchPayload>` (and
//! grow its inner `Vec<Envelope>` from empty), and every receive freed one —
//! two allocator round trips per batch, right on the message hot path.
//! [`EnvelopeArena`] closes the loop: drained batch boxes come back via
//! [`EnvelopeArena::recycle`] with their `Vec` capacity intact, and the next
//! destination buffer that receives its first message takes one off the
//! freelist instead of allocating. In steady state — once buffers have
//! grown to the workload's batch size — batching costs **no heap
//! allocation per message**: envelopes, and the values that ride inline
//! beside them (an `apgas` activity cell per remote spawn; see
//! [`crate::message`]), live in recycled buffers, and a flush (see
//! [`Coalescer::flush`](crate::Coalescer)) moves a pointer instead of
//! copying messages. Only a payload that does not ride inline is its
//! sender's to allocate.
//!
//! The arena is deliberately *not* a shared pool: each worker owns one
//! (inside its coalescer), so `take`/`recycle` are plain vector ops with no
//! synchronization. Under symmetric traffic the loop balances naturally —
//! each worker receives roughly as many batches as it sends, so recycling
//! received boxes into the local arena keeps the freelist fed. Asymmetric
//! traffic degrades gracefully: a pure sender misses (allocates) and a pure
//! receiver discards once its freelist is full, which is exactly what the
//! `arena.recycle.*` counters make visible.

use crate::message::BatchPayload;
use obs::metrics::{Counter, MetricsRegistry};

/// Freelist depth cap: boxes recycled beyond this are dropped instead of
/// retained, bounding idle memory at roughly `retain × batch-size`
/// envelopes and inline slots per worker. A destination buffer holds a box
/// only while it holds messages, so the freelist is all the idle memory
/// there is.
pub const DEFAULT_ARENA_RETAIN: usize = 32;

/// Local tally of arena traffic (per worker; see [`EnvelopeArena::counts`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ArenaCounts {
    /// `take` calls served from the freelist (no allocation).
    pub hits: u64,
    /// `take` calls that had to allocate a fresh box.
    pub misses: u64,
    /// Boxes returned to the freelist.
    pub recycled: u64,
    /// Boxes dropped on return (freelist full).
    pub discarded: u64,
}

impl ArenaCounts {
    /// Fraction of takes served without allocating, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Resolved observability counters mirroring the take outcomes.
struct ArenaHooks {
    hits: Counter,
    misses: Counter,
}

/// A per-worker freelist of batch-payload boxes (see the module docs).
///
/// Not `Sync` — ownership is the whole point: one worker, one arena, no
/// synchronization on the hot path.
pub struct EnvelopeArena {
    // The box itself is the recycled resource: envelopes carry
    // `Box<BatchPayload>`, so parking the box (not the payload) is what
    // makes `take` allocation-free. Un-boxing here would force a fresh
    // heap allocation on every flush.
    #[allow(clippy::vec_box)]
    free: Vec<Box<BatchPayload>>,
    retain: usize,
    counts: ArenaCounts,
    hooks: Option<ArenaHooks>,
    /// Metrics shard (the owning place) for the obs mirror.
    shard: u32,
}

impl EnvelopeArena {
    /// An arena owned by place `shard`, retaining up to
    /// [`DEFAULT_ARENA_RETAIN`] boxes.
    pub fn new(shard: u32) -> Self {
        EnvelopeArena {
            free: Vec::new(),
            retain: DEFAULT_ARENA_RETAIN,
            counts: ArenaCounts::default(),
            hooks: None,
            shard,
        }
    }

    /// Override the freelist depth cap.
    pub fn set_retain(&mut self, retain: usize) {
        self.retain = retain;
        self.free.truncate(self.retain);
    }

    /// Mirror take outcomes into the shared metrics registry (the
    /// `arena.recycle.hits` / `arena.recycle.misses` counters), resolving
    /// them once so the hot path stays a relaxed increment.
    pub fn wire_obs(&mut self, metrics: &MetricsRegistry) {
        self.hooks = Some(ArenaHooks {
            hits: metrics.counter(obs::names::ARENA_RECYCLE_HITS),
            misses: metrics.counter(obs::names::ARENA_RECYCLE_MISSES),
        });
    }

    /// Traffic tally so far.
    pub fn counts(&self) -> ArenaCounts {
        self.counts
    }

    /// Boxes currently parked on the freelist.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// An empty batch payload: recycled when possible, freshly allocated
    /// otherwise. Recycled boxes keep their grown `Vec` capacity, which is
    /// what makes steady-state packing allocation-free.
    pub fn take(&mut self) -> Box<BatchPayload> {
        match self.free.pop() {
            Some(b) => {
                debug_assert!(
                    b.envs.is_empty() && b.inline_len() == 0,
                    "recycled box not cleared"
                );
                self.counts.hits += 1;
                if let Some(h) = &self.hooks {
                    h.hits.inc(self.shard);
                }
                b
            }
            None => {
                self.counts.misses += 1;
                if let Some(h) = &self.hooks {
                    h.misses.inc(self.shard);
                }
                Box::default()
            }
        }
    }

    /// Return a drained box for reuse. Clears the envelopes (dropping any
    /// the caller left behind) but keeps the capacity; drops the box instead
    /// when the freelist is at its cap.
    pub fn recycle(&mut self, mut payload: Box<BatchPayload>) {
        payload.clear();
        if self.free.len() < self.retain {
            self.counts.recycled += 1;
            self.free.push(payload);
        } else {
            self.counts.discarded += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Envelope, MsgClass};
    use crate::place::PlaceId;

    #[test]
    fn take_recycle_round_trip_preserves_capacity() {
        let mut a = EnvelopeArena::new(0);
        let mut b = a.take();
        assert_eq!(a.counts().misses, 1);
        for i in 0..10u64 {
            b.envs.push(Envelope::new(
                PlaceId(0),
                PlaceId(1),
                MsgClass::Task,
                8,
                Box::new(i),
            ));
        }
        let cap = b.envs.capacity();
        a.recycle(b);
        assert_eq!(a.counts().recycled, 1);
        let b = a.take();
        assert_eq!(a.counts().hits, 1);
        assert!(b.envs.is_empty());
        assert_eq!(b.envs.capacity(), cap, "capacity lost in recycling");
    }

    #[test]
    fn retain_caps_the_freelist() {
        let mut a = EnvelopeArena::new(0);
        a.set_retain(2);
        let boxes: Vec<_> = (0..4).map(|_| a.take()).collect();
        for b in boxes {
            a.recycle(b);
        }
        assert_eq!(a.free_len(), 2);
        assert_eq!(a.counts().recycled, 2);
        assert_eq!(a.counts().discarded, 2);
    }
}
