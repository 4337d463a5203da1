//! Bounded lock-free SPSC rings — the mailbox fast path.
//!
//! [`SpscRing`] is a Lamport single-producer/single-consumer ring over a
//! power-of-two slot array, with the two classic refinements that make it
//! cheap at message-storm rates:
//!
//! * **Cached opposite indices.** The producer keeps a relaxed snapshot of
//!   the consumer's `head` and only re-reads the shared index when the
//!   snapshot says the ring *might* be full (and symmetrically for the
//!   consumer's snapshot of `tail`). In steady state a push is one relaxed
//!   load, one slot write and one release store — no read-modify-write, no
//!   shared-line ping-pong beyond the slot itself.
//! * **Lazy slot allocation.** The slot array is allocated on first push
//!   (via [`std::sync::OnceLock`]), so a ring that never carries a message
//!   costs a header, not a buffer.
//!
//! # Multi-producer reality
//!
//! The transport guarantees FIFO per (sender *place*, destination) pair, but
//! a place's worker is not the only thread that pushes into its lanes: the
//! TCP transport's reader threads deliver inbound traffic into them, and
//! tests hammer one pair from many threads. Rather than push that burden to
//! every caller, each side of the ring carries a tiny spin guard (an
//! `AtomicBool` CAS — *not* a mutex: no syscall, no parking, no priority
//! inheritance machinery). Uncontended — the overwhelmingly common case,
//! one worker per place — the guard costs one uncontended CAS; contended
//! producers spin, which preserves each thread's program order instead of
//! reordering its messages around a detour. The guards make the safe API
//! genuinely safe while keeping the SPSC fast path intact.
//!
//! # Memory ordering
//!
//! Publication is the textbook pair: the producer writes the slot, then
//! stores `tail` with `Release`; the consumer loads `tail` with `Acquire`
//! before reading the slot. The *wakeup* handshake layered on top is the
//! transport's job (an `AcqRel` swap chain on a per-destination flag — see
//! `transport.rs`, which owns that protocol); the ring itself only promises
//! FIFO and visibility.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default per-(sender, receiver) ring capacity, in envelopes. Power of two.
/// Sized so a full coalescer quantum (64-message batches, 256-envelope
/// drains) fits without touching the overflow side-queue.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// One slot of the ring. The atomics around it (tail/head) decide whether
/// the `MaybeUninit` is live.
struct Slot<T>(UnsafeCell<MaybeUninit<T>>);

/// Producer-owned hot state, on its own cache line so producer stores never
/// invalidate the consumer's line (and vice versa).
#[repr(align(64))]
struct ProdSide {
    /// Next slot to write. Written only by the producer (under its guard).
    tail: AtomicUsize,
    /// Producer's snapshot of `head`; refreshed only when the ring looks
    /// full. Relaxed — it is a private cache, never a synchronization edge.
    cached_head: AtomicUsize,
    /// Producer spin guard (see module docs).
    guard: AtomicBool,
}

/// Consumer-owned hot state, cache-line isolated like [`ProdSide`].
#[repr(align(64))]
struct ConsSide {
    /// Next slot to read. Written only by the consumer (under its guard).
    head: AtomicUsize,
    /// Consumer's snapshot of `tail`; refreshed only when the ring looks
    /// empty.
    cached_tail: AtomicUsize,
    /// Consumer spin guard.
    guard: AtomicBool,
}

/// A bounded lock-free single-producer/single-consumer ring (with spin
/// guards degrading gracefully under accidental multi-producer use — see
/// the module docs). `push` fails (returning the value) when full; it never
/// blocks and never drops.
pub struct SpscRing<T> {
    prod: ProdSide,
    cons: ConsSide,
    /// Slot array, allocated on first push.
    slots: OnceLock<Box<[Slot<T>]>>,
    /// Capacity (power of two); `mask == capacity - 1`.
    mask: usize,
}

// SAFETY: the slot array is only accessed through the head/tail protocol
// (each index is advanced only after its side's read/write completes, with
// Release/Acquire pairing), and each side is serialized by its spin guard.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

/// Spin until `guard` is acquired. Returns a token whose drop releases it.
/// Shared with the transport, which uses the same primitive for its
/// per-destination sweep guard.
#[inline]
pub(crate) fn spin_lock(guard: &AtomicBool) -> SpinToken<'_> {
    while guard
        .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        std::hint::spin_loop();
    }
    SpinToken(guard)
}

pub(crate) struct SpinToken<'a>(&'a AtomicBool);

impl Drop for SpinToken<'_> {
    #[inline]
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl<T> SpscRing<T> {
    /// A ring holding up to `capacity` items (rounded up to a power of two,
    /// minimum 2). The slot array is not allocated until the first push.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        SpscRing {
            prod: ProdSide {
                tail: AtomicUsize::new(0),
                cached_head: AtomicUsize::new(0),
                guard: AtomicBool::new(false),
            },
            cons: ConsSide {
                head: AtomicUsize::new(0),
                cached_tail: AtomicUsize::new(0),
                guard: AtomicBool::new(false),
            },
            slots: OnceLock::new(),
            mask: cap - 1,
        }
    }

    /// Ring capacity in items.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Items currently in the ring (approximate under concurrency).
    #[inline]
    pub fn len(&self) -> usize {
        let tail = self.prod.tail.load(Ordering::Acquire);
        let head = self.cons.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// True when the ring holds no items (approximate under concurrency).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn slots(&self) -> &[Slot<T>] {
        self.slots.get_or_init(|| {
            (0..self.mask + 1)
                .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
                .collect()
        })
    }

    /// Push one item. `Err(value)` means the ring is full — the caller
    /// routes the item to its overflow path; nothing blocks, nothing drops.
    #[inline]
    pub fn push(&self, value: T) -> Result<(), T> {
        let _guard = spin_lock(&self.prod.guard);
        let tail = self.prod.tail.load(Ordering::Relaxed);
        let mut head = self.prod.cached_head.load(Ordering::Relaxed);
        if tail.wrapping_sub(head) >= self.capacity() {
            head = self.cons.head.load(Ordering::Acquire);
            self.prod.cached_head.store(head, Ordering::Relaxed);
            if tail.wrapping_sub(head) >= self.capacity() {
                return Err(value);
            }
        }
        let slot = &self.slots()[tail & self.mask];
        // SAFETY: `tail - head < capacity`, so this slot is not live; the
        // producer guard serializes writers; the consumer will only read it
        // after the Release store below.
        unsafe { (*slot.0.get()).write(value) };
        self.prod
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Pop one item, or `None` when empty.
    #[inline]
    pub fn pop(&self) -> Option<T> {
        let _guard = spin_lock(&self.cons.guard);
        // SAFETY: the consumer guard is held.
        unsafe { self.pop_exclusive() }
    }

    /// Pop up to `max` items into `out`, acquiring the consumer guard once.
    /// Returns how many were appended.
    pub fn pop_many(&self, max: usize, out: &mut Vec<T>) -> usize {
        if max == 0 {
            return 0;
        }
        let _guard = spin_lock(&self.cons.guard);
        let mut n = 0;
        // SAFETY: the consumer guard is held for the whole drain.
        while n < max {
            match unsafe { self.pop_exclusive() } {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Pop with the consumer side exclusively owned.
    ///
    /// # Safety
    /// The caller must hold the consumer guard (or otherwise be the only
    /// consumer, e.g. in `Drop`).
    #[inline]
    unsafe fn pop_exclusive(&self) -> Option<T> {
        let head = self.cons.head.load(Ordering::Relaxed);
        let mut tail = self.cons.cached_tail.load(Ordering::Relaxed);
        if tail == head {
            tail = self.prod.tail.load(Ordering::Acquire);
            self.cons.cached_tail.store(tail, Ordering::Relaxed);
            if tail == head {
                return None;
            }
        }
        let slots = self.slots.get()?; // never pushed → empty
        let slot = &slots[head & self.mask];
        // SAFETY: `head < tail`, so the slot was written and published by
        // the producer's Release store, which our Acquire load of `tail`
        // synchronized with; advancing `head` below releases it back.
        let value = unsafe { (*slot.0.get()).assume_init_read() };
        self.cons
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent access — drain and drop what remains.
        // SAFETY: exclusive access makes us the sole consumer.
        while unsafe { self.pop_exclusive() }.is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_across_wraparound() {
        let r = SpscRing::new(8);
        let mut next_pop = 0u64;
        let mut next_push = 0u64;
        // Push/pop in a pattern that wraps the ring many times.
        for lap in 0..50 {
            let burst = 1 + (lap % 8);
            for _ in 0..burst {
                r.push(next_push).unwrap();
                next_push += 1;
            }
            for _ in 0..burst {
                assert_eq!(r.pop(), Some(next_pop));
                next_pop += 1;
            }
        }
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn full_ring_rejects_without_losing_the_value() {
        let r = SpscRing::new(4);
        for i in 0..4 {
            r.push(i).unwrap();
        }
        assert_eq!(r.push(99), Err(99));
        assert_eq!(r.len(), 4);
        assert_eq!(r.pop(), Some(0));
        r.push(99).unwrap(); // space reclaimed
        for want in [1, 2, 3, 99] {
            assert_eq!(r.pop(), Some(want));
        }
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(SpscRing::<u8>::new(1).capacity(), 2);
        assert_eq!(SpscRing::<u8>::new(5).capacity(), 8);
        assert_eq!(SpscRing::<u8>::new(256).capacity(), 256);
    }

    #[test]
    fn pop_many_drains_in_order() {
        let r = SpscRing::new(16);
        for i in 0..10 {
            r.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(r.pop_many(4, &mut out), 4);
        assert_eq!(r.pop_many(100, &mut out), 6);
        assert_eq!(r.pop_many(100, &mut out), 0);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drop_releases_unconsumed_items() {
        let item = Arc::new(());
        let r = SpscRing::new(8);
        for _ in 0..5 {
            r.push(item.clone()).unwrap();
        }
        assert_eq!(Arc::strong_count(&item), 6);
        drop(r);
        assert_eq!(Arc::strong_count(&item), 1);
    }

    #[test]
    fn concurrent_producer_consumer_conserves_and_orders() {
        let r = Arc::new(SpscRing::new(32));
        const N: u64 = 100_000;
        let p = {
            let r = r.clone();
            std::thread::spawn(move || {
                let mut backoff = 0u32;
                for i in 0..N {
                    let mut v = i;
                    while let Err(back) = r.push(v) {
                        v = back;
                        backoff = backoff.wrapping_add(1);
                        if backoff.is_multiple_of(64) {
                            std::thread::yield_now();
                        }
                    }
                }
            })
        };
        let mut want = 0u64;
        while want < N {
            if let Some(v) = r.pop() {
                assert_eq!(v, want);
                want += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        p.join().unwrap();
        assert!(r.is_empty());
    }
}
