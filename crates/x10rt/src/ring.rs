//! Growable lock-free SPSC rings — the mailbox fast path.
//!
//! [`SpscRing`] is a Lamport single-producer/single-consumer ring over
//! power-of-two slot arrays, with the refinements that make it cheap at
//! message-storm rates and at large place counts:
//!
//! * **Cached opposite indices.** The producer keeps a relaxed snapshot of
//!   the consumer's `head` and only re-reads the shared index when the
//!   snapshot says the array *might* be full (and symmetrically for the
//!   consumer's snapshot of `tail`). In steady state a push is one relaxed
//!   load, one slot write and one release store — no read-modify-write, no
//!   shared-line ping-pong beyond the slot itself.
//! * **Growth.** A ring starts with one small slot array, allocated in
//!   [`SpscRing::new`]. A push that finds the newest array full allocates
//!   one twice the size, links it behind the full one and writes there from
//!   then on; the consumer drains the old array up to the link, follows it
//!   and frees the old array. Indices count items since the ring was made,
//!   so item `i` sits in slot `i & mask` of whichever array holds it, and
//!   FIFO holds by construction. A push never fails, never blocks and
//!   never drops, and a ring costs what it carries: one that never backs up
//!   keeps its first array for life, and a burst pays one allocation per
//!   doubling.
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
//! before reading the slot. A link is stored (`Release`) before the tail
//! store that publishes its first item, so a consumer that sees that item
//! sees the link; and the producer never touches an array again after
//! linking its successor, so the consumer's `Acquire` load of the link
//! orders every producer access before the free. The *wakeup* handshake
//! layered on top is the transport's job (an `AcqRel` swap chain on a
//! per-destination flag — see `transport.rs`, which owns that protocol);
//! the ring itself only promises FIFO and visibility.

use std::cell::UnsafeCell;
use std::convert::Infallible;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

/// Size of a mailbox lane's first slot array, in envelopes. Power of two.
/// Most lanes never hold more than a few envelopes at once; one that backs
/// up grows (see the module docs), so this is what an idle pair costs, not
/// a ceiling.
pub const DEFAULT_RING_CAPACITY: usize = 16;

/// One slot of the ring. The atomics around it (tail/head) decide whether
/// the `MaybeUninit` is live.
type Slot<T> = UnsafeCell<MaybeUninit<T>>;

/// One slot array and the link to the array written after it filled.
struct Block<T> {
    slots: Box<[Slot<T>]>,
    /// Index of the first item written here.
    start: usize,
    /// The next (twice larger) array; null while this one is the newest.
    next: AtomicPtr<Block<T>>,
}

impl<T> Block<T> {
    fn alloc(len: usize, start: usize) -> *mut Block<T> {
        let slots = (0..len).map(|_| UnsafeCell::new(MaybeUninit::uninit()));
        let next = AtomicPtr::new(ptr::null_mut());
        Box::into_raw(Box::new(Block {
            slots: slots.collect(),
            start,
            next,
        }))
    }

    #[inline]
    fn slot(&self, index: usize) -> *mut MaybeUninit<T> {
        self.slots[index & (self.slots.len() - 1)].get()
    }
}

/// Producer-owned hot state, on its own cache line so producer stores never
/// invalidate the consumer's line (and vice versa).
#[repr(align(64))]
struct ProdSide<T> {
    /// Next index to write. Written only by the producer (under its guard).
    tail: AtomicUsize,
    /// Producer's snapshot of `head`; refreshed only when the array looks
    /// full. Relaxed — it is a private cache, never a synchronization edge.
    cached_head: AtomicUsize,
    /// The newest array. Relaxed: read and replaced under the guard only.
    block: AtomicPtr<Block<T>>,
    /// Producer spin guard (see module docs).
    guard: AtomicBool,
}

/// Consumer-owned hot state, cache-line isolated like [`ProdSide`].
#[repr(align(64))]
struct ConsSide<T> {
    /// Next index to read. Written only by the consumer (under its guard).
    head: AtomicUsize,
    /// Consumer's snapshot of `tail`; refreshed only when the ring looks
    /// empty.
    cached_tail: AtomicUsize,
    /// The oldest live array. Relaxed: read and replaced under the guard
    /// only.
    block: AtomicPtr<Block<T>>,
    /// Consumer spin guard.
    guard: AtomicBool,
}

/// A growable lock-free single-producer/single-consumer ring (with spin
/// guards degrading gracefully under accidental multi-producer use — see
/// the module docs).
pub struct SpscRing<T> {
    prod: ProdSide<T>,
    cons: ConsSide<T>,
    /// Slots across the live arrays: grows on a link, shrinks on a free.
    slots: AtomicUsize,
}

// SAFETY: the slot arrays are only accessed through the head/tail protocol
// (each index is advanced only after its side's read/write completes, with
// Release/Acquire pairing), each side is serialized by its spin guard, and
// an array is freed only by the consumer, after the producer has left it.
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
    /// A ring whose first slot array holds `capacity` items (rounded up to
    /// a power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let len = capacity.next_power_of_two().max(2);
        let first = Block::alloc(len, 0);
        SpscRing {
            prod: ProdSide {
                tail: AtomicUsize::new(0),
                cached_head: AtomicUsize::new(0),
                block: AtomicPtr::new(first),
                guard: AtomicBool::new(false),
            },
            cons: ConsSide {
                head: AtomicUsize::new(0),
                cached_tail: AtomicUsize::new(0),
                block: AtomicPtr::new(first),
                guard: AtomicBool::new(false),
            },
            slots: AtomicUsize::new(len),
        }
    }

    /// Bytes of slot storage the ring holds right now, across every array
    /// not yet drained (approximate under concurrency).
    pub fn slot_bytes(&self) -> usize {
        self.slots.load(Ordering::Relaxed) * std::mem::size_of::<Slot<T>>()
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

    /// Push one item, growing the ring when the newest array is full.
    /// Returns whether this push grew it; it never fails.
    #[inline]
    pub fn push(&self, value: T) -> Result<bool, Infallible> {
        let _guard = spin_lock(&self.prod.guard);
        let tail = self.prod.tail.load(Ordering::Relaxed);
        // SAFETY: the newest array is never freed (see `pop_exclusive`).
        let mut block = unsafe { &*self.prod.block.load(Ordering::Relaxed) };
        let (len, start) = (block.slots.len(), block.start);
        // Items in the newest array: those since `head` or since the array
        // began, whichever is later.
        let used = |head: usize| tail.wrapping_sub(head).min(tail.wrapping_sub(start));
        let mut grew = false;
        if used(self.prod.cached_head.load(Ordering::Relaxed)) >= len {
            let head = self.cons.head.load(Ordering::Acquire);
            self.prod.cached_head.store(head, Ordering::Relaxed);
            if used(head) >= len {
                let next = Block::alloc(2 * len, tail);
                self.slots.fetch_add(2 * len, Ordering::Relaxed);
                // Once linked, the full array is the consumer's to free, so
                // it is not touched again.
                block.next.store(next, Ordering::Release);
                self.prod.block.store(next, Ordering::Relaxed);
                // SAFETY: just allocated, and now the newest array.
                block = unsafe { &*next };
                grew = true;
            }
        }
        // SAFETY: fewer than `len` items of this array are live, so slot
        // `tail` is free; the producer guard serializes writers; the
        // consumer reads it only after the Release store below.
        unsafe { (*block.slot(tail)).write(value) };
        self.prod
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(grew)
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
        let _guard = spin_lock(&self.cons.guard);
        let before = out.len();
        // SAFETY: the consumer guard is held for the whole drain.
        while out.len() - before < max {
            let Some(v) = (unsafe { self.pop_exclusive() }) else {
                break;
            };
            out.push(v);
        }
        out.len() - before
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
        let mut block = self.cons.block.load(Ordering::Relaxed);
        // SAFETY: the consumer's array is live until the consumer frees it.
        // Item `head` is published, so a link stored before it is visible.
        let next = unsafe { &*block }.next.load(Ordering::Acquire);
        if !next.is_null() && unsafe { &*next }.start == head {
            // Every item before the link has been read: free the drained
            // array (the producer left it when it linked `next`).
            let old = unsafe { Box::from_raw(block) };
            self.slots.fetch_sub(old.slots.len(), Ordering::Relaxed);
            drop(old);
            self.cons.block.store(next, Ordering::Relaxed);
            block = next;
        }
        // SAFETY: `head < tail`, so the slot was written and published by
        // the producer's Release store, which our Acquire load of `tail`
        // synchronized with; advancing `head` below releases it back.
        let value = unsafe { (*(*block).slot(head)).assume_init_read() };
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
        // Drained, the consumer's array is the newest: every linked array
        // holds at least the item whose push linked it.
        let last = self.cons.block.load(Ordering::Relaxed);
        debug_assert_eq!(last, self.prod.block.load(Ordering::Relaxed));
        // SAFETY: allocated by `Block::alloc` and referenced nowhere else.
        drop(unsafe { Box::from_raw(last) });
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
                assert_eq!(r.push(next_push), Ok(false), "fits: must not grow");
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
    fn full_array_grows_and_frees_it_once_drained() {
        let r = SpscRing::<u64>::new(4);
        for i in 0..10 {
            assert_eq!(r.push(i), Ok(i == 4), "only push 4 links an array of 8");
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.slot_bytes(), (4 + 8) * 8);
        for want in 0..4 {
            assert_eq!(r.pop(), Some(want));
        }
        // The first array is freed when the item past the link is read.
        assert_eq!(r.slot_bytes(), (4 + 8) * 8);
        assert_eq!(r.pop(), Some(4));
        assert_eq!(r.slot_bytes(), 8 * 8);
        for want in 5..10 {
            assert_eq!(r.pop(), Some(want));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn first_array_rounds_to_power_of_two() {
        assert_eq!(SpscRing::<u8>::new(1).slot_bytes(), 2);
        assert_eq!(SpscRing::<u8>::new(5).slot_bytes(), 8);
        assert_eq!(SpscRing::<u8>::new(256).slot_bytes(), 256);
    }

    #[test]
    fn pop_many_drains_in_order_across_links() {
        let r = SpscRing::<u64>::new(2);
        for i in 0..10 {
            r.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(r.pop_many(4, &mut out), 4);
        assert_eq!(r.pop_many(100, &mut out), 6);
        assert_eq!(r.pop_many(100, &mut out), 0);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(r.slot_bytes(), 8 * 8, "only the newest array is left");
    }

    #[test]
    fn drop_releases_unconsumed_items_and_every_array() {
        let item = Arc::new(());
        let r = SpscRing::new(2);
        for _ in 0..9 {
            r.push(item.clone()).unwrap();
        }
        assert_eq!(r.pop().map(|_| ()), Some(()));
        assert_eq!(Arc::strong_count(&item), 9);
        drop(r);
        assert_eq!(Arc::strong_count(&item), 1);
    }

    #[test]
    fn concurrent_producer_consumer_conserves_and_orders() {
        let r = Arc::new(SpscRing::new(4));
        const N: u64 = 100_000;
        let p = {
            let r = r.clone();
            std::thread::spawn(move || {
                for i in 0..N {
                    r.push(i).unwrap();
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
