//! Heap allocations per remote spawn, counted by a `#[global_allocator]`.
//!
//! A remote `at_async` used to allocate twice (a boxed closure plus a boxed
//! spawn message), on the sender's thread, with the receiver freeing both.
//! An activity cell (`apgas::task`) carries the closure and its finish
//! attachment together, and travels by value in the batch that carries it,
//! so once the transport's batch buffers are warm a batched remote spawn
//! allocates nothing. A spawn flushed alone is boxed, and allocates its
//! one cell.
//!
//! The counting allocator sees every thread of this binary, so the whole
//! check runs in one `#[test]` and nothing else allocates concurrently.

use apgas::{Config, Runtime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting allocations (`alloc`, `alloc_zeroed` and
/// `realloc` each count one).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a relaxed
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PLACES: usize = 4;
/// Updates each place sends to each other place per round.
const PER_PAIR: u64 = 128;
/// Remote spawns per round: the all-to-all updates plus the fan-out.
const SPAWNS: u64 = (PLACES * (PLACES - 1)) as u64 * PER_PAIR + (PLACES - 1) as u64;

/// One all-to-all round under a single finish: every place sends
/// `PER_PAIR` tiny XOR updates to every other place. Returns the heap
/// allocations the whole round made.
fn round(rt: &Runtime, sinks: &Arc<Vec<AtomicU64>>) -> u64 {
    let sinks = sinks.clone();
    let before = ALLOCS.load(Ordering::SeqCst);
    rt.run(move |ctx| {
        ctx.finish(|c| {
            for p in c.places() {
                let sinks = sinks.clone();
                c.at_async(p, move |cp| {
                    for q in cp.places().filter(|&q| q != cp.here()) {
                        for i in 0..PER_PAIR {
                            let sinks = sinks.clone();
                            let v = (u64::from(cp.here().0) << 32) | i;
                            cp.at_async(q, move |cq| {
                                sinks[cq.here().0 as usize].fetch_xor(v, Ordering::Relaxed);
                            });
                        }
                    }
                });
            }
        });
    });
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Singleton round: place 0 runs `LONE` local activities, each sending one
/// `at_async` to place 1. Workers flush after every activity, so each spawn
/// leaves in a flush of its own. Returns the allocations per remote spawn.
fn lone_round(rt: &Runtime, sink: &Arc<AtomicU64>) -> f64 {
    const LONE: u64 = 256;
    let sink = sink.clone();
    let before = ALLOCS.load(Ordering::SeqCst);
    rt.run(move |ctx| {
        ctx.finish(|c| {
            for i in 0..LONE {
                let sink = sink.clone();
                c.spawn(move |c| {
                    c.at_async(apgas::PlaceId(1), move |_| {
                        sink.fetch_xor(i, Ordering::Relaxed);
                    });
                });
            }
        });
    });
    (ALLOCS.load(Ordering::SeqCst) - before) as f64 / LONE as f64
}

/// Allocations per spawn of a cold round, of the warmed round after it,
/// and of a warmed singleton round.
fn measure() -> (f64, f64, f64) {
    let rt = Runtime::new(Config::new(PLACES).executor_threads(1));
    let sinks: Arc<Vec<AtomicU64>> = Arc::new((0..PLACES).map(|_| AtomicU64::new(0)).collect());
    let cold = round(&rt, &sinks);
    let warm = round(&rt, &sinks);
    // Two rounds XOR every value in twice: each sink is back to zero.
    for s in sinks.iter() {
        assert_eq!(s.load(Ordering::SeqCst), 0, "an update was lost or doubled");
    }
    let sink = Arc::new(AtomicU64::new(0));
    lone_round(&rt, &sink);
    let lone = lone_round(&rt, &sink);
    assert_eq!(
        sink.load(Ordering::SeqCst),
        0,
        "a lone update was lost or doubled"
    );
    drop(rt);
    (
        cold as f64 / SPAWNS as f64,
        warm as f64 / SPAWNS as f64,
        lone,
    )
}

#[test]
fn batched_remote_spawn_allocates_nothing_lone_spawn_one_cell() {
    let (cold, warm, lone) = measure();
    println!("{cold:.3} allocations/spawn cold, {warm:.3} warm, {lone:.3} lone");
    assert!(
        warm <= 0.1,
        "warmed round: {warm:.3} allocations per spawn (bound 0.1)"
    );
    // A spawn flushed alone is boxed at its flush: its one cell. A counter
    // that reads less than that is not seeing this binary's allocations.
    assert!(lone >= 0.9, "lone spawns: {lone:.3} allocations per spawn");
    assert!(
        lone <= 1.1,
        "lone spawns: {lone:.3} allocations per spawn (bound 1.1: the cell only)"
    );
}
