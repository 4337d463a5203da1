//! The zero-allocation acceptance test for the message hot path.
//!
//! A counting global allocator wraps the system allocator; after two warm-up
//! laps of a symmetric all-to-all coalesced message storm (which grow the
//! ring slot arrays, coalescer buffers, arena freelists and receive scratch
//! to their steady-state sizes), further laps must perform **zero** heap
//! allocations: envelopes live inline in recycled batch boxes, flushes swap
//! boxes instead of copying, each lane's ring keeps its first array, and
//! received boxes recycle back into the arenas. The test also asserts that
//! no lane ring ever grew (a growth links a freshly allocated array); the
//! locks on the path are taken once per lane readiness edge and once per
//! sweep (the ready list).
//!
//! This file is its own test binary (integration test) because it installs a
//! `#[global_allocator]`; keep it to a single `#[test]` so no parallel test
//! thread allocates while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use x10rt::{Coalescer, Envelope, LocalTransport, MsgClass, PlaceId, Transport};

struct CountingAlloc;

// The armed flag is thread-local (const-init: the TLS access itself never
// allocates) so only the test thread's allocations count — the libtest
// harness main thread parks on its result channel at an arbitrary point
// (its one-time parker allocation would land inside the armed window
// whenever the scheduler delays it, a rare flake under machine load).
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_if_armed() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PLACES: usize = 4;
const MAX_MSGS: usize = 16;
const PER_DEST: usize = 64; // divisible by MAX_MSGS: laps end with empty buffers

/// One storm lap: every place coalesces `PER_DEST` zero-sized messages to
/// every other place (threshold flushes fire along the way), then every
/// place bulk-drains its mailbox and recycles the batch boxes it received.
fn lap(t: &LocalTransport, coal: &mut [Coalescer], scratch: &mut [Vec<Envelope>]) {
    for (s, c) in coal.iter_mut().enumerate() {
        for d in 0..PLACES {
            if d == s {
                continue;
            }
            for _ in 0..PER_DEST {
                let e = Envelope::new(
                    PlaceId(s as u32),
                    PlaceId(d as u32),
                    MsgClass::Task,
                    8,
                    Box::new(()), // ZST payload: boxing it does not allocate
                );
                c.send(t, e).unwrap();
            }
        }
        c.flush(t).unwrap();
    }
    for d in 0..PLACES {
        let out = &mut scratch[d];
        while t.try_recv_batch(PlaceId(d as u32), 1024, out) > 0 {
            for env in out.drain(..) {
                match env.unbatch_boxed() {
                    Ok(batch) => coal[d].recycle_batch(batch), // "dispatched"
                    Err(_scalar) => {}
                }
            }
        }
    }
}

#[test]
fn steady_state_storm_allocates_nothing() {
    let t = LocalTransport::new(PLACES);
    let mut coal: Vec<Coalescer> = (0..PLACES)
        .map(|p| Coalescer::new(PlaceId(p as u32), PLACES, MAX_MSGS, 1 << 20, true))
        .collect();
    let mut scratch: Vec<Vec<Envelope>> = (0..PLACES).map(|_| Vec::new()).collect();

    // Warm up: allocate ring slot arrays, grow coalescer buffers to the
    // batch size, seed the arena freelists, size the receive scratch.
    for _ in 0..2 {
        lap(&t, &mut coal, &mut scratch);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    for _ in 0..5 {
        lap(&t, &mut coal, &mut scratch);
    }
    ARMED.with(|a| a.set(false));

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let messages = 5 * PLACES * (PLACES - 1) * PER_DEST;
    assert_eq!(
        allocs, 0,
        "steady-state hot path allocated {allocs} times over {messages} messages"
    );
    // A lane that keeps up never outgrows its first array.
    assert_eq!(
        t.stats().total_ring_overflows(),
        0,
        "storm grew a lane ring past its first array"
    );
    // Sanity: the storm really went through the batch path.
    assert!(t.stats().total_envelopes() < t.stats().total_messages());
}
