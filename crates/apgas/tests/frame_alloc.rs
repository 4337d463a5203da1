//! Heap allocations per frame of byte-codec spawns, counted per thread by a
//! `#[global_allocator]`.
//!
//! Under `CodecMode::Bytes` a remote spawn is written straight into its
//! destination's frame: the attach as bytes, the activity cell by value on
//! the frame's side list. A flush hands the transport one envelope that
//! owns the frame, and the receiver moves each cell out of the side list
//! into its run queue. So a warm batch of 64 closure spawns costs the
//! sending thread the frame's body, its side list and the envelope's box,
//! and costs the receiving thread nothing per spawn. Over the TCP
//! self-loop the frame's body is written to the socket as it is, and the
//! reader thread allocates the body it reads and the frame's box.
//!
//! Each place runs on a thread of its own (two places, dedicated
//! executor threads), so the counts split by thread name: `place-0`
//! sends, `place-1` receives and runs, `tcp-reader-0` reads the socket.
//! The finish that governs the spawns adds allocations of its own at each
//! place (a proxy's deltas and their control message, at most about one
//! per frame the receiver drains), so the bounds are a few per frame: far
//! below one per spawn, which is what a sender that boxed each spawn would
//! show (about 3 per spawn, 200 per frame).
//!
//! This file is its own test binary because it installs a
//! `#[global_allocator]`; keep it to a single `#[test]`.

use apgas::{CodecMode, Config, PlaceId, Runtime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use x10rt::TcpTransport;

/// The threads whose allocations are counted, by name.
const ROLES: [&str; 3] = ["place-0", "place-1", "tcp-reader-0"];

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNTS: [AtomicU64; ROLES.len()] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

thread_local! {
    /// This thread's index in `ROLES`, `usize::MAX` for none; `None`
    /// until first asked.
    static ROLE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// This thread's role. The first ask stores "none" before it reads the
/// thread's name, so an allocation made while reading it does not ask
/// again.
fn role(cell: &Cell<Option<usize>>) -> usize {
    cell.get().unwrap_or_else(|| {
        cell.set(Some(usize::MAX));
        let name = std::thread::current().name().map(str::to_owned);
        let r = ROLES
            .iter()
            .position(|&n| Some(n) == name.as_deref())
            .unwrap_or(usize::MAX);
        cell.set(Some(r));
        r
    })
}

fn count() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let _ = ROLE.try_with(|cell| {
        if let Some(c) = COUNTS.get(role(cell)) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// per thread role while armed.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the count is a relaxed atomic and a const thread-local, and
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Spawns per frame: the coalescer's default message threshold.
const BATCH: u64 = 64;
/// Frames per round.
const FRAMES: u64 = 32;

/// One round under one finish: place 0 sends `FRAMES` batches of `BATCH`
/// tiny closure spawns to place 1. Returns the allocations each role made
/// during the round.
fn round(rt: &Runtime, sink: &Arc<AtomicU64>) -> [u64; ROLES.len()] {
    let sink = sink.clone();
    for c in &COUNTS {
        c.store(0, Ordering::SeqCst);
    }
    ARMED.store(true, Ordering::SeqCst);
    rt.run(move |ctx| {
        ctx.finish(|c| {
            for i in 0..FRAMES * BATCH {
                let sink = sink.clone();
                c.at_async(PlaceId(1), move |_| {
                    sink.fetch_xor(i, Ordering::Relaxed);
                });
            }
        });
    });
    ARMED.store(false, Ordering::SeqCst);
    std::array::from_fn(|r| COUNTS[r].load(Ordering::SeqCst))
}

/// Allocations per frame of each role in a warm round on `rt`.
fn per_frame(rt: Runtime) -> [f64; ROLES.len()] {
    let sink = Arc::new(AtomicU64::new(0));
    round(&rt, &sink);
    let warm = round(&rt, &sink);
    // Two rounds XOR every value in twice: the sink is back to zero.
    assert_eq!(
        sink.load(Ordering::SeqCst),
        0,
        "a spawn was lost or doubled"
    );
    drop(rt);
    warm.map(|n| n as f64 / FRAMES as f64)
}

fn cfg() -> Config {
    Config::new(2).codec(CodecMode::Bytes).executor_threads(2)
}

#[test]
fn byte_codec_spawns_allocate_per_frame_not_per_spawn() {
    let local = per_frame(Runtime::new(cfg()));
    let tcp = TcpTransport::self_loop(2).expect("self-loop transport");
    let tcp = per_frame(Runtime::with_transport(cfg(), tcp));
    println!(
        "allocations per frame of {BATCH} spawns by {ROLES:?}: in-process {local:?}, tcp {tcp:?}"
    );
    for (how, counts) in [("in-process", local), ("tcp", tcp)] {
        // The frame's body, its side list and the envelope's box, plus the
        // finish's own allocations.
        assert!(
            counts[0] <= 8.0,
            "{how}: the sending thread made {:.2} allocations per frame of {BATCH} spawns",
            counts[0]
        );
        // Each cell moves from the side list into the run queue: what the
        // receiver allocates is the finish's.
        assert!(
            counts[1] <= 8.0,
            "{how}: the receiving thread made {:.2} allocations per frame of {BATCH} spawns",
            counts[1]
        );
    }
    // The body read off the socket and the frame's box, plus the finish's
    // control messages, delivered boxed as lone frames.
    assert!(
        tcp[2] <= 4.0,
        "the TCP reader made {:.2} allocations per frame of {BATCH} spawns",
        tcp[2]
    );
    assert!(tcp[2] >= 1.0, "the reader read no frame: {tcp:?}");
    assert_eq!(local[2], 0.0);
}
