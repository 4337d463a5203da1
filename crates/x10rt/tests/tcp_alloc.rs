//! Pins the TCP encoder's allocations to a constant per frame.
//!
//! A counting global allocator wraps the system allocator and counts only
//! while the test thread has it armed. On a warm self-loop transport,
//! encoding and queueing a 64-message batch whose every message carries a
//! non-serializable part must allocate the frame buffer and the frame's
//! side list, and nothing per message: the arguments are written straight
//! into the frame, which is sized once from the batch, and the parts move
//! onto one side list sized from the batch.
//!
//! This file is its own test binary because it installs a
//! `#[global_allocator]`; keep it to a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use x10rt::{Envelope, HandlerId, MsgClass, Payload, PlaceId, TcpTransport, Transport, WireMsg};

struct CountingAlloc;

// Thread-local, const-initialized flag: only the test thread's
// allocations count, not the transport's writer and reader threads'.
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

const MSGS: usize = 64;
const FRAMES: u64 = 32;
/// The frame buffer and its side list.
const ALLOCS_PER_FRAME: u64 = 2;

/// A batch of `MSGS` byte-codec messages from place 0 to place 1, each with
/// a boxed part that cannot go into the bytes (a closure body, say).
fn batch() -> Envelope {
    let envs = (0..MSGS as u64)
        .map(|i| {
            let part: Payload = Box::new(i);
            let msg = WireMsg::with_inline(HandlerId(2000), i.to_le_bytes().to_vec(), part);
            Envelope::new(PlaceId(0), PlaceId(1), MsgClass::Task, 16, Box::new(msg))
        })
        .collect();
    Envelope::batch(PlaceId(0), PlaceId(1), envs)
}

/// Wait for the batch sent last and check that every part came back.
fn recv(t: &TcpTransport) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let env = loop {
        if let Some(e) = t.try_recv(PlaceId(1)) {
            break e;
        }
        assert!(Instant::now() < deadline, "no delivery within 10s");
        std::thread::yield_now();
    };
    let envs = env.unbatch().expect("a batch");
    assert_eq!(envs.len(), MSGS);
    for (i, e) in envs.into_iter().enumerate() {
        let w = e.payload.downcast::<WireMsg>().expect("a wire message");
        let part = w.inline.expect("its part").downcast::<u64>().unwrap();
        assert_eq!(*part, i as u64);
    }
}

#[test]
fn a_tcp_frame_allocates_a_constant_number_of_times() {
    let t = TcpTransport::self_loop(2).expect("self loop");
    // Warm up: the writer queue and the side-list FIFO reach their steady
    // capacity (one frame is in flight at a time).
    for _ in 0..4 {
        t.send(batch()).unwrap();
        recv(&t);
    }
    for _ in 0..FRAMES {
        let env = batch();
        ARMED.with(|a| a.set(true));
        t.send(env).unwrap();
        ARMED.with(|a| a.set(false));
        recv(&t);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert!(
        allocs <= ALLOCS_PER_FRAME * FRAMES,
        "{allocs} allocations for {FRAMES} frames of {MSGS} messages \
         (at most {ALLOCS_PER_FRAME} a frame allowed)"
    );
}
