//! Pins the TCP transport's allocations to a constant per frame, at both
//! ends of the socket.
//!
//! A counting global allocator wraps the system allocator. On a warm
//! self-loop transport, encoding and queueing a 64-message batch whose
//! every message carries a non-serializable part must allocate the frame
//! buffer and the frame's side list, and nothing per message: the
//! arguments are written straight into the frame, which is sized once from
//! the batch, and the parts move onto one side list sized from the batch.
//! Those are counted on the test thread, while it has the count armed.
//! Reading and delivering the frame must allocate the body buffer and the
//! frame's box, and nothing per message: the delivered batch is the frame
//! itself, read message by message out of its bytes. Those are counted on
//! the transport's reader thread, while the measured frames are in flight.
//!
//! This file is its own test binary because it installs a
//! `#[global_allocator]`; keep it to a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use x10rt::{
    Envelope, Frame, HandlerId, MsgClass, Payload, PlaceId, TcpTransport, Transport, WireMsg,
};

struct CountingAlloc;

// Thread-local, const-initialized flags: `ARMED` counts the test thread's
// allocations; `READER` says whether this thread is the transport's reader
// (`None` until first asked).
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static READER: Cell<Option<bool>> = const { Cell::new(None) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static READER_ARMED: AtomicBool = AtomicBool::new(false);
static READER_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Is this thread the self connection's reader? Asked once per thread:
/// the first ask stores "no" before it reads the thread's name, so an
/// allocation made while reading it does not ask again.
fn on_reader_thread(reader: &Cell<Option<bool>>) -> bool {
    reader.get().unwrap_or_else(|| {
        reader.set(Some(false));
        let named = std::thread::current().name() == Some("tcp-reader-0");
        reader.set(Some(named));
        named
    })
}

fn count_if_armed() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    });
    if READER_ARMED.load(Ordering::Relaxed) {
        let _ = READER.try_with(|reader| {
            if on_reader_thread(reader) {
                READER_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
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
/// The body buffer and the frame's box.
const READER_ALLOCS_PER_FRAME: u64 = 2;

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

/// Wait for the batch sent last and check that every message and part
/// came back, reading the frame it arrived in.
fn recv(t: &TcpTransport) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let env = loop {
        if let Some(e) = t.try_recv(PlaceId(1)) {
            break e;
        }
        assert!(Instant::now() < deadline, "no delivery within 10s");
        std::thread::yield_now();
    };
    assert_eq!(env.class, MsgClass::Batch);
    let mut frame = env.payload.downcast::<Frame>().expect("a batch frame");
    assert_eq!(frame.len(), MSGS);
    let mut seen = 0;
    for (i, m) in frame.msgs().enumerate() {
        assert_eq!(
            (m.handler, m.args),
            (HandlerId(2000), &(i as u64).to_le_bytes()[..])
        );
        let part = m.part.expect("its part").take_or_unbox::<u64>().unwrap();
        assert_eq!(part, i as u64);
        seen += 1;
    }
    assert_eq!(seen, MSGS);
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
    // The reader is blocked on the socket between frames, so what it
    // allocates while armed is what reading and delivering the measured
    // frames cost.
    READER_ARMED.store(true, Ordering::Relaxed);
    for _ in 0..FRAMES {
        let env = batch();
        ARMED.with(|a| a.set(true));
        t.send(env).unwrap();
        ARMED.with(|a| a.set(false));
        recv(&t);
    }
    READER_ARMED.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert!(
        allocs <= ALLOCS_PER_FRAME * FRAMES,
        "{allocs} sender allocations for {FRAMES} frames of {MSGS} messages \
         (at most {ALLOCS_PER_FRAME} a frame allowed)"
    );
    let reader = READER_ALLOCS.load(Ordering::Relaxed);
    assert!(
        reader <= READER_ALLOCS_PER_FRAME * FRAMES,
        "{reader} reader allocations for {FRAMES} frames of {MSGS} messages \
         (at most {READER_ALLOCS_PER_FRAME} a frame allowed)"
    );
}
