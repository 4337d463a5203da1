//! Property tests of the SPSC-ring mailbox fast path, run at deliberately
//! tiny first arrays so wraparound and growth — linking a larger array and
//! freeing the drained one, which a lane that keeps up never does — are hit
//! constantly. These mirror the invariants `transport_props.rs` checks at
//! the default capacity: per-pair FIFO, conservation, and lane-edge wake
//! liveness.

use proptest::prelude::*;
use std::sync::Arc;
use x10rt::{Envelope, LocalTransport, MsgClass, PlaceId, SpscRing, Transport};

fn env(from: u32, to: u32, tag: u64) -> Envelope {
    Envelope::new(PlaceId(from), PlaceId(to), MsgClass::Task, 8, Box::new(tag))
}

fn tag_of(from: u32, to: u32, seq: u64) -> u64 {
    ((from as u64) << 40) | ((to as u64) << 32) | seq
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// FIFO and conservation survive arbitrary push/pop interleavings across
    /// many wraparounds and growths of a tiny ring, and the ring grows
    /// exactly when a push finds more items queued than its newest array
    /// holds.
    #[test]
    fn ring_fifo_across_wraparound(
        ops in prop::collection::vec(any::<bool>(), 1..300),
        cap in 1usize..9
    ) {
        let r = SpscRing::new(cap);
        let mut len = cap.next_power_of_two().max(2) as u64;
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for &push in &ops {
            if push {
                let Ok(grew) = r.push(next_push);
                prop_assert!(!grew || next_push - next_pop >= len, "grew with room left");
                if grew {
                    len *= 2;
                }
                next_push += 1;
            } else {
                match r.pop() {
                    Some(v) => {
                        prop_assert_eq!(v, next_pop, "FIFO violated");
                        next_pop += 1;
                    }
                    None => prop_assert_eq!(next_pop, next_push, "empty pop lost items"),
                }
            }
            prop_assert_eq!(r.len() as u64, next_push - next_pop);
        }
        // Drain the remainder: everything pushed comes out, in order.
        while let Some(v) = r.pop() {
            prop_assert_eq!(v, next_pop);
            next_pop += 1;
        }
        prop_assert_eq!(next_pop, next_push);
    }

    /// With first arrays far smaller than the traffic, lanes grow through
    /// several linked arrays — per-pair FIFO and conservation must hold
    /// across every link, for any interleaving and any receive chunking.
    #[test]
    fn growth_preserves_per_pair_fifo(
        sends in prop::collection::vec((0u32..4, 0u32..4), 1..200),
        cap in 1usize..5,
        chunk in 1usize..9
    ) {
        let t = LocalTransport::with_ring_capacity(4, cap);
        let mut seq = [[0u64; 4]; 4];
        for &(from, to) in &sends {
            let s = seq[from as usize][to as usize];
            seq[from as usize][to as usize] += 1;
            t.send(env(from, to, tag_of(from, to, s))).unwrap();
        }
        let mut seen = [[0u64; 4]; 4];
        let mut total = 0usize;
        for place in 0..4u32 {
            let mut out = Vec::new();
            while t.try_recv_batch(PlaceId(place), chunk, &mut out) > 0 {
                for e in out.drain(..) {
                    let tag = *e.payload.downcast::<u64>().unwrap();
                    let from = (tag >> 40) as usize;
                    let to = ((tag >> 32) & 0xff) as usize;
                    let s = tag & 0xffff_ffff;
                    prop_assert_eq!(to as u32, place);
                    prop_assert_eq!(s, seen[from][to], "per-pair FIFO violated");
                    seen[from][to] += 1;
                    total += 1;
                }
            }
        }
        prop_assert_eq!(total, sends.len());
        // A lane grows exactly when its burst outruns the first array.
        let max_pair = seq.iter().flatten().copied().max().unwrap_or(0);
        let first = cap.next_power_of_two().max(2) as u64;
        prop_assert_eq!(t.stats().total_ring_overflows() > 0, max_pair > first);
    }

    /// Interleaving receives between sends never reorders or loses
    /// messages, `queue_len` counts across linked arrays, and a lane that
    /// never backs up past its first array never grows.
    #[test]
    fn mixed_send_recv_grows_only_past_the_first_array(
        steps in prop::collection::vec(any::<bool>(), 1..300),
        cap in 1usize..4
    ) {
        let t = LocalTransport::with_ring_capacity(2, cap);
        let mut pushed = 0u64;
        let mut popped = 0u64;
        let mut deepest = 0u64;
        for &send in &steps {
            if send {
                t.send(env(0, 1, pushed)).unwrap();
                pushed += 1;
                deepest = deepest.max(pushed - popped);
            } else if let Some(e) = t.try_recv(PlaceId(1)) {
                prop_assert_eq!(*e.payload.downcast::<u64>().unwrap(), popped);
                popped += 1;
            }
            prop_assert_eq!(t.queue_len(PlaceId(1)) as u64, pushed - popped);
        }
        while let Some(e) = t.try_recv(PlaceId(1)) {
            prop_assert_eq!(*e.payload.downcast::<u64>().unwrap(), popped);
            popped += 1;
        }
        prop_assert_eq!(popped, pushed);
        let first = cap.next_power_of_two().max(2) as u64;
        prop_assert_eq!(t.stats().total_ring_overflows() > 0, deepest > first);
    }
}

/// The waker-liveness harness from `transport_props.rs`, re-run over lanes
/// whose first array has 2 slots: the lanes' ready edges and the receiver
/// crossing links all interleave under 4 producer threads, each on a lane
/// of its own and one shared by two. A lost wakeup fails the 5-second
/// condvar timeout.
#[test]
fn lane_edge_wake_survives_growth() {
    use parking_lot::{Condvar, Mutex};
    use std::time::Duration;

    const SENDERS: u64 = 4;
    const PER_SENDER: u64 = 5_000;
    const TOTAL: u64 = SENDERS * PER_SENDER;

    let t = Arc::new(LocalTransport::with_ring_capacity(4, 2));
    let state = Arc::new((Mutex::new(false), Condvar::new()));

    let s2 = state.clone();
    t.register_waker(
        PlaceId(1),
        Arc::new(move || {
            let (flag, cv) = &*s2;
            *flag.lock() = true;
            cv.notify_all();
        }),
    );

    let producers: Vec<_> = (0..SENDERS)
        .map(|s| {
            let t = t.clone();
            std::thread::spawn(move || {
                let from = [0, 2, 3, 3][s as usize];
                for i in 0..PER_SENDER {
                    t.send(env(from, 1, (s << 32) | i)).unwrap();
                }
            })
        })
        .collect();

    let mut got = 0u64;
    let mut out = Vec::new();
    while got < TOTAL {
        let n = t.try_recv_batch(PlaceId(1), 1024, &mut out);
        if n > 0 {
            got += n as u64;
            out.clear();
            continue;
        }
        let (flag, cv) = &*state;
        let mut pending = flag.lock();
        if !*pending && t.queue_len(PlaceId(1)) == 0 {
            let r = cv.wait_for(&mut pending, Duration::from_secs(5));
            assert!(
                !r.timed_out(),
                "lost wakeup: {got}/{TOTAL} received, queue empty, no notify in 5s"
            );
        }
        *pending = false;
    }
    assert_eq!(got, TOTAL);
    assert!(
        t.stats().total_ring_overflows() > 0,
        "2-slot first arrays under 4 producers must grow"
    );
    for p in producers {
        p.join().unwrap();
    }
}

/// The TCP-reader case: two threads push into one lane (a place's worker
/// and a reader thread delivering for the same sender) while the receiver
/// drains it concurrently. The receiver holds off until 64 envelopes are
/// queued, so the 2-slot first array has grown at least five times before
/// draining starts; each producer's own sequence must arrive in order.
#[test]
fn two_producers_keep_fifo_across_growth() {
    const PER_SENDER: u64 = 20_000;
    let t = Arc::new(LocalTransport::with_ring_capacity(2, 2));
    let producers: Vec<_> = (0..2u64)
        .map(|s| {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 0..PER_SENDER {
                    t.send(env(0, 1, (s << 32) | i)).unwrap();
                }
            })
        })
        .collect();
    while t.queue_len(PlaceId(1)) < 64 {
        std::hint::spin_loop();
    }
    let mut next = [0u64; 2];
    let mut got = 0u64;
    let mut out = Vec::new();
    while got < 2 * PER_SENDER {
        let n = t.try_recv_batch(PlaceId(1), 7, &mut out);
        for e in out.drain(..) {
            let tag = *e.payload.downcast::<u64>().unwrap();
            let s = (tag >> 32) as usize;
            assert_eq!(tag & 0xffff_ffff, next[s], "producer {s} FIFO violated");
            next[s] += 1;
        }
        got += n as u64;
        if n == 0 {
            std::hint::spin_loop();
        }
    }
    for p in producers {
        p.join().unwrap();
    }
    assert_eq!(next, [PER_SENDER; 2]);
    assert_eq!(t.queue_len(PlaceId(1)), 0);
    assert!(
        t.stats().total_ring_overflows() >= 5,
        "2 → 64 slots is 5 links"
    );
}
