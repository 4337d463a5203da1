//! Property-based tests of the transport invariants the finish protocols
//! depend on: per-pair FIFO under arbitrary interleavings (scalar, bulk and
//! coalesced paths), conservation of messages, lane-edge wake liveness, and
//! congruent-allocation symmetry.

use proptest::prelude::*;
use std::sync::Arc;
use x10rt::{
    Coalescer, CongruentAllocator, Envelope, LocalTransport, MsgClass, PlaceId, SegmentTable,
    Transport,
};

fn env(from: u32, to: u32, tag: u64) -> Envelope {
    Envelope::new(PlaceId(from), PlaceId(to), MsgClass::Task, 8, Box::new(tag))
}

/// Pack (from, to, per-pair sequence number) into a message tag.
fn tag_of(from: u32, to: u32, seq: u64) -> u64 {
    ((from as u64) << 40) | ((to as u64) << 32) | seq
}

/// Drain every place with `try_recv_batch` (random-ish chunk size),
/// unpacking batch envelopes, and check per-pair FIFO plus conservation
/// against the per-pair send counts in `seq`.
fn check_fifo_and_conservation(
    t: &LocalTransport,
    places: u32,
    chunk: usize,
    seq: &[[u64; 4]; 4],
    total_sent: usize,
) -> Result<(), TestCaseError> {
    let mut seen = [[0u64; 4]; 4];
    let mut total = 0usize;
    let mut check = |e: Envelope, place: u32| -> Result<(), TestCaseError> {
        let tag = *e.payload.downcast::<u64>().unwrap();
        let from = (tag >> 40) as usize;
        let to = ((tag >> 32) & 0xff) as usize;
        let s = tag & 0xffff_ffff;
        prop_assert_eq!(to as u32, place);
        prop_assert_eq!(s, seen[from][to], "per-pair FIFO violated");
        seen[from][to] += 1;
        total += 1;
        Ok(())
    };
    for place in 0..places {
        let mut out = Vec::new();
        loop {
            if t.try_recv_batch(PlaceId(place), chunk, &mut out) == 0 {
                break;
            }
            for e in out.drain(..) {
                match e.unbatch() {
                    Ok(inner) => {
                        for e in inner {
                            check(e, place)?;
                        }
                    }
                    Err(e) => check(e, place)?,
                }
            }
        }
    }
    prop_assert_eq!(total, total_sent);
    for f in 0..4 {
        for d in 0..4 {
            prop_assert_eq!(seen[f][d], seq[f][d], "message lost");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any interleaved send schedule preserves per-(sender,destination)
    /// FIFO order and delivers every message exactly once.
    #[test]
    fn per_pair_fifo_under_interleaving(
        sends in prop::collection::vec((0u32..4, 0u32..4), 1..200)
    ) {
        let t = LocalTransport::new(4);
        // tag messages with per-pair sequence numbers
        let mut seq = [[0u64; 4]; 4];
        for &(from, to) in &sends {
            let s = seq[from as usize][to as usize];
            seq[from as usize][to as usize] += 1;
            t.send(env(from, to, ((from as u64) << 40) | ((to as u64) << 32) | s)).unwrap();
        }
        let mut seen = [[0u64; 4]; 4];
        let mut total = 0;
        for place in 0..4u32 {
            while let Some(e) = t.try_recv(PlaceId(place)) {
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
        prop_assert_eq!(total, sends.len());
        for f in 0..4 {
            for d in 0..4 {
                prop_assert_eq!(seen[f][d], seq[f][d], "message lost");
            }
        }
    }

    /// Interleaving scalar envelopes and `Batch` envelopes on each pair
    /// preserves per-pair FIFO and loses nothing, however the receiver
    /// chunks its `try_recv_batch` drains.
    #[test]
    fn mixed_scalar_and_batch_fifo(
        sends in prop::collection::vec((0u32..4, 0u32..4, any::<bool>()), 1..200),
        chunk in 1usize..9
    ) {
        let t = LocalTransport::new(4);
        let mut seq = [[0u64; 4]; 4];
        // Each pair accumulates messages and, on a `cut`, submits its run
        // as one `Batch` envelope (or a scalar one when the run is a single
        // message).
        let mut pending: Vec<Vec<Envelope>> = (0..16).map(|_| Vec::new()).collect();
        let (mut scalars, mut batches) = (0u64, 0u64);
        let mut submit = |run: Vec<Envelope>| {
            let Some(first) = run.first() else { return };
            let (from, to) = (first.from, first.to);
            if run.len() == 1 {
                scalars += 1;
                t.send(run.into_iter().next().unwrap()).unwrap();
            } else {
                batches += 1;
                t.send(Envelope::batch(from, to, run)).unwrap();
            }
        };
        for &(from, to, cut) in &sends {
            let s = seq[from as usize][to as usize];
            seq[from as usize][to as usize] += 1;
            let pair = (from * 4 + to) as usize;
            pending[pair].push(env(from, to, tag_of(from, to, s)));
            if cut {
                submit(std::mem::take(&mut pending[pair]));
            }
        }
        for run in pending {
            submit(run);
        }
        check_fifo_and_conservation(&t, 4, chunk, &seq, sends.len())?;
        // The transport counts a scalar envelope as one message and a batch
        // as one physical envelope (its inner messages are the coalescer's
        // to count).
        prop_assert_eq!(t.stats().total_messages(), scalars);
        prop_assert_eq!(t.stats().total_envelopes(), scalars + batches);
    }

    /// Routing everything through per-sender coalescers — with arbitrary
    /// thresholds and arbitrarily interleaved explicit flushes — preserves
    /// per-pair FIFO, loses nothing, and keeps logical counts exact while
    /// physical envelope counts can only shrink.
    #[test]
    fn coalesced_fifo_and_stats(
        sends in prop::collection::vec((0u32..4, 0u32..4, any::<bool>()), 1..200),
        max_msgs in 1usize..10,
        chunk in 1usize..9
    ) {
        let t = LocalTransport::new(4);
        let mut seq = [[0u64; 4]; 4];
        let mut coal: Vec<Coalescer> = (0..4)
            .map(|s| Coalescer::new(PlaceId(s), 4, max_msgs, 1 << 20, true))
            .collect();
        for &(from, to, flush) in &sends {
            let s = seq[from as usize][to as usize];
            seq[from as usize][to as usize] += 1;
            coal[from as usize].send(&t, env(from, to, tag_of(from, to, s))).unwrap();
            if flush {
                coal[from as usize].flush(&t).unwrap();
            }
        }
        for c in &mut coal {
            c.flush(&t).unwrap();
            prop_assert!(c.is_empty());
        }
        check_fifo_and_conservation(&t, 4, chunk, &seq, sends.len())?;
        prop_assert_eq!(t.stats().total_messages(), sends.len() as u64);
        prop_assert!(t.stats().total_envelopes() <= sends.len() as u64);
        prop_assert!(t.stats().envelope_bytes() <= t.stats().total_bytes());
    }

    /// Stats counters agree with the actual traffic.
    #[test]
    fn stats_count_every_send(
        sends in prop::collection::vec((0u32..3, 0u32..3, 1usize..500), 1..50)
    ) {
        let t = LocalTransport::new(3);
        let mut bytes = 0u64;
        for &(from, to, sz) in &sends {
            t.send(Envelope::new(PlaceId(from), PlaceId(to), MsgClass::Team, sz, Box::new(())))
                .unwrap();
            bytes += (sz + x10rt::message::HEADER_BYTES) as u64;
        }
        prop_assert_eq!(t.stats().total_messages(), sends.len() as u64);
        prop_assert_eq!(t.stats().total_bytes(), bytes);
    }

    /// The congruent allocator hands out the same id sequence at every
    /// place regardless of interleaving across places.
    #[test]
    fn congruent_ids_depend_only_on_local_history(
        schedule in prop::collection::vec(0usize..3, 3..40)
    ) {
        let table = Arc::new(SegmentTable::new());
        let alloc = CongruentAllocator::new(3, table);
        let mut ids: Vec<Vec<u64>> = vec![vec![]; 3];
        for &p in &schedule {
            let a = alloc.alloc::<u64>(p as u32, 4);
            ids[p].push(a.id().0);
            std::mem::forget(a); // keep registrations alive for the test
        }
        for (p, got) in ids.iter().enumerate() {
            let expect: Vec<u64> = (0..got.len() as u64).collect();
            prop_assert_eq!(got, &expect, "place {} ids not dense", p);
        }
    }

    /// RDMA put/get round-trips arbitrary payloads at arbitrary offsets.
    #[test]
    fn rdma_roundtrip(
        len in 1usize..128,
        off in 0usize..64,
        data in prop::collection::vec(any::<u8>(), 1..128)
    ) {
        use x10rt::rdma;
        let table = SegmentTable::new();
        let seg = Arc::new(x10rt::Segment::alloc(off + len + data.len()));
        table.register(0, x10rt::SegId(0), seg);
        let payload = &data[..data.len().min(len)];
        let addr = x10rt::RemoteAddr::new(0, x10rt::SegId(0), off);
        rdma::put(&table, addr, payload);
        let mut out = vec![0u8; payload.len()];
        rdma::get(&table, addr, &mut out);
        prop_assert_eq!(&out, payload);
    }
}

/// Stress the lane-edge wake: a consumer that parks on a condition variable
/// (waker sets a flag under the mutex; the consumer re-checks the queue
/// before sleeping) must never miss a wakeup, even with many producers
/// hammering the same mailbox. A lost wakeup shows up as a 5-second condvar
/// timeout, which fails the test.
#[test]
fn lane_edge_wake_never_loses_a_wakeup() {
    use parking_lot::{Condvar, Mutex};
    use std::time::Duration;

    const SENDERS: u64 = 4;
    const PER_SENDER: u64 = 5_000;
    const TOTAL: u64 = SENDERS * PER_SENDER;

    let t = Arc::new(LocalTransport::new(2));
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
                for i in 0..PER_SENDER {
                    t.send(env(0, 1, (s << 32) | i)).unwrap();
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
        // Park like the scheduler: sleep only if nothing is pending and no
        // wake arrived since the last check, both verified under the mutex.
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
    for p in producers {
        p.join().unwrap();
    }
}
