//! Steady-state relocation must not leak.
//!
//! A counting global allocator tracks *net outstanding bytes* (allocations
//! minus deallocations, sized). The test runs identical laps — every place
//! streams adds into a `DistArray` while a coordinator bounces a chunk
//! around the ring — inside one runtime, sampling the outstanding figure
//! after each lap's finish quiesces. The first laps grow caches to their
//! steady state (mailbox rings, arena freelists, hash-map capacity, the
//! replica mirrors); after that the figure must plateau: a relocation
//! machinery that leaked its detached chunks, forwarded envelopes, or
//! superseded replica mirrors would climb lap after lap.
//!
//! Two bounds: the total growth over the measured laps, and the *steady*
//! growth — the second-quietest measured lap's growth (a shrinking lap
//! counts as zero), times the measured laps. The first catches a leak that
//! shows in only some laps (forwarding happens only when an update races a
//! relocation); the second one that a single lap's shrink would offset.
//!
//! Unlike the x10rt hot-path test (zero allocs, thread-local arming), this
//! counts globally — the interesting traffic runs on worker threads — and
//! asserts a *plateau*, not zero: each lap allocates and frees freely; it
//! just may not keep the memory.
//!
//! Own test binary because of the `#[global_allocator]`; single `#[test]`.

use apgas::{Config, PlaceId, Runtime};
use dist::DistArray;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct NetAlloc;

static OUTSTANDING: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for NetAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        OUTSTANDING.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        OUTSTANDING.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        OUTSTANDING.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: NetAlloc = NetAlloc;

const PLACES: u32 = 4;
const ADDS_PER_PLACE: u32 = 64;
const WARMUP_LAPS: usize = 4;
const MEASURED_LAPS: usize = 6;
/// Slots per chunk: 32 KiB of `u64`s, so one leaked chunk clone or mirror
/// per relocation is half the plateau bound on its own.
const CHUNK_LEN: u32 = 4096;
/// Generous bound on both growths over the measured laps. A real leak
/// exceeds it many times over: one leaked chunk clone or mirror per
/// relocation is 128 KiB a lap (4 relocations), 768 KiB over the measured
/// laps; one leaked update envelope per update is ~25 KiB a lap.
const PLATEAU_BYTES: i64 = 64 * 1024;

#[test]
fn steady_state_relocation_does_not_leak() {
    let rt = Runtime::new(Config::new(PLACES as usize));
    let samples = rt.run(|ctx| {
        // No FIFO log: it grows by design and would mask a real leak.
        let arr = DistArray::new(ctx, 2, CHUNK_LEN, false);
        let mut samples = Vec::with_capacity(WARMUP_LAPS + MEASURED_LAPS);
        for lap in 0..WARMUP_LAPS + MEASURED_LAPS {
            ctx.finish(|c| {
                for p in c.places() {
                    c.at_async(p, move |cc| {
                        for i in 0..ADDS_PER_PLACE {
                            arr.add(cc, 0, i % 8, 1);
                        }
                    });
                }
                // Bounce chunk 0 across every place and back home, racing
                // the updaters: each hop detaches, installs, re-seeds the
                // replica mirror, and retires the old one.
                for hop in 1..=PLACES {
                    arr.relocate(c, 0, PlaceId(hop % PLACES));
                }
            });
            let _ = lap;
            samples.push(OUTSTANDING.load(Ordering::Relaxed));
        }
        // The data survived every lap: sanity that we measured real work.
        let total = (WARMUP_LAPS + MEASURED_LAPS) as u64 * (PLACES * ADDS_PER_PLACE) as u64;
        assert_eq!(arr.sum(ctx), total);
        samples
    });

    let baseline = samples[WARMUP_LAPS - 1];
    let end = *samples.last().unwrap();
    assert!(
        end - baseline < PLATEAU_BYTES,
        "outstanding heap grew {} bytes over {MEASURED_LAPS} steady laps (samples: {samples:?}) — \
         relocation is leaking",
        end - baseline,
    );
    let mut per_lap: Vec<i64> = samples[WARMUP_LAPS - 1..]
        .windows(2)
        .map(|w| (w[1] - w[0]).max(0))
        .collect();
    per_lap.sort_unstable();
    let quiet = per_lap[1];
    let steady = quiet * MEASURED_LAPS as i64;
    assert!(
        steady < PLATEAU_BYTES,
        "outstanding heap grows {quiet} bytes even in the second-quietest lap, \
         {steady} over {MEASURED_LAPS} steady laps (samples: {samples:?}) — relocation is leaking"
    );
}
