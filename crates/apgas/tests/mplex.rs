//! M:N place scheduling (`Config::executor_threads`): the real protocols at
//! place counts far beyond core counts, on a fixed executor pool.
//!
//! The three properties pinned here are the ones the mode's correctness
//! hangs on:
//!   1. a context parked in `wait_until` never blocks its executor thread
//!      (nested blocking round trips complete on a ONE-thread pool);
//!   2. per-pair FIFO survives a context migrating between executors;
//!   3. the finish watchdog attributes a stall to the right place id even
//!      when hundreds of places share a thread.

use apgas::{ApgasError, Config, Ctx, FaultPlan, PlaceId, Runtime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A fan-out finish over 300 places on a two-thread pool: every place must
/// run its activity, so no context may be starved or lost. 300 places also
/// pushes `LocalTransport` into its sparse lane mode, so the lazily-created
/// lanes carry real protocol traffic under the tier-1 suite.
#[test]
fn fan_out_reaches_all_places_on_two_executors() {
    let places = 300;
    let rt = Runtime::new(Config::new(places).executor_threads(2));
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    let sum = rt.run(move |ctx| {
        ctx.finish(|c| {
            for p in c.places() {
                let s = s2.clone();
                c.at_async(p, move |cc| {
                    s.fetch_add(u64::from(cc.here().0) + 1, Ordering::SeqCst);
                });
            }
        });
        s2.load(Ordering::SeqCst)
    });
    let n = places as u64;
    assert_eq!(sum, n * (n + 1) / 2, "every place must run its activity");
    assert_eq!(seen.load(Ordering::SeqCst), sum);
}

/// Nested blocking `at` round trips — place 0 waits on 1, which waits on 2,
/// which waits on 3 — on a SINGLE executor thread. If a context parked in
/// `wait_until` blocked its executor, the first hop would wedge the whole
/// pool and this test would hang instead of completing.
#[test]
fn parked_wait_never_blocks_its_executor() {
    let rt = Runtime::new(Config::new(6).executor_threads(1));
    let started = Instant::now();
    let v = rt.run(|ctx| {
        ctx.at(PlaceId(1), |c1| {
            c1.at(PlaceId(2), |c2| c2.at(PlaceId(3), |c3| c3.here().0 + 39))
        })
    });
    assert_eq!(v, 42);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "single-executor nested waits took {:?}",
        started.elapsed()
    );
}

/// `when`-style waiting composes too: a place blocks in `wait_until` on a
/// condition only a *later* message satisfies, single-threaded pool.
#[test]
fn wait_until_wakes_on_late_message_single_executor() {
    let rt = Runtime::new(Config::new(4).executor_threads(1));
    let out = rt.run(|ctx| {
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = flag.clone();
        ctx.finish(move |c| {
            // Place 1 parks until place 2's activity (scheduled after it)
            // pokes the flag and sends place 1 a wake via an activity.
            let f_wait = f2.clone();
            c.at_async(PlaceId(1), move |cc| {
                cc.wait_until(|| f_wait.load(Ordering::SeqCst) == 1);
            });
            let f_set = f2.clone();
            c.at_async(PlaceId(2), move |cc| {
                f_set.store(1, Ordering::SeqCst);
                // The message hop is what wakes place 1's parked context.
                cc.at_async(PlaceId(1), |_| {});
            });
        });
        flag.load(Ordering::SeqCst)
    });
    assert_eq!(out, 1);
}

/// 500 ordered sends from place 0 to place 5 while 39 other contexts churn
/// across a three-thread pool: the receiving context migrates between
/// executors mid-stream, and the arrival order must still be exactly the
/// send order (per-pair FIFO is a transport invariant the claim/release
/// handoff must not break).
#[test]
fn per_pair_fifo_survives_context_migration() {
    let rt = Runtime::new(Config::new(40).executor_threads(3));
    let order = rt.run(|ctx| {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        ctx.finish(move |c| {
            // Noise: keep every context runnable so claims churn.
            for p in c.places().skip(1) {
                c.at_async(p, |cc| {
                    std::hint::black_box(cc.here().0);
                });
            }
            for i in 0..500u32 {
                let l = l2.clone();
                c.at_async(PlaceId(5), move |_| l.lock().unwrap().push(i));
            }
        });
        let v = log.lock().unwrap().clone();
        v
    });
    assert_eq!(order.len(), 500);
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "messages from one sender were reordered: {:?}",
        &order[..20.min(order.len())]
    );
}

/// Kill one of 64 multiplexed places mid-finish: the watchdog must fire
/// within its limit and the typed error must attribute the stall to the
/// finish's home place and name the dead place — not some other context
/// sharing the executor.
#[test]
fn watchdog_attributes_stall_to_the_right_place() {
    let victim = PlaceId(40);
    let rt = Runtime::new(
        Config::new(64)
            .places_per_host(8)
            .executor_threads(2)
            .fault_plan(FaultPlan::new(7)) // passthrough; enables kill isolation
            .finish_watchdog(Duration::from_millis(250)),
    );
    let arrived = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let err = std::thread::scope(|s| {
        let flag = arrived.clone();
        s.spawn(|| {
            while !arrived.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            rt.kill_place(victim);
        });
        rt.run_checked(move |ctx: &Ctx| {
            ctx.finish(move |c| {
                c.at_async(victim, move |cc| {
                    flag.store(true, Ordering::Release);
                    // Completion cannot leave the dead place; the finish is
                    // guaranteed to stall with one activity outstanding.
                    while !cc.place_dead(cc.here()) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            });
        })
        .expect_err("finish over a killed place must fail, not complete")
    });
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "watchdog took {:?} — effectively a hang",
        started.elapsed()
    );
    let ApgasError::DeadPlace { detail } = err;
    assert!(
        detail.contains("at 0 stalled"),
        "stall must be attributed to the finish home place: {detail}"
    );
    assert!(
        detail.contains("dead places [40]"),
        "error must name the dead place: {detail}"
    );
}

/// An idle executor must sleep, and so resweep, while another executor
/// runs a context that a delivery has re-marked runnable. Place 1 spins on
/// one executor; place 2's reply lands in its mailbox mid-spin; place 3
/// waits 20 ms on a timed condition that only a resweep re-polls. An idle
/// executor that counted the claimed place 1 as runnable never slept, so
/// the wait lasted as long as the spin.
#[test]
fn timed_wait_is_repolled_while_a_reached_place_spins() {
    const SPIN: Duration = Duration::from_secs(2);
    let rt = Runtime::new(Config::new(4).executor_threads(2));
    let waited = rt.run(|ctx| {
        let done = Arc::new(AtomicBool::new(false));
        let waited = Arc::new(Mutex::new(Duration::ZERO));
        let (d1, d3, w) = (done.clone(), done.clone(), waited.clone());
        ctx.finish(move |c| {
            c.at_async(PlaceId(1), move |c1| {
                c1.at_async(PlaceId(2), |c2| c2.at_async(PlaceId(1), |_| {}));
                let spun = Instant::now();
                while !d1.load(Ordering::Acquire) && spun.elapsed() < SPIN {
                    std::hint::spin_loop();
                }
            });
            c.at_async(PlaceId(3), move |c3| {
                let start = Instant::now();
                c3.wait_until(|| start.elapsed() >= Duration::from_millis(20));
                *w.lock().unwrap() = start.elapsed();
                d3.store(true, Ordering::Release);
            });
        });
        let v = *waited.lock().unwrap();
        v
    });
    assert!(
        waited < Duration::from_millis(500),
        "a 20 ms timed wait took {waited:?} while another place spun"
    );
}

/// The M:N runtime is reusable across `run` calls like the threaded one.
#[test]
fn runtime_is_reusable_across_runs() {
    let rt = Runtime::new(Config::new(16).executor_threads(2));
    for round in 0..3u64 {
        let n = rt.run(move |ctx| {
            let acc = Arc::new(AtomicU64::new(0));
            let a2 = acc.clone();
            ctx.finish(move |c| {
                for p in c.places() {
                    let a = a2.clone();
                    c.at_async(p, move |_| {
                        a.fetch_add(round + 1, Ordering::SeqCst);
                    });
                }
            });
            acc.load(Ordering::SeqCst)
        });
        assert_eq!(n, 16 * (round + 1));
    }
}

/// Total of one named counter in the runtime's metrics registry.
fn counter(rt: &Runtime, name: &str) -> u64 {
    rt.obs()
        .expect("obs on by default")
        .metrics
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// A place that receives 4,096 tiny `at_async` updates from one peer runs
/// them in scheduling quanta of many activities per mailbox sweep: the
/// sweeps (one pass over every incoming lane each) are amortized over the
/// activities they fed rather than paid once per activity.
#[test]
fn mailbox_sweeps_amortize_over_a_storm() {
    let updates = 4096u64;
    let rt = Runtime::new(Config::new(2).executor_threads(1));
    let sink = Arc::new(AtomicU64::new(0));
    let s2 = sink.clone();
    rt.run(move |ctx| {
        ctx.finish(move |c| {
            for i in 0..updates {
                let s = s2.clone();
                c.at_async(PlaceId(1), move |_| {
                    s.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
    });
    assert_eq!(sink.load(Ordering::SeqCst), updates * (updates - 1) / 2);
    let sweeps = counter(&rt, "worker.mailbox_sweeps");
    let activities = counter(&rt, "worker.activities");
    assert!(activities > updates, "activities {activities}");
    assert!(
        sweeps > 0,
        "the sweep counter must be registered and counted"
    );
    assert!(
        sweeps < activities / 8,
        "{sweeps} mailbox sweeps for {activities} activities: the sweep is \
         not amortized over the scheduling quantum"
    );
}

/// The executor pool reports its scheduling: a 32-place storm on two
/// executors records context resumes, and the idle runtime after it
/// records empty passes, condvar sleeps and the timed-out sleeps that
/// resweep the parked contexts.
#[test]
fn executor_counts_resumes_under_a_storm() {
    let places = 32u32;
    let per_place = 256u64;
    let mut cfg = Config::new(places as usize).executor_threads(2);
    // A short resweep cadence so the idle phase below times out often.
    cfg.park_timeout = Duration::from_millis(1);
    let rt = Runtime::new(cfg);
    let sink = Arc::new(AtomicU64::new(0));
    let s2 = sink.clone();
    rt.run(move |ctx| {
        ctx.finish(move |c| {
            for p in c.places() {
                let s = s2.clone();
                c.at_async(p, move |cc| {
                    let me = cc.here().0;
                    for i in 0..per_place as u32 {
                        let s = s.clone();
                        let dest = (me + 1 + i % (places - 1)) % places;
                        cc.at_async(PlaceId(dest), move |_| {
                            s.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
    });
    assert_eq!(sink.load(Ordering::SeqCst), u64::from(places) * per_place);
    // Counts are published at the end of each pass over the context table.
    // The runtime is idle from here on: its executors find nothing to
    // resume, sleep, and time out into resweeps.
    let names = [
        "executor.resumes",
        "executor.empty_passes",
        "executor.sleeps",
        "executor.resweeps",
    ];
    let deadline = Instant::now() + Duration::from_secs(10);
    while names.iter().any(|n| counter(&rt, n) == 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    for name in names {
        assert!(
            counter(&rt, name) > 0,
            "a pooled runtime must record {name}"
        );
    }
}

/// An activity that keeps re-spawning itself locally never empties its
/// place's queue; the message that tells it to stop arrives by `at_async`
/// from another place. The run terminates only because a scheduling
/// quantum runs a bounded number of activities before it sweeps the
/// mailbox again — a quantum that ran the queue until empty would never
/// deliver the flag. Two executors: a context with work never yields its
/// thread, so place 0 needs one of its own.
#[test]
fn self_respawning_activity_cannot_starve_the_mailbox() {
    // Far more spins than the flag needs to arrive; reaching it means the
    // mailbox was starved (the cap turns that hang into a failure).
    const CAP: u64 = 20_000_000;

    fn spin(c: &Ctx, stop: Arc<AtomicBool>, spins: Arc<AtomicU64>) {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let n = spins.fetch_add(1, Ordering::Relaxed);
        if n >= CAP {
            return;
        }
        if n == 1_000 {
            // Provably spinning: ask place 0 to send the stop flag, so it
            // lands in a mailbox whose place queue is never empty.
            let st = stop.clone();
            c.at_async(PlaceId(0), move |c0| {
                c0.at_async(PlaceId(1), move |_| st.store(true, Ordering::Release));
            });
        }
        c.spawn(move |cc| spin(cc, stop, spins));
    }

    let rt = Runtime::new(Config::new(2).executor_threads(2));
    let stop = Arc::new(AtomicBool::new(false));
    let spins = Arc::new(AtomicU64::new(0));
    let (st, sp) = (stop.clone(), spins.clone());
    rt.run(move |ctx| {
        ctx.finish(move |c| c.at_async(PlaceId(1), move |cc| spin(cc, st, sp)));
    });
    assert!(stop.load(Ordering::SeqCst));
    let n = spins.load(Ordering::SeqCst);
    assert!(
        n < CAP,
        "the stop flag never reached the spinning place ({n} spins)"
    );
}
