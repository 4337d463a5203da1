//! End-to-end tests of the APGAS runtime: spawning, every finish protocol,
//! blocking constructs, panic propagation and protocol message-count
//! properties.

use apgas::{Config, FinishKind, MsgClass, PlaceId, Runtime};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn rt(places: usize) -> Runtime {
    Runtime::new(Config::new(places).places_per_host(4))
}

#[test]
fn main_returns_value() {
    let r = rt(1).run(|_| 40 + 2);
    assert_eq!(r, 42);
}

#[test]
fn runtime_reusable_across_runs() {
    let rt = rt(2);
    for i in 0..5u32 {
        let got = rt.run(move |ctx| ctx.at(PlaceId(1), move |_| i * 2));
        assert_eq!(got, i * 2);
    }
}

#[test]
fn local_asyncs_all_run_under_finish() {
    let n = Arc::new(AtomicUsize::new(0));
    let n2 = n.clone();
    rt(1).run(move |ctx| {
        ctx.finish(|c| {
            for _ in 0..100 {
                let n = n2.clone();
                c.spawn(move |_| {
                    n.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(n2.load(Ordering::Relaxed), 100);
    });
}

/// Also on the shared executor: help-first waits nest activity frames on
/// the worker's stack, and a context gets the same stack as a thread.
#[test]
fn fib_recursive_parallel_decomposition() {
    // The paper's fib example: finish { async f1 = fib(n-1); f2 = fib(n-2) }.
    fn fib(ctx: &apgas::Ctx, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let f1 = Arc::new(AtomicU64::new(0));
        let f1c = f1.clone();
        let f2 = ctx.finish(move |c| {
            c.spawn(move |cc| {
                f1c.fetch_add(fib(cc, n - 1), Ordering::Relaxed);
            });
            fib(c, n - 2)
        });
        f1.load(Ordering::Relaxed) + f2
    }
    for cfg in [
        Config::new(1).places_per_host(4),
        Config::new(2).executor_threads(1),
    ] {
        let got = Runtime::new(cfg).run(|ctx| fib(ctx, 15));
        assert_eq!(got, 610);
    }
}

#[test]
fn remote_activities_run_at_their_place() {
    let got = rt(4).run(|ctx| {
        let mut ids = vec![];
        for p in ctx.places() {
            ids.push(ctx.at(p, move |c| c.here().0));
        }
        ids
    });
    assert_eq!(got, vec![0, 1, 2, 3]);
}

#[test]
fn nested_remote_spawn_chains_terminate() {
    // Chain: 0 → 1 → 2 → 3 → counter, all under one default finish.
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    rt(4).run(move |ctx| {
        ctx.finish(|c| {
            let h = h.clone();
            c.at_async(PlaceId(1), move |c1| {
                c1.at_async(PlaceId(2), move |c2| {
                    c2.at_async(PlaceId(3), move |_| {
                        h.fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
        });
        assert_eq!(h.load(Ordering::Relaxed), 1);
    });
}

#[test]
fn default_finish_fan_out_fan_in() {
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    rt(8).run(move |ctx| {
        let n = ctx.num_places();
        ctx.finish(|c| {
            for p in c.places() {
                let h = h.clone();
                c.at_async(p, move |cc| {
                    // every place spawns two local children
                    for _ in 0..2 {
                        let h = h.clone();
                        cc.spawn(move |_| {
                            h.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(h.load(Ordering::Relaxed), 2 * n);
    });
}

#[test]
fn finish_spmd_counts_n_done_messages() {
    let rt = rt(8);
    rt.run(|ctx| {
        ctx.net_stats().reset();
        ctx.finish_pragma(FinishKind::Spmd, |c| {
            for p in c.places().skip(1) {
                c.at_async(p, |_| {});
            }
        });
        let ctl = ctx.net_stats().class(MsgClass::FinishCtl);
        // exactly one Done per remote place
        assert_eq!(ctl.messages, 7, "SPMD must cost exactly n control msgs");
    });
}

#[test]
fn finish_async_single_remote() {
    let rt = rt(2);
    rt.run(|ctx| {
        ctx.net_stats().reset();
        let hit = Arc::new(AtomicUsize::new(0));
        let h = hit.clone();
        ctx.finish_pragma(FinishKind::Async, move |c| {
            c.at_async(PlaceId(1), move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
        assert_eq!(ctx.net_stats().class(MsgClass::FinishCtl).messages, 1);
    });
}

#[test]
#[should_panic(expected = "FINISH_ASYNC")]
fn finish_async_rejects_two_spawns() {
    rt(2).run(|ctx| {
        ctx.finish_pragma(FinishKind::Async, |c| {
            c.at_async(PlaceId(1), |_| {});
            c.at_async(PlaceId(1), |_| {});
        });
    });
}

/// `TRIPS` blocking `at` round trips; returns the `Task` and `FinishCtl`
/// messages they sent.
fn at_trip_msgs(rt: &Runtime) -> (u64, u64) {
    const TRIPS: u32 = 10;
    rt.run(|ctx| {
        ctx.net_stats().reset();
        for i in 0..TRIPS {
            let v = ctx.at(PlaceId(1), move |c| c.here().0 * 10 + i);
            assert_eq!(v, 10 + i);
        }
        let stats = ctx.net_stats();
        let (task, ctl) = (
            stats.class(MsgClass::Task).messages,
            stats.class(MsgClass::FinishCtl).messages,
        );
        assert_eq!(task % u64::from(TRIPS), 0, "{task} Task messages");
        (task / u64::from(TRIPS), ctl / u64::from(TRIPS))
    })
}

#[test]
fn blocking_at_is_two_task_msgs_and_no_ctl_msg() {
    // The request and the reply cross; the reply carries all the credit
    // back, so no FINISH_HERE control message does.
    assert_eq!(at_trip_msgs(&rt(2)), (2, 0), "inline codec");
    let tcp = x10rt::TcpTransport::self_loop(2).expect("self-loop transport");
    let bytes = Runtime::with_transport(Config::new(2).codec(apgas::CodecMode::Bytes), tcp);
    assert_eq!(at_trip_msgs(&bytes), (2, 0), "byte codec over TCP");
}

#[test]
fn at_waits_for_everything_its_body_spawned() {
    // The body at place 1 spawns a slow local child, slow remote children
    // at place 2 and at the caller's place, and runs a nested `at`. The
    // reply leaves before the children finish; the caller must still wait
    // for all of them. Each child away from the caller's place returns its
    // split credit in one control message; the one at home and the nested
    // `at` send none.
    let rt = rt(3);
    rt.run(|ctx| {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        ctx.net_stats().reset();
        let v = ctx.at(PlaceId(1), move |c| {
            let slow = |r: Arc<AtomicUsize>| {
                move |_: &apgas::Ctx| {
                    std::thread::sleep(Duration::from_millis(30));
                    r.fetch_add(1, Ordering::SeqCst);
                }
            };
            c.spawn(slow(r.clone()));
            c.at_async(PlaceId(2), slow(r.clone()));
            c.at_async(PlaceId(0), slow(r.clone()));
            c.at(PlaceId(2), |cc| cc.here().0) + 40
        });
        assert_eq!(v, 42);
        assert_eq!(
            ran.load(Ordering::SeqCst),
            3,
            "at returned before its children ran"
        );
        let stats = ctx.net_stats();
        assert_eq!(
            stats.class(MsgClass::FinishCtl).messages,
            2,
            "remote-resident children"
        );
        // Request, reply, the two remote children, nested request and reply.
        assert_eq!(stats.class(MsgClass::Task).messages, 6);
    });
}

#[test]
fn finish_local_pure_counter_no_messages() {
    let rt = rt(4);
    rt.run(|ctx| {
        ctx.net_stats().reset();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        ctx.finish_pragma(FinishKind::Local, move |c| {
            for _ in 0..50 {
                let h = h.clone();
                c.spawn(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 50);
        assert_eq!(ctx.net_stats().class(MsgClass::FinishCtl).messages, 0);
        assert_eq!(ctx.net_stats().class(MsgClass::Task).messages, 0);
    });
}

#[test]
#[should_panic(expected = "FINISH_LOCAL")]
fn finish_local_rejects_remote() {
    rt(2).run(|ctx| {
        ctx.finish_pragma(FinishKind::Local, |c| {
            c.at_async(PlaceId(1), |_| {});
        });
    });
}

#[test]
fn finish_dense_routes_via_masters() {
    // 16 places, 4 per host. Home is place 0. Flushes from places 5..8
    // must arrive at place 0 via masters 4 → 0, so place 0's direct
    // senders for finish-ctl should only be masters (or place 0's host).
    let rt = Runtime::new(Config::new(16).places_per_host(4));
    rt.run(|ctx| {
        ctx.net_stats().reset();
        ctx.finish_pragma(FinishKind::Dense, |c| {
            for p in c.places().skip(1) {
                c.at_async(p, |_| {});
            }
        });
        // With routing, every non-master place sends its flush to its own
        // master: max out-degree for finish traffic stays small. The root
        // must have received far fewer ctl messages than places.
        let (hot, _) = ctx.net_stats().hottest_receiver();
        let _ = hot;
        let ctl = ctx.net_stats().class(MsgClass::FinishCtl);
        assert!(
            ctl.messages <= 16 + 4,
            "dense ctl traffic should be ~one per place plus master hops, got {}",
            ctl.messages
        );
    });
}

#[test]
fn dense_and_default_agree_on_termination() {
    for kind in [FinishKind::Default, FinishKind::Dense] {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        Runtime::new(Config::new(8).places_per_host(4)).run(move |ctx| {
            ctx.finish_pragma(kind, |c| {
                for p in c.places() {
                    let h = h.clone();
                    c.at_async(p, move |cc| {
                        let q = PlaceId((cc.here().0 + 1) % cc.num_places() as u32);
                        let h = h.clone();
                        cc.at_async(q, move |_| {
                            h.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                }
            });
            assert_eq!(h.load(Ordering::Relaxed), 8);
        });
    }
}

#[test]
fn at_put_blocking_put() {
    let rt = rt(3);
    rt.run(|ctx| {
        let flag = Arc::new(AtomicUsize::new(0));
        let f = flag.clone();
        ctx.at_put(PlaceId(2), move |_| {
            f.store(7, Ordering::Release);
        });
        assert_eq!(flag.load(Ordering::Acquire), 7, "at_put must block");
    });
}

#[test]
fn activity_panic_propagates_through_finish() {
    let result = std::panic::catch_unwind(|| {
        rt(2).run(|ctx| {
            ctx.finish(|c| {
                c.at_async(PlaceId(1), |_| panic!("remote boom"));
            });
        });
    });
    let msg = apgas_panic_text(result);
    assert!(msg.contains("remote boom"), "got: {msg}");
}

#[test]
fn multiple_panics_aggregated() {
    let result = std::panic::catch_unwind(|| {
        rt(4).run(|ctx| {
            ctx.finish(|c| {
                for p in c.places().skip(1) {
                    c.at_async(p, move |cc| panic!("boom-{}", cc.here()));
                }
            });
        });
    });
    let msg = apgas_panic_text(result);
    assert!(msg.contains("3 governed activities panicked"), "got: {msg}");
}

#[test]
fn finish_waits_even_when_body_panics() {
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    let result = std::panic::catch_unwind(|| {
        rt(2).run(move |ctx| {
            ctx.finish(|c| {
                let h = h.clone();
                c.at_async(PlaceId(1), move |_| {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    h.fetch_add(1, Ordering::Relaxed);
                });
                panic!("body boom");
            });
        });
    });
    assert!(result.is_err());
    assert_eq!(
        hits.load(Ordering::Relaxed),
        1,
        "finish must wait for governed activities before re-raising"
    );
}

#[test]
fn atomic_sections_are_exclusive() {
    // Many local activities increment a plain (non-atomic) counter under
    // ctx.atomic — the result must be exact.
    let rt = Runtime::new(Config::new(1));
    #[allow(clippy::arc_with_non_send_sync)] // Wrap supplies the (checked) Sync
    let total = rt.run(|ctx| {
        let counter = Arc::new(std::cell::UnsafeCell::new(0u64));
        struct Wrap(Arc<std::cell::UnsafeCell<u64>>);
        unsafe impl Send for Wrap {}
        unsafe impl Sync for Wrap {}
        let w = Arc::new(Wrap(counter.clone()));
        ctx.finish(|c| {
            for _ in 0..64 {
                let w = w.clone();
                c.spawn(move |cc| {
                    for _ in 0..100 {
                        cc.atomic(|| unsafe { *w.0.get() += 1 });
                    }
                });
            }
        });
        unsafe { *counter.get() }
    });
    assert_eq!(total, 6400);
}

#[test]
fn when_waits_for_condition() {
    let rt = rt(1);
    rt.run(|ctx| {
        let cell = Arc::new(AtomicUsize::new(0));
        let c2 = cell.clone();
        ctx.finish(|c| {
            let c3 = c2.clone();
            c.spawn(move |cc| {
                // let the waiter get there first
                std::thread::sleep(std::time::Duration::from_millis(10));
                cc.atomic(|| c3.store(5, Ordering::Relaxed));
            });
            let c4 = c2.clone();
            let seen = c.when(move || c4.load(Ordering::Relaxed) == 5, || 99u32);
            assert_eq!(seen, 99);
        });
    });
}

#[test]
fn average_load_idiom_with_global_ref() {
    // The paper's GlobalRef + atomic accumulation example.
    use apgas::GlobalRef;
    use parking_lot::Mutex;
    let avg = rt(4).run(|ctx| {
        let acc = GlobalRef::new(ctx, Mutex::new(0.0f64));
        let n = ctx.num_places();
        ctx.finish(|c| {
            for p in c.places() {
                c.at_async(p, move |cc| {
                    let load = cc.here().0 as f64; // stand-in for systemLoad()
                    cc.at_async(acc.home(), move |hc| {
                        *acc.get(hc).lock() += load;
                    });
                });
            }
        });
        let total = *acc.get(ctx).lock();
        total / n as f64
    });
    assert_eq!(avg, (0.0 + 1.0 + 2.0 + 3.0) / 4.0);
}

#[test]
#[should_panic(expected = "X10's type checker")]
fn global_ref_deref_away_from_home_panics() {
    use apgas::GlobalRef;
    rt(2).run(|ctx| {
        let r = GlobalRef::new(ctx, 42u64);
        ctx.at(PlaceId(1), move |c| {
            let _ = r.get(c); // illegal: not home
        });
    });
}

#[test]
fn uncounted_async_invisible_to_finish() {
    let rt = rt(2);
    rt.run(|ctx| {
        let hit = Arc::new(AtomicUsize::new(0));
        let h = hit.clone();
        // finish should complete without waiting for the uncounted task
        ctx.finish(|c| {
            let h = h.clone();
            c.uncounted_async(PlaceId(1), MsgClass::Steal, move |_| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                h.fetch_add(1, Ordering::Relaxed);
            });
        });
        // now wait for it manually
        let h2 = hit.clone();
        ctx.wait_until(move || h2.load(Ordering::Relaxed) == 1);
    });
}

#[test]
fn deep_nested_finishes() {
    // finish { at(p) { finish { at(q) { finish { ... } } } } } five deep.
    let got = rt(4).run(|ctx| {
        fn descend(ctx: &apgas::Ctx, depth: u32) -> u32 {
            if depth == 0 {
                return ctx.here().0;
            }
            let p = PlaceId((ctx.here().0 + 1) % ctx.num_places() as u32);
            ctx.at(p, move |c| descend(c, depth - 1))
        }
        descend(ctx, 5)
    });
    assert_eq!(got, 5 % 4);
}

#[test]
fn many_places_smoke() {
    // 64 places on one core: exercises parking/waking heavily.
    let rt = Runtime::new(Config::new(64).places_per_host(32));
    let sum = rt.run(|ctx| {
        let total = Arc::new(AtomicU64::new(0));
        let t = total.clone();
        ctx.finish(|c| {
            for p in c.places() {
                let t = t.clone();
                c.at_async(p, move |cc| {
                    t.fetch_add(cc.here().0 as u64, Ordering::Relaxed);
                });
            }
        });
        total.load(Ordering::Relaxed)
    });
    assert_eq!(sum, (0..64).sum::<u64>());
}

/// Root submissions from several OS threads at once go through place 0's
/// ingress; each `run` gets its own result, and none is lost or left queued.
#[test]
fn concurrent_root_submissions_each_get_their_result() {
    for cfg in [Config::new(4), Config::new(4).executor_threads(1)] {
        let rt = Runtime::new(cfg);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rt = &rt;
                s.spawn(move || {
                    for i in 0..25u64 {
                        let tag = t * 1000 + i;
                        let got = rt.run(move |ctx| {
                            let total = Arc::new(AtomicU64::new(0));
                            let tot = total.clone();
                            ctx.finish(|c| {
                                for p in c.places() {
                                    let tot = tot.clone();
                                    c.at_async(p, move |cc| {
                                        tot.fetch_add(cc.here().0 as u64 + tag, Ordering::Relaxed);
                                    });
                                }
                            });
                            total.load(Ordering::Relaxed)
                        });
                        assert_eq!(got, (0..4).sum::<u64>() + 4 * tag);
                    }
                });
            }
        });
        assert_eq!(rt.total_queued(), 0);
        for p in 0..4 {
            assert!(!rt.place_has_work(PlaceId(p)), "place {p} still has work");
        }
        assert!(rt.finish_residue().is_clean(), "{:?}", rt.finish_residue());
    }
}

/// A place records an activity's death, and pushes out the messages that
/// report it, before it runs its next activity. Under finish F, place 0
/// sends `A1` and then an uncounted `A2` to place 1; A2 spins until place 0
/// sees F complete. F completes only once place 1 has reported A1's death,
/// so that report may wait neither for place 1's next death nor for the end
/// of its quantum: A2 never ends, and no later event comes. The spin is
/// bounded so a regression fails instead of hanging.
#[test]
fn finish_completes_while_uncounted_activity_spins() {
    let f_done = Arc::new(AtomicBool::new(false));
    let stuck = Arc::new(AtomicBool::new(false));
    let (done, st) = (f_done.clone(), stuck.clone());
    rt(2).run(move |ctx| {
        let d = done.clone();
        ctx.finish(move |c| {
            c.at_async(PlaceId(1), |_| {});
            c.uncounted_async(PlaceId(1), MsgClass::Task, move |_| {
                let start = Instant::now();
                while !d.load(Ordering::Acquire) {
                    if start.elapsed() > Duration::from_secs(10) {
                        st.store(true, Ordering::Release);
                        return;
                    }
                    std::hint::spin_loop();
                }
            });
        });
        done.store(true, Ordering::Release);
    });
    assert!(f_done.load(Ordering::Acquire));
    assert!(
        !stuck.load(Ordering::Acquire),
        "finish F completed only after the uncounted activity gave up: place 1 \
         held back A1's death while it ran an activity of no finish"
    );
}

fn apgas_panic_text(r: std::thread::Result<()>) -> String {
    match r {
        Ok(()) => panic!("expected a panic"),
        Err(e) => {
            if let Some(s) = e.downcast_ref::<&str>() {
                s.to_string()
            } else if let Some(s) = e.downcast_ref::<String>() {
                s.clone()
            } else {
                String::new()
            }
        }
    }
}
