//! Finish liveness watchdog: a place killed mid-finish must surface a typed
//! [`ApgasError::DeadPlace`] within the configured limit at every finish
//! protocol kind — never a hang — and must stay silent for live protocols,
//! however slow.
//!
//! Every test runs with a passthrough fault plan (no probabilistic faults)
//! so the transport is the fault-injecting decorator: a killed place is then
//! fully isolated — its outbound completion messages fail too, which is
//! what makes the stall deterministic regardless of kill timing.

use apgas::{ApgasError, Config, Ctx, FaultPlan, FinishKind, PlaceId, Runtime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VICTIM: PlaceId = PlaceId(2);
const LIMIT: Duration = Duration::from_millis(250);
/// Generous hang bound: watchdog limit plus scheduling slack. A test
/// exceeding this means the watchdog failed at its one job.
const HANG_BOUND: Duration = Duration::from_secs(10);

fn runtime() -> Runtime {
    Runtime::new(
        Config::new(4)
            .places_per_host(2)
            .fault_plan(FaultPlan::new(7)) // passthrough; enables kill_place isolation
            .finish_watchdog(LIMIT),
    )
}

/// Body for the victim place: report arrival, then stay busy until the
/// transport declares this place dead. The activity then completes, but its
/// completion message cannot leave the dead place — the governing finish is
/// guaranteed to stall with exactly one activity outstanding.
fn stall_until_killed(c: &Ctx, arrived: &AtomicBool) {
    arrived.store(true, Ordering::Release);
    while !c.place_dead(c.here()) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run `body` under `run_checked` while a sidecar thread kills [`VICTIM`]
/// as soon as the victim reports its activity arrived. Asserts the run ends
/// in a typed dead-place error naming `expect_kind`, within [`HANG_BOUND`].
fn expect_dead_place(expect_kind: &str, body: impl FnOnce(&Ctx, Arc<AtomicBool>) + Send + 'static) {
    let rt = runtime();
    let arrived = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let err = std::thread::scope(|s| {
        let flag = arrived.clone();
        s.spawn(|| {
            while !arrived.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            rt.kill_place(VICTIM);
        });
        rt.run_checked(move |ctx| body(ctx, flag))
            .expect_err("finish over a killed place must fail, not complete")
    });
    assert!(
        started.elapsed() < HANG_BOUND,
        "watchdog took {:?} — effectively a hang",
        started.elapsed()
    );
    let ApgasError::DeadPlace { detail } = err;
    assert!(
        detail.contains(expect_kind),
        "error should name the stalled protocol {expect_kind}: {detail}"
    );
    assert!(
        detail.contains("dead places [2]"),
        "error should name the dead place: {detail}"
    );
}

#[test]
fn default_finish_surfaces_dead_place() {
    expect_dead_place("FINISH_DEFAULT", |ctx, arrived| {
        ctx.finish(move |c| {
            c.at_async(VICTIM, move |cc| stall_until_killed(cc, &arrived));
        });
    });
}

#[test]
fn dense_finish_surfaces_dead_place() {
    expect_dead_place("FINISH_DENSE", |ctx, arrived| {
        ctx.finish_pragma(FinishKind::Dense, move |c| {
            c.at_async(VICTIM, move |cc| stall_until_killed(cc, &arrived));
        });
    });
}

#[test]
fn spmd_finish_surfaces_dead_place() {
    expect_dead_place("FINISH_SPMD", |ctx, arrived| {
        ctx.finish_pragma(FinishKind::Spmd, move |c| {
            for p in c.places() {
                let arrived = arrived.clone();
                c.at_async(p, move |cc| {
                    if cc.here() == VICTIM {
                        stall_until_killed(cc, &arrived);
                    }
                });
            }
        });
    });
}

#[test]
fn async_finish_surfaces_dead_place() {
    expect_dead_place("FINISH_ASYNC", |ctx, arrived| {
        ctx.finish_pragma(FinishKind::Async, move |c| {
            c.at_async(VICTIM, move |cc| stall_until_killed(cc, &arrived));
        });
    });
}

#[test]
fn here_round_trip_surfaces_dead_place() {
    expect_dead_place("FINISH_HERE", |ctx, arrived| {
        // `at` is the FINISH_HERE round trip; the response cannot leave the
        // dead victim, so the value never arrives.
        let _ = ctx.at(VICTIM, move |cc| {
            stall_until_killed(cc, &arrived);
            42u32
        });
    });
}

/// A watchdog trip must leave a status report behind (the automatic dump):
/// [`Runtime::last_watchdog_report`] names the stalled finish kind and the
/// waiting place, and carries the full introspection dump — per-place run
/// states, the in-flight root with its progress counter frozen at the
/// stall, and the metrics (including `finish.watchdog_fired`).
#[test]
fn watchdog_trip_dumps_a_status_report() {
    let rt = runtime();
    assert!(rt.last_watchdog_report().is_none(), "no trip yet");
    let arrived = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let flag = arrived.clone();
        s.spawn(|| {
            while !arrived.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            rt.kill_place(VICTIM);
        });
        rt.run_checked(move |ctx| {
            ctx.finish(move |c| {
                c.at_async(VICTIM, move |cc| stall_until_killed(cc, &flag));
            });
        })
        .expect_err("finish over a killed place must fail");
    });
    let report = rt
        .last_watchdog_report()
        .expect("watchdog trip must dump a status report");
    assert!(
        report.contains("finish[FINISH_DEFAULT]"),
        "report must name the stalled finish kind:\n{report}"
    );
    assert!(
        report.contains("stalled: watchdog fired"),
        "report must say what happened:\n{report}"
    );
    assert!(
        report.contains("runtime status: rank 0"),
        "report must carry the introspection dump:\n{report}"
    );
    assert!(
        report.contains("lanes 1  lane_kib 1"),
        "report must show each place's lane memory:\n{report}"
    );
    assert!(
        report.contains("finish.watchdog_fired"),
        "report must carry the metrics dump:\n{report}"
    );
    // The live surfaces stay readable after the failed run, in both shapes.
    assert!(rt.status_report().contains("runtime status"));
    let json = rt.status_report_json();
    assert!(json.contains("\"rank\": 0"), "{json}");
    assert!(json.contains("\"dead\": [2]"), "{json}");
    // Every listed place carries the counts its worker publishes.
    let v = serde_json::from_str(&json).expect("status JSON parses");
    let victim = v
        .get("place_states")
        .and_then(|p| p.as_array())
        .and_then(|ps| {
            ps.iter()
                .find(|p| p.get("place").and_then(|x| x.as_u64()) == Some(2))
        })
        .unwrap_or_else(|| panic!("the dead place must be listed: {json}"));
    for key in ["proxies", "lanes", "lane_kib"] {
        assert!(victim.get(key).and_then(|x| x.as_u64()).is_some(), "{json}");
    }
    assert!(
        victim
            .get("dense_pending")
            .and_then(|x| x.as_bool())
            .is_some(),
        "{json}"
    );
}

/// FINISH_LOCAL governs only place-local activities: killing an unrelated
/// place must not disturb it — the watchdog fires on stalls, not on deaths.
#[test]
fn local_finish_survives_remote_kill() {
    let rt = runtime();
    rt.kill_place(VICTIM);
    let out = rt.run_checked(|ctx| {
        let mut acc = 0u64;
        ctx.finish_pragma(FinishKind::Local, |c| {
            for _ in 0..8 {
                c.spawn(|_| {
                    std::thread::sleep(Duration::from_millis(5));
                });
            }
            acc = 17;
        });
        acc
    });
    assert_eq!(out.expect("local finish must complete"), 17);
}

/// A slow but *live* protocol must never trip the watchdog: every hop
/// produces termination-protocol progress, which extends the deadline, even
/// though the whole finish takes several multiples of the limit. On the
/// shared executor the waiting place can stay parked behind other places'
/// sleeping activities past the deadline; the progress it then drains
/// still counts.
#[test]
fn watchdog_extends_for_live_slow_protocols() {
    let base = Config::new(4)
        .places_per_host(2)
        .fault_plan(FaultPlan::new(7))
        .finish_watchdog(Duration::from_millis(120));
    for cfg in [base.clone(), base.executor_threads(2)] {
        let rt = Runtime::new(cfg);
        let out = rt.run_checked(|ctx| {
            ctx.finish(|c| {
                // A chain of remote hops, each shorter than the limit but
                // totalling well past it: 10 × 60ms = 600ms > 120ms.
                for i in 0..10u32 {
                    c.at_async(PlaceId(i % 4), |_| {
                        std::thread::sleep(Duration::from_millis(60));
                    });
                    std::thread::sleep(Duration::from_millis(60));
                }
            });
            7u32
        });
        assert_eq!(out.expect("live protocol must not trip the watchdog"), 7);
    }
}
