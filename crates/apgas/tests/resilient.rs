//! Resilient finish end-to-end: a place killed mid-finish must be adopted —
//! its accounting zeroed, its lost command activities re-executed at the
//! home place — and the finish must *complete with the right answer*, not
//! surface a typed error. The deliberately-broken configuration
//! (`Config::resilient_finish(false)`) must still fail the watchdog way,
//! which is what the DST mutation-smoke test relies on.

use apgas::{ApgasError, Config, FaultPlan, FinishKind, HandlerId, PlaceId, Runtime};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VICTIM: PlaceId = PlaceId(2);
const LIMIT: Duration = Duration::from_millis(250);
const HANG_BOUND: Duration = Duration::from_secs(10);
const H_RECORD: HandlerId = HandlerId(2000);
const TASKS: u64 = 12;

/// A runtime with the idempotent record handler installed: it notes its
/// task id in `seen`, then — if running at a victim place that is about to
/// die — stalls until the transport declares the place dead, so its
/// completion can never reach the root and the finish is guaranteed to
/// need adoption.
fn runtime(resilient: bool, seen: Arc<Mutex<HashSet<u64>>>, arrived: Arc<AtomicBool>) -> Runtime {
    Runtime::new(
        Config::new(4)
            .places_per_host(2)
            .fault_plan(FaultPlan::new(7)) // passthrough; enables kill_place isolation
            .finish_watchdog(LIMIT)
            .resilient_finish(resilient)
            .handler(H_RECORD, move |c, args| {
                let id = u64::from_le_bytes(args.try_into().expect("8-byte task id"));
                seen.lock().insert(id);
                if c.here() == VICTIM {
                    arrived.store(true, Ordering::Release);
                    while !c.place_dead(c.here()) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }),
    )
}

fn fan_out(c: &apgas::Ctx) {
    for i in 0..TASKS {
        // Deterministic spray including the victim; commands only, so
        // every lost task has a replayable descriptor.
        let target = PlaceId((i % 4) as u32);
        c.at_async_cmd(target, H_RECORD, i.to_le_bytes().to_vec());
    }
}

/// The headline property: kill a place mid-resilient-finish and the run
/// completes with the exact task set recorded — adoption + re-execution
/// recovered every task that was destined to the dead place.
#[test]
fn resilient_finish_survives_victim_kill_exactly() {
    let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let arrived = Arc::new(AtomicBool::new(false));
    let rt = runtime(true, seen.clone(), arrived.clone());
    let started = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !arrived.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            rt.kill_place(VICTIM);
        });
        rt.run_checked(|ctx| {
            ctx.finish_pragma(FinishKind::Resilient, fan_out);
        })
        .expect("resilient finish must survive the kill, not fail typed");
    });
    assert!(
        started.elapsed() < HANG_BOUND,
        "recovery took {:?} — effectively a hang",
        started.elapsed()
    );
    let seen = seen.lock();
    let expect: HashSet<u64> = (0..TASKS).collect();
    assert_eq!(
        *seen, expect,
        "re-execution must recover exactly the lost tasks (idempotent dedup)"
    );
    assert_eq!(rt.dead_places(), vec![VICTIM]);
}

/// The mutation target: with adoption disabled the same schedule must fail
/// the old way (typed dead-place error from the watchdog) — proving the
/// resilient path, not luck, is what makes the test above pass.
#[test]
fn broken_adoption_fails_typed_not_silent() {
    let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let arrived = Arc::new(AtomicBool::new(false));
    let rt = runtime(false, seen, arrived.clone());
    let err = std::thread::scope(|s| {
        s.spawn(|| {
            while !arrived.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            rt.kill_place(VICTIM);
        });
        rt.run_checked(|ctx| {
            ctx.finish_pragma(FinishKind::Resilient, fan_out);
        })
        .expect_err("with resilience off the kill must surface an error")
    });
    let ApgasError::DeadPlace { detail } = err;
    assert!(
        detail.contains("FINISH_RESILIENT"),
        "error should name the protocol: {detail}"
    );
}

/// Without faults, FINISH_RESILIENT is observationally FINISH_DEFAULT plus
/// backup traffic: same answers, and every backup snapshot is released
/// (no place left holding `backup_roots` state after the runs).
#[test]
fn resilient_matches_default_fault_free_and_releases_backups() {
    let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let sink = seen.clone();
    // No kill in this test, so the recording handler must not stall.
    let rt = Runtime::new(
        Config::new(4)
            .places_per_host(2)
            .handler(H_RECORD, move |_, args| {
                let id = u64::from_le_bytes(args.try_into().expect("8-byte task id"));
                sink.lock().insert(id);
            }),
    );
    rt.run_checked(|ctx| {
        ctx.finish_pragma(FinishKind::Resilient, fan_out);
    })
    .expect("fault-free resilient finish must complete");
    assert_eq!(*seen.lock(), (0..TASKS).collect::<HashSet<u64>>());
    // The BackupRelease races the end of the run; poll briefly. A place
    // still holding a snapshot is "interesting" and appears in the report.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let json = rt.status_report_json();
        let leaked = json
            .split("\"backup_roots\": ")
            .skip(1)
            .any(|rest| !rest.starts_with('0'));
        if !leaked {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backup snapshots never released:\n{}",
            rt.status_report()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let residue = rt.finish_residue();
    assert_eq!((residue.roots, residue.proxies), (0, 0));
}

/// Single-place degenerate case: no backup peer exists; the protocol must
/// simply skip replication and work.
#[test]
fn resilient_single_place_skips_backup() {
    let rt = Runtime::new(Config::new(1));
    let out = rt.run(|ctx| {
        let mut acc = 0u64;
        ctx.finish_pragma(FinishKind::Resilient, |c| {
            c.spawn(|_| {});
            acc = 41;
        });
        acc + 1
    });
    assert_eq!(out, 42);
}
