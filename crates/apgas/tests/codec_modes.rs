//! End-to-end coverage of `CodecMode::Bytes`: the same APGAS programs that
//! run over typed inline payloads must run identically when every protocol
//! message is serialized at the send site (`PROTOCOL.md`), and over the TCP
//! self-loop transport, where the serialized bytes cross a real socket.

use apgas::{CodecMode, Config, HandlerId, PlaceId, Runtime};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use x10rt::{ProcSpec, TcpConfig, TcpTransport};

fn cfg_bytes(places: usize) -> Config {
    Config::new(places).codec(CodecMode::Bytes)
}

/// A workload touching every protocol class: nested finishes (FinishCtl),
/// remote spawns (Task), `at` round trips (FINISH_HERE credits), and a
/// reduction via remote evaluation.
fn mixed_workload(rt: &Runtime) -> u64 {
    rt.run(|ctx| {
        let total = Arc::new(AtomicU64::new(0));
        let t2 = total.clone();
        ctx.finish(|c| {
            for p in c.places() {
                let t = t2.clone();
                c.at_async(p, move |rc| {
                    let mine = rc.here().0 as u64 + 1;
                    t.fetch_add(mine, Ordering::Relaxed);
                });
            }
        });
        let mut remote_sum = 0u64;
        for p in ctx.places() {
            remote_sum += ctx.at(p, move |rc| rc.here().0 as u64 * 10);
        }
        total.load(Ordering::Relaxed) + remote_sum
    })
}

#[test]
fn bytes_mode_matches_inline_results() {
    let places = 4;
    let expected = mixed_workload(&Runtime::new(Config::new(places)));
    let got = mixed_workload(&Runtime::new(cfg_bytes(places)));
    assert_eq!(got, expected);
}

#[test]
fn bytes_mode_over_tcp_self_loop() {
    let places = 4;
    let expected = mixed_workload(&Runtime::new(Config::new(places)));
    let transport = TcpTransport::self_loop(places).expect("self-loop transport");
    let rt = Runtime::with_transport(cfg_bytes(places), transport);
    assert_eq!(mixed_workload(&rt), expected);
}

#[test]
fn bytes_mode_charges_identical_modeled_bytes() {
    // The byte ledgers are part of the model (Power 775 traffic accounting);
    // serializing must not change what a workload charges.
    fn run_and_total(rt: Runtime) -> (u64, u64) {
        rt.run(|ctx| {
            ctx.finish(|c| {
                for p in c.places() {
                    c.at_async(p, |_| {});
                }
            });
        });
        let s = rt.net_stats();
        (s.total_messages(), s.total_bytes())
    }
    let (inline_msgs, inline_bytes) = run_and_total(Runtime::new(Config::new(4)));
    let (bytes_msgs, bytes_bytes) = run_and_total(Runtime::new(cfg_bytes(4)));
    assert_eq!(inline_msgs, bytes_msgs, "message counts must not change");
    assert_eq!(inline_bytes, bytes_bytes, "modeled bytes must not change");
    // Over the TCP self-loop a batch arrives as the frame it crossed the
    // socket in, and a lone message as its own envelope: the charges are
    // the sender's, carried in each message header.
    let transport = TcpTransport::self_loop(4).expect("self-loop transport");
    let (tcp_msgs, tcp_bytes) = run_and_total(Runtime::with_transport(cfg_bytes(4), transport));
    assert_eq!(inline_msgs, tcp_msgs, "message counts over TCP");
    assert_eq!(inline_bytes, tcp_bytes, "modeled bytes over TCP");
}

#[test]
fn teams_and_clocks_work_serialized() {
    let rt = Runtime::new(cfg_bytes(4));
    let sum = rt.run(|ctx| {
        let group: Vec<_> = ctx.places().collect();
        let team = apgas::Team::new(ctx, group);
        let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let r2 = results.clone();
        ctx.finish(|c| {
            for p in c.places() {
                let team = team.clone();
                let r = r2.clone();
                c.at_async(p, move |rc| {
                    let v = team.allreduce(rc, rc.here().0 as u64 + 1, |a, b| a + b);
                    r.lock().push(v);
                });
            }
        });
        let results = results.lock();
        assert!(results.iter().all(|&v| v == results[0]));
        results[0]
    });
    assert_eq!(sum, 1 + 2 + 3 + 4);
}

#[test]
fn at_async_cmd_runs_installed_handler_in_both_modes() {
    for mode in [CodecMode::Inline, CodecMode::Bytes] {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        let cfg = Config::new(3)
            .codec(mode)
            .handler(HandlerId(2000), move |ctx, args| {
                let mut cur = x10rt::codec::Cursor::new(args);
                let v = cur.u64().expect("u64 arg");
                h2.fetch_add(v * (ctx.here().0 as u64 + 1), Ordering::Relaxed);
            });
        let rt = Runtime::new(cfg);
        rt.run(|ctx| {
            ctx.finish(|c| {
                for p in c.places() {
                    let mut args = Vec::new();
                    x10rt::codec::put_u64(&mut args, 10);
                    c.at_async_cmd(p, HandlerId(2000), args);
                }
            });
        });
        // 10*(1) + 10*(2) + 10*(3)
        assert_eq!(hits.load(Ordering::Relaxed), 60, "mode {mode:?}");
    }
}

#[test]
fn unknown_handler_id_panics_naming_the_id() {
    let rt = Runtime::new(Config::new(2));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(|ctx| {
            ctx.finish(|c| {
                c.at_async_cmd(apgas::PlaceId(1), HandlerId(4321), vec![]);
            });
        });
    }))
    .expect_err("an unknown handler must fail the finish");
    let msg = apgas::panic_message(err);
    assert!(
        msg.contains("unknown handler id #4321"),
        "panic must name the id: {msg}"
    );
}

#[test]
#[should_panic(expected = "runtime-reserved range")]
fn runtime_range_handler_ids_rejected() {
    let _ = Config::new(1).handler(HandlerId(5), |_, _| {});
}

/// A command can reach a process as soon as its runtime's workers run,
/// while the process is still busy with its own set-up. Handlers come with
/// the configuration, so they are there from the first worker step: rank 1
/// here does nothing after building its runtime until rank 0's command has
/// run at its place.
#[test]
fn command_arriving_during_setup_finds_its_handler() {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let procs: Vec<ProcSpec> = [&l0, &l1]
        .iter()
        .enumerate()
        .map(|(rank, l)| ProcSpec {
            addr: l.local_addr().unwrap().to_string(),
            place_start: rank as u32,
            place_count: 1,
        })
        .collect();
    let cfg1 = TcpConfig::new(procs.clone(), 1);
    let dial = std::thread::spawn(move || TcpTransport::connect_with_listener(cfg1, l1));
    let t0 = TcpTransport::connect_with_listener(TcpConfig::new(procs, 0), l0).expect("rank 0");
    let t1 = dial.join().unwrap().expect("rank 1");
    let rank = |r: u32| Config::new(2).codec(CodecMode::Bytes).host_places(r, 1);
    let (up, rank1_up) = mpsc::channel();
    let rank0 = std::thread::spawn(move || {
        let rt = Runtime::with_transport(rank(0), t0);
        rank1_up.recv().expect("rank 1 built its runtime");
        rt.run(|ctx| ctx.finish(|c| c.at_async_cmd(PlaceId(1), HandlerId(2001), vec![7])));
        rt.broadcast_shutdown();
    });
    let hits = Arc::new(AtomicU64::new(0));
    let h = hits.clone();
    let cfg = rank(1).handler(HandlerId(2001), move |_, args| {
        h.fetch_add(u64::from(args[0]), Ordering::Relaxed);
    });
    let rt = Runtime::with_transport(cfg, t1);
    up.send(()).unwrap();
    // Rank 1's own set-up: nothing past it runs until the command has.
    let deadline = Instant::now() + Duration::from_secs(30);
    while hits.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "rank 0's command never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
    rt.serve();
    rank0.join().expect("rank 0's finish completed");
    assert_eq!(hits.load(Ordering::Relaxed), 7);
}

/// The runtime wires the metrics of whatever transport it runs over: the
/// lanes inside a TCP transport count like the in-process transport's.
#[test]
fn tcp_transport_reports_its_mailbox_lanes() {
    let t = TcpTransport::self_loop(4).expect("loopback transport");
    let rt = Runtime::with_transport(cfg_bytes(4), t);
    mixed_workload(&rt);
    let lanes = rt
        .obs()
        .expect("obs on by default")
        .metrics
        .counter(obs::names::MAILBOX_LANES_ALLOCATED)
        .value();
    assert!(lanes > 0, "mailbox.lanes_allocated read {lanes} over TCP");
}
