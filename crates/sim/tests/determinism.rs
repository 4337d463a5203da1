//! Record/replay determinism: a simulated run is a pure function of
//! `(workload seed, schedule seed)`, and replaying its recorded choice log
//! reproduces the causal trace hash bit-for-bit — including when a seeded
//! `FaultTransport` sits between the runtime and the simulated network.

use apgas::{ClassFaults, Config, FaultPlan, FinishKind, PlaceId};
use sim::controller::{run_sim, RunVerdict, SimOpts};
use sim::fuzz::{run_case, run_case_replay, CaseSpec};
use sim::schedule::Chooser;
use sim::transport::SimTransport;
use sim::workload::{run_tree, TreeSpec};
use std::sync::Arc;

#[test]
fn same_seeds_same_trace_hash() {
    for kind in [FinishKind::Default, FinishKind::Dense, FinishKind::Here] {
        let spec = CaseSpec::new(kind, 4, 0x5EED, 0xBA70);
        let opts = SimOpts::default();
        let a = run_case(&spec, &opts);
        let b = run_case(&spec, &opts);
        assert_eq!(a.failure, None, "{}: {:?}", kind.label(), a.failure);
        assert_eq!(
            a.report.trace_hash,
            b.report.trace_hash,
            "{}: two runs of the same seeds diverged",
            kind.label()
        );
        assert_eq!(a.report.choices, b.report.choices);
    }
}

/// One deterministic run of a seeded tree over `places` multiplexed onto
/// `executors` executor threads; returns the schedule fingerprint.
fn mplex_run(
    places: usize,
    executors: Option<usize>,
    wseed: u64,
    sseed: u64,
) -> (RunVerdict, u64, u64, Option<u64>) {
    let tree = TreeSpec::generate(wseed, places, 48).legalize(FinishKind::Default);
    // Individual envelopes, as in the fuzz corpus: batching would fuse
    // deliveries and coarsen the interleavings the schedule can choose.
    let mut cfg = Config::new(places).places_per_host(8).batch_disable(true);
    if let Some(n) = executors {
        cfg = cfg.executor_threads(n);
    }
    let sim = Arc::new(SimTransport::new(places));
    let mut chooser = Chooser::seeded(sseed);
    let run = run_sim(cfg, &SimOpts::default(), &mut chooser, sim, move |ctx| {
        run_tree(ctx, FinishKind::Default, &tree)
    });
    let result = match run.result {
        Some(Ok(v)) => Some(v),
        _ => None,
    };
    (
        run.report.verdict,
        run.report.trace_hash,
        run.report.deliveries,
        result,
    )
}

#[test]
fn mplex_256_places_same_seed_same_trace_hash() {
    // The M:N regression: 256 places multiplexed onto two executor threads
    // must stay a pure function of the seeds — `Step(place)` grants a
    // quantum to a stackful context instead of an OS thread, and that swap
    // must not leak timing into a single scheduling decision.
    let model = TreeSpec::generate(0xD57, 256, 48)
        .legalize(FinishKind::Default)
        .model();
    let a = mplex_run(256, Some(2), 0xD57, 0x256);
    let b = mplex_run(256, Some(2), 0xD57, 0x256);
    assert_eq!(a.0, RunVerdict::Completed);
    assert_eq!(a.3, Some(model.sum), "multiplexing must not change results");
    assert_eq!(a, b, "two multiplexed runs of the same seeds diverged");
}

#[test]
fn mplex_and_threaded_agree_on_the_causal_trace() {
    // Same seeds, same chooser — the only difference is whether each place
    // is an OS thread or a context on the executor pool. The controller's
    // enabled-set enumeration and the delivery stream must be identical, so
    // the causal trace hashes must match bit-for-bit.
    let threaded = mplex_run(64, None, 0xA11, 0x64);
    let mplexed = mplex_run(64, Some(2), 0xA11, 0x64);
    assert_eq!(threaded.0, RunVerdict::Completed);
    assert_eq!(
        threaded, mplexed,
        "executor multiplexing changed the simulated schedule"
    );
}

#[test]
fn replaying_the_choice_log_reproduces_the_run() {
    let spec = CaseSpec::new(FinishKind::Dense, 4, 7, 3);
    let opts = SimOpts::default();
    let rec = run_case(&spec, &opts);
    assert_eq!(rec.failure, None, "{:?}", rec.failure);
    let rep = run_case_replay(&spec, &rec.report.choices, &opts, false);
    assert_eq!(rep.failure, None, "{:?}", rep.failure);
    assert_eq!(
        rec.report.trace_hash, rep.report.trace_hash,
        "replay must reproduce the recorded causal trace exactly"
    );
    assert_eq!(rec.report.deliveries, rep.report.deliveries);
    assert_eq!(rec.class_messages, rep.class_messages);
}

/// Run one workload under a fault plan over the sim transport and return
/// (verdict, trace hash, result).
fn faulted_run(plan: FaultPlan, sseed: u64) -> (RunVerdict, u64, Option<u64>) {
    let tree = TreeSpec::generate(11, 4, 12).legalize(FinishKind::Default);
    let cfg = Config::new(4)
        .places_per_host(2)
        .batch_disable(true)
        .fault_plan(plan);
    let sim = Arc::new(SimTransport::new(4));
    let mut chooser = Chooser::seeded(sseed);
    let run = run_sim(cfg, &SimOpts::default(), &mut chooser, sim, move |ctx| {
        run_tree(ctx, FinishKind::Default, &tree)
    });
    let result = match run.result {
        Some(Ok(v)) => Some(v),
        _ => None,
    };
    (run.report.verdict, run.report.trace_hash, result)
}

#[test]
fn composes_with_delay_and_duplicate_faults() {
    // Delays and duplicates preserve delivery semantics, so the run must
    // still complete with the model's sum — and stay deterministic.
    let plan = || {
        FaultPlan::new(0xFA17)
            .all_classes(ClassFaults {
                delay: 0.4,
                duplicate: 0.2,
                ..Default::default()
            })
            .delay_steps(1, 8)
    };
    let model = TreeSpec::generate(11, 4, 12)
        .legalize(FinishKind::Default)
        .model();
    let (va, ha, ra) = faulted_run(plan(), 21);
    let (vb, hb, rb) = faulted_run(plan(), 21);
    assert_eq!(va, RunVerdict::Completed);
    assert_eq!(ra, Some(model.sum), "faults must not change the result");
    assert_eq!((va, ha, ra), (vb, hb, rb), "faulted runs must replay");
}

#[test]
fn codec_mode_is_invisible_to_the_simulated_schedule() {
    // `CodecMode::Bytes` serializes every protocol message at the send site
    // (PROTOCOL.md) instead of shipping typed inline payloads — but it must
    // produce the same envelope stream: same modeled bytes, same message
    // count, same scheduling decisions. Replaying the same seeds under both
    // codecs has to yield bit-identical causal traces and results, for every
    // finish protocol, with the runtime's default coalescing on.
    let run = |kind: FinishKind, wseed: u64, codec: apgas::CodecMode| {
        let tree = TreeSpec::generate(wseed, 4, 24).legalize(kind);
        let cfg = Config::new(4).places_per_host(2).codec(codec);
        let sim = Arc::new(SimTransport::new(4));
        let mut chooser = Chooser::seeded(17);
        let run = run_sim(cfg, &SimOpts::default(), &mut chooser, sim, move |ctx| {
            run_tree(ctx, kind, &tree)
        });
        (
            run.report.verdict,
            run.report.trace_hash,
            run.report.deliveries,
            run.report.choices.clone(),
            match run.result {
                Some(Ok(v)) => Some(v),
                _ => None,
            },
        )
    };
    for kind in sim::fuzz::ALL_KINDS {
        for wseed in [3, 5] {
            let inline = run(kind, wseed, apgas::CodecMode::Inline);
            let bytes = run(kind, wseed, apgas::CodecMode::Bytes);
            let label = kind.label();
            assert_eq!(inline.0, RunVerdict::Completed, "{label} wseed {wseed}");
            if kind != FinishKind::Local {
                assert!(inline.2 > 0, "{label} wseed {wseed}: no message delivered");
            }
            assert_eq!(
                inline, bytes,
                "{label} wseed {wseed}: serializing changed the simulated schedule"
            );
        }
    }
}

#[test]
fn scripted_kill_fails_gracefully_and_deterministically() {
    chaos::install_quiet_panic_hook();
    // Killing a place mid-run generally wedges termination detection; the
    // controller must convert that into a verdict, not a hang, and two
    // identical runs must agree on everything.
    let plan = || FaultPlan::new(1).kill_place(PlaceId(2), 25);
    let (va, ha, ra) = faulted_run(plan(), 4);
    let (vb, hb, rb) = faulted_run(plan(), 4);
    assert_eq!((va, ha, ra), (vb, hb, rb), "kill runs must replay");
    assert_ne!(va, RunVerdict::Budget, "kill must not burn the budget");
}
