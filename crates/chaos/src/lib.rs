//! Chaos harness: run real kernels under seeded fault plans and check the
//! graceful-degradation contract.
//!
//! Each **cell** is one (workload, fault kind, seed, places) combination.
//! The harness runs the cell's workload twice — once fault-free (the
//! baseline) and once under the cell's [`x10rt::FaultPlan`] — inside a hard
//! wall-clock timeout, and classifies the outcome:
//!
//! - **Recoverable faults** (`delay`, `dup`) never lose a message, so the
//!   faulted run must produce a result *identical* to the baseline.
//! - **Lossy faults** (`drop`, `trunc`, `kill`) may destroy counted traffic;
//!   the run must then surface a typed [`apgas::ApgasError`] via the finish
//!   liveness watchdog. If, by luck of the seed, nothing load-bearing was
//!   lost, an identical result is also accepted — and a *short* result is
//!   accepted only when the transport's loss tally proves uncounted
//!   steal-handshake traffic was destroyed (see below).
//! - **Recovery cells** ([`Workload::UtsResilient`] under `kill`) run under
//!   `FinishKind::Resilient`: a typed error is *not* good enough — the
//!   resilient finish must adopt the dead place's orphans, re-execute the
//!   lost commands, and still produce the exact baseline node count.
//! - Anything else — a silently wrong result, an untyped panic, or a hang
//!   past the hard timeout — fails the cell, and the harness prints a
//!   one-line command that reproduces it.
//!
//! # Loss accounting and the uncounted steal handshake
//!
//! The finish protocols account for every counted message, so losing one
//! *always* shows up as a protocol stall, which the watchdog converts into a
//! typed error — counted loss is detectable by construction. GLB's
//! random-steal handshake, however, is deliberately **uncounted** (an X10
//! `@Uncounted async` pair, invisible to the root finish): a response
//! carrying loot that vanishes mid-flight shrinks the result with no stall
//! to detect. Early revisions of this harness therefore refused to fault the
//! `Steal` class at all and ran lossy cells with aggregation disabled (so
//! class targeting stayed exact) — leaving the steal handshake untested
//! under loss. Both restrictions are gone:
//! [`x10rt::FaultCounts::lost_by_class`] tallies every destroyed message
//! under its *inner* class even when it rides inside a `Batch` envelope, so
//! lossy cells now fault `Task`, `FinishCtl`, `Steal` **and** `Batch`
//! envelopes with aggregation on, and the oracle accepts a short result only
//! when the tally proves uncounted steal traffic was destroyed
//! ([`CellOutcome::AccountedLoss`]). A wrong result with a zero steal-loss
//! tally is still a failing [`CellFailure::Mismatch`] — the loss channel is
//! no longer silent, it is counted.
//!
//! # Relation to the deterministic simulation tier
//!
//! Chaos runs the *threaded* runtime: the OS scheduler picks the
//! interleavings, so each cell samples fault-space under realistic timing.
//! The `sim` crate is the complementary tier — the same runtime
//! single-stepped under a seeded schedule controller, with the same
//! [`x10rt::FaultTransport`] composable underneath — so
//! interleaving-dependent bugs are found by *search* and replayed
//! bit-for-bit from a one-line repro. TESTING.md (repo root) maps which
//! tier catches what and the seed-corpus conventions shared by both.

use apgas::{ApgasError, ClassFaults, Config, FaultPlan, MsgClass, PlaceId, Runtime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use x10rt::FaultCounts;

mod workloads;
pub use workloads::{
    ra_msgs_checksum, uts_nodes, uts_resilient_handlers, uts_resilient_nodes, UtsReplies,
    H_UTS_REPLY, H_UTS_SUBTREE, RA_LOG2_LOCAL, UTS_DEPTH,
};

/// Silence the default panic hook for panics the harness *expects* under
/// fault injection — typed dead-place errors crossing an unwind boundary
/// and the shutdown-abort that frees workers stranded by a killed place —
/// so chaos logs show one verdict line per cell instead of backtraces.
/// Unexpected panics still print normally.
pub fn install_quiet_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let p = info.payload();
        let s = p
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| p.downcast_ref::<String>().map(|s| s.as_str()));
        let expected = p.downcast_ref::<ApgasError>().is_some()
            || s.is_some_and(|s| {
                s.contains(apgas::error::DEAD_PLACE_MARKER) || s.contains("runtime shutting down")
            });
        if !expected {
            default(info);
        }
    }));
}

/// Fault kinds of the chaos matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Drop counted envelopes on the wire (lossy).
    Drop,
    /// Delay/reorder envelopes across pairs, preserving per-pair FIFO
    /// (lossless).
    Delay,
    /// Duplicate envelopes; dups are charged on the wire but filtered at
    /// the receive edge (lossless).
    Dup,
    /// Truncate counted envelopes — they arrive but carry nothing (lossy).
    Trunc,
    /// Kill one place mid-run at a scripted logical step (lossy).
    Kill,
}

impl FaultKind {
    /// Every kind, in matrix order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Dup,
        FaultKind::Trunc,
        FaultKind::Kill,
    ];

    /// Command-line / display name.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Dup => "dup",
            FaultKind::Trunc => "trunc",
            FaultKind::Kill => "place-kill",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "drop" => Some(FaultKind::Drop),
            "delay" => Some(FaultKind::Delay),
            "dup" => Some(FaultKind::Dup),
            "trunc" => Some(FaultKind::Trunc),
            "place-kill" | "kill" => Some(FaultKind::Kill),
            _ => None,
        }
    }

    /// Can this kind destroy messages? Lossy kinds may end in a typed
    /// error; lossless kinds must reproduce the baseline exactly.
    pub fn lossy(self) -> bool {
        matches!(self, FaultKind::Drop | FaultKind::Trunc | FaultKind::Kill)
    }
}

/// Workloads the harness can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distributed UTS under the lifeline balancer (GLB + FINISH_DENSE).
    Uts,
    /// Message-path RandomAccess: every remote update is a tiny counted
    /// spawn under one Default finish (the aggregation benchmark's kernel).
    RaMsgs,
    /// UTS as re-executable subtree commands under `FinishKind::Resilient`
    /// — the recovery cell family: a killed place must not cost the exact
    /// node count (see [`uts_resilient_nodes`]).
    UtsResilient,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Uts, Workload::RaMsgs, Workload::UtsResilient];

    /// Command-line / display name.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Uts => "uts",
            Workload::RaMsgs => "ra-msgs",
            Workload::UtsResilient => "uts-res",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "uts" => Some(Workload::Uts),
            "ra-msgs" | "ra" => Some(Workload::RaMsgs),
            "uts-res" | "uts-resilient" => Some(Workload::UtsResilient),
            _ => None,
        }
    }
}

/// One cell of the chaos matrix.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// Which kernel to run.
    pub workload: Workload,
    /// Which fault kind to inject.
    pub fault: FaultKind,
    /// Seed for the deterministic fault decisions (and the scripted kill).
    pub seed: u64,
    /// Place count (RandomAccess needs a power of two).
    pub places: usize,
    /// Run over [`x10rt::TcpTransport`] in self-loop mode with
    /// `CodecMode::Bytes`, so every envelope is serialized per PROTOCOL.md
    /// and crosses a real loopback socket before delivery. Faults still
    /// inject at the modeled layer (the fault decorator wraps the TCP
    /// transport), so the same seeds hit the same envelopes on both
    /// back-ends.
    pub tcp: bool,
}

impl CellSpec {
    /// Cells that must *recover*, not merely degrade: the resilient-UTS
    /// workload under a place kill has to adopt the orphans, re-execute the
    /// lost commands, and match the baseline exactly — a typed error here
    /// means the recovery path failed, not that the run degraded cleanly.
    pub fn must_recover(&self) -> bool {
        self.workload == Workload::UtsResilient && self.fault == FaultKind::Kill
    }

    /// The one-line command reproducing this cell.
    pub fn repro_line(&self) -> String {
        let mut line = format!(
            "cargo run --release -p chaos -- --workload {} --fault {} --seed {} --places {}",
            self.workload.label(),
            self.fault.label(),
            self.seed,
            self.places
        );
        if self.tcp {
            line.push_str(" --transport tcp");
        }
        line
    }
}

/// How a cell ended, when it ended acceptably.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellOutcome {
    /// The faulted run produced the baseline result exactly.
    Identical,
    /// The faulted run surfaced a typed error (lossy kinds only, and never
    /// for a [`CellSpec::must_recover`] cell).
    TypedError(String),
    /// The faulted run completed *short* of the baseline, and the
    /// transport's per-class loss tally proves destroyed uncounted
    /// steal-handshake traffic explains it (lossy kinds only). Not silent
    /// loss: the channel is counted — see the module docs.
    AccountedLoss {
        /// Faulted result (strictly below the baseline).
        got: u64,
        /// Destroyed `Steal`-class messages, batched or not.
        lost_steal: u64,
    },
}

/// How a cell failed the degradation contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellFailure {
    /// The run completed with a wrong result and no error — silent loss.
    Mismatch {
        /// Baseline (fault-free) result.
        want: u64,
        /// Faulted result.
        got: u64,
    },
    /// A lossless fault kind surfaced an error it should never produce.
    UnexpectedError(String),
    /// The run panicked with something other than a typed error.
    UntypedPanic(String),
    /// The run exceeded the hard wall-clock timeout.
    Hang,
}

/// A cell's verdict plus its wall-clock duration.
pub struct CellReport {
    /// The cell that ran.
    pub spec: CellSpec,
    /// Pass/fail classification.
    pub result: Result<CellOutcome, CellFailure>,
    /// Wall-clock time of the faulted run.
    pub elapsed: Duration,
    /// The fault decorator's tallies, smuggled out of the cell thread when
    /// the run finished (in any way) before the hard timeout. `None` on a
    /// hang. Lossless kinds must show `lost_total() == 0` here.
    pub fault_counts: Option<FaultCounts>,
}

/// The fault plan of one cell. Probabilities are tuned so every seed
/// injects a meaningful number of faults at the harness's workload sizes.
pub fn plan_for(spec: &CellSpec) -> FaultPlan {
    let seed = spec.seed;
    match spec.fault {
        // Lossy kinds target the counted classes, the uncounted steal
        // handshake, and the batch envelopes all of them may ride in —
        // losses are tallied per inner class, see the module docs.
        FaultKind::Drop => FaultPlan::new(seed)
            .class(MsgClass::Task, ClassFaults::dropping(0.01))
            .class(MsgClass::FinishCtl, ClassFaults::dropping(0.01))
            .class(MsgClass::Steal, ClassFaults::dropping(0.01))
            .class(MsgClass::Batch, ClassFaults::dropping(0.01)),
        FaultKind::Trunc => FaultPlan::new(seed)
            .class(MsgClass::Task, ClassFaults::truncating(0.01))
            .class(MsgClass::FinishCtl, ClassFaults::truncating(0.01))
            .class(MsgClass::Steal, ClassFaults::truncating(0.01))
            .class(MsgClass::Batch, ClassFaults::truncating(0.01)),
        // Lossless kinds hammer everything, batches included.
        FaultKind::Delay => FaultPlan::new(seed)
            .all_classes(ClassFaults::delaying(0.25))
            .delay_steps(1, 48),
        FaultKind::Dup => FaultPlan::new(seed).all_classes(ClassFaults::duplicating(0.25)),
        FaultKind::Kill => {
            // Never place 0 (the main activity lives there); vary victim
            // and step with the seed so the matrix covers different phases
            // of the run. The resilient-UTS workload finishes in a few
            // dozen logical steps where the GLB workloads tick thousands,
            // so its kill must land much earlier to strike mid-protocol.
            let victim = 1 + (seed % (spec.places as u64 - 1)) as u32;
            let step = match spec.workload {
                Workload::UtsResilient => 3 + (seed.wrapping_mul(7) % 40),
                _ => 1_000 + (seed.wrapping_mul(37) % 2_000),
            };
            FaultPlan::new(seed).kill_place(PlaceId(victim), step)
        }
    }
}

/// Runtime configuration of one faulted run. `traced` additionally turns on
/// event tracing and causal cross-place tracing, so a failing cell can be
/// diagnosed from its trace artifacts instead of re-run under a debugger.
fn faulted_config(spec: &CellSpec, traced: bool) -> Config {
    Config::new(spec.places)
        .places_per_host(4)
        .fault_plan(plan_for(spec))
        .finish_watchdog(Duration::from_secs(2))
        .trace_enable(traced)
        .causal_enable(traced)
        // Aggregation stays ON for every kind, lossy ones included: batch
        // losses are tallied per inner class (see module docs).
        // TCP cells serialize every protocol message (closures cannot cross
        // a socket); local cells keep the inline fast path.
        .codec(if spec.tcp {
            apgas::CodecMode::Bytes
        } else {
            apgas::CodecMode::Inline
        })
}

/// Build the runtime for one faulted cell on the back-end the spec selects,
/// with the resilient-UTS handlers installed, and the ledger they fill.
/// The fault decorator always wraps the *outermost* transport, so drops and
/// duplicates hit the same modeled envelopes whether or not the bytes then
/// cross a socket.
fn cell_runtime(spec: &CellSpec, traced: bool) -> (Runtime, UtsReplies) {
    let (cfg, replies) = uts_resilient_handlers(faulted_config(spec, traced));
    let rt = if spec.tcp {
        let t = x10rt::TcpTransport::self_loop(spec.places).expect("tcp self-loop transport");
        Runtime::with_transport(cfg, t)
    } else {
        Runtime::new(cfg)
    };
    (rt, replies)
}

/// GLB knobs for chaos runs: small chunks (frequent probes ⇒ frequent
/// logical-clock ticks), and a steal-handshake timeout only when the
/// transport may lose the handshake.
fn glb_config(fault: Option<FaultKind>) -> glb::GlbConfig {
    glb::GlbConfig {
        chunk: 64,
        steal_timeout: match fault {
            Some(f) if f.lossy() => Some(Duration::from_millis(300)),
            _ => None,
        },
        ..glb::GlbConfig::default()
    }
}

/// Run `w` once on `rt`; `replies` is the ledger of the runtime's
/// resilient-UTS handlers.
fn run_workload(
    rt: &Runtime,
    replies: &UtsReplies,
    w: Workload,
    fault: Option<FaultKind>,
) -> Result<u64, ApgasError> {
    let glb_cfg = glb_config(fault);
    match w {
        Workload::Uts => rt.run_checked(move |ctx| uts_nodes(ctx, glb_cfg)),
        Workload::RaMsgs => rt.run_checked(ra_msgs_checksum),
        Workload::UtsResilient => {
            let replies = replies.clone();
            rt.run_checked(move |ctx| uts_resilient_nodes(ctx, &replies))
        }
    }
}

/// Fault-free reference result for `workload` at `places` places.
pub fn baseline(workload: Workload, places: usize) -> u64 {
    let (cfg, replies) = uts_resilient_handlers(Config::new(places).places_per_host(4));
    let rt = Runtime::new(cfg);
    run_workload(&rt, &replies, workload, None).expect("fault-free baseline cannot fail")
}

/// Run one cell against a precomputed baseline, with a hard wall-clock
/// timeout enforced from outside the runtime (a watchdog for the watchdog:
/// even a runtime bug that defeats the finish watchdog cannot hang the
/// harness — the cell is reported as [`CellFailure::Hang`] and the stuck
/// thread is abandoned).
pub fn run_cell_with_baseline(spec: CellSpec, want: u64, hard_timeout: Duration) -> CellReport {
    run_cell_traced(spec, want, hard_timeout, None)
}

/// [`run_cell_with_baseline`] with post-mortem artifacts: when `trace_dir`
/// is set, the faulted run carries event tracing and causal tracing, and a
/// *failing* cell writes its chrome trace (flow arrows included), its
/// critical-path report, and its status report into that directory. A cell
/// ending in a typed error — the expected lossy degradation — writes the
/// same artifacts: its status report preserves the finish watchdog's
/// diagnosis (which finish kind stalled, at which place). The observability
/// and status handles are smuggled out of the cell thread right after
/// runtime construction, so the artifacts can be cut even when the cell
/// **hangs** — the stuck runtime's rings are snapshotted from outside.
pub fn run_cell_traced(
    spec: CellSpec,
    want: u64,
    hard_timeout: Duration,
    trace_dir: Option<&std::path::Path>,
) -> CellReport {
    let start = Instant::now();
    let traced = trace_dir.is_some();
    let (tx, rx) = mpsc::sync_channel(1);
    let (obs_tx, obs_rx) = mpsc::sync_channel::<(std::sync::Arc<obs::Obs>, apgas::StatusHandle)>(1);
    std::thread::Builder::new()
        .name(format!("chaos-{}-{}", spec.fault.label(), spec.seed))
        .spawn(move || {
            let (rt, replies) = cell_runtime(&spec, traced);
            if let Some(o) = rt.obs() {
                let _ = obs_tx.send((o.clone(), rt.status_handle()));
            }
            let out = catch_unwind(AssertUnwindSafe(|| {
                run_workload(&rt, &replies, spec.workload, Some(spec.fault))
            }));
            // Deliver the verdict (and the loss tallies the oracle needs)
            // before dropping the runtime: teardown is designed not to
            // hang, but the report must not depend on that.
            let verdict = match out {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(e)) => Err(Some(e.to_string())),
                Err(p) => Err(ApgasError::from_panic(&*p).map(|e| e.to_string())),
            };
            let _ = tx.send((verdict, rt.fault_counts()));
            drop(rt);
        })
        .expect("spawn chaos cell thread");
    let (verdict, fault_counts) = match rx.recv_timeout(hard_timeout) {
        Err(_) => (Err(CellFailure::Hang), None),
        Ok((v, counts)) => (classify(&spec, v, want, counts.as_ref()), counts),
    };
    let result = verdict;
    // Failures and typed errors both leave artifacts; only a run identical
    // to the baseline has nothing to diagnose.
    if !matches!(result, Ok(CellOutcome::Identical)) {
        // Wait briefly for the runtime-construction handshake: a cell can
        // fail (e.g. a zero timeout) before the thread has sent its handle.
        if let (Some(dir), Ok((o, status))) =
            (trace_dir, obs_rx.recv_timeout(Duration::from_secs(2)))
        {
            write_cell_artifacts(dir, &spec, &o, &status);
        }
    }
    CellReport {
        spec,
        result,
        elapsed: start.elapsed(),
        fault_counts,
    }
}

/// The degradation oracle: classify one finished (non-hung) run. `counts`
/// is the fault decorator's tally, used to tell an *accounted* loss of
/// uncounted steal traffic from a silent mismatch.
fn classify(
    spec: &CellSpec,
    verdict: Result<u64, Option<String>>,
    want: u64,
    counts: Option<&FaultCounts>,
) -> Result<CellOutcome, CellFailure> {
    // A lossless kind must never destroy a message: a non-zero tally is a
    // fault-layer bug even when the result happens to come out right.
    if !spec.fault.lossy() {
        if let Some(c) = counts {
            if c.lost_total() > 0 {
                return Err(CellFailure::UnexpectedError(format!(
                    "lossless fault kind destroyed {} messages",
                    c.lost_total()
                )));
            }
        }
    }
    match verdict {
        Ok(got) if got == want => Ok(CellOutcome::Identical),
        // A completed-but-short run under a lossy kind is acceptable only
        // when destroyed uncounted steal traffic explains it: counted loss
        // always stalls the protocols instead of completing (watchdog ⇒
        // typed error), so the tally is the only honest escape hatch.
        Ok(got) => match counts {
            Some(c) if spec.fault.lossy() && got < want && c.lost(MsgClass::Steal) > 0 => {
                Ok(CellOutcome::AccountedLoss {
                    got,
                    lost_steal: c.lost(MsgClass::Steal),
                })
            }
            _ => Err(CellFailure::Mismatch { want, got }),
        },
        Err(Some(typed)) if spec.fault.lossy() && !spec.must_recover() => {
            Ok(CellOutcome::TypedError(typed))
        }
        Err(Some(typed)) => Err(CellFailure::UnexpectedError(typed)),
        Err(None) => Err(CellFailure::UntypedPanic(
            "non-typed panic in faulted run".into(),
        )),
    }
}

/// Write a diagnosable cell's chrome trace, critical-path report, and
/// status report. Best effort: artifact IO problems are reported to stderr,
/// never escalated — the cell's verdict is already decided.
fn write_cell_artifacts(
    dir: &std::path::Path,
    spec: &CellSpec,
    o: &obs::Obs,
    status: &apgas::StatusHandle,
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("chaos: cannot create trace dir {}: {e}", dir.display());
        return;
    }
    let stem = format!(
        "chaos-{}-{}-seed{}",
        spec.workload.label(),
        spec.fault.label(),
        spec.seed
    );
    // Prefer the report rendered at the instant the watchdog tripped (it
    // names the stalled finish kind and place); fall back to a live one.
    let status_body = match status.last_watchdog_report() {
        Some(r) => format!("# status report at watchdog trip\n{r}"),
        None => format!(
            "# live status report (no watchdog trip recorded)\n{}",
            status.text()
        ),
    };
    let artifacts = [
        (format!("{stem}.trace.json"), o.chrome_trace_json()),
        (format!("{stem}.critical_path.json"), o.critical_path_json()),
        (format!("{stem}.critical_path.txt"), o.critical_path_text()),
        (format!("{stem}.status.txt"), status_body),
    ];
    for (name, body) in artifacts {
        let path = dir.join(&name);
        match std::fs::write(&path, body) {
            Ok(()) => println!("chaos: wrote {}", path.display()),
            Err(e) => eprintln!("chaos: cannot write {}: {e}", path.display()),
        }
    }
}

/// [`run_cell_with_baseline`] with the baseline computed on the spot.
pub fn run_cell(spec: CellSpec, hard_timeout: Duration) -> CellReport {
    let want = baseline(spec.workload, spec.places);
    run_cell_with_baseline(spec, want, hard_timeout)
}

/// Shared baseline cache for matrix runs (one fault-free run per
/// (workload, places), not per cell).
pub struct BaselineCache {
    entries: Vec<((Workload, usize), u64)>,
}

impl BaselineCache {
    /// Empty cache.
    pub fn new() -> Self {
        BaselineCache {
            entries: Vec::new(),
        }
    }

    /// The baseline for `(workload, places)`, computing it on first use.
    pub fn get(&mut self, workload: Workload, places: usize) -> u64 {
        if let Some((_, v)) = self
            .entries
            .iter()
            .find(|((w, p), _)| *w == workload && *p == places)
        {
            return *v;
        }
        let v = baseline(workload, places);
        self.entries.push(((workload, places), v));
        v
    }
}

impl Default for BaselineCache {
    fn default() -> Self {
        Self::new()
    }
}
