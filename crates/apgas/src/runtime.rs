//! Runtime construction, the main activity, and shutdown.

use crate::config::Config;
use crate::ctx::Ctx;
use crate::error::ApgasError;
use crate::place_state::{Activity, PlaceState};
use crate::step::StepGate;
use crate::task::Task;
use crate::worker::Worker;
use obs::Obs;
use parking_lot::{Mutex, RwLock};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use x10rt::codec::{self, HandlerId, WireMsg};
use x10rt::{
    CongruentAllocator, Envelope, FaultCounts, FaultTransport, IntMap, LocalTransport, MsgClass,
    NetStats, PlaceId, SegmentTable, Topology, Transport,
};

/// A registered application command handler: runs with the receiving
/// activity's [`Ctx`] and the serialized argument bytes the sender passed to
/// [`Ctx::at_async_cmd`].
pub type AppHandler = Arc<dyn Fn(&Ctx, &[u8]) + Send + Sync>;

/// Shared state of one runtime instance (places, transport, allocators).
pub struct Global {
    /// Configuration the runtime was built with.
    pub cfg: Config,
    /// Place→host topology.
    pub topo: Topology,
    /// The transport connecting all places. The bare [`LocalTransport`]
    /// normally; a [`FaultTransport`] decorating it when the configuration
    /// carries a fault plan.
    pub transport: Arc<dyn Transport>,
    /// The fault-injection decorator, when one is installed (same object as
    /// [`Global::transport`], kept concretely typed for fault accounting).
    pub fault: Option<Arc<FaultTransport>>,
    /// Per-place state, indexed by place id.
    pub places: Vec<Arc<PlaceState>>,
    /// Registered-segment table (RDMA).
    pub seg_table: Arc<SegmentTable>,
    /// Congruent memory allocator.
    pub congruent: CongruentAllocator,
    /// Set to stop all worker loops.
    pub shutdown: AtomicBool,
    /// Runtime-unique id source (teams, clocks, global refs).
    pub ids: AtomicU64,
    /// Panics raised by uncounted activities (no finish to deliver them to).
    pub uncounted_panics: Mutex<Vec<String>>,
    /// Observability state (metrics + tracer); `None` with
    /// `Config::obs_disable` — every hook then reduces to this `None` check.
    pub obs: Option<Arc<Obs>>,
    /// Deterministic stepping gate; `Some` only with
    /// [`Config::deterministic`]. Workers then yield to it at the top of
    /// every scheduling quantum (see [`crate::step`]); the threaded path
    /// pays one `Option` check.
    pub step_gate: Option<Arc<StepGate>>,
    /// Application command handlers, keyed by handler id (ids ≥
    /// [`HandlerId::FIRST_APP`]; see `PROTOCOL.md` §3). Resolved at command
    /// *run* time, so registration order relative to spawns is free.
    pub(crate) handlers: RwLock<IntMap<u32, AppHandler>>,
    /// Cross-process observability-plane state: `H_OBS` shipments and
    /// status replies accepted from other ranks, the last watchdog report,
    /// and the serve-shutdown shipping guard (see [`crate::status`]).
    pub(crate) obs_plane: crate::status::ObsPlane,
}

impl Global {
    /// This process's rank tag in a multi-process launch — its first hosted
    /// place (0 for single-process runtimes). Shipped snapshots and status
    /// replies are attributed to it.
    pub(crate) fn rank(&self) -> u32 {
        self.cfg.host_places.map(|(s, _)| s).unwrap_or(0)
    }

    /// Capture this process's observability state as a rank-tagged
    /// shipment (`None` with `Config::obs_disable`).
    pub(crate) fn capture_rank_obs(&self) -> Option<obs::RankObs> {
        self.obs
            .as_ref()
            .map(|o| obs::distrib::capture(o, self.rank()))
    }

    /// Fold a remote rank's shipment into the pending set, stamped with the
    /// local causal clock (the skew anchor `ClusterObs::accept` needs).
    pub(crate) fn accept_shipment(&self, snap: obs::RankObs) {
        let now = self.obs.as_ref().map_or(0, |o| o.causal.now_ns());
        self.obs_plane.shipments.lock().push((snap, now));
    }

    /// Record a status-query reply from `rank`.
    pub(crate) fn accept_status_reply(&self, rank: u32, text: String, json: String) {
        self.obs_plane
            .status_replies
            .lock()
            .push((rank, text, json));
    }

    /// Residual finish-protocol state across all places (see
    /// [`FinishResidue`]).
    pub(crate) fn residue(&self) -> FinishResidue {
        let mut r = FinishResidue {
            roots: 0,
            proxies: 0,
            dense_pending: 0,
        };
        for p in &self.places {
            r.roots += p.roots.lock().len();
            r.proxies += p.proxy_count.load(Ordering::Relaxed);
            if p.dense_agg.lock().has_pending() {
                r.dense_pending += 1;
            }
        }
        r
    }

    /// [`Global::residue`] restricted to places the transport still reports
    /// alive. A killed place's tables are frozen mid-protocol — proxies and
    /// dense buffers stranded there are expected debris, not a quiescence
    /// violation; the kill-schedule oracles use this variant.
    pub(crate) fn residue_alive(&self) -> FinishResidue {
        let dead: Vec<x10rt::PlaceId> = self.transport.dead_places();
        let mut r = FinishResidue {
            roots: 0,
            proxies: 0,
            dense_pending: 0,
        };
        for p in &self.places {
            if dead.contains(&p.id) {
                continue;
            }
            r.roots += p.roots.lock().len();
            r.proxies += p.proxy_count.load(Ordering::Relaxed);
            if p.dense_agg.lock().has_pending() {
                r.dense_pending += 1;
            }
        }
        r
    }
}

/// Residual finish-protocol state left at the places, summed runtime-wide —
/// a quiescence oracle: after every `finish` has released and the runtime
/// is idle, all three counts must be zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FinishResidue {
    /// Finish roots still registered at their home places.
    pub roots: usize,
    /// Finish proxies still holding state for remotely-homed finishes.
    pub proxies: usize,
    /// Places whose dense-route delta aggregator still buffers undelivered
    /// deltas.
    pub dense_pending: usize,
}

impl FinishResidue {
    /// True when no residual protocol state exists anywhere.
    pub fn is_clean(&self) -> bool {
        self.roots == 0 && self.proxies == 0 && self.dense_pending == 0
    }
}

/// An APGAS runtime: `cfg.places` places, each with its own scheduler
/// thread(s), connected by an in-process X10RT transport.
///
/// The runtime is reusable: [`Runtime::run`] can be called repeatedly (the
/// benchmark harness runs many rounds on one runtime). Dropping the runtime
/// stops and joins all workers.
pub struct Runtime {
    g: Arc<Global>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Background metrics sampler, when `Config::sample_interval_ms` asked
    /// for one (stopped and joined on drop).
    sampler: Mutex<Option<obs::Sampler>>,
}

impl Runtime {
    /// Build a runtime and start its worker threads.
    pub fn new(cfg: Config) -> Self {
        Self::build(cfg, None)
    }

    /// Build a runtime over a caller-supplied transport instead of the
    /// default in-process [`LocalTransport`] — the seam the deterministic
    /// simulation harness (`crates/sim`) plugs its `SimTransport` into. A
    /// configured fault plan still wraps the supplied transport in a
    /// [`FaultTransport`], so fault injection composes with simulation.
    pub fn with_transport(cfg: Config, transport: Arc<dyn Transport>) -> Self {
        assert_eq!(
            transport.num_places(),
            cfg.places,
            "transport sized for a different number of places"
        );
        Self::build(cfg, Some(transport))
    }

    fn build(cfg: Config, external: Option<Arc<dyn Transport>>) -> Self {
        assert!(cfg.places > 0, "need at least one place");
        assert!(cfg.places <= u32::MAX as usize, "place ids are 32-bit");
        let topo = Topology::new(cfg.places, cfg.places_per_host);
        let obs = if cfg.obs_disable {
            None
        } else {
            Some(Obs::with_causal(
                cfg.places,
                cfg.trace_enable,
                cfg.trace_buffer_events,
                cfg.causal_enable,
            ))
        };
        if let (Some(o), Some((start, _))) = (&obs, cfg.host_places) {
            // Multi-process: namespace this rank's causal sequence numbers
            // so ids minted by different ranks never collide when their
            // ring segments are stitched at rank 0 (2^40 ids per rank).
            o.causal.set_seq_base((start as u64) << 40);
        }
        let sampler = match (&obs, cfg.sample_interval_ms) {
            (Some(o), Some(ms)) => Some(obs::Sampler::start(
                o.clone(),
                ms,
                obs::sample::DEFAULT_SAMPLE_CAPACITY,
            )),
            _ => None,
        };
        let base: Arc<dyn Transport> = match external {
            Some(t) => t,
            None => {
                let mut lt =
                    LocalTransport::with_ring_capacity(cfg.places, cfg.mailbox_ring_capacity);
                if let Some(o) = &obs {
                    lt = lt.with_obs(&o.metrics);
                }
                Arc::new(lt)
            }
        };
        let (transport, fault): (Arc<dyn Transport>, Option<Arc<FaultTransport>>) =
            match &cfg.fault_plan {
                None => (base, None),
                Some(plan) => {
                    let mut ft = FaultTransport::new(base, plan.clone());
                    if let Some(o) = &obs {
                        ft = ft.with_obs(&o.metrics);
                    }
                    let ft = Arc::new(ft);
                    (ft.clone(), Some(ft))
                }
            };
        let places: Vec<Arc<PlaceState>> = (0..cfg.places)
            .map(|i| Arc::new(PlaceState::new(PlaceId(i as u32))))
            .collect();
        for p in &places {
            let ps = p.clone();
            transport.register_waker(p.id, Arc::new(move || ps.wake()));
        }
        let seg_table = Arc::new(SegmentTable::new());
        let step_gate = if cfg.deterministic {
            Some(Arc::new(StepGate::new()))
        } else {
            None
        };
        let g = Arc::new(Global {
            congruent: CongruentAllocator::new(cfg.places, seg_table.clone()),
            topo,
            transport,
            fault,
            places,
            seg_table,
            shutdown: AtomicBool::new(false),
            ids: AtomicU64::new(1),
            uncounted_panics: Mutex::new(Vec::new()),
            obs,
            step_gate,
            handlers: RwLock::new(IntMap::default()),
            obs_plane: crate::status::ObsPlane::new(),
            cfg,
        });
        // Multi-process: spawn worker threads only for the places this
        // process hosts; remote places are reached through the transport.
        let (host_start, host_count) = g
            .cfg
            .host_places
            .map(|(s, c)| (s as usize, c as usize))
            .unwrap_or((0, g.cfg.places));
        let mut handles = Vec::new();
        if let Some(threads) = g.cfg.executor_threads {
            // M:N mode: each hosted place becomes a stackful context; a
            // fixed pool of executor threads multiplexes them (see the
            // `context` and `executor` modules and DESIGN.md §"M:N place
            // scheduling"). Place counts and core counts are decoupled.
            let contexts: Vec<Arc<crate::context::PlaceContext>> = (host_start
                ..host_start + host_count)
                .map(|i| {
                    let g2 = g.clone();
                    let place = g.places[i].clone();
                    crate::context::PlaceContext::new(
                        g.cfg.context_stack_size,
                        Box::new(move || Worker::new(g2, place).main_loop()),
                    )
                })
                .collect();
            let mut pool =
                crate::executor::ExecutorPool::new(contexts, threads, g.cfg.park_timeout);
            if let Some(o) = &g.obs {
                pool = pool.with_obs(&o.metrics);
            }
            let pool = Arc::new(pool);
            // Route every hosted place's wake to the pool *before* any
            // executor runs: enqueues, deliveries and shutdown all funnel
            // through `PlaceState::wake`.
            for (slot, i) in (host_start..host_start + host_count).enumerate() {
                let p2 = pool.clone();
                let _ = g.places[i].mplex_waker.set(Arc::new(move || {
                    p2.wake_slot(slot);
                }));
            }
            // Deterministic M:N: a grant must rouse the granted context —
            // it polls the gate instead of blocking in step_wait.
            if let Some(gate) = &g.step_gate {
                let p2 = pool.clone();
                gate.set_grant_hook(Box::new(move |place| {
                    if let Some(slot) = (place as usize).checked_sub(host_start) {
                        if slot < host_count {
                            p2.wake_slot(slot);
                        }
                    }
                }));
            }
            for t in 0..threads {
                let p2 = pool.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("executor-{t}"))
                        .spawn(move || p2.run_executor(t))
                        .expect("spawn executor thread"),
                );
            }
        } else {
            for i in host_start..host_start + host_count {
                let g2 = g.clone();
                let place = g.places[i].clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("place-{i}"))
                        // Help-first waiting nests activity frames on the
                        // worker stack; give it room.
                        .stack_size(16 * 1024 * 1024)
                        .spawn(move || {
                            Worker::new(g2, place).main_loop();
                        })
                        .expect("spawn worker thread"),
                );
            }
        }
        Runtime {
            g,
            handles: Mutex::new(handles),
            sampler: Mutex::new(sampler),
        }
    }

    /// Does this process host `place` (spawn worker threads for it)?
    /// Always true without [`Config::host_places`].
    pub fn hosts_place(&self, place: PlaceId) -> bool {
        match self.g.cfg.host_places {
            None => (place.0 as usize) < self.g.cfg.places,
            Some((s, c)) => place.0 >= s && place.0 < s + c,
        }
    }

    /// Register an application command handler under `id` (ids must be ≥
    /// [`HandlerId::FIRST_APP`]; lower ids are reserved for the runtime —
    /// see `PROTOCOL.md` §3). [`Ctx::at_async_cmd`] spawns run the handler
    /// at the destination with the sender's argument bytes. Registering an
    /// id twice replaces the handler. In a multi-process launch every
    /// process must register its own handlers (ids name behavior, and
    /// behavior cannot cross the wire).
    pub fn register_handler(&self, id: HandlerId, f: impl Fn(&Ctx, &[u8]) + Send + Sync + 'static) {
        assert!(
            id.is_app(),
            "handler id #{} is in the runtime-reserved range (app ids start at {})",
            id.0,
            HandlerId::FIRST_APP.0
        );
        self.g.handlers.write().insert(id.0, Arc::new(f));
    }

    /// Serve remote work until the launch shuts down: block this thread (the
    /// workers keep running) until the shutdown flag is set — either by a
    /// remote process's [`Runtime::broadcast_shutdown`] arriving as an
    /// `H_SHUTDOWN` message, or locally. The non-zero ranks of a
    /// multi-process launch call this instead of [`Runtime::run`].
    pub fn serve(&self) {
        while !self.g.shutdown.load(Ordering::Acquire) {
            std::thread::park_timeout(std::time::Duration::from_millis(10));
        }
    }

    /// Tell every other place the launch is over: send an `H_SHUTDOWN`
    /// system message to each non-local place (remote processes release
    /// their [`Runtime::serve`] callers), then set the local shutdown flag.
    /// Rank 0 of a multi-process launch calls this after its main activity
    /// returns; single-process runtimes never need it (drop shuts down).
    pub fn broadcast_shutdown(&self) {
        let here = self
            .g
            .cfg
            .host_places
            .map(|(s, _)| PlaceId(s))
            .unwrap_or(PlaceId(0));
        for p in self.g.topo.iter() {
            if self.hosts_place(p) {
                continue;
            }
            let _ = self.g.transport.send(Envelope::new(
                here,
                p,
                MsgClass::System,
                1,
                Box::new(WireMsg::new(codec::H_SHUTDOWN, Vec::new())),
            ));
        }
        self.request_shutdown();
    }

    /// Run `f` as the main activity at place 0 (under an implicit root
    /// `finish`, as in X10) and return its result. Panics from `f` or from
    /// any activity it transitively governs propagate to the caller.
    pub fn run<R: Send + 'static>(&self, f: impl FnOnce(&Ctx) -> R + Send + 'static) -> R {
        assert!(
            self.hosts_place(PlaceId(0)),
            "run() enqueues at place 0, which this process does not host — \
             non-zero ranks call serve()"
        );
        let (tx, rx) = crossbeam_channel::bounded(1);
        let task = Task::new(move |ctx: &Ctx| {
            let result = catch_unwind(AssertUnwindSafe(|| ctx.finish(|c| f(c))));
            let _ = tx.send(result);
        });
        self.g.places[0].enqueue(Activity {
            task,
            cause: None,
            cause_remote: false,
        });
        match rx.recv().expect("runtime workers terminated unexpectedly") {
            Ok(r) => r,
            Err(e) => resume_unwind(e),
        }
    }

    /// Like [`Runtime::run`], but fault-aware: a typed [`ApgasError`]
    /// raised by the runtime (e.g. the finish liveness watchdog detecting a
    /// dead place) is returned as an `Err` instead of propagating as a
    /// panic. Ordinary (user) panics still propagate.
    pub fn run_checked<R: Send + 'static>(
        &self,
        f: impl FnOnce(&Ctx) -> R + Send + 'static,
    ) -> Result<R, ApgasError> {
        let (tx, rx) = crossbeam_channel::bounded(1);
        let task = Task::new(move |ctx: &Ctx| {
            let result = catch_unwind(AssertUnwindSafe(|| ctx.finish(|c| f(c))));
            let _ = tx.send(result);
        });
        self.g.places[0].enqueue(Activity {
            task,
            cause: None,
            cause_remote: false,
        });
        match rx.recv().expect("runtime workers terminated unexpectedly") {
            Ok(r) => Ok(r),
            Err(e) => match ApgasError::from_panic(&*e) {
                Some(err) => Err(err),
                None => resume_unwind(e),
            },
        }
    }

    /// Kill `place`: its mailbox black-holes, and sends to or from it fail
    /// with [`x10rt::TransportError::PlaceDead`]. Irreversible for the life
    /// of this runtime. The victim's worker threads keep running (they just
    /// lose all connectivity), mirroring a network-partitioned node.
    pub fn kill_place(&self, place: PlaceId) {
        self.g.transport.kill_place(place);
        // Wake everyone: waiters must notice the changed world and let the
        // watchdog (if armed) observe the stall.
        for p in &self.g.places {
            p.wake();
        }
    }

    /// Places the transport currently reports dead.
    pub fn dead_places(&self) -> Vec<PlaceId> {
        self.g.transport.dead_places()
    }

    /// Running totals of injected faults, when the runtime was built with a
    /// fault plan.
    pub fn fault_counts(&self) -> Option<FaultCounts> {
        self.g.fault.as_ref().map(|f| f.fault_counts())
    }

    /// Fault-layer work invisible to the transport beneath it: held
    /// (delayed) envelopes plus unfired scripted events. Zero without a
    /// fault plan. The DST controller drains this via
    /// [`Runtime::fault_poke`] before concluding a quiet network is a
    /// deadlocked one.
    pub fn fault_backlog(&self) -> usize {
        self.g
            .fault
            .as_ref()
            .map_or(0, |f| f.held_len() + f.pending_events())
    }

    /// The fault layer's logical clock (0 without a fault plan). Scripted
    /// events and delay releases are timed against this clock.
    pub fn fault_clock(&self) -> u64 {
        self.g.fault.as_ref().map_or(0, |f| f.logical_step())
    }

    /// Advance the fault layer's logical clock one trafficless step (no-op
    /// without a fault plan). See `FaultTransport::poke`.
    pub fn fault_poke(&self) {
        if let Some(f) = &self.g.fault {
            f.poke();
        }
    }

    /// Number of places.
    pub fn places(&self) -> usize {
        self.g.cfg.places
    }

    /// The place→host topology.
    pub fn topology(&self) -> &Topology {
        &self.g.topo
    }

    /// Network statistics (shared live counters).
    pub fn net_stats(&self) -> &NetStats {
        self.g.transport.stats()
    }

    /// Reset the network statistics (between benchmark phases).
    pub fn reset_net_stats(&self) {
        self.g.transport.stats().reset();
    }

    /// Observability state (metrics registry + tracer), unless the runtime
    /// was built with `Config::obs_disable`.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.g.obs.as_ref()
    }

    /// Render the current metric values as JSON (`None` when observability
    /// is disabled) — the `metrics` section of the bench output files.
    pub fn metrics_json(&self) -> Option<String> {
        self.g.obs.as_ref().map(|o| o.metrics_json())
    }

    /// Export the event rings as chrome-trace JSON, loadable in
    /// `about:tracing` / Perfetto (`None` when observability is disabled).
    /// With causal tracing on, the export includes cross-place flow events
    /// (rendered as arrows between place tracks).
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.g.obs.as_ref().map(|o| o.chrome_trace_json())
    }

    /// The metrics time series collected by the background sampler, as JSON
    /// (`None` unless the runtime was built with
    /// `Config::sample_interval_ms`).
    pub fn metrics_series_json(&self) -> Option<String> {
        self.sampler.lock().as_ref().map(|s| s.series_json())
    }

    /// Per-finish critical paths reconstructed from the causal DAG, as JSON
    /// (`None` when observability is disabled; empty paths when causal
    /// tracing never ran).
    pub fn critical_path_json(&self) -> Option<String> {
        self.g.obs.as_ref().map(|o| o.critical_path_json())
    }

    /// Human-readable critical-path report (same data as
    /// [`Runtime::critical_path_json`]).
    pub fn critical_path_text(&self) -> Option<String> {
        self.g.obs.as_ref().map(|o| o.critical_path_text())
    }

    /// Place-to-place traffic flow matrix from the causal DAG, as JSON.
    pub fn flow_matrix_json(&self) -> Option<String> {
        self.g.obs.as_ref().map(|o| o.flow_matrix_json())
    }

    // --- cluster observability plane (multi-process; PROTOCOL.md §4) ---

    /// Ask every remote process for its observability snapshot (an `H_OBS`
    /// `SnapshotRequest` to each non-hosted place; exactly one place per
    /// remote process replies) and wait — bounded by `timeout` — until the
    /// set of collected shipments goes quiet. Returns the number of remote
    /// shipments held afterwards. Rank 0 calls this *before*
    /// [`Runtime::broadcast_shutdown`]; it is a no-op (returning any
    /// already-shipped count) for single-process runtimes or with
    /// observability disabled.
    pub fn collect_cluster_obs(&self, timeout: std::time::Duration) -> usize {
        let held = || self.g.obs_plane.shipments.lock().len();
        if self.g.obs.is_none() || self.g.cfg.host_places.is_none() {
            return held();
        }
        let here = PlaceId(self.g.rank());
        let mut requested = 0usize;
        for p in self.g.topo.iter() {
            if self.hosts_place(p) {
                continue;
            }
            let body = crate::wire::encode_obs_msg(&crate::wire::ObsMsg::SnapshotRequest {
                reply_to: here.0,
            });
            let bytes = body.len();
            let _ = self.g.transport.send(Envelope::new(
                here,
                p,
                MsgClass::System,
                bytes,
                Box::new(WireMsg::new(codec::H_OBS, body)),
            ));
            requested += 1;
        }
        if requested == 0 {
            return held();
        }
        // The number of remote *processes* is unknown (only places are),
        // so wait for a quiet period: no new shipment for 250 ms once at
        // least one arrived, or the deadline.
        let deadline = std::time::Instant::now() + timeout;
        let quiet = std::time::Duration::from_millis(250);
        let mut count = held();
        let mut last_change = std::time::Instant::now();
        while std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
            let n = held();
            if n != count {
                count = n;
                last_change = std::time::Instant::now();
            } else if count > 0 && last_change.elapsed() >= quiet {
                break;
            }
        }
        count
    }

    /// The folded cluster view: the local rank's shipment plus every
    /// accepted remote shipment, timestamps shifted onto the local causal
    /// timeline (`None` with observability disabled).
    pub fn cluster_obs(&self) -> Option<obs::ClusterObs> {
        let o = self.g.obs.as_ref()?;
        let mut c = obs::ClusterObs::new(obs::distrib::capture(o, self.g.rank()));
        for (snap, at) in self.g.obs_plane.shipments.lock().iter() {
            c.accept(snap.clone(), *at);
        }
        Some(c)
    }

    /// Cluster-wide metrics as JSON: every rank's counters and histograms
    /// folded with `MetricsSnapshot::merge` under `"merged"`, per-rank
    /// snapshots under `"per_rank"`.
    pub fn cluster_metrics_json(&self) -> Option<String> {
        self.cluster_obs().map(|c| c.metrics_json())
    }

    /// Cluster-wide metrics as text: the merged name-sorted dump plus one
    /// drop-count breakdown line per rank.
    pub fn cluster_metrics_text(&self) -> Option<String> {
        self.cluster_obs().map(|c| c.metrics_text())
    }

    /// Chrome-trace JSON whose flow arrows come from the *stitched* causal
    /// DAG — a message that crossed the socket draws as an arrow between
    /// rank lanes.
    pub fn cluster_chrome_trace_json(&self) -> Option<String> {
        let o = self.g.obs.as_ref()?;
        self.cluster_obs()
            .map(|c| c.chrome_trace_json(&o.tracer.snapshot()))
    }

    /// Critical-path report over the stitched cluster DAG, as JSON.
    pub fn cluster_critical_path_json(&self) -> Option<String> {
        self.cluster_obs().map(|c| c.critical_path_json())
    }

    /// Critical-path report over the stitched cluster DAG, as text.
    pub fn cluster_critical_path_text(&self) -> Option<String> {
        self.cluster_obs().map(|c| c.critical_path_text())
    }

    // --- live introspection ---

    /// The process-wide status report as human-readable text: per-place run
    /// states, queue and mailbox depths, coalescer buffering, in-flight
    /// finish roots (protocol kind + liveness progress counter), finish
    /// residue, and the full sorted metrics dump. Also dumped automatically
    /// when the finish watchdog trips.
    pub fn status_report(&self) -> String {
        crate::status::report_text(&self.g)
    }

    /// The status report as JSON (same data as [`Runtime::status_report`]).
    pub fn status_report_json(&self) -> String {
        crate::status::report_json(&self.g)
    }

    /// The report rendered the last time the finish watchdog tripped in
    /// this process, if it ever did.
    pub fn last_watchdog_report(&self) -> Option<String> {
        self.g.obs_plane.last_watchdog_report.lock().clone()
    }

    /// A cloneable handle on this runtime's status reports, usable after
    /// the `Runtime` itself is out of reach (see [`crate::StatusHandle`]).
    pub fn status_handle(&self) -> crate::status::StatusHandle {
        crate::status::StatusHandle { g: self.g.clone() }
    }

    /// Query a remote place's process for its live status report over the
    /// transport (`H_OBS` `StatusRequest`): returns `(text, json)` from the
    /// first reply to arrive within `timeout`, `None` on timeout or when
    /// `place` is hosted locally (use [`Runtime::status_report`] then).
    pub fn remote_status(
        &self,
        place: PlaceId,
        timeout: std::time::Duration,
    ) -> Option<(String, String)> {
        if self.hosts_place(place) {
            return None;
        }
        let here = PlaceId(self.g.rank());
        let before = self.g.obs_plane.status_replies.lock().len();
        let body =
            crate::wire::encode_obs_msg(&crate::wire::ObsMsg::StatusRequest { reply_to: here.0 });
        let bytes = body.len();
        self.g
            .transport
            .send(Envelope::new(
                here,
                place,
                MsgClass::System,
                bytes,
                Box::new(WireMsg::new(codec::H_OBS, body)),
            ))
            .ok()?;
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            {
                let replies = self.g.obs_plane.status_replies.lock();
                if replies.len() > before {
                    let (_, text, json) = replies[before].clone();
                    return Some((text, json));
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        None
    }

    /// Total times any worker actually slept (scheduler diagnostic).
    pub fn total_parks(&self) -> u64 {
        self.g
            .places
            .iter()
            .map(|p| p.parks.load(std::sync::atomic::Ordering::Relaxed))
            .sum()
    }

    /// Drain panics recorded by uncounted activities.
    pub fn take_uncounted_panics(&self) -> Vec<String> {
        std::mem::take(&mut self.g.uncounted_panics.lock())
    }

    /// The deterministic stepping gate, when the runtime was built with
    /// [`Config::deterministic`]. The schedule controller (the `sim` crate)
    /// drives workers through it.
    pub fn step_gate(&self) -> Option<&Arc<StepGate>> {
        self.g.step_gate.as_ref()
    }

    /// Does `place` have local work — a queued activity, an undrained
    /// mailbox, or an activity paused inside a `Ctx::probe` pump (which
    /// will do application work as soon as it gets a quantum)? A schedule
    /// controller uses this to enumerate enabled steps.
    pub fn place_has_work(&self, place: PlaceId) -> bool {
        let ps = &self.g.places[place.0 as usize];
        !ps.queue.is_empty()
            || ps.probing.load(std::sync::atomic::Ordering::Acquire) > 0
            || self.g.transport.queue_len(place) > 0
    }

    /// Does `place` host a resilient finish root that has not yet adopted
    /// every dead place? Adoption runs in the waiting worker's quantum (the
    /// resilient wait re-polls [`Worker::resilient_recover`] each
    /// condition check), so a schedule controller must treat pending
    /// recovery as runnable work — it is invisible to [`Runtime::place_has_work`]
    /// because no queue or mailbox entry exists for it. Always `false` with
    /// `Config::resilient_finish` off: recovery will never run, and
    /// reporting it as work would mask the resulting (deliberate) wedge.
    pub fn place_needs_recovery(&self, place: PlaceId) -> bool {
        if !self.g.cfg.resilient_finish {
            return false;
        }
        let dead = self.g.transport.dead_places();
        if dead.is_empty() {
            return false;
        }
        self.g.places[place.0 as usize]
            .roots
            .lock()
            .values()
            .any(|r| r.needs_reconstruct(dead.len()))
    }

    /// Total activities queued across all places (not counting the one a
    /// worker may be executing — in deterministic mode nobody executes
    /// between quanta, so this is exact).
    pub fn total_queued(&self) -> usize {
        self.g.places.iter().map(|p| p.queue.len()).sum()
    }

    /// Residual finish-protocol state across all places — the quiescence
    /// oracle (see [`FinishResidue`]).
    pub fn finish_residue(&self) -> FinishResidue {
        self.g.residue()
    }

    /// [`Runtime::finish_residue`] counting only places still alive — the
    /// quiescence oracle for runs where places were deliberately killed
    /// (dead places legitimately strand frozen protocol state).
    pub fn finish_residue_alive(&self) -> FinishResidue {
        self.g.residue_alive()
    }

    /// Initiate shutdown without dropping the runtime: sets the shutdown
    /// flag, permanently releases the stepping gate (if any), and wakes all
    /// workers. Blocked `wait_until`s abort with the runtime-shutdown panic;
    /// the schedule controller uses this to convert a detected deadlock into
    /// a clean teardown instead of a hang.
    pub fn request_shutdown(&self) {
        self.g
            .shutdown
            .store(true, std::sync::atomic::Ordering::Release);
        if let Some(gate) = &self.g.step_gate {
            gate.release_all();
        }
        for p in &self.g.places {
            p.wake();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.g
            .shutdown
            .store(true, std::sync::atomic::Ordering::Release);
        if let Some(gate) = &self.g.step_gate {
            // Free-run the workers so teardown never waits on a controller.
            gate.release_all();
        }
        for p in &self.g.places {
            p.wake();
        }
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}
