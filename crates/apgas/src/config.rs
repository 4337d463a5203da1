//! Runtime configuration.

use crate::ctx::Ctx;
use std::sync::Arc;
use std::time::Duration;
use x10rt::{HandlerId, IntMap};

/// An application command handler: runs with the receiving activity's
/// [`Ctx`] and the serialized argument bytes the sender passed to
/// [`Ctx::at_async_cmd`].
pub type AppHandler = Arc<dyn Fn(&Ctx, &[u8]) + Send + Sync>;

/// Application command handlers keyed by handler id (see
/// [`Config::handler`]).
#[derive(Clone, Default)]
pub(crate) struct Handlers(IntMap<u32, AppHandler>);

impl Handlers {
    pub(crate) fn get(&self, id: HandlerId) -> Option<&AppHandler> {
        self.0.get(&id.0)
    }
}

impl std::fmt::Debug for Handlers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut ids: Vec<u32> = self.0.keys().copied().collect();
        ids.sort_unstable();
        f.debug_set().entries(ids).finish()
    }
}

/// How `dist` collections rebuild chunks lost to a place death.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RedundancyMode {
    /// Keep a live replica of every chunk at a buddy place (owner+1,
    /// skipping the owner); recovery copies the replica. Every applied
    /// update is forwarded to the buddy, so steady state costs one extra
    /// message per update but recovery is lossless for applied updates.
    Replica,
    /// Keep no redundant copy; recovery re-runs the collection's registered
    /// recompute function (initial data). Updates applied after
    /// construction are lost — only correct for recomputable data.
    Recompute,
}

/// Configuration of an APGAS runtime.
///
/// Defaults mirror the paper's launch configuration: one worker thread per
/// place (`X10_NTHREADS=1`) and 32 places per host (octant).
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of places. Execution starts at place 0. Every place runs one
    /// worker, as the paper's experiments do (`X10_NTHREADS=1`).
    pub places: usize,
    /// Places per host; determines host masters for `FINISH_DENSE` routing
    /// and the Power 775 traffic accounting (32 on the paper's machine).
    pub places_per_host: usize,
    /// Transport aggregation: flush a destination's coalescing buffer once
    /// it holds this many messages (see `x10rt::coalesce`).
    pub batch_max_msgs: usize,
    /// Transport aggregation: flush a destination's coalescing buffer once
    /// it holds this many modeled wire bytes.
    pub batch_max_bytes: usize,
    /// Disable transport aggregation entirely (every message goes out as its
    /// own envelope) — the ablation baseline.
    pub batch_disable: bool,
    /// Start with event tracing enabled (spans and instants recorded into
    /// the per-worker ring buffers; see `obs::trace`). Metrics counters are
    /// always on unless [`Config::obs_disable`] is set; this knob only
    /// gates the tracer, which can also be toggled at run time via
    /// `Runtime::obs`.
    pub trace_enable: bool,
    /// Capacity of each worker's one event ring, in events. Trace spans and
    /// instants and causal stamps share it. When the ring wraps, the oldest
    /// event is overwritten and counted as dropped by its own kind
    /// (`trace.dropped_events` or `causal.dropped_events`).
    pub trace_buffer_events: usize,
    /// Build the runtime with no observability state at all: hooks compile
    /// to a branch on a `None` — the overhead-ablation baseline.
    pub obs_disable: bool,
    /// Start with causal cross-place tracing enabled: every stamped message
    /// carries an `obs::causal::CausalId` (charged
    /// `CAUSAL_HEADER_BYTES` in the byte ledgers) and workers record
    /// send/receive/execute stamps into their event rings, from which
    /// `Runtime::critical_path_json` and friends reconstruct cross-place
    /// dependency chains. Off by default — unstamped messages keep their
    /// exact pre-causal wire sizes and every hook reduces to one relaxed
    /// atomic load.
    pub causal_enable: bool,
    /// Snapshot the metrics registry every this-many milliseconds into a
    /// bounded time-series ring (see `obs::sample::Sampler`), exported via
    /// `Runtime::metrics_series_json` — rate-over-time views instead of
    /// end-of-run totals. `None` — the default — starts no sampler thread.
    pub sample_interval_ms: Option<u64>,
    /// Wrap the transport in an [`x10rt::FaultTransport`] governed by this
    /// plan (chaos testing). `None` — the default — uses the bare transport
    /// with zero added overhead.
    pub fault_plan: Option<x10rt::FaultPlan>,
    /// Liveness watchdog for `finish`: if termination detection makes no
    /// protocol progress for this long after the body returns, the finish
    /// aborts with [`crate::ApgasError::DeadPlace`] instead of hanging.
    /// `None` — the default — waits forever (the fault-free configuration
    /// never needs it and pays nothing for it).
    pub finish_watchdog: Option<Duration>,
    /// Deterministic-schedule mode (simulation testing): workers yield to a
    /// [`crate::step::StepGate`] at the top of every scheduling quantum and
    /// only run when an external schedule controller grants them one — see
    /// the `sim` crate. Off by default; the threaded path then pays exactly
    /// one `Option` check per quantum.
    pub deterministic: bool,
    /// How protocol messages are packed into envelopes (see `PROTOCOL.md`).
    /// [`x10rt::CodecMode::Inline`] — the default — ships typed in-process
    /// boxes (the zero-serialization fast path `LocalTransport` has always
    /// used); [`x10rt::CodecMode::Bytes`] eagerly serializes every protocol
    /// message into its destination's frame at the send site — mandatory for
    /// cross-process transports, available in-process for testing the codec
    /// path. Both modes charge identical modeled byte counts.
    pub codec: x10rt::CodecMode,
    /// OS threads that run the hosted places. `None` — the default — or a
    /// count of at least the hosted places gives each place a thread of its
    /// own (the dedicated executor, as on the paper's machine). `Some(n)`
    /// below the hosted place count multiplexes them as lightweight
    /// stackful contexts over `n` executor threads (the shared executor,
    /// M:N scheduling): place counts decouple from core counts, and a
    /// 4,096-place runtime runs in one process on `n` threads (see
    /// DESIGN.md §"M:N place scheduling"). The shared executor requires an
    /// x86_64 host.
    pub executor_threads: Option<usize>,
    /// Enable the resilient-finish recovery machinery for
    /// [`crate::FinishKind::Resilient`] roots: adoption of dead places'
    /// accounting, re-execution of registered command descriptors, and
    /// backup-place snapshot replication. On by default; turning it off
    /// leaves `Resilient` behaving exactly like the default protocol (a
    /// place death then stalls the finish until the watchdog fires) — the
    /// deliberately-broken configuration the DST mutation-smoke test must
    /// catch.
    pub resilient_finish: bool,
    /// How `dist` collections rebuild chunks lost to a place death.
    pub redundancy_mode: RedundancyMode,
    /// The contiguous range of places hosted by *this process* as
    /// `(start, count)`; `None` — the default — hosts all of them
    /// (single-process operation). In a multi-process launch over
    /// [`x10rt::TcpTransport`], each process spawns worker threads only for
    /// its own range; the others are reached through the transport.
    pub host_places: Option<(u32, u32)>,
    /// Application command handlers (see [`Config::handler`]). The runtime
    /// holds them from before its first worker runs, unchanged for its
    /// life, so workers read the table without a lock.
    pub(crate) handlers: Handlers,
}

impl Config {
    /// A configuration with `places` places and all defaults.
    pub fn new(places: usize) -> Self {
        Config {
            places,
            places_per_host: 32,
            batch_max_msgs: x10rt::coalesce::DEFAULT_MAX_MSGS,
            batch_max_bytes: x10rt::coalesce::DEFAULT_MAX_BYTES,
            batch_disable: false,
            trace_enable: false,
            trace_buffer_events: obs::trace::DEFAULT_BUFFER_EVENTS,
            obs_disable: false,
            causal_enable: false,
            sample_interval_ms: None,
            fault_plan: None,
            finish_watchdog: None,
            deterministic: false,
            codec: x10rt::CodecMode::Inline,
            executor_threads: None,
            resilient_finish: true,
            redundancy_mode: RedundancyMode::Replica,
            host_places: None,
            handlers: Handlers::default(),
        }
    }

    /// Install the application command handler `f` under `id` (builder
    /// style). [`Ctx::at_async_cmd`] spawns run it at the destination with
    /// the sender's argument bytes. Ids below [`HandlerId::FIRST_APP`] are
    /// reserved for the runtime (`PROTOCOL.md` §3) and panic here;
    /// installing an id twice keeps the last handler. In a multi-process
    /// launch every process installs its own handlers (ids name behavior,
    /// and behavior cannot cross the wire).
    pub fn handler(
        mut self,
        id: HandlerId,
        f: impl Fn(&Ctx, &[u8]) + Send + Sync + 'static,
    ) -> Self {
        assert!(
            id.is_app(),
            "handler id #{} is in the runtime-reserved range (app ids start at {})",
            id.0,
            HandlerId::FIRST_APP.0
        );
        self.handlers.0.insert(id.0, Arc::new(f));
        self
    }

    /// Enable or disable the resilient-finish recovery machinery (builder
    /// style). See [`Config::resilient_finish`].
    pub fn resilient_finish(mut self, on: bool) -> Self {
        self.resilient_finish = on;
        self
    }

    /// Select how `dist` collections rebuild lost chunks (builder style).
    pub fn redundancy_mode(mut self, mode: RedundancyMode) -> Self {
        self.redundancy_mode = mode;
        self
    }

    /// Run the hosted places on `n` OS threads (builder style): contexts
    /// multiplexed over `n` executor threads when `n` is below the hosted
    /// place count, a thread per place otherwise. See
    /// [`Config::executor_threads`].
    pub fn executor_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "the executor pool needs at least one thread");
        self.executor_threads = Some(n);
        self
    }

    /// Set places per host (builder style).
    pub fn places_per_host(mut self, b: usize) -> Self {
        assert!(b > 0);
        self.places_per_host = b;
        self
    }

    /// Set the aggregation message-count flush threshold (builder style).
    pub fn batch_max_msgs(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.batch_max_msgs = n;
        self
    }

    /// Set the aggregation byte flush threshold (builder style).
    pub fn batch_max_bytes(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.batch_max_bytes = n;
        self
    }

    /// Enable or disable transport aggregation (builder style).
    pub fn batch_disable(mut self, disable: bool) -> Self {
        self.batch_disable = disable;
        self
    }

    /// Start with event tracing on or off (builder style).
    pub fn trace_enable(mut self, on: bool) -> Self {
        self.trace_enable = on;
        self
    }

    /// Set the per-worker event ring capacity in events (builder style).
    pub fn trace_buffer_events(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.trace_buffer_events = n;
        self
    }

    /// Build with no observability state at all (builder style) — the
    /// overhead-ablation baseline.
    pub fn obs_disable(mut self, disable: bool) -> Self {
        self.obs_disable = disable;
        self
    }

    /// Start with causal cross-place tracing on or off (builder style).
    pub fn causal_enable(mut self, on: bool) -> Self {
        self.causal_enable = on;
        self
    }

    /// Snapshot the metrics registry every `ms` milliseconds into a bounded
    /// time series (builder style).
    pub fn sample_interval_ms(mut self, ms: u64) -> Self {
        assert!(ms > 0);
        self.sample_interval_ms = Some(ms);
        self
    }

    /// Inject faults according to `plan` (builder style) — chaos testing.
    pub fn fault_plan(mut self, plan: x10rt::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enable the finish liveness watchdog with the given stall limit
    /// (builder style).
    pub fn finish_watchdog(mut self, limit: Duration) -> Self {
        self.finish_watchdog = Some(limit);
        self
    }

    /// Enable deterministic-schedule mode (builder style) — workers step
    /// only under an external schedule controller's grants.
    pub fn deterministic(mut self, on: bool) -> Self {
        self.deterministic = on;
        self
    }

    /// Select how protocol messages are packed (builder style).
    pub fn codec(mut self, mode: x10rt::CodecMode) -> Self {
        self.codec = mode;
        self
    }

    /// Host only places `start..start + count` in this process (builder
    /// style) — multi-process operation over a cross-process transport.
    /// Implies [`x10rt::CodecMode::Bytes`] would be needed for any traffic
    /// that leaves the range; this builder does not force it, the transport
    /// rejects unserializable payloads instead.
    pub fn host_places(mut self, start: u32, count: u32) -> Self {
        assert!(count > 0, "a process must host at least one place");
        assert!(
            (start as usize + count as usize) <= self.places,
            "hosted range exceeds the place count"
        );
        self.host_places = Some((start, count));
        self
    }

    /// The places this process hosts: [`Config::host_places`] as a range,
    /// or every place.
    pub(crate) fn hosted(&self) -> std::ops::Range<usize> {
        match self.host_places {
            Some((s, c)) => s as usize..(s + c) as usize,
            None => 0..self.places,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_launch_config() {
        let c = Config::new(64);
        assert_eq!(c.places, 64);
        assert_eq!(c.places_per_host, 32);
        assert!(!c.batch_disable);
        assert_eq!(c.batch_max_msgs, 64);
        assert_eq!(c.batch_max_bytes, 16 * 1024);
        assert!(!c.trace_enable, "tracing is opt-in");
        assert!(!c.obs_disable, "metrics are on by default");
        assert_eq!(c.trace_buffer_events, 65_536);
        assert!(!c.causal_enable, "causal tracing is opt-in");
        assert!(c.sample_interval_ms.is_none(), "metrics sampling is opt-in");
        assert!(c.fault_plan.is_none(), "fault injection is opt-in");
        assert!(c.finish_watchdog.is_none(), "watchdog is opt-in");
        assert!(!c.deterministic, "deterministic stepping is opt-in");
        assert_eq!(
            c.codec,
            x10rt::CodecMode::Inline,
            "the zero-serialization fast path is the default"
        );
        assert!(c.host_places.is_none(), "single-process by default");
        assert!(
            c.resilient_finish,
            "resilient-finish recovery is on by default"
        );
        assert_eq!(
            c.redundancy_mode,
            RedundancyMode::Replica,
            "replica redundancy is the default"
        );
        assert!(
            c.executor_threads.is_none(),
            "thread-per-place (a core per place, as on the p775) by default"
        );
    }

    #[test]
    fn mplex_builders() {
        let c = Config::new(1024).executor_threads(4);
        assert_eq!(c.executor_threads, Some(4));
    }

    #[test]
    fn codec_and_hosting_builders() {
        let c = Config::new(8)
            .codec(x10rt::CodecMode::Bytes)
            .host_places(4, 4);
        assert_eq!(c.codec, x10rt::CodecMode::Bytes);
        assert_eq!(c.host_places, Some((4, 4)));
        assert_eq!(c.hosted(), 4..8);
        assert_eq!(Config::new(8).hosted(), 0..8);
    }

    #[test]
    #[should_panic(expected = "hosted range exceeds")]
    fn host_range_must_fit() {
        let _ = Config::new(4).host_places(2, 3);
    }

    #[test]
    fn deterministic_builder() {
        let c = Config::new(4).deterministic(true);
        assert!(c.deterministic);
    }

    #[test]
    fn builder_overrides() {
        let c = Config::new(8).places_per_host(4);
        assert_eq!(c.places_per_host, 4);
    }

    #[test]
    fn aggregation_builders() {
        let c = Config::new(4)
            .batch_max_msgs(8)
            .batch_max_bytes(512)
            .batch_disable(true);
        assert_eq!(c.batch_max_msgs, 8);
        assert_eq!(c.batch_max_bytes, 512);
        assert!(c.batch_disable);
    }

    #[test]
    fn fault_builders() {
        let c = Config::new(4)
            .fault_plan(x10rt::FaultPlan::new(7).kill_place(x10rt::PlaceId(2), 100))
            .finish_watchdog(Duration::from_secs(2));
        assert_eq!(c.fault_plan.as_ref().unwrap().seed, 7);
        assert_eq!(c.finish_watchdog, Some(Duration::from_secs(2)));
    }

    #[test]
    fn handler_builder_installs_app_ids() {
        let c = Config::new(2)
            .handler(HandlerId(2001), |_, _| {})
            .handler(HandlerId::FIRST_APP, |_, _| {});
        assert!(c.handlers.get(HandlerId(2001)).is_some());
        assert!(c.handlers.get(HandlerId(2002)).is_none());
        assert_eq!(format!("{:?}", c.handlers), "{1024, 2001}");
    }

    #[test]
    fn resilience_builders() {
        let c = Config::new(4)
            .resilient_finish(false)
            .redundancy_mode(RedundancyMode::Recompute);
        assert!(!c.resilient_finish);
        assert_eq!(c.redundancy_mode, RedundancyMode::Recompute);
    }

    #[test]
    fn observability_builders() {
        let c = Config::new(4)
            .trace_enable(true)
            .trace_buffer_events(1024)
            .obs_disable(true)
            .causal_enable(true)
            .sample_interval_ms(50);
        assert!(c.trace_enable);
        assert_eq!(c.trace_buffer_events, 1024);
        assert!(c.obs_disable);
        assert!(c.causal_enable);
        assert_eq!(c.sample_interval_ms, Some(50));
    }
}
