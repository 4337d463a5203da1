//! `obs` — runtime observability: metrics, event tracing, exporters.
//!
//! The paper's petascale numbers were only reachable because the authors
//! could attribute wall time and message volume to protocol phases (finish
//! control traffic, GLB steal/lifeline activity, per-link transport load).
//! This crate is that measurement substrate for the reproduction:
//!
//! * [`metrics::MetricsRegistry`] — named counters and histograms, sharded
//!   per sender with the same cache-line-aligned idiom as
//!   `x10rt::NetStats`, so hot-path increments never contend;
//! * [`trace::Tracer`] — one bounded [`trace::EventRing`] per worker,
//!   holding both structured trace [`trace::Event`]s (spans and instants)
//!   and causal stamps on one shared epoch, gated by one atomic word with a
//!   bit per kind so a disabled kind costs one predictable branch per hook;
//! * [`causal::CausalTracer`] — cross-place causal tracing: every stamped
//!   message carries a [`causal::CausalId`], the worker rings record
//!   send/receive/execute stamps, and [`causal::CausalGraph`] stitches them
//!   into a DAG with per-finish-root critical paths and a place×place flow
//!   matrix;
//! * [`sample::Sampler`] — a background thread snapshotting the registry on
//!   an interval into a bounded time-series ring, for rate-over-time views
//!   instead of end-of-run totals;
//! * [`chrome`] — a chrome-trace (`trace_event`) JSON writer: snapshots
//!   open directly in `about:tracing` or [Perfetto](https://ui.perfetto.dev)
//!   with one process per place and one thread track per worker, and (when
//!   causal tracing ran) flow-event arrows between place tracks.
//!
//! Each runtime instance owns one [`Obs`] (never a process-global —
//! parallel tests in one process must not share counters) and hands
//! `Arc<Obs>` clones to whoever instruments or exports.

#![warn(missing_docs)]

pub mod causal;
pub mod chrome;
pub mod distrib;
pub mod metrics;
pub mod names;
pub mod sample;
pub mod trace;

pub use causal::{CausalGraph, CausalId, CausalTracer, CAUSAL_HEADER_BYTES};
pub use distrib::{ClusterObs, RankObs};
pub use metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
pub use sample::Sampler;
pub use trace::{Event, EventRing, SpanStart, Tracer, WorkerTrace};

use std::sync::Arc;
use trace::Kind;

/// One runtime instance's observability state: a metrics registry, the
/// event tracer with its per-worker rings, and the causal handle on those
/// rings. Shared via `Arc` between the runtime, its workers, and any
/// exporter.
pub struct Obs {
    /// Named counters and histograms.
    pub metrics: MetricsRegistry,
    /// The per-worker event rings; its toggle is the trace bit.
    pub tracer: Tracer,
    /// Cross-place causal tracing: message send/receive/execute stamps in
    /// the same rings. Always present; enabled separately from tracing via
    /// `causal_enabled`.
    pub causal: CausalTracer,
}

impl Obs {
    /// Build observability state for a runtime with `places` places, with
    /// causal tracing off. See [`Obs::with_causal`].
    pub fn new(places: usize, trace_enabled: bool, trace_capacity: usize) -> Arc<Obs> {
        Obs::with_causal(places, trace_enabled, trace_capacity, false)
    }

    /// Build observability state for a runtime with `places` places.
    ///
    /// `trace_enabled` and `causal_enabled` set the two kinds' initial
    /// state (both can be toggled at run time). `trace_capacity` is the
    /// size of each worker's one ring, in events of either kind — when a
    /// ring wraps, the oldest event is overwritten and counted as a drop of
    /// its own kind.
    pub fn with_causal(
        places: usize,
        trace_enabled: bool,
        trace_capacity: usize,
        causal_enabled: bool,
    ) -> Arc<Obs> {
        let tracer = Tracer::new(trace_capacity, trace_enabled);
        let causal = CausalTracer::new(&tracer, causal_enabled);
        Arc::new(Obs {
            metrics: MetricsRegistry::new(places),
            tracer,
            causal,
        })
    }

    /// The registry snapshot plus the synthetic drop counters
    /// ([`names::TRACE_DROPPED_EVENTS`], [`names::CAUSAL_DROPPED_EVENTS`]),
    /// so ring truncation is visible wherever metrics are read.
    fn snapshot_with_drops(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.counters.push((
            names::TRACE_DROPPED_EVENTS.to_string(),
            self.tracer.dropped(Kind::Trace),
        ));
        snap.counters.push((
            names::CAUSAL_DROPPED_EVENTS.to_string(),
            self.tracer.dropped(Kind::Causal),
        ));
        snap
    }

    /// Render the current metric values as a plain-text dump (one line per
    /// counter, a block per histogram) — the shape embedded in bench output.
    /// Includes the synthetic `trace.dropped_events` / `causal.dropped_events`
    /// counters.
    pub fn metrics_text(&self) -> String {
        self.snapshot_with_drops().render_text()
    }

    /// Render the current metric values as a JSON object (the `metrics`
    /// section of the `BENCH_*.json` files). Includes the synthetic
    /// `trace.dropped_events` / `causal.dropped_events` counters.
    pub fn metrics_json(&self) -> String {
        self.snapshot_with_drops().render_json()
    }

    /// Export the current rings as chrome-trace JSON: trace events as
    /// slices, causal events as flow arrows spliced into the same file.
    pub fn chrome_trace_json(&self) -> String {
        let (traces, causal) = self.tracer.snapshot_views();
        chrome::chrome_trace_with(&traces, &causal::chrome_flow_events(&causal))
    }

    /// Build the causal DAG from the causal views of the current rings.
    pub fn causal_graph(&self) -> CausalGraph {
        CausalGraph::build(&self.tracer.snapshot_views().1)
    }

    /// The per-finish-root critical-path report as JSON.
    pub fn critical_path_json(&self) -> String {
        causal::critical_path_json(&self.causal_graph())
    }

    /// The per-finish-root critical-path report as human-readable text.
    pub fn critical_path_text(&self) -> String {
        causal::critical_path_text(&self.causal_graph())
    }

    /// The place×place×class latency/byte flow matrix as JSON.
    pub fn flow_matrix_json(&self) -> String {
        causal::flow_matrix_json(&self.causal_graph())
    }

    /// The place×place×class latency/byte flow matrix as text.
    pub fn flow_matrix_text(&self) -> String {
        causal::flow_matrix_text(&self.causal_graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_renders_surface_drop_counters() {
        let obs = Obs::new(1, true, 16); // tiny ring so it wraps
        let buf = obs.tracer.register(0);
        for i in 0..40 {
            buf.instant("t", "tick", i);
        }
        let text = obs.metrics_text();
        assert!(text.contains("trace.dropped_events 24"), "got:\n{text}");
        assert!(text.contains("causal.dropped_events 0"));
        let json = obs.metrics_json();
        assert!(json.contains("\"trace.dropped_events\": 24"));
        assert!(json.contains("\"causal.dropped_events\": 0"));
    }

    #[test]
    fn chrome_export_includes_causal_flows() {
        let obs = Obs::with_causal(2, true, 64, true);
        let b0 = obs.tracer.register(0);
        let b1 = obs.tracer.register(1);
        let id = obs.causal.mint(CausalId::pack_root(0, 1));
        b0.causal_send(id, 0, 1, 0, 40);
        b1.causal_recv(id, 0, 0, 40);
        let json = obs.chrome_trace_json();
        assert!(json.contains("\"ph\": \"s\""));
        assert!(json.contains("\"ph\": \"f\""));
        assert!(json.contains("\"cat\": \"causal\""));
    }

    #[test]
    fn causal_reports_via_obs_accessors() {
        let obs = Obs::with_causal(2, false, 64, true);
        let b0 = obs.tracer.register(0);
        let b1 = obs.tracer.register(1);
        let id = obs.causal.mint(CausalId::pack_root(0, 3));
        b0.causal_send(id, 0, 1, 0, 48);
        b1.causal_recv(id, 0, 0, 48);
        assert_eq!(obs.causal_graph().len(), 1);
        assert!(obs.critical_path_json().contains("\"finish_seq\": 3"));
        assert!(obs.critical_path_text().contains("critical path 1 hop"));
        assert!(obs.flow_matrix_json().contains("\"from\": 0, \"to\": 1"));
        assert!(obs.flow_matrix_text().contains("task"));
    }
}
