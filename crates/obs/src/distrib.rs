//! Distributed observability: rank-tagged snapshot shipping and cluster
//! folding.
//!
//! A multi-process job has one [`crate::Obs`] per process (rank), so
//! metrics silo per process and causal DAGs truncate at the process
//! boundary. This module is the aggregation side of the `H_OBS` protocol
//! (PROTOCOL.md § 4): serving ranks capture a [`RankObs`] — their metrics
//! snapshot (synthetic drop counters included) plus their causal-ring
//! segments — and ship it to rank 0, which folds every shipment into a
//! [`ClusterObs`]: one merged metrics view with per-rank attribution
//! preserved, and one stitched causal DAG whose transport edges cross the
//! socket.
//!
//! # Timestamp stitching
//!
//! Causal timestamps are nanoseconds since each process's *own* monotonic
//! epoch, so remote segments cannot be interleaved raw. Each shipment
//! carries the sender's `now_ns` at capture time; the aggregator records
//! its own `now_ns` at acceptance and shifts every remote timestamp by the
//! difference. The shift ignores network flight time (remote events appear
//! up to one delivery latency late), which is accurate enough for
//! critical-path attribution and clearly documented as an approximation in
//! OBSERVABILITY.md.
//!
//! `CausalId`s need no translation: sequence numbers are namespaced per
//! rank at runtime construction ([`crate::CausalTracer::set_seq_base`]), so
//! shipped segments merge into [`crate::CausalGraph::build`] without
//! collisions, and the id a message carried over the wire (per PROTOCOL.md
//! § 2) connects the sender's send stamp to the receiver's recv stamp.

use crate::causal::{self, CausalGraph, WorkerCausal};
use crate::trace::Kind;
use crate::{names, MetricsSnapshot, Obs, WorkerTrace};

/// One rank's observability shipment: everything a serving process sends
/// rank 0 in an `H_OBS` snapshot push.
#[derive(Clone, Debug)]
pub struct RankObs {
    /// The shipping process's rank tag: its first hosted place.
    pub rank: u32,
    /// Sender's causal-epoch `now` (ns) at capture time — the clock-skew
    /// anchor used to shift this shipment's timestamps (module docs).
    pub now_ns: u64,
    /// The rank's metrics snapshot, synthetic drop counters included.
    pub metrics: MetricsSnapshot,
    /// Trace events lost to ring overwrite at this rank.
    pub trace_dropped: u64,
    /// Causal events lost to ring overwrite at this rank.
    pub causal_dropped: u64,
    /// The rank's causal-ring segments (timestamps in the rank's own
    /// timebase until [`ClusterObs::accept`] shifts them).
    pub causal: Vec<WorkerCausal>,
}

/// Capture this process's shipment, tagged with `rank`.
pub fn capture(obs: &Obs, rank: u32) -> RankObs {
    RankObs {
        rank,
        now_ns: obs.causal.now_ns(),
        metrics: obs.snapshot_with_drops(),
        trace_dropped: obs.tracer.dropped(Kind::Trace),
        causal_dropped: obs.tracer.dropped(Kind::Causal),
        causal: obs.tracer.snapshot_views().1,
    }
}

/// Rank 0's folded view of the cluster: its own shipment plus every
/// accepted remote shipment, deduplicated by rank (a newer shipment from
/// the same rank replaces the older one).
pub struct ClusterObs {
    ranks: Vec<RankObs>,
}

impl ClusterObs {
    /// A cluster view holding only the local rank's shipment.
    pub fn new(local: RankObs) -> ClusterObs {
        ClusterObs { ranks: vec![local] }
    }

    /// Fold a remote shipment in. `local_now_ns` is the *aggregator's*
    /// causal-epoch `now` at acceptance; the difference to the shipment's
    /// `now_ns` becomes the timestamp shift that puts the remote segments
    /// on the local timeline. A shipment from an already-known rank
    /// replaces the previous one (it is strictly fresher).
    pub fn accept(&mut self, mut snap: RankObs, local_now_ns: u64) {
        let offset = local_now_ns as i64 - snap.now_ns as i64;
        for seg in &mut snap.causal {
            for e in &mut seg.events {
                e.ts_ns = e.ts_ns.saturating_add_signed(offset);
            }
        }
        self.ranks.retain(|r| r.rank != snap.rank);
        self.ranks.push(snap);
        self.ranks.sort_by_key(|r| r.rank);
    }

    /// Rank tags present, ascending.
    pub fn rank_ids(&self) -> Vec<u32> {
        self.ranks.iter().map(|r| r.rank).collect()
    }

    /// Number of ranks folded in (the local one included).
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when only the local rank has been folded.
    pub fn is_empty(&self) -> bool {
        self.ranks.len() <= 1
    }

    /// The cluster-wide metrics snapshot: every rank's counters and
    /// histograms folded with [`MetricsSnapshot::merge`], so the synthetic
    /// `trace.dropped_events` / `causal.dropped_events` counters sum across
    /// ranks like every other counter.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot {
            counters: Vec::new(),
            histograms: Vec::new(),
        };
        for r in &self.ranks {
            merged.merge(&r.metrics);
        }
        merged
    }

    /// Cluster metrics as JSON: the merged snapshot under `"merged"`, plus
    /// a `"per_rank"` object keyed by rank tag so per-place attribution
    /// survives aggregation.
    pub fn metrics_json(&self) -> String {
        let mut s = String::from("{\"cluster\": true, \"ranks\": [");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&r.rank.to_string());
        }
        s.push_str("], \"merged\": ");
        s.push_str(&self.merged_metrics().render_json());
        s.push_str(", \"per_rank\": {");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", r.rank, r.metrics.render_json()));
        }
        s.push_str("}}");
        s
    }

    /// Cluster metrics as text: the merged (name-sorted) dump, then one
    /// per-rank drop-count breakdown line per rank — a truncated ring
    /// anywhere in the cluster is visible, and attributable, in every
    /// aggregated report.
    pub fn metrics_text(&self) -> String {
        let mut s = format!("# cluster: {} rank(s)\n", self.ranks.len());
        s.push_str(&self.merged_metrics().render_text());
        for r in &self.ranks {
            s.push_str(&format!(
                "# rank {}: {} {}, {} {}\n",
                r.rank,
                names::TRACE_DROPPED_EVENTS,
                r.trace_dropped,
                names::CAUSAL_DROPPED_EVENTS,
                r.causal_dropped
            ));
        }
        s
    }

    /// Every rank's causal segments, timestamps already on the local
    /// timeline — the input [`CausalGraph::build`] stitches into one DAG.
    pub fn stitched_causal(&self) -> Vec<WorkerCausal> {
        let mut out: Vec<WorkerCausal> = Vec::new();
        for r in &self.ranks {
            out.extend(r.causal.iter().cloned());
        }
        out.sort_by_key(|w| (w.place, w.worker));
        out
    }

    /// The cluster-wide causal DAG (order-independent build, so segments
    /// from any number of ranks stitch naturally).
    pub fn causal_graph(&self) -> CausalGraph {
        CausalGraph::build(&self.stitched_causal())
    }

    /// The stitched critical-path report as JSON.
    pub fn critical_path_json(&self) -> String {
        causal::critical_path_json(&self.causal_graph())
    }

    /// The stitched critical-path report as text.
    pub fn critical_path_text(&self) -> String {
        causal::critical_path_text(&self.causal_graph())
    }

    /// Chrome-trace JSON with the *cluster's* flow arrows: the caller's
    /// local span traces (places map to `pid` lanes, so each rank's places
    /// form their own process lanes) plus flow events from every stitched
    /// segment — a cross-socket message draws as an arrow between rank
    /// lanes.
    pub fn chrome_trace_json(&self, local_traces: &[WorkerTrace]) -> String {
        let flows = causal::chrome_flow_events(&self.stitched_causal());
        crate::chrome::chrome_trace_with(local_traces, &flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::CausalId;

    fn rank_obs(rank: u32, base_seq: u64) -> (std::sync::Arc<Obs>, RankObs) {
        let obs = Obs::with_causal(2, false, 64, true);
        obs.causal.set_seq_base(base_seq);
        (obs.clone(), capture(&obs, rank))
    }

    #[test]
    fn capture_tags_rank_and_now() {
        let (_o, r) = rank_obs(3, 100);
        assert_eq!(r.rank, 3);
        assert!(r
            .metrics
            .counters
            .iter()
            .any(|(n, _)| n == "trace.dropped_events"));
    }

    #[test]
    fn accept_dedupes_by_rank_and_sorts() {
        let (_o0, local) = rank_obs(0, 1);
        let mut c = ClusterObs::new(local);
        let (_o1, r1) = rank_obs(1, 1 << 20);
        c.accept(r1.clone(), 10);
        c.accept(r1, 20);
        assert_eq!(c.len(), 2);
        assert_eq!(c.rank_ids(), vec![0, 1]);
        assert!(!c.is_empty());
    }

    #[test]
    fn merged_metrics_sum_drop_counters_across_ranks() {
        // Wrap rank 1's trace ring so its drop counter is nonzero.
        let obs0 = Obs::new(1, true, 16);
        let obs1 = Obs::new(1, true, 16);
        let buf = obs1.tracer.register(0);
        for i in 0..40 {
            buf.instant("t", "tick", i);
        }
        let mut c = ClusterObs::new(capture(&obs0, 0));
        c.accept(capture(&obs1, 1), 0);
        let merged = c.merged_metrics();
        let dropped = merged
            .counters
            .iter()
            .find(|(n, _)| n == names::TRACE_DROPPED_EVENTS)
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(dropped, 24, "summed across ranks");
        let text = c.metrics_text();
        assert!(text.contains("# rank 0: trace.dropped_events 0"));
        assert!(text.contains("# rank 1: trace.dropped_events 24"));
        let json = c.metrics_json();
        assert!(json.contains("\"cluster\": true"));
        assert!(json.contains("\"per_rank\""));
        assert!(json.contains("\"ranks\": [0, 1]"));
    }

    #[test]
    fn stitching_shifts_remote_timestamps_and_crosses_ranks() {
        // Rank 0 sends (seq minted in its namespace); rank 1 — a separate
        // Obs with its own epoch and seq base — records the receive of the
        // same CausalId, as the wire would deliver it.
        let obs0 = Obs::with_causal(2, false, 64, true);
        obs0.causal.set_seq_base(1);
        let obs1 = Obs::with_causal(2, false, 64, true);
        obs1.causal.set_seq_base(1 << 30);
        let b0 = obs0.tracer.register(0);
        let b1 = obs1.tracer.register(1);
        let id = obs0.causal.mint(CausalId::pack_root(0, 1));
        b0.causal_send(id, 0, 1, 0, 44);
        b1.causal_recv(id, 0, 0, 44);
        let mut c = ClusterObs::new(capture(&obs0, 0));
        // Pretend rank 1's epoch started 1 ms after rank 0's: its raw
        // timestamps are ~1 ms too small on rank 0's timeline.
        let remote = capture(&obs1, 1);
        let local_now = remote.now_ns + 1_000_000;
        c.accept(remote, local_now);
        let g = c.causal_graph();
        assert_eq!(g.len(), 1);
        let paths = g.critical_paths();
        assert_eq!(paths.len(), 1);
        let hop = &paths[0].hops[0];
        assert_eq!((hop.from, hop.to), (0, 1), "edge crosses the rank boundary");
        let json = c.critical_path_json();
        assert!(json.contains("\"from\": 0, \"to\": 1"));
        // The shifted recv timestamp keeps transport time non-negative.
        assert!(c.critical_path_text().contains("critical path 1 hop"));
    }

    #[test]
    fn chrome_export_draws_cross_rank_flows() {
        let obs0 = Obs::with_causal(2, true, 64, true);
        let obs1 = Obs::with_causal(2, true, 64, true);
        obs1.causal.set_seq_base(1 << 30);
        let b0 = obs0.tracer.register(0);
        let b1 = obs1.tracer.register(1);
        let id = obs0.causal.mint(CausalId::pack_root(0, 2));
        b0.causal_send(id, 0, 1, 0, 40);
        b1.causal_recv(id, 0, 0, 40);
        let mut c = ClusterObs::new(capture(&obs0, 0));
        c.accept(capture(&obs1, 1), obs0.causal.now_ns());
        let json = c.chrome_trace_json(&obs0.tracer.snapshot());
        assert!(json.contains("\"ph\": \"s\""), "flow start");
        assert!(json.contains("\"ph\": \"f\""), "flow finish");
        assert!(json.contains("\"pid\": 1"), "remote rank's place lane");
    }
}
