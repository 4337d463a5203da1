//! FINISH_DENSE software routing (§3.1).
//!
//! "Network stacks of supercomputers … favor communication graphs with low
//! out-degree" and are tuned for latency, but for termination detection only
//! the *last* control message matters. FINISH_DENSE therefore trades latency
//! for traffic shape: a control message from place `p` to the finish home
//! `q` is routed `p → p−p%b → q−q%b → q` (with `b` places per host), and
//! each hop *aggregates* deltas bound for the same finish. The result: the
//! finish root receives O(hosts) messages instead of O(places), and every
//! place talks to at most its host master.

use super::{Deltas, FinishId, FinishRef};
use x10rt::{IntMap, PlaceId, Topology};

/// Next hop for a dense control message currently at `here`, destined for
/// the finish home `home`. Returns `None` when `here == home` (deliver).
pub fn next_hop(topo: &Topology, here: PlaceId, home: PlaceId) -> Option<PlaceId> {
    if here == home {
        return None;
    }
    let my_master = topo.master_of(here);
    let home_master = topo.master_of(home);
    if here != my_master && here != home_master {
        // First leg: up to my host master (p − p%b).
        Some(my_master)
    } else if here != home_master {
        // Master-to-master leg (q − q%b).
        Some(home_master)
    } else {
        // Final leg: down to the home place.
        Some(home)
    }
}

/// Per-place aggregation buffer for in-flight dense control messages.
///
/// The worker merges every dense flush that arrives (or originates) during a
/// message-drain batch and forwards one combined message per finish per hop
/// when the batch ends.
#[derive(Default)]
pub struct DenseAggregator {
    pending: IntMap<FinishId, (FinishRef, Deltas)>,
}

impl DenseAggregator {
    /// Empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge `deltas` bound for `fin` into the buffer.
    pub fn absorb(&mut self, fin: FinishRef, deltas: Deltas) {
        self.pending
            .entry(fin.id)
            .or_insert_with(|| (fin, Deltas::default()))
            .1
            .merge(deltas);
    }

    /// True if anything is buffered.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Drain all buffered (finish, merged-deltas) pairs for forwarding.
    pub fn drain(&mut self) -> Vec<(FinishRef, Deltas)> {
        self.pending.drain().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(128, 32)
    }

    #[test]
    fn route_follows_paper_pattern() {
        let t = topo();
        // p=70 (host 2, master 64), home q=5 (host 0, master 0):
        // 70 → 64 → 0 → 5.
        let mut here = PlaceId(70);
        let home = PlaceId(5);
        let mut hops = vec![];
        while let Some(n) = next_hop(&t, here, home) {
            hops.push(n.0);
            here = n;
        }
        assert_eq!(hops, vec![64, 0, 5]);
    }

    #[test]
    fn route_same_host_is_direct_within_masters() {
        let t = topo();
        // p=3 and home=7 share host 0 (master 0): 3 → 0 → 7.
        let mut here = PlaceId(3);
        let mut hops = vec![];
        while let Some(n) = next_hop(&t, here, PlaceId(7)) {
            hops.push(n.0);
            here = n;
        }
        assert_eq!(hops, vec![0, 7]);
    }

    #[test]
    fn route_from_master_skips_first_leg() {
        let t = topo();
        // p=64 is a master; home 5 (master 0): 64 → 0 → 5.
        assert_eq!(next_hop(&t, PlaceId(64), PlaceId(5)), Some(PlaceId(0)));
    }

    #[test]
    fn route_terminates_at_home() {
        let t = topo();
        assert_eq!(next_hop(&t, PlaceId(5), PlaceId(5)), None);
    }

    #[test]
    fn route_home_master_to_home() {
        let t = topo();
        assert_eq!(next_hop(&t, PlaceId(0), PlaceId(5)), Some(PlaceId(5)));
    }

    #[test]
    fn max_hops_is_three() {
        let t = Topology::new(256, 32);
        for p in 0..256u32 {
            for q in (0..256u32).step_by(37) {
                let (mut here, home) = (PlaceId(p), PlaceId(q));
                let mut hops = 0;
                while let Some(n) = next_hop(&t, here, home) {
                    here = n;
                    hops += 1;
                    assert!(hops <= 3, "route {p}→{q} exceeded 3 hops");
                }
                assert_eq!(here, home);
            }
        }
    }

    #[test]
    fn aggregator_merges_per_finish() {
        let fin = FinishRef {
            id: FinishId {
                home: PlaceId(0),
                seq: 1,
            },
            kind: crate::finish::FinishKind::Dense,
        };
        let mut agg = DenseAggregator::new();
        agg.absorb(
            fin,
            Deltas {
                live: vec![(3, -1)],
                ..Deltas::default()
            },
        );
        agg.absorb(
            fin,
            Deltas {
                live: vec![(3, -2), (4, 1)],
                spawned: vec![(3, 4, 1)],
                ..Deltas::default()
            },
        );
        assert!(agg.has_pending());
        let mut out = agg.drain();
        assert_eq!(out.len(), 1);
        out[0].1.live.sort_unstable();
        assert_eq!(out[0].1.live, vec![(3, -3), (4, 1)]);
        assert_eq!(out[0].1.spawned, vec![(3, 4, 1)]);
        assert!(!agg.has_pending());
    }
}
