//! Proxy-side (non-home place) accounting for the distributed finish
//! protocols, including the paper's message **coalescing**: a place batches
//! its termination-control deltas and pushes them to the root only when its
//! local live count reaches zero (or the buffer grows past a threshold) —
//! one message summarizing many spawn/receive/death events.

use super::{Deltas, FinishKind, FinishRef};
use x10rt::IntMap;

/// Flush threshold for finish-protocol delta coalescing: a place pushes its
/// accumulated termination-control deltas to the finish root when its local
/// live count reaches zero *or* the buffer covers more than this many peer
/// places (see [`Proxy::maybe_flush_threshold`]).
pub const FLUSH_ENTRIES: usize = 64;

/// What the place must transmit after a proxy state change.
#[derive(Debug)]
pub enum ProxyEmit {
    /// Nothing to send yet.
    None,
    /// Default protocol: send these deltas straight to the finish home.
    Flush(Deltas),
    /// Dense protocol: route these deltas via the host masters.
    DenseFlush(Deltas),
    /// SPMD/Async: acknowledge this many received-activity completions.
    Done {
        /// Completions being acknowledged.
        completions: u64,
        /// Panics raised by those activities.
        panics: Vec<String>,
    },
}

/// Per-(place, finish) proxy state. Exists only at non-home places and only
/// for protocols that need place-side state (Default, Dense, Spmd, Async);
/// FINISH_HERE is stateless at proxies (credits travel with activities) and
/// FINISH_LOCAL never leaves its home.
pub struct Proxy {
    /// The finish this proxy reports to.
    pub fin: FinishRef,
    /// This proxy's place.
    pub here: u32,
    /// Governed activities currently at this place (queued or running).
    pub live: u64,
    spawned_to: IntMap<u32, u64>,
    recv_from: IntMap<u32, u64>,
    local_spawned: u64,
    died: u64,
    done_recv: u64,
    panics: Vec<String>,
}

impl Proxy {
    /// Fresh proxy for `fin` at place `here`.
    pub fn new(fin: FinishRef, here: u32) -> Self {
        Proxy {
            fin,
            here,
            live: 0,
            spawned_to: IntMap::default(),
            recv_from: IntMap::default(),
            local_spawned: 0,
            died: 0,
            done_recv: 0,
            panics: Vec::new(),
        }
    }

    fn is_matrix_kind(&self) -> bool {
        matches!(
            self.fin.kind,
            FinishKind::Default | FinishKind::Dense | FinishKind::Resilient
        )
    }

    /// A governed activity arrived from `src`.
    pub fn on_receive(&mut self, src: u32) {
        self.live += 1;
        if self.is_matrix_kind() {
            *self.recv_from.entry(src).or_insert(0) += 1;
        }
    }

    /// A governed activity was spawned locally at this place.
    pub fn on_local_spawn(&mut self) {
        match self.fin.kind {
            FinishKind::Default | FinishKind::Dense | FinishKind::Resilient => {
                self.live += 1;
                self.local_spawned += 1;
            }
            FinishKind::Spmd => {
                // Allowed: remote SPMD activities may fork local helpers;
                // they simply delay this place's done-message.
                self.live += 1;
            }
            k => panic!(
                "{} pragma violated: local sub-spawn at a non-home place",
                k.label()
            ),
        }
    }

    /// A governed activity here spawned to remote place `dst`.
    ///
    /// Only the matrix protocols permit escaping remote sub-spawns — their
    /// absence is exactly what makes SPMD/Async termination counting cheap.
    pub fn on_remote_spawn(&mut self, dst: u32) {
        match self.fin.kind {
            FinishKind::Default | FinishKind::Dense | FinishKind::Resilient => {
                *self.spawned_to.entry(dst).or_insert(0) += 1;
            }
            k => panic!(
                "{} pragma violated: remote spawn from a non-home place",
                k.label()
            ),
        }
    }

    /// A governed activity completed at this place. `remote` says whether it
    /// originally crossed the network (SPMD done-counting acknowledges only
    /// those). Returns what to transmit.
    pub fn on_death(&mut self, remote: bool, panic: Option<String>) -> ProxyEmit {
        debug_assert!(self.live > 0, "death without live activity");
        self.live -= 1;
        if let Some(p) = panic {
            self.panics.push(p);
        }
        match self.fin.kind {
            FinishKind::Default | FinishKind::Dense | FinishKind::Resilient => {
                self.died += 1;
                if self.live == 0 {
                    self.take_flush()
                } else {
                    ProxyEmit::None
                }
            }
            FinishKind::Spmd | FinishKind::Async => {
                if remote {
                    self.done_recv += 1;
                }
                if self.live == 0 && (self.done_recv > 0 || !self.panics.is_empty()) {
                    ProxyEmit::Done {
                        completions: std::mem::take(&mut self.done_recv),
                        panics: std::mem::take(&mut self.panics),
                    }
                } else {
                    ProxyEmit::None
                }
            }
            k => unreachable!("proxy death under {k:?}"),
        }
    }

    /// Coalescing bound: flush early if the delta buffer spans more than
    /// `max_entries` peer places (matrix protocols only — safe because
    /// partial flushes leave a positive live count at the root).
    pub fn maybe_flush_threshold(&mut self, max_entries: usize) -> ProxyEmit {
        if self.is_matrix_kind() && self.spawned_to.len() + self.recv_from.len() > max_entries {
            self.take_flush()
        } else {
            ProxyEmit::None
        }
    }

    fn take_flush(&mut self) -> ProxyEmit {
        let here = self.here;
        let recv_total: u64 = self.recv_from.values().sum();
        let started = recv_total + self.local_spawned;
        let deltas = Deltas {
            spawned: self.spawned_to.drain().map(|(d, k)| (here, d, k)).collect(),
            recv: self.recv_from.drain().map(|(s, k)| (s, here, k)).collect(),
            live: vec![(here, started as i64 - self.died as i64)],
            panics: std::mem::take(&mut self.panics),
        };
        self.local_spawned = 0;
        self.died = 0;
        if deltas.is_empty() {
            return ProxyEmit::None;
        }
        match self.fin.kind {
            FinishKind::Dense => ProxyEmit::DenseFlush(deltas),
            _ => ProxyEmit::Flush(deltas),
        }
    }

    /// True when the proxy holds no state and can be dropped from the table.
    pub fn is_idle(&self) -> bool {
        self.live == 0
            && self.spawned_to.is_empty()
            && self.recv_from.is_empty()
            && self.local_spawned == 0
            && self.died == 0
            && self.done_recv == 0
            && self.panics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finish::FinishId;
    use x10rt::PlaceId;

    const HERE: u32 = 5;

    fn fin(kind: FinishKind) -> FinishRef {
        FinishRef {
            id: FinishId {
                home: PlaceId(0),
                seq: 7,
            },
            kind,
        }
    }

    #[test]
    fn default_flushes_on_zero_live() {
        let mut p = Proxy::new(fin(FinishKind::Default), HERE);
        p.on_receive(0);
        p.on_local_spawn();
        assert!(matches!(p.on_death(true, None), ProxyEmit::None));
        match p.on_death(false, None) {
            ProxyEmit::Flush(d) => {
                assert_eq!(d.recv, vec![(0, HERE, 1)]);
                // 1 receipt + 1 local spawn − 2 deaths = 0
                assert_eq!(d.live, vec![(HERE, 0)]);
            }
            e => panic!("expected flush, got {e:?}"),
        }
        assert!(p.is_idle());
    }

    #[test]
    fn dense_emits_routed_flush() {
        let mut p = Proxy::new(fin(FinishKind::Dense), HERE);
        p.on_receive(2);
        assert!(matches!(p.on_death(true, None), ProxyEmit::DenseFlush(_)));
    }

    #[test]
    fn spmd_acknowledges_only_received() {
        let mut p = Proxy::new(fin(FinishKind::Spmd), HERE);
        p.on_receive(0);
        p.on_local_spawn(); // local helper
        p.on_local_spawn();
        // received activity dies first; helpers still live → no Done yet
        assert!(matches!(p.on_death(true, None), ProxyEmit::None));
        assert!(matches!(p.on_death(false, None), ProxyEmit::None));
        match p.on_death(false, None) {
            ProxyEmit::Done { completions, .. } => assert_eq!(completions, 1),
            e => panic!("expected done, got {e:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "FINISH_SPMD pragma violated")]
    fn spmd_rejects_escaping_remote_spawn() {
        let mut p = Proxy::new(fin(FinishKind::Spmd), HERE);
        p.on_receive(0);
        p.on_remote_spawn(3);
    }

    #[test]
    fn threshold_flush_partial_then_final() {
        let mut p = Proxy::new(fin(FinishKind::Default), HERE);
        p.on_receive(0);
        for d in 0..10 {
            p.on_remote_spawn(d);
        }
        match p.maybe_flush_threshold(4) {
            ProxyEmit::Flush(d) => {
                assert_eq!(d.spawned.len(), 10);
                assert!(d.spawned.iter().all(|&(s, _, k)| s == HERE && k == 1));
                // receipt reported, no death yet: live +1
                assert_eq!(d.live, vec![(HERE, 1)]);
            }
            e => panic!("expected flush, got {e:?}"),
        }
        assert!(!p.is_idle());
        match p.on_death(true, None) {
            ProxyEmit::Flush(d) => assert_eq!(d.live, vec![(HERE, -1)]),
            e => panic!("expected flush, got {e:?}"),
        }
        assert!(p.is_idle());
    }

    #[test]
    fn panics_ride_the_flush() {
        let mut p = Proxy::new(fin(FinishKind::Spmd), HERE);
        p.on_receive(0);
        match p.on_death(true, Some("kaboom".into())) {
            ProxyEmit::Done { panics, .. } => assert_eq!(panics, vec!["kaboom".to_string()]),
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn below_threshold_no_flush() {
        let mut p = Proxy::new(fin(FinishKind::Default), HERE);
        p.on_receive(0);
        p.on_remote_spawn(1);
        assert!(matches!(p.maybe_flush_threshold(4), ProxyEmit::None));
    }
}
