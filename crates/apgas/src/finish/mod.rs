//! Distributed termination detection — the implementation of X10's `finish`
//! (§3.1 of the paper).
//!
//! X10 places no restriction on nesting `at` and `async` under a `finish`,
//! so the general implementation needs a distributed termination protocol
//! tolerant of arbitrary spawn patterns and network reordering. The paper's
//! default algorithm keeps **O(n²)** state at the finish root (a
//! source×destination matrix of in-flight spawn counts) and coalesces
//! control messages; on top of it, five *specialized* protocols serve common
//! patterns:
//!
//! * [`FinishKind::Async`] — a single (possibly remote) activity;
//! * [`FinishKind::Here`] — a round trip (request out, response back);
//!   implemented here with weighted credits: a remote activity returns
//!   its credit in one control message when it dies, unless it handed all
//!   of it to its reply first. A blocking `at` does that, so its round trip
//!   is the request and the reply and no control message at all
//!   ([`crate::Ctx::at`]);
//! * [`FinishKind::Local`] — purely place-local activities (an atomic
//!   counter, zero messages);
//! * [`FinishKind::Spmd`] — remote activities that do not spawn escaping
//!   remote sub-activities: the root waits for exactly *n* termination
//!   messages;
//! * [`FinishKind::Dense`] — the default accounting, but control messages
//!   are *software-routed* through one master place per host
//!   (`p → p−p%b → q−q%b → q`) and aggregated at each hop, taming the
//!   in-degree of the root and the out-degree of every place — the paper's
//!   key to scaling UTS.
//!
//! In X10 the specializations are selected by `@Pragma` annotations (a
//! compiler analysis was prototyped but not productized); here they are
//! selected by [`crate::Ctx::finish_pragma`]. Misusing a pragma (e.g. a
//! remote spawn under `FINISH_LOCAL`) is a programming error and panics.

pub mod dense;
pub mod proxy;
pub mod root;

use x10rt::PlaceId;

/// Which termination-detection protocol governs a `finish` block.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FinishKind {
    /// The general protocol: delta-matrix counting at the root, coalesced
    /// flushes. Handles arbitrary spawn patterns. Message-free until the
    /// first remote spawn (the paper's dynamic local→distributed upgrade).
    Default,
    /// Place-local activities only. Pure counter; remote spawns panic.
    Local,
    /// One governed activity, possibly remote (`finish at(p) async S`).
    Async,
    /// A round trip (`finish at(p) async { S1; at(h) async S2 }`).
    /// Weighted-credit protocol: spawns transfer credit, deaths return it.
    Here,
    /// Root-spawned remote activities that only spawn *local* children (or
    /// use nested finishes). Root counts done-messages; order, source and
    /// content of each message are irrelevant.
    Spmd,
    /// Default accounting with host-master software routing + hop
    /// aggregation for dense/irregular communication graphs.
    Dense,
    /// Resilient finish (Resilient X10 semantics): the default matrix
    /// accounting plus place-death survival. The root replicates a per-root
    /// liveness snapshot to a backup place, **adopts** the orphaned
    /// accounting of a dead place (drops every matrix/live component that
    /// names it), and **re-executes** registered command-bodied spawns that
    /// were destined to the dead place (closure bodies are unrecoverable
    /// and are simply abandoned). See DESIGN.md §6.
    Resilient,
}

impl FinishKind {
    /// Label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            FinishKind::Default => "FINISH_DEFAULT",
            FinishKind::Local => "FINISH_LOCAL",
            FinishKind::Async => "FINISH_ASYNC",
            FinishKind::Here => "FINISH_HERE",
            FinishKind::Spmd => "FINISH_SPMD",
            FinishKind::Dense => "FINISH_DENSE",
            FinishKind::Resilient => "FINISH_RESILIENT",
        }
    }
}

/// Globally unique identity of a finish: its home place plus a sequence
/// number drawn from the home place's counter.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct FinishId {
    /// Place where the `finish` block executes and waits.
    pub home: PlaceId,
    /// Home-local sequence number.
    pub seq: u64,
}

/// What travels with a spawned activity: the finish identity and protocol.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FinishRef {
    /// Identity (routing target for control messages).
    pub id: FinishId,
    /// Protocol.
    pub kind: FinishKind,
}

/// Credit minted per root-level spawn under [`FinishKind::Here`]. Each
/// transitive spawn halves the spawner's remaining credit, so a chain ~62
/// deep exhausts it (round trips are depth 2; deeper chains should use the
/// default protocol).
pub const HERE_WEIGHT_UNIT: u64 = 1 << 62;

/// How an activity is attached to termination detection.
#[derive(Clone, Debug)]
pub enum Attach {
    /// Not tracked (X10 `@Uncounted`): used for traffic that is deliberately
    /// invisible to `finish`, e.g. GLB random-steal handshakes.
    Uncounted,
    /// Governed by a finish.
    Counted {
        /// The governing finish.
        fin: FinishRef,
        /// Remaining credit (FINISH_HERE only; 0 otherwise).
        weight: u64,
        /// Did this activity cross the network? (FINISH_SPMD done-counting
        /// reports completions of *received* activities.)
        remote: bool,
    },
}

/// Coalesced termination-control deltas reported to a finish root
/// (default/dense protocols). All fields are cumulative deltas since the
/// previous flush and carry explicit place attribution, so deltas from
/// *different* reporting places can be hop-merged (FINISH_DENSE) and the
/// root applies them additively — flushes commute and the protocol
/// tolerates arbitrary message reordering.
#[derive(Default, Debug)]
pub struct Deltas {
    /// Spawn edges reported: `(src, dst, count)` activities launched from
    /// `src` toward `dst`.
    pub spawned: Vec<(u32, u32, u64)>,
    /// Receipt edges reported: `(src, dst, count)` activities that arrived
    /// at `dst` from `src`.
    pub recv: Vec<(u32, u32, u64)>,
    /// Per-place live deltas: receipts + local spawns − deaths.
    pub live: Vec<(u32, i64)>,
    /// Panics raised by governed activities.
    pub panics: Vec<String>,
}

impl Deltas {
    /// True if the delta carries no information.
    pub fn is_empty(&self) -> bool {
        self.spawned.is_empty()
            && self.recv.is_empty()
            && self.live.iter().all(|&(_, d)| d == 0)
            && self.panics.is_empty()
    }

    /// Merge another delta into this one (hop aggregation for FINISH_DENSE).
    pub fn merge(&mut self, other: Deltas) {
        merge_edges(&mut self.spawned, other.spawned);
        merge_edges(&mut self.recv, other.recv);
        for (p, d) in other.live {
            if let Some(e) = self.live.iter_mut().find(|(ep, _)| *ep == p) {
                e.1 += d;
            } else {
                self.live.push((p, d));
            }
        }
        self.panics.extend(other.panics);
    }

    /// Modeled wire size of the delta body.
    pub fn wire_size(&self) -> usize {
        16 + 16 * (self.spawned.len() + self.recv.len())
            + 12 * self.live.len()
            + self.panics.iter().map(|p| p.len()).sum::<usize>()
    }
}

fn merge_edges(into: &mut Vec<(u32, u32, u64)>, from: Vec<(u32, u32, u64)>) {
    for (s, d, v) in from {
        if let Some(e) = into.iter_mut().find(|(es, ed, _)| *es == s && *ed == d) {
            e.2 += v;
        } else {
            into.push((s, d, v));
        }
    }
}

/// A re-executable description of a command-bodied spawn, registered with a
/// resilient finish root before the task is shipped. If the destination
/// place dies before the finish completes, the root re-runs the command
/// locally (the PR 9 codec guarantees the body is a pure `(handler, args)`
/// pair, so "re-send the command" is always possible). Handlers used under
/// resilient finish must therefore be **idempotent and location-independent**.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmdDescriptor {
    /// Root-assigned unique id (for app-level reply dedup).
    pub id: u64,
    /// Place the command was originally destined to.
    pub dest: u32,
    /// Registered handler id (`HandlerId`).
    pub handler: u32,
    /// Encoded argument bytes.
    pub args: Vec<u8>,
}

/// Compact liveness snapshot a resilient root replicates to its backup
/// place. Deliberately small: enough for an observer (status plane, future
/// root-death recovery) to know the finish existed and how much was
/// outstanding, piggybacked on `FinishCtl` traffic.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BackupSnapshot {
    /// Nonzero matrix + live components outstanding at snapshot time.
    pub nonzero: u64,
    /// Registered command descriptors outstanding at snapshot time.
    pub pending: u64,
}

/// Finish-protocol control messages (MsgClass::FinishCtl on the wire).
pub enum FinishMsg {
    /// Default protocol: a place's coalesced deltas, sent directly to the
    /// finish home.
    Flush {
        /// Target finish.
        fin: FinishRef,
        /// The deltas.
        deltas: Deltas,
    },
    /// Dense protocol: deltas being software-routed via host masters.
    DenseHop {
        /// Target finish.
        fin: FinishRef,
        /// The (possibly hop-merged) deltas.
        deltas: Deltas,
    },
    /// SPMD/Async: `completions` governed *received* activities finished at
    /// the sender.
    Done {
        /// Target finish.
        fin: FinishRef,
        /// Number of completions being acknowledged.
        completions: u64,
        /// Panics from those activities.
        panics: Vec<String>,
    },
    /// Here: a dying remote activity returns its remaining credit (none
    /// is sent by one that handed all of it to a blocking `at`'s reply).
    CreditReturn {
        /// Target finish.
        fin: FinishRef,
        /// Returned credit.
        weight: u64,
        /// Panic raised by the dying activity, if any.
        panic: Option<String>,
    },
    /// Resilient: the root replicates its liveness snapshot to the backup
    /// place (home+1 mod places). Sent at finish open and opportunistically
    /// when the outstanding state changes shape.
    BackupSync {
        /// The finish being backed up.
        fin: FinishRef,
        /// The snapshot.
        snapshot: BackupSnapshot,
    },
    /// Resilient: the finish completed; the backup place may discard its
    /// snapshot.
    BackupRelease {
        /// The finish being released.
        fin: FinishRef,
    },
    /// Resilient: a *remote* spawner logs a command-bodied spawn with the
    /// root before shipping the task, so the root can re-execute it if the
    /// destination dies. (Home-side spawns register directly, no message.)
    CmdLog {
        /// Target finish.
        fin: FinishRef,
        /// The re-executable descriptor.
        cmd: CmdDescriptor,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_merge_accumulates_with_attribution() {
        let mut a = Deltas {
            spawned: vec![(5, 1, 2), (5, 2, 1)],
            recv: vec![(0, 5, 3)],
            live: vec![(5, 1)],
            panics: vec!["x".into()],
        };
        let b = Deltas {
            spawned: vec![(5, 1, 1), (6, 3, 5)],
            recv: vec![(0, 6, 1)],
            live: vec![(5, -1), (6, 2)],
            panics: vec![],
        };
        a.merge(b);
        a.spawned.sort_unstable();
        a.recv.sort_unstable();
        a.live.sort_unstable();
        assert_eq!(a.spawned, vec![(5, 1, 3), (5, 2, 1), (6, 3, 5)]);
        assert_eq!(a.recv, vec![(0, 5, 3), (0, 6, 1)]);
        assert_eq!(a.live, vec![(5, 0), (6, 2)]);
        assert_eq!(a.panics.len(), 1);
    }

    #[test]
    fn empty_deltas_detected() {
        assert!(Deltas::default().is_empty());
        let d = Deltas {
            live: vec![(0, 1)],
            ..Deltas::default()
        };
        assert!(!d.is_empty());
        let zero_live = Deltas {
            live: vec![(0, 0)],
            ..Deltas::default()
        };
        assert!(zero_live.is_empty());
    }

    #[test]
    fn wire_size_grows_with_entries() {
        let d0 = Deltas::default();
        let d1 = Deltas {
            spawned: vec![(0, 1, 1)],
            ..Deltas::default()
        };
        assert!(d1.wire_size() > d0.wire_size());
    }
}
