//! Root-side state of a `finish`: the accounting that decides global
//! termination.
//!
//! One [`RootState`] lives at the finish's home place for the lifetime of
//! the block. Events originating *at the home place* (the body's own spawns
//! and deaths, activities arriving at home) are applied directly — this is
//! the paper's "optimistically assume the finish is local" behaviour: a
//! finish that never spawns remotely costs zero messages and O(1) state.
//! Events at other places arrive as [`super::FinishMsg`]s and are applied
//! here by the home worker's message loop.
//!
//! # Why the default protocol is sound
//!
//! The root keeps, per (source, destination) pair, the number of reported
//! spawns minus reported receipts (`matrix`), and per place the number of
//! reported receipts+local spawns minus reported deaths (`live`). Places
//! report *cumulative deltas*; addition commutes, so reordered flushes are
//! harmless. A place only withholds a death report while its local live
//! count is non-zero or the flush is in flight. Induction over the spawn
//! chain of any live/unreported activity shows some matrix or live entry at
//! the root is non-zero (its spawn edge is either reported-but-unmatched, or
//! unreported because an *earlier* activity in the chain has not flushed its
//! death yet, recursively up to the body itself, which is covered by
//! `body_done`). Hence `matrix ≡ 0 ∧ live ≡ 0 ∧ body_done` implies global
//! quiescence, and liveness follows because every place flushes when its
//! live count reaches zero.

use super::{BackupSnapshot, CmdDescriptor, Deltas, FinishId, FinishKind};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use x10rt::IntMap;

/// Root-side termination-detection state for one `finish` block. Only the
/// home place's worker ever touches it, so it takes no lock: other threads
/// see the counts the worker publishes to its `PlaceState`.
pub struct RootState {
    /// Protocol variant.
    pub kind: FinishKind,
    /// Identity.
    pub id: FinishId,
    inner: RefCell<Inner>,
    done: Cell<bool>,
    /// Count of accounting events applied to this root, in any protocol —
    /// the liveness signal the finish watchdog watches: as long as this
    /// advances, termination detection is making progress and the watchdog
    /// deadline keeps being extended.
    events: Cell<u64>,
}

#[derive(Default)]
struct Inner {
    body_done: bool,
    // -- Default / Dense / Resilient --
    matrix: IntMap<(u32, u32), i64>,
    nonzero_matrix: usize,
    live: IntMap<u32, i64>,
    nonzero_live: usize,
    // -- Resilient: adopted dead places + re-executable command log --
    adopted: HashSet<u32>,
    pending_cmds: Vec<CmdDescriptor>,
    // -- Spmd / Async --
    spawned_remote: u64,
    completed_remote: u64,
    total_spawns: u64,
    // -- Local / Spmd / Async / Here: body-local activities --
    home_live: u64,
    // -- Here (weighted credits; u128 because the root mints 2^62 per spawn)
    weight_out: u128,
    weight_back: u128,
    panics: Vec<String>,
}

fn bump(map: &mut IntMap<(u32, u32), i64>, nonzero: &mut usize, key: (u32, u32), d: i64) {
    let e = map.entry(key).or_insert(0);
    let was = *e != 0;
    *e += d;
    let is = *e != 0;
    match (was, is) {
        (false, true) => *nonzero += 1,
        (true, false) => *nonzero -= 1,
        _ => {}
    }
}

fn bump1(map: &mut IntMap<u32, i64>, nonzero: &mut usize, key: u32, d: i64) {
    let e = map.entry(key).or_insert(0);
    let was = *e != 0;
    *e += d;
    let is = *e != 0;
    match (was, is) {
        (false, true) => *nonzero += 1,
        (true, false) => *nonzero -= 1,
        _ => {}
    }
}

impl RootState {
    /// Fresh root for a finish of `kind` with identity `id`.
    pub fn new(kind: FinishKind, id: FinishId) -> Self {
        RootState {
            kind,
            id,
            inner: RefCell::new(Inner::default()),
            done: Cell::new(false),
            events: Cell::new(0),
        }
    }

    /// Has global termination been detected?
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.get()
    }

    /// Number of accounting events applied so far (watchdog liveness
    /// signal).
    #[inline]
    pub fn progress_events(&self) -> u64 {
        self.events.get()
    }

    #[inline]
    fn progressed(&self) {
        self.events.set(self.events.get() + 1);
    }

    fn check(&self, g: &Inner) {
        if !g.body_done {
            return;
        }
        let quiescent = match self.kind {
            FinishKind::Local => g.home_live == 0,
            FinishKind::Async | FinishKind::Spmd => {
                g.home_live == 0 && g.completed_remote == g.spawned_remote
            }
            FinishKind::Here => g.home_live == 0 && g.weight_back == g.weight_out,
            FinishKind::Default | FinishKind::Dense | FinishKind::Resilient => {
                g.nonzero_matrix == 0 && g.nonzero_live == 0
            }
        };
        if quiescent {
            self.done.set(true);
        }
    }

    fn enforce_async_arity(&self, g: &Inner) {
        if self.kind == FinishKind::Async && g.total_spawns > 1 {
            panic!(
                "FINISH_ASYNC pragma violated: {} activities spawned under a \
                 finish that governs exactly one",
                g.total_spawns
            );
        }
    }

    /// The body spawned an activity at the home place.
    pub fn note_local_spawn(&self, home: u32) {
        self.progressed();
        let mut g = self.inner.borrow_mut();
        g.total_spawns += 1;
        self.enforce_async_arity(&g);
        match self.kind {
            FinishKind::Default | FinishKind::Dense | FinishKind::Resilient => {
                let Inner {
                    live, nonzero_live, ..
                } = &mut *g;
                bump1(live, nonzero_live, home, 1);
            }
            _ => g.home_live += 1,
        }
    }

    /// A body-local (home) activity completed.
    pub fn note_local_death(&self, home: u32, panic: Option<String>) {
        self.progressed();
        let mut g = self.inner.borrow_mut();
        if let Some(p) = panic {
            g.panics.push(p);
        }
        match self.kind {
            FinishKind::Default | FinishKind::Dense | FinishKind::Resilient => {
                let Inner {
                    live, nonzero_live, ..
                } = &mut *g;
                bump1(live, nonzero_live, home, -1);
            }
            _ => {
                debug_assert!(g.home_live > 0, "home death without spawn");
                g.home_live -= 1;
            }
        }
        self.check(&g);
    }

    /// The home place spawned an activity to remote place `dst`.
    /// Returns the credit the activity must carry (FINISH_HERE only).
    pub fn note_remote_spawn(&self, home: u32, dst: u32) -> u64 {
        self.progressed();
        let mut g = self.inner.borrow_mut();
        g.total_spawns += 1;
        self.enforce_async_arity(&g);
        match self.kind {
            FinishKind::Default | FinishKind::Dense | FinishKind::Resilient => {
                if self.kind == FinishKind::Resilient && g.adopted.contains(&dst) {
                    // Destination already adopted: the spawn is stillborn
                    // (the send will fail at the transport); keep it out of
                    // the matrix so it cannot block termination.
                    return 0;
                }
                let Inner {
                    matrix,
                    nonzero_matrix,
                    ..
                } = &mut *g;
                bump(matrix, nonzero_matrix, (home, dst), 1);
                0
            }
            FinishKind::Async | FinishKind::Spmd => {
                g.spawned_remote += 1;
                0
            }
            FinishKind::Here => {
                g.weight_out += super::HERE_WEIGHT_UNIT as u128;
                super::HERE_WEIGHT_UNIT
            }
            FinishKind::Local => {
                panic!("FINISH_LOCAL pragma violated: remote spawn to place {dst}")
            }
        }
    }

    /// An activity governed by this finish arrived at the home place from
    /// `src` (default/dense bookkeeping; weighted arrivals report at death).
    pub fn note_home_receive(&self, home: u32, src: u32) {
        self.progressed();
        let mut g = self.inner.borrow_mut();
        match self.kind {
            FinishKind::Default | FinishKind::Dense | FinishKind::Resilient => {
                // If the source was adopted its spawn edge was zeroed (or
                // never reported): skip the matrix decrement, but the
                // activity really is here and its death will decrement
                // live[home], so the live increment must still happen.
                let adopted_src = self.kind == FinishKind::Resilient && g.adopted.contains(&src);
                let Inner {
                    matrix,
                    nonzero_matrix,
                    live,
                    nonzero_live,
                    ..
                } = &mut *g;
                if !adopted_src {
                    bump(matrix, nonzero_matrix, (src, home), -1);
                }
                bump1(live, nonzero_live, home, 1);
            }
            FinishKind::Here => {}
            k => debug_assert!(false, "unexpected home receive under {k:?}"),
        }
    }

    /// A weighted (FINISH_HERE) activity died at the home place.
    pub fn note_home_weighted_death(&self, weight: u64, panic: Option<String>) {
        self.progressed();
        let mut g = self.inner.borrow_mut();
        if let Some(p) = panic {
            g.panics.push(p);
        }
        g.weight_back += weight as u128;
        self.check(&g);
    }

    /// Apply a coalesced (possibly hop-merged) delta flush (default/dense/
    /// resilient). Under resilient finish, components naming an adopted
    /// (dead) place are dropped: the reconstruction already zeroed their
    /// contribution, so late stragglers must not drive entries negative.
    pub fn apply_deltas(&self, deltas: Deltas) {
        self.progressed();
        let is_res = self.kind == FinishKind::Resilient;
        let mut g = self.inner.borrow_mut();
        let Inner {
            matrix,
            nonzero_matrix,
            live,
            nonzero_live,
            panics,
            adopted,
            ..
        } = &mut *g;
        let skip = |p: u32| is_res && adopted.contains(&p);
        for (src, dst, k) in &deltas.spawned {
            if skip(*src) || skip(*dst) {
                continue;
            }
            bump(matrix, nonzero_matrix, (*src, *dst), *k as i64);
        }
        for (src, dst, k) in &deltas.recv {
            if skip(*src) || skip(*dst) {
                continue;
            }
            bump(matrix, nonzero_matrix, (*src, *dst), -(*k as i64));
        }
        for (p, d) in &deltas.live {
            if skip(*p) {
                continue;
            }
            bump1(live, nonzero_live, *p, *d);
        }
        panics.extend(deltas.panics);
        self.check(&g);
    }

    /// Apply an SPMD/Async done-message acknowledging `completions` received
    /// activities.
    pub fn apply_done(&self, completions: u64, panics: Vec<String>) {
        self.progressed();
        let mut g = self.inner.borrow_mut();
        g.completed_remote += completions;
        g.panics.extend(panics);
        debug_assert!(
            g.completed_remote <= g.spawned_remote,
            "more completions than spawns — FINISH_{:?} pragma violated",
            self.kind
        );
        self.check(&g);
    }

    /// Apply a returned credit (FINISH_HERE).
    pub fn apply_credit(&self, weight: u64, panic: Option<String>) {
        self.progressed();
        let mut g = self.inner.borrow_mut();
        if let Some(p) = panic {
            g.panics.push(p);
        }
        g.weight_back += weight as u128;
        debug_assert!(g.weight_back <= g.weight_out, "credit overflow");
        self.check(&g);
    }

    /// Register a re-executable command descriptor with a resilient root
    /// (home-side spawns call this directly before the task is shipped).
    pub fn register_cmd(&self, cmd: CmdDescriptor) {
        debug_assert_eq!(self.kind, FinishKind::Resilient);
        self.inner.borrow_mut().pending_cmds.push(cmd);
    }

    /// Apply a remote spawner's `CmdLog`. Returns the descriptor back when
    /// its destination has already been adopted — the caller must re-execute
    /// it immediately (the reconstruction pass that would have picked it up
    /// has already run). The re-execution is pre-accounted here, for the
    /// same reason as in [`RootState::reconstruct`]: the done latch must
    /// not fire before the caller's enqueue.
    pub fn apply_cmd_log(&self, cmd: CmdDescriptor) -> Option<CmdDescriptor> {
        self.progressed();
        let mut g = self.inner.borrow_mut();
        if g.adopted.contains(&cmd.dest) {
            g.total_spawns += 1;
            let home = self.id.home.0;
            let Inner {
                live, nonzero_live, ..
            } = &mut *g;
            bump1(live, nonzero_live, home, 1);
            Some(cmd)
        } else {
            g.pending_cmds.push(cmd);
            None
        }
    }

    /// Number of dead places this root has adopted.
    pub fn adopted_places(&self) -> usize {
        self.inner.borrow().adopted.len()
    }

    /// Cheap pre-check for [`RootState::reconstruct`]: true when the
    /// runtime reports more dead places than this root has adopted.
    #[inline]
    pub fn needs_reconstruct(&self, dead_count: usize) -> bool {
        self.kind == FinishKind::Resilient && self.adopted_places() < dead_count
    }

    /// Adopt the orphaned accounting of newly-dead places: zero every
    /// matrix/live component naming them (their reports will never arrive,
    /// and any already-applied contribution is void) and hand back the
    /// registered command descriptors destined to them, for re-execution at
    /// the home place. Returns `None` when every listed place was already
    /// adopted. Closure-bodied lost activities have no descriptor and are
    /// abandoned — only command-bodied work is re-executed.
    pub fn reconstruct(&self, dead: &[u32]) -> Option<Vec<CmdDescriptor>> {
        debug_assert_eq!(self.kind, FinishKind::Resilient);
        let mut g = self.inner.borrow_mut();
        let fresh: Vec<u32> = dead
            .iter()
            .copied()
            .filter(|p| !g.adopted.contains(p))
            .collect();
        if fresh.is_empty() {
            return None;
        }
        g.adopted.extend(fresh.iter().copied());
        let dead_keys: Vec<(u32, u32)> = g
            .matrix
            .iter()
            .filter(|(&(s, d), &v)| v != 0 && (fresh.contains(&s) || fresh.contains(&d)))
            .map(|(&k, _)| k)
            .collect();
        {
            let Inner {
                matrix,
                nonzero_matrix,
                live,
                nonzero_live,
                ..
            } = &mut *g;
            for k in dead_keys {
                let v = matrix[&k];
                bump(matrix, nonzero_matrix, k, -v);
            }
            for &p in &fresh {
                let v = live.get(&p).copied().unwrap_or(0);
                if v != 0 {
                    bump1(live, nonzero_live, p, -v);
                }
            }
        }
        let (lost, kept): (Vec<_>, Vec<_>) = g
            .pending_cmds
            .drain(..)
            .partition(|c| fresh.contains(&c.dest));
        g.pending_cmds = kept;
        // Pre-account the re-executions before `check` below. Zeroing the
        // dead edges can leave the matrix momentarily all-zero while the
        // lost commands are about to be re-injected; `done` is a latch
        // (all-zero is terminal in normal operation), so `check` must
        // never see that fake quiescent state. The caller re-executes each
        // returned descriptor without a further spawn note.
        if !lost.is_empty() {
            g.total_spawns += lost.len() as u64;
            let home = self.id.home.0;
            let Inner {
                live, nonzero_live, ..
            } = &mut *g;
            bump1(live, nonzero_live, home, lost.len() as i64);
        }
        self.progressed();
        self.check(&g);
        Some(lost)
    }

    /// Compact liveness snapshot for backup replication.
    pub fn backup_snapshot(&self) -> BackupSnapshot {
        let g = self.inner.borrow();
        BackupSnapshot {
            nonzero: (g.nonzero_matrix + g.nonzero_live) as u64,
            pending: g.pending_cmds.len() as u64,
        }
    }

    /// The finish body returned; termination may now be declared.
    pub fn set_body_done(&self) {
        self.progressed();
        let mut g = self.inner.borrow_mut();
        g.body_done = true;
        self.check(&g);
    }

    /// Drain accumulated panics (called once by the waiter after `is_done`).
    pub fn take_panics(&self) -> Vec<String> {
        std::mem::take(&mut self.inner.borrow_mut().panics)
    }

    /// Root-state footprint in matrix entries (for the O(n²) demonstration).
    pub fn matrix_entries(&self) -> usize {
        self.inner.borrow().matrix.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x10rt::PlaceId;

    fn root(kind: FinishKind) -> RootState {
        RootState::new(
            kind,
            FinishId {
                home: PlaceId(0),
                seq: 1,
            },
        )
    }

    #[test]
    fn empty_finish_terminates_on_body_done() {
        let r = root(FinishKind::Default);
        assert!(!r.is_done());
        r.set_body_done();
        assert!(r.is_done());
    }

    #[test]
    fn local_spawn_blocks_until_death() {
        let r = root(FinishKind::Default);
        r.note_local_spawn(0);
        r.set_body_done();
        assert!(!r.is_done());
        r.note_local_death(0, None);
        assert!(r.is_done());
    }

    #[test]
    fn default_remote_roundtrip_via_flushes() {
        // home spawns to 3; 3 receives, dies, flushes.
        let r = root(FinishKind::Default);
        r.note_remote_spawn(0, 3);
        r.set_body_done();
        assert!(!r.is_done());
        r.apply_deltas(Deltas {
            recv: vec![(0, 3, 1)],
            live: vec![(3, 0)], // one receipt, one death
            ..Deltas::default()
        });
        assert!(r.is_done());
    }

    #[test]
    fn default_tolerates_receipt_before_spawn_report() {
        // Place 2 spawned to place 3; place 3's flush of the receipt+death
        // may arrive before place 2's spawn report — here: before.
        let r = root(FinishKind::Default);
        r.note_remote_spawn(0, 2);
        r.set_body_done();
        // 3's report arrives first: matrix (2,3) goes negative.
        r.apply_deltas(Deltas {
            recv: vec![(2, 3, 1)],
            live: vec![(3, 0)],
            ..Deltas::default()
        });
        assert!(!r.is_done());
        // 2's report: receipt of home's spawn, its own spawn to 3, death.
        r.apply_deltas(Deltas {
            recv: vec![(0, 2, 1)],
            spawned: vec![(2, 3, 1)],
            live: vec![(2, 0)],
            ..Deltas::default()
        });
        assert!(r.is_done());
    }

    #[test]
    fn spmd_counts_exact_done_messages() {
        let r = root(FinishKind::Spmd);
        for d in 1..=4 {
            r.note_remote_spawn(0, d);
        }
        r.set_body_done();
        for _ in 0..3 {
            r.apply_done(1, vec![]);
            assert!(!r.is_done());
        }
        r.apply_done(1, vec![]);
        assert!(r.is_done());
    }

    #[test]
    fn spmd_batched_done() {
        let r = root(FinishKind::Spmd);
        for _ in 0..5 {
            r.note_remote_spawn(0, 1);
        }
        r.set_body_done();
        r.apply_done(5, vec![]);
        assert!(r.is_done());
    }

    #[test]
    fn here_credits_balance() {
        let r = root(FinishKind::Here);
        let w = r.note_remote_spawn(0, 1);
        r.set_body_done();
        // remote activity splits credit with its response spawn
        let child = w / 2;
        r.apply_credit(w - child, None);
        assert!(!r.is_done());
        r.note_home_weighted_death(child, None);
        assert!(r.is_done());
    }

    #[test]
    #[should_panic(expected = "FINISH_ASYNC")]
    fn async_rejects_second_spawn() {
        let r = root(FinishKind::Async);
        r.note_remote_spawn(0, 1);
        r.note_local_spawn(0);
    }

    #[test]
    #[should_panic(expected = "FINISH_LOCAL")]
    fn local_rejects_remote_spawn() {
        let r = root(FinishKind::Local);
        r.note_remote_spawn(0, 1);
    }

    #[test]
    fn panics_collected_from_all_paths() {
        let r = root(FinishKind::Default);
        r.note_local_spawn(0);
        r.note_local_death(0, Some("boom-local".into()));
        r.apply_deltas(Deltas {
            panics: vec!["boom-remote".into()],
            ..Deltas::default()
        });
        r.set_body_done();
        assert!(r.is_done());
        let p = r.take_panics();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn resilient_adoption_clears_dead_accounting_and_returns_cmds() {
        let r = root(FinishKind::Resilient);
        // Two spawns to place 3 (one command-bodied, registered), one to 2.
        r.note_remote_spawn(0, 3);
        r.note_remote_spawn(0, 3);
        r.note_remote_spawn(0, 2);
        r.register_cmd(CmdDescriptor {
            id: 7,
            dest: 3,
            handler: 2000,
            args: vec![1, 2],
        });
        r.set_body_done();
        assert!(!r.is_done());
        // Place 3 dies before reporting anything.
        assert!(r.needs_reconstruct(1));
        let lost = r.reconstruct(&[3]).expect("fresh dead place");
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].dest, 3);
        assert!(!r.needs_reconstruct(1));
        assert!(r.reconstruct(&[3]).is_none());
        assert!(!r.is_done());
        // Place 2's normal report is no longer enough: the handed-back
        // command was pre-accounted as a live home activity by the
        // reconstruction (so the done latch can't fire before the caller
        // enqueues it) and must run to completion first.
        r.apply_deltas(Deltas {
            recv: vec![(0, 2, 1)],
            live: vec![(2, 0)],
            ..Deltas::default()
        });
        assert!(!r.is_done());
        r.note_local_death(0, None);
        assert!(r.is_done());
    }

    #[test]
    fn resilient_drops_straggler_deltas_naming_adopted_places() {
        let r = root(FinishKind::Resilient);
        r.note_remote_spawn(0, 3);
        r.reconstruct(&[3]).expect("adopted");
        // Straggler flush from the victim, delivered after adoption: its
        // components must be dropped, not drive the matrix negative.
        r.apply_deltas(Deltas {
            recv: vec![(0, 3, 1)],
            spawned: vec![(3, 2, 1)],
            live: vec![(3, 1)],
            ..Deltas::default()
        });
        r.set_body_done();
        assert!(r.is_done());
        // Post-adoption spawns toward the dead place are stillborn.
        r.note_remote_spawn(0, 3);
        assert_eq!(r.matrix_entries(), 1); // only the original zeroed entry
        assert!(r.is_done());
    }

    #[test]
    fn resilient_cmd_log_after_adoption_is_handed_back() {
        let r = root(FinishKind::Resilient);
        r.reconstruct(&[2]).expect("adopted");
        let cmd = CmdDescriptor {
            id: 1,
            dest: 2,
            handler: 2000,
            args: vec![],
        };
        assert_eq!(r.apply_cmd_log(cmd.clone()), Some(cmd));
        let kept = CmdDescriptor {
            id: 2,
            dest: 1,
            handler: 2000,
            args: vec![],
        };
        assert_eq!(r.apply_cmd_log(kept), None);
        let snap = r.backup_snapshot();
        assert_eq!(snap.pending, 1);
    }

    #[test]
    fn matrix_entries_reflect_footprint() {
        let r = root(FinishKind::Default);
        for d in 1..=10 {
            r.note_remote_spawn(0, d);
        }
        assert_eq!(r.matrix_entries(), 10);
    }
}
