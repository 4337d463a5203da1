//! Deterministic stepping: the baton-passing gate behind
//! [`Config::deterministic`](crate::Config::deterministic).
//!
//! In deterministic mode every place still has its own worker, but only one
//! of them runs at a time: an external schedule controller (the `sim`
//! crate) holds a baton and grants it to one place per scheduling quantum.
//! A worker yields at the **top** of its scheduling quantum (polling
//! [`StepGate::try_step`] is the first thing `Worker::run_one` does), which
//! puts the quantum boundary exactly at the point where the worker would
//! next pump messages. Everything between two quanta — a `wait_until`
//! condition re-check, a finish body, activity execution — runs while the
//! worker still holds the baton, so the interleaving of *all*
//! semantics-bearing state transitions is fully described by the sequence of
//! grants plus the sequence of message deliveries. That is the invariant
//! that makes a run replayable from its schedule alone.
//!
//! A worker that is not granted parks through its executor between polls;
//! the gate's grant hook wakes the granted place. The gate is permanently
//! released on shutdown ([`StepGate::release_all`]): every poll then
//! reports [`TryStep::Released`] and the controller returns, so teardown
//! never deadlocks on a controller that has already exited.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};

struct GateState {
    /// The place currently granted a quantum, if any.
    granted: Option<u32>,
    /// Set by the granted worker when it finishes its quantum (polls
    /// [`StepGate::try_step`] again).
    done: bool,
    /// Did the granted worker actually take the baton (get
    /// [`TryStep::Granted`]) for the outstanding grant? Guards against a
    /// worker's *first-ever* poll arriving while a grant is already
    /// outstanding: without this flag that arrival would be mistaken for
    /// quantum completion and the grant would silently perform no work —
    /// a startup race that shifts the whole schedule by one quantum and
    /// breaks replay determinism.
    running: bool,
}

/// The baton: serializes worker quanta under an external controller.
///
/// Exactly one controller thread calls [`StepGate::grant`]; each place's
/// single worker polls [`StepGate::try_step`] at the top of every
/// scheduling quantum. Every place runs one worker, so a grant names a
/// unique worker.
pub struct StepGate {
    state: Mutex<GateState>,
    /// The controller waits here for quantum completion.
    ctl_cv: Condvar,
    /// Permanent free-run switch (shutdown/teardown).
    released: AtomicBool,
    /// Called with the granted place id right after a grant is published,
    /// so the runtime can wake that place's parked worker.
    grant_hook: Mutex<Option<GrantHook>>,
}

/// The grant hook: see [`StepGate::set_grant_hook`].
pub type GrantHook = Box<dyn Fn(u32) + Send + Sync>;

/// What [`StepGate::try_step`] told a polling worker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TryStep {
    /// The baton is this worker's: run one quantum.
    Granted,
    /// No grant for this place is outstanding; park and poll again later.
    NotGranted,
    /// The gate is permanently released; free-run.
    Released,
}

impl StepGate {
    /// A fresh gate with no grant outstanding.
    pub fn new() -> Self {
        StepGate {
            state: Mutex::new(GateState {
                granted: None,
                done: false,
                running: false,
            }),
            ctl_cv: Condvar::new(),
            released: AtomicBool::new(false),
            grant_hook: Mutex::new(None),
        }
    }

    /// Install the grant hook (see the `grant_hook` field). At most one
    /// hook; installing replaces the previous.
    pub fn set_grant_hook(&self, hook: GrantHook) {
        *self.grant_hook.lock() = Some(hook);
    }

    /// Has the gate been permanently released?
    pub fn is_released(&self) -> bool {
        self.released.load(Ordering::Acquire)
    }

    /// Controller side: grant one scheduling quantum to `place` and block
    /// until its worker completes it (polls [`StepGate::try_step`] again).
    /// Returns `false` when the gate was released before or during the
    /// grant — the quantum may then be incomplete and the schedule is over.
    pub fn grant(&self, place: u32) -> bool {
        if self.is_released() {
            return false;
        }
        let mut s = self.state.lock();
        debug_assert!(s.granted.is_none(), "grant while a quantum is outstanding");
        s.granted = Some(place);
        s.done = false;
        s.running = false;
        // Wake the granted place's parked worker. (The hook only touches
        // its executor slot's lock; no worker takes the gate lock while
        // holding that, so the order here is safe.)
        if let Some(hook) = self.grant_hook.lock().as_ref() {
            hook(place);
        }
        while !s.done {
            if self.is_released() {
                s.granted = None;
                return false;
            }
            self.ctl_cv.wait(&mut s);
        }
        s.granted = None;
        true
    }

    /// Worker side, called at the top of every scheduling quantum: report
    /// the previous quantum complete (when this worker held the baton),
    /// then poll for a new grant. A worker that gets
    /// [`TryStep::NotGranted`] parks and polls again once the grant hook
    /// wakes it.
    pub fn try_step(&self, place: u32) -> TryStep {
        if self.is_released() {
            return TryStep::Released;
        }
        let mut s = self.state.lock();
        // Only a worker that actually took the baton may complete the
        // outstanding quantum; a first-ever arrival under an already-issued
        // grant must instead *run* that quantum.
        if s.granted == Some(place) && s.running && !s.done {
            s.done = true;
            s.running = false;
            self.ctl_cv.notify_all();
        }
        if self.is_released() {
            return TryStep::Released;
        }
        if s.granted == Some(place) && !s.done {
            s.running = true;
            return TryStep::Granted;
        }
        TryStep::NotGranted
    }

    /// Permanently release the gate: the controller returns immediately,
    /// and every poll reports [`TryStep::Released`]. Called on runtime
    /// shutdown (which then wakes every place); irreversible.
    pub fn release_all(&self) {
        self.released.store(true, Ordering::Release);
        let _s = self.state.lock();
        self.ctl_cv.notify_all();
    }
}

impl Default for StepGate {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// A worker's arrival at the top of a quantum: poll until granted or
    /// released (`Worker::run_one` parks between polls; a test yields).
    fn step(gate: &StepGate, place: u32) -> TryStep {
        loop {
            match gate.try_step(place) {
                TryStep::NotGranted => std::thread::yield_now(),
                t => return t,
            }
        }
    }

    #[test]
    fn grants_serialize_workers() {
        let gate = Arc::new(StepGate::new());
        let log = Arc::new(Mutex::new(Vec::new()));
        let running = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for p in 0..3u32 {
            let (gate, log, running) = (gate.clone(), log.clone(), running.clone());
            handles.push(std::thread::spawn(move || loop {
                if step(&gate, p) == TryStep::Released {
                    return;
                }
                // Only one worker may be inside a quantum at a time.
                assert_eq!(running.fetch_add(1, Ordering::SeqCst), 0);
                log.lock().push(p);
                running.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        let schedule = [0u32, 2, 1, 1, 0, 2, 2, 0];
        for &p in &schedule {
            assert!(gate.grant(p));
        }
        gate.release_all();
        for h in handles {
            h.join().unwrap();
        }
        // Quanta ran exactly in grant order (a worker may run one final
        // time after release, so compare the granted prefix).
        assert_eq!(&log.lock()[..schedule.len()], &schedule);
    }

    #[test]
    fn early_grant_is_not_completed_by_first_arrival() {
        // Regression: the controller may issue a grant before the worker
        // has ever polled the gate. The worker's first arrival
        // must *take* that grant and run the quantum — not report it
        // complete and park, which would silently drop a quantum and shift
        // the whole schedule (breaking replay determinism).
        let gate = Arc::new(StepGate::new());
        let ran = Arc::new(AtomicU64::new(0));
        let ctl = {
            let gate = gate.clone();
            std::thread::spawn(move || gate.grant(0))
        };
        // Give the grant time to land before the worker first arrives.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let worker = {
            let (gate, ran) = (gate.clone(), ran.clone());
            std::thread::spawn(move || {
                // First-ever arrival: takes the grant and runs the quantum.
                assert_eq!(step(&gate, 0), TryStep::Granted);
                ran.fetch_add(1, Ordering::SeqCst);
                // Completes the quantum, then polls until the release.
                assert_eq!(step(&gate, 0), TryStep::Released);
            })
        };
        // grant() must only return once the quantum actually ran.
        assert!(ctl.join().unwrap());
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        gate.release_all();
        worker.join().unwrap();
    }

    #[test]
    fn try_step_takes_only_its_own_grant_and_fires_the_hook() {
        let gate = Arc::new(StepGate::new());
        let woken = Arc::new(AtomicU64::new(0));
        let w2 = woken.clone();
        gate.set_grant_hook(Box::new(move |p| {
            w2.fetch_add(1 + u64::from(p), Ordering::SeqCst);
        }));
        // No grant outstanding: a poll must not run.
        assert_eq!(gate.try_step(3), TryStep::NotGranted);
        let g2 = gate.clone();
        let ctl = std::thread::spawn(move || g2.grant(3));
        // Poll until the grant lands (the hook will have fired by then).
        assert_eq!(step(&gate, 3), TryStep::Granted);
        // ... quantum work would run here ...
        // Next poll completes the quantum; the controller unblocks.
        let _ = gate.try_step(3);
        assert!(ctl.join().unwrap());
        assert_eq!(woken.load(Ordering::SeqCst), 4, "hook saw the grant");
        // A poll by a different place never steals the baton.
        let g3 = gate.clone();
        let ctl2 = std::thread::spawn(move || g3.grant(1));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(gate.try_step(0), TryStep::NotGranted);
        assert_eq!(step(&gate, 1), TryStep::Granted);
        let _ = gate.try_step(1);
        assert!(ctl2.join().unwrap());
        gate.release_all();
        assert_eq!(gate.try_step(0), TryStep::Released);
    }

    #[test]
    fn release_unblocks_grant() {
        let gate = Arc::new(StepGate::new());
        let g2 = gate.clone();
        // Grant to a place whose worker never shows up; release must
        // unblock the controller.
        let h = std::thread::spawn(move || g2.grant(7));
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate.release_all();
        assert!(!h.join().unwrap());
        assert!(!gate.grant(7), "grants after release fail fast");
        // Workers pass straight through after release.
        assert_eq!(gate.try_step(3), TryStep::Released);
    }
}
