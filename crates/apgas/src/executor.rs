//! The shared executor pool that multiplexes place contexts over a fixed
//! number of OS threads (M:N scheduling; see `context`).
//!
//! Scheduling is deliberately simple: every executor thread scans the whole
//! context table (starting at its own offset to spread contention), claims
//! any runnable unfinished context with a CAS on its `claimed` flag, and
//! resumes it until it yields. There is no per-executor run queue and no
//! affinity — a context migrates freely to whichever executor claims it
//! next, which is exactly what the claimed-flag acquire/release handoff is
//! for.
//!
//! Wake protocol (the same Dekker pattern `PlaceState::wake` uses for
//! threads): a waker stores `runnable = true` (SeqCst) and then reads
//! `sleepers`; an executor increments `sleepers` (SeqCst) under the idle
//! lock and then re-scans for runnable contexts before sleeping. The SeqCst
//! total order means at least one side always sees the other, so a wake
//! cannot be lost; `notify_all` under the idle lock closes the window where
//! the executor holds the lock but has not started waiting yet.
//!
//! Wakes come from outside the context: deliveries from other places and
//! submissions from outside the runtime. A place's own worker enqueues
//! without waking — the queue is its own, and it pops it before it can
//! park — so a running context is re-marked only by another place's
//! traffic, never by its own local spawns.
//!
//! Idle executors wake on their own every `resweep` (the configured
//! `park_timeout`) and mark *every* unfinished context runnable. That
//! re-poll is what keeps time-based machinery alive — the finish watchdog,
//! GLB steal timeouts, and coalescer retry backoff all assume a parked
//! worker re-checks its condition on the park-timeout cadence.
//!
//! With observability on, every pass over the table publishes its counts
//! once, from locals: `executor.resumes`, `executor.empty_passes`,
//! `executor.sleeps` and `executor.resweeps` (OBSERVABILITY.md).

use crate::context::PlaceContext;
use obs::metrics::{Counter, MetricsRegistry};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub(crate) struct ExecutorPool {
    contexts: Vec<Arc<PlaceContext>>,
    threads: usize,
    sleepers: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    resweep: Duration,
    metrics: Option<PoolMetrics>,
}

/// The pool's counters (see the module docs), sharded by executor index.
struct PoolMetrics {
    resumes: Counter,
    empty_passes: Counter,
    sleeps: Counter,
    resweeps: Counter,
}

impl ExecutorPool {
    pub(crate) fn new(
        contexts: Vec<Arc<PlaceContext>>,
        threads: usize,
        resweep: Duration,
    ) -> ExecutorPool {
        ExecutorPool {
            contexts,
            threads: threads.max(1),
            sleepers: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            // A zero resweep would busy-spin every idle executor.
            resweep: resweep.max(Duration::from_micros(10)),
            metrics: None,
        }
    }

    /// Report scheduling counts into `metrics`.
    pub(crate) fn with_obs(mut self, metrics: &MetricsRegistry) -> Self {
        self.metrics = Some(PoolMetrics {
            resumes: metrics.counter(obs::names::EXECUTOR_RESUMES),
            empty_passes: metrics.counter(obs::names::EXECUTOR_EMPTY_PASSES),
            sleeps: metrics.counter(obs::names::EXECUTOR_SLEEPS),
            resweeps: metrics.counter(obs::names::EXECUTOR_RESWEEPS),
        });
        self
    }

    /// Mark one context runnable and kick a sleeping executor if any.
    pub(crate) fn wake_slot(&self, slot: usize) {
        self.contexts[slot].runnable.store(true, Ordering::SeqCst);
        self.notify_sleepers();
    }

    fn notify_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.idle_lock.lock();
            self.idle_cv.notify_all();
        }
    }

    fn any_runnable(&self) -> bool {
        self.contexts
            .iter()
            .any(|c| !c.finished() && c.runnable.load(Ordering::SeqCst))
    }

    fn mark_all_runnable(&self) {
        for c in &self.contexts {
            if !c.finished() {
                c.runnable.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Body of one executor thread. Returns when every context has finished.
    pub(crate) fn run_executor(&self, who: usize) {
        let n = self.contexts.len();
        if n == 0 {
            return;
        }
        // Stagger scan starts so executors don't fight over context 0.
        let offset = (who * n) / self.threads;
        let shard = who as u32;
        loop {
            let mut resumed = 0u64;
            let mut unfinished = false;
            for i in 0..n {
                let ctx = &self.contexts[(offset + i) % n];
                if ctx.finished() {
                    continue;
                }
                unfinished = true;
                if !ctx.runnable.load(Ordering::SeqCst) {
                    continue;
                }
                if ctx.claimed.swap(true, Ordering::AcqRel) {
                    continue; // another executor is driving it right now
                }
                if ctx.finished() {
                    ctx.claimed.store(false, Ordering::Release);
                    continue;
                }
                // Clear-before-resume: a wake that lands while the context
                // runs (another place's delivery) re-marks it and it gets
                // rescanned, never lost.
                ctx.runnable.store(false, Ordering::SeqCst);
                ctx.resume();
                ctx.claimed.store(false, Ordering::Release);
                // The context may have become runnable again mid-quantum;
                // notify in case every other executor already went idle.
                if ctx.runnable.load(Ordering::SeqCst) && !ctx.finished() {
                    self.notify_sleepers();
                }
                resumed += 1;
            }
            if let Some(m) = self.metrics.as_ref().filter(|_| resumed > 0) {
                m.resumes.add(shard, resumed);
            }
            if !unfinished {
                return;
            }
            if resumed == 0 {
                let mut guard = self.idle_lock.lock();
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                let slept = !self.any_runnable();
                let timed_out =
                    slept && self.idle_cv.wait_for(&mut guard, self.resweep).timed_out();
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                drop(guard);
                if timed_out {
                    self.mark_all_runnable();
                }
                if let Some(m) = &self.metrics {
                    m.empty_passes.inc(shard);
                    if slept {
                        m.sleeps.inc(shard);
                    }
                    if timed_out {
                        m.resweeps.inc(shard);
                    }
                }
            }
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// N ping-pong contexts on a single executor thread: each yields between
    /// increments, all must finish — proof that a yielded context never
    /// wedges the thread.
    #[test]
    fn single_executor_interleaves_many_contexts() {
        let count = Arc::new(AtomicU64::new(0));
        let contexts: Vec<_> = (0..16)
            .map(|i| {
                let c = count.clone();
                let _ = i;
                PlaceContext::new(
                    crate::context::MIN_STACK,
                    Box::new(move || {
                        for _ in 0..8 {
                            c.fetch_add(1, Ordering::SeqCst);
                            crate::context::yield_now();
                        }
                    }),
                )
            })
            .collect();
        let pool = Arc::new(ExecutorPool::new(contexts, 1, Duration::from_micros(50)));
        // Idle-yielded contexts are only re-marked by the resweep here, so
        // this also exercises the timeout path.
        pool.run_executor(0);
        assert_eq!(count.load(Ordering::SeqCst), 16 * 8);
    }

    #[test]
    fn wake_slot_rouses_a_sleeping_executor() {
        let fired = Arc::new(AtomicU64::new(0));
        let f2 = fired.clone();
        let gate = Arc::new(AtomicU64::new(0));
        let g2 = gate.clone();
        let ctx = PlaceContext::new(
            crate::context::MIN_STACK,
            Box::new(move || {
                while g2.load(Ordering::SeqCst) == 0 {
                    crate::context::yield_now();
                }
                f2.store(1, Ordering::SeqCst);
            }),
        );
        // Long resweep: without the explicit wake the run would take ~1s.
        let pool = Arc::new(ExecutorPool::new(vec![ctx], 1, Duration::from_secs(1)));
        let p2 = pool.clone();
        let h = std::thread::spawn(move || p2.run_executor(0));
        std::thread::sleep(Duration::from_millis(30));
        gate.store(1, Ordering::SeqCst);
        let start = std::time::Instant::now();
        pool.wake_slot(0);
        h.join().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert!(
            start.elapsed() < Duration::from_millis(900),
            "wake_slot did not rouse the sleeping executor"
        );
    }

    #[test]
    fn contexts_migrate_across_executor_threads() {
        // 32 contexts × 3 executors, every context records which thread ids
        // resumed it; with yields in between, at least one context should be
        // driven by more than one executor. (Not asserted — thread schedules
        // vary — but the run completing proves migration is at least safe.)
        let total = Arc::new(AtomicU64::new(0));
        let contexts: Vec<_> = (0..32)
            .map(|i| {
                let t = total.clone();
                let _ = i;
                PlaceContext::new(
                    crate::context::MIN_STACK,
                    Box::new(move || {
                        for _ in 0..50 {
                            t.fetch_add(1, Ordering::SeqCst);
                            crate::context::yield_now();
                        }
                    }),
                )
            })
            .collect();
        let pool = Arc::new(ExecutorPool::new(contexts, 3, Duration::from_micros(50)));
        let hs: Vec<_> = (0..3)
            .map(|w| {
                let p = pool.clone();
                std::thread::spawn(move || p.run_executor(w))
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::SeqCst), 32 * 50);
    }
}
