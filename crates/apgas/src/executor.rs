//! How places get a CPU. This is the one module that knows there are two
//! ways; everything above it has one path. [`Executor::start`] takes one
//! worker entry per hosted place, [`Executor::wake_place`] wakes a place
//! (deliveries, root submissions, shutdown and step-gate grants all come
//! through it), and the [`Parker`] each entry is handed is how its worker
//! gives the CPU away when it runs out of work.
//!
//! * **Dedicated** — each hosted place gets its own OS thread, and the
//!   worker loop runs directly on it with no stack switch: the paper's
//!   launch, one worker per place (`X10_NTHREADS=1`). A parked worker
//!   yields the thread a few times, then sleeps on its slot's condvar for
//!   at most [`PARK_TIMEOUT`]. Used when [`crate::Config::executor_threads`]
//!   is unset or at least the hosted place count; runs on every platform.
//! * **Shared** — the hosted places run as stackful contexts (see
//!   `context`) multiplexed over a fixed pool of executor threads (M:N
//!   scheduling). A parked worker switches its context out. Used when
//!   `executor_threads(n)` is below the hosted place count; needs x86_64.
//!
//! Both modes give a worker the same [`WORKER_STACK`] bytes of stack, so an
//! activity's recursion limit does not depend on the mode.
//!
//! # The shared pool
//!
//! Scheduling is deliberately simple: every executor thread scans the whole
//! context table (starting at its own offset to spread contention), claims
//! any runnable unfinished context with a CAS on its `claimed` flag, and
//! resumes it until it yields. There is no per-executor run queue and no
//! affinity — a context migrates freely to whichever executor claims it
//! next, which is exactly what the claimed-flag acquire/release handoff is
//! for.
//!
//! Wake protocol (the same Dekker pattern a dedicated slot uses): a waker
//! stores `runnable = true` (SeqCst) and then reads `sleepers`; an executor
//! increments `sleepers` (SeqCst) under the idle lock and then re-scans for
//! runnable contexts before sleeping. The SeqCst total order means at least
//! one side always sees the other, so a wake cannot be lost; `notify_all`
//! under the idle lock closes the window where the executor holds the lock
//! but has not started waiting yet.
//!
//! Wakes come from outside the context: deliveries from other places and
//! submissions from outside the runtime. A place's own worker enqueues
//! without waking — the queue is its own, and it pops it before it can
//! park — so a running context is re-marked only by another place's
//! traffic, never by its own local spawns.
//!
//! Idle executors wake on their own every [`PARK_TIMEOUT`] (the pool's
//! `resweep`) and mark *every* unfinished context runnable. That
//! re-poll is what keeps time-based machinery alive — the two timed
//! re-polls, the finish watchdog and GLB steal timeouts, assume a parked
//! worker re-checks its condition on the park-timeout cadence (a dedicated
//! slot's timed condvar wait is the same re-poll). So the pre-sleep
//! re-scan counts only contexts this executor could claim: a context that
//! another executor is running, re-marked by a delivery, is that
//! executor's to rescan after its quantum. Counting it would keep an idle
//! executor from sleeping, hence from resweeping, for as long as the other
//! one runs, and parked places' timed waits would stall that long.
//!
//! With observability on, every pass over the table publishes its counts
//! once, from locals: `executor.resumes`, `executor.empty_passes`,
//! `executor.sleeps` and `executor.resweeps` (OBSERVABILITY.md). A
//! dedicated executor has no table and leaves them at zero.

use crate::context::PlaceContext;
use obs::metrics::{Counter, MetricsRegistry};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Usable stack bytes of every worker: a dedicated thread's stack and a
/// shared context's both. Help-first waiting nests activity frames on the
/// worker's stack, so it needs room. Context stacks are mapped `NORESERVE`:
/// the cost is address space, and only touched pages are committed.
pub(crate) const WORKER_STACK: usize = 16 << 20;

/// The longest idle park: a dedicated worker's condvar timeout and the
/// shared pool's resweep period. The timed re-polls (finish watchdog, GLB
/// steal timeouts) run on this cadence; shorter costs CPU when places
/// outnumber cores, longer delays them.
pub(crate) const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// Idle parks a dedicated worker spends yielding the CPU before it sleeps
/// on its condvar. Aggregated traffic arrives in bursts, so a receiver that
/// just drained its mailbox very often gets its next batch within a few
/// scheduler quanta of the sender — yielding there avoids a futex
/// sleep/wake round trip per burst, which dominates on oversubscribed hosts.
const PARK_SPIN_YIELDS: u32 = 8;

/// One hosted place's worker body, run with the parker it idles through.
pub(crate) type Entry = Box<dyn FnOnce(Parker) + Send>;

/// The executor threads `Config::executor_threads` asks for when they run
/// `hosted` places shared — fewer threads than places — or `None` when
/// each place gets a dedicated thread.
pub(crate) fn shared_threads(threads: Option<usize>, hosted: usize) -> Option<usize> {
    threads.filter(|&n| n < hosted)
}

/// The places of one process and how they get a CPU (see the module docs).
pub(crate) struct Executor {
    /// The first hosted place: slot `i` runs place `first_place + i`.
    first_place: usize,
    slots: Slots,
}

enum Slots {
    Dedicated(Vec<Arc<ThreadSlot>>),
    Shared(Arc<ExecutorPool>),
}

impl Executor {
    /// Run `entries[i]` as the worker of place `first_place + i`, on a
    /// shared executor when [`shared_threads`] says so and on dedicated
    /// threads otherwise. `connect` sees the executor before any worker
    /// runs — the runtime routes its place wakes and step-gate grants there
    /// first, so no wake can land on a place that is not yet reachable.
    /// Returns the threads to join at shutdown; they exit once every worker
    /// has returned.
    pub(crate) fn start(
        first_place: usize,
        entries: Vec<Entry>,
        threads: Option<usize>,
        metrics: Option<&MetricsRegistry>,
        connect: impl FnOnce(&Arc<Executor>),
    ) -> Vec<JoinHandle<()>> {
        type Body = Box<dyn FnOnce() + Send>;
        let (slots, bodies): (Slots, Vec<(String, Body)>) =
            match shared_threads(threads, entries.len()) {
                None => {
                    let slots: Vec<Arc<ThreadSlot>> =
                        entries.iter().map(|_| Arc::default()).collect();
                    let bodies = entries.into_iter().zip(slots.clone()).enumerate();
                    let bodies = bodies.map(|(i, (entry, slot))| {
                        let parker = Parker::Thread {
                            slot,
                            idle_streak: Cell::new(0),
                        };
                        let body: Body = Box::new(move || entry(parker));
                        (format!("place-{}", first_place + i), body)
                    });
                    (Slots::Dedicated(slots), bodies.collect())
                }
                Some(n) => {
                    let contexts = entries.into_iter().map(|entry| {
                        PlaceContext::new(WORKER_STACK, Box::new(move || entry(Parker::Context)))
                    });
                    let pool = Arc::new(ExecutorPool::new(
                        contexts.collect(),
                        n,
                        PARK_TIMEOUT,
                        metrics,
                    ));
                    let bodies = (0..n).map(|t| {
                        let pool = pool.clone();
                        let body: Body = Box::new(move || pool.run_executor(t));
                        (format!("executor-{t}"), body)
                    });
                    let bodies = bodies.collect();
                    (Slots::Shared(pool), bodies)
                }
            };
        connect(&Arc::new(Executor { first_place, slots }));
        bodies
            .into_iter()
            .map(|(name, body)| {
                std::thread::Builder::new()
                    .name(name)
                    .stack_size(WORKER_STACK)
                    .spawn(body)
                    .expect("spawn executor thread")
            })
            .collect()
    }

    /// Wake `place`'s worker if it is parked, or make its next park return
    /// at once if it is running. A place this process does not host is
    /// ignored.
    pub(crate) fn wake_place(&self, place: usize) {
        let slot = place.wrapping_sub(self.first_place);
        match &self.slots {
            Slots::Dedicated(slots) => {
                if let Some(s) = slots.get(slot) {
                    s.wake();
                }
            }
            Slots::Shared(pool) => {
                if slot < pool.contexts.len() {
                    pool.wake_slot(slot);
                }
            }
        }
    }
}

/// How one worker gives its CPU away when it has nothing to do. Handed to
/// the worker's entry by [`Executor::start`].
pub(crate) enum Parker {
    /// Shared executor: switch the context out.
    Context,
    /// Dedicated thread: yield, then sleep on the slot.
    Thread {
        slot: Arc<ThreadSlot>,
        /// Consecutive parks with no wake in between; the first
        /// [`PARK_SPIN_YIELDS`] of them only yield the thread.
        idle_streak: Cell<u32>,
    },
}

impl Parker {
    /// Give the CPU away until this place is woken or [`PARK_TIMEOUT`]
    /// passes. On a shared executor the context switches out and runs again
    /// once an executor finds it runnable. On a dedicated one the thread
    /// yields for [`PARK_SPIN_YIELDS`] parks after each wake, then sleeps on
    /// its slot. A wake that lands while the worker runs is never lost:
    /// the next park returns at once.
    pub(crate) fn park(&self) {
        match self {
            Parker::Context => crate::context::yield_now(),
            Parker::Thread { slot, idle_streak } => slot.park(idle_streak),
        }
    }
}

/// Park/wake state of one dedicated place thread. Same Dekker pairing as
/// the shared pool: the waker stores `woken` and then reads `sleeping`,
/// the parker stores `sleeping` under the lock and then reads `woken`, all
/// SeqCst, so one side always sees the other.
#[derive(Default)]
pub(crate) struct ThreadSlot {
    /// Set by every wake; taken by the next park, which then only yields.
    woken: AtomicBool,
    /// Set while the thread is (about to be) waiting on `cv`.
    sleeping: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl ThreadSlot {
    fn wake(&self) {
        self.woken.store(true, Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            let _guard = self.lock.lock();
            self.cv.notify_one();
        }
    }

    fn park(&self, idle_streak: &Cell<u32>) {
        if self.woken.swap(false, Ordering::SeqCst) {
            idle_streak.set(0);
        }
        // Back off gently first: give the CPU away and re-check before
        // committing to a condvar sleep (see PARK_SPIN_YIELDS).
        let streak = idle_streak.get();
        if streak < PARK_SPIN_YIELDS {
            idle_streak.set(streak + 1);
            std::thread::yield_now();
            return;
        }
        let mut guard = self.lock.lock();
        self.sleeping.store(true, Ordering::SeqCst);
        if !self.woken.load(Ordering::SeqCst) {
            self.cv.wait_for(&mut guard, PARK_TIMEOUT);
        }
        self.sleeping.store(false, Ordering::SeqCst);
    }
}

/// The shared pool: place contexts over a fixed set of executor threads.
struct ExecutorPool {
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
    /// A pool over `contexts`, reporting its scheduling counts into
    /// `metrics` when given.
    fn new(
        contexts: Vec<Arc<PlaceContext>>,
        threads: usize,
        resweep: Duration,
        metrics: Option<&MetricsRegistry>,
    ) -> ExecutorPool {
        ExecutorPool {
            contexts,
            threads: threads.max(1),
            sleepers: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            resweep,
            metrics: metrics.map(|m| PoolMetrics {
                resumes: m.counter(obs::names::EXECUTOR_RESUMES),
                empty_passes: m.counter(obs::names::EXECUTOR_EMPTY_PASSES),
                sleeps: m.counter(obs::names::EXECUTOR_SLEEPS),
                resweeps: m.counter(obs::names::EXECUTOR_RESWEEPS),
            }),
        }
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

    /// Is there a context this executor could claim? One another executor
    /// holds does not count: that executor rescans it after its quantum.
    fn any_runnable(&self) -> bool {
        self.contexts.iter().any(|c| {
            !c.finished() && !c.claimed.load(Ordering::Acquire) && c.runnable.load(Ordering::SeqCst)
        })
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
            .map(|_| {
                let c = count.clone();
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
        let resweep = Duration::from_micros(50);
        let pool = Arc::new(ExecutorPool::new(contexts, 1, resweep, None));
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
        let resweep = Duration::from_secs(1);
        let pool = Arc::new(ExecutorPool::new(vec![ctx], 1, resweep, None));
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
            .map(|_| {
                let t = total.clone();
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
        let resweep = Duration::from_micros(50);
        let pool = Arc::new(ExecutorPool::new(contexts, 3, resweep, None));
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
