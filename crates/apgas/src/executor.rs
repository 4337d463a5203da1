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
//! Executors take work from one run queue of context slots, behind one
//! mutex and one condvar. Each context carries one state (`context::State`:
//! Queued, Running, Woken, Idle, Done). A wake pushes a slot only on its
//! Idle→Queued edge, so a slot is on the queue at most once. A wake that
//! lands while the context runs marks it Woken, and the executor queues it
//! again when it yields. A context migrates freely to whichever executor
//! pops it next; there is no per-executor queue and no affinity.
//!
//! Wakes come from outside the context: deliveries from other places and
//! submissions from outside the runtime. A delivery wakes through the
//! transport waker that the runtime registers in `connect`, which calls
//! [`Executor::wake_place`] directly: the transport fires it once per
//! mailbox lane that turns ready, and the context state is the only
//! debounce. A place's own worker enqueues without waking — the queue is
//! its own, and it pops it before it can park — so a running context is
//! marked Woken only by another place's traffic, never by its own local
//! spawns.
//!
//! An executor that finds the queue empty waits on the condvar for at most
//! [`PARK_TIMEOUT`]. A wait that times out (the pool's `resweep`) wakes
//! every context, which queues each Idle one. That re-poll is what keeps
//! time-based machinery alive — the two timed re-polls, the finish watchdog
//! and GLB steal timeouts, assume a parked worker re-checks its condition on
//! the park-timeout cadence (a dedicated slot's timed condvar wait is the
//! same re-poll). A context another executor is running is not on the
//! queue, so it never keeps an idle executor from waiting, hence from
//! resweeping. A context that finishes lowers the live count, and the
//! executors return once it reaches zero.
//!
//! With observability on, each executor counts `executor.resumes` in a
//! local and publishes it whenever it waits and when it returns; it adds
//! `executor.sleeps` and `executor.resweeps` to its own shard as each wait
//! starts or times out (OBSERVABILITY.md). A dedicated executor has no run
//! queue and leaves them at zero.

use crate::context::{PlaceContext, State};
use obs::metrics::{Counter, MetricsRegistry};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
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
                    let pool =
                        Arc::new(ExecutorPool::new(contexts.collect(), PARK_TIMEOUT, metrics));
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
    /// once a wake or a resweep queues it. On a dedicated one the thread
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

/// Park/wake state of one dedicated place thread. A Dekker pairing: the
/// waker stores `woken` and then reads `sleeping`, the parker stores
/// `sleeping` under the lock and then reads `woken`, all SeqCst, so one side
/// always sees the other.
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
    run: Mutex<RunQueue>,
    /// Signalled on a push, and when the last context finishes.
    ready_cv: Condvar,
    resweep: Duration,
    metrics: Option<PoolMetrics>,
}

/// What the pool's one mutex guards.
struct RunQueue {
    /// Slots of the Queued contexts, in wake order.
    ready: VecDeque<usize>,
    /// Contexts that have not finished.
    live: usize,
    /// Executors waiting on the condvar: a push with none waiting skips the
    /// notify, which costs a futex syscall even when nobody waits.
    waiting: usize,
}

/// The pool's counters (see the module docs), sharded by executor index.
struct PoolMetrics {
    resumes: Counter,
    sleeps: Counter,
    resweeps: Counter,
}

impl ExecutorPool {
    /// A pool over `contexts`, all of them queued, reporting its scheduling
    /// counts into `metrics` when given.
    fn new(
        contexts: Vec<Arc<PlaceContext>>,
        resweep: Duration,
        metrics: Option<&MetricsRegistry>,
    ) -> ExecutorPool {
        let n = contexts.len();
        ExecutorPool {
            contexts,
            run: Mutex::new(RunQueue {
                ready: (0..n).collect(),
                live: n,
                waiting: 0,
            }),
            ready_cv: Condvar::new(),
            resweep,
            metrics: metrics.map(|m| PoolMetrics {
                resumes: m.counter(obs::names::EXECUTOR_RESUMES),
                sleeps: m.counter(obs::names::EXECUTOR_SLEEPS),
                resweeps: m.counter(obs::names::EXECUTOR_RESWEEPS),
            }),
        }
    }

    /// Wake one context: queue it if it was Idle (and rouse a waiting
    /// executor), or have its executor queue it again if it is running.
    pub(crate) fn wake_slot(&self, slot: usize) {
        if self.contexts[slot].wake() {
            let mut run = self.run.lock();
            run.ready.push_back(slot);
            if run.waiting > 0 {
                self.ready_cv.notify_one();
            }
        }
    }

    /// Body of one executor thread. Returns when every context has finished.
    pub(crate) fn run_executor(&self, who: usize) {
        let shard = who as u32;
        let mut resumes = 0u64;
        let mut run = self.run.lock();
        while run.live > 0 {
            let Some(slot) = run.ready.pop_front() else {
                let m = self.metrics.as_ref();
                if let Some(m) = m {
                    m.resumes.add(shard, std::mem::take(&mut resumes));
                    m.sleeps.inc(shard);
                }
                run.waiting += 1;
                let timed_out = self.ready_cv.wait_for(&mut run, self.resweep).timed_out();
                run.waiting -= 1;
                if timed_out {
                    let woken = (0..self.contexts.len()).filter(|&i| self.contexts[i].wake());
                    run.ready.extend(woken);
                    self.ready_cv.notify_all();
                    if let Some(m) = m {
                        m.resweeps.inc(shard);
                    }
                }
                continue;
            };
            drop(run);
            let state = self.contexts[slot].resume();
            resumes += 1;
            run = self.run.lock();
            match state {
                State::Woken => run.ready.push_back(slot),
                State::Done => run.live -= 1,
                _ => {}
            }
        }
        // The last context has finished: the waiting executors return too.
        self.ready_cv.notify_all();
        if let Some(m) = &self.metrics {
            m.resumes.add(shard, resumes);
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

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
        let pool = Arc::new(ExecutorPool::new(contexts, resweep, None));
        // Idle-yielded contexts are only queued again by the resweep here,
        // so this also exercises the timeout path.
        pool.run_executor(0);
        assert_eq!(count.load(Ordering::SeqCst), 16 * 8);
    }

    /// One context's mailbox in `wake_slot_rouses_a_sleeping_executor`.
    #[derive(Default)]
    struct Mailbox {
        /// Rounds its waker has sent.
        sent: AtomicU64,
        /// Rounds the context has read.
        read: AtomicU64,
        /// The odd round after which the context holds its executor.
        holding: AtomicU64,
        /// Rounds whose `wake_slot` has returned.
        woken: AtomicU64,
    }

    /// 8 contexts on 2 executors, sent rounds by 2 outside threads, each
    /// round followed by a `wake_slot`. After reading an even round a
    /// context yields, so the next wake mostly finds it idle, with every
    /// executor asleep. After an odd round it holds its executor until the
    /// next round's wake has returned, then yields without reading again:
    /// that wake found it running, and only the Woken re-queue resumes it.
    /// The resweep is an hour, so only explicit wakes finish the run.
    #[test]
    fn wake_slot_rouses_a_sleeping_executor() {
        const CONTEXTS: usize = 8;
        const ROUNDS: u64 = 40;
        let boxes: Arc<Vec<Mailbox>> =
            Arc::new((0..CONTEXTS).map(|_| Mailbox::default()).collect());
        let contexts = (0..CONTEXTS).map(|i| {
            let boxes = boxes.clone();
            let body = move || {
                let b = &boxes[i];
                let mut read = 0;
                while read < ROUNDS {
                    let sent = b.sent.load(Ordering::SeqCst);
                    if sent > read {
                        read = sent;
                        b.read.store(read, Ordering::SeqCst);
                        continue;
                    }
                    if read % 2 == 1 {
                        b.holding.store(read, Ordering::SeqCst);
                        while b.woken.load(Ordering::SeqCst) <= read {
                            std::hint::spin_loop();
                        }
                    }
                    crate::context::yield_now();
                }
            };
            PlaceContext::new(crate::context::MIN_STACK, Box::new(body))
        });
        let resweep = Duration::from_secs(3600);
        let pool = Arc::new(ExecutorPool::new(contexts.collect(), resweep, None));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let executors: Vec<_> = (0..2)
            .map(|who| {
                let (pool, done) = (pool.clone(), done_tx.clone());
                std::thread::spawn(move || {
                    pool.run_executor(who);
                    let _ = done.send(());
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(20);
        let wakers: Vec<_> = (0..2)
            .map(|w| {
                let (pool, boxes) = (pool.clone(), boxes.clone());
                std::thread::spawn(move || {
                    let mine: Vec<usize> = (w..CONTEXTS).step_by(2).collect();
                    let sent = |i: usize| boxes[i].sent.load(Ordering::SeqCst);
                    while Instant::now() < deadline && mine.iter().any(|&i| sent(i) < ROUNDS) {
                        for &i in &mine {
                            let (b, r) = (&boxes[i], sent(i));
                            let ready = r < ROUNDS
                                && b.read.load(Ordering::SeqCst) == r
                                && (r % 2 == 0 || b.holding.load(Ordering::SeqCst) == r);
                            if ready {
                                b.sent.store(r + 1, Ordering::SeqCst);
                                pool.wake_slot(i);
                                b.woken.store(r + 1, Ordering::SeqCst);
                            }
                        }
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                done_rx.recv_timeout(left).is_ok(),
                "a wake was lost: the run did not finish without the resweep"
            );
        }
        for h in wakers.into_iter().chain(executors) {
            h.join().unwrap();
        }
    }

    /// The transport's wake reaches a parked context with no timer to
    /// rescue it: 8 contexts on 2 executors, an hour-long resweep, each
    /// context draining its own place of a `LocalTransport` (a few
    /// envelopes a sweep) and yielding when a sweep comes back empty. The
    /// waker the transport fires on a lane's ready edge is `wake_slot`,
    /// nothing else. Two outside threads send bursts from places of their
    /// own and wait for each round to be drained, so most rounds find every
    /// context idle.
    #[test]
    fn transport_wake_rouses_a_parked_context() {
        use x10rt::{Envelope, LocalTransport, MsgClass, PlaceId, Transport};
        const CONTEXTS: usize = 8;
        const ROUNDS: u64 = 2_000;
        let burst = |round: u64| 1 + round % 5;
        let per_place = 2 * (0..ROUNDS).map(burst).sum::<u64>();
        let t = Arc::new(LocalTransport::new(CONTEXTS + 2));
        let sent: Arc<Vec<AtomicU64>> =
            Arc::new((0..CONTEXTS).map(|_| AtomicU64::new(0)).collect());
        let got: Arc<Vec<AtomicU64>> = Arc::new((0..CONTEXTS).map(|_| AtomicU64::new(0)).collect());
        let contexts = (0..CONTEXTS).map(|i| {
            let (t, got) = (t.clone(), got.clone());
            let body = move || {
                let mut out = Vec::new();
                while got[i].load(Ordering::SeqCst) < per_place {
                    let n = t.try_recv_batch(PlaceId(i as u32), 3, &mut out);
                    out.clear();
                    got[i].fetch_add(n as u64, Ordering::SeqCst);
                    if n == 0 {
                        crate::context::yield_now();
                    }
                }
            };
            PlaceContext::new(crate::context::MIN_STACK, Box::new(body))
        });
        let resweep = Duration::from_secs(3600);
        let pool = Arc::new(ExecutorPool::new(contexts.collect(), resweep, None));
        for i in 0..CONTEXTS {
            let pool = Arc::downgrade(&pool);
            let waker = move || {
                if let Some(pool) = pool.upgrade() {
                    pool.wake_slot(i);
                }
            };
            t.register_waker(PlaceId(i as u32), Arc::new(waker));
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let executors: Vec<_> = (0..2)
            .map(|who| {
                let (pool, done) = (pool.clone(), done_tx.clone());
                std::thread::spawn(move || {
                    pool.run_executor(who);
                    let _ = done.send(());
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(20);
        let senders: Vec<_> = (0..2u32)
            .map(|w| {
                let (t, sent, got) = (t.clone(), sent.clone(), got.clone());
                std::thread::spawn(move || {
                    let from = PlaceId((CONTEXTS as u32) + w);
                    for round in 0..ROUNDS {
                        for i in 0..CONTEXTS {
                            for _ in 0..burst(round) {
                                sent[i].fetch_add(1, Ordering::SeqCst);
                                let to = PlaceId(i as u32);
                                let env = Envelope::new(from, to, MsgClass::Task, 8, Box::new(()));
                                t.send(env).unwrap();
                            }
                        }
                        let drained = |i: usize| {
                            got[i].load(Ordering::SeqCst) >= sent[i].load(Ordering::SeqCst)
                        };
                        // A stranded round ends the sends, so no later
                        // edge on the same lane can rescue it.
                        while !(0..CONTEXTS).all(drained) {
                            if Instant::now() > deadline {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                done_rx.recv_timeout(left).is_ok(),
                "a wake was lost: the run did not finish without the resweep"
            );
        }
        for h in senders.into_iter().chain(executors) {
            h.join().unwrap();
        }
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
        let pool = Arc::new(ExecutorPool::new(contexts, resweep, None));
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
