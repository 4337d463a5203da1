//! Per-place shared state: the activity queue, finish tables, registries and
//! the worker wake-up machinery.

use crate::clock::ClockTables;
use crate::finish::dense::DenseAggregator;
use crate::finish::root::RootState;
use crate::finish::{BackupSnapshot, FinishId};
use crate::task::Task;
use crate::team::TeamInbox;
use crossbeam_deque::Injector;
use parking_lot::{Condvar, Mutex, ReentrantMutex};
use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::Arc;
use x10rt::{IntMap, PlaceId};

/// A schedulable activity: its cell (body plus termination-detection
/// attachment) and its causal identity.
pub struct Activity {
    /// The body to run and how `finish` tracks it.
    pub task: Box<Task>,
    /// The causal identity of the message chain this activity belongs to
    /// (`None` when causal tracing is off or the chain has no recorded
    /// cause). Wire-arrived activities carry their spawn message's id;
    /// locally-spawned activities inherit their parent's id unchanged, so
    /// dependency chains stay unbroken through place-local hops.
    pub cause: Option<obs::causal::CausalId>,
    /// Did this activity arrive over the wire? Only wire arrivals record an
    /// execution span against `cause` — a local spawn sharing its parent's
    /// id must not add a second execution to the same DAG node.
    pub cause_remote: bool,
}

/// All state belonging to one place.
pub struct PlaceState {
    /// This place's id.
    pub id: PlaceId,
    /// Ready activities (FIFO injector; workers of this place pop from it).
    pub queue: Injector<Activity>,
    /// Condvar protocol for idle workers.
    pub wake_mutex: Mutex<()>,
    /// Signalled whenever a message or activity arrives.
    pub wake_cv: Condvar,
    /// Number of workers currently parked (wake fast-path check).
    pub sleepers: AtomicUsize,
    /// Times a worker of this place actually went to sleep (scheduler
    /// diagnostic; the aggregation ablation reports it).
    pub parks: AtomicU64,
    /// Finish roots homed at this place, by home-local sequence number.
    pub roots: Mutex<IntMap<u64, Arc<RootState>>>,
    /// Source of home-local finish sequence numbers.
    pub next_finish_seq: AtomicU64,
    /// Number of finish proxies (remotely-homed finishes with state at this
    /// place). The proxies themselves live in the place's worker, which is
    /// their only user; the worker publishes the count whenever it creates
    /// or drops one, for the residue oracle and the status report.
    pub proxy_count: AtomicUsize,
    /// Resilient-finish backup snapshots this place holds for finishes
    /// homed at its predecessor (home+1 replication; see DESIGN.md §6).
    /// Released when the home reports completion.
    pub backup_roots: Mutex<IntMap<FinishId, BackupSnapshot>>,
    /// FINISH_DENSE hop-aggregation buffer (this place acting as a master).
    pub dense_agg: Mutex<DenseAggregator>,
    /// Object registry backing `GlobalRef` / `PlaceLocalHandle`.
    pub registry: Mutex<IntMap<u64, Arc<dyn Any + Send + Sync>>>,
    /// Team collective state.
    pub team: Mutex<TeamInbox>,
    /// Clock (distributed barrier) state.
    pub clocks: Mutex<ClockTables>,
    /// The place-wide lock implementing `atomic`/`when` (reentrant so nested
    /// atomic sections don't self-deadlock).
    pub atomic_lock: ReentrantMutex<()>,
    /// M:N mode: routes this place's wake-ups to the executor pool (marks
    /// the place's context runnable and kicks a sleeping executor) instead
    /// of the thread condvar above. Installed once at runtime construction,
    /// before any worker runs.
    pub mplex_waker: std::sync::OnceLock<Arc<dyn Fn() + Send + Sync>>,
    /// Activities of this place currently paused inside a `Ctx::probe`
    /// pump. Maintained only in deterministic mode: a probing activity has
    /// application work to continue even when every queue is empty, and the
    /// schedule controller must keep granting the place quanta to advance
    /// it (unlike a `wait_until` pause, which only a delivery can unblock).
    pub probing: AtomicUsize,
    /// Modeled bytes currently buffered in this place's worker coalescer
    /// (published by the worker after every buffered send and every flush;
    /// read by the status report). A gauge, not a counter.
    pub coalesced_bytes: AtomicU64,
}

impl PlaceState {
    /// Fresh state for place `id`.
    pub fn new(id: PlaceId) -> Self {
        PlaceState {
            id,
            queue: Injector::new(),
            wake_mutex: Mutex::new(()),
            wake_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            roots: Mutex::new(IntMap::default()),
            next_finish_seq: AtomicU64::new(1),
            proxy_count: AtomicUsize::new(0),
            backup_roots: Mutex::new(IntMap::default()),
            dense_agg: Mutex::new(DenseAggregator::new()),
            registry: Mutex::new(IntMap::default()),
            team: Mutex::new(TeamInbox::default()),
            clocks: Mutex::new(ClockTables::default()),
            atomic_lock: ReentrantMutex::new(()),
            mplex_waker: std::sync::OnceLock::new(),
            probing: AtomicUsize::new(0),
            coalesced_bytes: AtomicU64::new(0),
        }
    }

    /// Wake any parked worker of this place. In M:N mode the place's worker
    /// is a parked *context*, not a parked thread, so the wake is routed to
    /// the executor pool unconditionally (the pool does its own
    /// sleeper-count fast path).
    pub fn wake(&self) {
        if let Some(w) = self.mplex_waker.get() {
            w();
            return;
        }
        if self.sleepers.load(std::sync::atomic::Ordering::Acquire) > 0 {
            let _g = self.wake_mutex.lock();
            self.wake_cv.notify_all();
        }
    }

    /// Enqueue an activity from outside the place and wake its worker.
    pub fn enqueue(&self, act: Activity) {
        self.queue.push(act);
        self.wake();
    }

    /// Enqueue an activity from the place's own worker. No wake: the worker
    /// is running, and it pops its queue before it can park (`park_brief`
    /// follows only a quantum that found the queue empty), so a wake would
    /// only re-mark a running context.
    pub(crate) fn push_local(&self, act: Activity) {
        self.queue.push(act);
    }
}
