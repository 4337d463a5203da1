//! Per-place state that threads other than the place's worker must touch:
//! root submissions from outside the runtime (the ingress), the route to
//! its executor slot for wake-ups, the finish roots, and counts the worker
//! publishes for the residue oracle, the schedule controller and the status
//! report.
//!
//! Everything only the worker uses — its run queue, the finish proxies,
//! backup snapshots, the dense aggregator, the object registry, team and
//! clock tables — lives in [`crate::worker::Worker`] without a lock.

use crate::finish::root::RootState;
use crate::task::Task;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use x10rt::{IntMap, PlaceId};

/// A schedulable activity: its cell (body plus termination-detection
/// attachment) and its causal identity.
pub struct Activity {
    /// The body to run and how `finish` tracks it.
    pub task: Task,
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

/// All state of one place that other threads read or write.
pub struct PlaceState {
    /// This place's id.
    pub id: PlaceId,
    /// Root activities submitted from outside the runtime
    /// (`Runtime::run`/`run_checked`), waiting for the worker to move them
    /// into its queue at the top of its next quantum.
    ingress: Mutex<Vec<Activity>>,
    /// Set while `ingress` is non-empty, so a quantum with no submissions
    /// takes no lock.
    ingress_ready: AtomicBool,
    /// Times a worker of this place actually went to sleep (scheduler
    /// diagnostic; the aggregation ablation reports it).
    pub parks: AtomicU64,
    /// Finish roots homed at this place, by home-local sequence number.
    /// The worker creates, looks up and removes them; three readers on
    /// other threads need the roots themselves, not a count, which is why
    /// this table keeps its lock: the status report (`status::collect`),
    /// the schedule controller's `Runtime::place_needs_recovery`, and the
    /// residue oracle (`Global::residue`).
    pub roots: Mutex<IntMap<u64, Arc<RootState>>>,
    /// Activities in the worker's run queue (published on every push and
    /// pop; the ingress is counted separately).
    pub queued: AtomicUsize,
    /// Finish proxies the worker holds (published when it creates or drops
    /// one).
    pub proxy_count: AtomicUsize,
    /// Resilient-finish backup snapshots the worker holds for finishes
    /// homed at its predecessor (published on every sync and release).
    pub backup_count: AtomicUsize,
    /// Does the worker's FINISH_DENSE aggregator buffer undelivered deltas?
    /// (Published on every absorb and drain.)
    pub dense_pending: AtomicBool,
    /// Routes this place's wake-ups to its slot in the executor
    /// (`Executor::wake_place`). Installed once at runtime construction,
    /// before any worker runs; unset for places this process does not host.
    pub waker: std::sync::OnceLock<Box<dyn Fn() + Send + Sync>>,
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
            ingress: Mutex::new(Vec::new()),
            ingress_ready: AtomicBool::new(false),
            parks: AtomicU64::new(0),
            roots: Mutex::new(IntMap::default()),
            queued: AtomicUsize::new(0),
            proxy_count: AtomicUsize::new(0),
            backup_count: AtomicUsize::new(0),
            dense_pending: AtomicBool::new(false),
            waker: std::sync::OnceLock::new(),
            probing: AtomicUsize::new(0),
            coalesced_bytes: AtomicU64::new(0),
        }
    }

    /// Wake this place's worker through its executor slot: a parked worker
    /// runs again, a running one's next park returns at once.
    pub fn wake(&self) {
        if let Some(w) = self.waker.get() {
            w();
        }
    }

    /// Submit a root activity from outside the runtime and wake the worker.
    /// The flag is set under the ingress lock, so it is clear only while the
    /// ingress is empty; the wake after it makes the worker poll again.
    pub(crate) fn submit(&self, act: Activity) {
        {
            let mut ingress = self.ingress.lock();
            ingress.push(act);
            self.ingress_ready.store(true, Ordering::SeqCst);
        }
        self.wake();
    }

    /// Are submissions waiting in the ingress?
    pub(crate) fn has_ingress(&self) -> bool {
        self.ingress_ready.load(Ordering::SeqCst)
    }

    /// Move every waiting submission onto the back of `queue` (the
    /// worker's run queue) and publish its new length. One relaxed load
    /// when there are none; a submission this load misses has also woken
    /// the worker, which takes it next quantum.
    pub(crate) fn take_ingress(&self, queue: &mut VecDeque<Activity>) {
        if !self.ingress_ready.load(Ordering::Relaxed) {
            return;
        }
        let mut ingress = self.ingress.lock();
        self.ingress_ready.store(false, Ordering::Relaxed);
        queue.extend(ingress.drain(..));
        self.queued.store(queue.len(), Ordering::Relaxed);
    }

    /// Activities waiting at this place: the worker's run queue plus the
    /// ingress (not counting one the worker may be executing).
    pub(crate) fn queued_total(&self) -> usize {
        self.queued.load(Ordering::Relaxed) + self.ingress.lock().len()
    }
}
