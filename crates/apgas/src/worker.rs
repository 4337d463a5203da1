//! The per-place scheduler: message pumping, activity execution, and
//! **help-first waiting**.
//!
//! Every place runs one worker, as in the paper (`X10_NTHREADS=1`). A
//! worker alternates between draining its transport mailbox (converting
//! task messages into queued activities and handling termination-control
//! traffic inline) and executing queued activities. Blocking constructs — a
//! `finish` waiting for termination, an `at` waiting for its round trip, a
//! team operation waiting for peers — never park the thread while work is
//! available: [`Worker::wait_until`] keeps pumping messages and running
//! activities until the condition holds. This is what makes the runtime
//! deadlock-free: the thread that waits is the same thread that processes
//! the messages that satisfy the wait.

use crate::clock::ClockTables;
use crate::ctx::Ctx;
use crate::executor::Parker;
use crate::finish::dense::{next_hop, DenseAggregator};
use crate::finish::proxy::{Proxy, ProxyEmit};
use crate::finish::root::RootState;
use crate::finish::{Attach, BackupSnapshot, FinishId, FinishKind, FinishMsg, FinishRef};
use crate::place_state::{Activity, PlaceState};
use crate::runtime::Global;
use crate::task::Task;
use crate::team::TeamInbox;
use crate::wire::{self, Wire};
use obs::causal::CausalId;
use obs::metrics::{Counter, Histogram};
use obs::trace::EventRing;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use x10rt::codec::{self, HandlerId, WireMsg};
use x10rt::{Coalescer, CodecMode, Envelope, InlineSlot, IntMap, MsgClass, PlaceId};

/// What a spawn ships as the activity body: an in-process closure, or a
/// registered command (handler id + serialized argument bytes — the fully
/// serializable form every cross-process spawn needs). Both arrive under
/// `H_SPAWN` and run through the same handler.
pub enum SpawnBody {
    /// A closure in its activity cell (never crosses a process boundary).
    /// Under [`x10rt::CodecMode::Inline`] the cell, attach included, rides
    /// by value in its batch's inline slot, or is the envelope payload when
    /// flushed alone; under `Bytes` it is the [`WireMsg`]'s inline part and
    /// the attach also travels as bytes (over the TCP self-loop the cell
    /// waits in the stash).
    Closure(Task),
    /// A registered command: run the handler with the argument bytes. It
    /// ships as a [`WireMsg`] in both codec modes.
    Cmd {
        /// Handler installed with `Config::handler`.
        handler: HandlerId,
        /// Serialized arguments, passed to the handler verbatim.
        args: Vec<u8>,
    },
}

impl SpawnBody {
    /// Turn the body into a runnable activity cell. Commands resolve their
    /// handler in the runtime's configuration, installed before any worker
    /// ran; an unknown id panics inside the activity, surfacing through the
    /// governing finish as a typed message naming the id.
    pub(crate) fn into_task(self) -> Task {
        match self {
            SpawnBody::Closure(t) => t,
            SpawnBody::Cmd { handler, args } => Task::new(move |ctx: &Ctx| {
                let Some(h) = ctx.worker().g.cfg.handlers.get(handler) else {
                    panic!(
                        "unknown handler id #{}: no command installed under it at {} \
                         (install it with Config::handler)",
                        handler.0,
                        ctx.here()
                    )
                };
                h(ctx, &args)
            }),
        }
    }

    /// Modeled body size: what this spawn charges to the wire (plus the
    /// envelope header). Matches the pre-codec accounting for closures so
    /// byte ledgers are identical across codec modes.
    fn modeled_bytes(&self) -> usize {
        match self {
            SpawnBody::Closure(t) => t.size() + std::mem::size_of::<Attach>(),
            SpawnBody::Cmd { args, .. } => 4 + args.len() + std::mem::size_of::<Attach>(),
        }
    }
}

/// The one worker of a place. Everything only it touches is stored here
/// without a lock (`RefCell`/`Cell`: a place's activities run only on its
/// worker, and `Worker` is `!Sync`); other threads see the counts it
/// publishes to its [`PlaceState`].
pub struct Worker {
    /// Shared runtime state.
    pub g: Arc<Global>,
    /// This worker's place.
    pub place: Arc<PlaceState>,
    /// Shorthand for `place.id`.
    pub here: PlaceId,
    /// Outgoing-message aggregation buffers. Thread-local to this worker
    /// (hence `RefCell`, not a lock); flushed after every activity, at the
    /// end of every scheduling quantum, before parking, and at loop exit, so
    /// buffered messages never outlive a point where their destination could
    /// be waiting on them.
    coalescer: RefCell<Coalescer>,
    /// Scratch buffer for bulk mailbox drains (reused across calls).
    recv_scratch: RefCell<Vec<Envelope>>,
    /// Ready activities, FIFO: local spawns, spawns unpacked by the mailbox
    /// drain, and root submissions moved in from the place's ingress. The
    /// length is published to `PlaceState::queued`.
    queue: RefCell<VecDeque<Activity>>,
    /// Finish proxies for remotely-homed finishes with state at this place.
    /// The count is published to `PlaceState::proxy_count` when it changes.
    proxies: RefCell<IntMap<FinishId, Proxy>>,
    /// Resilient-finish backup snapshots this place holds for finishes
    /// homed at its predecessor (home+1 replication; see DESIGN.md §6),
    /// released when the home reports completion. The count is published to
    /// `PlaceState::backup_count`.
    backup_roots: RefCell<IntMap<FinishId, BackupSnapshot>>,
    /// FINISH_DENSE hop-aggregation buffer (this place acting as a master).
    /// Whether it holds anything is published to `PlaceState::dense_pending`.
    dense_agg: RefCell<DenseAggregator>,
    /// Object registry backing `GlobalRef` / `PlaceLocalHandle`.
    pub(crate) registry: RefCell<IntMap<u64, Arc<dyn Any + Send + Sync>>>,
    /// Team collective state.
    pub(crate) team: RefCell<TeamInbox>,
    /// Clock (distributed barrier) state.
    pub(crate) clocks: RefCell<ClockTables>,
    /// Next home-local finish sequence number.
    pub(crate) next_finish_seq: Cell<u64>,
    /// The causal identity of whatever this worker is currently executing or
    /// handling — the parent every outgoing stamped message links to.
    /// Saved/restored around nested execution (help-first waiting runs
    /// activities inside activities) so the chain always names the true
    /// cause.
    current_cause: Cell<Option<CausalId>>,
    /// Observability handles, resolved once at construction (`None` when the
    /// runtime was built with `Config::obs_disable`) so every hot-path hook
    /// is a `None` check plus, at most, one relaxed atomic increment.
    hooks: Option<WorkerHooks>,
    /// How this worker gives its CPU away when idle, handed over by the
    /// executor that runs it.
    parker: Parker,
}

/// A worker's resolved observability handles: its event ring (trace and
/// causal events) plus the shared metric counters it increments.
struct WorkerHooks {
    ring: Arc<EventRing>,
    finish_ctl_msgs: Counter,
    spawn_sent: Counter,
    spawn_recv: Counter,
    parks: Counter,
    activities: Counter,
    mailbox_sweeps: Counter,
    drain_depth: Histogram,
    send_failed: Counter,
    stray_ctl: Counter,
    watchdog_fired: Counter,
}

/// Budget of one scheduling quantum ([`Worker::run_one`]), shared by both
/// halves: envelopes taken in its single mailbox sweep, and queued
/// activities run after the sweep.
const QUANTUM: usize = 256;

/// Convert a panic payload into a printable message. Typed runtime errors
/// stringify through their `Display`, which embeds the dead-place marker so
/// [`crate::ApgasError::from_panic`] can recover them after a place hop.
pub fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(err) = e.downcast_ref::<crate::error::ApgasError>() {
        err.to_string()
    } else if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Worker {
    /// A worker for `place` within runtime `g`, with its own aggregation
    /// buffers sized from the runtime configuration, idling through
    /// `parker`.
    pub(crate) fn new(g: Arc<Global>, place: Arc<PlaceState>, parker: Parker) -> Self {
        let here = place.id;
        let mut coalescer = Coalescer::new(
            here,
            g.cfg.places,
            g.cfg.batch_max_msgs,
            g.cfg.batch_max_bytes,
            !g.cfg.batch_disable,
        );
        if let Some(o) = g.obs.as_ref() {
            coalescer = coalescer.with_obs(&o.metrics);
        }
        let hooks = g.obs.as_ref().map(|o| WorkerHooks {
            ring: o.tracer.register(here.0),
            finish_ctl_msgs: o.metrics.counter(obs::names::FINISH_CTL_MSGS),
            spawn_sent: o.metrics.counter(obs::names::SPAWN_REMOTE_SENT),
            spawn_recv: o.metrics.counter(obs::names::SPAWN_REMOTE_RECV),
            parks: o.metrics.counter(obs::names::WORKER_PARKS),
            activities: o.metrics.counter(obs::names::WORKER_ACTIVITIES),
            mailbox_sweeps: o.metrics.counter(obs::names::WORKER_MAILBOX_SWEEPS),
            drain_depth: o.metrics.histogram(
                obs::names::MAILBOX_DRAIN_DEPTH,
                obs::names::MAILBOX_DRAIN_BOUNDS,
            ),
            send_failed: o.metrics.counter(obs::names::TRANSPORT_SEND_FAILED),
            stray_ctl: o.metrics.counter(obs::names::FINISH_STRAY_CTL),
            watchdog_fired: o.metrics.counter(obs::names::FINISH_WATCHDOG_FIRED),
        });
        Worker {
            g,
            place,
            here,
            coalescer: RefCell::new(coalescer),
            recv_scratch: RefCell::new(Vec::new()),
            queue: RefCell::new(VecDeque::new()),
            proxies: RefCell::new(IntMap::default()),
            backup_roots: RefCell::new(IntMap::default()),
            dense_agg: RefCell::new(DenseAggregator::new()),
            registry: RefCell::new(IntMap::default()),
            team: RefCell::new(TeamInbox::default()),
            clocks: RefCell::new(ClockTables::default()),
            next_finish_seq: Cell::new(1),
            current_cause: Cell::new(None),
            hooks,
            parker,
        }
    }

    /// This worker's event ring, when observability is on. `Ctx` exposes
    /// it to library layers (finish spans, team phases, GLB steal rounds).
    pub(crate) fn trace(&self) -> Option<&EventRing> {
        self.hooks.as_ref().map(|h| &*h.ring)
    }

    /// The runtime's observability state, when enabled.
    pub(crate) fn obs(&self) -> Option<&Arc<obs::Obs>> {
        self.g.obs.as_ref()
    }

    /// This worker's event ring when causal tracing is currently enabled
    /// (`None` otherwise — the off-path cost is one relaxed atomic load).
    #[inline]
    fn causal_buf(&self) -> Option<&EventRing> {
        match &self.hooks {
            Some(h) if h.ring.causal_enabled() => Some(&h.ring),
            _ => None,
        }
    }

    /// The causal identity of the chain this worker is currently executing
    /// under, when causal tracing recorded one.
    pub(crate) fn current_cause(&self) -> Option<CausalId> {
        self.current_cause.get()
    }

    /// Run `f` with `id` installed as the current cause, recording the
    /// handling as that message's execution span. Used for control traffic
    /// handled inline by the message pump (finish-ctl, team, clock) — their
    /// queue-wait is genuinely ~zero, and any message they send (a dense
    /// hop forward, a clock resume) chains to the message that caused it.
    fn with_inline_cause(&self, id: Option<CausalId>, f: impl FnOnce()) {
        let Some(id) = id else {
            return f();
        };
        let prev = self.current_cause.replace(Some(id));
        let start = self.causal_buf().and_then(EventRing::causal_start);
        f();
        if let (Some(cb), Some(s)) = (self.causal_buf(), start) {
            cb.causal_exec_end(id, 0, s);
        }
        self.current_cause.set(prev);
    }

    /// Scheduler loop: run until global shutdown.
    pub fn main_loop(&self) {
        if self.g.step_gate.is_some() {
            // Deterministic mode: a worker panic escaping an activity (a
            // protocol-bug assertion such as the stray-FinishCtl check)
            // would otherwise kill this thread silently and strand the
            // schedule controller waiting for a quantum that never
            // completes. Record it and convert it into a clean shutdown.
            if let Err(e) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.loop_body();
            })) {
                self.g.uncounted_panics.lock().push(format!(
                    "worker at {} died: {}",
                    self.here,
                    panic_message(e)
                ));
                self.g.shutdown.store(true, Ordering::Release);
                if let Some(gate) = &self.g.step_gate {
                    gate.release_all();
                }
                for p in &self.g.places {
                    p.wake();
                }
            }
            return;
        }
        self.loop_body();
    }

    /// Bracket one `Ctx::probe` pump. Deterministic mode only: while the
    /// probing activity is paused at the step gate, its place still has
    /// runnable application work even with every queue empty, and
    /// `Runtime::place_has_work` must keep reporting it so the schedule
    /// controller grants the quanta that advance it. (A `wait_until` pause
    /// deliberately does NOT set this — only a delivery can unblock it, and
    /// marking it runnable would make true deadlocks undetectable.)
    pub fn begin_probe(&self) {
        if self.g.step_gate.is_some() {
            self.place.probing.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// See [`Worker::begin_probe`].
    pub fn end_probe(&self) {
        if self.g.step_gate.is_some() {
            self.place.probing.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn loop_body(&self) {
        while !self.g.shutdown.load(Ordering::Acquire) {
            if !self.run_one() {
                self.park_brief();
            }
        }
        // Push out anything still buffered so a peer draining its mailbox
        // during teardown sees every message that was logically sent.
        self.flush_sends();
    }

    /// One scheduling quantum: take root submissions from the ingress,
    /// sweep the mailbox once (at most [`QUANTUM`] envelopes), then run at
    /// most [`QUANTUM`] queued activities, flushing the coalescer after
    /// each. Returns whether any progress was made. Nothing this quantum
    /// sent stays buffered into the next one.
    ///
    /// The sweep is amortized over the activities it fed: a place that just
    /// unpacked a storm of tiny updates runs them back to back instead of
    /// re-sweeping every incoming lane before each one. The activity budget
    /// keeps the mailbox live: an activity that keeps re-spawning itself
    /// locally cannot starve the messages that would tell it to stop.
    pub fn run_one(&self) -> bool {
        if let Some(gate) = &self.g.step_gate {
            // Deterministic mode: the quantum boundary sits here, at the
            // top of run_one, so every `wait_until` condition re-check and
            // every activity body runs while this worker holds the baton.
            // Flush first, still inside the quantum that made the sends: an
            // activity that sent and then blocked in `wait_until` must not
            // leave them in the coalescer, where the schedule controller
            // cannot see them.
            self.flush_sends();
            // Poll the baton and park between polls; the gate's grant hook
            // wakes the granted place.
            while gate.try_step(self.here.0) == crate::step::TryStep::NotGranted {
                self.parker.park();
            }
        }
        self.place.take_ingress(&mut self.queue.borrow_mut());
        let handled = self.drain_messages(QUANTUM);
        let mut ran = 0;
        while ran < QUANTUM {
            let Some(act) = self.pop_activity() else {
                break;
            };
            self.execute(act);
            // Flush per activity, not per quantum: nothing an activity sent
            // may wait behind the activities queued after it.
            self.flush_sends();
            ran += 1;
        }
        if ran == 0 {
            // Sends made by inline control handling during the sweep.
            self.flush_sends();
        }
        ran > 0 || handled > 0
    }

    /// Drain this worker's aggregation buffers onto the transport. The
    /// pre-flush buffered-byte total is published to the place's
    /// `coalesced_bytes` gauge first (the status report reads it), so the
    /// gauge tracks what each scheduling quantum left buffered without
    /// adding any per-send cost.
    pub fn flush_sends(&self) {
        let mut co = self.coalescer.borrow_mut();
        self.place
            .coalesced_bytes
            .store(co.pending_bytes() as u64, Ordering::Relaxed);
        if let Err(e) = co.flush(&*self.g.transport) {
            self.note_send_failure(&e);
        }
    }

    /// Route an outgoing envelope through the aggregation buffers (or
    /// straight to the transport when aggregation is disabled). Every send
    /// from this worker thread must go through here — a bypass would let
    /// messages overtake buffered ones and break per-pair FIFO. The finish
    /// root governing the message is inherited from the current cause; use
    /// [`Worker::send_env_rooted`] when the caller knows it exactly.
    pub(crate) fn send_env(&self, env: Envelope) {
        self.send_env_rooted(env, None);
    }

    /// [`Worker::send_env`] with an explicit finish root for the causal
    /// stamp (packed via `CausalId::pack_root`; `None` inherits the current
    /// cause's root). When causal tracing is on, the envelope is stamped
    /// with a fresh [`CausalId`] — charging the causal header bytes — and a
    /// send event linking it to the current cause is recorded; when off,
    /// the envelope passes through untouched.
    pub(crate) fn send_env_rooted(&self, env: Envelope, root: Option<u64>) {
        let env = self.stamp(env, root);
        if let Err(e) = self.coalescer.borrow_mut().send(&*self.g.transport, env) {
            self.note_send_failure(&e);
        }
    }

    /// The causal stamp of [`Worker::send_env_rooted`].
    fn stamp(&self, env: Envelope, root: Option<u64>) -> Envelope {
        match (self.causal_buf(), self.obs()) {
            (Some(cb), Some(o)) if env.causal.is_none() => {
                let cur = self.current_cause.get();
                let root = root.or_else(|| cur.map(|c| c.root)).unwrap_or(0);
                let id = o.causal.mint(root);
                let env = env.with_causal(id);
                cb.causal_send(
                    id,
                    cur.map_or(0, |c| c.seq),
                    env.to.0,
                    env.class.index() as u8,
                    env.bytes,
                );
                env
            }
            _ => env,
        }
    }

    /// Account for messages the transport destroyed (dead destination).
    /// The messages are gone; the protocols above degrade via the finish
    /// watchdog and GLB's dead-victim handling rather than by blocking
    /// here.
    fn note_send_failure(&self, e: &x10rt::SendError) {
        if let Some(h) = &self.hooks {
            h.send_failed.add(self.here.0, e.dropped as u64);
            h.ring.instant("transport", "send_failed", e.place.0 as u64);
        }
    }

    /// Help-first wait: keep the place making progress until `cond` holds.
    ///
    /// If the runtime begins shutting down while the condition is still
    /// unsatisfiable (possible only when a fault killed the peer that would
    /// have satisfied it), the wait aborts by panicking so the worker thread
    /// can unwind out of the blocked activity and join; a hang here would
    /// deadlock `Runtime::drop`.
    pub fn wait_until(&self, cond: &dyn Fn() -> bool) {
        while !cond() {
            if self.g.shutdown.load(Ordering::Acquire) {
                panic!(
                    "wait at {} aborted: runtime shutting down before the condition held",
                    self.here
                );
            }
            if !self.run_one() {
                self.park_brief();
            }
        }
    }

    /// [`Worker::wait_until`]`(root.is_done())` with a liveness watchdog:
    /// if the root's protocol makes no progress (no accounting event at
    /// all) for `limit`, give up and surface a typed dead-place error. Any
    /// progress event extends the deadline, so slow-but-live protocols are
    /// never aborted; only genuine stalls (lost control traffic, a dead
    /// participant) trip it.
    pub(crate) fn wait_root_watchdog(
        &self,
        root: &RootState,
        limit: std::time::Duration,
    ) -> Result<(), crate::error::ApgasError> {
        use std::time::Instant;
        let mut last = root.progress_events();
        let mut deadline = Instant::now() + limit;
        while !root.is_done() {
            if self.g.shutdown.load(Ordering::Acquire) {
                panic!(
                    "wait at {} aborted: runtime shutting down before the condition held",
                    self.here
                );
            }
            // Check progress and the deadline right after the quantum that
            // drained the mailbox, and park only after that: checked right
            // after a long park, the deadline would pass before the messages
            // carrying the progress were drained.
            let busy = self.run_one();
            if root.kind == FinishKind::Resilient {
                // Dead-place detection is the adoption trigger; the
                // reconstruction bumps the root's progress events, so a
                // recovery in flight keeps extending the deadline below.
                self.resilient_recover(root);
            }
            let seen = root.progress_events();
            if seen != last {
                last = seen;
                deadline = Instant::now() + limit;
            } else if Instant::now() >= deadline {
                if let Some(h) = &self.hooks {
                    h.watchdog_fired.inc(self.here.0);
                    h.ring.instant("finish", "watchdog_fired", root.id.seq);
                }
                let dead: Vec<u32> = self.g.transport.dead_places().iter().map(|p| p.0).collect();
                // Dump the live status report: stash it for artifact
                // writers (chaos smuggles a `StatusHandle` out of a failing
                // cell) and print it, so a tripped watchdog always leaves a
                // diagnosis naming the stalled finish kind and place.
                let report = format!(
                    "finish[{}] seq {} at {} stalled: watchdog fired after {limit:?}\n{}",
                    root.kind.label(),
                    root.id.seq,
                    self.here,
                    crate::status::report_text(&self.g)
                );
                *self.g.obs_plane.last_watchdog_report.lock() = Some(report.clone());
                eprintln!("{report}");
                return Err(crate::error::ApgasError::DeadPlace {
                    detail: format!(
                        "finish[{}] at {} stalled: no termination-protocol progress \
                         for {limit:?}; transport reports dead places {dead:?}",
                        root.kind.label(),
                        self.here,
                    ),
                });
            }
            if !busy {
                self.park_brief();
            }
        }
        Ok(())
    }

    fn pop_activity(&self) -> Option<Activity> {
        let mut queue = self.queue.borrow_mut();
        let act = queue.pop_front()?;
        self.place.queued.store(queue.len(), Ordering::Relaxed);
        Some(act)
    }

    /// Queue an activity. No wake: the worker is running, and it pops its
    /// queue before it can park (`park_brief` follows only a quantum that
    /// found the queue empty), so a wake would only re-mark a running
    /// context.
    fn push_activity(&self, act: Activity) {
        let mut queue = self.queue.borrow_mut();
        queue.push_back(act);
        self.place.queued.store(queue.len(), Ordering::Relaxed);
    }

    /// Give the CPU away after a quantum that found nothing to do, until a
    /// delivery, a submission or shutdown wakes this place, or
    /// `park_timeout` passes (see `executor::Parker::park`). Safe against
    /// lost wakes: a delivery from another place, or a submission from
    /// outside the runtime, wakes the place even while it is mid-quantum;
    /// this worker's own enqueues do not wake, but it parks only after a
    /// quantum that found its queue empty. The timed re-poll keeps the
    /// time-based machinery alive (the finish watchdog and GLB steal
    /// timeouts).
    pub(crate) fn park_brief(&self) {
        // Never sleep on buffered sends: a peer may be waiting on them.
        self.flush_sends();
        // Deterministic mode: this worker holds the baton until its next
        // run_one polls the gate (and parks there until its next grant);
        // parking here would only stall the schedule controller.
        if self.g.step_gate.is_some() {
            return;
        }
        self.note_park();
        self.parker.park();
    }

    /// Count one park: this `park_brief` is about to give up the CPU, by a
    /// context yield, a thread yield or a condvar sleep. The one meaning of
    /// `worker.parks` in every scheduler.
    fn note_park(&self) {
        self.place.parks.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = &self.hooks {
            h.parks.inc(self.here.0);
            h.ring.instant("worker", "park", 0);
        }
    }

    /// Run one activity to completion and report its termination.
    pub fn execute(&self, act: Activity) {
        if let Some(h) = &self.hooks {
            h.activities.inc(self.here.0);
        }
        let Activity {
            mut task,
            cause,
            cause_remote,
        } = act;
        // Help-first waiting means execute() nests: save/restore the current
        // cause so a pumped activity doesn't leak its chain into the blocked
        // parent's subsequent sends.
        let prev_cause = self.current_cause.replace(cause);
        let exec_start = if cause_remote && cause.is_some() {
            self.causal_buf().and_then(EventRing::causal_start)
        } else {
            None
        };
        let ctx = Ctx::new(self, std::mem::replace(&mut task.attach, Attach::Uncounted));
        let result = catch_unwind(AssertUnwindSafe(|| task.run(&ctx)));
        let panic = result.err().map(panic_message);
        ctx.finalize_activity();
        let attach = ctx.take_attach();
        self.on_death(attach, panic);
        // Close the span after on_death so the Done/CreditReturn sends it
        // triggers still chain to this activity in the DAG.
        if let (Some(id), Some(start)) = (cause, exec_start) {
            if let Some(cb) = self.causal_buf() {
                cb.causal_exec_end(id, 0, start);
            }
        }
        self.current_cause.set(prev_cause);
    }

    /// Queue a locally spawned activity under `attach`; it inherits this
    /// worker's current cause.
    pub(crate) fn push_task(&self, mut task: Task, attach: Attach) {
        task.attach = attach;
        self.push_activity(Activity {
            task,
            cause: self.current_cause(),
            cause_remote: false,
        });
    }

    // ------------------------------------------------------------------
    // Message pump
    // ------------------------------------------------------------------

    fn drain_messages(&self, max: usize) -> usize {
        // Bulk drain: pull up to `max` envelopes under one mailbox lock
        // acquisition, then dispatch outside the lock. The scratch vector is
        // taken out of its cell for the duration so handlers are free to use
        // `self` (they never drain recursively).
        let mut scratch = std::mem::take(&mut *self.recv_scratch.borrow_mut());
        if let Some(h) = &self.hooks {
            h.mailbox_sweeps.inc(self.here.0);
        }
        self.g
            .transport
            .try_recv_batch(self.here, max, &mut scratch);
        let mut n = 0;
        for env in scratch.drain(..) {
            // A batch envelope expands into its logical messages, dispatched
            // in their original send order (a spawn cell moving out of its
            // inline slot); the emptied batch box then goes back to the
            // coalescer's arena (after the dispatch loop — handlers may
            // borrow the coalescer to send).
            match env.unbatch_boxed() {
                Ok(mut batch) => {
                    n += batch.envs.len();
                    for (env, val) in batch.drain() {
                        self.handle_envelope(env, val);
                    }
                    self.coalescer.borrow_mut().recycle_batch(batch);
                }
                Err(env) => {
                    n += 1;
                    self.handle_envelope(env, None);
                }
            }
        }
        *self.recv_scratch.borrow_mut() = scratch;
        self.forward_dense();
        if n > 0 {
            if let Some(h) = &self.hooks {
                h.drain_depth.record(self.here.0, n as u64);
            }
        }
        n
    }

    /// Dispatch one incoming message by its handler id, whichever form it
    /// arrived in (`wire::handler_of`): each runtime handler is written
    /// once, for both codec modes. A value that rode inline in its batch
    /// (`val`) is a spawn cell. A message that fails to decode means a
    /// peer violated the protocol; it panics with the typed decode error
    /// rather than limping on with garbage.
    fn handle_envelope(&self, env: Envelope, val: Option<InlineSlot>) {
        // Receive stamp: dispatch time at this worker. Recorded before the
        // dispatch so the transport component of the causal edge ends here
        // and the handling below is attributed as execution.
        if let (Some(id), Some(cb)) = (env.causal, self.causal_buf()) {
            cb.causal_recv(id, env.from.0, env.class.index() as u8, env.bytes);
        }
        let Envelope {
            from,
            class,
            causal,
            payload,
            ..
        } = env;
        fn take<M: Wire>(from: PlaceId, p: x10rt::Payload) -> M {
            wire::from_payload(p)
                .unwrap_or_else(|e| panic!("malformed {} message from {from}: {e}", M::HANDLER))
        }
        if let Some(val) = val {
            let task = val.take::<Task>().unwrap_or_else(|_| {
                panic!(
                    "inline value of a {}-class message from {from} is not a spawn cell",
                    class.label()
                )
            });
            return self.receive_spawn(from, causal, task);
        }
        match wire::handler_of(&payload) {
            Some(codec::H_SPAWN) => self.receive_spawn(from, causal, take(from, payload)),
            Some(codec::H_FINISH) => {
                let msg = take(from, payload);
                self.with_inline_cause(causal, || self.handle_finish_msg(msg));
            }
            Some(codec::H_TEAM) => {
                let msg = take(from, payload);
                self.with_inline_cause(causal, || self.team.borrow_mut().deliver(msg));
            }
            Some(codec::H_CLOCK) => {
                let msg = take(from, payload);
                self.with_inline_cause(causal, || crate::clock::handle_msg(self, msg));
            }
            Some(codec::H_SHUTDOWN) => {
                // A remote process is tearing the launch down; ship this
                // process's observability snapshot back to the initiator
                // first (once — rank 0 folds it even if it never asked),
                // then release the workers and the `Runtime::serve` caller.
                self.ship_obs_on_shutdown(from);
                self.g.shutdown.store(true, Ordering::Release);
                for p in &self.g.places {
                    p.wake();
                }
            }
            Some(codec::H_OBS) => self.handle_obs_msg(take(from, payload)),
            h => panic!(
                "unknown handler id {} in a {}-class message from {from} — \
                 app commands must ride inside H_SPAWN",
                h.unwrap_or(HandlerId::INVALID),
                class.label()
            ),
        }
    }

    /// Account for a spawned activity arriving from `from` and queue it.
    /// The activity carries the message's causal id; its execution span is
    /// recorded when a worker actually runs it, which is what splits
    /// queue-wait from execution.
    fn receive_spawn(&self, from: PlaceId, causal: Option<CausalId>, task: Task) {
        if let Some(h) = &self.hooks {
            h.spawn_recv.inc(self.here.0);
            h.ring.instant("spawn", "recv", from.0 as u64);
        }
        self.register_receipt(&task.attach, from.0);
        self.push_activity(Activity {
            task,
            cause: causal,
            cause_remote: true,
        });
    }

    /// Dispatch observability-plane traffic (`H_OBS`, PROTOCOL.md §4).
    /// Obs messages bypass the coalescer and carry no causal stamp: they
    /// are diagnostics *about* the run, and must neither appear in the
    /// causal DAG they ship nor wait behind the traffic they describe
    /// (ordering against task traffic is irrelevant to them, so the
    /// direct-send bypass is safe).
    fn handle_obs_msg(&self, msg: wire::ObsMsg) {
        match msg {
            wire::ObsMsg::SnapshotRequest { reply_to } => {
                // One reply per *process*: only the first hosted place
                // answers, so a rank hosting 2,048 places ships one
                // snapshot, not 2,048 copies.
                if self.here.0 != self.g.rank() {
                    return;
                }
                if let Some(snap) = self.g.capture_rank_obs() {
                    self.obs_send(PlaceId(reply_to), wire::ObsMsg::Snapshot(Box::new(snap)));
                }
            }
            wire::ObsMsg::Snapshot(snap) => self.g.accept_shipment(*snap),
            wire::ObsMsg::StatusRequest { reply_to } => {
                // The report is process-wide, so any hosted place answers
                // (the querier addressed one specific place).
                self.obs_send(
                    PlaceId(reply_to),
                    wire::ObsMsg::Status {
                        rank: self.g.rank(),
                        text: crate::status::report_text(&self.g),
                        json: crate::status::report_json(&self.g),
                    },
                );
            }
            wire::ObsMsg::Status { rank, text, json } => {
                self.g.accept_status_reply(rank, text, json);
            }
        }
    }

    /// Best-effort direct send of an obs message (see
    /// [`Worker::handle_obs_msg`] for why it bypasses the coalescer). A
    /// refused send is dropped: losing a diagnostic must never wedge the
    /// runtime being diagnosed.
    fn obs_send(&self, to: PlaceId, msg: wire::ObsMsg) {
        if let Err(e) = self.g.send_direct(self.here, to, msg.encode()) {
            self.note_send_failure(&e);
        }
    }

    /// Serve-shutdown shipping: the first `H_SHUTDOWN` this process sees
    /// also ships its observability snapshot to the shutdown's initiator,
    /// so `Runtime::serve` ranks contribute to the cluster fold even when
    /// rank 0 never ran an explicit collection round.
    fn ship_obs_on_shutdown(&self, to: PlaceId) {
        if self.g.cfg.host_places.is_none()
            || self
                .g
                .obs_plane
                .shutdown_shipped
                .swap(true, Ordering::AcqRel)
        {
            return;
        }
        if let Some(snap) = self.g.capture_rank_obs() {
            self.obs_send(to, wire::ObsMsg::Snapshot(Box::new(snap)));
        }
    }

    fn handle_finish_msg(&self, msg: FinishMsg) {
        match msg {
            FinishMsg::Flush { fin, deltas } => match self.try_root_of(&fin) {
                Some(r) => r.apply_deltas(deltas),
                None => self.note_stray_ctl(&fin),
            },
            FinishMsg::DenseHop { fin, deltas } => {
                if fin.id.home == self.here {
                    match self.try_root_of(&fin) {
                        Some(r) => r.apply_deltas(deltas),
                        None => self.note_stray_ctl(&fin),
                    }
                } else {
                    self.dense_agg.borrow_mut().absorb(fin, deltas);
                    self.place.dense_pending.store(true, Ordering::Relaxed);
                }
            }
            FinishMsg::Done {
                fin,
                completions,
                panics,
            } => match self.try_root_of(&fin) {
                Some(r) => r.apply_done(completions, panics),
                None => self.note_stray_ctl(&fin),
            },
            FinishMsg::CreditReturn { fin, weight, panic } => match self.try_root_of(&fin) {
                Some(r) => r.apply_credit(weight, panic),
                None => self.note_stray_ctl(&fin),
            },
            // Resilient backup replication: this place is the *backup*, not
            // the home — store/discard the snapshot keyed by finish id. A
            // release for an unknown id is fine (the sync may have been
            // lost; the table is advisory state for recovery diagnosis).
            FinishMsg::BackupSync { fin, snapshot } => {
                let mut backups = self.backup_roots.borrow_mut();
                backups.insert(fin.id, snapshot);
                self.place
                    .backup_count
                    .store(backups.len(), Ordering::Relaxed);
            }
            FinishMsg::BackupRelease { fin } => {
                let mut backups = self.backup_roots.borrow_mut();
                backups.remove(&fin.id);
                self.place
                    .backup_count
                    .store(backups.len(), Ordering::Relaxed);
            }
            FinishMsg::CmdLog { fin, cmd } => match self.try_root_of(&fin) {
                Some(r) => {
                    if let Some(cmd) = r.apply_cmd_log(cmd) {
                        // The destination was adopted before this log
                        // arrived: the reconstruction pass missed it, so
                        // re-execute it here and now.
                        self.reexec_cmd(&r, cmd);
                    }
                }
                None => self.note_stray_ctl(&fin),
            },
        }
    }

    /// Forward (hop-merged) dense control traffic toward finish homes.
    fn forward_dense(&self) {
        let pending = {
            let mut agg = self.dense_agg.borrow_mut();
            if !agg.has_pending() {
                return;
            }
            self.place.dense_pending.store(false, Ordering::Relaxed);
            agg.drain()
        };
        for (fin, deltas) in pending {
            if fin.id.home == self.here {
                self.root_of(&fin).apply_deltas(deltas);
            } else {
                let hop = next_hop(&self.g.topo, self.here, fin.id.home)
                    .expect("non-home dense delta must have a next hop");
                self.send_finish_msg(hop, deltas.wire_size(), FinishMsg::DenseHop { fin, deltas });
            }
        }
    }

    // ------------------------------------------------------------------
    // Termination accounting hooks
    // ------------------------------------------------------------------

    /// Look up a finish root homed at this place; `None` once the root has
    /// been deregistered (normal completion, or abandonment by the liveness
    /// watchdog).
    pub fn try_root_of(&self, fin: &FinishRef) -> Option<Arc<RootState>> {
        debug_assert_eq!(fin.id.home, self.here);
        self.place.roots.lock().get(&fin.id.seq).cloned()
    }

    /// Look up a finish root homed at this place.
    pub fn root_of(&self, fin: &FinishRef) -> Arc<RootState> {
        self.try_root_of(fin).unwrap_or_else(|| {
            panic!(
                "finish {:?} not (or no longer) registered at its home — \
                 protocol bug, or the scope was abandoned by the liveness watchdog",
                fin.id
            )
        })
    }

    /// Control traffic arrived for a finish that no longer has a root here.
    /// Impossible in fault-free operation (the root outlives all governed
    /// activities by construction), so treat it as a protocol bug then; with
    /// faults or a watchdog configured it is expected residue — duplicated
    /// flushes, or stragglers of a scope the watchdog abandoned — and is
    /// counted and dropped.
    fn note_stray_ctl(&self, fin: &FinishRef) {
        if self.g.cfg.fault_plan.is_none()
            && self.g.cfg.finish_watchdog.is_none()
            && self.g.transport.dead_places().is_empty()
        {
            panic!(
                "finish {:?} not (or no longer) registered at its home — protocol bug",
                fin.id
            );
        }
        if let Some(h) = &self.hooks {
            h.stray_ctl.inc(self.here.0);
            h.ring.instant("finish", "stray_ctl", fin.id.seq);
        }
    }

    /// Run `f` against the proxy for `fin` at this (non-home) place, then
    /// transmit whatever the proxy asks for.
    pub fn with_proxy(&self, fin: FinishRef, f: impl FnOnce(&mut Proxy) -> ProxyEmit) {
        debug_assert_ne!(fin.id.home, self.here);
        let emit = {
            let mut proxies = self.proxies.borrow_mut();
            let proxy = match proxies.entry(fin.id) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    self.place.proxy_count.fetch_add(1, Ordering::Relaxed);
                    e.insert(Proxy::new(fin, self.here.0))
                }
            };
            let emit = f(proxy);
            if proxy.is_idle() {
                proxies.remove(&fin.id);
                self.place.proxy_count.fetch_sub(1, Ordering::Relaxed);
            }
            emit
        };
        self.transmit_emit(fin, emit);
    }

    fn transmit_emit(&self, fin: FinishRef, emit: ProxyEmit) {
        match emit {
            ProxyEmit::None => {}
            ProxyEmit::Flush(deltas) => {
                let sz = deltas.wire_size();
                self.send_finish_msg(fin.id.home, sz, FinishMsg::Flush { fin, deltas });
            }
            ProxyEmit::DenseFlush(deltas) => {
                let hop = next_hop(&self.g.topo, self.here, fin.id.home)
                    .expect("dense flush at home should be direct");
                let sz = deltas.wire_size();
                self.send_finish_msg(hop, sz, FinishMsg::DenseHop { fin, deltas });
            }
            ProxyEmit::Done {
                completions,
                panics,
            } => {
                self.send_finish_msg(
                    fin.id.home,
                    16 + panics.iter().map(String::len).sum::<usize>(),
                    FinishMsg::Done {
                        fin,
                        completions,
                        panics,
                    },
                );
            }
        }
    }

    fn send_finish_msg(&self, to: PlaceId, body_bytes: usize, msg: FinishMsg) {
        if let Some(h) = &self.hooks {
            h.finish_ctl_msgs.inc(self.here.0);
        }
        // Every finish-ctl message names its finish, which is exactly the
        // causal root: critical paths group by it.
        let root = match &msg {
            FinishMsg::Flush { fin, .. }
            | FinishMsg::DenseHop { fin, .. }
            | FinishMsg::Done { fin, .. }
            | FinishMsg::CreditReturn { fin, .. }
            | FinishMsg::BackupSync { fin, .. }
            | FinishMsg::BackupRelease { fin }
            | FinishMsg::CmdLog { fin, .. } => CausalId::pack_root(fin.id.home.0, fin.id.seq),
        };
        let payload = wire::to_payload(self.g.cfg.codec, msg);
        self.send_env_rooted(
            Envelope::new(self.here, to, MsgClass::FinishCtl, body_bytes, payload),
            Some(root),
        );
    }

    // ------------------------------------------------------------------
    // Resilient finish: adoption, re-execution, backup replication
    // ------------------------------------------------------------------

    /// Poll the transport's dead-place set and adopt any newly-dead places
    /// into a resilient root: zero their accounting and re-execute the
    /// registered command descriptors that were destined to them. Cheap
    /// no-op (one atomic compare) when nothing new has died. Disabled by
    /// `Config::resilient_finish = false` — the deliberately-broken
    /// configuration the DST mutation-smoke test catches.
    pub(crate) fn resilient_recover(&self, root: &RootState) {
        if !self.g.cfg.resilient_finish {
            return;
        }
        let dead = self.g.transport.dead_places();
        if dead.is_empty() || !root.needs_reconstruct(dead.len()) {
            return;
        }
        let dead: Vec<u32> = dead.iter().map(|p| p.0).collect();
        if let Some(lost) = root.reconstruct(&dead) {
            if let Some(h) = &self.hooks {
                h.ring.instant("finish", "resilient_adopt", root.id.seq);
            }
            for cmd in lost {
                self.reexec_cmd(root, cmd);
            }
            // Adoption reshaped the outstanding state: refresh the backup.
            self.send_backup_sync(root);
        }
    }

    /// Re-execute a lost command descriptor *at the home place* as a fresh
    /// counted local activity — the resilient re-execution rule. The
    /// handler must be idempotent and location-independent (see DESIGN.md
    /// §6); replies keyed by the descriptor id let applications dedup.
    ///
    /// No spawn note here: both producers of re-executable descriptors
    /// ([`RootState::reconstruct`], [`RootState::apply_cmd_log`])
    /// pre-account the spawn inside their own critical section, so the done
    /// latch can never observe the window between adoption zeroing the dead
    /// edges and this enqueue.
    pub(crate) fn reexec_cmd(&self, root: &RootState, cmd: crate::finish::CmdDescriptor) {
        let fin = FinishRef {
            id: root.id,
            kind: root.kind,
        };
        let body = SpawnBody::Cmd {
            handler: HandlerId(cmd.handler),
            args: cmd.args,
        };
        self.push_task(
            body.into_task(),
            Attach::Counted {
                fin,
                weight: 0,
                remote: false,
            },
        );
    }

    /// Replicate a resilient root's liveness snapshot to its backup place
    /// (home+1 mod places). Best effort: a dead backup just drops the send.
    pub(crate) fn send_backup_sync(&self, root: &RootState) {
        if !self.g.cfg.resilient_finish || self.g.cfg.places < 2 {
            return;
        }
        let backup = PlaceId((self.here.0 + 1) % self.g.cfg.places as u32);
        let fin = FinishRef {
            id: root.id,
            kind: root.kind,
        };
        let snapshot = root.backup_snapshot();
        self.send_finish_msg(backup, 29, FinishMsg::BackupSync { fin, snapshot });
    }

    /// Ship a command descriptor from a remote spawner to the root's home so
    /// the home can replay it if the destination dies before running it.
    pub(crate) fn send_cmd_log(&self, fin: FinishRef, cmd: crate::finish::CmdDescriptor) {
        let sz = 33 + cmd.args.len();
        self.send_finish_msg(fin.id.home, sz, FinishMsg::CmdLog { fin, cmd });
    }

    /// Tell the backup place the finish completed and its snapshot can go.
    pub(crate) fn send_backup_release(&self, root: &RootState) {
        if !self.g.cfg.resilient_finish || self.g.cfg.places < 2 {
            return;
        }
        let backup = PlaceId((self.here.0 + 1) % self.g.cfg.places as u32);
        let fin = FinishRef {
            id: root.id,
            kind: root.kind,
        };
        self.send_finish_msg(backup, 13, FinishMsg::BackupRelease { fin });
    }

    /// Account for an activity arriving at this place from `src`.
    fn register_receipt(&self, attach: &Attach, src: u32) {
        let Attach::Counted { fin, .. } = attach else {
            return;
        };
        if fin.id.home == self.here {
            match fin.kind {
                FinishKind::Default | FinishKind::Dense | FinishKind::Resilient => {
                    match self.try_root_of(fin) {
                        Some(r) => r.note_home_receive(self.here.0, src),
                        None => self.note_stray_ctl(fin),
                    }
                }
                FinishKind::Here => {}
                k => debug_assert!(false, "unexpected home receipt under {k:?}"),
            }
        } else {
            match fin.kind {
                FinishKind::Here => {}
                _ => self.with_proxy(*fin, |p| {
                    p.on_receive(src);
                    ProxyEmit::None
                }),
            }
        }
    }

    /// Account for an activity's completion.
    pub fn on_death(&self, attach: Attach, panic: Option<String>) {
        match attach {
            Attach::Uncounted => {
                if let Some(p) = panic {
                    // Teardown aborts of blocked waits are expected when a
                    // fault killed a peer; don't spam stderr for those.
                    if !self.g.shutdown.load(Ordering::Acquire) {
                        eprintln!("[apgas] uncounted activity panicked at {}: {p}", self.here);
                    }
                    self.g.uncounted_panics.lock().push(p);
                }
            }
            Attach::Counted {
                fin,
                weight,
                remote,
            } => {
                if fin.id.home == self.here {
                    let Some(root) = self.try_root_of(&fin) else {
                        self.note_stray_ctl(&fin);
                        return;
                    };
                    if fin.kind == FinishKind::Here && weight > 0 {
                        root.note_home_weighted_death(weight, panic);
                    } else {
                        root.note_local_death(self.here.0, panic);
                    }
                } else if fin.kind == FinishKind::Here {
                    debug_assert!(weight > 0, "remote HERE activity without credit");
                    self.send_finish_msg(
                        fin.id.home,
                        16,
                        FinishMsg::CreditReturn { fin, weight, panic },
                    );
                } else {
                    self.with_proxy(fin, |p| p.on_death(remote, panic));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Spawn transmission (called from Ctx)
    // ------------------------------------------------------------------

    /// Ship an activity to `dst` (accounting already done by the caller).
    pub fn send_spawn(&self, dst: PlaceId, attach: Attach, body: SpawnBody, class: MsgClass) {
        if let Some(h) = &self.hooks {
            h.spawn_sent.inc(self.here.0);
            h.ring.instant("spawn", "send", dst.0 as u64);
        }
        // Counted spawns root their causal chain at the governing finish;
        // uncounted ones fall back to the sender's current cause (or 0).
        let root = match &attach {
            Attach::Counted { fin, .. } => Some(CausalId::pack_root(fin.id.home.0, fin.id.seq)),
            Attach::Uncounted => None,
        };
        let body_bytes = body.modeled_bytes();
        let payload: x10rt::Payload = match body {
            // The typed cell travels by value: it rides inline in the
            // batch that carries it, and is boxed only if it leaves alone.
            SpawnBody::Closure(mut task) if self.g.cfg.codec == CodecMode::Inline => {
                task.attach = attach;
                let env = Envelope::inlined(self.here, dst, class, body_bytes);
                let env = self.stamp(env, root);
                let sent = self
                    .coalescer
                    .borrow_mut()
                    .send_inline(&*self.g.transport, env, task);
                if let Err(e) = sent {
                    self.note_send_failure(&e);
                }
                return;
            }
            SpawnBody::Closure(mut task) => {
                task.attach = attach;
                wire::to_payload(self.g.cfg.codec, task)
            }
            // Commands are serializable by construction: they always ship
            // encoded, and every receiver dispatches by handler id.
            SpawnBody::Cmd { handler, args } => Box::new(WireMsg::new(
                codec::H_SPAWN,
                wire::encode_spawn_cmd(&attach, handler, &args),
            )),
        };
        self.send_env_rooted(
            Envelope::new(self.here, dst, class, body_bytes, payload),
            root,
        );
    }
}
