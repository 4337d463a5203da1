//! Canonical metric names.
//!
//! Every metric the runtime emits is registered under one of these names, so
//! the catalogue in `OBSERVABILITY.md`, the bench JSON and the code can never
//! drift apart. Units and increment sites are documented per constant.

/// Counter: `finish` termination-control messages sent (unit: messages).
/// Incremented in the worker's finish-control send path, once per
/// `FinishMsg` (flush, dense hop, done, credit return).
pub const FINISH_CTL_MSGS: &str = "finish.ctl_msgs";

/// Counter: activities shipped to a remote place (unit: messages).
/// Incremented in the worker's spawn-transmission path.
pub const SPAWN_REMOTE_SENT: &str = "spawn.remote.sent";

/// Counter: remotely-spawned activities received and enqueued (unit:
/// messages). Incremented when a task-class envelope is dispatched.
pub const SPAWN_REMOTE_RECV: &str = "spawn.remote.recv";

/// Counter: idle parks — a worker's `park_brief` giving up the CPU, by a
/// context switch-out (shared executor), or a thread yield during the spin
/// backoff or a condvar sleep (dedicated executor) (unit: parks).
/// Incremented in the worker's park path.
pub const WORKER_PARKS: &str = "worker.parks";

/// Counter: activities executed to completion (unit: activities).
/// Incremented once per activity body run by a worker.
pub const WORKER_ACTIVITIES: &str = "worker.activities";

/// Counter: mailbox sweeps — `try_recv_batch` calls, each one pass over
/// the place's incoming lanes, empty or not (unit: sweeps). Incremented in
/// the worker's message pump, once per scheduling quantum. Read against
/// [`WORKER_ACTIVITIES`] it gives the sweeps paid per activity.
pub const WORKER_MAILBOX_SWEEPS: &str = "worker.mailbox_sweeps";

/// Counter: place contexts popped off the shared pool's run queue and
/// resumed (unit: resumes; sharded by executor). Counted in the executor's
/// locals and published each time it waits and when it returns. Zero on a
/// dedicated executor.
pub const EXECUTOR_RESUMES: &str = "executor.resumes";

/// Counter: condvar waits an executor entered because the run queue was
/// empty (unit: sleeps; sharded by executor).
pub const EXECUTOR_SLEEPS: &str = "executor.sleeps";

/// Counter: executor waits that timed out after `PARK_TIMEOUT` and woke
/// every context, queueing each idle one — the timed re-poll firing (unit:
/// resweeps; sharded by executor).
pub const EXECUTOR_RESWEEPS: &str = "executor.resweeps";

/// Counter: coalescer buffer drains triggered by the message-count
/// threshold (unit: flushes). Incremented at the flush site in
/// `x10rt::coalesce`.
pub const COALESCE_FLUSH_THRESHOLD_MSGS: &str = "coalescer.flush.threshold_msgs";

/// Counter: coalescer buffer drains triggered by the byte threshold
/// (unit: flushes).
pub const COALESCE_FLUSH_THRESHOLD_BYTES: &str = "coalescer.flush.threshold_bytes";

/// Counter: coalescer buffer drains from an explicit `flush`/`flush_dest`
/// call — after each activity and at the end of a scheduling quantum, before
/// parking, on worker exit (unit: flushes).
pub const COALESCE_FLUSH_EXPLICIT: &str = "coalescer.flush.explicit";

/// Histogram: logical messages drained per mailbox *sweep* — one pass
/// over the destination's ready SPSC ring lanes, batch
/// envelopes expanded (unit: logical messages per sweep; only non-empty
/// sweeps are recorded). Observed in the worker's message pump.
pub const MAILBOX_DRAIN_DEPTH: &str = "mailbox.drain_depth";

/// Bucket upper bounds for [`MAILBOX_DRAIN_DEPTH`] (inclusive; one
/// overflow bucket is added past the last bound).
pub const MAILBOX_DRAIN_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Counter: sends that found their mailbox lane's newest slot array full
/// and grew the SPSC ring by linking an array twice the size (unit:
/// growths; sharded by sender). Incremented in `x10rt`'s `LocalTransport`.
/// The name predates growth, when it counted sends diverted to an
/// overflow side-queue. A lane grows once per doubling, so a steady count
/// means new lanes bursting, not a lane living in a slow path.
pub const MAILBOX_RING_OVERFLOW: &str = "mailbox.ring_overflow";

/// Counter: mailbox lanes materialized — (sender, receiver) SPSC channels
/// actually backed by storage (unit: lanes; sharded by sender). A lane is
/// counted when a sender's first message to a receiver creates it. At
/// 4,096 places a full matrix would be 16.7M lane headers — this counter
/// is how you see that only the pairs that actually talked paid.
pub const MAILBOX_LANES_ALLOCATED: &str = "mailbox.lanes_allocated";

/// Counter: coalescer flushes served a recycled batch buffer from the
/// envelope arena freelist — no allocation (unit: takes; sharded by the
/// owning place). Incremented in `x10rt::arena`.
pub const ARENA_RECYCLE_HITS: &str = "arena.recycle.hits";

/// Counter: arena takes that had to allocate a fresh batch buffer (unit:
/// takes). Steady-state traffic should be nearly all hits; a high miss rate
/// means the freelist is starved (asymmetric traffic).
pub const ARENA_RECYCLE_MISSES: &str = "arena.recycle.misses";

/// Counter: GLB random-steal attempts issued (unit: attempts).
pub const GLB_STEAL_ATTEMPTS: &str = "glb.steal.attempts";

/// Counter: GLB random-steal attempts that returned loot (unit: steals).
pub const GLB_STEAL_HITS: &str = "glb.steal.hits";

/// Counter: lifeline registrations sent by an idle GLB worker (unit:
/// registrations; one per lifeline edge armed before death).
pub const GLB_LIFELINE_ARMS: &str = "glb.lifeline.arms";

/// Counter: lifeline gifts shipped to a waiting thief (unit: gifts).
pub const GLB_LIFELINE_GIFTS: &str = "glb.lifeline.gifts";

/// Counter: dead GLB workers resuscitated by an arriving gift (unit:
/// resuscitations).
pub const GLB_RESUSCITATIONS: &str = "glb.resuscitations";

/// Counter: GLB worker deaths — idle after exhausting random steals (unit:
/// deaths).
pub const GLB_DEATHS: &str = "glb.deaths";

/// Counter: GLB steal attempts abandoned because the victim is dead (unit:
/// attempts). Incremented in the random-steal path when the victim's place
/// is known dead, before or while waiting for the response.
pub const GLB_STEAL_DEAD_VICTIM: &str = "glb.steal.dead_victim";

/// Counter: GLB steal waits abandoned by the steal timeout (unit:
/// attempts). Only emitted when `GlbConfig::steal_timeout` is set.
pub const GLB_STEAL_TIMEOUTS: &str = "glb.steal.timeouts";

/// Counter: lifeline edges re-routed around a dead place (unit: edges).
/// Incremented when an idle worker arms its lifelines and substitutes a
/// live peer for a dead one.
pub const GLB_LIFELINE_REROUTES: &str = "glb.lifeline.reroutes";

/// Counter: sends abandoned after a terminal transport error or exhausted
/// retry (unit: envelopes). Incremented in the worker's send/flush paths.
pub const TRANSPORT_SEND_FAILED: &str = "transport.send_failed";

/// Counter: finish-control messages that arrived for a finish no longer
/// registered at this place (unit: messages). Nonzero only after a liveness
/// watchdog abandoned the finish — stragglers are counted and ignored.
pub const FINISH_STRAY_CTL: &str = "finish.stray_ctl";

/// Counter: liveness watchdogs fired — a blocked `finish` made no progress
/// for the configured window and surfaced a `DeadPlace` error instead of
/// hanging (unit: firings).
pub const FINISH_WATCHDOG_FIRED: &str = "finish.watchdog_fired";

/// Counter: envelopes dropped by fault injection (unit: envelopes).
/// Incremented by `x10rt::FaultTransport`, sharded by sender.
pub const FAULT_DROPPED: &str = "fault.dropped";

/// Counter: envelopes held for delayed release by fault injection (unit:
/// envelopes).
pub const FAULT_DELAYED: &str = "fault.delayed";

/// Counter: phantom duplicates injected by fault injection (unit:
/// envelopes).
pub const FAULT_DUPLICATED: &str = "fault.duplicated";

/// Counter: payloads destroyed in flight by fault injection (unit:
/// envelopes).
pub const FAULT_TRUNCATED: &str = "fault.truncated";

/// Counter: places killed by fault injection (unit: places; sharded by the
/// victim).
pub const FAULT_KILLED: &str = "fault.killed";

/// Synthetic counter: trace events lost to ring-buffer overwrite (unit:
/// events). Not a registry metric — injected into `metrics_text()` /
/// `metrics_json()` output from the tracer's drop count at render time, so
/// a truncated trace is visible wherever metrics are read.
pub const TRACE_DROPPED_EVENTS: &str = "trace.dropped_events";

/// Synthetic counter: causal events lost to ring-buffer overwrite (unit:
/// events). Injected at render time like [`TRACE_DROPPED_EVENTS`]; nonzero
/// means causal DAGs and critical paths are lower bounds.
pub const CAUSAL_DROPPED_EVENTS: &str = "causal.dropped_events";
