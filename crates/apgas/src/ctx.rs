//! [`Ctx`] — the activity context: every APGAS construct is a method here.
//!
//! A fresh `Ctx` is created for each executing activity; it knows the
//! activity's governing finish (for spawn accounting) and carries the stack
//! of `finish` scopes the activity has opened.

use crate::clock::ClockReg;
use crate::config::Config;
use crate::finish::root::RootState;
use crate::finish::{Attach, FinishId, FinishKind, FinishRef};
use crate::task::Task;
use crate::worker::{SpawnBody, Worker};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use x10rt::HandlerId;
use x10rt::{CongruentArray, MsgClass, NetStats, PlaceId, Pod, SegmentTable, Topology};

struct Scope {
    fin: FinishRef,
    root: Arc<RootState>,
}

/// Execution context of one activity.
pub struct Ctx<'w> {
    worker: &'w Worker,
    attach: RefCell<Attach>,
    scopes: RefCell<Vec<Scope>>,
    pub(crate) clock_regs: RefCell<Vec<ClockReg>>,
}

impl<'w> Ctx<'w> {
    pub(crate) fn new(worker: &'w Worker, attach: Attach) -> Self {
        Ctx {
            worker,
            attach: RefCell::new(attach),
            scopes: RefCell::new(Vec::new()),
            clock_regs: RefCell::new(Vec::new()),
        }
    }

    pub(crate) fn worker(&self) -> &Worker {
        self.worker
    }

    pub(crate) fn finalize_activity(&self) {
        let regs: Vec<ClockReg> = self.clock_regs.borrow_mut().drain(..).collect();
        for reg in regs {
            crate::clock::deregister(self.worker, reg);
        }
        debug_assert!(
            self.scopes.borrow().is_empty(),
            "activity ended with open finish scopes"
        );
    }

    pub(crate) fn take_attach(&self) -> Attach {
        self.attach.replace(Attach::Uncounted)
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// The current place (X10 `here`).
    #[inline]
    pub fn here(&self) -> PlaceId {
        self.worker.here
    }

    /// Number of places in this execution.
    #[inline]
    pub fn num_places(&self) -> usize {
        self.worker.g.topo.places()
    }

    /// Iterate over all places (X10 `Place.places()`).
    pub fn places(&self) -> impl Iterator<Item = PlaceId> {
        self.worker.g.topo.iter()
    }

    /// The place→host topology.
    pub fn topology(&self) -> &Topology {
        &self.worker.g.topo
    }

    /// The runtime configuration.
    pub fn config(&self) -> &Config {
        &self.worker.g.cfg
    }

    /// Shared network statistics counters.
    pub fn net_stats(&self) -> &NetStats {
        self.worker.g.transport.stats()
    }

    /// A fresh runtime-unique identifier (teams, clocks, global refs).
    pub fn next_global_id(&self) -> u64 {
        self.worker.g.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Does the transport report place `p` dead (fault injection)? Always
    /// `false` in fault-free operation. GLB consults this to skip dead
    /// steal victims and re-route lifelines.
    pub fn place_dead(&self, p: PlaceId) -> bool {
        self.worker.g.transport.is_dead(p)
    }

    /// Places the transport currently reports dead.
    pub fn dead_places(&self) -> Vec<PlaceId> {
        self.worker.g.transport.dead_places()
    }

    /// The runtime's observability state (metrics + tracer), unless the
    /// runtime was built with `Config::obs_disable`.
    pub fn obs(&self) -> Option<&Arc<obs::Obs>> {
        self.worker.obs()
    }

    /// This worker's event ring, when observability is on. Library layers
    /// (teams, clocks, GLB) record their spans and instants through this.
    pub fn trace(&self) -> Option<&obs::trace::EventRing> {
        self.worker.trace()
    }

    /// The causal identity of the message chain the current activity belongs
    /// to (`None` when causal tracing is off or the chain is unrecorded).
    /// Sends issued while this is set chain to it automatically.
    pub fn causal_current(&self) -> Option<obs::causal::CausalId> {
        self.worker.current_cause()
    }

    // ------------------------------------------------------------------
    // Spawning
    // ------------------------------------------------------------------

    /// `async S`: run `f` as a new activity at this place, governed by the
    /// innermost `finish`.
    pub fn spawn(&self, f: impl FnOnce(&Ctx) + Send + 'static) {
        self.spawn_inner(
            self.here(),
            SpawnBody::Closure(Task::new(f)),
            MsgClass::Task,
        );
    }

    /// `at(p) async S`: run `f` as a new activity at place `p`, governed by
    /// the innermost `finish`.
    pub fn at_async(&self, p: PlaceId, f: impl FnOnce(&Ctx) + Send + 'static) {
        self.spawn_inner(p, SpawnBody::Closure(Task::new(f)), MsgClass::Task);
    }

    /// Like [`Ctx::at_async`] but the activity body is a *registered
    /// command* — a handler id (see `Runtime::register_handler`) plus
    /// serialized argument bytes — instead of a closure. Commands are fully
    /// serializable, so they are the only spawn form that can cross a
    /// process boundary over [`x10rt::tcp::TcpTransport`]; they also work
    /// unchanged in-process under either codec mode. An id with no handler
    /// registered at the destination panics there, naming the id, and the
    /// panic surfaces through the governing finish.
    pub fn at_async_cmd(&self, p: PlaceId, handler: HandlerId, args: Vec<u8>) {
        self.spawn_inner(p, SpawnBody::Cmd { handler, args }, MsgClass::Task);
    }

    /// Like [`Ctx::at_async`] but tagged with a custom traffic class for the
    /// network statistics (GLB tags its traffic [`MsgClass::Steal`]).
    pub fn at_async_class(
        &self,
        p: PlaceId,
        class: MsgClass,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) {
        self.spawn_inner(p, SpawnBody::Closure(Task::new(f)), class);
    }

    /// X10 `@Uncounted async`: an activity invisible to every `finish`.
    /// GLB's random-steal handshake uses these so that rebalancing traffic
    /// does not touch the root finish.
    pub fn uncounted_async(
        &self,
        p: PlaceId,
        class: MsgClass,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) {
        if p == self.here() {
            self.worker.push_task(Task::new(f), Attach::Uncounted);
        } else {
            self.worker.send_spawn(
                p,
                Attach::Uncounted,
                SpawnBody::Closure(Task::new(f)),
                class,
            );
        }
    }

    fn spawn_inner(&self, target: PlaceId, body: SpawnBody, class: MsgClass) {
        let here = self.here();
        // Innermost finish opened by this activity wins; otherwise the
        // activity's own governing finish.
        let scope_info = self.scopes.borrow().last().map(|s| (s.fin, s.root.clone()));
        if let Some((fin, root)) = scope_info {
            return self.spawn_at_root(&root, fin, target, body, class);
        }
        let attach = self.attach.borrow().clone();
        match attach {
            Attach::Uncounted => panic!(
                "async at {here}: no governing finish — open a finish or use uncounted_async"
            ),
            Attach::Counted { fin, .. } => {
                if fin.id.home == here {
                    let root = self.worker.root_of(&fin);
                    self.spawn_at_root(&root, fin, target, body, class);
                } else if fin.kind == FinishKind::Here {
                    self.spawn_split_weight(fin, target, body, class);
                } else {
                    self.spawn_via_proxy(fin, target, body, class);
                }
            }
        }
    }

    fn spawn_at_root(
        &self,
        root: &Arc<RootState>,
        fin: FinishRef,
        target: PlaceId,
        body: SpawnBody,
        class: MsgClass,
    ) {
        let here = self.here();
        if target == here {
            root.note_local_spawn(here.0);
            self.worker.push_task(
                body.into_task(),
                Attach::Counted {
                    fin,
                    weight: 0,
                    remote: false,
                },
            );
        } else {
            // Resilient re-execution needs the task in serializable form:
            // log command spawns (the only replayable bodies) at the root
            // before the send, so a kill between send and receipt still
            // leaves a descriptor to replay. Closure bodies are abandoned
            // on place death (DESIGN.md §6).
            if fin.kind == FinishKind::Resilient {
                if let SpawnBody::Cmd { handler, args } = &body {
                    root.register_cmd(crate::finish::CmdDescriptor {
                        id: self.worker.g.ids.fetch_add(1, Ordering::Relaxed),
                        dest: target.0,
                        handler: handler.0,
                        args: args.clone(),
                    });
                }
            }
            let weight = root.note_remote_spawn(here.0, target.0);
            self.worker.send_spawn(
                target,
                Attach::Counted {
                    fin,
                    weight,
                    remote: true,
                },
                body,
                class,
            );
        }
    }

    fn spawn_split_weight(
        &self,
        fin: FinishRef,
        target: PlaceId,
        body: SpawnBody,
        class: MsgClass,
    ) {
        let child_weight = {
            let mut attach = self.attach.borrow_mut();
            let Attach::Counted { weight, .. } = &mut *attach else {
                unreachable!("weight split on uncounted activity")
            };
            let child = *weight / 2;
            assert!(
                child > 0,
                "FINISH_HERE credit exhausted (spawn chain deeper than ~62): \
                 use the default finish for unbounded chains"
            );
            *weight -= child;
            child
        };
        let attach = Attach::Counted {
            fin,
            weight: child_weight,
            remote: target != self.here(),
        };
        if target == self.here() {
            self.worker.push_task(body.into_task(), attach);
        } else {
            self.worker.send_spawn(target, attach, body, class);
        }
    }

    fn spawn_via_proxy(&self, fin: FinishRef, target: PlaceId, body: SpawnBody, class: MsgClass) {
        let here = self.here();
        let flush_bound = self.worker.g.cfg.finish_flush_entries;
        if target == here {
            self.worker.with_proxy(fin, |p| {
                p.on_local_spawn();
                crate::finish::proxy::ProxyEmit::None
            });
            self.worker.push_task(
                body.into_task(),
                Attach::Counted {
                    fin,
                    weight: 0,
                    remote: false,
                },
            );
        } else {
            // Remote spawner under a resilient finish: ship the command
            // descriptor to the root's home first so the home can replay it
            // if `target` dies. FIFO per (src,dst,class) ordering is not
            // needed here — the CmdLog and the spawn take different paths,
            // and the root tolerates a log arriving after adoption by
            // replaying immediately (`apply_cmd_log` hands the command
            // back).
            if fin.kind == FinishKind::Resilient && target != fin.id.home {
                if let SpawnBody::Cmd { handler, args } = &body {
                    self.worker.send_cmd_log(
                        fin,
                        crate::finish::CmdDescriptor {
                            id: self.worker.g.ids.fetch_add(1, Ordering::Relaxed),
                            dest: target.0,
                            handler: handler.0,
                            args: args.clone(),
                        },
                    );
                }
            }
            self.worker.with_proxy(fin, |p| {
                p.on_remote_spawn(target.0);
                p.maybe_flush_threshold(flush_bound)
            });
            self.worker.send_spawn(
                target,
                Attach::Counted {
                    fin,
                    weight: 0,
                    remote: true,
                },
                body,
                class,
            );
        }
    }

    // ------------------------------------------------------------------
    // Blocking constructs
    // ------------------------------------------------------------------

    /// `finish S` with the default (general) termination protocol.
    pub fn finish<R>(&self, body: impl FnOnce(&Ctx) -> R) -> R {
        self.finish_pragma(FinishKind::Default, body)
    }

    /// `@Pragma(...) finish S`: run `body` under the chosen specialized
    /// termination-detection protocol and wait for every transitively
    /// spawned activity. Panics raised by governed activities are collected
    /// and re-raised here (X10's `MultipleExceptions`).
    pub fn finish_pragma<R>(&self, kind: FinishKind, body: impl FnOnce(&Ctx) -> R) -> R {
        let here = self.here();
        // One span per finish, from root creation through termination; the
        // kind label distinguishes the protocols on the trace timeline.
        let span = self.worker.trace().and_then(|t| t.span_start());
        let seq = self
            .worker
            .place
            .next_finish_seq
            .fetch_add(1, Ordering::Relaxed);
        let id = FinishId { home: here, seq };
        let fin = FinishRef { id, kind };
        let root = Arc::new(RootState::new(kind, id));
        self.worker.place.roots.lock().insert(seq, root.clone());
        if kind == FinishKind::Resilient {
            // Seed the backup place with the (empty) liveness snapshot so it
            // knows the scope exists before any activity can escape it.
            self.worker.send_backup_sync(&root);
        }
        self.scopes.borrow_mut().push(Scope {
            fin,
            root: root.clone(),
        });
        let result = catch_unwind(AssertUnwindSafe(|| body(self)));
        self.scopes.borrow_mut().pop();
        root.set_body_done();
        match self.worker.g.cfg.finish_watchdog {
            None if kind == FinishKind::Resilient => self.worker.wait_until(&|| {
                // Adoption must run even without a watchdog: a kill with no
                // deadline configured would otherwise hang the scope forever.
                self.worker.resilient_recover(&root);
                root.is_done()
            }),
            None => self.worker.wait_until(&|| root.is_done()),
            Some(limit) => {
                if let Err(err) = self.worker.wait_root_watchdog(&root, limit) {
                    // Abandon the scope: deregister the root so straggling
                    // control traffic is counted as stray instead of being
                    // applied to a dead scope, then surface the typed error.
                    self.worker.place.roots.lock().remove(&seq);
                    if let Some(t) = self.worker.trace() {
                        t.span_end(span, "finish", kind.label(), seq);
                    }
                    std::panic::panic_any(err);
                }
            }
        }
        self.worker.place.roots.lock().remove(&seq);
        if kind == FinishKind::Resilient {
            self.worker.send_backup_release(&root);
        }
        if let Some(t) = self.worker.trace() {
            t.span_end(span, "finish", kind.label(), seq);
        }
        let panics = root.take_panics();
        match result {
            Err(e) => resume_unwind(e),
            Ok(r) if panics.is_empty() => r,
            // No trailing bracket after the joined messages: a dead-place
            // marker scan recovers everything after the marker as the error
            // detail, and a wrapper bracket would be glued onto it.
            Ok(_) => panic!(
                "finish: {} governed activit{} panicked: {}",
                panics.len(),
                if panics.len() == 1 { "y" } else { "ies" },
                panics.join("; ")
            ),
        }
    }

    /// `val v = at(p) e`: blocking remote evaluation — the paper's
    /// FINISH_HERE round trip ("gets"). Runs inline when `p` is `here`.
    pub fn at<R, F>(&self, p: PlaceId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&Ctx) -> R + Send + 'static,
    {
        if p == self.here() {
            return f(self);
        }
        let slot: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let done = Arc::new(AtomicBool::new(false));
        let (slot2, done2) = (slot.clone(), done.clone());
        let home = self.here();
        self.finish_pragma(FinishKind::Here, |ctx| {
            ctx.at_async(p, move |rctx| {
                let r = f(rctx);
                rctx.at_async(home, move |_| {
                    *slot2.lock() = Some(r);
                    done2.store(true, Ordering::Release);
                });
            });
        });
        debug_assert!(done.load(Ordering::Acquire));
        let r = slot.lock().take();
        r.expect("at(): response activity did not deliver a value")
    }

    /// Blocking remote statement — the paper's FINISH_ASYNC ("puts"):
    /// `finish at(p) async S` as one call.
    pub fn at_put(&self, p: PlaceId, f: impl FnOnce(&Ctx) + Send + 'static) {
        self.finish_pragma(FinishKind::Async, |ctx| ctx.at_async(p, f));
    }

    /// `atomic S`: run `f` as an uninterrupted place-local critical section.
    pub fn atomic<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.worker.place.atomic_lock.lock();
        f()
    }

    /// `when(c) S`: run `f` atomically once `cond` holds (both evaluated
    /// under the place's atomic lock). The worker keeps the place making
    /// progress while waiting.
    pub fn when<R>(&self, cond: impl Fn() -> bool, f: impl FnOnce() -> R) -> R {
        loop {
            {
                let _guard = self.worker.place.atomic_lock.lock();
                if cond() {
                    return f();
                }
            }
            if !self.worker.run_one() {
                self.worker.park_brief_pub();
            }
        }
    }

    /// Help-first wait on an arbitrary condition: the worker pumps messages
    /// and runs queued activities until `cond` holds. This is the primitive
    /// beneath `finish`, `at`, teams, clocks and GLB's steal handshakes.
    pub fn wait_until(&self, cond: impl Fn() -> bool) {
        self.worker.wait_until(&cond);
    }

    /// X10 `Runtime.probe()`: drain pending messages and run every queued
    /// activity, then return. Long-running activities (the GLB worker loop)
    /// call this between work chunks so steal requests get serviced.
    pub fn probe(&self) {
        // The probe bracket tells the deterministic-schedule controller
        // this place can do application work even with empty queues (no-op
        // in threaded mode). A panic inside a pumped activity must not
        // leak the mark.
        self.worker.begin_probe();
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || {
                    while self.worker.run_one() {}
                },
            ));
        self.worker.end_probe();
        if let Err(e) = r {
            std::panic::resume_unwind(e);
        }
    }

    // ------------------------------------------------------------------
    // Memory / registry
    // ------------------------------------------------------------------

    /// Allocate a zeroed congruent (registered, RDMA-able) array at this
    /// place. Identical allocation sequences at every place yield congruent
    /// segment ids (§3.3).
    pub fn congruent_alloc<T: Pod>(&self, len: usize) -> CongruentArray<T> {
        self.worker.g.congruent.alloc(self.here().0, len)
    }

    /// The registered-segment table (RDMA resolves through it).
    pub fn seg_table(&self) -> &Arc<SegmentTable> {
        self.worker.g.congruent.table()
    }

    /// Record RDMA traffic in the network counters (the data itself moves
    /// out-of-band, as on real hardware).
    pub(crate) fn charge_rdma(&self, to: PlaceId, bytes: usize) {
        self.worker
            .g
            .transport
            .stats()
            .record_send(self.here().0, to.0, MsgClass::Rdma, bytes);
    }

    pub(crate) fn register_object(&self, key: u64, obj: Arc<dyn std::any::Any + Send + Sync>) {
        self.worker.place.registry.lock().insert(key, obj);
    }

    pub(crate) fn lookup_object(&self, key: u64) -> Option<Arc<dyn std::any::Any + Send + Sync>> {
        self.worker.place.registry.lock().get(&key).cloned()
    }

    pub(crate) fn remove_object(&self, key: u64) {
        self.worker.place.registry.lock().remove(&key);
    }
}
