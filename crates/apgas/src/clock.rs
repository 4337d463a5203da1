//! Clocks: X10's dynamic distributed barriers (§2.1).
//!
//! A clock synchronizes the set of activities *registered* with it:
//! `Clock.advanceAll()` blocks until every registered activity has arrived,
//! then releases the next phase. Unlike a Team barrier, the participant set
//! is dynamic — activities register at spawn time and deregister
//! automatically when they terminate.
//!
//! Implementation: the clock's home place keeps the registration/arrival
//! counts; arrivals and drops are control messages; the phase release is
//! broadcast to every place that hosts registrants. Waiters use help-first
//! waiting on their place's local phase table.

use crate::ctx::Ctx;
use crate::worker::Worker;
use x10rt::{IntMap, MsgClass, PlaceId};

/// A clock handle (cheap to clone and capture in spawned closures).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clock {
    id: u64,
    home: PlaceId,
}

/// An activity's registration on a clock (auto-dropped at activity end).
#[derive(Clone, Copy, Debug)]
pub struct ClockReg {
    pub(crate) id: u64,
    pub(crate) home: PlaceId,
}

/// Clock control messages.
pub enum ClockMsg {
    /// A registered activity reached the barrier.
    Arrive {
        /// Clock id.
        id: u64,
    },
    /// A registered activity terminated (or resigned).
    Drop {
        /// Clock id.
        id: u64,
        /// Place of the departing registrant.
        place: u32,
    },
    /// Home releases the next phase to a hosting place.
    Resume {
        /// Clock id.
        id: u64,
        /// The now-current phase.
        phase: u64,
    },
}

/// Home-side state of one clock.
pub struct ClockHome {
    registered: u64,
    arrived: u64,
    phase: u64,
    /// Registrants per place (release-broadcast targets).
    places: IntMap<u32, u64>,
}

/// Per-place clock tables.
#[derive(Default)]
pub struct ClockTables {
    /// Clocks homed at this place.
    pub(crate) homes: IntMap<u64, ClockHome>,
    /// Local view of remote clocks' phases.
    pub(crate) phases: IntMap<u64, u64>,
}

impl Clock {
    /// Create a clock homed here; the creating activity is registered.
    pub fn new(ctx: &Ctx) -> Clock {
        let id = ctx.next_global_id();
        let home = ctx.here();
        let mut places = IntMap::default();
        places.insert(home.0, 1);
        ctx.worker().clocks.borrow_mut().homes.insert(
            id,
            ClockHome {
                registered: 1,
                arrived: 0,
                phase: 0,
                places,
            },
        );
        ctx.clock_regs.borrow_mut().push(ClockReg { id, home });
        Clock { id, home }
    }

    /// `at(p) clocked async S`: spawn `f` at `p`, registered on this clock.
    /// Must be called from the clock's home place by a registered activity
    /// (the paper's `clocked finish for (p in places) at(p) clocked async`
    /// pattern), so registration is race-free with phase advancement.
    pub fn at_async_clocked(&self, ctx: &Ctx, p: PlaceId, f: impl FnOnce(&Ctx) + Send + 'static) {
        assert_eq!(
            ctx.here(),
            self.home,
            "clocked spawns must originate at the clock's home place"
        );
        {
            let mut t = ctx.worker().clocks.borrow_mut();
            let h = t.homes.get_mut(&self.id).expect("clock is dead");
            h.registered += 1;
            *h.places.entry(p.0).or_insert(0) += 1;
        }
        let reg = ClockReg {
            id: self.id,
            home: self.home,
        };
        ctx.at_async(p, move |ctx| {
            ctx.clock_regs.borrow_mut().push(reg);
            f(ctx);
        });
    }

    /// The phase as seen at the calling place.
    pub fn phase(&self, ctx: &Ctx) -> u64 {
        local_phase(ctx.worker(), self.id, self.home)
    }

    /// `Clock.advanceAll()`: arrive at the barrier and wait for the next
    /// phase. The calling activity must be registered.
    pub fn advance(&self, ctx: &Ctx) {
        assert!(
            ctx.clock_regs.borrow().iter().any(|r| r.id == self.id),
            "advance() by an activity not registered on this clock"
        );
        let w = ctx.worker();
        let span = ctx.trace().and_then(|t| t.span_start());
        let target = local_phase(w, self.id, self.home) + 1;
        if self.home == w.here {
            home_arrive(w, self.id);
        } else {
            send(w, self.home, ClockMsg::Arrive { id: self.id });
        }
        let (id, home) = (self.id, self.home);
        ctx.wait_until(move || local_phase(w, id, home) >= target);
        if let Some(t) = ctx.trace() {
            t.span_end(span, "clock", "advance", self.id);
        }
    }

    /// Resign this activity's registration early (X10 `clock.drop()`).
    pub fn drop_registration(&self, ctx: &Ctx) {
        let mut regs = ctx.clock_regs.borrow_mut();
        let pos = regs
            .iter()
            .position(|r| r.id == self.id)
            .expect("drop() by an activity not registered on this clock");
        let reg = regs.remove(pos);
        drop(regs);
        deregister(ctx.worker(), reg);
    }
}

fn local_phase(w: &Worker, id: u64, home: PlaceId) -> u64 {
    let t = w.clocks.borrow();
    if home == w.here {
        t.homes.get(&id).map_or(u64::MAX, |h| h.phase)
    } else {
        t.phases.get(&id).copied().unwrap_or(0)
    }
}

fn send(w: &Worker, to: PlaceId, msg: ClockMsg) {
    // Same 16 modeled bytes in either codec mode (see `PROTOCOL.md`).
    w.send_msg(to, MsgClass::Clock, 16, msg, None);
}

fn home_arrive(w: &Worker, id: u64) {
    let releases = {
        let mut t = w.clocks.borrow_mut();
        let h = t.homes.get_mut(&id).expect("arrive on dead clock");
        h.arrived += 1;
        try_release(w, id, h)
    };
    broadcast_release(w, id, releases);
}

fn home_drop(w: &Worker, id: u64, place: u32) {
    let releases = {
        let mut t = w.clocks.borrow_mut();
        let Some(h) = t.homes.get_mut(&id) else {
            return;
        };
        debug_assert!(h.registered > 0);
        h.registered -= 1;
        if let Some(c) = h.places.get_mut(&place) {
            *c -= 1;
            if *c == 0 {
                h.places.remove(&place);
            }
        }
        if h.registered == 0 {
            t.homes.remove(&id);
            None
        } else {
            try_release(w, id, t.homes.get_mut(&id).unwrap())
        }
    };
    broadcast_release(w, id, releases);
}

/// If everyone still registered has arrived, open the next phase. Returns
/// the release targets (phase, places) to notify outside the lock.
fn try_release(_w: &Worker, _id: u64, h: &mut ClockHome) -> Option<(u64, Vec<u32>)> {
    if h.registered > 0 && h.arrived >= h.registered {
        h.arrived = 0;
        h.phase += 1;
        Some((h.phase, h.places.keys().copied().collect()))
    } else {
        None
    }
}

fn broadcast_release(w: &Worker, id: u64, releases: Option<(u64, Vec<u32>)>) {
    if let Some((phase, places)) = releases {
        for p in places {
            if p == w.here.0 {
                continue; // home's own phase is read from ClockHome
            }
            send(w, PlaceId(p), ClockMsg::Resume { id, phase });
        }
    }
}

/// Handle a clock control message (called by the worker's message pump).
pub fn handle_msg(w: &Worker, msg: ClockMsg) {
    match msg {
        ClockMsg::Arrive { id } => home_arrive(w, id),
        ClockMsg::Drop { id, place } => home_drop(w, id, place),
        ClockMsg::Resume { id, phase } => {
            w.clocks.borrow_mut().phases.insert(id, phase);
        }
    }
}

/// Deregister an activity's clock registration (activity end or explicit
/// drop).
pub fn deregister(w: &Worker, reg: ClockReg) {
    if reg.home == w.here {
        home_drop(w, reg.id, w.here.0);
    } else {
        send(
            w,
            reg.home,
            ClockMsg::Drop {
                id: reg.id,
                place: w.here.0,
            },
        );
    }
}
