//! The APGAS protocol messages and their serialized encodings
//! (`PROTOCOL.md` §4).
//!
//! Each runtime handler id has one message type: `Task` (`H_SPAWN`),
//! [`FinishMsg`] (`H_FINISH`), [`TeamWire`] (`H_TEAM`), [`ClockMsg`]
//! (`H_CLOCK`) and [`ObsMsg`] (`H_OBS`). A message travels in one of two
//! forms: typed under [`CodecMode::Inline`], or a [`WireMsg`] — the
//! handler id plus argument bytes, encoded by the functions here — under
//! [`CodecMode::Bytes`]. Every boxed send makes that choice in
//! `to_payload`, and the receiving worker dispatches both forms by
//! handler id: a `WireMsg` names its handler, a typed box is named by its
//! type (both looked up in this module), and the handler decodes only what
//! arrived encoded. The one typed message that is not always boxed is a
//! spawn's `Task` cell: the worker's spawn path hands it to the coalescer
//! by value, and it rides inline in its batch (`x10rt::InlineSlot`)
//! unless it leaves alone.
//!
//! Every encoding is little-endian and self-contained: no lengths or types
//! are inferred from context, so truncated or corrupt bytes surface as typed
//! [`DecodeError`]s, never panics. Round-trip coverage lives in the unit
//! tests below and in the property tests (`crates/apgas/tests`).
#![warn(missing_docs)]

use crate::clock::ClockMsg;
use crate::finish::{Attach, Deltas, FinishId, FinishKind, FinishMsg, FinishRef};
use crate::task::Task;
use crate::team::TeamWire;
use crate::worker::SpawnBody;
use std::any::{Any, TypeId};
use x10rt::codec::{
    put_str, put_u32, put_u64, Cursor, DecodeError, HandlerId, WireMsg, H_CLOCK, H_FINISH, H_OBS,
    H_SPAWN, H_TEAM,
};
use x10rt::{CodecMode, Payload, PlaceId};

// ---------------------------------------------------------------------------
// Typed or encoded: one codec choice, one handler lookup
// ---------------------------------------------------------------------------

/// A runtime message: the handler id it dispatches under and its codec.
/// Its typed form is a payload of one box.
pub(crate) trait Wire: Sized + Send + 'static {
    /// The handler this message dispatches under.
    const HANDLER: HandlerId;
    /// Serialize into a [`WireMsg`] for [`Wire::HANDLER`].
    fn encode(self) -> WireMsg;
    /// Decode a [`WireMsg`] addressed to [`Wire::HANDLER`].
    fn decode(w: WireMsg) -> Result<Self, DecodeError>;
    /// The typed form as a payload.
    fn boxed(self) -> Payload {
        Box::new(self)
    }
    /// The typed form back out of a payload, or the payload untouched.
    fn unboxed(p: Payload) -> Result<Self, Payload> {
        p.downcast().map(|b| *b)
    }
}

/// The payload a send ships: `msg` typed under [`CodecMode::Inline`],
/// encoded under [`CodecMode::Bytes`]. Both forms charge the same modeled
/// bytes, so ledgers and cost oracles do not depend on the mode.
pub(crate) fn to_payload<M: Wire>(codec: CodecMode, msg: M) -> Payload {
    match codec {
        CodecMode::Inline => msg.boxed(),
        CodecMode::Bytes => Box::new(msg.encode()),
    }
}

/// The handler an incoming payload dispatches under: a [`WireMsg`] names
/// its own, a typed box is named by its type. `None` for anything else.
pub(crate) fn handler_of(p: &Payload) -> Option<HandlerId> {
    let typed = [
        (TypeId::of::<Task>(), H_SPAWN),
        (TypeId::of::<FinishMsg>(), H_FINISH),
        (TypeId::of::<TeamWire>(), H_TEAM),
        (TypeId::of::<ClockMsg>(), H_CLOCK),
    ];
    let t = (**p).type_id();
    match typed.iter().find(|&&(id, _)| id == t) {
        Some(&(_, h)) => Some(h),
        None => p.downcast_ref::<WireMsg>().map(|w| w.handler),
    }
}

/// Take `M` out of a payload [`handler_of`] named `M::HANDLER`: the typed
/// box as it is, or the [`WireMsg`] decoded.
pub(crate) fn from_payload<M: Wire>(p: Payload) -> Result<M, DecodeError> {
    match M::unboxed(p).map_err(|p| p.downcast::<WireMsg>()) {
        Ok(m) => Ok(m),
        Err(Ok(w)) => M::decode(*w),
        Err(Err(_)) => Err(DecodeError::UnknownHandler(M::HANDLER.0)),
    }
}

impl Wire for Task {
    const HANDLER: HandlerId = H_SPAWN;
    fn encode(self) -> WireMsg {
        WireMsg::with_inline(H_SPAWN, encode_spawn_closure(&self.attach), Box::new(self))
    }
    fn decode(w: WireMsg) -> Result<Self, DecodeError> {
        let (attach, body) = decode_spawn(&w.args)?;
        let mut task = match body {
            SpawnWireBody::Closure => w
                .inline
                .and_then(|p| p.downcast().ok())
                .map(|t: Box<Task>| *t)
                .ok_or(DecodeError::BadTag {
                    what: "closure spawn without its inline cell",
                    tag: SPAWN_BODY_CLOSURE,
                })?,
            SpawnWireBody::Cmd { handler, args } => SpawnBody::Cmd { handler, args }.into_task(),
        };
        task.attach = attach;
        Ok(task)
    }
}

impl Wire for FinishMsg {
    const HANDLER: HandlerId = H_FINISH;
    fn encode(self) -> WireMsg {
        WireMsg::new(H_FINISH, encode_finish_msg(&self))
    }
    fn decode(w: WireMsg) -> Result<Self, DecodeError> {
        decode_finish_msg(&w.args)
    }
}

impl Wire for TeamWire {
    const HANDLER: HandlerId = H_TEAM;
    fn encode(self) -> WireMsg {
        match encode_team_wire(self) {
            (args, TeamData::Encoded) => WireMsg::new(H_TEAM, args),
            (args, TeamData::Opaque(d)) => WireMsg::with_inline(H_TEAM, args, d),
        }
    }
    fn decode(w: WireMsg) -> Result<Self, DecodeError> {
        decode_team_wire(&w.args, w.inline)
    }
}

impl Wire for ClockMsg {
    const HANDLER: HandlerId = H_CLOCK;
    fn encode(self) -> WireMsg {
        WireMsg::new(H_CLOCK, encode_clock_msg(&self))
    }
    fn decode(w: WireMsg) -> Result<Self, DecodeError> {
        decode_clock_msg(&w.args)
    }
}

impl Wire for ObsMsg {
    const HANDLER: HandlerId = H_OBS;
    fn encode(self) -> WireMsg {
        WireMsg::new(H_OBS, encode_obs_msg(&self))
    }
    fn decode(w: WireMsg) -> Result<Self, DecodeError> {
        decode_obs_msg(&w.args)
    }
}

// ---------------------------------------------------------------------------
// FinishRef / Attach
// ---------------------------------------------------------------------------

fn kind_tag(k: FinishKind) -> u8 {
    match k {
        FinishKind::Default => 0,
        FinishKind::Local => 1,
        FinishKind::Async => 2,
        FinishKind::Here => 3,
        FinishKind::Spmd => 4,
        FinishKind::Dense => 5,
        FinishKind::Resilient => 6,
    }
}

fn kind_from(tag: u8) -> Result<FinishKind, DecodeError> {
    Ok(match tag {
        0 => FinishKind::Default,
        1 => FinishKind::Local,
        2 => FinishKind::Async,
        3 => FinishKind::Here,
        4 => FinishKind::Spmd,
        5 => FinishKind::Dense,
        6 => FinishKind::Resilient,
        t => {
            return Err(DecodeError::BadTag {
                what: "finish kind",
                tag: t,
            })
        }
    })
}

/// Append a [`FinishRef`] (13 bytes: home, seq, kind).
pub fn put_finish_ref(out: &mut Vec<u8>, fin: &FinishRef) {
    put_u32(out, fin.id.home.0);
    put_u64(out, fin.id.seq);
    out.push(kind_tag(fin.kind));
}

/// Read a [`FinishRef`].
pub fn read_finish_ref(cur: &mut Cursor<'_>) -> Result<FinishRef, DecodeError> {
    let home = PlaceId(cur.u32()?);
    let seq = cur.u64()?;
    let kind = kind_from(cur.u8()?)?;
    Ok(FinishRef {
        id: FinishId { home, seq },
        kind,
    })
}

/// Append an [`Attach`] (tag byte, then the counted fields if any).
pub fn put_attach(out: &mut Vec<u8>, a: &Attach) {
    match a {
        Attach::Uncounted => out.push(0),
        Attach::Counted {
            fin,
            weight,
            remote,
        } => {
            out.push(1);
            put_finish_ref(out, fin);
            put_u64(out, *weight);
            out.push(u8::from(*remote));
        }
    }
}

/// Read an [`Attach`].
pub fn read_attach(cur: &mut Cursor<'_>) -> Result<Attach, DecodeError> {
    match cur.u8()? {
        0 => Ok(Attach::Uncounted),
        1 => {
            let fin = read_finish_ref(cur)?;
            let weight = cur.u64()?;
            let remote = cur.u8()? != 0;
            Ok(Attach::Counted {
                fin,
                weight,
                remote,
            })
        }
        t => Err(DecodeError::BadTag {
            what: "attach",
            tag: t,
        }),
    }
}

// ---------------------------------------------------------------------------
// Deltas / FinishMsg  (handler H_FINISH)
// ---------------------------------------------------------------------------

fn put_deltas(out: &mut Vec<u8>, d: &Deltas) {
    put_u32(out, d.spawned.len() as u32);
    for &(s, dst, n) in &d.spawned {
        put_u32(out, s);
        put_u32(out, dst);
        put_u64(out, n);
    }
    put_u32(out, d.recv.len() as u32);
    for &(s, dst, n) in &d.recv {
        put_u32(out, s);
        put_u32(out, dst);
        put_u64(out, n);
    }
    put_u32(out, d.live.len() as u32);
    for &(p, v) in &d.live {
        put_u32(out, p);
        x10rt::codec::put_i64(out, v);
    }
    put_strings(out, &d.panics);
}

fn read_deltas(cur: &mut Cursor<'_>) -> Result<Deltas, DecodeError> {
    let mut d = Deltas::default();
    for _ in 0..cur.u32()? {
        d.spawned.push((cur.u32()?, cur.u32()?, cur.u64()?));
    }
    for _ in 0..cur.u32()? {
        d.recv.push((cur.u32()?, cur.u32()?, cur.u64()?));
    }
    for _ in 0..cur.u32()? {
        d.live.push((cur.u32()?, cur.i64()?));
    }
    d.panics = read_strings(cur)?;
    Ok(d)
}

fn put_strings(out: &mut Vec<u8>, v: &[String]) {
    put_u32(out, v.len() as u32);
    for s in v {
        put_str(out, s);
    }
}

fn read_strings(cur: &mut Cursor<'_>) -> Result<Vec<String>, DecodeError> {
    let n = cur.u32()?;
    let mut v = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        v.push(cur.string()?);
    }
    Ok(v)
}

/// Encode a [`FinishMsg`] into `H_FINISH` argument bytes.
pub fn encode_finish_msg(msg: &FinishMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match msg {
        FinishMsg::Flush { fin, deltas } => {
            out.push(0);
            put_finish_ref(&mut out, fin);
            put_deltas(&mut out, deltas);
        }
        FinishMsg::DenseHop { fin, deltas } => {
            out.push(1);
            put_finish_ref(&mut out, fin);
            put_deltas(&mut out, deltas);
        }
        FinishMsg::Done {
            fin,
            completions,
            panics,
        } => {
            out.push(2);
            put_finish_ref(&mut out, fin);
            put_u64(&mut out, *completions);
            put_strings(&mut out, panics);
        }
        FinishMsg::CreditReturn { fin, weight, panic } => {
            out.push(3);
            put_finish_ref(&mut out, fin);
            put_u64(&mut out, *weight);
            match panic {
                None => out.push(0),
                Some(p) => {
                    out.push(1);
                    put_str(&mut out, p);
                }
            }
        }
        FinishMsg::BackupSync { fin, snapshot } => {
            out.push(4);
            put_finish_ref(&mut out, fin);
            put_u64(&mut out, snapshot.nonzero);
            put_u64(&mut out, snapshot.pending);
        }
        FinishMsg::BackupRelease { fin } => {
            out.push(5);
            put_finish_ref(&mut out, fin);
        }
        FinishMsg::CmdLog { fin, cmd } => {
            out.push(6);
            put_finish_ref(&mut out, fin);
            put_u64(&mut out, cmd.id);
            put_u32(&mut out, cmd.dest);
            put_u32(&mut out, cmd.handler);
            x10rt::codec::put_bytes(&mut out, &cmd.args);
        }
    }
    out
}

/// Decode `H_FINISH` argument bytes back into a [`FinishMsg`].
pub fn decode_finish_msg(args: &[u8]) -> Result<FinishMsg, DecodeError> {
    let mut cur = Cursor::new(args);
    let msg = match cur.u8()? {
        0 => FinishMsg::Flush {
            fin: read_finish_ref(&mut cur)?,
            deltas: read_deltas(&mut cur)?,
        },
        1 => FinishMsg::DenseHop {
            fin: read_finish_ref(&mut cur)?,
            deltas: read_deltas(&mut cur)?,
        },
        2 => FinishMsg::Done {
            fin: read_finish_ref(&mut cur)?,
            completions: cur.u64()?,
            panics: read_strings(&mut cur)?,
        },
        3 => {
            let fin = read_finish_ref(&mut cur)?;
            let weight = cur.u64()?;
            let panic = match cur.u8()? {
                0 => None,
                1 => Some(cur.string()?),
                t => {
                    return Err(DecodeError::BadTag {
                        what: "credit-return panic option",
                        tag: t,
                    })
                }
            };
            FinishMsg::CreditReturn { fin, weight, panic }
        }
        4 => FinishMsg::BackupSync {
            fin: read_finish_ref(&mut cur)?,
            snapshot: crate::finish::BackupSnapshot {
                nonzero: cur.u64()?,
                pending: cur.u64()?,
            },
        },
        5 => FinishMsg::BackupRelease {
            fin: read_finish_ref(&mut cur)?,
        },
        6 => FinishMsg::CmdLog {
            fin: read_finish_ref(&mut cur)?,
            cmd: crate::finish::CmdDescriptor {
                id: cur.u64()?,
                dest: cur.u32()?,
                handler: cur.u32()?,
                args: cur.bytes()?.to_vec(),
            },
        },
        t => {
            return Err(DecodeError::BadTag {
                what: "finish msg",
                tag: t,
            })
        }
    };
    cur.finish()?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// ClockMsg  (handler H_CLOCK)
// ---------------------------------------------------------------------------

/// Encode a [`ClockMsg`] into `H_CLOCK` argument bytes.
pub fn encode_clock_msg(msg: &ClockMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    match msg {
        ClockMsg::Arrive { id } => {
            out.push(0);
            put_u64(&mut out, *id);
        }
        ClockMsg::Drop { id, place } => {
            out.push(1);
            put_u64(&mut out, *id);
            put_u32(&mut out, *place);
        }
        ClockMsg::Resume { id, phase } => {
            out.push(2);
            put_u64(&mut out, *id);
            put_u64(&mut out, *phase);
        }
    }
    out
}

/// Decode `H_CLOCK` argument bytes back into a [`ClockMsg`].
pub fn decode_clock_msg(args: &[u8]) -> Result<ClockMsg, DecodeError> {
    let mut cur = Cursor::new(args);
    let msg = match cur.u8()? {
        0 => ClockMsg::Arrive { id: cur.u64()? },
        1 => ClockMsg::Drop {
            id: cur.u64()?,
            place: cur.u32()?,
        },
        2 => ClockMsg::Resume {
            id: cur.u64()?,
            phase: cur.u64()?,
        },
        t => {
            return Err(DecodeError::BadTag {
                what: "clock msg",
                tag: t,
            })
        }
    };
    cur.finish()?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// TeamWire  (handler H_TEAM)
// ---------------------------------------------------------------------------

/// Outcome of encoding a team fragment's data: either fully serialized, or
/// an opaque `Any` that must ride the envelope as an inline part (the
/// self-loop stash carries it; cross-process transports reject it).
pub enum TeamData {
    /// The data serialized into the argument bytes.
    Encoded,
    /// The data could not be serialized; ship it inline.
    Opaque(Box<dyn Any + Send>),
}

/// Encode a [`TeamWire`] header plus its data (when the data is one of the
/// wire-supported types) into `H_TEAM` argument bytes. Returns the bytes and
/// what happened to the data.
pub fn encode_team_wire(msg: TeamWire) -> (Vec<u8>, TeamData) {
    let mut out = Vec::with_capacity(32);
    put_u64(&mut out, msg.team);
    put_u64(&mut out, msg.seq);
    put_u32(&mut out, msg.round);
    put_u32(&mut out, msg.src_rank);
    let data = msg.data;
    // Tag table: see PROTOCOL.md §4.3. Checked in declaration order; the
    // first match wins.
    if data.downcast_ref::<()>().is_some() {
        out.push(0);
        return (out, TeamData::Encoded);
    }
    match encode_team_data(&mut out, data) {
        Ok(()) => (out, TeamData::Encoded),
        Err(d) => {
            out.push(255);
            (out, TeamData::Opaque(d))
        }
    }
}

/// Append the tag byte and encoding of one wire-supported team payload, or
/// hand the box back unencoded.
fn encode_team_data(
    out: &mut Vec<u8>,
    data: Box<dyn Any + Send>,
) -> Result<(), Box<dyn Any + Send>> {
    let d = match data.downcast::<u64>() {
        Ok(v) => {
            out.push(1);
            put_u64(out, *v);
            return Ok(());
        }
        Err(d) => d,
    };
    let d = match d.downcast::<f64>() {
        Ok(v) => {
            out.push(2);
            x10rt::codec::put_f64(out, *v);
            return Ok(());
        }
        Err(d) => d,
    };
    let d = match d.downcast::<i64>() {
        Ok(v) => {
            out.push(3);
            x10rt::codec::put_i64(out, *v);
            return Ok(());
        }
        Err(d) => d,
    };
    let d = match d.downcast::<u32>() {
        Ok(v) => {
            out.push(4);
            put_u32(out, *v);
            return Ok(());
        }
        Err(d) => d,
    };
    let d = match d.downcast::<Vec<u64>>() {
        Ok(v) => {
            out.push(5);
            put_u32(out, v.len() as u32);
            for x in v.iter() {
                put_u64(out, *x);
            }
            return Ok(());
        }
        Err(d) => d,
    };
    let d = match d.downcast::<Vec<f64>>() {
        Ok(v) => {
            out.push(6);
            put_u32(out, v.len() as u32);
            for x in v.iter() {
                x10rt::codec::put_f64(out, *x);
            }
            return Ok(());
        }
        Err(d) => d,
    };
    match d.downcast::<Vec<u8>>() {
        Ok(v) => {
            out.push(7);
            x10rt::codec::put_bytes(out, &v);
            Ok(())
        }
        Err(d) => Err(d),
    }
}

/// Decode `H_TEAM` argument bytes (plus a possible inline part for the
/// opaque tag) back into a [`TeamWire`].
pub fn decode_team_wire(
    args: &[u8],
    inline: Option<Box<dyn Any + Send>>,
) -> Result<TeamWire, DecodeError> {
    let mut cur = Cursor::new(args);
    let team = cur.u64()?;
    let seq = cur.u64()?;
    let round = cur.u32()?;
    let src_rank = cur.u32()?;
    let data: Box<dyn Any + Send> = match cur.u8()? {
        0 => Box::new(()),
        1 => Box::new(cur.u64()?),
        2 => Box::new(cur.f64()?),
        3 => Box::new(cur.i64()?),
        4 => Box::new(cur.u32()?),
        // Reserve no more elements than the remaining bytes can hold: the
        // count is peer data, and a short message must not buy a big buffer.
        5 => {
            let n = cur.u32()? as usize;
            let mut v = Vec::with_capacity(n.min(cur.remaining() / 8));
            for _ in 0..n {
                v.push(cur.u64()?);
            }
            Box::new(v)
        }
        6 => {
            let n = cur.u32()? as usize;
            let mut v = Vec::with_capacity(n.min(cur.remaining() / 8));
            for _ in 0..n {
                v.push(cur.f64()?);
            }
            Box::new(v)
        }
        7 => Box::new(cur.bytes()?.to_vec()),
        255 => inline.ok_or(DecodeError::BadTag {
            what: "opaque team data without inline part",
            tag: 255,
        })?,
        t => {
            return Err(DecodeError::BadTag {
                what: "team data",
                tag: t,
            })
        }
    };
    cur.finish()?;
    Ok(TeamWire {
        team,
        seq,
        round,
        src_rank,
        data,
    })
}

// ---------------------------------------------------------------------------
// Spawn  (handler H_SPAWN)
// ---------------------------------------------------------------------------

/// Body tag inside `H_SPAWN` args: the activity body is an in-process
/// closure riding the envelope's inline part.
pub const SPAWN_BODY_CLOSURE: u8 = 0;
/// Body tag inside `H_SPAWN` args: the activity body is a registered
/// command — a handler id plus argument bytes, fully serializable.
pub const SPAWN_BODY_CMD: u8 = 1;

/// Encode `H_SPAWN` args for a closure-bodied spawn (the closure itself
/// rides [`x10rt::WireMsg::inline`]).
pub fn encode_spawn_closure(attach: &Attach) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_attach(&mut out, attach);
    out.push(SPAWN_BODY_CLOSURE);
    out
}

/// Encode `H_SPAWN` args for a command-bodied spawn.
pub fn encode_spawn_cmd(attach: &Attach, handler: HandlerId, args: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + args.len());
    put_attach(&mut out, attach);
    out.push(SPAWN_BODY_CMD);
    put_u32(&mut out, handler.0);
    x10rt::codec::put_bytes(&mut out, args);
    out
}

/// The decoded body description of an `H_SPAWN` message.
pub enum SpawnWireBody {
    /// Closure body: take it from the envelope's inline part.
    Closure,
    /// Command body: look up `handler` in the registry and pass `args`.
    Cmd {
        /// The registered handler to run.
        handler: HandlerId,
        /// Its argument bytes.
        args: Vec<u8>,
    },
}

/// Decode `H_SPAWN` argument bytes.
pub fn decode_spawn(args: &[u8]) -> Result<(Attach, SpawnWireBody), DecodeError> {
    let mut cur = Cursor::new(args);
    let attach = read_attach(&mut cur)?;
    let body = match cur.u8()? {
        SPAWN_BODY_CLOSURE => SpawnWireBody::Closure,
        SPAWN_BODY_CMD => {
            let handler = HandlerId(cur.u32()?);
            let args = cur.bytes()?.to_vec();
            SpawnWireBody::Cmd { handler, args }
        }
        t => {
            return Err(DecodeError::BadTag {
                what: "spawn body",
                tag: t,
            })
        }
    };
    cur.finish()?;
    Ok((attach, body))
}

// ---------------------------------------------------------------------------
// ObsMsg  (handler H_OBS)
// ---------------------------------------------------------------------------

/// Observability-plane traffic (`H_OBS`, PROTOCOL.md §4): snapshot shipping
/// to the aggregating rank and the live status query/reply pair.
pub enum ObsMsg {
    /// Ask the receiving process for its observability shipment; the reply
    /// (an [`ObsMsg::Snapshot`]) goes to place `reply_to`. Only the first
    /// place a process hosts answers, so one process ships once however
    /// many of its places were asked.
    SnapshotRequest {
        /// Place the snapshot push should be sent to.
        reply_to: u32,
    },
    /// A rank's shipment: metrics snapshot, drop counts and causal-ring
    /// segments, tagged with the rank and its capture-time clock anchor.
    Snapshot(Box<obs::RankObs>),
    /// Ask the receiving process for a live status report; the reply goes
    /// to place `reply_to`.
    StatusRequest {
        /// Place the status reply should be sent to.
        reply_to: u32,
    },
    /// A live status report, rendered at the serving rank.
    Status {
        /// The replying process's rank tag (first hosted place).
        rank: u32,
        /// The human-readable rendering.
        text: String,
        /// The JSON rendering.
        json: String,
    },
}

fn put_metrics_snapshot(out: &mut Vec<u8>, m: &obs::MetricsSnapshot) {
    put_u32(out, m.counters.len() as u32);
    for (name, v) in &m.counters {
        put_str(out, name);
        put_u64(out, *v);
    }
    put_u32(out, m.histograms.len() as u32);
    for h in &m.histograms {
        put_str(out, &h.name);
        put_u32(out, h.bounds.len() as u32);
        for b in &h.bounds {
            put_u64(out, *b);
        }
        put_u32(out, h.counts.len() as u32);
        for c in &h.counts {
            put_u64(out, *c);
        }
        put_u64(out, h.sum);
    }
}

fn read_metrics_snapshot(cur: &mut Cursor<'_>) -> Result<obs::MetricsSnapshot, DecodeError> {
    let nc = cur.u32()?;
    let mut counters = Vec::with_capacity(nc.min(1024) as usize);
    for _ in 0..nc {
        let name = cur.string()?;
        let v = cur.u64()?;
        counters.push((name, v));
    }
    let nh = cur.u32()?;
    let mut histograms = Vec::with_capacity(nh.min(1024) as usize);
    for _ in 0..nh {
        let name = cur.string()?;
        let nb = cur.u32()?;
        let mut bounds = Vec::with_capacity(nb.min(1024) as usize);
        for _ in 0..nb {
            bounds.push(cur.u64()?);
        }
        let nn = cur.u32()?;
        let mut counts = Vec::with_capacity(nn.min(1024) as usize);
        for _ in 0..nn {
            counts.push(cur.u64()?);
        }
        let sum = cur.u64()?;
        histograms.push(obs::metrics::HistogramSnapshot {
            name,
            bounds,
            counts,
            sum,
        });
    }
    Ok(obs::MetricsSnapshot {
        counters,
        histograms,
    })
}

fn causal_kind_tag(k: obs::causal::CausalKind) -> u8 {
    match k {
        obs::causal::CausalKind::Send => 0,
        obs::causal::CausalKind::Recv => 1,
        obs::causal::CausalKind::Exec => 2,
    }
}

fn causal_kind_from(tag: u8) -> Result<obs::causal::CausalKind, DecodeError> {
    Ok(match tag {
        0 => obs::causal::CausalKind::Send,
        1 => obs::causal::CausalKind::Recv,
        2 => obs::causal::CausalKind::Exec,
        t => {
            return Err(DecodeError::BadTag {
                what: "causal kind",
                tag: t,
            })
        }
    })
}

fn put_causal_segments(out: &mut Vec<u8>, segs: &[obs::causal::WorkerCausal]) {
    put_u32(out, segs.len() as u32);
    for s in segs {
        put_u32(out, s.place);
        put_u32(out, s.worker);
        put_u64(out, s.dropped);
        put_u32(out, s.events.len() as u32);
        for e in &s.events {
            put_u64(out, e.ts_ns);
            put_u64(out, e.dur_ns);
            out.push(causal_kind_tag(e.kind));
            put_u64(out, e.id.root);
            put_u64(out, e.id.seq);
            put_u64(out, e.parent_seq);
            put_u32(out, e.peer);
            out.push(e.class);
            put_u32(out, e.bytes);
        }
    }
}

fn read_causal_segments(
    cur: &mut Cursor<'_>,
) -> Result<Vec<obs::causal::WorkerCausal>, DecodeError> {
    let ns = cur.u32()?;
    let mut segs = Vec::with_capacity(ns.min(1024) as usize);
    for _ in 0..ns {
        let place = cur.u32()?;
        let worker = cur.u32()?;
        let dropped = cur.u64()?;
        let ne = cur.u32()?;
        let mut events = Vec::with_capacity(ne.min(4096) as usize);
        for _ in 0..ne {
            let ts_ns = cur.u64()?;
            let dur_ns = cur.u64()?;
            let kind = causal_kind_from(cur.u8()?)?;
            let root = cur.u64()?;
            let seq = cur.u64()?;
            let parent_seq = cur.u64()?;
            let peer = cur.u32()?;
            let class = cur.u8()?;
            let bytes = cur.u32()?;
            events.push(obs::causal::CausalEvent {
                ts_ns,
                dur_ns,
                kind,
                id: obs::CausalId { root, seq },
                parent_seq,
                peer,
                class,
                bytes,
            });
        }
        segs.push(obs::causal::WorkerCausal {
            place,
            worker,
            events,
            dropped,
        });
    }
    Ok(segs)
}

/// Encode an [`ObsMsg`] into `H_OBS` argument bytes.
pub fn encode_obs_msg(msg: &ObsMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match msg {
        ObsMsg::SnapshotRequest { reply_to } => {
            out.push(0);
            put_u32(&mut out, *reply_to);
        }
        ObsMsg::Snapshot(snap) => {
            out.push(1);
            put_u32(&mut out, snap.rank);
            put_u64(&mut out, snap.now_ns);
            put_metrics_snapshot(&mut out, &snap.metrics);
            put_u64(&mut out, snap.trace_dropped);
            put_u64(&mut out, snap.causal_dropped);
            put_causal_segments(&mut out, &snap.causal);
        }
        ObsMsg::StatusRequest { reply_to } => {
            out.push(2);
            put_u32(&mut out, *reply_to);
        }
        ObsMsg::Status { rank, text, json } => {
            out.push(3);
            put_u32(&mut out, *rank);
            put_str(&mut out, text);
            put_str(&mut out, json);
        }
    }
    out
}

/// Decode `H_OBS` argument bytes back into an [`ObsMsg`].
pub fn decode_obs_msg(args: &[u8]) -> Result<ObsMsg, DecodeError> {
    let mut cur = Cursor::new(args);
    let msg = match cur.u8()? {
        0 => ObsMsg::SnapshotRequest {
            reply_to: cur.u32()?,
        },
        1 => {
            let rank = cur.u32()?;
            let now_ns = cur.u64()?;
            let metrics = read_metrics_snapshot(&mut cur)?;
            let trace_dropped = cur.u64()?;
            let causal_dropped = cur.u64()?;
            let causal = read_causal_segments(&mut cur)?;
            ObsMsg::Snapshot(Box::new(obs::RankObs {
                rank,
                now_ns,
                metrics,
                trace_dropped,
                causal_dropped,
                causal,
            }))
        }
        2 => ObsMsg::StatusRequest {
            reply_to: cur.u32()?,
        },
        3 => ObsMsg::Status {
            rank: cur.u32()?,
            text: cur.string()?,
            json: cur.string()?,
        },
        t => {
            return Err(DecodeError::BadTag {
                what: "obs msg",
                tag: t,
            })
        }
    };
    cur.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fin(home: u32, seq: u64, kind: FinishKind) -> FinishRef {
        FinishRef {
            id: FinishId {
                home: PlaceId(home),
                seq,
            },
            kind,
        }
    }

    #[test]
    fn finish_ref_round_trips_all_kinds() {
        for kind in [
            FinishKind::Default,
            FinishKind::Local,
            FinishKind::Async,
            FinishKind::Here,
            FinishKind::Spmd,
            FinishKind::Dense,
            FinishKind::Resilient,
        ] {
            let f = fin(7, 42, kind);
            let mut buf = Vec::new();
            put_finish_ref(&mut buf, &f);
            let mut cur = Cursor::new(&buf);
            assert_eq!(read_finish_ref(&mut cur).unwrap(), f);
            cur.finish().unwrap();
        }
    }

    #[test]
    fn attach_round_trips() {
        for a in [
            Attach::Uncounted,
            Attach::Counted {
                fin: fin(3, 9, FinishKind::Here),
                weight: 1 << 62,
                remote: true,
            },
        ] {
            let mut buf = Vec::new();
            put_attach(&mut buf, &a);
            let mut cur = Cursor::new(&buf);
            let got = read_attach(&mut cur).unwrap();
            match (&a, &got) {
                (Attach::Uncounted, Attach::Uncounted) => {}
                (
                    Attach::Counted {
                        fin: f1,
                        weight: w1,
                        remote: r1,
                    },
                    Attach::Counted {
                        fin: f2,
                        weight: w2,
                        remote: r2,
                    },
                ) => {
                    assert_eq!(f1, f2);
                    assert_eq!(w1, w2);
                    assert_eq!(r1, r2);
                }
                _ => panic!("attach variant changed in round trip"),
            }
        }
    }

    #[test]
    fn finish_msgs_round_trip() {
        let deltas = Deltas {
            spawned: vec![(0, 1, 5), (2, 3, 1)],
            recv: vec![(0, 1, 4)],
            live: vec![(1, -2), (3, 7)],
            panics: vec!["boom at place 3".into()],
        };
        let msgs = [
            FinishMsg::Flush {
                fin: fin(0, 1, FinishKind::Default),
                deltas,
            },
            FinishMsg::DenseHop {
                fin: fin(0, 2, FinishKind::Dense),
                deltas: Deltas::default(),
            },
            FinishMsg::Done {
                fin: fin(1, 3, FinishKind::Spmd),
                completions: 17,
                panics: vec!["a".into(), "b".into()],
            },
            FinishMsg::CreditReturn {
                fin: fin(2, 4, FinishKind::Here),
                weight: 1 << 61,
                panic: Some("ouch".into()),
            },
            FinishMsg::BackupSync {
                fin: fin(3, 5, FinishKind::Resilient),
                snapshot: crate::finish::BackupSnapshot {
                    nonzero: 9,
                    pending: 2,
                },
            },
            FinishMsg::BackupRelease {
                fin: fin(3, 5, FinishKind::Resilient),
            },
            FinishMsg::CmdLog {
                fin: fin(3, 6, FinishKind::Resilient),
                cmd: crate::finish::CmdDescriptor {
                    id: 11,
                    dest: 2,
                    handler: 2048,
                    args: vec![5, 6, 7],
                },
            },
        ];
        for msg in msgs {
            let bytes = encode_finish_msg(&msg);
            let back = decode_finish_msg(&bytes).unwrap();
            // Compare via re-encoding (Deltas has no PartialEq).
            assert_eq!(bytes, encode_finish_msg(&back));
        }
    }

    #[test]
    fn finish_msg_truncation_is_typed() {
        let bytes = encode_finish_msg(&FinishMsg::Done {
            fin: fin(1, 3, FinishKind::Spmd),
            completions: 17,
            panics: vec!["a".into()],
        });
        for cut in 0..bytes.len() {
            assert!(
                decode_finish_msg(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn clock_msgs_round_trip() {
        let msgs = [
            ClockMsg::Arrive { id: 8 },
            ClockMsg::Drop { id: 9, place: 3 },
            ClockMsg::Resume { id: 10, phase: 55 },
        ];
        for msg in msgs {
            let bytes = encode_clock_msg(&msg);
            let back = decode_clock_msg(&bytes).unwrap();
            assert_eq!(bytes, encode_clock_msg(&back));
        }
    }

    #[test]
    fn team_wire_round_trips_supported_types() {
        fn round_trip(data: Box<dyn Any + Send>) -> TeamWire {
            let msg = TeamWire {
                team: 5,
                seq: 6,
                round: 2,
                src_rank: 1,
                data,
            };
            let (args, td) = encode_team_wire(msg);
            assert!(matches!(td, TeamData::Encoded));
            decode_team_wire(&args, None).unwrap()
        }
        assert!(round_trip(Box::new(())).data.downcast::<()>().is_ok());
        assert_eq!(
            *round_trip(Box::new(42u64)).data.downcast::<u64>().unwrap(),
            42
        );
        assert_eq!(
            *round_trip(Box::new(2.5f64)).data.downcast::<f64>().unwrap(),
            2.5
        );
        assert_eq!(
            *round_trip(Box::new(vec![1u64, 2, 3]))
                .data
                .downcast::<Vec<u64>>()
                .unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(
            *round_trip(Box::new(vec![0.5f64, -1.0]))
                .data
                .downcast::<Vec<f64>>()
                .unwrap(),
            vec![0.5, -1.0]
        );
        assert_eq!(
            *round_trip(Box::new(vec![9u8, 8]))
                .data
                .downcast::<Vec<u8>>()
                .unwrap(),
            vec![9, 8]
        );
    }

    #[test]
    fn team_wire_unsupported_type_goes_opaque() {
        let msg = TeamWire {
            team: 1,
            seq: 2,
            round: 0,
            src_rank: 0,
            data: Box::new("a str slice is not a wire type"),
        };
        let (args, td) = encode_team_wire(msg);
        let TeamData::Opaque(d) = td else {
            panic!("expected opaque");
        };
        let back = decode_team_wire(&args, Some(d)).unwrap();
        assert_eq!(back.team, 1);
        assert!(back.data.downcast::<&str>().is_ok());
        // Without the inline part, the opaque tag is a typed error.
        assert!(decode_team_wire(&args, None).is_err());
    }

    #[test]
    fn spawn_encodings_round_trip() {
        let attach = Attach::Counted {
            fin: fin(0, 7, FinishKind::Default),
            weight: 0,
            remote: true,
        };
        let closure = encode_spawn_closure(&attach);
        match decode_spawn(&closure).unwrap() {
            (Attach::Counted { fin: f, .. }, SpawnWireBody::Closure) => {
                assert_eq!(f.id.seq, 7)
            }
            _ => panic!("closure spawn decoded wrong"),
        }
        let cmd = encode_spawn_cmd(&Attach::Uncounted, HandlerId(2048), &[1, 2, 3]);
        match decode_spawn(&cmd).unwrap() {
            (Attach::Uncounted, SpawnWireBody::Cmd { handler, args }) => {
                assert_eq!(handler, HandlerId(2048));
                assert_eq!(args, vec![1, 2, 3]);
            }
            _ => panic!("cmd spawn decoded wrong"),
        }
    }

    #[test]
    fn garbage_is_typed_never_panics() {
        let garbage: Vec<u8> = (0..64).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..garbage.len() {
            let _ = decode_finish_msg(&garbage[..len]);
            let _ = decode_clock_msg(&garbage[..len]);
            let _ = decode_team_wire(&garbage[..len], None);
            let _ = decode_spawn(&garbage[..len]);
            let _ = decode_obs_msg(&garbage[..len]);
        }
    }

    fn sample_rank_obs() -> obs::RankObs {
        obs::RankObs {
            rank: 2,
            now_ns: 123_456_789,
            metrics: obs::MetricsSnapshot {
                counters: vec![("a.b".into(), 7), ("c".into(), u64::MAX)],
                histograms: vec![obs::metrics::HistogramSnapshot {
                    name: "h".into(),
                    bounds: vec![1, 2, 4],
                    counts: vec![3, 0, 1, 9],
                    sum: 42,
                }],
            },
            trace_dropped: 5,
            causal_dropped: 6,
            causal: vec![obs::causal::WorkerCausal {
                place: 2,
                worker: 0,
                dropped: 1,
                events: vec![
                    obs::causal::CausalEvent {
                        ts_ns: 10,
                        dur_ns: 0,
                        kind: obs::causal::CausalKind::Send,
                        id: obs::CausalId { root: 77, seq: 9 },
                        parent_seq: 3,
                        peer: 0,
                        class: 1,
                        bytes: 48,
                    },
                    obs::causal::CausalEvent {
                        ts_ns: 20,
                        dur_ns: 15,
                        kind: obs::causal::CausalKind::Exec,
                        id: obs::CausalId { root: 77, seq: 9 },
                        parent_seq: 0,
                        peer: 0,
                        class: 0,
                        bytes: 0,
                    },
                ],
            }],
        }
    }

    #[test]
    fn obs_msgs_round_trip() {
        let msgs = [
            ObsMsg::SnapshotRequest { reply_to: 0 },
            ObsMsg::Snapshot(Box::new(sample_rank_obs())),
            ObsMsg::StatusRequest { reply_to: 4 },
            ObsMsg::Status {
                rank: 1,
                text: "place 1: ok\n".into(),
                json: "{\"rank\": 1}".into(),
            },
        ];
        for msg in msgs {
            let bytes = encode_obs_msg(&msg);
            let back = decode_obs_msg(&bytes).unwrap();
            // Compare via re-encoding (the payload types have no PartialEq).
            assert_eq!(bytes, encode_obs_msg(&back));
        }
    }

    #[test]
    fn obs_snapshot_truncation_is_typed() {
        let bytes = encode_obs_msg(&ObsMsg::Snapshot(Box::new(sample_rank_obs())));
        for cut in 0..bytes.len() {
            assert!(
                decode_obs_msg(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
