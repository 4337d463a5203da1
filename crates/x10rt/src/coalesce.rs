//! Sender-side message coalescing (transport aggregation).
//!
//! The paper's transport (PAMI on the Power 775) aggregates small active
//! messages headed for the same destination into larger injections,
//! amortizing per-message software and header overhead. [`Coalescer`] models
//! that layer: each sending worker owns one coalescer, routes every outgoing
//! message through it, and the coalescer packs same-destination runs into a
//! single [`MsgClass::Batch`](crate::MsgClass) envelope.
//!
//! What a destination buffer holds depends on the codec
//! ([`Coalescer::with_codec`]). Under [`CodecMode::Inline`] it is a boxed
//! [`BatchPayload`] of envelopes, a spawn's activity cell riding by value
//! in an inline slot beside its envelope ([`Coalescer::send_inline`]).
//! Under [`CodecMode::Bytes`] it is a [`Frame`] under construction: each
//! message's header and arguments are written into the frame at send time
//! ([`Coalescer::send_encoded`]), its non-serializable part moves onto the
//! frame's side list by value, and the flush hands the transport one
//! envelope that owns the frame — so a batched message costs no allocation
//! of its own in either codec.
//!
//! # Flush discipline
//!
//! A buffer drains when it reaches either threshold (`max_msgs` messages or
//! `max_bytes` modeled bytes), and *everything* drains on [`Coalescer::flush`].
//! The owner must call `flush` at every point where it stops producing sends
//! and other parties may wait on the buffered messages — in this codebase the
//! scheduler flushes at the end of each scheduling quantum, before parking,
//! and on worker exit, so no message ever stays buffered across a point where
//! its destination could be blocked on it. Liveness holds by construction:
//! buffered messages never survive a scheduling quantum. A message someone
//! is blocked on right now goes through [`Coalescer::send_now`], which does
//! not wait for the flush.
//!
//! # Ordering
//!
//! Per-(sender, destination) FIFO is preserved: a sender's messages to one
//! destination all funnel through the same buffer in program order, and the
//! resulting envelopes (scalar or batch) travel the transport's FIFO path.
//! This only holds if *all* of a sender's traffic to a destination goes
//! through the coalescer — bypassing it for some messages lets them overtake
//! buffered ones.
//!
//! # Statistics
//!
//! Logical per-class message counts are recorded exactly once per message,
//! whichever path it takes: the transport counts scalar envelopes itself and
//! skips `Batch` envelopes, while the coalescer counts the inner messages of
//! a batch at pack time. Physical envelope counts always come from the
//! transport. Toggling aggregation therefore changes envelope counts but
//! never logical protocol counts.
//!
//! Every buffer drain is additionally attributed to a [`FlushReason`] —
//! threshold-tripped (by message count or by bytes) vs explicit — readable
//! via [`Coalescer::flush_counts`] and, when the coalescer is built
//! [`Coalescer::with_obs`], mirrored into the observability registry. The
//! split matters for tuning: a workload whose flushes are almost all
//! explicit gains nothing from larger buffers, while one dominated by
//! `ThresholdMsgs` drains may benefit from raising `max_msgs`.
//!
//! # Failure handling
//!
//! A transport send lands or fails for good: its one failure is a dead
//! destination. The coalescer hands every drained buffer to
//! [`Transport::send`] once and surfaces a failure to the caller as a
//! [`SendError`] with the destroyed envelope count, so the scheduler can
//! account for the loss and the protocol layers above can degrade instead
//! of blocking.

use crate::arena::{ArenaCounts, EnvelopeArena};
use crate::codec::{CodecMode, HandlerId, FRAME_HEADER_BYTES, MSG_HEADER_BYTES};
use crate::frame::Frame;
use crate::hash::IntMap;
use crate::message::{BatchPayload, Envelope, InlineSlot, Inlined, MsgClass};
use crate::place::PlaceId;
use crate::transport::{SendError, Transport};
use obs::metrics::{Counter, MetricsRegistry};
use std::any::Any;

/// Default flush threshold: messages buffered per destination.
pub const DEFAULT_MAX_MSGS: usize = 64;

/// Default flush threshold: modeled bytes buffered per destination.
pub const DEFAULT_MAX_BYTES: usize = 16 * 1024;

/// Body bytes a frame sent as soon as it is built starts with: room for
/// one message with small arguments.
const LONE_FRAME_BYTES: usize = FRAME_HEADER_BYTES + MSG_HEADER_BYTES + 64;

/// The messages one destination buffer holds (see the module docs).
enum Pending {
    /// Inline codec: the envelopes, and their inline values, inside a
    /// boxed batch taken from the arena; a flush moves the box out as the
    /// batch envelope's payload, with no per-message copy and no per-flush
    /// allocation in steady state.
    Batch(Box<BatchPayload>),
    /// Byte codec: the frame the messages are written into, boxed from
    /// the start (its box becomes the envelope's payload).
    Frame(Box<Frame>),
}

impl Pending {
    fn len(&self) -> usize {
        match self {
            Pending::Batch(b) => b.envs.len(),
            Pending::Frame(f) => f.len(),
        }
    }

    /// Append a boxed envelope, with `val` as its value when its payload
    /// is the [`Inlined`] marker.
    fn push(&mut self, env: Envelope, val: Option<InlineSlot>) {
        match self {
            Pending::Batch(b) => b.push(env, val),
            Pending::Frame(f) => f.push_env(env, val),
        }
    }
}

/// One destination's aggregation buffer; an idle destination holds no
/// batch box or frame.
#[derive(Default)]
struct Buf {
    /// `Some` exactly while the buffer holds messages.
    pending: Option<Pending>,
    bytes: usize,
    /// Byte codec: the largest body and side list a frame to this
    /// destination has reached, which the next frame allocates up front.
    sizes: (usize, usize),
}

/// Why a destination buffer was drained.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The buffer reached the `max_msgs` message-count threshold.
    ThresholdMsgs,
    /// The buffer reached the `max_bytes` byte threshold.
    ThresholdBytes,
    /// An explicit [`Coalescer::flush`] / [`Coalescer::flush_dest`] call —
    /// end of a scheduling quantum, before parking, on worker exit.
    Explicit,
}

/// Per-reason drain counts of one coalescer (one count per non-empty buffer
/// drained, not per message).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FlushCounts {
    /// Drains tripped by the message-count threshold.
    pub threshold_msgs: u64,
    /// Drains tripped by the byte threshold.
    pub threshold_bytes: u64,
    /// Drains from explicit flush calls.
    pub explicit: u64,
}

impl FlushCounts {
    /// Total drains, all reasons.
    pub fn total(&self) -> u64 {
        self.threshold_msgs + self.threshold_bytes + self.explicit
    }
}

/// Resolved observability counters mirroring [`FlushCounts`] (shared across
/// the runtime; this coalescer's shard is its owning place).
struct FlushHooks {
    threshold_msgs: Counter,
    threshold_bytes: Counter,
    explicit: Counter,
}

/// Per-sender aggregation buffers, one per destination place *actually
/// written to* — allocated lazily on first contact, so a sender in a
/// 4,096-place world pays for the handful of destinations it talks to, not
/// all 4,096 (one coalescer per place makes eager per-destination buffers
/// quadratic in the place count).
///
/// Not `Sync` — each sending thread owns its own coalescer, which is what
/// keeps the buffers lock-free.
pub struct Coalescer {
    from: PlaceId,
    max_msgs: usize,
    max_bytes: usize,
    enabled: bool,
    /// Destination index → its buffer. A flushed buffer stays in the map
    /// (emptied, its box gone with the batch) so steady-state traffic never
    /// re-hashes or re-allocates.
    bufs: IntMap<usize, Buf>,
    /// Destinations with a non-empty buffer (so flush skips the rest).
    dirty: Vec<usize>,
    /// Per-reason drain counts (local tally, always maintained).
    counts: FlushCounts,
    /// Shared observability counters (mirrored on every drain when wired).
    hooks: Option<FlushHooks>,
    /// Freelist of batch boxes (flushes take from it, the receive path
    /// recycles into it via [`Coalescer::recycle_batch`]); the byte codec
    /// never touches it.
    arena: EnvelopeArena,
    /// Are destination buffers frames (the byte codec)?
    frames: bool,
}

impl Coalescer {
    /// A coalescer for messages sent by `from` across `places` places.
    ///
    /// `max_msgs` / `max_bytes` are the per-destination flush thresholds
    /// (values < 1 are clamped to 1). With `enabled == false` every send
    /// passes straight through to the transport — the ablation baseline.
    /// Destination buffers are created on first contact, so `places` only
    /// documents the world size; it costs nothing here.
    pub fn new(
        from: PlaceId,
        places: usize,
        max_msgs: usize,
        max_bytes: usize,
        enabled: bool,
    ) -> Self {
        let _ = places;
        Coalescer {
            from,
            max_msgs: max_msgs.max(1),
            max_bytes: max_bytes.max(1),
            enabled,
            bufs: IntMap::default(),
            dirty: Vec::new(),
            counts: FlushCounts::default(),
            hooks: None,
            arena: EnvelopeArena::new(from.0),
            frames: false,
        }
    }

    /// Build destination buffers for `codec` (builder style): boxed batches
    /// under [`CodecMode::Inline`] (the default), frames under
    /// [`CodecMode::Bytes`].
    pub fn with_codec(mut self, codec: CodecMode) -> Self {
        self.frames = codec == CodecMode::Bytes;
        self
    }

    /// Mirror every drain into the shared metrics registry (builder style):
    /// resolves the three `coalescer.flush.*` counters once, so the hot
    /// path stays a relaxed increment on this place's shard.
    pub fn with_obs(mut self, metrics: &MetricsRegistry) -> Self {
        self.hooks = Some(FlushHooks {
            threshold_msgs: metrics.counter(obs::names::COALESCE_FLUSH_THRESHOLD_MSGS),
            threshold_bytes: metrics.counter(obs::names::COALESCE_FLUSH_THRESHOLD_BYTES),
            explicit: metrics.counter(obs::names::COALESCE_FLUSH_EXPLICIT),
        });
        self.arena.wire_obs(metrics);
        self
    }

    /// Is aggregation active (false = pass-through)?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Per-reason drain counts so far (threshold-tripped vs explicit).
    pub fn flush_counts(&self) -> FlushCounts {
        self.counts
    }

    /// Attribute one non-empty buffer drain to `reason`.
    fn record_drain(&mut self, reason: FlushReason) {
        let (tally, hook) = match reason {
            FlushReason::ThresholdMsgs => (
                &mut self.counts.threshold_msgs,
                self.hooks.as_ref().map(|h| &h.threshold_msgs),
            ),
            FlushReason::ThresholdBytes => (
                &mut self.counts.threshold_bytes,
                self.hooks.as_ref().map(|h| &h.threshold_bytes),
            ),
            FlushReason::Explicit => (
                &mut self.counts.explicit,
                self.hooks.as_ref().map(|h| &h.explicit),
            ),
        };
        *tally += 1;
        if let Some(c) = hook {
            c.inc(self.from.0);
        }
    }

    /// Route one outgoing message: buffer it (flushing its destination if a
    /// threshold trips) or pass it straight through when disabled. An error
    /// means the message (or, on a threshold flush, its destination's whole
    /// buffer) could not be delivered — see [`SendError`] for what was lost.
    /// Under the byte codec the message is encoded into its destination's
    /// frame ([`Frame::push_env`]), behind what was buffered before it.
    pub fn send(&mut self, transport: &dyn Transport, env: Envelope) -> Result<(), SendError> {
        debug_assert_eq!(env.from, self.from, "coalescer owned by another place");
        if !self.enabled {
            return transport.send(env);
        }
        self.buffer(transport, env.to.index(), env.bytes, |p| p.push(env, None))
    }

    /// [`Coalescer::send`] of a message whose payload is `value`, built by
    /// [`Envelope::inlined`]: while buffered, and in the batch that carries
    /// it, the value rides by value in an [`InlineSlot`], so the message
    /// costs no allocation of its own. It is boxed into the envelope's
    /// payload instead when it leaves alone (aggregation disabled, or a
    /// flush that finds it the only message buffered) or does not fit a
    /// slot.
    pub fn send_inline<T: Any + Send>(
        &mut self,
        transport: &dyn Transport,
        env: Envelope,
        value: T,
    ) -> Result<(), SendError> {
        debug_assert_eq!(env.from, self.from, "coalescer owned by another place");
        debug_assert!(env.payload.is::<Inlined>(), "not an inlined envelope");
        let boxed = |env: Envelope, value: T| Envelope {
            payload: Box::new(value),
            ..env
        };
        if !self.enabled {
            return transport.send(boxed(env, value));
        }
        let (dest, bytes) = (env.to.index(), env.bytes);
        match InlineSlot::new(value) {
            Ok(slot) => self.buffer(transport, dest, bytes, |p| p.push(env, Some(slot))),
            Err(value) => self.buffer(transport, dest, bytes, |p| p.push(boxed(env, value), None)),
        }
    }

    /// [`Coalescer::send`] of a message someone is blocked on (a blocking
    /// `at` round trip's request or reply): it reaches the transport now,
    /// not at the next flush. With nothing buffered for its destination it
    /// goes straight out as itself, its payload already boxed by the
    /// caller (no slot write, no arena box); otherwise it is appended and
    /// that destination is flushed, so it cannot overtake what was
    /// buffered before it (per-pair FIFO).
    pub fn send_now(&mut self, transport: &dyn Transport, env: Envelope) -> Result<(), SendError> {
        debug_assert_eq!(env.from, self.from, "coalescer owned by another place");
        debug_assert!(
            !env.payload.is::<Inlined>(),
            "send_now takes a boxed payload"
        );
        let dest = env.to.index();
        if !self.enabled || self.idle(dest) {
            return transport.send(env);
        }
        self.buffer(transport, dest, env.bytes, |p| p.push(env, None))?;
        self.flush_dest(transport, dest)
    }

    /// Send one message under the byte codec, written straight into its
    /// destination's frame: `env` (built by [`Envelope::inlined`]) gives
    /// its route, class, modeled bytes and causal stamp, `handler` the
    /// handler it dispatches under, and `encode` appends its argument bytes
    /// to the frame body and returns the part that cannot go into bytes, if
    /// any, for the frame's side list. With `now` it reaches the transport
    /// at once, as [`Coalescer::send_now`] does; with aggregation disabled
    /// it leaves in a frame of its own. Only a coalescer built
    /// [`with_codec`](Coalescer::with_codec)`(CodecMode::Bytes)` takes it.
    pub fn send_encoded(
        &mut self,
        transport: &dyn Transport,
        env: Envelope,
        handler: HandlerId,
        now: bool,
        encode: impl FnOnce(&mut Vec<u8>) -> Option<InlineSlot>,
    ) -> Result<(), SendError> {
        debug_assert_eq!(env.from, self.from, "coalescer owned by another place");
        debug_assert!(self.frames, "send_encoded on an inline-codec coalescer");
        let Envelope {
            to,
            class,
            bytes,
            causal,
            ..
        } = env;
        let dest = to.index();
        if !self.enabled || (now && self.idle(dest)) {
            let mut frame = Box::new(Frame::new(self.from, to, (LONE_FRAME_BYTES, 1)));
            frame.push(class, causal, bytes, handler, encode);
            return transport.send(frame.into_envelope());
        }
        self.buffer(transport, dest, bytes, |p| match p {
            Pending::Frame(f) => f.push(class, causal, bytes, handler, encode),
            Pending::Batch(_) => unreachable!("send_encoded on an inline-codec coalescer"),
        })?;
        if now {
            self.flush_dest(transport, dest)
        } else {
            Ok(())
        }
    }

    /// Does `dest` have nothing buffered?
    fn idle(&self, dest: usize) -> bool {
        self.bufs.get(&dest).is_none_or(|b| b.pending.is_none())
    }

    /// The one buffer-and-threshold path of every send: append a message
    /// of `bytes` modeled bytes to `dest`'s buffer with `push`, then drain
    /// the buffer if it tripped a threshold.
    fn buffer(
        &mut self,
        transport: &dyn Transport,
        dest: usize,
        bytes: usize,
        push: impl FnOnce(&mut Pending),
    ) -> Result<(), SendError> {
        let buf = self.bufs.entry(dest).or_default();
        let sizes = buf.sizes;
        let pending = buf.pending.get_or_insert_with(|| {
            self.dirty.push(dest);
            match self.frames {
                true => {
                    Pending::Frame(Box::new(Frame::new(self.from, PlaceId(dest as u32), sizes)))
                }
                false => Pending::Batch(self.arena.take()),
            }
        });
        buf.bytes += bytes;
        push(pending);
        if pending.len() >= self.max_msgs {
            self.flush_dest_reason(transport, dest, FlushReason::ThresholdMsgs)
        } else if buf.bytes >= self.max_bytes {
            self.flush_dest_reason(transport, dest, FlushReason::ThresholdBytes)
        } else {
            Ok(())
        }
    }

    /// Take `dest`'s buffered messages out, leaving its buffer empty.
    fn take_buf(&mut self, dest: usize) -> Option<Pending> {
        let buf = self.bufs.get_mut(&dest)?;
        buf.bytes = 0;
        let pending = buf.pending.take();
        if let Some(Pending::Frame(f)) = &pending {
            let (body, parts) = f.sizes();
            buf.sizes = (buf.sizes.0.max(body), buf.sizes.1.max(parts));
        }
        pending
    }

    /// Drain one destination's buffer onto the transport (an explicit flush
    /// for the reason accounting).
    pub fn flush_dest(&mut self, transport: &dyn Transport, dest: usize) -> Result<(), SendError> {
        self.flush_dest_reason(transport, dest, FlushReason::Explicit)
    }

    fn flush_dest_reason(
        &mut self,
        transport: &dyn Transport,
        dest: usize,
        reason: FlushReason,
    ) -> Result<(), SendError> {
        let Some(pending) = self.take_buf(dest) else {
            return Ok(());
        };
        if let Some(pos) = self.dirty.iter().position(|&d| d == dest) {
            self.dirty.swap_remove(pos);
        }
        self.record_drain(reason);
        self.emit(transport, PlaceId(dest as u32), pending)
    }

    /// Drain every non-empty buffer onto the transport. Must run at every
    /// point where the owner stops producing sends (end of a scheduling
    /// quantum, before parking, on exit) — see the module docs. Each
    /// destination drained counts as one [`FlushReason::Explicit`] drain.
    ///
    /// A failing destination does not block the others: every buffer is
    /// drained regardless, and the first error (with the combined loss
    /// accounting) is returned afterwards.
    pub fn flush(&mut self, transport: &dyn Transport) -> Result<(), SendError> {
        let mut first: Option<SendError> = None;
        while let Some(dest) = self.dirty.pop() {
            let Some(pending) = self.take_buf(dest) else {
                continue;
            };
            self.record_drain(FlushReason::Explicit);
            if let Err(e) = self.emit(transport, PlaceId(dest as u32), pending) {
                match &mut first {
                    Some(f) => f.dropped += e.dropped,
                    None => first = Some(e),
                }
            }
        }
        match first {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Hand a drained buffer to the transport. A single message goes out
    /// as itself (the transport records it): a batch box's envelope with
    /// its inline value boxed, the box recycled; a frame as the envelope of
    /// its lone message. Several ship as one batch envelope built *around*
    /// the box or the frame, with the logical counts recorded here before
    /// the send and taken back if it fails (so messages lost to a dead
    /// destination never stay in the ledgers).
    fn emit(
        &mut self,
        transport: &dyn Transport,
        dest: PlaceId,
        pending: Pending,
    ) -> Result<(), SendError> {
        debug_assert_ne!(pending.len(), 0);
        // Every message in a buffer shares (from, to) by construction, so
        // the logical-stats ledger collapses to per-class (count, bytes)
        // sums — a handful of atomic adds per batch instead of four per
        // message.
        let (per_class, batch) = match pending {
            Pending::Batch(mut payload) if payload.envs.len() == 1 => {
                let env = payload.pop_boxed().expect("len checked");
                self.arena.recycle(payload);
                return transport.send(env);
            }
            Pending::Frame(frame) if frame.len() == 1 => {
                return transport.send(frame.into_envelope());
            }
            Pending::Batch(payload) => {
                let mut per_class = [(0u64, 0u64); MsgClass::ALL.len()];
                for e in &payload.envs {
                    let slot = &mut per_class[e.class.index()];
                    slot.0 += 1;
                    slot.1 += e.bytes as u64;
                }
                (per_class, Envelope::batch_boxed(self.from, dest, payload))
            }
            Pending::Frame(frame) => (frame.class_counts(), frame.into_envelope()),
        };
        // Count before sending: once the batch is in, the receiver may finish
        // the round and read the stats before this thread runs again. A
        // failed send takes the counts back.
        let stats = transport.stats();
        for (i, &(count, bytes)) in per_class.iter().enumerate() {
            stats.record_send_many(self.from.0, dest.0, MsgClass::ALL[i], count, bytes);
        }
        let sent = transport.send(batch);
        if sent.is_err() {
            for (i, &(count, bytes)) in per_class.iter().enumerate() {
                stats.unrecord_send_many(self.from.0, dest.0, MsgClass::ALL[i], count, bytes);
            }
        }
        sent
    }

    /// Return a received batch box to the freelist so the next flush can
    /// reuse it. Under symmetric traffic this is what keeps the arena fed —
    /// the scheduler calls it after dispatching a batch's inner messages.
    pub fn recycle_batch(&mut self, payload: Box<BatchPayload>) {
        self.arena.recycle(payload);
    }

    /// Free the arena boxes the owner's last stretch of work did not use
    /// ([`EnvelopeArena::trim`]); the owner calls it when it runs out of
    /// work.
    pub fn trim_arena(&mut self) {
        self.arena.trim();
    }

    /// Arena traffic tally (hits/misses/recycled/discarded/trimmed).
    pub fn arena_counts(&self) -> ArenaCounts {
        self.arena.counts()
    }

    /// Total messages currently buffered (diagnostics / tests).
    pub fn pending(&self) -> usize {
        self.dirty
            .iter()
            .filter_map(|d| self.bufs.get(d)?.pending.as_ref())
            .map(Pending::len)
            .sum()
    }

    /// Total modeled bytes currently buffered across all destinations
    /// (diagnostics / runtime introspection).
    pub fn pending_bytes(&self) -> usize {
        self.dirty
            .iter()
            .map(|&d| self.bufs.get(&d).map_or(0, |b| b.bytes))
            .sum()
    }

    /// Destination buffers materialized so far (diagnostics / tests): the
    /// number of places this sender has ever coalesced traffic for.
    pub fn bufs_allocated(&self) -> usize {
        self.bufs.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgClass, HEADER_BYTES};
    use crate::transport::LocalTransport;

    fn env(to: u32, tag: u64) -> Envelope {
        Envelope::new(PlaceId(0), PlaceId(to), MsgClass::Task, 8, Box::new(tag))
    }

    /// Drain place `p`, unpacking batches, returning tags in arrival order.
    fn drain_tags(t: &LocalTransport, p: u32) -> Vec<u64> {
        let mut tags = Vec::new();
        while let Some(e) = t.try_recv(PlaceId(p)) {
            match e.unbatch() {
                Ok(inner) => {
                    for e in inner {
                        tags.push(*e.payload.downcast::<u64>().unwrap());
                    }
                }
                Err(e) => tags.push(*e.payload.downcast::<u64>().unwrap()),
            }
        }
        tags
    }

    #[test]
    fn buffers_until_flush() {
        let t = LocalTransport::new(3);
        let mut c = Coalescer::new(PlaceId(0), 3, 64, 1 << 20, true);
        for i in 0..5u64 {
            c.send(&t, env(1, i)).unwrap();
        }
        assert_eq!(c.pending(), 5);
        assert_eq!(t.queue_len(PlaceId(1)), 0);
        c.flush(&t).unwrap();
        assert!(c.is_empty());
        assert_eq!(t.queue_len(PlaceId(1)), 1); // one batch envelope
        assert_eq!(drain_tags(&t, 1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn msg_threshold_trips_flush() {
        let t = LocalTransport::new(2);
        let mut c = Coalescer::new(PlaceId(0), 2, 4, 1 << 20, true);
        for i in 0..4u64 {
            c.send(&t, env(1, i)).unwrap();
        }
        // Fourth message hit max_msgs: the batch went out without flush().
        assert!(c.is_empty());
        assert_eq!(t.queue_len(PlaceId(1)), 1);
    }

    #[test]
    fn byte_threshold_trips_flush() {
        let t = LocalTransport::new(2);
        let per_msg = 8 + HEADER_BYTES;
        let mut c = Coalescer::new(PlaceId(0), 2, 1024, 3 * per_msg, true);
        c.send(&t, env(1, 0)).unwrap();
        c.send(&t, env(1, 1)).unwrap();
        assert_eq!(c.pending(), 2);
        c.send(&t, env(1, 2)).unwrap(); // crosses the byte threshold
        assert!(c.is_empty());
        assert_eq!(t.queue_len(PlaceId(1)), 1);
    }

    #[test]
    fn disabled_passes_through() {
        let t = LocalTransport::new(2);
        let mut c = Coalescer::new(PlaceId(0), 2, 64, 1 << 20, false);
        for i in 0..5u64 {
            c.send(&t, env(1, i)).unwrap();
        }
        assert!(c.is_empty());
        assert_eq!(t.queue_len(PlaceId(1)), 5);
        assert_eq!(t.stats().total_envelopes(), 5);
        assert_eq!(drain_tags(&t, 1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_message_flushes_as_scalar() {
        let t = LocalTransport::new(2);
        let mut c = Coalescer::new(PlaceId(0), 2, 64, 1 << 20, true);
        c.send(&t, env(1, 7)).unwrap();
        c.flush(&t).unwrap();
        let got = t.try_recv(PlaceId(1)).unwrap();
        assert_eq!(got.class, MsgClass::Task); // not wrapped in a batch
        assert_eq!(t.stats().total_messages(), 1);
        assert_eq!(t.stats().total_envelopes(), 1);
    }

    #[test]
    fn logical_counts_identical_both_modes() {
        let run = |enabled: bool| {
            let t = LocalTransport::new(3);
            let mut c = Coalescer::new(PlaceId(0), 3, 8, 1 << 20, enabled);
            for i in 0..20u64 {
                c.send(&t, env(1 + (i % 2) as u32, i)).unwrap();
            }
            c.flush(&t).unwrap();
            (
                t.stats().total_messages(),
                t.stats().class(MsgClass::Task).messages,
                t.stats().total_envelopes(),
            )
        };
        let (on_msgs, on_task, on_envs) = run(true);
        let (off_msgs, off_task, off_envs) = run(false);
        assert_eq!(on_msgs, off_msgs);
        assert_eq!(on_task, off_task);
        assert!(on_envs < off_envs, "{on_envs} !< {off_envs}");
    }

    #[test]
    fn aggregation_saves_header_bytes() {
        let t = LocalTransport::new(2);
        let mut c = Coalescer::new(PlaceId(0), 2, 64, 1 << 20, true);
        for i in 0..10u64 {
            c.send(&t, env(1, i)).unwrap();
        }
        c.flush(&t).unwrap();
        let logical = t.stats().total_bytes();
        let physical = t.stats().envelope_bytes();
        // 10 logical headers collapse into 1 physical header.
        assert_eq!(logical - physical, 9 * HEADER_BYTES as u64);
    }

    #[test]
    fn flush_reasons_attributed() {
        let t = LocalTransport::new(3);
        let mut c = Coalescer::new(PlaceId(0), 3, 4, 1 << 20, true);
        // Four messages to place 1: message-count threshold trips once.
        for i in 0..4u64 {
            c.send(&t, env(1, i)).unwrap();
        }
        // Two messages to place 2 left buffered: one explicit drain.
        c.send(&t, env(2, 4)).unwrap();
        c.send(&t, env(2, 5)).unwrap();
        c.flush(&t).unwrap();
        assert_eq!(
            c.flush_counts(),
            FlushCounts {
                threshold_msgs: 1,
                threshold_bytes: 0,
                explicit: 1,
            }
        );
        assert_eq!(c.flush_counts().total(), 2);
        // Byte threshold next (count threshold out of reach).
        let per_msg = 8 + HEADER_BYTES;
        let mut c = Coalescer::new(PlaceId(0), 3, 1024, 2 * per_msg, true);
        c.send(&t, env(1, 0)).unwrap();
        c.send(&t, env(1, 1)).unwrap();
        assert_eq!(c.flush_counts().threshold_bytes, 1);
        // Empty flushes attribute nothing.
        c.flush(&t).unwrap();
        c.flush_dest(&t, 1).unwrap();
        assert_eq!(c.flush_counts().total(), 1);
    }

    #[test]
    fn count_threshold_wins_reason_tie() {
        // A message that crosses both thresholds at once is attributed to
        // the message-count check (it is evaluated first).
        let t = LocalTransport::new(2);
        let per_msg = 8 + HEADER_BYTES;
        let mut c = Coalescer::new(PlaceId(0), 2, 2, 2 * per_msg, true);
        c.send(&t, env(1, 0)).unwrap();
        c.send(&t, env(1, 1)).unwrap();
        assert_eq!(
            c.flush_counts(),
            FlushCounts {
                threshold_msgs: 1,
                threshold_bytes: 0,
                explicit: 0,
            }
        );
    }

    #[test]
    fn obs_counters_mirror_flush_reasons() {
        let metrics = obs::MetricsRegistry::new(2);
        let t = LocalTransport::new(3);
        let mut c = Coalescer::new(PlaceId(1), 3, 2, 1 << 20, true).with_obs(&metrics);
        c.send(&t, env_from(1, 2, 0)).unwrap();
        c.send(&t, env_from(1, 2, 1)).unwrap(); // trips max_msgs
        c.send(&t, env_from(1, 2, 2)).unwrap();
        c.flush(&t).unwrap(); // explicit
        let snap = metrics.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get(obs::names::COALESCE_FLUSH_THRESHOLD_MSGS), 1);
        assert_eq!(get(obs::names::COALESCE_FLUSH_THRESHOLD_BYTES), 0);
        assert_eq!(get(obs::names::COALESCE_FLUSH_EXPLICIT), 1);
    }

    fn env_from(from: u32, to: u32, tag: u64) -> Envelope {
        Envelope::new(PlaceId(from), PlaceId(to), MsgClass::Task, 8, Box::new(tag))
    }

    #[test]
    fn batch_counts_land_before_the_batch_does() {
        // A receiver may read the stats the moment the transport accepts a
        // batch, before the sending thread runs again: this transport reads
        // them inside `send`, as that receiver would.
        struct Peek(LocalTransport, std::sync::Mutex<Vec<u64>>);
        impl Transport for Peek {
            fn send(&self, env: Envelope) -> Result<(), SendError> {
                let sent = self.0.send(env);
                self.1.lock().unwrap().push(self.0.stats().total_messages());
                sent
            }
            fn try_recv(&self, place: PlaceId) -> Option<Envelope> {
                self.0.try_recv(place)
            }
            fn register_waker(&self, place: PlaceId, waker: crate::transport::Waker) {
                self.0.register_waker(place, waker)
            }
            fn stats(&self) -> &crate::stats::NetStats {
                self.0.stats()
            }
            fn num_places(&self) -> usize {
                self.0.num_places()
            }
            fn queue_len(&self, place: PlaceId) -> usize {
                self.0.queue_len(place)
            }
        }
        let t = Peek(LocalTransport::new(2), Default::default());
        let mut c = Coalescer::new(PlaceId(0), 2, 64, 1 << 20, true);
        for i in 0..3u64 {
            c.send(&t, env(1, i)).unwrap();
        }
        c.flush(&t).unwrap();
        assert_eq!(*t.1.lock().unwrap(), [3]);
    }

    #[test]
    fn flush_to_dead_place_reports_loss_and_continues() {
        let t = LocalTransport::new(3);
        let mut c = Coalescer::new(PlaceId(0), 3, 64, 1 << 20, true);
        for i in 0..4u64 {
            c.send(&t, env(1, i)).unwrap();
            c.send(&t, env(2, 10 + i)).unwrap();
        }
        t.kill_place(PlaceId(1));
        let err = c.flush(&t).unwrap_err();
        assert!(c.is_empty());
        assert_eq!(err, SendError::dead(PlaceId(1), 1)); // one batch destroyed
                                                         // The live destination's buffer still went out, and the dead batch's
                                                         // inner messages never entered the logical ledgers.
        assert_eq!(drain_tags(&t, 2), vec![10, 11, 12, 13]);
        assert_eq!(t.stats().total_messages(), 4);
    }

    #[test]
    fn dest_buffers_materialize_lazily() {
        // A sender in a big world pays only for the destinations it talks
        // to — not a buffer per place.
        let t = LocalTransport::new(4096);
        let mut c = Coalescer::new(PlaceId(0), 4096, 64, 1 << 20, true);
        assert_eq!(c.bufs_allocated(), 0);
        for i in 0..10u64 {
            c.send(&t, env(1 + (i % 2) as u32, i)).unwrap();
        }
        assert_eq!(c.bufs_allocated(), 2);
        c.flush(&t).unwrap();
        // Flushed buffers stay cached for reuse; nothing new appears.
        assert_eq!(c.bufs_allocated(), 2);
        c.send(&t, env(1, 99)).unwrap();
        assert_eq!(c.bufs_allocated(), 2);
        c.flush(&t).unwrap();
        assert_eq!(drain_tags(&t, 1), vec![0, 2, 4, 6, 8, 99]);
        assert_eq!(drain_tags(&t, 2), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn per_dest_fifo_across_interleaved_sends_and_flushes() {
        let t = LocalTransport::new(3);
        let mut c = Coalescer::new(PlaceId(0), 3, 3, 1 << 20, true);
        for i in 0..17u64 {
            c.send(&t, env(1 + (i % 2) as u32, i)).unwrap();
            if i % 5 == 0 {
                c.flush(&t).unwrap();
            }
        }
        c.flush(&t).unwrap();
        assert_eq!(drain_tags(&t, 1), vec![0, 2, 4, 6, 8, 10, 12, 14, 16]);
        assert_eq!(drain_tags(&t, 2), vec![1, 3, 5, 7, 9, 11, 13, 15]);
    }
    use crate::message::tests::{count, drops, Tally};
    use crate::message::Inlined;

    /// An inlined envelope from place 0 to `to`.
    fn inl(to: u32) -> Envelope {
        Envelope::inlined(PlaceId(0), PlaceId(to), MsgClass::Task, 8)
    }

    #[test]
    fn batched_values_ride_inline_and_arrive_in_order() {
        let t = LocalTransport::new(2);
        let n = drops();
        let mut c = Coalescer::new(PlaceId(0), 2, 64, 1 << 20, true);
        for i in 0..3u64 {
            c.send_inline(&t, inl(1), Tally(n.clone(), i)).unwrap();
            c.send(&t, env(1, 100 + i)).unwrap();
        }
        c.flush(&t).unwrap();
        let mut batch = t.try_recv(PlaceId(1)).unwrap().unbatch_boxed().unwrap();
        assert_eq!((batch.envs.len(), batch.inline_len()), (6, 3));
        let mut got = Vec::new();
        for (env, val) in batch.drain() {
            match val {
                Some(v) => got.push(v.take::<Tally>().unwrap().1),
                None => got.push(*env.payload.downcast::<u64>().unwrap()),
            }
        }
        assert_eq!(got, vec![0, 100, 1, 101, 2, 102]);
        assert_eq!(count(&n), 3);
        // Logical counts are those of six plain sends.
        assert_eq!(t.stats().total_messages(), 6);
        assert_eq!(t.stats().total_envelopes(), 1);
    }

    #[test]
    fn lone_value_is_boxed_at_emit() {
        let t = LocalTransport::new(2);
        let n = drops();
        let mut c = Coalescer::new(PlaceId(0), 2, 64, 1 << 20, true);
        c.send_inline(&t, inl(1), Tally(n.clone(), 4)).unwrap();
        c.flush(&t).unwrap();
        let got = t.try_recv(PlaceId(1)).unwrap();
        assert_eq!(got.class, MsgClass::Task, "not wrapped in a batch");
        assert_eq!(got.bytes, 8 + HEADER_BYTES);
        assert_eq!(got.payload.downcast::<Tally>().unwrap().1, 4);
        assert_eq!(count(&n), 1);
        // The buffer box went back to the arena with nothing left in it.
        c.send_inline(&t, inl(1), Tally(n.clone(), 5)).unwrap();
        c.send_inline(&t, inl(1), Tally(n.clone(), 6)).unwrap();
        c.flush(&t).unwrap();
        let tags: Vec<u64> = t
            .try_recv(PlaceId(1))
            .unwrap()
            .unbatch()
            .unwrap()
            .into_iter()
            .map(|e| e.payload.downcast::<Tally>().unwrap().1)
            .collect();
        assert_eq!(tags, vec![5, 6]);
        assert_eq!(count(&n), 3);
    }

    #[test]
    fn oversize_or_disabled_values_travel_boxed() {
        let t = LocalTransport::new(2);
        let mut c = Coalescer::new(PlaceId(0), 2, 64, 1 << 20, true);
        let big = [9u64; 16];
        c.send_inline(&t, inl(1), big).unwrap();
        c.send_inline(&t, inl(1), big).unwrap();
        c.flush(&t).unwrap();
        let batch = t.try_recv(PlaceId(1)).unwrap().unbatch_boxed().unwrap();
        assert_eq!((batch.envs.len(), batch.inline_len()), (2, 0));
        for e in &batch.envs {
            assert_eq!(e.payload.downcast_ref::<[u64; 16]>(), Some(&big));
        }
        let mut c = Coalescer::new(PlaceId(0), 2, 64, 1 << 20, false);
        c.send_inline(&t, inl(1), 77u64).unwrap();
        let got = t.try_recv(PlaceId(1)).unwrap();
        assert!(!got.payload.is::<Inlined>());
        assert_eq!(*got.payload.downcast::<u64>().unwrap(), 77);
    }

    #[test]
    fn inline_batch_to_dead_place_drops_values_once_and_counts_like_boxed() {
        let lose = |inline: bool| {
            let t = LocalTransport::new(3);
            let n = drops();
            let mut c = Coalescer::new(PlaceId(0), 3, 64, 1 << 20, true);
            for i in 0..4u64 {
                if inline {
                    c.send_inline(&t, inl(1), Tally(n.clone(), i)).unwrap();
                } else {
                    let e = Envelope::new(PlaceId(0), PlaceId(1), MsgClass::Task, 8, Box::new(0));
                    c.send(&t, e).unwrap();
                }
            }
            c.send(&t, env(2, 9)).unwrap();
            t.kill_place(PlaceId(1));
            let err = c.flush(&t).unwrap_err();
            assert!(c.is_empty());
            assert_eq!(drain_tags(&t, 2), vec![9]);
            (err, t.stats().total_messages(), count(&n))
        };
        let (boxed_err, boxed_msgs, _) = lose(false);
        let (err, msgs, dropped) = lose(true);
        assert_eq!(err, boxed_err);
        assert_eq!(err, SendError::dead(PlaceId(1), 1));
        assert_eq!((msgs, boxed_msgs), (1, 1), "lost messages left the ledgers");
        assert_eq!(dropped, 4, "each unread value dropped once");
    }

    #[test]
    fn send_now_to_an_idle_destination_skips_the_buffer() {
        let t = LocalTransport::new(3);
        let mut c = Coalescer::new(PlaceId(0), 3, 64, 1 << 20, true);
        c.send(&t, env(2, 1)).unwrap();
        c.send_now(&t, env(1, 7)).unwrap();
        // Out as itself at once, with place 2's buffer left alone and no
        // drain or arena box spent on it.
        let got = t.try_recv(PlaceId(1)).unwrap();
        assert_eq!(got.class, MsgClass::Task);
        assert_eq!(*got.payload.downcast::<u64>().unwrap(), 7);
        assert_eq!(c.pending(), 1);
        assert_eq!(c.flush_counts().total(), 0);
        assert_eq!(c.bufs_allocated(), 1);
        assert_eq!(t.stats().total_messages(), 1);
    }

    #[test]
    fn send_now_behind_buffered_messages_flushes_them_first() {
        let t = LocalTransport::new(3);
        let mut c = Coalescer::new(PlaceId(0), 3, 64, 1 << 20, true);
        c.send(&t, env(1, 0)).unwrap();
        c.send(&t, env(1, 1)).unwrap();
        c.send(&t, env(2, 5)).unwrap();
        c.send_now(&t, env(1, 2)).unwrap();
        // One batch, in send order, and only place 1 was drained.
        assert_eq!(t.queue_len(PlaceId(1)), 1);
        assert_eq!(drain_tags(&t, 1), vec![0, 1, 2]);
        assert_eq!(c.pending(), 1);
        assert_eq!(c.flush_counts().explicit, 1);
        c.flush(&t).unwrap();
        assert_eq!(drain_tags(&t, 2), vec![5]);
    }

    #[test]
    fn send_now_passes_through_when_disabled_and_reports_a_dead_place() {
        let t = LocalTransport::new(2);
        let mut c = Coalescer::new(PlaceId(0), 2, 64, 1 << 20, false);
        c.send_now(&t, env(1, 3)).unwrap();
        assert_eq!(drain_tags(&t, 1), vec![3]);
        let mut c = Coalescer::new(PlaceId(0), 2, 64, 1 << 20, true);
        c.send(&t, env(1, 4)).unwrap();
        t.kill_place(PlaceId(1));
        let err = c.send_now(&t, env(1, 5)).unwrap_err();
        assert_eq!(err, SendError::dead(PlaceId(1), 1), "one batch of two lost");
        assert!(c.is_empty());
        assert_eq!(
            t.stats().total_messages(),
            1,
            "only the disabled coalescer's send"
        );
    }

    #[test]
    fn kill_purge_drops_queued_inline_values_once() {
        let t = LocalTransport::new(2);
        let n = drops();
        let mut c = Coalescer::new(PlaceId(0), 2, 4, 1 << 20, true);
        for i in 0..10u64 {
            c.send_inline(&t, inl(1), Tally(n.clone(), i)).unwrap();
        }
        c.flush(&t).unwrap();
        assert_eq!(t.queue_len(PlaceId(1)), 3, "two full batches and a pair");
        assert_eq!(count(&n), 0);
        t.kill_place(PlaceId(1));
        assert_eq!(count(&n), 10);
    }

    // -- byte codec: destination buffers are frames ----------------------

    use crate::codec::{CodecMode, HandlerId, WireMsg};
    use crate::frame::Frame;

    fn frames(places: usize, max_msgs: usize) -> Coalescer {
        Coalescer::new(PlaceId(0), places, max_msgs, 1 << 20, true).with_codec(CodecMode::Bytes)
    }

    /// Write message `tag` to `to` into `c`'s frame: the tag as arguments,
    /// with a `Tally` part when `n` is given.
    fn encoded(
        c: &mut Coalescer,
        t: &dyn Transport,
        to: u32,
        tag: u64,
        n: Option<&std::sync::Arc<std::sync::atomic::AtomicUsize>>,
        now: bool,
    ) -> Result<(), SendError> {
        c.send_encoded(t, inl(to), HandlerId(2000), now, |out| {
            out.extend_from_slice(&tag.to_le_bytes());
            n.map(|n| InlineSlot::new(Tally(n.clone(), tag)).unwrap())
        })
    }

    /// A received frame's class and, per message, its tag and its part's.
    type Got = (MsgClass, Vec<(u64, Option<u64>)>);

    /// Drain place `p`, reading every frame: each message's tag and, when
    /// it has one, its part's tag.
    fn drain_frames(t: &LocalTransport, p: u32) -> Vec<Got> {
        let mut got = Vec::new();
        while let Some(e) = t.try_recv(PlaceId(p)) {
            let class = e.class;
            let mut frame = e.payload.downcast::<Frame>().expect("a frame");
            let msgs = frame
                .msgs()
                .map(|m| {
                    let part = m.part.map(|s| match s.take::<Tally>() {
                        Ok(v) => v.1,
                        Err(s) => *s.into_payload().downcast::<u64>().unwrap(),
                    });
                    (u64::from_le_bytes(m.args[..8].try_into().unwrap()), part)
                })
                .collect();
            got.push((class, msgs));
        }
        got
    }

    #[test]
    fn encoded_and_boxed_sends_share_one_frame_in_order() {
        let t = LocalTransport::new(2);
        let n = drops();
        let mut c = frames(2, 64);
        for i in 0..3u64 {
            encoded(&mut c, &t, 1, i, Some(&n), false).unwrap();
            let w = WireMsg::new(HandlerId(2000), (100 + i).to_le_bytes().to_vec());
            c.send(
                &t,
                Envelope::new(PlaceId(0), PlaceId(1), MsgClass::Steal, 8, Box::new(w)),
            )
            .unwrap();
        }
        assert_eq!(c.pending(), 6);
        c.flush(&t).unwrap();
        let got = drain_frames(&t, 1);
        let want: Vec<(u64, Option<u64>)> = (0..3)
            .flat_map(|i| [(i, Some(i)), (100 + i, None)])
            .collect();
        assert_eq!(got, vec![(MsgClass::Batch, want)]);
        assert_eq!(count(&n), 3);
        let s = t.stats();
        assert_eq!((s.total_messages(), s.total_envelopes()), (6, 1));
        assert_eq!(s.class(MsgClass::Steal).messages, 3);
        // The byte codec never takes a batch box from the arena.
        let a = c.arena_counts();
        assert_eq!(a.hits + a.misses, 0);
    }

    #[test]
    fn frames_charge_what_boxed_batches_charge() {
        let totals = |bytes: bool| {
            let t = LocalTransport::new(3);
            let mut c = match bytes {
                true => frames(3, 4),
                false => Coalescer::new(PlaceId(0), 3, 4, 1 << 20, true),
            };
            for i in 0..11u64 {
                let to = 1 + (i % 2) as u32;
                match bytes {
                    true => encoded(&mut c, &t, to, i, None, false).unwrap(),
                    false => c.send(&t, env(to, i)).unwrap(),
                }
            }
            c.flush(&t).unwrap();
            let s = t.stats();
            (
                s.total_messages(),
                s.total_bytes(),
                s.total_envelopes(),
                s.envelope_bytes(),
                c.flush_counts(),
            )
        };
        assert_eq!(totals(true), totals(false));
    }

    #[test]
    fn a_lone_frame_keeps_its_class_and_bytes() {
        let t = LocalTransport::new(2);
        let mut c = frames(2, 64);
        encoded(&mut c, &t, 1, 7, None, false).unwrap();
        c.flush(&t).unwrap();
        let got = t.try_recv(PlaceId(1)).unwrap();
        assert_eq!((got.class, got.bytes), (MsgClass::Task, 8 + HEADER_BYTES));
        assert_eq!(got.payload.downcast::<Frame>().unwrap().len(), 1);
        assert_eq!(
            (t.stats().total_messages(), t.stats().total_envelopes()),
            (1, 1)
        );
    }

    #[test]
    fn encoded_now_leaves_at_once_behind_what_was_buffered() {
        let t = LocalTransport::new(3);
        let mut c = frames(3, 64);
        encoded(&mut c, &t, 2, 9, None, false).unwrap();
        encoded(&mut c, &t, 1, 1, None, true).unwrap();
        // Idle destination: out as a lone frame, no drain counted.
        assert_eq!(drain_frames(&t, 1), vec![(MsgClass::Task, vec![(1, None)])]);
        assert_eq!((c.pending(), c.flush_counts().total()), (1, 0));
        encoded(&mut c, &t, 2, 10, None, true).unwrap();
        assert_eq!(
            drain_frames(&t, 2),
            vec![(MsgClass::Batch, vec![(9, None), (10, None)])]
        );
        assert_eq!(c.flush_counts().explicit, 1);
        let mut off =
            Coalescer::new(PlaceId(0), 3, 64, 1 << 20, false).with_codec(CodecMode::Bytes);
        encoded(&mut off, &t, 1, 5, None, false).unwrap();
        assert_eq!(drain_frames(&t, 1), vec![(MsgClass::Task, vec![(5, None)])]);
    }

    #[test]
    fn frame_to_a_dead_place_drops_its_cells_once() {
        let t = LocalTransport::new(3);
        let n = drops();
        let mut c = frames(3, 64);
        for i in 0..4u64 {
            encoded(&mut c, &t, 1, i, Some(&n), false).unwrap();
        }
        encoded(&mut c, &t, 2, 9, None, false).unwrap();
        t.kill_place(PlaceId(1));
        let err = c.flush(&t).unwrap_err();
        assert_eq!(err, SendError::dead(PlaceId(1), 1));
        assert_eq!(count(&n), 4, "each unread cell dropped once");
        assert_eq!(drain_frames(&t, 2), vec![(MsgClass::Task, vec![(9, None)])]);
        assert_eq!(
            t.stats().total_messages(),
            1,
            "lost messages left the ledgers"
        );
    }

    #[test]
    fn kill_purge_drops_queued_frame_cells_once() {
        let t = LocalTransport::new(2);
        let n = drops();
        let mut c = frames(2, 4);
        for i in 0..10u64 {
            encoded(&mut c, &t, 1, i, Some(&n), false).unwrap();
        }
        c.flush(&t).unwrap();
        assert_eq!(t.queue_len(PlaceId(1)), 3, "two full frames and a pair");
        assert_eq!(count(&n), 0);
        t.kill_place(PlaceId(1));
        assert_eq!(count(&n), 10);
    }
}
