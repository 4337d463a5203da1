//! Message envelopes carried by the transport.
//!
//! Payloads are opaque to the transport layer (the upper APGAS layer
//! downcasts them); the envelope carries the routing information and a
//! *modeled wire size*. A payload is either a typed in-process box (the
//! historical `CodecMode::Inline` fast path — closures and structs shipped
//! by pointer) or a serialized [`crate::codec::WireMsg`] (handler id +
//! argument bytes, the `CodecMode::Bytes` form every cross-process transport
//! requires; see `PROTOCOL.md`). Either way, every send charges a modeled
//! byte count (captured-state size + a fixed header) so that the network
//! counters and the Power 775 model see realistic traffic volumes even when
//! no bytes are physically produced.
//!
//! # Values inline in a batch
//!
//! A typed payload that travels inside a coalesced batch need not be boxed
//! at all. [`BatchPayload`] carries, beside its envelopes, a vector of
//! fixed-size [`InlineSlot`]s: one per envelope whose payload is the
//! zero-sized [`Inlined`] marker (boxing a zero-sized type allocates
//! nothing), in envelope order. The sender writes the value into the slot,
//! the recycled batch buffer carries it, and the receiver moves it out
//! again ([`BatchPayload::drain`], [`InlineSlot::take`]), so such a message
//! costs no allocation of its own. Values larger than
//! [`INLINE_VALUE_BYTES`] or aligned more strictly than a `u64` are boxed
//! as before, and so is a value that leaves its batch: a message flushed
//! alone, [`Envelope::unbatch`] and the TCP encoder give it a box of its
//! own ([`InlineSlot::into_payload`]).
//!
//! This module holds all of the crate's type-erasure `unsafe`. The
//! invariant every block relies on: an `InlineSlot`'s bytes hold an
//! initialized value of the type its vtable was built for, from
//! [`InlineSlot::new`] until the value is moved out (`take`,
//! `into_payload`) or dropped (`Drop`), each of which happens at most once.

use crate::place::PlaceId;
use std::any::{Any, TypeId};
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ptr;

pub use obs::causal::{CausalId, CAUSAL_HEADER_BYTES};

/// Wire-format header charged to every message, in bytes (source, destination,
/// class, length — roughly what PAMI's active-message header costs).
pub const HEADER_BYTES: usize = 32;

/// Class of a message, used for statistics and for routing decisions.
///
/// The classes mirror the traffic kinds the paper reasons about separately:
/// task spawns, `finish` termination-control messages, collective (Team)
/// traffic, clock barriers, RDMA completions, and work-stealing control.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MsgClass {
    /// A remote activity spawn (`at(p) async S`).
    Task,
    /// Termination-detection control traffic (the `finish` protocols).
    FinishCtl,
    /// Team collective traffic (barrier / bcast / reduce / all-to-all ...).
    Team,
    /// Clock (distributed barrier) control messages.
    Clock,
    /// RDMA completion notifications (the payload moved out-of-band).
    Rdma,
    /// Work-stealing requests/responses (GLB).
    Steal,
    /// Runtime-internal control (shutdown, registration).
    System,
    /// A coalesced envelope carrying several messages for one destination
    /// (PAMI-style transport aggregation). The logical messages inside keep
    /// their own classes for the statistics; `Batch` only appears in the
    /// physical envelope counters.
    Batch,
}

impl MsgClass {
    /// All classes, in counter order.
    pub const ALL: [MsgClass; 8] = [
        MsgClass::Task,
        MsgClass::FinishCtl,
        MsgClass::Team,
        MsgClass::Clock,
        MsgClass::Rdma,
        MsgClass::Steal,
        MsgClass::System,
        MsgClass::Batch,
    ];

    /// Dense index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MsgClass::Task => 0,
            MsgClass::FinishCtl => 1,
            MsgClass::Team => 2,
            MsgClass::Clock => 3,
            MsgClass::Rdma => 4,
            MsgClass::Steal => 5,
            MsgClass::System => 6,
            MsgClass::Batch => 7,
        }
    }

    /// Inverse of [`MsgClass::index`]: decode a wire class byte (`None` for
    /// bytes outside the table — decoders turn that into a typed error).
    #[inline]
    pub fn from_index(b: u8) -> Option<MsgClass> {
        MsgClass::ALL.get(b as usize).copied()
    }

    /// Human-readable label (for harness output).
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Task => "task",
            MsgClass::FinishCtl => "finish-ctl",
            MsgClass::Team => "team",
            MsgClass::Clock => "clock",
            MsgClass::Rdma => "rdma",
            MsgClass::Steal => "steal",
            MsgClass::System => "system",
            MsgClass::Batch => "batch",
        }
    }
}

/// Opaque payload: the APGAS layer downcasts it back to its concrete type.
pub type Payload = Box<dyn Any + Send>;

/// A routed message.
pub struct Envelope {
    /// Sending place.
    pub from: PlaceId,
    /// Destination place.
    pub to: PlaceId,
    /// Traffic class (statistics / routing).
    pub class: MsgClass,
    /// Modeled wire size in bytes (including [`HEADER_BYTES`], and
    /// [`CAUSAL_HEADER_BYTES`] when stamped).
    pub bytes: usize,
    /// Causal identity for cross-place tracing (`None` when causal tracing
    /// is off). Stamped per logical message, so it survives batching — a
    /// [`MsgClass::Batch`] envelope carries its inner envelopes verbatim —
    /// and rides through transport decorators like `FaultTransport`
    /// untouched.
    pub causal: Option<CausalId>,
    /// The opaque payload.
    pub payload: Payload,
}

/// Payload of a [`MsgClass::Batch`] envelope: the coalesced messages, in
/// their original send order, all addressed to the same destination.
#[derive(Default)]
pub struct BatchPayload {
    /// The logical messages this envelope carries.
    pub envs: Vec<Envelope>,
    /// The values of the envelopes whose payload is [`Inlined`], in
    /// envelope order (module docs).
    vals: Vec<InlineSlot>,
}

impl BatchPayload {
    /// Append `env`, with `val` as its value when `env`'s payload is the
    /// [`Inlined`] marker.
    pub(crate) fn push(&mut self, env: Envelope, val: Option<InlineSlot>) {
        debug_assert_eq!(val.is_some(), env.payload.is::<Inlined>());
        self.envs.push(env);
        if let Some(v) = val {
            self.vals.push(v);
        }
    }

    /// Values carried inline (diagnostics and tests).
    pub fn inline_len(&self) -> usize {
        self.vals.len()
    }

    /// Empty the batch, dropping what it still holds; both vectors keep
    /// their capacity.
    pub fn clear(&mut self) {
        self.envs.clear();
        self.vals.clear();
    }

    /// Move the messages out in send order, each with its inline value
    /// when it has one. Capacity is kept, and whatever the iterator does
    /// not yield is dropped with it.
    pub fn drain(&mut self) -> BatchDrain<'_> {
        BatchDrain {
            envs: self.envs.drain(..),
            vals: self.vals.drain(..),
        }
    }

    /// [`BatchPayload::drain`] with every inline value boxed back into its
    /// envelope's payload: the form for consumers that need one payload per
    /// envelope.
    pub fn drain_boxed(&mut self) -> impl Iterator<Item = Envelope> + '_ {
        self.drain().map(|(mut env, val)| {
            if let Some(v) = val {
                env.payload = v.into_payload();
            }
            env
        })
    }

    /// Take the last message out, its inline value boxed into its payload.
    pub(crate) fn pop_boxed(&mut self) -> Option<Envelope> {
        let mut env = self.envs.pop()?;
        if env.payload.is::<Inlined>() {
            if let Some(v) = self.vals.pop() {
                env.payload = v.into_payload();
            }
        }
        Some(env)
    }
}

/// The iterator of [`BatchPayload::drain`].
pub struct BatchDrain<'a> {
    envs: std::vec::Drain<'a, Envelope>,
    vals: std::vec::Drain<'a, InlineSlot>,
}

impl Iterator for BatchDrain<'_> {
    type Item = (Envelope, Option<InlineSlot>);

    fn next(&mut self) -> Option<Self::Item> {
        let env = self.envs.next()?;
        let val = if env.payload.is::<Inlined>() {
            self.vals.next()
        } else {
            None
        };
        Some((env, val))
    }
}

/// Payload marker of an envelope whose value rides in its batch's
/// [`InlineSlot`] (module docs). Zero-sized, so its box allocates nothing.
#[derive(Debug)]
pub struct Inlined;

/// Largest value an [`InlineSlot`] holds, in bytes.
pub const INLINE_VALUE_BYTES: usize = 80;

/// Inline value storage; its alignment is the largest a value may have and
/// still be stored inline.
#[repr(C, align(8))]
struct SlotBytes([MaybeUninit<u8>; INLINE_VALUE_BYTES]);

/// The type-erased operations on one value type.
struct SlotVTable {
    type_id: fn() -> TypeId,
    /// Drop the value in place.
    drop: unsafe fn(*mut u8),
    /// Move the value out into a box.
    boxed: unsafe fn(*mut u8) -> Payload,
}

struct VTableOf<T>(std::marker::PhantomData<T>);

impl<T: Any + Send> VTableOf<T> {
    const VTABLE: SlotVTable = SlotVTable {
        type_id: TypeId::of::<T>,
        drop: Self::drop,
        boxed: Self::boxed,
    };

    /// # Safety
    /// `p` holds an initialized `T`, which the caller will not use again.
    unsafe fn drop(p: *mut u8) {
        // SAFETY: per the contract; `InlineSlot::fits::<T>()` held when the
        // slot was written, so `p` is aligned for `T`.
        unsafe { ptr::drop_in_place(p.cast::<T>()) }
    }

    /// # Safety
    /// As for [`VTableOf::drop`].
    unsafe fn boxed(p: *mut u8) -> Payload {
        // SAFETY: as in `drop`; the value is moved out exactly once.
        Box::new(unsafe { ptr::read(p.cast::<T>()) })
    }
}

/// One value of any `Send` type of at most [`INLINE_VALUE_BYTES`] (and no
/// stricter alignment than a `u64`), stored by value: the inline part of a
/// [`BatchPayload`] (module docs).
///
/// `Send` and `Sync` are derived from the fields: the bytes are plain
/// memory, every value stored in them is `Send` (the only constructor,
/// [`InlineSlot::new`], requires it), and nothing reachable through
/// `&InlineSlot` touches the value, so sharing a `&InlineSlot` cannot share
/// a non-`Sync` value.
pub struct InlineSlot {
    vtable: &'static SlotVTable,
    bytes: SlotBytes,
}

impl InlineSlot {
    /// Is a `T` stored inline?
    pub const fn fits<T>() -> bool {
        size_of::<T>() <= INLINE_VALUE_BYTES && align_of::<T>() <= align_of::<SlotBytes>()
    }

    /// A slot holding `value`, or `value` back when it does not
    /// [`fit`](InlineSlot::fits).
    #[inline]
    pub fn new<T: Any + Send>(value: T) -> Result<InlineSlot, T> {
        if !Self::fits::<T>() {
            return Err(value);
        }
        let mut slot = InlineSlot {
            vtable: &VTableOf::<T>::VTABLE,
            bytes: SlotBytes([MaybeUninit::uninit(); INLINE_VALUE_BYTES]),
        };
        // SAFETY: `T` fits the bytes in size and alignment, and they are
        // uninitialized, so nothing is overwritten; from here the slot
        // holds the `T` its vtable names.
        unsafe { ptr::write(slot.bytes.0.as_mut_ptr().cast::<T>(), value) };
        Ok(slot)
    }

    /// Does the slot hold a `T`?
    pub fn is<T: Any>(&self) -> bool {
        (self.vtable.type_id)() == TypeId::of::<T>()
    }

    /// Move the value out as a `T`, or get the slot back untouched when it
    /// holds another type.
    #[inline]
    pub fn take<T: Any>(self) -> Result<T, InlineSlot> {
        if !self.is::<T>() {
            return Err(self);
        }
        let this = ManuallyDrop::new(self);
        // SAFETY: the slot holds a `T` (checked above); `ManuallyDrop`
        // keeps `Drop` from dropping the value this read moves out.
        Ok(unsafe { ptr::read(this.bytes.0.as_ptr().cast::<T>()) })
    }

    /// Move the value out into a box of its own: the payload it would have
    /// had without the slot.
    pub fn into_payload(self) -> Payload {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: the slot holds the vtable's type (module invariant);
        // `ManuallyDrop` keeps `Drop` from dropping the moved-out value.
        unsafe { (this.vtable.boxed)(this.bytes.0.as_mut_ptr().cast()) }
    }
}

impl std::fmt::Debug for InlineSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InlineSlot").finish_non_exhaustive()
    }
}

impl Drop for InlineSlot {
    fn drop(&mut self) {
        // SAFETY: the slot still holds the vtable's type: `take` and
        // `into_payload` move out of a `ManuallyDrop`, so no slot whose
        // value was moved out ever reaches this drop.
        unsafe { (self.vtable.drop)(self.bytes.0.as_mut_ptr().cast()) }
    }
}

impl Envelope {
    /// Build an envelope, charging `body_bytes + HEADER_BYTES` to the wire.
    pub fn new(
        from: PlaceId,
        to: PlaceId,
        class: MsgClass,
        body_bytes: usize,
        payload: Payload,
    ) -> Self {
        Envelope {
            from,
            to,
            class,
            bytes: body_bytes + HEADER_BYTES,
            causal: None,
            payload,
        }
    }

    /// Stamp a causal identity onto this envelope, charging
    /// [`CAUSAL_HEADER_BYTES`] to the modeled wire size — causal tracing's
    /// cost shows up honestly in the byte ledgers. Unstamped envelopes
    /// (causal tracing off) keep their exact pre-causal sizes.
    pub fn with_causal(mut self, id: CausalId) -> Self {
        debug_assert!(self.causal.is_none(), "envelope stamped twice");
        self.causal = Some(id);
        self.bytes += CAUSAL_HEADER_BYTES;
        self
    }

    /// Pack several same-destination messages into one batch envelope.
    ///
    /// The batch is charged one [`HEADER_BYTES`] header plus the inner
    /// *body* bytes — aggregation amortizes the per-message header, which is
    /// exactly the saving PAMI-level aggregation buys on the wire.
    pub fn batch(from: PlaceId, to: PlaceId, envs: Vec<Envelope>) -> Self {
        Self::batch_boxed(
            from,
            to,
            Box::new(BatchPayload {
                envs,
                vals: Vec::new(),
            }),
        )
    }

    /// [`Envelope::batch`] over an already-boxed payload, so callers that
    /// recycle batch boxes (see [`crate::arena::EnvelopeArena`]) can pack
    /// without allocating.
    pub fn batch_boxed(from: PlaceId, to: PlaceId, payload: Box<BatchPayload>) -> Self {
        debug_assert!(!payload.envs.is_empty(), "empty batch");
        debug_assert!(
            payload.envs.iter().all(|e| e.to == to),
            "batch mixes destinations"
        );
        let body: usize = payload
            .envs
            .iter()
            .map(|e| e.bytes.saturating_sub(HEADER_BYTES))
            .sum();
        Envelope {
            from,
            to,
            class: MsgClass::Batch,
            bytes: body + HEADER_BYTES,
            // The physical envelope carries no causal identity of its own;
            // the inner envelopes keep their per-message stamps (and their
            // causal header bytes stay in `body` above).
            causal: None,
            payload,
        }
    }

    /// An envelope whose value rides in its batch's inline slot: its
    /// payload is the [`Inlined`] marker, and its wire charge is
    /// `body_bytes + HEADER_BYTES` as for [`Envelope::new`].
    pub fn inlined(from: PlaceId, to: PlaceId, class: MsgClass, body_bytes: usize) -> Self {
        Self::new(from, to, class, body_bytes, Box::new(Inlined))
    }

    /// Unpack a batch envelope into its logical messages, each inline value
    /// boxed back into its payload; a non-batch envelope comes back
    /// unchanged as the `Err` variant.
    pub fn unbatch(self) -> Result<Vec<Envelope>, Envelope> {
        self.unbatch_boxed().map(|mut b| b.drain_boxed().collect())
    }

    /// [`Envelope::unbatch`], but keeping the payload box intact so the
    /// receiver can hand it back to an [`crate::arena::EnvelopeArena`] for
    /// reuse after dispatching the inner messages.
    pub fn unbatch_boxed(self) -> Result<Box<BatchPayload>, Envelope> {
        if self.class != MsgClass::Batch {
            return Err(self);
        }
        match self.payload.downcast::<BatchPayload>() {
            Ok(b) => Ok(b),
            Err(payload) => {
                debug_assert!(false, "Batch-class envelope without BatchPayload");
                Err(Envelope { payload, ..self })
            }
        }
    }
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("from", &self.from)
            .field("to", &self.to)
            .field("class", &self.class)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A value that counts its drops, for the inline-slot tests here and in
    /// `coalesce`, `fault` and `tcp`.
    #[derive(Debug)]
    pub(crate) struct Tally(pub(crate) Arc<AtomicUsize>, pub(crate) u64);

    impl Drop for Tally {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    pub(crate) fn drops() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(0))
    }

    pub(crate) fn count(n: &Arc<AtomicUsize>) -> usize {
        n.load(Ordering::SeqCst)
    }

    /// A batch of `n` inlined `Tally` values tagged `0..n`, each behind a
    /// boxed `u64` envelope tagged `100 + i`.
    pub(crate) fn mixed_batch(n: u64, dropped: &Arc<AtomicUsize>) -> Envelope {
        let mut b = Box::<BatchPayload>::default();
        for i in 0..n {
            let env = Envelope::inlined(PlaceId(0), PlaceId(1), MsgClass::Task, 8);
            let val = InlineSlot::new(Tally(dropped.clone(), i)).ok();
            b.push(env, val);
            let env = Envelope::new(
                PlaceId(0),
                PlaceId(1),
                MsgClass::Steal,
                8,
                Box::new(100 + i),
            );
            b.push(env, None);
        }
        Envelope::batch_boxed(PlaceId(0), PlaceId(1), b)
    }

    #[test]
    fn slot_take_moves_the_value_out_once() {
        let n = drops();
        let slot = InlineSlot::new(Tally(n.clone(), 7)).unwrap();
        assert!(slot.is::<Tally>());
        let t = slot.take::<Tally>().unwrap();
        assert_eq!((t.1, count(&n)), (7, 0));
        drop(t);
        assert_eq!(count(&n), 1);
        // A dropped slot drops its value.
        drop(InlineSlot::new(Tally(n.clone(), 8)).unwrap());
        assert_eq!(count(&n), 2);
    }

    #[test]
    fn wrong_type_take_returns_the_value_untouched() {
        let n = drops();
        let slot = InlineSlot::new(Tally(n.clone(), 5)).unwrap();
        let slot = slot.take::<u64>().unwrap_err();
        let slot = slot.take::<Box<Tally>>().unwrap_err();
        assert_eq!(count(&n), 0, "a refused take dropped the value");
        assert_eq!(slot.take::<Tally>().unwrap().1, 5);
        assert_eq!(count(&n), 1);
        let s = InlineSlot::new(String::from("kept")).unwrap();
        let s = s.take::<Tally>().unwrap_err();
        assert_eq!(s.take::<String>().unwrap(), "kept");
    }

    #[test]
    fn oversize_or_overaligned_values_do_not_fit() {
        #[repr(align(16))]
        struct Wide(#[allow(dead_code)] u8);
        assert!(InlineSlot::fits::<[u8; INLINE_VALUE_BYTES]>());
        assert!(InlineSlot::fits::<()>());
        assert!(InlineSlot::fits::<[u64; INLINE_VALUE_BYTES / 8]>());
        assert!(!InlineSlot::fits::<[u8; INLINE_VALUE_BYTES + 1]>());
        assert!(!InlineSlot::fits::<Wide>());
        let big = InlineSlot::new([3u8; INLINE_VALUE_BYTES + 1]).unwrap_err();
        assert_eq!(big[INLINE_VALUE_BYTES], 3, "value handed back intact");
        assert!(InlineSlot::new(Wide(1)).is_err());
    }

    #[test]
    fn into_payload_boxes_the_value_once() {
        let n = drops();
        let p = InlineSlot::new(Tally(n.clone(), 9)).unwrap().into_payload();
        assert_eq!(count(&n), 0);
        assert_eq!(p.downcast_ref::<Tally>().unwrap().1, 9);
        drop(p);
        assert_eq!(count(&n), 1);
        // Zero-sized values and the marker itself box without a value.
        let p = InlineSlot::new(Inlined).unwrap().into_payload();
        assert!(p.is::<Inlined>());
    }

    #[test]
    fn unread_slots_drop_their_values_once_with_the_batch() {
        let n = drops();
        let batch = mixed_batch(5, &n);
        assert_eq!(batch.class, MsgClass::Batch);
        drop(batch);
        assert_eq!(count(&n), 5);
        // Partly drained: what the iterator never yielded drops with it.
        let mut b = mixed_batch(4, &n).unbatch_boxed().unwrap();
        assert_eq!((b.envs.len(), b.inline_len()), (8, 4));
        let mut it = b.drain();
        let (env, val) = it.next().unwrap();
        assert!(env.payload.is::<Inlined>());
        let first = val.unwrap().take::<Tally>().unwrap();
        assert_eq!(first.1, 0);
        drop(it);
        assert_eq!(count(&n), 5 + 3, "three unread values dropped");
        assert!(b.envs.is_empty() && b.inline_len() == 0);
        drop(first);
        assert_eq!(count(&n), 5 + 4);
    }

    #[test]
    fn drain_pairs_each_value_with_its_envelope() {
        let n = drops();
        let mut b = mixed_batch(3, &n).unbatch_boxed().unwrap();
        let mut got = Vec::new();
        for (env, val) in b.drain() {
            match val {
                Some(v) => got.push(v.take::<Tally>().unwrap().1),
                None => got.push(*env.payload.downcast::<u64>().unwrap()),
            }
        }
        assert_eq!(got, vec![0, 100, 1, 101, 2, 102]);
        assert_eq!(count(&n), 3);
    }

    #[test]
    fn unbatch_boxes_inline_values_in_order() {
        let n = drops();
        let envs = mixed_batch(2, &n).unbatch().unwrap();
        assert_eq!(count(&n), 0);
        let tags: Vec<u64> = envs
            .into_iter()
            .map(|e| match e.payload.downcast::<Tally>() {
                Ok(t) => t.1,
                Err(p) => *p.downcast::<u64>().unwrap(),
            })
            .collect();
        assert_eq!(tags, vec![0, 100, 1, 101]);
        assert_eq!(count(&n), 2);
    }

    #[test]
    fn inline_storage_sizes() {
        // The envelope (and so every lane ring slot) does not grow: values
        // ride beside the envelopes, in the batch.
        assert_eq!(size_of::<Envelope>(), 64);
        assert_eq!(size_of::<Inlined>(), 0);
        assert_eq!(size_of::<InlineSlot>(), INLINE_VALUE_BYTES + 8);
    }

    #[test]
    fn class_indices_dense_and_distinct() {
        let mut seen = [false; MsgClass::ALL.len()];
        for c in MsgClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {:?}", c);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn envelope_charges_header() {
        let e = Envelope::new(PlaceId(0), PlaceId(1), MsgClass::Task, 100, Box::new(()));
        assert_eq!(e.bytes, 100 + HEADER_BYTES);
        assert!(e.causal.is_none());
    }

    #[test]
    fn causal_stamp_charges_extra_header_bytes() {
        let id = CausalId { root: 5, seq: 9 };
        let e = Envelope::new(PlaceId(0), PlaceId(1), MsgClass::Task, 100, Box::new(()))
            .with_causal(id);
        assert_eq!(e.bytes, 100 + HEADER_BYTES + CAUSAL_HEADER_BYTES);
        assert_eq!(e.causal, Some(id));
    }

    #[test]
    fn causal_stamps_survive_batching_per_message() {
        let id0 = CausalId { root: 1, seq: 10 };
        let id1 = CausalId { root: 1, seq: 11 };
        let envs = vec![
            Envelope::new(PlaceId(0), PlaceId(2), MsgClass::Task, 50, Box::new(()))
                .with_causal(id0),
            Envelope::new(PlaceId(0), PlaceId(2), MsgClass::FinishCtl, 8, Box::new(())),
            Envelope::new(PlaceId(0), PlaceId(2), MsgClass::Steal, 16, Box::new(()))
                .with_causal(id1),
        ];
        let inner_bytes: usize = envs.iter().map(|e| e.bytes).sum();
        let batch = Envelope::batch(PlaceId(0), PlaceId(2), envs);
        // The physical envelope is unstamped; aggregation saves the two
        // extra message headers but keeps the per-message causal bytes.
        assert!(batch.causal.is_none());
        assert_eq!(batch.bytes, inner_bytes - 2 * HEADER_BYTES);
        let inner = batch.unbatch().expect("batch unpacks");
        assert_eq!(
            inner.iter().map(|e| e.causal).collect::<Vec<_>>(),
            vec![Some(id0), None, Some(id1)]
        );
    }

    #[test]
    fn causal_class_labels_match_msgclass() {
        // obs::causal duplicates the label table (it sits below x10rt in the
        // crate graph); this pins the two copies together.
        for c in MsgClass::ALL {
            assert_eq!(
                obs::causal::class_label(c.index() as u8),
                c.label(),
                "label drift at index {}",
                c.index()
            );
        }
        assert_eq!(obs::causal::CLASS_LABELS.len(), MsgClass::ALL.len());
    }
}
