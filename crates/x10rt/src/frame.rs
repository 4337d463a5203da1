//! A frame: the byte-codec unit of aggregation, built by the sender's
//! coalescer and read in place by the receiver.
//!
//! A frame is a body (a frame header, then each message's header and
//! argument bytes; `PROTOCOL.md` §2) plus a *side list*: the parts of its
//! messages that cannot go into bytes, in message order, each flagged
//! `FLAG_STASH` in its header. A part rides by value in an [`InlineSlot`]:
//! a spawn's activity cell is stored in the slot itself, any other part is
//! boxed into it ([`InlineSlot::from_payload`]).
//!
//! Under the byte codec each coalescer destination buffer is a frame under
//! construction: [`Frame::push`] writes a message's header and arguments
//! into the body at send time, and a flush hands the frame over as the
//! payload of one envelope ([`Frame::into_envelope`]): a
//! [`MsgClass::Batch`] envelope for several messages, or one of the lone
//! message's own class. In-process transports deliver that envelope as it
//! is. The TCP back-end ([`crate::tcp`]) writes the body after a length
//! prefix, with no re-encoding, and its reader checks every received body
//! with [`Frame::parse`] before it delivers anything; a batch frame is
//! delivered whole, a lone one as the envelope it was sent as
//! ([`FrameMsg::into_payload`]). So a byte-codec batch has one receive
//! path, in-process or off a socket: the worker walks its messages with
//! [`Frame::msgs`], each one's arguments a slice of the body, and the part
//! the sender put on the side list (if any) moves out with it.

use crate::codec::{
    self, Cursor, DecodeError, FrameHeader, HandlerId, MsgHeader, WireMsg, FRAME_HEADER_BYTES,
    MSG_HEADER_BYTES,
};
use crate::fault::FaultMarker;
use crate::message::{CausalId, Envelope, InlineSlot, MsgClass, HEADER_BYTES};
use crate::place::PlaceId;

/// Byte offsets inside the headers `codec` writes, patched as a frame
/// grows: the frame header's flags and count, a message header's flags and
/// argument length.
const FRAME_FLAGS_AT: usize = 6;
const FRAME_COUNT_AT: usize = 16;
const MSG_FLAGS_AT: usize = 3;
const MSG_ARGS_LEN_AT: usize = 28;

/// A frame body and its side list (see the [module docs](self)).
pub struct Frame {
    header: FrameHeader,
    body: Vec<u8>,
    /// The parts of the `FLAG_STASH` messages, in message order; moved out
    /// by the first [`Frame::msgs`] walk.
    parts: Vec<InlineSlot>,
    /// The modeled size [`Envelope::batch`] charges for these messages.
    bytes: usize,
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("header", &self.header)
            .field("body_len", &self.body.len())
            .field("parts", &self.parts.len())
            .finish()
    }
}

/// One message of a [`Frame`].
pub struct FrameMsg<'a> {
    /// Traffic class.
    pub class: MsgClass,
    /// Causal identity, when the sender stamped one.
    pub causal: Option<CausalId>,
    /// The modeled wire size the sender charged.
    pub bytes: usize,
    /// The handler the message dispatches under; [`HandlerId::INVALID`]
    /// when `part` is the whole payload.
    pub handler: HandlerId,
    /// The argument bytes, a slice of the frame body.
    pub args: &'a [u8],
    /// The message's part from the frame's side list (`FLAG_STASH`).
    pub part: Option<InlineSlot>,
}

/// The fault marker a `H_MARKER` message's arguments name.
fn marker(args: &[u8]) -> Result<FaultMarker, DecodeError> {
    match Cursor::new(args).u8()? {
        0 => Ok(FaultMarker::Duplicate),
        1 => Ok(FaultMarker::Truncated),
        tag => Err(DecodeError::BadTag {
            what: "fault marker",
            tag,
        }),
    }
}

impl Frame {
    /// An empty frame from `from` to `to`, its body and side list
    /// allocated for `capacity` (body bytes, parts) up front.
    pub fn new(from: PlaceId, to: PlaceId, capacity: (usize, usize)) -> Frame {
        let header = FrameHeader {
            flags: 0,
            from: from.0,
            to: to.0,
            count: 0,
        };
        let mut body = Vec::with_capacity(capacity.0.max(FRAME_HEADER_BYTES));
        codec::put_frame_header(&mut body, &header);
        Frame {
            header,
            body,
            parts: Vec::with_capacity(capacity.1),
            bytes: HEADER_BYTES,
        }
    }

    /// Append one message: its header, then the argument bytes `encode`
    /// writes after it. The part `encode` returns, if any, goes on the side
    /// list. A frame of more than one message is a batch
    /// (`FRAME_FLAG_BATCH`).
    pub fn push(
        &mut self,
        class: MsgClass,
        causal: Option<CausalId>,
        bytes: usize,
        handler: HandlerId,
        encode: impl FnOnce(&mut Vec<u8>) -> Option<InlineSlot>,
    ) {
        let start = self.body.len();
        let header = MsgHeader {
            class,
            flags: 0,
            handler,
            causal,
            modeled_bytes: bytes as u32,
            args_len: 0,
        };
        codec::put_msg_header(&mut self.body, &header);
        let part = encode(&mut self.body);
        let args_len = (self.body.len() - start - MSG_HEADER_BYTES) as u32;
        let at = start + MSG_ARGS_LEN_AT;
        self.body[at..at + 4].copy_from_slice(&args_len.to_le_bytes());
        if let Some(part) = part {
            self.body[start + MSG_FLAGS_AT] |= codec::FLAG_STASH;
            self.parts.push(part);
        }
        self.bytes += bytes.saturating_sub(HEADER_BYTES);
        self.header.count += 1;
        if self.header.count > 1 {
            self.header.flags |= codec::FRAME_FLAG_BATCH;
        }
        self.put_header();
    }

    /// Append a boxed message: a [`WireMsg`] (its arguments copied, its
    /// inline part boxed onto the side list), a fault marker, or any other
    /// payload, which rides the side list whole under
    /// [`HandlerId::INVALID`]. `val` is the value of an
    /// [`crate::Inlined`] envelope, which rides the side list whole too.
    pub fn push_env(&mut self, env: Envelope, val: Option<InlineSlot>) {
        let Envelope {
            class,
            bytes,
            causal,
            payload,
            ..
        } = env;
        if let Some(val) = val {
            return self.push(class, causal, bytes, HandlerId::INVALID, |_| Some(val));
        }
        match payload.downcast::<WireMsg>() {
            Ok(w) => {
                let WireMsg {
                    handler,
                    args,
                    inline,
                } = *w;
                self.push(class, causal, bytes, handler, |out| {
                    out.extend_from_slice(&args);
                    inline.map(InlineSlot::from_payload)
                });
            }
            Err(payload) => match payload.downcast::<FaultMarker>() {
                Ok(m) => {
                    let kind = match *m {
                        FaultMarker::Duplicate => 0u8,
                        FaultMarker::Truncated => 1u8,
                    };
                    self.push(class, causal, bytes, codec::H_MARKER, |out| {
                        out.push(kind);
                        None
                    });
                }
                Err(whole) => self.push(class, causal, bytes, HandlerId::INVALID, |_| {
                    Some(InlineSlot::from_payload(whole))
                }),
            },
        }
    }

    /// Flag the frame a batch whatever its length: a batch envelope of one
    /// message stays a batch on the wire.
    pub fn mark_batch(&mut self) {
        self.header.flags |= codec::FRAME_FLAG_BATCH;
        self.put_header();
    }

    /// Write the header's flags and count into the body.
    fn put_header(&mut self) {
        let flags = self.header.flags.to_le_bytes();
        self.body[FRAME_FLAGS_AT..FRAME_FLAGS_AT + 2].copy_from_slice(&flags);
        let count = self.header.count.to_le_bytes();
        self.body[FRAME_COUNT_AT..FRAME_COUNT_AT + 4].copy_from_slice(&count);
    }

    /// Check every header and argument length of `body` and match its
    /// `FLAG_STASH` messages one to one against the side list `side`
    /// returns. `side` is called once, and only when some message carries
    /// the flag (it pops the list off the connection's FIFO); `None` means
    /// the connection has no list to give.
    pub fn parse(
        body: Vec<u8>,
        side: impl FnOnce() -> Option<Vec<InlineSlot>>,
    ) -> Result<Frame, DecodeError> {
        let mut cur = Cursor::new(&body);
        let header = codec::read_frame_header(&mut cur)?;
        let (mut stashed, mut bytes) = (0, HEADER_BYTES);
        for _ in 0..header.count {
            let h = codec::read_msg_header(&mut cur)?;
            let args = cur.take(h.args_len as usize)?;
            if h.flags & codec::FLAG_STASH != 0 {
                stashed += 1;
            } else if h.handler == codec::H_MARKER {
                marker(args)?;
            }
            bytes += (h.modeled_bytes as usize).saturating_sub(HEADER_BYTES);
        }
        cur.finish()?;
        let parts = match stashed {
            0 => Vec::new(),
            _ => side().unwrap_or_default(),
        };
        if parts.len() != stashed {
            return Err(DecodeError::StashMismatch);
        }
        Ok(Frame {
            header,
            body,
            parts,
            bytes,
        })
    }

    /// The frame header.
    pub fn header(&self) -> &FrameHeader {
        &self.header
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.header.count as usize
    }

    /// Does the frame carry no message?
    pub fn is_empty(&self) -> bool {
        self.header.count == 0
    }

    /// Lengths of the body, in bytes, and of the side list: what a frame
    /// built like this one should allocate up front.
    pub fn sizes(&self) -> (usize, usize) {
        (self.body.len(), self.parts.len())
    }

    /// The body and the side list, for a transport that ships them apart.
    pub fn into_parts(self) -> (Vec<u8>, Vec<InlineSlot>) {
        (self.body, self.parts)
    }

    /// Each message's header, in send order.
    fn headers(&self) -> impl Iterator<Item = MsgHeader> + '_ {
        let mut cur = Cursor::new(&self.body[FRAME_HEADER_BYTES..]);
        (0..self.header.count).map(move |_| {
            let h = codec::read_msg_header(&mut cur).expect("a well-formed frame");
            cur.take(h.args_len as usize).expect("a well-formed frame");
            h
        })
    }

    /// Messages and modeled bytes per class, indexed by
    /// [`MsgClass::index`]: the logical counts of the batch.
    pub fn class_counts(&self) -> [(u64, u64); MsgClass::ALL.len()] {
        let mut per_class = [(0u64, 0u64); MsgClass::ALL.len()];
        for h in self.headers() {
            let slot = &mut per_class[h.class.index()];
            slot.0 += 1;
            slot.1 += u64::from(h.modeled_bytes);
        }
        per_class
    }

    /// The class of the first message whose part rides the side list, if
    /// any does: what a peer in another process cannot be sent.
    pub fn stashed_class(&self) -> Option<MsgClass> {
        if self.parts.is_empty() {
            return None;
        }
        self.headers()
            .find(|h| h.flags & codec::FLAG_STASH != 0)
            .map(|h| h.class)
    }

    /// The frame as one envelope: a [`MsgClass::Batch`] envelope charged
    /// what [`Envelope::batch`] charges for its messages, or, for a lone
    /// message, one of that message's class, charge and causal stamp. The
    /// frame's box is the envelope's payload: a coalescer boxes its frame
    /// when it starts one, so its buffer stays one pointer wide and the
    /// flush allocates nothing.
    pub fn into_envelope(self: Box<Self>) -> Envelope {
        let (class, causal) = match self.header.flags & codec::FRAME_FLAG_BATCH {
            0 => {
                let h = self.headers().next().expect("a frame with a message");
                (h.class, h.causal)
            }
            _ => (MsgClass::Batch, None),
        };
        Envelope {
            from: PlaceId(self.header.from),
            to: PlaceId(self.header.to),
            class,
            bytes: self.bytes,
            causal,
            payload: self,
        }
    }

    /// Walk the messages in send order. The side-list parts move out with
    /// their messages: a second walk yields none.
    pub fn msgs(&mut self) -> FrameMsgs<'_> {
        FrameMsgs {
            cur: Cursor::new(&self.body[FRAME_HEADER_BYTES..]),
            parts: self.parts.drain(..),
        }
    }
}

/// The iterator of [`Frame::msgs`].
pub struct FrameMsgs<'a> {
    cur: Cursor<'a>,
    parts: std::vec::Drain<'a, InlineSlot>,
}

impl<'a> Iterator for FrameMsgs<'a> {
    type Item = FrameMsg<'a>;

    fn next(&mut self) -> Option<FrameMsg<'a>> {
        if self.cur.remaining() == 0 {
            return None;
        }
        let h = codec::read_msg_header(&mut self.cur).expect("a well-formed frame");
        let args = self
            .cur
            .take(h.args_len as usize)
            .expect("a well-formed frame");
        let part = match h.flags & codec::FLAG_STASH {
            0 => None,
            _ => self.parts.next(),
        };
        Some(FrameMsg {
            class: h.class,
            causal: h.causal,
            bytes: h.modeled_bytes as usize,
            handler: h.handler,
            args,
            part,
        })
    }
}

impl FrameMsg<'_> {
    /// The payload the sender's envelope had: the whole part under
    /// [`HandlerId::INVALID`], a fault marker, or a [`WireMsg`] holding a
    /// copy of the arguments and the part.
    pub fn into_payload(self) -> crate::Payload {
        match self.part {
            Some(whole) if self.handler == HandlerId::INVALID => whole.into_payload(),
            None if self.handler == codec::H_MARKER => {
                Box::new(marker(self.args).expect("a parsed frame"))
            }
            inline => Box::new(WireMsg {
                handler: self.handler,
                args: self.args.to_vec(),
                inline: inline.map(InlineSlot::into_payload),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::tests::{count, drops, Tally};
    use crate::message::Payload;

    /// A frame of `n` messages from place 0 to place 1; message `i` carries
    /// its tag as arguments and, when odd, a `Tally` part.
    fn tallied(n: u64, dropped: &std::sync::Arc<std::sync::atomic::AtomicUsize>) -> Box<Frame> {
        let mut f = Box::new(Frame::new(PlaceId(0), PlaceId(1), (0, 0)));
        for i in 0..n {
            f.push(MsgClass::Task, None, 40, HandlerId(2000), |out| {
                out.extend_from_slice(&i.to_le_bytes());
                (i % 2 == 1).then(|| InlineSlot::new(Tally(dropped.clone(), i)).unwrap())
            });
        }
        f
    }

    #[test]
    fn a_built_frame_parses_to_the_same_messages() {
        let n = drops();
        let mut built = tallied(5, &n);
        assert_eq!((built.len(), built.sizes().1), (5, 2));
        let (body, parts) = built.into_parts();
        let mut parsed = Frame::parse(body.clone(), || Some(parts)).expect("parses");
        assert_eq!(parsed.header().count, 5);
        assert_ne!(parsed.header().flags & codec::FRAME_FLAG_BATCH, 0);
        let got: Vec<(u64, Option<u64>)> = parsed
            .msgs()
            .map(|m| {
                let tag = u64::from_le_bytes(m.args.try_into().unwrap());
                (tag, m.part.map(|p| p.take::<Tally>().unwrap().1))
            })
            .collect();
        assert_eq!(
            got,
            vec![(0, None), (1, Some(1)), (2, None), (3, Some(3)), (4, None)]
        );
        assert_eq!(count(&n), 2);
        built = tallied(1, &n);
        assert_eq!(built.header().flags, 0, "a lone message is no batch");
        built.mark_batch();
        let (body, _) = built.into_parts();
        let parsed = Frame::parse(body, || None).expect("parses");
        assert_eq!(parsed.header().flags, codec::FRAME_FLAG_BATCH);
    }

    #[test]
    fn envelopes_charge_like_a_batch_or_the_lone_message() {
        let n = drops();
        let batch = tallied(3, &n).into_envelope();
        assert_eq!(batch.class, MsgClass::Batch);
        assert_eq!(batch.bytes, HEADER_BYTES + 3 * (40 - HEADER_BYTES));
        let mut f = Box::new(Frame::new(PlaceId(2), PlaceId(3), (0, 0)));
        let id = CausalId { root: 4, seq: 5 };
        f.push(MsgClass::Steal, Some(id), 52, HandlerId(7), |_| None);
        let lone = f.into_envelope();
        assert_eq!(
            (lone.from, lone.to, lone.class, lone.bytes, lone.causal),
            (PlaceId(2), PlaceId(3), MsgClass::Steal, 52, Some(id))
        );
        drop(batch);
        assert_eq!(count(&n), 1);
    }

    #[test]
    fn class_counts_and_stashed_class_read_the_headers() {
        let mut f = Frame::new(PlaceId(0), PlaceId(1), (0, 0));
        f.push(MsgClass::FinishCtl, None, 48, HandlerId(2), |_| None);
        f.push(MsgClass::Task, None, 40, HandlerId(1), |_| None);
        assert_eq!(f.stashed_class(), None);
        f.push(MsgClass::Steal, None, 36, HandlerId(1), |_| {
            Some(InlineSlot::from_payload(Box::new(1u8)))
        });
        let c = f.class_counts();
        assert_eq!(c[MsgClass::FinishCtl.index()], (1, 48));
        assert_eq!(c[MsgClass::Task.index()], (1, 40));
        assert_eq!(c[MsgClass::Steal.index()], (1, 36));
        assert_eq!(f.stashed_class(), Some(MsgClass::Steal));
    }

    #[test]
    fn boxed_envelopes_come_back_as_they_were_sent() {
        let mut f = Frame::new(PlaceId(0), PlaceId(1), (0, 0));
        let env = |p: Payload| Envelope::new(PlaceId(0), PlaceId(1), MsgClass::Task, 8, p);
        f.push_env(env(Box::new(WireMsg::new(HandlerId(9), vec![1, 2]))), None);
        let part: Payload = Box::new(String::from("part"));
        f.push_env(
            env(Box::new(WireMsg::with_inline(HandlerId(9), vec![3], part))),
            None,
        );
        f.push_env(env(Box::new(FaultMarker::Truncated)), None);
        f.push_env(env(Box::new(77u64)), None);
        let payloads: Vec<Payload> = f.msgs().map(FrameMsg::into_payload).collect();
        let mut it = payloads.into_iter();
        let w = it.next().unwrap().downcast::<WireMsg>().unwrap();
        assert_eq!(
            (w.handler, w.args.clone(), w.inline.is_none()),
            (HandlerId(9), vec![1, 2], true)
        );
        let w = it.next().unwrap().downcast::<WireMsg>().unwrap();
        assert_eq!(w.args, vec![3]);
        assert_eq!(*w.inline.unwrap().downcast::<String>().unwrap(), "part");
        assert!(it.next().unwrap().is::<FaultMarker>());
        assert_eq!(*it.next().unwrap().downcast::<u64>().unwrap(), 77);
    }

    /// Every way a frame that still holds cells can die drops each cell
    /// exactly once: dropped unread, dropped after a partial walk, or
    /// dropped with a walk's unread tail.
    #[test]
    fn unread_cells_drop_once_with_their_frame() {
        let n = drops();
        drop(tallied(6, &n));
        assert_eq!(count(&n), 3);
        let mut f = tallied(6, &n);
        let mut it = f.msgs();
        let first_part = it.nth(1).unwrap().part.unwrap();
        drop(it);
        assert_eq!(count(&n), 3 + 2, "the walk's unread tail dropped");
        assert_eq!(f.msgs().filter(|m| m.part.is_some()).count(), 0);
        drop(f);
        assert_eq!(count(&n), 5);
        drop(first_part);
        assert_eq!(count(&n), 6);
        // A half-walked frame dropped as an envelope, after its parts moved.
        let mut env = tallied(4, &n).into_envelope();
        let frame = env.payload.downcast_mut::<Frame>().unwrap();
        let moved: Vec<_> = frame.msgs().take(2).filter_map(|m| m.part).collect();
        drop(env);
        assert_eq!(count(&n), 6 + 1, "the unread cell dropped with the frame");
        drop(moved);
        assert_eq!(count(&n), 8);
    }
}
