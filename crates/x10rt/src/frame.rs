//! A received frame, validated in place and read without copying.
//!
//! The TCP reader ([`crate::tcp`]) reads each frame body (everything after
//! the length prefix) into a buffer of its own and checks all of it with
//! [`Frame::parse`] before it delivers anything. A `FRAME_FLAG_BATCH`
//! frame is then delivered whole: one [`MsgClass::Batch`] envelope
//! ([`Frame::into_envelope`]) whose payload owns the body and the frame's
//! side list, so nothing is copied or boxed per message between the
//! socket and dispatch. The receiver walks the messages with
//! [`Frame::msgs`]; each one's arguments are a slice of the body, and the
//! part the sender put on the side list (if any) moves out with it. A lone
//! frame is walked the same way, its message boxed into an envelope of its
//! own ([`FrameMsg::into_payload`]).

use crate::codec::{self, Cursor, DecodeError, FrameHeader, HandlerId, WireMsg};
use crate::fault::FaultMarker;
use crate::message::{CausalId, Envelope, MsgClass, Payload, HEADER_BYTES};
use crate::place::PlaceId;

/// A frame body that decoded without error, with its side list (see the
/// [module docs](self)).
pub struct Frame {
    header: FrameHeader,
    body: Vec<u8>,
    /// The non-serializable parts of the `FLAG_STASH` messages, in message
    /// order; moved out by the first [`Frame::msgs`] walk.
    parts: Vec<Payload>,
    /// The modeled size [`Envelope::batch`] charges for these messages.
    bytes: usize,
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
    pub part: Option<Payload>,
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
    /// Check every header and argument length of `body` and match its
    /// `FLAG_STASH` messages one to one against the side list `side`
    /// returns. `side` is called once, and only when some message carries
    /// the flag (it pops the list off the connection's FIFO); `None` means
    /// the connection has no list to give.
    pub fn parse(
        body: Vec<u8>,
        side: impl FnOnce() -> Option<Vec<Payload>>,
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

    /// The frame as one [`MsgClass::Batch`] envelope, charged what
    /// [`Envelope::batch`] charges for its messages.
    pub fn into_envelope(self) -> Envelope {
        Envelope {
            from: PlaceId(self.header.from),
            to: PlaceId(self.header.to),
            class: MsgClass::Batch,
            bytes: self.bytes,
            causal: None,
            payload: Box::new(self),
        }
    }

    /// Walk the messages in send order. The side-list parts move out with
    /// their messages: a second walk yields none.
    pub fn msgs(&mut self) -> FrameMsgs<'_> {
        FrameMsgs {
            cur: Cursor::new(&self.body[codec::FRAME_HEADER_BYTES..]),
            parts: self.parts.drain(..),
        }
    }
}

/// The iterator of [`Frame::msgs`].
pub struct FrameMsgs<'a> {
    cur: Cursor<'a>,
    parts: std::vec::Drain<'a, Payload>,
}

impl<'a> Iterator for FrameMsgs<'a> {
    type Item = FrameMsg<'a>;

    fn next(&mut self) -> Option<FrameMsg<'a>> {
        if self.cur.remaining() == 0 {
            return None;
        }
        let h = codec::read_msg_header(&mut self.cur).expect("a parsed frame");
        let args = self.cur.take(h.args_len as usize).expect("a parsed frame");
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
    pub fn into_payload(self) -> Payload {
        match self.part {
            Some(whole) if self.handler == HandlerId::INVALID => whole,
            None if self.handler == codec::H_MARKER => {
                Box::new(marker(self.args).expect("a parsed frame"))
            }
            inline => Box::new(WireMsg {
                handler: self.handler,
                args: self.args.to_vec(),
                inline,
            }),
        }
    }
}
