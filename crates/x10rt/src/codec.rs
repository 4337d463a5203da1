//! Wire codec: the byte-level protocol for serialized messages.
//!
//! The paper's X10RT back-ends (PAMI, MPI, sockets) all move *bytes*; the
//! upper layer registers active-message handlers and sends (handler id,
//! serialized arguments) pairs. This module is that contract for this
//! reproduction: a fixed little-endian per-message header (version, class,
//! handler id, causal id, lengths) followed by opaque argument bytes, plus
//! the frame and handshake layouts the TCP back-end ([`crate::tcp`]) puts on
//! real sockets. The full byte-level specification lives in `PROTOCOL.md` at
//! the repository root; a doc-constants test pins that document to the
//! constants defined here.
//!
//! Two codec modes exist ([`CodecMode`]):
//!
//! * **`Inline`** — the historical in-process fast path: payloads stay typed
//!   boxes (`Box<FinishMsg>`, closures, …) and never touch bytes. This is
//!   the default; it is what the benchmark ratchet measures.
//! * **`Bytes`** — every protocol send is eagerly encoded (handler id +
//!   argument bytes) straight into its destination's frame
//!   ([`crate::Frame`], built by the coalescer) and dispatch goes through
//!   the receiver's handler registry. Cross-process transports require this
//!   mode; in-process runs can opt in to pay (and measure) the codec cost.
//!   A message sent past the coalescer travels as a boxed [`WireMsg`].
//!
//! Payloads that are *not* serializable (spawned closures, `Box<dyn Any>`
//! team data) ride along on their frame's side list (or as
//! [`WireMsg::inline`]) — legal in-process, a typed
//! [`EncodeError::NotSerializable`] across a real process boundary. This
//! mirrors X10 honestly: X10's compiler serializes closure environments;
//! Rust cannot, so cross-process work ships as registered *commands*
//! (handler id + bytes) instead.

use crate::message::{CausalId, MsgClass, Payload};

/// Protocol version carried in every message header and handshake. Bump on
/// any incompatible layout change; peers with different versions refuse to
/// connect (see `PROTOCOL.md` § versioning).
pub const PROTO_VERSION: u16 = 1;

/// Size of the fixed per-message header, in bytes. Deliberately equal to the
/// *modeled* [`crate::message::HEADER_BYTES`] charged by every envelope —
/// the byte ledgers and the real wire agree on header cost.
pub const MSG_HEADER_BYTES: usize = 32;

/// Size of the per-frame header (after the 4-byte length prefix), in bytes.
pub const FRAME_HEADER_BYTES: usize = 20;

/// Size of the connection handshake message, in bytes.
pub const HANDSHAKE_BYTES: usize = 24;

/// Magic bytes opening every frame header.
pub const FRAME_MAGIC: [u8; 4] = *b"X10F";

/// Magic bytes opening a handshake.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"X10H";

/// Magic bytes opening a handshake *rejection* (sent in place of the
/// handshake reply, then the connection closes).
pub const ERROR_MAGIC: [u8; 4] = *b"X10E";

/// Message-header flag: a causal id is present (root/seq fields are valid).
pub const FLAG_CAUSAL: u8 = 0x01;

/// Message-header flag: the message's non-serializable payload part is the
/// next part of its frame's in-process side list; no key bytes are carried.
/// Only legal when sender and receiver share an address space (the TCP
/// back-end's self-loop mode, see [`crate::tcp`]).
pub const FLAG_STASH: u8 = 0x02;

/// Message-header flag (reserved): the message belongs to a resilient
/// finish scope. Reserved in previously-must-be-zero flag space per the
/// PROTOCOL.md § 6 compatible-extension rule — no `PROTO_VERSION` bump.
/// Encoders do not set it yet: resilient-finish control traffic is fully
/// expressed in the `FinishMsg` tag space (PROTOCOL.md § 4), and the bit is
/// claimed now so a future fast-path router can classify resilient traffic
/// without decoding the payload.
pub const FLAG_RESILIENT: u8 = 0x04;

/// Identifies a registered message handler (an active-message id).
///
/// Numbering (see `PROTOCOL.md` § handler registry): `0` is invalid /
/// "payload is stash-only", `1..=1023` are reserved for the runtime, and
/// application handlers start at [`HandlerId::FIRST_APP`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct HandlerId(pub u32);

impl HandlerId {
    /// Reserved "no handler" id (a stash-only message).
    pub const INVALID: HandlerId = HandlerId(0);
    /// First id available to application handlers; everything below is
    /// reserved for the runtime.
    pub const FIRST_APP: HandlerId = HandlerId(1024);

    /// Is this a runtime-reserved id (`1..=1023`)?
    pub fn is_runtime(self) -> bool {
        self.0 >= 1 && self.0 < Self::FIRST_APP.0
    }

    /// Is this an application id (`>= 1024`)?
    pub fn is_app(self) -> bool {
        self.0 >= Self::FIRST_APP.0
    }
}

impl std::fmt::Display for HandlerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Runtime handler id: a spawned activity (attach + body).
pub const H_SPAWN: HandlerId = HandlerId(1);
/// Runtime handler id: finish termination-control traffic (`FinishMsg`).
pub const H_FINISH: HandlerId = HandlerId(2);
/// Runtime handler id: team collective fragments (`TeamWire`).
pub const H_TEAM: HandlerId = HandlerId(3);
/// Runtime handler id: clock barrier control (`ClockMsg`).
pub const H_CLOCK: HandlerId = HandlerId(4);
/// Runtime handler id: orderly shutdown of a serving process.
pub const H_SHUTDOWN: HandlerId = HandlerId(5);
/// Runtime handler id: a fault-injection marker envelope in transit (the
/// chaos layer's phantom duplicates and truncation husks must cross a real
/// wire too, so receive-edge filtering stays observable under TCP).
pub const H_MARKER: HandlerId = HandlerId(6);
/// Runtime handler id: observability-plane traffic (`ObsMsg`) — metrics
/// snapshot and causal-segment shipping to rank 0, and the live status
/// query/reply pair.
pub const H_OBS: HandlerId = HandlerId(7);

/// Which payload representation the runtime uses for protocol sends.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum CodecMode {
    /// Typed in-process boxes, no serialization (the fast path, default).
    #[default]
    Inline,
    /// Eagerly encode every protocol message into its frame: each
    /// coalescer destination buffer is a [`crate::Frame`] the message is
    /// written into at send time. Dispatch goes through the handler
    /// registry. Required for cross-process transports.
    Bytes,
}

impl CodecMode {
    /// Command-line / display name.
    pub fn label(self) -> &'static str {
        match self {
            CodecMode::Inline => "inline",
            CodecMode::Bytes => "bytes",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<CodecMode> {
        match s {
            "inline" => Some(CodecMode::Inline),
            "bytes" => Some(CodecMode::Bytes),
            _ => None,
        }
    }
}

/// A serialized message: a registered handler id plus its argument bytes.
///
/// The boxed form of a serialized message: what a message sent past the
/// coalescer carries (shutdown and observability traffic), and what a
/// received lone frame is delivered as. The transport layer can put `handler` + `args` on a real wire
/// verbatim; [`WireMsg::inline`] carries any non-serializable remainder (a
/// closure body, `Box<dyn Any>` team data) that can only travel in-process.
pub struct WireMsg {
    /// The registered handler that decodes and executes `args`.
    pub handler: HandlerId,
    /// Serialized arguments (layout is the handler's contract).
    pub args: Vec<u8>,
    /// Non-serializable payload part riding along in-process, if any.
    pub inline: Option<Payload>,
}

impl std::fmt::Debug for WireMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireMsg")
            .field("handler", &self.handler)
            .field("args_len", &self.args.len())
            .field("has_inline", &self.inline.is_some())
            .finish()
    }
}

impl WireMsg {
    /// A fully-serializable message (no inline part).
    pub fn new(handler: HandlerId, args: Vec<u8>) -> Self {
        WireMsg {
            handler,
            args,
            inline: None,
        }
    }

    /// A message with a non-serializable in-process part attached.
    pub fn with_inline(handler: HandlerId, args: Vec<u8>, inline: Payload) -> Self {
        WireMsg {
            handler,
            args,
            inline: Some(inline),
        }
    }
}

/// Typed decoding failure. Decoders return these for *any* malformed input
/// — truncation, garbage, bad versions — and never panic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Input ended before a fixed-size field or declared length.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes that were available.
        have: usize,
    },
    /// A magic prefix did not match.
    BadMagic {
        /// The magic the decoder expected.
        expected: [u8; 4],
        /// What arrived instead.
        got: [u8; 4],
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our [`PROTO_VERSION`].
        ours: u16,
        /// The version the peer declared.
        theirs: u16,
    },
    /// A class byte outside [`MsgClass::ALL`].
    BadClass(u8),
    /// A handler id with no registered handler. Carries the offending id.
    UnknownHandler(u32),
    /// A tagged union carried an unknown tag.
    BadTag {
        /// Which union (for the error message).
        what: &'static str,
        /// The unknown tag byte.
        tag: u8,
    },
    /// A declared length exceeds the bytes actually present (corrupt or
    /// adversarial length field).
    LengthOverflow {
        /// The declared length.
        declared: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Bytes remained after a complete decode (framing slip).
    TrailingBytes(usize),
    /// A frame's [`FLAG_STASH`] messages do not match its side list one to
    /// one: more flagged messages than parts, parts left over, or a flag on
    /// a connection that has no side lists.
    StashMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(f, "truncated input: needed {need} bytes, had {have}")
            }
            DecodeError::BadMagic { expected, got } => write!(
                f,
                "bad magic: expected {:?}, got {:?}",
                String::from_utf8_lossy(expected),
                got
            ),
            DecodeError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: ours {ours}, peer sent {theirs}"
            ),
            DecodeError::BadClass(b) => write!(f, "unknown message class byte {b}"),
            DecodeError::UnknownHandler(id) => write!(f, "unknown handler id #{id}"),
            DecodeError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            DecodeError::LengthOverflow {
                declared,
                available,
            } => write!(
                f,
                "declared length {declared} exceeds available {available} bytes"
            ),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            DecodeError::StashMismatch => {
                write!(f, "FLAG_STASH messages do not match the frame's side list")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Typed encoding failure. The TCP back-end treats either as a
/// configuration error and panics at the sender.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EncodeError {
    /// The payload has a non-serializable part (a closure, `Box<dyn Any>`
    /// data) and the transport has no in-process side list to carry it on
    /// — i.e. the destination lives in another process. Cross-process work
    /// must ship as registered commands instead.
    NotSerializable {
        /// Message class of the offending envelope.
        class: MsgClass,
    },
    /// The frame would be longer than [`crate::tcp::MAX_FRAME_BYTES`], for
    /// which the peer's reader drops the connection. Sized from header and
    /// argument lengths before any byte is copied.
    FrameTooLarge {
        /// The frame's length after its 4-byte prefix.
        len: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::NotSerializable { class } => write!(
                f,
                "payload of class `{}` is not serializable: closures and \
                 Box<dyn Any> data cannot cross a process boundary — register \
                 a command handler and send bytes instead",
                class.label()
            ),
            EncodeError::FrameTooLarge { len } => write!(
                f,
                "frame of {len} bytes exceeds the {} byte frame limit",
                crate::tcp::MAX_FRAME_BYTES
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

// ---------------------------------------------------------------------------
// Little-endian primitives
// ---------------------------------------------------------------------------

/// Append a `u16` little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` little-endian.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its little-endian IEEE-754 bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a `u32` length followed by the bytes.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a `u32` length followed by UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked little-endian reader over a byte slice. Every method
/// returns a typed [`DecodeError`] on underrun — decoders built on it never
/// panic on truncated or garbage input.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its little-endian IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(DecodeError::LengthOverflow {
                declared: n,
                available: self.remaining(),
            });
        }
        self.take(n)
    }

    /// Read a `u32`-length-prefixed UTF-8 string (lossily, for panic
    /// messages that must survive any corruption).
    pub fn string(&mut self) -> Result<String, DecodeError> {
        Ok(String::from_utf8_lossy(self.bytes()?).into_owned())
    }

    /// Fail with [`DecodeError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-message header
// ---------------------------------------------------------------------------

/// Decoded per-message header (see `PROTOCOL.md` § message header for the
/// byte layout; [`MSG_HEADER_BYTES`] long on the wire).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MsgHeader {
    /// Message class.
    pub class: MsgClass,
    /// Flag bits ([`FLAG_CAUSAL`], [`FLAG_STASH`]).
    pub flags: u8,
    /// Handler id.
    pub handler: HandlerId,
    /// Causal identity, when [`FLAG_CAUSAL`] is set.
    pub causal: Option<CausalId>,
    /// The envelope's *modeled* wire size (the byte ledgers' currency),
    /// carried so the receiving process reconstructs identical accounting.
    pub modeled_bytes: u32,
    /// Length of the argument bytes following the header.
    pub args_len: u32,
}

/// Append a message header (exactly [`MSG_HEADER_BYTES`] bytes).
pub fn put_msg_header(out: &mut Vec<u8>, h: &MsgHeader) {
    let start = out.len();
    put_u16(out, PROTO_VERSION);
    out.push(h.class.index() as u8);
    let mut flags = h.flags;
    if h.causal.is_some() {
        flags |= FLAG_CAUSAL;
    }
    out.push(flags);
    put_u32(out, h.handler.0);
    let c = h.causal.unwrap_or(CausalId { root: 0, seq: 0 });
    put_u64(out, c.root);
    put_u64(out, c.seq);
    put_u32(out, h.modeled_bytes);
    put_u32(out, h.args_len);
    debug_assert_eq!(out.len() - start, MSG_HEADER_BYTES);
}

/// Decode a message header, validating version and class.
pub fn read_msg_header(cur: &mut Cursor<'_>) -> Result<MsgHeader, DecodeError> {
    let version = cur.u16()?;
    if version != PROTO_VERSION {
        return Err(DecodeError::VersionMismatch {
            ours: PROTO_VERSION,
            theirs: version,
        });
    }
    let class_byte = cur.u8()?;
    let class = MsgClass::from_index(class_byte).ok_or(DecodeError::BadClass(class_byte))?;
    let flags = cur.u8()?;
    let handler = HandlerId(cur.u32()?);
    let root = cur.u64()?;
    let seq = cur.u64()?;
    let causal = if flags & FLAG_CAUSAL != 0 {
        Some(CausalId { root, seq })
    } else {
        None
    };
    let modeled_bytes = cur.u32()?;
    let args_len = cur.u32()?;
    if args_len as usize > cur.remaining() {
        return Err(DecodeError::LengthOverflow {
            declared: args_len as usize,
            available: cur.remaining(),
        });
    }
    Ok(MsgHeader {
        class,
        flags,
        handler,
        causal,
        modeled_bytes,
        args_len,
    })
}

// ---------------------------------------------------------------------------
// Frame header
// ---------------------------------------------------------------------------

/// Frame-header flag: the frame is a coalescer *batch* envelope — the
/// receiver delivers the frame whole, as one `MsgClass::Batch` envelope
/// carrying the [`crate::Frame`], instead of delivering its messages singly
/// (a batch of one stays a batch).
pub const FRAME_FLAG_BATCH: u16 = 0x0001;

/// Decoded frame header (the [`FRAME_HEADER_BYTES`] bytes following the
/// 4-byte length prefix; see `PROTOCOL.md` § frames).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameHeader {
    /// Flag bits ([`FRAME_FLAG_BATCH`]).
    pub flags: u16,
    /// Sending place.
    pub from: u32,
    /// Destination place.
    pub to: u32,
    /// Number of messages in the frame (a coalescer batch maps to one frame
    /// with `count >= 1`; a lone envelope to `count == 1` without
    /// [`FRAME_FLAG_BATCH`]).
    pub count: u32,
}

/// Append a frame header (exactly [`FRAME_HEADER_BYTES`] bytes).
pub fn put_frame_header(out: &mut Vec<u8>, h: &FrameHeader) {
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    put_u16(out, PROTO_VERSION);
    put_u16(out, h.flags);
    put_u32(out, h.from);
    put_u32(out, h.to);
    put_u32(out, h.count);
    debug_assert_eq!(out.len() - start, FRAME_HEADER_BYTES);
}

/// Decode a frame header, validating magic and version.
pub fn read_frame_header(cur: &mut Cursor<'_>) -> Result<FrameHeader, DecodeError> {
    let magic: [u8; 4] = cur.take(4)?.try_into().unwrap();
    if magic != FRAME_MAGIC {
        return Err(DecodeError::BadMagic {
            expected: FRAME_MAGIC,
            got: magic,
        });
    }
    let version = cur.u16()?;
    if version != PROTO_VERSION {
        return Err(DecodeError::VersionMismatch {
            ours: PROTO_VERSION,
            theirs: version,
        });
    }
    let flags = cur.u16()?;
    let from = cur.u32()?;
    let to = cur.u32()?;
    let count = cur.u32()?;
    Ok(FrameHeader {
        flags,
        from,
        to,
        count,
    })
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Connection handshake: the first (and only) out-of-band message each side
/// sends on a fresh TCP connection (see `PROTOCOL.md` § handshake).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Handshake {
    /// Protocol version the sender speaks (normally [`PROTO_VERSION`]; a
    /// test override can force a mismatch).
    pub version: u16,
    /// The sender's process index in the launch configuration.
    pub proc_id: u32,
    /// First place hosted by the sending process.
    pub place_start: u32,
    /// Number of places hosted by the sending process.
    pub place_count: u32,
    /// Total places in the job (must agree on both sides).
    pub total_places: u32,
}

/// Encode a handshake (exactly [`HANDSHAKE_BYTES`] bytes).
pub fn encode_handshake(h: &Handshake) -> [u8; HANDSHAKE_BYTES] {
    let mut out = Vec::with_capacity(HANDSHAKE_BYTES);
    out.extend_from_slice(&HANDSHAKE_MAGIC);
    put_u16(&mut out, h.version);
    put_u16(&mut out, 0); // flags, reserved
    put_u32(&mut out, h.proc_id);
    put_u32(&mut out, h.place_start);
    put_u32(&mut out, h.place_count);
    put_u32(&mut out, h.total_places);
    out.try_into().expect("handshake is fixed-size")
}

/// Encode a handshake *rejection* (also [`HANDSHAKE_BYTES`] long, so the
/// peer's fixed-size read picks it up): [`ERROR_MAGIC`], the rejecter's
/// version, the version it rejected, zero padding.
pub fn encode_handshake_reject(ours: u16, theirs: u16) -> [u8; HANDSHAKE_BYTES] {
    let mut out = Vec::with_capacity(HANDSHAKE_BYTES);
    out.extend_from_slice(&ERROR_MAGIC);
    put_u16(&mut out, ours);
    put_u16(&mut out, theirs);
    out.resize(HANDSHAKE_BYTES, 0);
    out.try_into().expect("handshake reject is fixed-size")
}

/// Decode a handshake (or a rejection, surfaced as
/// [`DecodeError::VersionMismatch`]).
pub fn decode_handshake(buf: &[u8]) -> Result<Handshake, DecodeError> {
    let mut cur = Cursor::new(buf);
    let magic: [u8; 4] = cur.take(4)?.try_into().unwrap();
    if magic == ERROR_MAGIC {
        let theirs = cur.u16()?; // the rejecter's version
        let ours = cur.u16()?; // the version it rejected: ours
        return Err(DecodeError::VersionMismatch { ours, theirs });
    }
    if magic != HANDSHAKE_MAGIC {
        return Err(DecodeError::BadMagic {
            expected: HANDSHAKE_MAGIC,
            got: magic,
        });
    }
    let version = cur.u16()?;
    let _flags = cur.u16()?;
    Ok(Handshake {
        version,
        proc_id: cur.u32()?,
        place_start: cur.u32()?,
        place_count: cur.u32()?,
        total_places: cur.u32()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::HEADER_BYTES;

    #[test]
    fn msg_header_matches_modeled_header_size() {
        // The byte ledgers charge HEADER_BYTES per message; the real wire
        // header is the same size, so modeled and physical accounting agree.
        assert_eq!(MSG_HEADER_BYTES, HEADER_BYTES);
    }

    #[test]
    fn msg_header_round_trip() {
        for causal in [
            None,
            Some(CausalId {
                root: 77,
                seq: 123_456,
            }),
        ] {
            let h = MsgHeader {
                class: MsgClass::FinishCtl,
                flags: 0,
                handler: H_FINISH,
                causal,
                modeled_bytes: 96,
                args_len: 0,
            };
            let mut buf = Vec::new();
            put_msg_header(&mut buf, &h);
            assert_eq!(buf.len(), MSG_HEADER_BYTES);
            let mut cur = Cursor::new(&buf);
            let got = read_msg_header(&mut cur).expect("decodes");
            assert_eq!(got.class, h.class);
            assert_eq!(got.handler, h.handler);
            assert_eq!(got.causal, causal);
            assert_eq!(got.modeled_bytes, 96);
            assert_eq!(got.args_len, 0);
        }
    }

    #[test]
    fn msg_header_args_len_validated() {
        let h = MsgHeader {
            class: MsgClass::Task,
            flags: 0,
            handler: H_SPAWN,
            causal: None,
            modeled_bytes: 40,
            args_len: 1_000, // longer than what follows
        };
        let mut buf = Vec::new();
        put_msg_header(&mut buf, &h);
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            read_msg_header(&mut cur),
            Err(DecodeError::LengthOverflow {
                declared: 1_000,
                ..
            })
        ));
    }

    #[test]
    fn frame_header_round_trip() {
        let h = FrameHeader {
            flags: FRAME_FLAG_BATCH,
            from: 3,
            to: 9,
            count: 17,
        };
        let mut buf = Vec::new();
        put_frame_header(&mut buf, &h);
        assert_eq!(buf.len(), FRAME_HEADER_BYTES);
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_frame_header(&mut cur).expect("decodes"), h);
    }

    #[test]
    fn frame_bad_magic_is_typed() {
        let mut buf = Vec::new();
        put_frame_header(
            &mut buf,
            &FrameHeader {
                flags: 0,
                from: 0,
                to: 1,
                count: 1,
            },
        );
        buf[0] = b'Z';
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            read_frame_header(&mut cur),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn handshake_round_trip_and_reject() {
        let h = Handshake {
            version: PROTO_VERSION,
            proc_id: 1,
            place_start: 4,
            place_count: 4,
            total_places: 8,
        };
        let buf = encode_handshake(&h);
        assert_eq!(decode_handshake(&buf).expect("decodes"), h);

        let rej = encode_handshake_reject(PROTO_VERSION, 99);
        match decode_handshake(&rej) {
            Err(DecodeError::VersionMismatch { ours, theirs }) => {
                assert_eq!(theirs, PROTO_VERSION); // rejecter's version
                assert_eq!(ours, 99); // what it refused
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_never_panics() {
        let h = MsgHeader {
            class: MsgClass::Clock,
            flags: 0,
            handler: H_CLOCK,
            causal: Some(CausalId { root: 1, seq: 2 }),
            modeled_bytes: 48,
            args_len: 0,
        };
        let mut buf = Vec::new();
        put_msg_header(&mut buf, &h);
        for cut in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..cut]);
            assert!(
                read_msg_header(&mut cur).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn handler_id_numbering() {
        assert!(!HandlerId::INVALID.is_runtime());
        assert!(!HandlerId::INVALID.is_app());
        for h in [
            H_SPAWN, H_FINISH, H_TEAM, H_CLOCK, H_SHUTDOWN, H_MARKER, H_OBS,
        ] {
            assert!(h.is_runtime(), "{h} must be runtime-reserved");
        }
        assert!(HandlerId::FIRST_APP.is_app());
        assert_eq!(HandlerId::FIRST_APP.0, 1024);
    }

    #[test]
    fn cursor_primitives_round_trip() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_f64(&mut buf, 2.5);
        put_str(&mut buf, "héllo");
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.u16().unwrap(), 0xBEEF);
        assert_eq!(cur.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(cur.u64().unwrap(), u64::MAX - 1);
        assert_eq!(cur.i64().unwrap(), -42);
        assert_eq!(cur.f64().unwrap(), 2.5);
        assert_eq!(cur.string().unwrap(), "héllo");
        cur.finish().unwrap();
    }

    #[test]
    fn bytes_length_overflow_is_typed() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 100); // declares 100 bytes, provides none
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            cur.bytes(),
            Err(DecodeError::LengthOverflow {
                declared: 100,
                available: 0
            })
        ));
    }
}
