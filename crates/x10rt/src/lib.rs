//! `x10rt` — the X10 Runtime Transport layer, reimplemented in Rust.
//!
//! The paper ("X10 and APGAS at Petascale", PPoPP'14, §3.3) describes X10's
//! layered runtime: the upper APGAS layer (places, activities, `finish`)
//! talks to a common transport API — X10RT — with back-ends for PAMI, MPI and
//! TCP/IP sockets. An implementation is only *required* to provide basic
//! point-to-point FIFO primitives; richer capabilities (collectives, RDMA)
//! are either mapped to hardware or emulated.
//!
//! This crate provides:
//!
//! * [`transport::Transport`] — the point-to-point API, with the in-process
//!   [`transport::LocalTransport`] back-end: one growable lock-free SPSC
//!   [`ring`] lane per (sender, receiver) pair, preserving per-sender FIFO — exactly the guarantee PAMI gives and the
//!   guarantee the finish protocols rely on;
//! * [`arena::EnvelopeArena`] — freelist recycling of the inline codec's
//!   coalescer batch buffers, making its steady-state send path
//!   allocation-free;
//! * [`coalesce::Coalescer`] — sender-side aggregation of small messages
//!   into batch envelopes (the PAMI aggregation layer), with per-destination
//!   flush thresholds and an explicit flush discipline; under the byte
//!   codec each destination buffer is a frame the messages are written
//!   into at send time;
//! * [`stats::NetStats`] — per-message-class counters (messages, modeled wire
//!   bytes, per-place in-degree) sharded per sender, plus physical envelope
//!   counters so benchmarks can compare protocol and transport costs;
//! * [`segment`] / [`rdma`] — registered memory segments and RDMA emulation:
//!   `put`/`get` copy directly into the destination segment from the sender's
//!   thread (no destination-CPU involvement — the defining property of RDMA),
//!   and `fetch_xor_u64` models the Torrent "GUPS" remote atomic update;
//! * [`congruent`] — the congruent memory allocator: the same allocation
//!   sequence executed at every place yields the same segment identifiers, so
//!   any place can name remote memory without a handshake (§3.3, "Congruent
//!   Memory Allocator");
//! * [`place`] — place identifiers and the host topology (the paper runs 32
//!   places per Power 775 octant; `FINISH_DENSE` routes control messages via
//!   per-host master places);
//! * [`codec`] — the serialized wire format (`PROTOCOL.md`): fixed
//!   little-endian message headers, handler-id registry conventions, batch
//!   frames and the connection handshake;
//! * [`frame`] — the byte codec's unit of aggregation: built by the
//!   coalescer, validated in place when it comes off a socket, delivered
//!   whole and read message by message without copying;
//! * [`tcp`] — [`tcp::TcpTransport`], the sockets back-end: places in
//!   separate OS processes over per-peer framed TCP streams;
//! * [`hash`] — the integer hasher behind every per-message map.

#![warn(missing_docs)]

pub mod arena;
pub mod coalesce;
pub mod codec;
pub mod congruent;
pub mod fault;
pub mod frame;
pub mod hash;
pub mod message;
pub mod place;
pub mod rdma;
pub mod ring;
pub mod segment;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use arena::{ArenaCounts, EnvelopeArena, DEFAULT_ARENA_RETAIN};
pub use coalesce::{Coalescer, FlushCounts, FlushReason};
pub use codec::{CodecMode, DecodeError, EncodeError, HandlerId, WireMsg, PROTO_VERSION};
pub use congruent::{CongruentAllocator, CongruentArray, Pod};
pub use fault::{ClassFaults, FaultCounts, FaultEvent, FaultPlan, FaultTransport};
pub use frame::{Frame, FrameMsg};
pub use hash::IntMap;
pub use message::{BatchPayload, Envelope, InlineSlot, Inlined, MsgClass, Payload, HEADER_BYTES};
pub use place::{PlaceId, Topology};
pub use rdma::RemoteAddr;
pub use ring::{SpscRing, DEFAULT_RING_CAPACITY};
pub use segment::{SegId, Segment, SegmentTable};
pub use stats::NetStats;
pub use tcp::{ProcSpec, TcpConfig, TcpError, TcpTransport};
pub use transport::{LocalTransport, SendError, Transport};
