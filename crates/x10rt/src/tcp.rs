//! TCP socket back-end: places in separate OS processes.
//!
//! The paper's X10RT ships a sockets back-end alongside PAMI and MPI; this
//! module is that back-end for this reproduction. Each *process* hosts a
//! contiguous range of places and holds one TCP connection per peer process.
//! Envelopes whose destination lives in another process are serialized with
//! the [`crate::codec`] wire format into length-prefixed frames (one frame
//! per envelope; a coalescer batch envelope maps to one frame carrying all
//! its messages — the batch stays the wire unit, exactly as it is
//! in-process) and written by a per-peer writer thread; a per-peer reader
//! thread decodes incoming frames and delivers the rebuilt envelopes into an
//! inner [`LocalTransport`], which provides the mailbox queues, wakers,
//! statistics and kill support. Intra-process traffic bypasses the sockets
//! and goes straight to the inner transport — the local fast path survives.
//!
//! # Connection establishment
//!
//! Every process binds a listener; process `i` dials every process `j > i`
//! (so the highest-numbered process only accepts, and process 0 only
//! dials). The dialer opens with a [`codec::Handshake`] carrying its
//! protocol version, process id, place range and total place count; the
//! accepter validates all four and replies with its own handshake — or with
//! a [`codec::encode_handshake_reject`] frame followed by a close, which the
//! dialer surfaces as [`TcpError::VersionMismatch`]. Dialing retries with
//! backoff until [`TcpConfig::connect_timeout`], covering peer-startup
//! races.
//!
//! # Self-loop mode
//!
//! [`TcpTransport::self_loop`] hosts *all* places in one process connected
//! to itself over a real loopback socket: every send is serialized, framed,
//! written to the kernel, read back and decoded. This is the configuration
//! the `--transport tcp` flag of the bench/chaos bins uses — single-process
//! determinism and fault injection compose unchanged, while the entire codec
//! and framing path is exercised for real. Non-serializable payload parts
//! (closure bodies in [`codec::WireMsg::inline`]) are parked in an
//! in-process *stash* keyed by a `u64` carried in the argument bytes
//! ([`codec::FLAG_STASH`]); that is legal only because sender and receiver
//! share an address space — a cross-process send of such a payload fails
//! with a typed [`codec::EncodeError::NotSerializable`].
//!
//! # Accounting
//!
//! Statistics are recorded at *delivery* (the inner transport's `send`), so
//! a process's ledgers describe the traffic its places actually saw. In
//! self-loop mode that means every message is counted exactly once, same as
//! `LocalTransport`; in multi-process mode each process counts the traffic
//! that entered it.

use crate::codec::{self, DecodeError, EncodeError, HandlerId, Handshake, WireMsg};
use crate::fault::FaultMarker;
use crate::hash::IntMap;
use crate::message::{Envelope, Payload};
use crate::place::PlaceId;
use crate::stats::NetStats;
use crate::transport::{LocalTransport, SendError, Transport, Waker};
use obs::metrics::MetricsRegistry;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard upper bound on an incoming frame's declared length — a corrupt or
/// adversarial length prefix fails decoding instead of attempting a
/// multi-gigabyte allocation (PROTOCOL.md §3).
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// One process of a multi-process launch: where to reach it and which
/// places it hosts.
#[derive(Clone, Debug)]
pub struct ProcSpec {
    /// `host:port` the process listens on. Only consulted for processes the
    /// local one dials (`index > me`); pass an empty string otherwise.
    pub addr: String,
    /// First place hosted by the process.
    pub place_start: u32,
    /// Number of places hosted by the process.
    pub place_count: u32,
}

/// Configuration of a [`TcpTransport`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// All processes of the launch, in process-id order. Place ranges must
    /// be contiguous, disjoint, and cover `0..total_places`.
    pub procs: Vec<ProcSpec>,
    /// Which entry of `procs` is this process.
    pub me: usize,
    /// Protocol version to declare in handshakes. Defaults to
    /// [`codec::PROTO_VERSION`]; tests override it to exercise the
    /// handshake-rejection path.
    pub version: u16,
    /// How long to keep re-dialing an unreachable peer before giving up.
    pub connect_timeout: Duration,
}

impl TcpConfig {
    /// A configuration for process `me` of `procs`, with defaults.
    pub fn new(procs: Vec<ProcSpec>, me: usize) -> Self {
        TcpConfig {
            procs,
            me,
            version: codec::PROTO_VERSION,
            connect_timeout: Duration::from_secs(15),
        }
    }

    /// Override the declared protocol version (builder style; test hook for
    /// the handshake-rejection path).
    pub fn version(mut self, v: u16) -> Self {
        self.version = v;
        self
    }

    fn total_places(&self) -> usize {
        self.procs.iter().map(|p| p.place_count as usize).sum()
    }
}

/// Typed failure establishing or operating a [`TcpTransport`].
#[derive(Debug)]
pub enum TcpError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The peer speaks a different protocol version (its handshake was
    /// rejected, or it rejected ours).
    VersionMismatch {
        /// The version this process declared.
        ours: u16,
        /// The version the peer declared.
        theirs: u16,
    },
    /// The peer's handshake bytes did not decode.
    BadHandshake(DecodeError),
    /// The peer's handshake decoded but contradicts the launch
    /// configuration (wrong total place count, unexpected place range or
    /// process id).
    PeerMismatch(String),
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "tcp transport i/o error: {e}"),
            TcpError::VersionMismatch { ours, theirs } => write!(
                f,
                "handshake rejected: protocol version mismatch (ours {ours}, peer {theirs})"
            ),
            TcpError::BadHandshake(e) => write!(f, "malformed handshake: {e}"),
            TcpError::PeerMismatch(s) => write!(f, "peer configuration mismatch: {s}"),
        }
    }
}

impl std::error::Error for TcpError {}

impl From<std::io::Error> for TcpError {
    fn from(e: std::io::Error) -> Self {
        TcpError::Io(e)
    }
}

/// Outgoing bytes for one peer connection: an unbounded frame queue drained
/// by a dedicated writer thread, so `Transport::send` never blocks on the
/// socket (the transport contract) — backpressure shows up as queue memory,
/// as it does for the in-process lanes' ring growth.
struct OutQueue {
    frames: Mutex<VecDeque<Vec<u8>>>,
    ready: Condvar,
    closed: AtomicBool,
}

impl OutQueue {
    fn new() -> Arc<Self> {
        Arc::new(OutQueue {
            frames: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
        })
    }

    fn push(&self, frame: Vec<u8>) {
        let mut q = self.frames.lock();
        q.push_back(frame);
        self.ready.notify_one();
    }

    /// Block until a frame is available or the queue closes.
    fn pop(&self) -> Option<Vec<u8>> {
        let mut q = self.frames.lock();
        loop {
            if let Some(f) = q.pop_front() {
                return Some(f);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            self.ready.wait(&mut q);
        }
    }

    /// Wake the writer for good. The flag is stored under the `frames`
    /// lock: a writer between its `closed` check and its `wait` holds that
    /// lock, so the notify cannot fall into that gap and be lost (a lost
    /// one left `Drop` joining a writer that never woke).
    fn close(&self) {
        let _q = self.frames.lock();
        self.closed.store(true, Ordering::Release);
        self.ready.notify_all();
    }
}

/// Shared state of the transport, held by the transport object and every
/// connection thread.
struct Core {
    inner: LocalTransport,
    /// Place id → hosting process index.
    place_proc: Vec<usize>,
    me: usize,
    self_loop: bool,
    /// Writer queue per peer process (`None` for `me` unless self-loop).
    out: Vec<Option<Arc<OutQueue>>>,
    /// In-process stash for non-serializable payload parts (self-loop only).
    stash: Mutex<IntMap<u64, Payload>>,
    stash_next: AtomicU64,
    /// Set during teardown so connection threads exit quietly.
    closing: AtomicBool,
}

impl Core {
    // -- encoding ---------------------------------------------------------

    /// Park a payload in the stash, returning its key.
    fn stash_put(&self, payload: Payload) -> u64 {
        let key = self.stash_next.fetch_add(1, Ordering::Relaxed);
        self.stash.lock().insert(key, payload);
        key
    }

    fn stash_take(&self, key: u64) -> Option<Payload> {
        self.stash.lock().remove(&key)
    }

    /// Serialize one logical (non-batch) message into `out`.
    fn encode_one(&self, env: Envelope, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        let Envelope {
            class,
            bytes,
            causal,
            payload,
            ..
        } = env;
        let (handler, flags, args) = match payload.downcast::<WireMsg>() {
            Ok(w) => {
                let w = *w;
                match w.inline {
                    None => (w.handler, 0u8, w.args),
                    Some(inline) => {
                        if !self.self_loop {
                            return Err(EncodeError::NotSerializable { class });
                        }
                        let key = self.stash_put(inline);
                        let mut args = Vec::with_capacity(8 + w.args.len());
                        codec::put_u64(&mut args, key);
                        args.extend_from_slice(&w.args);
                        (w.handler, codec::FLAG_STASH, args)
                    }
                }
            }
            Err(payload) => match payload.downcast::<FaultMarker>() {
                Ok(marker) => {
                    let kind = match *marker {
                        FaultMarker::Duplicate => 0u8,
                        FaultMarker::Truncated => 1u8,
                    };
                    (codec::H_MARKER, 0u8, vec![kind])
                }
                Err(payload) => {
                    // An untyped in-process payload (CodecMode::Inline box):
                    // only the self-loop can carry it — whole-payload stash.
                    if !self.self_loop {
                        return Err(EncodeError::NotSerializable { class });
                    }
                    let key = self.stash_put(payload);
                    let mut args = Vec::with_capacity(8);
                    codec::put_u64(&mut args, key);
                    (HandlerId::INVALID, codec::FLAG_STASH, args)
                }
            },
        };
        codec::put_msg_header(
            out,
            &codec::MsgHeader {
                class,
                flags,
                handler,
                causal,
                modeled_bytes: bytes as u32,
                args_len: args.len() as u32,
            },
        );
        out.extend_from_slice(&args);
        Ok(())
    }

    /// Serialize a whole envelope (batch or single) into one length-prefixed
    /// frame.
    fn encode_frame(&self, env: Envelope) -> Result<Vec<u8>, EncodeError> {
        let mut out = Vec::with_capacity(4 + codec::FRAME_HEADER_BYTES + 64);
        out.extend_from_slice(&[0u8; 4]); // length prefix, patched below
        let (from, to) = (env.from.0, env.to.0);
        match env.unbatch_boxed() {
            Ok(mut batch) => {
                codec::put_frame_header(
                    &mut out,
                    &codec::FrameHeader {
                        flags: codec::FRAME_FLAG_BATCH,
                        from,
                        to,
                        count: batch.envs.len() as u32,
                    },
                );
                // A value carried inline is boxed back into its payload:
                // the self-loop stashes it like any typed payload, and a
                // real peer gets the typed error, with the rest of the
                // batch dropped.
                for e in batch.drain_boxed() {
                    self.encode_one(e, &mut out)?;
                }
            }
            Err(env) => {
                codec::put_frame_header(
                    &mut out,
                    &codec::FrameHeader {
                        flags: 0,
                        from,
                        to,
                        count: 1,
                    },
                );
                self.encode_one(env, &mut out)?;
            }
        }
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        Ok(out)
    }

    // -- decoding ---------------------------------------------------------

    /// Decode one logical message back into an envelope.
    fn decode_one(
        &self,
        cur: &mut codec::Cursor<'_>,
        from: PlaceId,
        to: PlaceId,
    ) -> Result<Envelope, DecodeError> {
        let h = codec::read_msg_header(cur)?;
        let args = cur.take(h.args_len as usize)?;
        let payload: Payload = if h.flags & codec::FLAG_STASH != 0 {
            let mut acur = codec::Cursor::new(args);
            let key = acur.u64()?;
            let stashed = self.stash_take(key).ok_or(DecodeError::BadTag {
                what: "stash key",
                tag: 0,
            })?;
            if h.handler == HandlerId::INVALID {
                stashed // whole payload was stashed
            } else {
                let rest = acur.take(acur.remaining())?;
                Box::new(WireMsg::with_inline(h.handler, rest.to_vec(), stashed))
            }
        } else if h.handler == codec::H_MARKER {
            let mut acur = codec::Cursor::new(args);
            let marker = match acur.u8()? {
                0 => FaultMarker::Duplicate,
                1 => FaultMarker::Truncated,
                t => {
                    return Err(DecodeError::BadTag {
                        what: "fault marker",
                        tag: t,
                    })
                }
            };
            Box::new(marker)
        } else {
            Box::new(WireMsg::new(h.handler, args.to_vec()))
        };
        Ok(Envelope {
            from,
            to,
            class: h.class,
            bytes: h.modeled_bytes as usize,
            causal: h.causal,
            payload,
        })
    }

    /// Decode a frame body (everything after the length prefix) and deliver
    /// its envelope(s) into the inner transport.
    fn deliver_frame(&self, buf: &[u8]) -> Result<(), DecodeError> {
        let mut cur = codec::Cursor::new(buf);
        let fh = codec::read_frame_header(&mut cur)?;
        let (from, to) = (PlaceId(fh.from), PlaceId(fh.to));
        if fh.flags & codec::FRAME_FLAG_BATCH != 0 {
            let mut envs = Vec::with_capacity(fh.count as usize);
            for _ in 0..fh.count {
                envs.push(self.decode_one(&mut cur, from, to)?);
            }
            cur.finish()?;
            // Sends to a dead place black-hole, exactly like LocalTransport.
            let _ = self.inner.send(Envelope::batch(from, to, envs));
        } else {
            for _ in 0..fh.count {
                let env = self.decode_one(&mut cur, from, to)?;
                let _ = self.inner.send(env);
            }
            cur.finish()?;
        }
        Ok(())
    }

    /// Reader loop for one peer connection: length-prefixed frames until EOF.
    fn reader_loop(&self, mut stream: TcpStream) {
        let mut len_buf = [0u8; 4];
        let mut frame = Vec::new();
        loop {
            if let Err(e) = stream.read_exact(&mut len_buf) {
                if !self.closing.load(Ordering::Acquire)
                    && e.kind() != std::io::ErrorKind::UnexpectedEof
                {
                    eprintln!("[x10rt::tcp] connection read failed: {e}");
                }
                return;
            }
            let len = u32::from_le_bytes(len_buf) as usize;
            if !(codec::FRAME_HEADER_BYTES..=MAX_FRAME_BYTES).contains(&len) {
                eprintln!("[x10rt::tcp] dropping connection: insane frame length {len}");
                return;
            }
            frame.clear();
            frame.resize(len, 0);
            if stream.read_exact(&mut frame).is_err() {
                return;
            }
            if let Err(e) = self.deliver_frame(&frame) {
                // A decode failure mid-stream means framing is lost for
                // good: drop the connection rather than deliver garbage.
                eprintln!("[x10rt::tcp] dropping connection: {e}");
                return;
            }
        }
    }

    /// Writer loop for one peer connection: drain the frame queue into the
    /// socket until the queue closes.
    fn writer_loop(&self, q: &OutQueue, mut stream: TcpStream) {
        while let Some(frame) = q.pop() {
            if let Err(e) = stream.write_all(&frame) {
                if !self.closing.load(Ordering::Acquire) {
                    eprintln!("[x10rt::tcp] connection write failed: {e}");
                }
                return;
            }
        }
        let _ = stream.flush();
    }
}

/// The TCP socket transport (see the [module docs](self)).
pub struct TcpTransport {
    core: Arc<Core>,
    /// Listener + connection threads, joined on drop.
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Connected streams (one per peer), shut down on drop to unblock the
    /// reader threads.
    streams: Mutex<Vec<TcpStream>>,
    /// The local listener's bound address (useful when bound to port 0).
    local_addr: std::net::SocketAddr,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.core.me)
            .field("self_loop", &self.core.self_loop)
            .field("places", &self.core.inner.num_places())
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl TcpTransport {
    /// All `places` in this one process, connected to itself through a real
    /// loopback socket: every send is framed, written to the kernel and read
    /// back. See the module docs for why this exists.
    pub fn self_loop(places: usize) -> Result<Arc<TcpTransport>, TcpError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let cfg = TcpConfig::new(
            vec![ProcSpec {
                addr: listener.local_addr()?.to_string(),
                place_start: 0,
                place_count: places as u32,
            }],
            0,
        );
        Self::connect_with_listener(cfg, listener)
    }

    /// Establish the transport for process `cfg.me`, binding a fresh
    /// listener on `cfg.procs[me].addr`. Blocks until every peer connection
    /// is up and handshaken.
    pub fn connect(cfg: TcpConfig) -> Result<Arc<TcpTransport>, TcpError> {
        let listener = TcpListener::bind(cfg.procs[cfg.me].addr.as_str())?;
        Self::connect_with_listener(cfg, listener)
    }

    /// [`TcpTransport::connect`] over a listener the caller already bound —
    /// the launcher pattern: bind port 0 first, advertise the real port,
    /// then connect.
    pub fn connect_with_listener(
        cfg: TcpConfig,
        listener: TcpListener,
    ) -> Result<Arc<TcpTransport>, TcpError> {
        let nprocs = cfg.procs.len();
        assert!(cfg.me < nprocs, "me out of range");
        let total = cfg.total_places();
        assert!(total > 0, "no places");
        let mut place_proc = vec![usize::MAX; total];
        let mut next = 0u32;
        for (i, p) in cfg.procs.iter().enumerate() {
            assert_eq!(
                p.place_start, next,
                "place ranges must be contiguous and in process order"
            );
            for pl in p.place_start..p.place_start + p.place_count {
                place_proc[pl as usize] = i;
            }
            next += p.place_count;
        }
        let local_addr = listener.local_addr()?;
        let self_loop = nprocs == 1;
        let core = Arc::new(Core {
            inner: LocalTransport::new(total),
            place_proc,
            me: cfg.me,
            self_loop,
            out: (0..nprocs).map(|_| None).collect(),
            stash: Mutex::new(IntMap::default()),
            stash_next: AtomicU64::new(1),
            closing: AtomicBool::new(false),
        });
        let mut conns: Vec<Option<(TcpStream, Handshake)>> = (0..nprocs).map(|_| None).collect();

        if self_loop {
            // Dial ourselves: both ends of the connection are ours, so the
            // handshake is performed synchronously on this thread.
            let client = TcpStream::connect(local_addr)?;
            let (server, _) = listener.accept()?;
            let hs = Handshake {
                version: cfg.version,
                proc_id: 0,
                place_start: 0,
                place_count: total as u32,
                total_places: total as u32,
            };
            let mut c = client;
            c.write_all(&codec::encode_handshake(&hs))?;
            let mut s = server;
            let mut buf = [0u8; codec::HANDSHAKE_BYTES];
            s.read_exact(&mut buf)?;
            codec::decode_handshake(&buf).map_err(TcpError::BadHandshake)?;
            s.write_all(&codec::encode_handshake(&hs))?;
            c.read_exact(&mut buf)?;
            codec::decode_handshake(&buf).map_err(TcpError::BadHandshake)?;
            // Writer end = the client stream; reader end = the server stream.
            conns[0] = Some((c, hs));
            let reader_stream = s;
            return Self::finish_setup(cfg, core, conns, Some(reader_stream), local_addr);
        }

        // Accept from every lower-numbered process.
        for _ in 0..cfg.me {
            let (mut stream, _) = listener.accept()?;
            let mut buf = [0u8; codec::HANDSHAKE_BYTES];
            stream.read_exact(&mut buf)?;
            let hs = match codec::decode_handshake(&buf) {
                Ok(hs) => hs,
                Err(e) => return Err(TcpError::BadHandshake(e)),
            };
            if hs.version != cfg.version {
                let _ = stream.write_all(&codec::encode_handshake_reject(cfg.version, hs.version));
                return Err(TcpError::VersionMismatch {
                    ours: cfg.version,
                    theirs: hs.version,
                });
            }
            validate_peer(&cfg, &hs, total as u32)?;
            let reply = Handshake {
                version: cfg.version,
                proc_id: cfg.me as u32,
                place_start: cfg.procs[cfg.me].place_start,
                place_count: cfg.procs[cfg.me].place_count,
                total_places: total as u32,
            };
            stream.write_all(&codec::encode_handshake(&reply))?;
            conns[hs.proc_id as usize] = Some((stream, hs));
        }

        // Dial every higher-numbered process (with startup-race retries).
        #[allow(clippy::needless_range_loop)] // `j` also indexes cfg.procs
        for j in cfg.me + 1..nprocs {
            let deadline = Instant::now() + cfg.connect_timeout;
            let stream = loop {
                match TcpStream::connect(cfg.procs[j].addr.as_str()) {
                    Ok(s) => break s,
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(TcpError::Io(e));
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            };
            let mut stream = stream;
            let hs = Handshake {
                version: cfg.version,
                proc_id: cfg.me as u32,
                place_start: cfg.procs[cfg.me].place_start,
                place_count: cfg.procs[cfg.me].place_count,
                total_places: total as u32,
            };
            stream.write_all(&codec::encode_handshake(&hs))?;
            let mut buf = [0u8; codec::HANDSHAKE_BYTES];
            stream.read_exact(&mut buf)?;
            let peer = match codec::decode_handshake(&buf) {
                Ok(p) => p,
                Err(DecodeError::VersionMismatch { ours: _, theirs }) => {
                    return Err(TcpError::VersionMismatch {
                        ours: cfg.version,
                        theirs,
                    })
                }
                Err(e) => return Err(TcpError::BadHandshake(e)),
            };
            if peer.version != cfg.version {
                return Err(TcpError::VersionMismatch {
                    ours: cfg.version,
                    theirs: peer.version,
                });
            }
            validate_peer(&cfg, &peer, total as u32)?;
            conns[j] = Some((stream, peer));
        }

        Self::finish_setup(cfg, core, conns, None, local_addr)
    }

    /// Spawn the per-connection writer and reader threads.
    fn finish_setup(
        _cfg: TcpConfig,
        core: Arc<Core>,
        conns: Vec<Option<(TcpStream, Handshake)>>,
        self_loop_reader: Option<TcpStream>,
        local_addr: std::net::SocketAddr,
    ) -> Result<Arc<TcpTransport>, TcpError> {
        let mut core_mut = core;
        let mut threads = Vec::new();
        let mut streams = Vec::new();
        {
            let core_ref = Arc::get_mut(&mut core_mut).expect("core not yet shared");
            for (j, conn) in conns.iter().enumerate() {
                if conn.is_some() {
                    core_ref.out[j] = Some(OutQueue::new());
                }
            }
        }
        let core = core_mut;
        for (j, conn) in conns.into_iter().enumerate() {
            let Some((stream, _)) = conn else { continue };
            let q = core.out[j].as_ref().expect("queue built above").clone();
            let wstream = stream.try_clone()?;
            streams.push(stream.try_clone()?);
            let wc = core.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tcp-writer-{j}"))
                    .spawn(move || wc.writer_loop(&q, wstream))
                    .expect("spawn tcp writer"),
            );
            // In self-loop mode the reader end is a *different* stream (the
            // accepted side of the self connection).
            let rstream = match &self_loop_reader {
                Some(r) if core.self_loop => r.try_clone()?,
                _ => stream,
            };
            streams.push(rstream.try_clone()?);
            let rc = core.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tcp-reader-{j}"))
                    .spawn(move || rc.reader_loop(rstream))
                    .expect("spawn tcp reader"),
            );
        }
        Ok(Arc::new(TcpTransport {
            core,
            threads: Mutex::new(threads),
            streams: Mutex::new(streams),
            local_addr,
        }))
    }

    /// The local listener's bound address (the real port when bound to 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Is this a single-process self-loop transport?
    pub fn is_self_loop(&self) -> bool {
        self.core.self_loop
    }

    /// Route `env` to the socket path, panicking on a non-serializable
    /// cross-process payload (a configuration error: cross-process runs
    /// require `CodecMode::Bytes` and command-based spawns).
    fn send_socket(&self, proc: usize, env: Envelope) {
        let class = env.class;
        match self.core.encode_frame(env) {
            Ok(frame) => {
                if let Some(q) = &self.core.out[proc] {
                    q.push(frame);
                }
            }
            Err(e) => panic!(
                "TcpTransport cannot ship a `{}` envelope to process {proc}: {e}",
                class.label()
            ),
        }
    }
}

/// Validate a peer's handshake against the launch configuration.
fn validate_peer(cfg: &TcpConfig, hs: &Handshake, total: u32) -> Result<(), TcpError> {
    if hs.total_places != total {
        return Err(TcpError::PeerMismatch(format!(
            "peer proc {} declares {} total places, we have {total}",
            hs.proc_id, hs.total_places
        )));
    }
    let Some(spec) = cfg.procs.get(hs.proc_id as usize) else {
        return Err(TcpError::PeerMismatch(format!(
            "peer declares proc id {} but the launch has {} procs",
            hs.proc_id,
            cfg.procs.len()
        )));
    };
    if spec.place_start != hs.place_start || spec.place_count != hs.place_count {
        return Err(TcpError::PeerMismatch(format!(
            "peer proc {} declares places {}..{} but the launch assigns {}..{}",
            hs.proc_id,
            hs.place_start,
            hs.place_start + hs.place_count,
            spec.place_start,
            spec.place_start + spec.place_count
        )));
    }
    Ok(())
}

impl Transport for TcpTransport {
    fn send(&self, env: Envelope) -> Result<(), SendError> {
        let to = env.to;
        if self.core.inner.is_dead(to) {
            return Err(SendError::dead(to, 1));
        }
        let proc = self.core.place_proc[to.index()];
        if proc == self.core.me && !self.core.self_loop {
            return self.core.inner.send(env);
        }
        self.send_socket(proc, env);
        Ok(())
    }

    fn try_recv(&self, place: PlaceId) -> Option<Envelope> {
        self.core.inner.try_recv(place)
    }

    fn try_recv_batch(&self, place: PlaceId, max: usize, out: &mut Vec<Envelope>) -> usize {
        self.core.inner.try_recv_batch(place, max, out)
    }

    fn register_waker(&self, place: PlaceId, waker: Waker) {
        self.core.inner.register_waker(place, waker)
    }

    fn stats(&self) -> &NetStats {
        self.core.inner.stats()
    }

    fn num_places(&self) -> usize {
        self.core.inner.num_places()
    }

    fn queue_len(&self, place: PlaceId) -> usize {
        self.core.inner.queue_len(place)
    }

    fn lane_footprint(&self, from: PlaceId) -> (usize, usize) {
        self.core.inner.lane_footprint(from)
    }

    fn wire_obs(&self, metrics: &MetricsRegistry) {
        self.core.inner.wire_obs(metrics)
    }

    fn kill_place(&self, place: PlaceId) {
        // Local effect only: the victim's mailbox black-holes in this
        // process. (The chaos tier's kill cells run self-loop mode, where
        // every place is local, so the fault model is complete there;
        // cross-process failure propagation is future work.)
        self.core.inner.kill_place(place)
    }

    fn is_dead(&self, place: PlaceId) -> bool {
        self.core.inner.is_dead(place)
    }

    fn dead_places(&self) -> Vec<PlaceId> {
        self.core.inner.dead_places()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.core.closing.store(true, Ordering::Release);
        for q in self.core.out.iter().flatten() {
            q.close();
        }
        for s in self.streams.lock().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgClass, HEADER_BYTES};

    fn wire_env(from: u32, to: u32, handler: u32, args: Vec<u8>) -> Envelope {
        Envelope::new(
            PlaceId(from),
            PlaceId(to),
            MsgClass::Task,
            args.len(),
            Box::new(WireMsg::new(HandlerId(handler), args)),
        )
    }

    fn recv_blocking(t: &TcpTransport, place: PlaceId) -> Envelope {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(e) = t.try_recv(place) {
                return e;
            }
            assert!(Instant::now() < deadline, "no delivery within 10s");
            std::thread::yield_now();
        }
    }

    #[test]
    fn self_loop_round_trips_wire_messages() {
        let t = TcpTransport::self_loop(4).expect("self loop");
        assert!(t.is_self_loop());
        t.send(wire_env(0, 2, 2000, vec![1, 2, 3])).unwrap();
        let got = recv_blocking(&t, PlaceId(2));
        assert_eq!(got.from, PlaceId(0));
        assert_eq!(got.class, MsgClass::Task);
        assert_eq!(got.bytes, 3 + HEADER_BYTES);
        let w = got.payload.downcast::<WireMsg>().unwrap();
        assert_eq!(w.handler, HandlerId(2000));
        assert_eq!(w.args, vec![1, 2, 3]);
        assert!(w.inline.is_none());
    }

    #[test]
    fn self_loop_preserves_causal_and_fifo() {
        let t = TcpTransport::self_loop(2).expect("self loop");
        for i in 0..100u64 {
            let env = Envelope::new(
                PlaceId(0),
                PlaceId(1),
                MsgClass::FinishCtl,
                8,
                Box::new(WireMsg::new(HandlerId(2), i.to_le_bytes().to_vec())),
            )
            .with_causal(crate::message::CausalId { root: 7, seq: i });
            t.send(env).unwrap();
        }
        for i in 0..100u64 {
            let got = recv_blocking(&t, PlaceId(1));
            assert_eq!(
                got.causal,
                Some(crate::message::CausalId { root: 7, seq: i })
            );
            let w = got.payload.downcast::<WireMsg>().unwrap();
            assert_eq!(w.args, i.to_le_bytes().to_vec());
        }
    }

    #[test]
    fn self_loop_stashes_inline_payloads() {
        let t = TcpTransport::self_loop(2).expect("self loop");
        let env = Envelope::new(
            PlaceId(0),
            PlaceId(1),
            MsgClass::Task,
            16,
            Box::new(WireMsg::with_inline(
                HandlerId(1),
                vec![9],
                Box::new(String::from("closure stand-in")),
            )),
        );
        t.send(env).unwrap();
        let got = recv_blocking(&t, PlaceId(1));
        let w = got.payload.downcast::<WireMsg>().unwrap();
        assert_eq!(w.args, vec![9]);
        let inline = w.inline.expect("stash restored");
        assert_eq!(
            *inline.downcast::<String>().unwrap(),
            "closure stand-in".to_string()
        );
    }

    #[test]
    fn self_loop_carries_batches_as_one_frame() {
        let t = TcpTransport::self_loop(2).expect("self loop");
        let inner: Vec<Envelope> = (0..5u8)
            .map(|i| wire_env(0, 1, 2000 + i as u32, vec![i]))
            .collect();
        let batch = Envelope::batch(PlaceId(0), PlaceId(1), inner);
        let batch_bytes = batch.bytes;
        t.send(batch).unwrap();
        let got = recv_blocking(&t, PlaceId(1));
        assert_eq!(got.class, MsgClass::Batch);
        assert_eq!(got.bytes, batch_bytes, "modeled batch size survives");
        let envs = got.unbatch().expect("still a batch");
        assert_eq!(envs.len(), 5);
        for (i, e) in envs.into_iter().enumerate() {
            let w = e.payload.downcast::<WireMsg>().unwrap();
            assert_eq!(w.handler, HandlerId(2000 + i as u32));
        }
    }

    #[test]
    fn two_process_loopback_delivery() {
        // Two real TcpTransports in one test process — distinct "processes"
        // as far as the transport is concerned (separate stashes, separate
        // inner transports), crossing real sockets.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let procs = vec![
            ProcSpec {
                addr: l0.local_addr().unwrap().to_string(),
                place_start: 0,
                place_count: 2,
            },
            ProcSpec {
                addr: l1.local_addr().unwrap().to_string(),
                place_start: 2,
                place_count: 2,
            },
        ];
        let cfg0 = TcpConfig::new(procs.clone(), 0);
        let cfg1 = TcpConfig::new(procs, 1);
        let h1 = std::thread::spawn(move || TcpTransport::connect_with_listener(cfg1, l1));
        let t0 = TcpTransport::connect_with_listener(cfg0, l0).expect("proc 0 up");
        let t1 = h1.join().unwrap().expect("proc 1 up");

        // 0 → 2 crosses the socket; delivery appears at proc 1's inner
        // transport.
        t0.send(wire_env(0, 2, 4242, vec![7, 7])).unwrap();
        let got = recv_blocking(&t1, PlaceId(2));
        let w = got.payload.downcast::<WireMsg>().unwrap();
        assert_eq!(w.handler, HandlerId(4242));

        // 2 → 1 crosses back.
        t1.send(wire_env(2, 1, 77, vec![])).unwrap();
        let got = recv_blocking(&t0, PlaceId(1));
        assert_eq!(got.from, PlaceId(2));

        // 0 → 1 stays local to proc 0.
        t0.send(wire_env(0, 1, 5, vec![])).unwrap();
        let got = recv_blocking(&t0, PlaceId(1));
        assert_eq!(got.from, PlaceId(0));
    }

    #[test]
    fn version_mismatch_rejected_with_typed_error() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let procs = vec![
            ProcSpec {
                addr: l0.local_addr().unwrap().to_string(),
                place_start: 0,
                place_count: 1,
            },
            ProcSpec {
                addr: l1.local_addr().unwrap().to_string(),
                place_start: 1,
                place_count: 1,
            },
        ];
        // Proc 0 dials with a bogus version; proc 1 (the accepter, speaking
        // PROTO_VERSION) must reject, and *both* sides surface typed errors.
        let cfg0 = TcpConfig::new(procs.clone(), 0).version(99);
        let cfg1 = TcpConfig::new(procs, 1);
        let h1 = std::thread::spawn(move || TcpTransport::connect_with_listener(cfg1, l1));
        let r0 = TcpTransport::connect_with_listener(cfg0, l0);
        let r1 = h1.join().unwrap();
        match r0 {
            Err(TcpError::VersionMismatch { ours: 99, theirs }) => {
                assert_eq!(theirs, codec::PROTO_VERSION)
            }
            other => panic!("dialer: expected VersionMismatch, got {other:?}"),
        }
        match r1 {
            Err(TcpError::VersionMismatch { ours, theirs: 99 }) => {
                assert_eq!(ours, codec::PROTO_VERSION)
            }
            other => panic!("accepter: expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn cross_process_closure_payload_is_typed_encode_error() {
        // Direct encode check: a non-WireMsg payload addressed across a
        // process boundary must fail with NotSerializable, not panic deep in
        // a socket thread.
        let core = Core {
            inner: LocalTransport::new(2),
            place_proc: vec![0, 1],
            me: 0,
            self_loop: false,
            out: vec![None, None],
            stash: Mutex::new(IntMap::default()),
            stash_next: AtomicU64::new(1),
            closing: AtomicBool::new(false),
        };
        let env = Envelope::new(
            PlaceId(0),
            PlaceId(1),
            MsgClass::Task,
            8,
            Box::new(42u64), // an opaque in-process payload
        );
        match core.encode_frame(env) {
            Err(EncodeError::NotSerializable {
                class: MsgClass::Task,
            }) => {}
            other => panic!("expected NotSerializable, got {other:?}"),
        }
        // Same for a WireMsg that still carries an inline part.
        let env = Envelope::new(
            PlaceId(0),
            PlaceId(1),
            MsgClass::Task,
            8,
            Box::new(WireMsg::with_inline(HandlerId(1), vec![], Box::new(42u64))),
        );
        assert!(matches!(
            core.encode_frame(env),
            Err(EncodeError::NotSerializable { .. })
        ));
    }

    #[test]
    fn inline_batch_to_another_process_is_a_typed_encode_error() {
        // Cells that ride inline in a batch (CodecMode::Inline) cannot
        // cross a process boundary: the frame fails with the typed error,
        // and every value in the batch is dropped exactly once.
        use crate::message::tests::{count, drops, mixed_batch};
        let core = Core {
            inner: LocalTransport::new(2),
            place_proc: vec![0, 1],
            me: 0,
            self_loop: false,
            out: vec![None, None],
            stash: Mutex::new(IntMap::default()),
            stash_next: AtomicU64::new(1),
            closing: AtomicBool::new(false),
        };
        let n = drops();
        assert_eq!(
            core.encode_frame(mixed_batch(3, &n)),
            Err(EncodeError::NotSerializable {
                class: MsgClass::Task,
            })
        );
        assert_eq!(count(&n), 3);
        assert!(core.stash.lock().is_empty());
    }

    #[test]
    fn self_loop_carries_inline_batch_values_boxed() {
        use crate::message::tests::{count, drops, mixed_batch, Tally};
        let t = TcpTransport::self_loop(2).expect("self loop");
        let n = drops();
        t.send(mixed_batch(2, &n)).unwrap();
        let got = recv_blocking(&t, PlaceId(1))
            .unbatch()
            .expect("still a batch");
        let tags: Vec<u64> = got
            .into_iter()
            .map(|e| match e.payload.downcast::<Tally>() {
                Ok(v) => v.1,
                Err(p) => *p.downcast::<u64>().unwrap(),
            })
            .collect();
        assert_eq!(tags, vec![0, 100, 1, 101]);
        assert_eq!(count(&n), 2);
    }

    #[test]
    fn kill_place_black_holes_in_self_loop() {
        let t = TcpTransport::self_loop(3).expect("self loop");
        t.kill_place(PlaceId(2));
        assert!(t.is_dead(PlaceId(2)));
        let err = t.send(wire_env(0, 2, 9, vec![])).unwrap_err();
        assert_eq!(err.dropped, 1);
        assert_eq!(t.dead_places(), vec![PlaceId(2)]);
    }

    /// Dropping a transport closes its writer queues and joins the writer
    /// threads, so a writer that misses the close's wake hangs the drop
    /// forever. The cycles run on a helper thread: a hang fails the test
    /// (no cycle finished for 5 s) instead of wedging the suite.
    #[test]
    fn create_drop_cycles_never_hang() {
        const CYCLES: u64 = 2_000;
        let done = Arc::new(AtomicU64::new(0));
        let d2 = done.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..CYCLES {
                drop(TcpTransport::self_loop(3).expect("self loop"));
                d2.fetch_add(1, Ordering::Relaxed);
            }
        });
        let (mut seen, mut last) = (0, Instant::now());
        while !h.is_finished() {
            std::thread::sleep(Duration::from_millis(20));
            let now = done.load(Ordering::Relaxed);
            if now != seen {
                (seen, last) = (now, Instant::now());
            }
            assert!(
                last.elapsed() < Duration::from_secs(5),
                "a drop hung after {seen} of {CYCLES} create/drop cycles"
            );
        }
        h.join().unwrap();
    }
}
