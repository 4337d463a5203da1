//! TCP socket back-end: places in separate OS processes.
//!
//! The paper's X10RT ships a sockets back-end alongside PAMI and MPI; this
//! module is that back-end for this reproduction. Each *process* hosts a
//! contiguous range of places and holds one TCP connection per peer process.
//! Envelopes whose destination lives in another process travel as
//! length-prefixed frames ([`Frame`], the [`crate::codec`] wire format), one
//! frame per envelope, written by a per-peer writer thread. A frame a
//! byte-codec coalescer built is shipped as it is: its body after a length
//! prefix, with no re-encoding. Any other envelope is encoded into a frame
//! first (a boxed coalescer batch into one frame carrying all its messages —
//! the batch stays the wire unit, exactly as it is in-process). A per-peer
//! reader thread reads each frame into a buffer of its own, validates all
//! of it ([`Frame::parse`]) and delivers it into an inner
//! [`LocalTransport`], which provides the mailbox queues, wakers,
//! statistics and kill support: a batch frame whole, as one
//! `MsgClass::Batch` envelope that owns the frame body and its side list
//! (the receiver reads the messages out of the bytes, with no copy or box
//! per message), a lone frame as the envelope it was sent as.
//! Intra-process traffic bypasses the sockets and goes straight to the
//! inner transport — the local fast path survives.
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
//! (closure bodies, opaque team data) cannot go into the bytes: a frame
//! carries its parts, in message order, on one *side list*, and marks
//! their messages [`codec::FLAG_STASH`] (no key bytes).
//! The list is queued in the critical section that queues its frame, so
//! the side lists' FIFO matches the byte order of the one self connection;
//! the reader pops one list per frame that holds `FLAG_STASH` messages and
//! the frame hands its parts out in message order. That is legal only
//! because sender and receiver share an address space — a cross-process
//! send of such a payload fails with a typed
//! [`codec::EncodeError::NotSerializable`].
//!
//! # Accounting
//!
//! Statistics are recorded at *delivery* (the inner transport's `send`), so
//! a process's ledgers describe the traffic its places actually saw. In
//! self-loop mode that means every message is counted exactly once, same as
//! `LocalTransport`; in multi-process mode each process counts the traffic
//! that entered it.

use crate::codec::{self, DecodeError, EncodeError, Handshake, WireMsg};
use crate::fault::FaultMarker;
use crate::frame::Frame;
use crate::message::{Envelope, InlineSlot, Payload};
use crate::place::PlaceId;
use crate::stats::NetStats;
use crate::transport::{LocalTransport, SendError, Transport, Waker};
use obs::metrics::MetricsRegistry;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard upper bound on an incoming frame's declared length — a corrupt or
/// adversarial length prefix fails decoding instead of attempting a
/// multi-gigabyte allocation (PROTOCOL.md §3).
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// How long dropping a [`TcpTransport`] waits for its writer threads to
/// write out their queues before it shuts the sockets down under them.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

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
    pending: Mutex<Pending>,
    ready: Condvar,
    closed: AtomicBool,
}

/// What an [`OutQueue`]'s lock guards.
#[derive(Default)]
struct Pending {
    frames: VecDeque<Vec<u8>>,
    /// The side lists of the frames that carry `FLAG_STASH` messages, in
    /// frame order, until the reader takes them (self connection only).
    sides: VecDeque<Vec<InlineSlot>>,
    /// The writer is waiting for a frame: set by `pop` around its wait, so
    /// `push` notifies only then.
    waiting: bool,
}

impl OutQueue {
    fn new() -> Arc<Self> {
        Arc::new(OutQueue {
            pending: Mutex::new(Pending::default()),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
        })
    }

    /// Queue `frame`, and its side list when it has one: both under one
    /// lock, so the list is queued before the writer can send the frame.
    fn push(&self, frame: Vec<u8>, side: Vec<InlineSlot>) {
        let mut p = self.pending.lock();
        p.frames.push_back(frame);
        if !side.is_empty() {
            p.sides.push_back(side);
        }
        if p.waiting {
            self.ready.notify_one();
        }
    }

    /// Block until a frame is queued or the queue closes, then move every
    /// queued frame into `out` (empty on entry) in one step. False once the
    /// queue is closed and empty.
    fn pop_all(&self, out: &mut VecDeque<Vec<u8>>) -> bool {
        let mut p = self.pending.lock();
        loop {
            if !p.frames.is_empty() {
                std::mem::swap(&mut p.frames, out);
                return true;
            }
            if self.closed.load(Ordering::Acquire) {
                return false;
            }
            p.waiting = true;
            self.ready.wait(&mut p);
            p.waiting = false;
        }
    }

    /// Wake the writer for good. The flag is stored under the `pending`
    /// lock: a writer between its `closed` check and its `wait` holds that
    /// lock, so the notify cannot fall into that gap and be lost (a lost
    /// one left `Drop` joining a writer that never woke).
    fn close(&self) {
        let _p = self.pending.lock();
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
    /// Set during teardown so connection threads exit quietly.
    closing: AtomicBool,
}

/// The argument bytes a payload puts on the wire, and whether it leaves a
/// part on its frame's side list: [`Frame::push_env`]'s sizing twin. A
/// value riding in a batch's inline slot sizes as a whole-payload part,
/// which it is: only the inline codec fills slots, never with a `WireMsg`.
fn wire_shape(payload: &Payload) -> (usize, bool) {
    match payload.downcast_ref::<WireMsg>() {
        Some(w) => (w.args.len(), w.inline.is_some()),
        None if payload.is::<FaultMarker>() => (1, false),
        None => (0, true),
    }
}

impl Core {
    // -- encoding ---------------------------------------------------------

    /// Encode an envelope (a boxed batch or a single message) into one
    /// frame. The frame is sized before anything is copied: an oversized
    /// one fails here, at the sender, instead of making the peer drop the
    /// connection.
    fn encode_frame(&self, env: Envelope) -> Result<Frame, EncodeError> {
        let (from, to) = (env.from, env.to);
        let (mut batch, single) = match env.unbatch_boxed() {
            Ok(batch) => (Some(batch), None),
            Err(env) => (None, Some(env)),
        };
        let envs = batch.as_ref().map_or(single.as_slice(), |b| &b.envs);
        let (mut len, mut parts) = (codec::FRAME_HEADER_BYTES, 0);
        for e in envs {
            let (args, stashed) = wire_shape(&e.payload);
            len += codec::MSG_HEADER_BYTES + args;
            parts += stashed as usize;
        }
        if len > MAX_FRAME_BYTES {
            return Err(EncodeError::FrameTooLarge { len });
        }
        let mut frame = Frame::new(from, to, (len, parts));
        let singles = single.into_iter().map(|e| (e, None));
        for (e, val) in batch.iter_mut().flat_map(|b| b.drain()).chain(singles) {
            frame.push_env(e, val);
        }
        if batch.is_some() {
            frame.mark_batch();
        }
        self.check_frame(&frame).map(|()| frame)
    }

    /// Can this connection carry `frame`? A frame with parts on its side
    /// list goes only over the self connection (a real peer gets the typed
    /// error, and the caller drops the frame with every part), and no frame
    /// may exceed [`MAX_FRAME_BYTES`].
    fn check_frame(&self, frame: &Frame) -> Result<(), EncodeError> {
        if !self.self_loop {
            if let Some(class) = frame.stashed_class() {
                return Err(EncodeError::NotSerializable { class });
            }
        }
        match frame.sizes().0 {
            len if len > MAX_FRAME_BYTES => Err(EncodeError::FrameTooLarge { len }),
            _ => Ok(()),
        }
    }

    // -- decoding ---------------------------------------------------------

    /// Validate a frame body (everything after the length prefix) and
    /// deliver it into the inner transport: a batch frame as one envelope
    /// that owns the body, a lone frame's message as an envelope of its own.
    fn deliver_frame(&self, body: Vec<u8>) -> Result<(), DecodeError> {
        // Only the self connection has side lists: `out[me]` exists only in
        // self-loop mode.
        let queue = self.out[self.me].as_deref();
        let mut frame = Frame::parse(body, || queue?.pending.lock().sides.pop_front())?;
        let (from, to) = (PlaceId(frame.header().from), PlaceId(frame.header().to));
        // Sends to a dead place black-hole, exactly like LocalTransport.
        if frame.header().flags & codec::FRAME_FLAG_BATCH != 0 {
            let _ = self.inner.send(Box::new(frame).into_envelope());
            return Ok(());
        }
        for m in frame.msgs() {
            let (class, bytes, causal) = (m.class, m.bytes, m.causal);
            let payload = m.into_payload();
            let _ = self.inner.send(Envelope {
                from,
                to,
                class,
                bytes,
                causal,
                payload,
            });
        }
        Ok(())
    }

    /// Reader loop for one peer connection: length-prefixed frames until EOF.
    fn reader_loop(&self, mut stream: TcpStream) {
        let mut len_buf = [0u8; 4];
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
            // A buffer per frame: a batch frame's is handed over with it.
            let mut body = vec![0u8; len];
            if stream.read_exact(&mut body).is_err() {
                return;
            }
            if let Err(e) = self.deliver_frame(body) {
                // A decode failure mid-stream means framing is lost for
                // good: drop the connection rather than deliver garbage.
                eprintln!("[x10rt::tcp] dropping connection: {e}");
                return;
            }
        }
    }

    /// Writer loop for one peer connection: take every frame queued at a
    /// wake and write them into the socket, each body after its length
    /// prefix, until the queue closes.
    fn writer_loop(&self, q: &OutQueue, mut stream: TcpStream) {
        let mut frames = VecDeque::new();
        while q.pop_all(&mut frames) {
            if let Err(e) = write_frames(&mut stream, &frames) {
                if !self.closing.load(Ordering::Acquire) {
                    eprintln!("[x10rt::tcp] connection write failed: {e}");
                }
                return;
            }
            frames.clear();
        }
        let _ = stream.flush();
    }
}

/// Frames one vectored write hands the kernel at most.
const FRAMES_PER_WRITE: usize = 32;

/// Write `frames`, each body after its length prefix, with no copy: up to
/// [`FRAMES_PER_WRITE`] frames per `write_vectored` call.
fn write_frames(stream: &mut impl Write, frames: &VecDeque<Vec<u8>>) -> std::io::Result<()> {
    let mut queued = frames.iter();
    loop {
        let mut prefixes = [[0u8; 4]; FRAMES_PER_WRITE];
        let mut bodies: [&[u8]; FRAMES_PER_WRITE] = [&[]; FRAMES_PER_WRITE];
        let mut n = 0;
        for body in queued.by_ref().take(FRAMES_PER_WRITE) {
            prefixes[n] = (body.len() as u32).to_le_bytes();
            bodies[n] = body;
            n += 1;
        }
        if n == 0 {
            return Ok(());
        }
        let mut slices = [IoSlice::new(&[]); 2 * FRAMES_PER_WRITE];
        for i in 0..n {
            slices[2 * i] = IoSlice::new(&prefixes[i]);
            slices[2 * i + 1] = IoSlice::new(bodies[i]);
        }
        let mut rest = &mut slices[..2 * n];
        while !rest.is_empty() {
            match stream.write_vectored(rest) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(written) => IoSlice::advance_slices(&mut rest, written),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The TCP socket transport (see the [module docs](self)).
pub struct TcpTransport {
    core: Arc<Core>,
    /// Writer threads, one per connection: on drop each gets up to
    /// [`DRAIN_TIMEOUT`] to drain its queue into the socket.
    writers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Reader threads, one per connection, unblocked on drop by the socket
    /// shutdown.
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
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
        let mut writers = Vec::new();
        let mut readers = Vec::new();
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
            // A frame is already a whole coalesced batch: Nagle's algorithm
            // would hold it back until the previous one is acknowledged,
            // and a delayed ACK makes that tens of milliseconds.
            stream.set_nodelay(true)?;
            let q = core.out[j].as_ref().expect("queue built above").clone();
            let wstream = stream.try_clone()?;
            streams.push(stream.try_clone()?);
            let wc = core.clone();
            writers.push(
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
            readers.push(
                std::thread::Builder::new()
                    .name(format!("tcp-reader-{j}"))
                    .spawn(move || rc.reader_loop(rstream))
                    .expect("spawn tcp reader"),
            );
        }
        Ok(Arc::new(TcpTransport {
            core,
            writers: Mutex::new(writers),
            readers: Mutex::new(readers),
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
    /// require `CodecMode::Bytes` and command-based spawns) or on a frame
    /// over [`MAX_FRAME_BYTES`], which the peer would drop the connection
    /// for.
    fn send_socket(&self, proc: usize, env: Envelope) {
        let class = env.class;
        let frame = match env.payload.downcast::<Frame>() {
            Ok(frame) => self.core.check_frame(&frame).map(|()| *frame),
            Err(payload) => self.core.encode_frame(Envelope { payload, ..env }),
        };
        match frame {
            Ok(frame) => {
                if let Some(q) = &self.core.out[proc] {
                    let (body, side) = frame.into_parts();
                    q.push(body, side);
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
    /// Close the writer queues and give the writers up to
    /// [`DRAIN_TIMEOUT`] to write out what is still queued (a `H_SHUTDOWN`
    /// frame sent just before the drop, say) and exit; then shut the
    /// sockets down, which unblocks the readers and any writer still stuck
    /// on a peer that stopped reading, and join every thread. Shutting a
    /// socket down under a writer that has not written its queue yet would
    /// lose the frames silently, and a peer waiting for them would wait for
    /// ever; waiting for a writer without a deadline would hang the drop on
    /// a peer that never reads again.
    fn drop(&mut self) {
        self.core.closing.store(true, Ordering::Release);
        for q in self.core.out.iter().flatten() {
            q.close();
        }
        let writers = std::mem::take(&mut *self.writers.lock());
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while writers.iter().any(|h| !h.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        for s in self.streams.lock().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        let readers = std::mem::take(&mut *self.readers.lock());
        for h in writers.into_iter().chain(readers) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::HandlerId;
    use crate::frame::FrameMsg;
    use crate::message::{MsgClass, HEADER_BYTES};
    use std::sync::atomic::AtomicU64;

    fn wire_env(from: u32, to: u32, handler: u32, args: Vec<u8>) -> Envelope {
        Envelope::new(
            PlaceId(from),
            PlaceId(to),
            MsgClass::Task,
            args.len(),
            Box::new(WireMsg::new(HandlerId(handler), args)),
        )
    }

    /// The core of process 0 of a two-process launch (one place each),
    /// with no connections: encoder and decoder checks call it directly.
    fn proc0_of_two() -> Core {
        Core {
            inner: LocalTransport::new(2),
            place_proc: vec![0, 1],
            me: 0,
            self_loop: false,
            out: vec![None, None],
            closing: AtomicBool::new(false),
        }
    }

    /// The batch delivered next at `place`, as the frame it arrived in.
    fn recv_frame(t: &TcpTransport, place: PlaceId) -> Box<Frame> {
        let env = recv_blocking(t, place);
        assert_eq!(env.class, MsgClass::Batch);
        env.payload.downcast::<Frame>().expect("a batch frame")
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
        let mut frame = got.payload.downcast::<Frame>().expect("still a batch");
        assert_eq!(frame.len(), 5);
        let msgs: Vec<_> = frame.msgs().map(|m| (m.handler, m.args.to_vec())).collect();
        assert_eq!(msgs.len(), 5);
        for (i, (handler, args)) in msgs.into_iter().enumerate() {
            assert_eq!((handler, args), (HandlerId(2000 + i as u32), vec![i as u8]));
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

    /// A process that sends and then drops its transport at once (a launch
    /// broadcasting `H_SHUTDOWN` on its way out) must still get every frame
    /// to the peer: the drop lets the writers finish before it shuts the
    /// sockets down.
    #[test]
    fn frames_sent_just_before_a_drop_reach_the_peer() {
        const FRAMES: u32 = 64;
        for round in 0..10 {
            let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
            let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
            let procs: Vec<ProcSpec> = [&l0, &l1]
                .iter()
                .enumerate()
                .map(|(rank, l)| ProcSpec {
                    addr: l.local_addr().unwrap().to_string(),
                    place_start: rank as u32,
                    place_count: 1,
                })
                .collect();
            let cfg1 = TcpConfig::new(procs.clone(), 1);
            let h1 = std::thread::spawn(move || TcpTransport::connect_with_listener(cfg1, l1));
            let t0 = TcpTransport::connect_with_listener(TcpConfig::new(procs, 0), l0).unwrap();
            let t1 = h1.join().unwrap().expect("proc 1 up");
            for i in 0..FRAMES {
                t0.send(wire_env(0, 1, 3000 + i, vec![i as u8; 4096]))
                    .unwrap();
            }
            drop(t0);
            for i in 0..FRAMES {
                let got = recv_blocking(&t1, PlaceId(1));
                let w = got.payload.downcast::<WireMsg>().unwrap();
                assert_eq!(w.handler, HandlerId(3000 + i), "round {round}");
            }
        }
    }

    /// A drop returns even when a peer has stopped reading: the writer
    /// stuck on the full socket gets [`DRAIN_TIMEOUT`], then the socket is
    /// shut down under it.
    #[test]
    fn drop_returns_when_the_peer_never_reads() {
        const FRAMES: usize = 24;
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let procs: Vec<ProcSpec> = [&l0, &l1]
            .iter()
            .enumerate()
            .map(|(rank, l)| ProcSpec {
                addr: l.local_addr().unwrap().to_string(),
                place_start: rank as u32,
                place_count: 1,
            })
            .collect();
        // Rank 1 answers the handshake, then keeps its socket open and
        // never reads from it again.
        let peer = std::thread::spawn(move || {
            let (mut s, _) = l1.accept().unwrap();
            let mut buf = [0u8; codec::HANDSHAKE_BYTES];
            s.read_exact(&mut buf).unwrap();
            let hs = codec::decode_handshake(&buf).unwrap();
            let reply = Handshake {
                version: hs.version,
                proc_id: 1,
                place_start: 1,
                place_count: 1,
                total_places: 2,
            };
            s.write_all(&codec::encode_handshake(&reply)).unwrap();
            s
        });
        let t0 = TcpTransport::connect_with_listener(TcpConfig::new(procs, 0), l0).unwrap();
        let _held_open = peer.join().unwrap();
        // Far more than the two ends' socket buffers take in.
        for _ in 0..FRAMES {
            t0.send(wire_env(0, 1, 3000, vec![7u8; 1 << 20])).unwrap();
        }
        let start = Instant::now();
        drop(t0);
        let took = start.elapsed();
        assert!(
            took >= DRAIN_TIMEOUT && took < DRAIN_TIMEOUT + Duration::from_secs(5),
            "drop took {took:?}"
        );
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
        let core = proc0_of_two();
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
        // Same for a frame a byte-codec coalescer built with a part on its
        // side list: the error names the class of the message that has it.
        let mut frame = Frame::new(PlaceId(0), PlaceId(1), (0, 0));
        frame.push(MsgClass::FinishCtl, None, 40, HandlerId(2), |_| None);
        frame.push(MsgClass::Team, None, 40, HandlerId(3), |_| {
            Some(InlineSlot::from_payload(Box::new(42u64)))
        });
        assert!(matches!(
            core.check_frame(&frame),
            Err(EncodeError::NotSerializable {
                class: MsgClass::Team
            })
        ));
    }

    #[test]
    fn inline_batch_to_another_process_is_a_typed_encode_error() {
        // Cells that ride inline in a batch (CodecMode::Inline) cannot
        // cross a process boundary: the frame fails with the typed error,
        // and every value in the batch is dropped exactly once.
        use crate::message::tests::{count, drops, mixed_batch};
        let core = proc0_of_two();
        let n = drops();
        assert!(matches!(
            core.encode_frame(mixed_batch(3, &n)),
            Err(EncodeError::NotSerializable {
                class: MsgClass::Task,
            })
        ));
        assert_eq!(count(&n), 3);
    }

    #[test]
    fn self_loop_carries_inline_batch_values_boxed() {
        use crate::message::tests::{count, drops, mixed_batch, Tally};
        let t = TcpTransport::self_loop(2).expect("self loop");
        let n = drops();
        t.send(mixed_batch(2, &n)).unwrap();
        let tags: Vec<u64> = recv_frame(&t, PlaceId(1))
            .msgs()
            .map(|m| match m.into_payload().downcast::<Tally>() {
                Ok(v) => v.1,
                Err(p) => *p.downcast::<u64>().unwrap(),
            })
            .collect();
        assert_eq!(tags, vec![0, 100, 1, 101]);
        assert_eq!(count(&n), 2);
    }

    /// Batches that mix stashed and plain messages, and a stashed message
    /// sent alone, arrive in order with their own parts, and every side
    /// list is taken off the FIFO.
    #[test]
    fn self_loop_side_lists_follow_their_frames() {
        let t = TcpTransport::self_loop(2).expect("self loop");
        let part = |tag: u32| -> Payload { Box::new(format!("part {tag}")) };
        // Every third message is plain, every other one carries a part;
        // message 7 is an untyped payload, stashed whole.
        let msg = |i: u32| -> Envelope {
            let payload: Payload = match i {
                7 => part(i),
                _ if i.is_multiple_of(3) => {
                    Box::new(WireMsg::new(HandlerId(2000 + i), vec![i as u8]))
                }
                _ => Box::new(WireMsg::with_inline(
                    HandlerId(2000 + i),
                    vec![i as u8],
                    part(i),
                )),
            };
            Envelope::new(PlaceId(0), PlaceId(1), MsgClass::Task, 8, payload)
        };
        let check = |i: u32, p: Payload| match p.downcast::<WireMsg>() {
            Ok(w) => {
                assert_eq!(
                    (w.handler, w.args.clone()),
                    (HandlerId(2000 + i), vec![i as u8])
                );
                let inline = w.inline.map(|p| *p.downcast::<String>().unwrap());
                assert_eq!(inline, (!i.is_multiple_of(3)).then(|| format!("part {i}")));
            }
            Err(p) => assert_eq!(*p.downcast::<String>().unwrap(), format!("part {i}")),
        };
        for round in 0..20u32 {
            t.send(Envelope::batch(
                PlaceId(0),
                PlaceId(1),
                (0..10).map(msg).collect(),
            ))
            .unwrap();
            t.send(msg(1)).unwrap();
            t.send(Envelope::batch(PlaceId(0), PlaceId(1), vec![msg(3)]))
                .unwrap();
            let mut frame = recv_frame(&t, PlaceId(1));
            let msgs: Vec<Payload> = frame.msgs().map(FrameMsg::into_payload).collect();
            assert_eq!(msgs.len(), 10, "round {round}");
            for (i, p) in msgs.into_iter().enumerate() {
                check(i as u32, p);
            }
            check(1, recv_blocking(&t, PlaceId(1)).payload);
            let mut frame = recv_frame(&t, PlaceId(1));
            check(3, frame.msgs().next().unwrap().into_payload());
        }
        let q = t.core.out[0].as_ref().expect("self queue");
        assert!(q.pending.lock().sides.is_empty(), "side lists left behind");
    }

    /// A batch frame body with one message per entry of `stashed`, flagged
    /// `FLAG_STASH` where the entry is true.
    fn stash_frame(stashed: &[bool]) -> Vec<u8> {
        let mut buf = Vec::new();
        let header = codec::FrameHeader {
            flags: codec::FRAME_FLAG_BATCH,
            from: 0,
            to: 0,
            count: stashed.len() as u32,
        };
        codec::put_frame_header(&mut buf, &header);
        for &s in stashed {
            let header = codec::MsgHeader {
                class: MsgClass::Task,
                flags: if s { codec::FLAG_STASH } else { 0 },
                handler: HandlerId(2000),
                causal: None,
                modeled_bytes: 32,
                args_len: 0,
            };
            codec::put_msg_header(&mut buf, &header);
        }
        buf
    }

    /// A side list that does not match its frame's `FLAG_STASH` messages,
    /// or a flag on a connection without side lists, is a typed decode
    /// error (the reader drops the connection), never a panic.
    #[test]
    fn stash_count_mismatch_is_a_typed_decode_error() {
        let core = Core {
            inner: LocalTransport::new(1),
            place_proc: vec![0],
            me: 0,
            self_loop: true,
            out: vec![Some(OutQueue::new())],
            closing: AtomicBool::new(false),
        };
        let queue = core.out[0].as_deref().unwrap();
        let list = |n: usize| {
            (0..n)
                .map(|i| InlineSlot::from_payload(Box::new(i)))
                .collect()
        };
        queue.push(Vec::new(), list(1));
        assert_eq!(
            core.deliver_frame(stash_frame(&[true, false, true])),
            Err(DecodeError::StashMismatch)
        );
        queue.push(Vec::new(), list(3));
        assert_eq!(
            core.deliver_frame(stash_frame(&[true, true])),
            Err(DecodeError::StashMismatch)
        );
        // The FIFO is empty now: a flagged frame finds no list.
        assert_eq!(
            core.deliver_frame(stash_frame(&[false, true])),
            Err(DecodeError::StashMismatch)
        );
        // A connection to a peer process has no side lists at all.
        assert_eq!(
            proc0_of_two().deliver_frame(stash_frame(&[true])),
            Err(DecodeError::StashMismatch)
        );
        assert_eq!(core.deliver_frame(stash_frame(&[false, false])), Ok(()));
    }

    /// A batch frame whose last message's arguments run past the frame's
    /// end delivers none of its messages, and the reader drops the
    /// connection: a good frame written behind it is never delivered.
    #[test]
    fn truncated_batch_delivers_nothing_and_drops_the_connection() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let procs: Vec<ProcSpec> = [&l0, &l1]
            .iter()
            .enumerate()
            .map(|(rank, l)| ProcSpec {
                addr: l.local_addr().unwrap().to_string(),
                place_start: rank as u32,
                place_count: 1,
            })
            .collect();
        // Rank 1 is played by hand: it answers the handshake and then
        // writes raw frames.
        let peer = std::thread::spawn(move || {
            let (mut s, _) = l1.accept().unwrap();
            let mut buf = [0u8; codec::HANDSHAKE_BYTES];
            s.read_exact(&mut buf).unwrap();
            let hs = codec::decode_handshake(&buf).unwrap();
            let reply = Handshake {
                version: hs.version,
                proc_id: 1,
                place_start: 1,
                place_count: 1,
                total_places: 2,
            };
            s.write_all(&codec::encode_handshake(&reply)).unwrap();
            s
        });
        let t0 = TcpTransport::connect_with_listener(TcpConfig::new(procs, 0), l0).unwrap();
        let mut s = peer.join().unwrap();
        let encoder = proc0_of_two();
        let msg = |h: u32| wire_env(1, 0, h, vec![1, 2, 3, 4]);
        let batch = Envelope::batch(PlaceId(1), PlaceId(0), (0..3).map(msg).collect());
        let (mut bad, _) = encoder.encode_frame(batch).unwrap().into_parts();
        // Cut two argument bytes off the last message, keeping the length
        // prefix true to the bytes that follow it.
        bad.truncate(bad.len() - 2);
        let (good, _) = encoder.encode_frame(msg(7)).unwrap().into_parts();
        let prefixed = |b: Vec<u8>| [(b.len() as u32).to_le_bytes().to_vec(), b].concat();
        s.write_all(&[prefixed(bad), prefixed(good)].concat())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !t0.readers.lock().iter().all(|h| h.is_finished()) {
            assert!(Instant::now() < deadline, "the reader kept the connection");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(t0.try_recv(PlaceId(0)).is_none(), "a message was delivered");
    }

    /// A frame longer than the peer's limit fails at the encoder, sized
    /// before any byte is copied (the zeroed argument buffers are never
    /// touched, so they cost no memory).
    #[test]
    fn oversized_frames_are_refused_at_the_encoder() {
        let core = proc0_of_two();
        let room = MAX_FRAME_BYTES - codec::FRAME_HEADER_BYTES - codec::MSG_HEADER_BYTES;
        let too_big = wire_env(0, 1, 2000, vec![0u8; room + 1]);
        assert!(matches!(
            core.encode_frame(too_big),
            Err(EncodeError::FrameTooLarge { len }) if len == MAX_FRAME_BYTES + 1
        ));
        // A batch counts every message's header and arguments.
        let halves = (0..2)
            .map(|_| wire_env(0, 1, 2000, vec![0u8; room / 2]))
            .collect();
        assert!(matches!(
            core.encode_frame(Envelope::batch(PlaceId(0), PlaceId(1), halves)),
            Err(EncodeError::FrameTooLarge { len }) if len > MAX_FRAME_BYTES
        ));
        let fits = wire_env(0, 1, 2000, vec![1, 2, 3]);
        let frame = core.encode_frame(fits).expect("a small frame");
        assert_eq!(
            frame.sizes(),
            (codec::FRAME_HEADER_BYTES + codec::MSG_HEADER_BYTES + 3, 0)
        );
    }

    /// Frames written in vectored calls that the writer cuts anywhere
    /// (mid prefix, mid body, between frames) come out whole and in order.
    #[test]
    fn vectored_frame_writes_survive_short_writes() {
        struct Trickle(Vec<u8>, usize);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.1);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let frames: VecDeque<Vec<u8>> = (0..2 * FRAMES_PER_WRITE as u8 + 3)
            .map(|i| vec![i; i as usize % 7])
            .collect();
        let want: Vec<u8> = frames
            .iter()
            .flat_map(|b| [(b.len() as u32).to_le_bytes().to_vec(), b.clone()].concat())
            .collect();
        for step in [1, 3, 5, 64, 1 << 20] {
            let mut w = Trickle(Vec::new(), step);
            write_frames(&mut w, &frames).unwrap();
            assert_eq!(w.0, want, "writes of at most {step} bytes");
        }
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
