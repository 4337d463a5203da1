//! Relocatable distributed collections over the APGAS runtime.
//!
//! X10's production codes keep their data in distributed arrays whose
//! chunks can migrate between places — for load balancing (move the hot
//! chunk next to its consumers) and for resilience (rebuild the chunks a
//! dead place took with it). This crate provides the two workhorses,
//! [`DistArray`] and [`DistMap`], both thin wrappers around a generic
//! [`DistCollection`] that owns the interesting machinery:
//!
//! * **Directory.** Every place holds a chunk-id → owner-place directory
//!   (a `Vec<AtomicU32>` indexed by chunk id). Updates route to the local
//!   view of the owner; a place whose view is stale *forwards* instead of
//!   applying, so no update is ever applied at a non-owner.
//!
//! * **FIFO under relocation.** Each sender stamps its updates with a
//!   per-(sender, chunk) sequence number. The owner applies a sender's
//!   updates strictly in sequence order, buffering gaps: when a relocation
//!   makes a direct-routed update overtake one still being forwarded
//!   through the old owner, the late update slots back into place instead
//!   of being reordered or dropped. Sequencing also makes application
//!   idempotent — a duplicate (e.g. a command re-executed by
//!   `FinishKind::Resilient`) is below the watermark and ignored.
//!
//! * **`relocate(chunk, to)`.** Detach at the current owner (from that
//!   instant the old owner forwards, draining in-flight updates FIFO into
//!   the new home), install the packaged chunk — payload, per-sender
//!   watermarks, and any gap-buffered updates — at the destination, then
//!   publish the new owner to every live place. When `relocate` returns,
//!   every live place routes straight to the new owner.
//!
//! * **Recovery.** [`DistCollection::recover`] rebuilds the chunks whose
//!   owner died, honouring the runtime's
//!   [`RedundancyMode`]: `Replica` promotes the
//!   mirror kept at the owner's buddy (the next place, which receives
//!   every applied update — lossless for applied updates), `Recompute`
//!   rebuilds from the registered generator (applied updates are lost by
//!   design; the chunk re-baselines its per-sender watermarks on the first
//!   update it sees after rebirth, so stragglers from before the death are
//!   dropped as stale rather than wedging the sequence).
//!
//! Updates travel as counted `at_async` closures, so any `finish`
//! enclosing the updates quiesces them — including forwarding hops —
//! before it closes. The proptests in `tests/relocation_props.rs` check
//! the FIFO/no-loss contract against a sequential reference; the
//! allocation test in `tests/alloc_count.rs` checks that steady-state
//! relocation does not leak.

use apgas::{Ctx, PlaceGroup, PlaceId, PlaceLocalHandle, RedundancyMode};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Chunk contents of a [`DistCollection`]: a cloneable value plus the
/// update operation applied to it. `apply` must be deterministic — the
/// replica replays the owner's exact operation stream.
pub trait Payload: Clone + Send + Sync + 'static {
    /// One update operation, shipped from the sender to the owner (and
    /// from the owner to its replica buddy).
    type Op: Clone + Send + Sync + 'static;
    /// Apply one operation in place.
    fn apply(&mut self, op: &Self::Op);
}

/// One live chunk: the payload plus the sequencing state that makes
/// application FIFO per sender and idempotent.
struct Chunk<P: Payload> {
    payload: P,
    /// Per-sender next expected sequence number (the watermark).
    next: HashMap<u32, u64>,
    /// Gap buffer: out-of-order updates parked until the missing sequence
    /// numbers arrive (relocation races produce short-lived gaps).
    pending: HashMap<u32, BTreeMap<u64, P::Op>>,
    /// Application order, `(sender, seq)` — the FIFO evidence the property
    /// tests check. Only recorded when the collection asks for it.
    log: Vec<(u32, u64)>,
    /// Set on chunks reborn by a `Recompute` rebuild: the first update
    /// seen from each sender re-baselines that sender's watermark instead
    /// of waiting for sequence 0 (which died with the old owner).
    rebaseline: bool,
}

impl<P: Payload> Chunk<P> {
    fn fresh(payload: P) -> Self {
        Chunk {
            payload,
            next: HashMap::new(),
            pending: HashMap::new(),
            log: Vec::new(),
            rebaseline: false,
        }
    }

    fn reborn(payload: P) -> Self {
        Chunk {
            rebaseline: true,
            ..Chunk::fresh(payload)
        }
    }
}

impl<P: Payload> Clone for Chunk<P> {
    fn clone(&self) -> Self {
        Chunk {
            payload: self.payload.clone(),
            next: self.next.clone(),
            pending: self.pending.clone(),
            log: self.log.clone(),
            rebaseline: self.rebaseline,
        }
    }
}

/// A replica mirror plus the owner place that maintains it. The tag keeps
/// cross-epoch races honest: a stale update or cleanup from a previous
/// owner of the chunk is ignored instead of corrupting the fresh mirror.
struct ReplicaSlot<P: Payload> {
    owner: u32,
    chunk: Chunk<P>,
}

/// The per-place state behind one collection.
struct Store<P: Payload> {
    /// Chunk id → owner place, this place's view.
    directory: Vec<AtomicU32>,
    /// Chunk id → next sequence number for updates *sent from here*.
    next_seq: Vec<AtomicU64>,
    /// Chunks this place currently owns.
    owned: Mutex<HashMap<u32, Chunk<P>>>,
    /// Replica mirrors this place keeps for its neighbours' chunks.
    replicas: Mutex<HashMap<u32, ReplicaSlot<P>>>,
    /// Chunk generator — initial contents, and the `Recompute` rebuild.
    init: Arc<dyn Fn(u32) -> P + Send + Sync>,
    record_log: bool,
    replica_on: bool,
}

/// The buddy that mirrors `owner`'s chunks: the next place around the
/// ring. Callers guard the one-place case (no distinct buddy exists).
fn buddy_of(owner: u32, places: u32) -> u32 {
    (owner + 1) % places
}

/// A distributed collection of `chunks` relocatable chunks, one `Store`
/// per place. `Copy` so activities capture it by value.
pub struct DistCollection<P: Payload> {
    h: PlaceLocalHandle<Store<P>>,
    chunks: u32,
}

impl<P: Payload> Clone for DistCollection<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: Payload> Copy for DistCollection<P> {}

impl<P: Payload> DistCollection<P> {
    /// Create the collection collectively: chunk `c` starts at place
    /// `c % places` holding `init(c)`; under `RedundancyMode::Replica`
    /// the owner's buddy starts with a mirror. `record_log` turns on the
    /// per-chunk application log (test instrumentation — it grows without
    /// bound, so leave it off outside oracles).
    pub fn new(
        ctx: &Ctx,
        chunks: u32,
        init: impl Fn(u32) -> P + Send + Sync + 'static,
        record_log: bool,
    ) -> Self {
        let places = ctx.num_places() as u32;
        let initf: Arc<dyn Fn(u32) -> P + Send + Sync> = Arc::new(init);
        let h = PlaceLocalHandle::init(ctx, &PlaceGroup::world(ctx), move |c| {
            let me = c.here().0;
            let replica_on = c.config().redundancy_mode == RedundancyMode::Replica && places > 1;
            let mut owned = HashMap::new();
            let mut replicas = HashMap::new();
            for chunk in 0..chunks {
                let owner = chunk % places;
                if owner == me {
                    owned.insert(chunk, Chunk::fresh(initf(chunk)));
                }
                if replica_on && buddy_of(owner, places) == me {
                    replicas.insert(
                        chunk,
                        ReplicaSlot {
                            owner,
                            chunk: Chunk::fresh(initf(chunk)),
                        },
                    );
                }
            }
            Store {
                directory: (0..chunks).map(|c| AtomicU32::new(c % places)).collect(),
                next_seq: (0..chunks).map(|_| AtomicU64::new(0)).collect(),
                owned: Mutex::new(owned),
                replicas: Mutex::new(replicas),
                init: initf.clone(),
                record_log,
                replica_on,
            }
        });
        DistCollection { h, chunks }
    }

    /// Number of chunks.
    pub fn chunks(&self) -> u32 {
        self.chunks
    }

    /// This place's view of who owns `chunk`.
    pub fn owner_of(&self, ctx: &Ctx, chunk: u32) -> PlaceId {
        PlaceId(self.h.get(ctx).directory[chunk as usize].load(Ordering::Acquire))
    }

    /// Send one update to `chunk` from the calling place. Stamps the
    /// per-(sender, chunk) sequence number and routes via the local
    /// directory view; applies inline when this place is the owner.
    pub fn update(&self, ctx: &Ctx, chunk: u32, op: P::Op) {
        assert!(chunk < self.chunks, "chunk {chunk} out of range");
        let st = self.h.get(ctx);
        let seq = st.next_seq[chunk as usize].fetch_add(1, Ordering::Relaxed);
        deliver(ctx, self.h, chunk, ctx.here().0, seq, op);
    }

    /// Move `chunk` to place `to`, draining in-flight updates FIFO before
    /// the directory flips. Blocking; linearizable at return: every live
    /// place routes `chunk` straight to `to`. Safe to run concurrently
    /// with updates (that is the point) and with relocations of other
    /// chunks; concurrent relocations of the *same* chunk race for the
    /// detach and the loser retargets or no-ops.
    pub fn relocate(&self, ctx: &Ctx, chunk: u32, to: PlaceId) {
        assert!(chunk < self.chunks, "chunk {chunk} out of range");
        assert!(
            (to.0 as usize) < ctx.num_places() && !ctx.place_dead(to),
            "relocate target {to} is not a live place"
        );
        let h = self.h;
        let mut owner = self.owner_of(ctx, chunk);
        // 1. Chase the directory to the current owner and detach. A stale
        //    hop answers with its own (fresher) view; mid-install the
        //    views can point at each other briefly, so just keep chasing —
        //    the install that created the window completes independently.
        let pkg = loop {
            if owner == to {
                return; // already home (or a concurrent relocate won)
            }
            match ctx.at(owner, move |c| detach(c, h, chunk, to)) {
                Ok(pkg) => break pkg,
                Err(next_view) => owner = PlaceId(next_view),
            }
        };
        let old_owner = owner;
        // 2. Install at the destination: seeds the new buddy's mirror,
        //    takes ownership, flips the local directory entry.
        ctx.at(to, move |c| install(c, h, chunk, pkg));
        // 3. Retire the old buddy's mirror (tag-guarded: if old and new
        //    buddy coincide, the fresh seed survives the cleanup race).
        let places = ctx.num_places() as u32;
        if places > 1 {
            let old_buddy = PlaceId(buddy_of(old_owner.0, places));
            if !ctx.place_dead(old_buddy) {
                ctx.at_async(old_buddy, move |c| {
                    let st = h.get(c);
                    let mut reps = st.replicas.lock();
                    if reps.get(&chunk).is_some_and(|s| s.owner == old_owner.0) {
                        reps.remove(&chunk);
                    }
                });
            }
        }
        // 4. Publish the new owner to every live place.
        for p in ctx.places() {
            if p != to && !ctx.place_dead(p) {
                ctx.at(p, move |c| {
                    h.get(c).directory[chunk as usize].store(to.0, Ordering::Release);
                });
            }
        }
    }

    /// Rebuild every chunk whose owner is dead, per the runtime's
    /// [`RedundancyMode`]. Returns the number of chunks rebuilt. Call
    /// after the runtime reports a place death (and after the governing
    /// finish has recovered); updates sent after `recover` returns route
    /// to the rebuilt chunks.
    pub fn recover(&self, ctx: &Ctx) -> usize {
        let h = self.h;
        let st = self.h.get(ctx);
        let places = ctx.num_places() as u32;
        let mode = ctx.config().redundancy_mode;
        let mut rebuilt = 0;
        for chunk in 0..self.chunks {
            let owner = st.directory[chunk as usize].load(Ordering::Acquire);
            if !ctx.place_dead(PlaceId(owner)) {
                continue;
            }
            // New home: the dead owner's buddy when alive (it holds the
            // mirror), else the next live successor around the ring.
            let mut home = owner;
            for step in 1..places {
                let cand = (owner + step) % places;
                if !ctx.place_dead(PlaceId(cand)) {
                    home = cand;
                    break;
                }
            }
            assert_ne!(home, owner, "no live place left to rebuild chunk {chunk}");
            ctx.at(PlaceId(home), move |c| rebuild(c, h, chunk, owner, mode));
            for p in ctx.places() {
                if p.0 != home && !ctx.place_dead(p) {
                    ctx.at(p, move |c| {
                        h.get(c).directory[chunk as usize].store(home, Ordering::Release);
                    });
                }
            }
            rebuilt += 1;
        }
        rebuilt
    }

    /// Evaluate `f` over the chunk's payload at its current owner,
    /// chasing the directory if a relocation is in flight.
    pub fn read<R: Send + 'static>(
        &self,
        ctx: &Ctx,
        chunk: u32,
        f: impl Fn(&P) -> R + Send + Sync + 'static,
    ) -> R {
        self.read_chunk(ctx, chunk, move |ch| f(&ch.payload))
    }

    /// The chunk's application log, `(sender, seq)` in the order applied.
    /// Empty unless the collection was created with `record_log`.
    pub fn fifo_log(&self, ctx: &Ctx, chunk: u32) -> Vec<(u32, u64)> {
        self.read_chunk(ctx, chunk, |ch| ch.log.clone())
    }

    fn read_chunk<R: Send + 'static>(
        &self,
        ctx: &Ctx,
        chunk: u32,
        f: impl Fn(&Chunk<P>) -> R + Send + Sync + 'static,
    ) -> R {
        assert!(chunk < self.chunks, "chunk {chunk} out of range");
        let h = self.h;
        let f = Arc::new(f);
        let mut owner = self.owner_of(ctx, chunk);
        loop {
            let f2 = f.clone();
            let r: Result<R, u32> = ctx.at(owner, move |c| {
                let st = h.get(c);
                let owned = st.owned.lock();
                match owned.get(&chunk) {
                    Some(ch) => Ok(f2(ch)),
                    None => Err(st.directory[chunk as usize].load(Ordering::Acquire)),
                }
            });
            match r {
                Ok(v) => return v,
                Err(next_view) => owner = PlaceId(next_view),
            }
        }
    }

    /// Free the per-place stores (collective).
    pub fn free(&self, ctx: &Ctx) {
        let h = self.h;
        PlaceGroup::world(ctx).broadcast(ctx, move |c| h.free_local(c));
    }
}

/// Route-or-apply: the body of every update hop. Applies when this place
/// is the owner per its directory view, forwards otherwise. Forwards are
/// counted activities, so the enclosing finish drains them.
fn deliver<P: Payload>(
    ctx: &Ctx,
    h: PlaceLocalHandle<Store<P>>,
    chunk: u32,
    sender: u32,
    seq: u64,
    op: P::Op,
) {
    let st = h.get(ctx);
    let me = ctx.here().0;
    let owner = st.directory[chunk as usize].load(Ordering::Acquire);
    if owner != me {
        ctx.at_async(PlaceId(owner), move |c| {
            deliver(c, h, chunk, sender, seq, op)
        });
        return;
    }
    let mut owned = st.owned.lock();
    let Some(ch) = owned.get_mut(&chunk) else {
        // Directory says "here" but the chunk is still in flight (the
        // install that will land it has not run yet). Requeue behind it.
        drop(owned);
        ctx.at_async(PlaceId(me), move |c| deliver(c, h, chunk, sender, seq, op));
        return;
    };
    apply_in_order(ctx, st.as_ref(), h, chunk, ch, sender, seq, op);
}

/// Apply `op` if it is the sender's next expected update, then drain any
/// gap-buffered successors; park it if it arrived early; drop it if it is
/// a duplicate below the watermark.
#[allow(clippy::too_many_arguments)]
fn apply_in_order<P: Payload>(
    ctx: &Ctx,
    st: &Store<P>,
    h: PlaceLocalHandle<Store<P>>,
    chunk: u32,
    ch: &mut Chunk<P>,
    sender: u32,
    mut seq: u64,
    op: P::Op,
) {
    if !ch.next.contains_key(&sender) {
        let base = if ch.rebaseline { seq } else { 0 };
        ch.next.insert(sender, base);
    }
    let next = ch.next[&sender];
    if seq < next {
        return; // duplicate (e.g. a re-executed resilient command)
    }
    if seq > next {
        ch.pending.entry(sender).or_default().insert(seq, op);
        return;
    }
    let mut op = op;
    loop {
        ch.payload.apply(&op);
        if st.record_log {
            ch.log.push((sender, seq));
        }
        ch.next.insert(sender, seq + 1);
        if st.replica_on {
            replicate(ctx, h, chunk, sender, seq, op);
        }
        seq += 1;
        match ch.pending.get_mut(&sender).and_then(|m| m.remove(&seq)) {
            Some(parked) => op = parked,
            None => break,
        }
    }
}

/// Forward one applied update to the owner's buddy mirror. The mirror
/// replays the owner's exact application order (owner→buddy sends are
/// FIFO); the owner tag drops cross-epoch strays.
fn replicate<P: Payload>(
    ctx: &Ctx,
    h: PlaceLocalHandle<Store<P>>,
    chunk: u32,
    sender: u32,
    seq: u64,
    op: P::Op,
) {
    let places = ctx.num_places() as u32;
    let me = ctx.here().0;
    let buddy = PlaceId(buddy_of(me, places));
    if ctx.place_dead(buddy) {
        return; // degraded: the mirror is gone until the next relocation
    }
    ctx.at_async(buddy, move |c| {
        let st = h.get(c);
        let mut reps = st.replicas.lock();
        let Some(slot) = reps.get_mut(&chunk) else {
            return; // no mirror here (stale forward after a cleanup)
        };
        if slot.owner != me {
            return; // a previous owner's stray — the seed already has it
        }
        let rc = &mut slot.chunk;
        if rc.next.get(&sender).is_some_and(|&n| seq < n) {
            return;
        }
        rc.payload.apply(&op);
        if st.record_log {
            rc.log.push((sender, seq));
        }
        rc.next.insert(sender, seq + 1);
    });
}

/// Remove `chunk` from this place and point the directory at `to`; from
/// here on this place forwards. Answers the current view when the chunk
/// is not here (the caller keeps chasing).
fn detach<P: Payload>(
    ctx: &Ctx,
    h: PlaceLocalHandle<Store<P>>,
    chunk: u32,
    to: PlaceId,
) -> Result<Chunk<P>, u32> {
    let st = h.get(ctx);
    let mut owned = st.owned.lock();
    match owned.remove(&chunk) {
        Some(ch) => {
            st.directory[chunk as usize].store(to.0, Ordering::Release);
            Ok(ch)
        }
        None => Err(st.directory[chunk as usize].load(Ordering::Acquire)),
    }
}

/// Land a detached chunk here: seed the new buddy's mirror first (so every
/// later `replicate` from this place lands behind the seed on the same
/// FIFO pair), then take ownership and flip the local directory entry.
fn install<P: Payload>(ctx: &Ctx, h: PlaceLocalHandle<Store<P>>, chunk: u32, pkg: Chunk<P>) {
    let st = h.get(ctx);
    let places = ctx.num_places() as u32;
    let me = ctx.here().0;
    if st.replica_on {
        let buddy = PlaceId(buddy_of(me, places));
        if !ctx.place_dead(buddy) {
            let mirror = pkg.clone();
            ctx.at_async(buddy, move |c| {
                h.get(c).replicas.lock().insert(
                    chunk,
                    ReplicaSlot {
                        owner: me,
                        chunk: mirror,
                    },
                );
            });
        }
    }
    let mut owned = st.owned.lock();
    owned.insert(chunk, pkg);
    st.directory[chunk as usize].store(me, Ordering::Release);
}

/// Rebuild one dead owner's chunk at this place, per the redundancy mode.
fn rebuild<P: Payload>(
    ctx: &Ctx,
    h: PlaceLocalHandle<Store<P>>,
    chunk: u32,
    dead_owner: u32,
    mode: RedundancyMode,
) {
    let st = h.get(ctx);
    let me = ctx.here().0;
    let recovered = match mode {
        RedundancyMode::Replica => match st.replicas.lock().remove(&chunk) {
            // Promote the mirror: every update the dead owner applied.
            Some(slot) if slot.owner == dead_owner => slot.chunk,
            // The mirror died too (or never reached us): degrade to a
            // generator rebuild, exactly like Recompute.
            _ => Chunk::reborn((st.init)(chunk)),
        },
        RedundancyMode::Recompute => Chunk::reborn((st.init)(chunk)),
    };
    // The rebuilt chunk needs a mirror of its own.
    if st.replica_on {
        let places = ctx.num_places() as u32;
        let buddy = PlaceId(buddy_of(me, places));
        if !ctx.place_dead(buddy) {
            let mirror = recovered.clone();
            ctx.at_async(buddy, move |c| {
                h.get(c).replicas.lock().insert(
                    chunk,
                    ReplicaSlot {
                        owner: me,
                        chunk: mirror,
                    },
                );
            });
        }
    }
    let mut owned = st.owned.lock();
    owned.insert(chunk, recovered);
    st.directory[chunk as usize].store(me, Ordering::Release);
}

// ---------------------------------------------------------------------------
// DistArray
// ---------------------------------------------------------------------------

/// One `DistArray` update: add `delta` into slot `idx` of the chunk.
/// Additions commute across senders, so the final contents are
/// deterministic whatever the interleaving; the per-sender FIFO contract
/// is what the sequence numbers (and the log oracle) pin down.
#[derive(Clone, Copy, Debug)]
pub struct ArrayOp {
    pub idx: u32,
    pub delta: u64,
}

impl Payload for Vec<u64> {
    type Op = ArrayOp;
    fn apply(&mut self, op: &ArrayOp) {
        let i = op.idx as usize;
        assert!(
            i < self.len(),
            "index {i} out of chunk bounds {}",
            self.len()
        );
        self[i] = self[i].wrapping_add(op.delta);
    }
}

/// A distributed array of `chunks × chunk_len` u64 slots, relocatable a
/// chunk at a time.
#[derive(Clone, Copy)]
pub struct DistArray {
    inner: DistCollection<Vec<u64>>,
    chunk_len: u32,
}

impl DistArray {
    /// A zero-filled array (collective).
    pub fn new(ctx: &Ctx, chunks: u32, chunk_len: u32, record_log: bool) -> Self {
        Self::with_generator(ctx, chunks, chunk_len, |_, _| 0, record_log)
    }

    /// An array whose slot `(chunk, idx)` starts as `gen(chunk, idx)` —
    /// the same generator rebuilds the chunk under `Recompute` recovery.
    pub fn with_generator(
        ctx: &Ctx,
        chunks: u32,
        chunk_len: u32,
        gen: impl Fn(u32, u32) -> u64 + Send + Sync + 'static,
        record_log: bool,
    ) -> Self {
        let inner = DistCollection::new(
            ctx,
            chunks,
            move |chunk| (0..chunk_len).map(|i| gen(chunk, i)).collect(),
            record_log,
        );
        DistArray { inner, chunk_len }
    }

    pub fn chunks(&self) -> u32 {
        self.inner.chunks()
    }

    pub fn chunk_len(&self) -> u32 {
        self.chunk_len
    }

    /// Add `delta` into `(chunk, idx)` from the calling place.
    pub fn add(&self, ctx: &Ctx, chunk: u32, idx: u32, delta: u64) {
        assert!(idx < self.chunk_len, "index {idx} out of chunk bounds");
        self.inner.update(ctx, chunk, ArrayOp { idx, delta });
    }

    /// See [`DistCollection::relocate`].
    pub fn relocate(&self, ctx: &Ctx, chunk: u32, to: PlaceId) {
        self.inner.relocate(ctx, chunk, to);
    }

    /// See [`DistCollection::recover`].
    pub fn recover(&self, ctx: &Ctx) -> usize {
        self.inner.recover(ctx)
    }

    pub fn owner_of(&self, ctx: &Ctx, chunk: u32) -> PlaceId {
        self.inner.owner_of(ctx, chunk)
    }

    /// Snapshot one chunk's contents.
    pub fn chunk(&self, ctx: &Ctx, chunk: u32) -> Vec<u64> {
        self.inner.read(ctx, chunk, |p| p.clone())
    }

    /// Sum of every slot across every chunk.
    pub fn sum(&self, ctx: &Ctx) -> u64 {
        (0..self.inner.chunks())
            .map(|c| self.inner.read(ctx, c, |p| p.iter().sum::<u64>()))
            .fold(0u64, u64::wrapping_add)
    }

    /// See [`DistCollection::fifo_log`].
    pub fn fifo_log(&self, ctx: &Ctx, chunk: u32) -> Vec<(u32, u64)> {
        self.inner.fifo_log(ctx, chunk)
    }

    pub fn free(&self, ctx: &Ctx) {
        self.inner.free(ctx);
    }
}

// ---------------------------------------------------------------------------
// DistMap
// ---------------------------------------------------------------------------

/// One `DistMap` update. Unlike array adds, map writes do *not* commute —
/// last-writer-wins per key — which is exactly why the per-sender FIFO
/// guarantee matters: a sender's own writes land in program order even
/// across relocations.
#[derive(Clone, Copy, Debug)]
pub enum MapOp {
    Insert(u64, u64),
    Remove(u64),
}

impl Payload for HashMap<u64, u64> {
    type Op = MapOp;
    fn apply(&mut self, op: &MapOp) {
        match *op {
            MapOp::Insert(k, v) => {
                self.insert(k, v);
            }
            MapOp::Remove(k) => {
                self.remove(&k);
            }
        }
    }
}

/// A distributed hash map sharded into relocatable chunks by `key % chunks`.
#[derive(Clone, Copy)]
pub struct DistMap {
    inner: DistCollection<HashMap<u64, u64>>,
}

impl DistMap {
    /// An empty map with `chunks` shards (collective).
    pub fn new(ctx: &Ctx, chunks: u32, record_log: bool) -> Self {
        DistMap {
            inner: DistCollection::new(ctx, chunks, |_| HashMap::new(), record_log),
        }
    }

    /// The shard holding `key`.
    pub fn chunk_of(&self, key: u64) -> u32 {
        (key % self.inner.chunks() as u64) as u32
    }

    pub fn insert(&self, ctx: &Ctx, key: u64, val: u64) {
        self.inner
            .update(ctx, self.chunk_of(key), MapOp::Insert(key, val));
    }

    pub fn remove(&self, ctx: &Ctx, key: u64) {
        self.inner
            .update(ctx, self.chunk_of(key), MapOp::Remove(key));
    }

    /// Read one key at its shard's owner.
    pub fn get(&self, ctx: &Ctx, key: u64) -> Option<u64> {
        self.inner
            .read(ctx, self.chunk_of(key), move |m| m.get(&key).copied())
    }

    /// Total entries across all shards.
    pub fn len(&self, ctx: &Ctx) -> usize {
        (0..self.inner.chunks())
            .map(|c| self.inner.read(ctx, c, |m| m.len()))
            .sum()
    }

    pub fn is_empty(&self, ctx: &Ctx) -> bool {
        self.len(ctx) == 0
    }

    /// See [`DistCollection::relocate`].
    pub fn relocate(&self, ctx: &Ctx, chunk: u32, to: PlaceId) {
        self.inner.relocate(ctx, chunk, to);
    }

    /// See [`DistCollection::recover`].
    pub fn recover(&self, ctx: &Ctx) -> usize {
        self.inner.recover(ctx)
    }

    pub fn owner_of(&self, ctx: &Ctx, chunk: u32) -> PlaceId {
        self.inner.owner_of(ctx, chunk)
    }

    /// See [`DistCollection::fifo_log`].
    pub fn fifo_log(&self, ctx: &Ctx, chunk: u32) -> Vec<(u32, u64)> {
        self.inner.fifo_log(ctx, chunk)
    }

    pub fn free(&self, ctx: &Ctx) {
        self.inner.free(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::{Config, Runtime};

    fn rt(places: usize) -> Runtime {
        Runtime::new(Config::new(places))
    }

    #[test]
    fn array_add_routes_to_owners_and_sums() {
        rt(4).run(|ctx| {
            let arr = DistArray::new(ctx, 8, 4, false);
            ctx.finish(|c| {
                for p in c.places() {
                    c.at_async(p, move |cc| {
                        for chunk in 0..8 {
                            arr.add(cc, chunk, cc.here().0 % 4, 1 + cc.here().0 as u64);
                        }
                    });
                }
            });
            // Each place added (1 + its id) once into each of 8 chunks.
            assert_eq!(arr.sum(ctx), 8 * (1 + 2 + 3 + 4));
            arr.free(ctx);
        });
    }

    #[test]
    fn relocate_preserves_contents_and_flips_owner() {
        rt(4).run(|ctx| {
            let arr = DistArray::with_generator(ctx, 4, 8, |c, i| (c * 100 + i) as u64, false);
            let before = arr.chunk(ctx, 1);
            assert_eq!(arr.owner_of(ctx, 1), PlaceId(1));
            arr.relocate(ctx, 1, PlaceId(3));
            assert_eq!(arr.owner_of(ctx, 1), PlaceId(3));
            assert_eq!(arr.chunk(ctx, 1), before);
            // Every place's directory converged, so a remote update routes
            // straight to the new owner and still applies.
            ctx.finish(|c| {
                c.at_async(PlaceId(2), move |cc| arr.add(cc, 1, 0, 5));
            });
            assert_eq!(arr.chunk(ctx, 1)[0], before[0] + 5);
            arr.free(ctx);
        });
    }

    #[test]
    fn updates_keep_flowing_during_relocation() {
        rt(4).run(|ctx| {
            let arr = DistArray::new(ctx, 2, 1, true);
            let laps = 50u64;
            ctx.finish(|c| {
                for p in c.places() {
                    c.at_async(p, move |cc| {
                        for _ in 0..laps {
                            arr.add(cc, 0, 0, 1);
                        }
                    });
                }
                // Bounce the chunk around while the updaters run.
                for to in [1u32, 2, 3, 0, 2] {
                    arr.relocate(c, 0, PlaceId(to));
                }
            });
            assert_eq!(arr.chunk(ctx, 0)[0], 4 * laps);
            // FIFO per sender: each sender's seqs appear in order 0..laps.
            let log = arr.fifo_log(ctx, 0);
            for s in 0..4u32 {
                let seqs: Vec<u64> = log
                    .iter()
                    .filter(|(x, _)| *x == s)
                    .map(|&(_, q)| q)
                    .collect();
                assert_eq!(seqs, (0..laps).collect::<Vec<_>>(), "sender {s}");
            }
            arr.free(ctx);
        });
    }

    #[test]
    fn map_insert_get_remove_across_relocation() {
        rt(3).run(|ctx| {
            let map = DistMap::new(ctx, 3, false);
            ctx.finish(|c| {
                for k in 0..30u64 {
                    map.insert(c, k, k * 10);
                }
            });
            assert_eq!(map.len(ctx), 30);
            map.relocate(ctx, 0, PlaceId(2));
            assert_eq!(map.get(ctx, 9), Some(90));
            assert_eq!(map.get(ctx, 0), Some(0));
            ctx.finish(|c| map.remove(c, 9));
            assert_eq!(map.get(ctx, 9), None);
            assert_eq!(map.len(ctx), 29);
            map.free(ctx);
        });
    }
}
