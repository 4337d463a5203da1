//! Team collectives — `x10.util.Team` (§3.3).
//!
//! Teams offer HPC-style collectives (Barrier, Broadcast, Reduce,
//! All-Reduce, All-To-All, All-Gather). On the Power 775 these map to PAMI
//! hardware collectives; on everything else X10 ships an **emulation layer**
//! over point-to-point messages — that layer is what this module implements:
//! dissemination barrier, binomial-tree broadcast/reduce, reduce+broadcast
//! all-reduce, and pairwise all-to-all.
//!
//! Usage discipline (same as X10/MPI): team operations are *collective* —
//! every member place must call the same operations in the same order, one
//! calling activity per place. Each operation consumes one sequence number
//! per member, which is how concurrent/back-to-back collectives are kept
//! apart on the wire.

use crate::ctx::Ctx;
use std::any::Any;
use std::sync::Arc;
use x10rt::{IntMap, MsgClass, PlaceId};

/// Reduction operators for the numeric convenience wrappers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TeamOp {
    /// Sum.
    Add,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Wire payload of one collective fragment.
pub struct TeamWire {
    /// Team id.
    pub team: u64,
    /// Operation sequence number.
    pub seq: u64,
    /// Algorithm round (dissemination step / tree level tag).
    pub round: u32,
    /// Sender's rank within the team.
    pub src_rank: u32,
    /// The data.
    pub data: Box<dyn Any + Send>,
}

/// Per-place mailbox of collective fragments plus the per-team op counters.
#[derive(Default)]
pub struct TeamInbox {
    msgs: IntMap<(u64, u64, u32, u32), Box<dyn Any + Send>>,
    seqs: IntMap<u64, u64>,
}

impl TeamInbox {
    /// Store an arriving fragment.
    pub fn deliver(&mut self, w: TeamWire) {
        let prev = self
            .msgs
            .insert((w.team, w.seq, w.round, w.src_rank), w.data);
        debug_assert!(prev.is_none(), "duplicate team fragment");
    }

    fn has(&self, key: (u64, u64, u32, u32)) -> bool {
        self.msgs.contains_key(&key)
    }

    fn take(&mut self, key: (u64, u64, u32, u32)) -> Option<Box<dyn Any + Send>> {
        self.msgs.remove(&key)
    }

    fn next_seq(&mut self, team: u64) -> u64 {
        let e = self.seqs.entry(team).or_insert(0);
        *e += 1;
        *e
    }
}

/// Sizing hook for wire-byte accounting of collective payloads.
pub trait WireSize {
    /// Modeled serialized size in bytes.
    fn wire_size(&self) -> usize;
}

macro_rules! prim_wire {
    ($($t:ty),*) => {$(
        impl WireSize for $t {
            fn wire_size(&self) -> usize { std::mem::size_of::<$t>() }
        }
    )*};
}
prim_wire!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

impl WireSize for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> usize {
        8 + self.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize> WireSize for (A, B, C) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size()
    }
}

impl WireSize for String {
    fn wire_size(&self) -> usize {
        8 + self.len()
    }
}

impl<T: WireSize, const N: usize> WireSize for [T; N] {
    fn wire_size(&self) -> usize {
        self.iter().map(WireSize::wire_size).sum()
    }
}

/// A group of places participating in collectives, with dense ranks.
#[derive(Clone)]
pub struct Team {
    id: u64,
    members: Arc<Vec<PlaceId>>,
}

impl Team {
    /// A team over an explicit member list. Construct once (any place) and
    /// capture the clone in the activities that will call collectives —
    /// team identity is in the id, carried by the clone.
    pub fn new(ctx: &Ctx, members: Vec<PlaceId>) -> Self {
        assert!(!members.is_empty(), "team needs members");
        Team {
            id: ctx.next_global_id(),
            members: Arc::new(members),
        }
    }

    /// The team of all places (X10 `Team.WORLD`).
    pub fn world(ctx: &Ctx) -> Self {
        Team::new(ctx, ctx.places().collect())
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Member places.
    pub fn members(&self) -> &[PlaceId] {
        &self.members
    }

    /// Rank of `p` within the team, if a member.
    pub fn rank_of(&self, p: PlaceId) -> Option<usize> {
        self.members.iter().position(|&m| m == p)
    }

    /// Rank of the calling place.
    ///
    /// # Panics
    /// Panics if the calling place is not a member.
    pub fn rank(&self, ctx: &Ctx) -> usize {
        self.rank_of(ctx.here())
            .unwrap_or_else(|| panic!("{} is not a member of this team", ctx.here()))
    }

    fn begin(&self, ctx: &Ctx) -> u64 {
        ctx.worker().team.borrow_mut().next_seq(self.id)
    }

    fn send(
        &self,
        ctx: &Ctx,
        seq: u64,
        round: u32,
        dst_rank: usize,
        data: Box<dyn Any + Send>,
        bytes: usize,
    ) {
        let me = self.rank(ctx) as u32;
        let dst = self.members[dst_rank];
        if dst == ctx.here() {
            ctx.worker().team.borrow_mut().deliver(TeamWire {
                team: self.id,
                seq,
                round,
                src_rank: me,
                data,
            });
            return;
        }
        let msg = TeamWire {
            team: self.id,
            seq,
            round,
            src_rank: me,
            data,
        };
        // Same modeled `bytes` in either codec mode; `Bytes` serializes the
        // wire-supported data types and ships anything else as an inline
        // part (see `PROTOCOL.md` §4.3).
        ctx.worker().send_msg(dst, MsgClass::Team, bytes, msg, None);
    }

    fn recv(&self, ctx: &Ctx, seq: u64, round: u32, src_rank: usize) -> Box<dyn Any + Send> {
        let key = (self.id, seq, round, src_rank as u32);
        let inbox = &ctx.worker().team;
        ctx.wait_until(|| inbox.borrow().has(key));
        inbox.borrow_mut().take(key).expect("fragment vanished")
    }

    fn recv_typed<T: 'static>(&self, ctx: &Ctx, seq: u64, round: u32, src_rank: usize) -> T {
        *self
            .recv(ctx, seq, round, src_rank)
            .downcast::<T>()
            .expect("team fragment type mismatch — collectives called out of order?")
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Dissemination barrier: ⌈log₂ n⌉ rounds, every place sends and
    /// receives one token per round.
    pub fn barrier(&self, ctx: &Ctx) {
        let n = self.size();
        if n == 1 {
            return;
        }
        let span = ctx.trace().and_then(|t| t.span_start());
        let me = self.rank(ctx);
        let seq = self.begin(ctx);
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < n {
            self.send(ctx, seq, k, (me + dist) % n, Box::new(()), 0);
            let from = (me + n - dist) % n;
            let _ = self.recv(ctx, seq, k, from);
            dist *= 2;
            k += 1;
        }
        if let Some(t) = ctx.trace() {
            t.span_end(span, "team", "barrier", self.id);
        }
    }

    /// Binomial-tree broadcast from `root_rank`. The root passes
    /// `Some(value)`, everyone else `None`; all members return the value.
    pub fn broadcast<T>(&self, ctx: &Ctx, root_rank: usize, value: Option<T>) -> T
    where
        T: Clone + Send + WireSize + 'static,
    {
        let n = self.size();
        let span = ctx.trace().and_then(|t| t.span_start());
        let me = self.rank(ctx);
        let seq = self.begin(ctx);
        let rel = (me + n - root_rank) % n;
        // Standard binomial broadcast: receive from the parent below our
        // lowest set bit, then fan out to children at all lower bits.
        let mut mask = 1usize;
        let v: T;
        loop {
            if mask >= n {
                v = value.expect("broadcast root must supply the value");
                break;
            }
            if rel & mask != 0 {
                let parent = ((rel - mask) + root_rank) % n;
                v = self.recv_typed::<T>(ctx, seq, 0, parent);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            let child_rel = rel + mask;
            if child_rel < n {
                let child = (child_rel + root_rank) % n;
                let bytes = v.wire_size();
                self.send(ctx, seq, 0, child, Box::new(v.clone()), bytes);
            }
            mask >>= 1;
        }
        if let Some(t) = ctx.trace() {
            t.span_end(span, "team", "broadcast", self.id);
        }
        v
    }

    /// Binomial-tree reduction to `root_rank` with a caller-supplied
    /// combining operator. Returns `Some(result)` at the root, `None`
    /// elsewhere.
    pub fn reduce<T>(
        &self,
        ctx: &Ctx,
        root_rank: usize,
        value: T,
        op: impl Fn(T, T) -> T,
    ) -> Option<T>
    where
        T: Send + WireSize + 'static,
    {
        let n = self.size();
        let span = ctx.trace().and_then(|t| t.span_start());
        let me = self.rank(ctx);
        let seq = self.begin(ctx);
        let rel = (me + n - root_rank) % n;
        let result = (|| {
            let mut acc = value;
            let mut bit = 1usize;
            while bit < n {
                if rel & bit != 0 {
                    // Send accumulated value to the partner below and stop.
                    let dst_rel = rel & !bit;
                    let dst = (dst_rel + root_rank) % n;
                    let bytes = acc.wire_size();
                    self.send(ctx, seq, 0, dst, Box::new(acc), bytes);
                    return None;
                }
                let src_rel = rel | bit;
                if src_rel < n {
                    let other = self.recv_typed::<T>(ctx, seq, 0, (src_rel + root_rank) % n);
                    acc = op(acc, other);
                }
                bit <<= 1;
            }
            Some(acc)
        })();
        if let Some(t) = ctx.trace() {
            t.span_end(span, "team", "reduce", self.id);
        }
        result
    }

    /// All-reduce: binomial reduce to rank 0, then broadcast the result.
    pub fn allreduce<T>(&self, ctx: &Ctx, value: T, op: impl Fn(T, T) -> T) -> T
    where
        T: Clone + Send + WireSize + 'static,
    {
        let reduced = self.reduce(ctx, 0, value, op);
        self.broadcast(ctx, 0, reduced)
    }

    /// Element-wise all-reduce over equal-length vectors (the K-Means
    /// pattern: summing per-place centroid accumulators).
    pub fn allreduce_vec(&self, ctx: &Ctx, value: Vec<f64>, op: TeamOp) -> Vec<f64> {
        self.allreduce(ctx, value, |mut a, b| {
            assert_eq!(a.len(), b.len(), "allreduce_vec length mismatch");
            for (x, y) in a.iter_mut().zip(b) {
                *x = match op {
                    TeamOp::Add => *x + y,
                    TeamOp::Min => x.min(y),
                    TeamOp::Max => x.max(y),
                };
            }
            a
        })
    }

    /// All-reduce of `(value, index)` pairs keeping the maximum by value —
    /// MPI's MAXLOC, used by HPL's distributed pivot search.
    pub fn allreduce_maxloc(&self, ctx: &Ctx, value: f64, loc: u64) -> (f64, u64) {
        self.allreduce(ctx, (value, loc), |a, b| if b.0 > a.0 { b } else { a })
    }

    /// Pairwise-exchange all-to-all: member `i` supplies `chunks[j]` for
    /// every member `j` and receives the vector of chunks addressed to it,
    /// indexed by source rank. This is the FFT global-transpose workhorse.
    pub fn alltoall<T>(&self, ctx: &Ctx, mut chunks: Vec<T>) -> Vec<T>
    where
        T: Send + WireSize + 'static,
    {
        let n = self.size();
        assert_eq!(chunks.len(), n, "alltoall needs one chunk per member");
        let span = ctx.trace().and_then(|t| t.span_start());
        let me = self.rank(ctx);
        let seq = self.begin(ctx);
        // Send in a rotated order to avoid synchronized hot-spots, keeping
        // our own chunk aside.
        let mut out: Vec<Option<T>> = chunks.drain(..).map(Some).collect();
        let mine = out[me].take().expect("own chunk");
        for d in 1..n {
            let dst = (me + d) % n;
            let chunk = out[dst].take().expect("chunk already sent");
            let bytes = chunk.wire_size();
            self.send(ctx, seq, 0, dst, Box::new(chunk), bytes);
        }
        let mut result: Vec<Option<T>> = (0..n).map(|_| None).collect();
        result[me] = Some(mine);
        for d in 1..n {
            let src = (me + n - d) % n;
            result[src] = Some(self.recv_typed::<T>(ctx, seq, 0, src));
        }
        let res = result
            .into_iter()
            .map(|c| c.expect("missing alltoall chunk"))
            .collect();
        if let Some(t) = ctx.trace() {
            t.span_end(span, "team", "alltoall", self.id);
        }
        res
    }

    /// Gather to `root_rank`: the root receives every member's value
    /// indexed by rank (`Some(values)` at the root, `None` elsewhere).
    pub fn gather<T>(&self, ctx: &Ctx, root_rank: usize, value: T) -> Option<Vec<T>>
    where
        T: Send + WireSize + 'static,
    {
        let me = self.rank(ctx);
        let gathered = self.reduce(
            ctx,
            root_rank,
            vec![(me as u64, value)],
            |mut a: Vec<(u64, T)>, b| {
                a.extend(b);
                a
            },
        );
        gathered.map(|mut all| {
            all.sort_by_key(|&(r, _)| r);
            debug_assert_eq!(all.len(), self.size());
            all.into_iter().map(|(_, v)| v).collect()
        })
    }

    /// Scatter from `root_rank`: the root supplies one chunk per member
    /// (indexed by rank); every member returns its chunk.
    pub fn scatter<T>(&self, ctx: &Ctx, root_rank: usize, chunks: Option<Vec<T>>) -> T
    where
        T: Send + WireSize + 'static,
    {
        let n = self.size();
        let span = ctx.trace().and_then(|t| t.span_start());
        let me = self.rank(ctx);
        let seq = self.begin(ctx);
        let res = if me == root_rank {
            let mut chunks = chunks.expect("scatter root must supply the chunks");
            assert_eq!(chunks.len(), n, "scatter needs one chunk per member");
            let mut mine: Option<T> = None;
            for (rank, chunk) in chunks.drain(..).enumerate().rev() {
                if rank == me {
                    mine = Some(chunk);
                } else {
                    let bytes = chunk.wire_size();
                    self.send(ctx, seq, 0, rank, Box::new(chunk), bytes);
                }
            }
            mine.expect("own chunk")
        } else {
            self.recv_typed::<T>(ctx, seq, 0, root_rank)
        };
        if let Some(t) = ctx.trace() {
            t.span_end(span, "team", "scatter", self.id);
        }
        res
    }

    /// Split into disjoint sub-teams by color: members whose `color(rank)`
    /// agree land in the same sub-team, ranked by their old rank order.
    /// Purely local and deterministic (no communication): every member
    /// computes the same member lists, and the sub-team id is derived by
    /// hashing, so all members agree on it.
    pub fn split(&self, ctx: &Ctx, color: impl Fn(usize) -> u64) -> Team {
        let me = self.rank(ctx);
        let my_color = color(me);
        let members: Vec<PlaceId> = self
            .members
            .iter()
            .enumerate()
            .filter(|&(r, _)| color(r) == my_color)
            .map(|(_, &p)| p)
            .collect();
        // Derived id: FNV-style hash of (parent id, color) — disjoint from
        // the small sequential ids the runtime counter hands out.
        let mut id = 0xcbf2_9ce4_8422_2325u64 ^ self.id;
        id = id.wrapping_mul(0x100_0000_01b3) ^ my_color;
        id = id.wrapping_mul(0x100_0000_01b3) | (1 << 63);
        Team {
            id,
            members: Arc::new(members),
        }
    }

    /// All-gather: every member contributes one value and receives all of
    /// them indexed by rank (binomial gather to rank 0, then broadcast).
    pub fn allgather<T>(&self, ctx: &Ctx, value: T) -> Vec<T>
    where
        T: Clone + Send + WireSize + 'static,
    {
        let me = self.rank(ctx);
        let gathered = self.reduce(
            ctx,
            0,
            vec![(me as u64, value)],
            |mut a: Vec<(u64, T)>, b| {
                a.extend(b);
                a
            },
        );
        let mut all = self.broadcast(ctx, 0, gathered);
        all.sort_by_key(|&(r, _)| r);
        assert_eq!(all.len(), self.size(), "allgather lost contributions");
        all.into_iter().map(|(_, v)| v).collect()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSize::wire_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(3.0f64.wire_size(), 8);
        assert_eq!(vec![1u32, 2, 3].wire_size(), 8 + 12);
        assert_eq!((1u64, 2.0f64).wire_size(), 16);
        assert_eq!("abc".to_string().wire_size(), 11);
        assert_eq!([1.0f64; 4].wire_size(), 32);
    }

    #[test]
    fn inbox_seq_and_delivery() {
        let mut ib = TeamInbox::default();
        assert_eq!(ib.next_seq(7), 1);
        assert_eq!(ib.next_seq(7), 2);
        assert_eq!(ib.next_seq(8), 1);
        ib.deliver(TeamWire {
            team: 7,
            seq: 1,
            round: 0,
            src_rank: 3,
            data: Box::new(42u32),
        });
        assert!(ib.has((7, 1, 0, 3)));
        let v = ib.take((7, 1, 0, 3)).unwrap();
        assert_eq!(*v.downcast::<u32>().unwrap(), 42);
        assert!(!ib.has((7, 1, 0, 3)));
    }
}
