//! Registered memory segments.
//!
//! To use RDMA or hardware collectives, an application must *register* the
//! memory segments eligible for transfer with the network hardware, and the
//! initiating task must know the effective address of both ends (§3.3). We
//! model registration with a global [`SegmentTable`]: a segment registered by
//! any place is addressable by every place as `(place, SegId, offset)`, and
//! RDMA operations (see [`crate::rdma`]) act on it directly from the
//! initiator's thread — the destination CPU is never involved, exactly like
//! the Torrent.
//!
//! Safety model: a [`Segment`] is raw, page-aligned memory. Plain loads and
//! stores through it are bounds-checked but *not* synchronized — like real
//! RDMA, the application protocol (phases separated by `finish`/barriers)
//! must keep initiator transfers and local access from racing. Word-atomic
//! access is available via [`Segment::atomic_u64`], which is what the GUPS
//! path uses.

use crate::hash::IntMap;
use parking_lot::RwLock;
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Identifier of a registered segment, unique *per place*.
///
/// The congruent allocator guarantees that the same allocation sequence at
/// every place yields the same sequence of `SegId`s — the symmetric-address
/// property the paper's congruent memory allocator provides.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SegId(pub u64);

/// Alignment used for all registered segments. 64 KiB models large-page
/// backing: the paper notes the Torrent is very sensitive to TLB misses and
/// backs registered segments with large pages.
pub const SEGMENT_ALIGN: usize = 64 * 1024;

/// A registered, page-aligned, zero-initialized memory segment.
pub struct Segment {
    ptr: *mut u8,
    len: usize,
    layout: Layout,
}

// SAFETY: the segment is plain memory; all access goes through raw pointers
// with the RDMA race discipline documented at module level, or through
// `AtomicU64` views for the atomic paths.
unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl Segment {
    /// Allocate a zeroed segment of `len` bytes (rounded up to 8).
    ///
    /// # Panics
    /// Panics on `len == 0` or allocation failure.
    pub fn alloc(len: usize) -> Self {
        assert!(len > 0, "cannot register an empty segment");
        let len = len.next_multiple_of(8);
        let layout = Layout::from_size_align(len, SEGMENT_ALIGN).expect("segment layout");
        // SAFETY: layout has non-zero size.
        let ptr = unsafe { alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "segment allocation failed");
        Segment { ptr, len, layout }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (segments cannot be empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Base pointer of the segment.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Read `dst.len()` bytes starting at `offset`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn read(&self, offset: usize, dst: &mut [u8]) {
        assert!(
            offset.checked_add(dst.len()).is_some_and(|e| e <= self.len),
            "segment read out of bounds: {}+{} > {}",
            offset,
            dst.len(),
            self.len
        );
        // SAFETY: bounds checked above; races are the caller's protocol
        // responsibility (RDMA discipline).
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(offset), dst.as_mut_ptr(), dst.len());
        }
    }

    /// Write `src` starting at `offset`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn write(&self, offset: usize, src: &[u8]) {
        assert!(
            offset.checked_add(src.len()).is_some_and(|e| e <= self.len),
            "segment write out of bounds: {}+{} > {}",
            offset,
            src.len(),
            self.len
        );
        // SAFETY: bounds checked above; RDMA race discipline.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(offset), src.len());
        }
    }

    /// Atomic view of the 64-bit word at word index `idx` (byte offset
    /// `8*idx`). This is the GUPS access path.
    ///
    /// # Panics
    /// Panics if the word is out of bounds.
    #[inline]
    pub fn atomic_u64(&self, idx: usize) -> &AtomicU64 {
        let off = idx * 8;
        assert!(off + 8 <= self.len, "atomic word {idx} out of bounds");
        // SAFETY: in-bounds, 8-aligned (segment base is 64 KiB aligned and
        // lengths are multiples of 8); AtomicU64 has the same layout as u64.
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    /// Number of 64-bit words in the segment.
    #[inline]
    pub fn words(&self) -> usize {
        self.len / 8
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        // SAFETY: ptr/layout came from alloc_zeroed with this layout.
        unsafe { dealloc(self.ptr, self.layout) }
    }
}

/// Global registry of segments, keyed by (place, segment id).
///
/// Shared by all places of a runtime; the RDMA functions resolve remote
/// addresses through it.
#[derive(Default)]
pub struct SegmentTable {
    map: RwLock<IntMap<(u32, SegId), Arc<Segment>>>,
}

impl SegmentTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `seg` as `(place, id)`.
    ///
    /// # Panics
    /// Panics if the key is already registered (segment ids are never reused).
    pub fn register(&self, place: u32, id: SegId, seg: Arc<Segment>) {
        let prev = self.map.write().insert((place, id), seg);
        assert!(
            prev.is_none(),
            "segment ({place}, {id:?}) already registered"
        );
    }

    /// Remove a registration (e.g. when the owning array is dropped).
    pub fn unregister(&self, place: u32, id: SegId) {
        self.map.write().remove(&(place, id));
    }

    /// Resolve `(place, id)`, if registered.
    pub fn lookup(&self, place: u32, id: SegId) -> Option<Arc<Segment>> {
        self.map.read().get(&(place, id)).cloned()
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn segment_zeroed_and_rw() {
        let s = Segment::alloc(100);
        assert_eq!(s.len(), 104); // rounded to 8
        let mut buf = [1u8; 16];
        s.read(0, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        s.write(8, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        s.read(8, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn segment_alignment_supports_atomics() {
        let s = Segment::alloc(64);
        assert_eq!(s.as_ptr() as usize % SEGMENT_ALIGN, 0);
        s.atomic_u64(3).store(0xdead_beef, Ordering::SeqCst);
        assert_eq!(s.atomic_u64(3).load(Ordering::SeqCst), 0xdead_beef);
        let mut b = [0u8; 8];
        s.read(24, &mut b);
        assert_eq!(u64::from_ne_bytes(b), 0xdead_beef);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let s = Segment::alloc(8);
        let mut b = [0u8; 16];
        s.read(0, &mut b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_overflow_offset_panics() {
        let s = Segment::alloc(8);
        s.write(usize::MAX, &[1]);
    }

    #[test]
    fn table_register_lookup_unregister() {
        let t = SegmentTable::new();
        let s = Arc::new(Segment::alloc(8));
        t.register(2, SegId(5), s.clone());
        assert!(t.lookup(2, SegId(5)).is_some());
        assert!(t.lookup(1, SegId(5)).is_none());
        assert_eq!(t.len(), 1);
        t.unregister(2, SegId(5));
        assert!(t.lookup(2, SegId(5)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        let t = SegmentTable::new();
        t.register(0, SegId(1), Arc::new(Segment::alloc(8)));
        t.register(0, SegId(1), Arc::new(Segment::alloc(8)));
    }
}
