//! [`Task`] — one activity by value, from spawn to completion.
//!
//! An activity used to cost two heap allocations: a boxed closure
//! (`Box<dyn FnOnce>`) plus a boxed spawn message to carry it and its
//! finish attachment across the transport. The sender allocated both and
//! the receiver freed both, on another executor thread — so on a storm of
//! tiny `at_async` updates the allocator was the largest single cost.
//!
//! A `Task` is the closure and its [`Attach`] in one fixed-size cell.
//! Closures of up to [`INLINE_BYTES`] (and no stricter alignment than a
//! `u64`) are stored inline; larger or over-aligned ones are boxed inside
//! the cell. The cell itself is a plain value: a local spawn moves it into
//! the run queue (`Activity::task`), and a remote spawn hands it to the
//! coalescer, which carries it by value in an inline slot
//! (`x10rt::InlineSlot`): beside its envelope in the batch it rides in
//! under `CodecMode::Inline`, or on the side list of its frame under
//! `CodecMode::Bytes`, where the attach is also written into the frame as
//! bytes. The receiver moves it from the slot into its run queue. So a
//! batched spawn allocates nothing in either codec. Under the inline codec
//! the cell gets a box of its own when it travels alone (a spawn flushed by
//! itself); under the byte codec a lone spawn's cell stays in its frame's
//! slot, but over a socket the lone frame is delivered boxed. Keeping
//! emptied boxes on a per-worker freelist was measured and left out
//! (EXPERIMENTS.md, "One cell per activity").
//!
//! All of the crate's type-erasure `unsafe` lives in this module. The
//! invariant every block relies on: `vtable` is `Some(v)` exactly when
//! `slot` holds an initialized body of the type `v` was built for (the
//! closure itself when inline, a `Box` of it otherwise).

use crate::ctx::Ctx;
use crate::finish::Attach;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr;

/// Largest closure stored inline in a cell, in bytes.
pub(crate) const INLINE_BYTES: usize = 32;

/// Inline closure storage; its alignment is the largest a closure may have
/// and still be stored inline.
#[repr(C, align(8))]
struct Slot([MaybeUninit<u8>; INLINE_BYTES]);

/// The type-erased operations on one closure type.
struct VTable {
    /// Move the body out of the slot and run it. The slot is logically
    /// uninitialized afterwards, whether the body returns or panics.
    call: unsafe fn(*mut u8, &Ctx),
    /// Drop the body in place without running it.
    drop: unsafe fn(*mut u8),
    /// `size_of` of the closure (not of its box): the modeled wire size.
    size: usize,
    /// Is the closure boxed inside the slot?
    #[cfg(test)]
    boxed: bool,
}

/// Is a closure of type `F` stored inline?
const fn fits_inline<F>() -> bool {
    size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<Slot>()
}

/// Vtable of a closure stored inline.
struct Inline<F>(std::marker::PhantomData<F>);

impl<F: FnOnce(&Ctx) + Send + 'static> Inline<F> {
    const VTABLE: VTable = VTable {
        call: Self::call,
        drop: Self::drop,
        size: size_of::<F>(),
        #[cfg(test)]
        boxed: false,
    };

    /// # Safety
    /// `p` holds an initialized `F`, which the caller will not use again.
    unsafe fn call(p: *mut u8, ctx: &Ctx) {
        // SAFETY: per the contract; `fits_inline::<F>()` held when the slot
        // was written, so `p` is aligned for `F`.
        let f = unsafe { ptr::read(p.cast::<F>()) };
        f(ctx)
    }

    /// # Safety
    /// `p` holds an initialized `F`, which the caller will not use again.
    unsafe fn drop(p: *mut u8) {
        // SAFETY: as in `call`.
        unsafe { ptr::drop_in_place(p.cast::<F>()) }
    }
}

/// Vtable of a closure too large or too aligned for the slot: the slot
/// holds a `Box<F>`.
struct Boxed<F>(std::marker::PhantomData<F>);

impl<F: FnOnce(&Ctx) + Send + 'static> Boxed<F> {
    const VTABLE: VTable = VTable {
        call: Self::call,
        drop: Self::drop,
        size: size_of::<F>(),
        #[cfg(test)]
        boxed: true,
    };

    /// # Safety
    /// `p` holds an initialized `Box<F>`, which the caller will not use
    /// again.
    unsafe fn call(p: *mut u8, ctx: &Ctx) {
        // SAFETY: per the contract; a `Box` is pointer-sized and
        // pointer-aligned, which the slot always satisfies.
        let f = unsafe { ptr::read(p.cast::<Box<F>>()) };
        f(ctx)
    }

    /// # Safety
    /// `p` holds an initialized `Box<F>`, which the caller will not use
    /// again.
    unsafe fn drop(p: *mut u8) {
        // SAFETY: as in `call`.
        unsafe { ptr::drop_in_place(p.cast::<Box<F>>()) }
    }
}

/// One activity: its body and how `finish` tracks it (see the module docs).
///
/// `Send` and `Sync` are derived from the fields: the slot is plain bytes,
/// every body stored in it is `Send` (the only constructor,
/// [`Task::new`], requires it), and nothing reachable through `&Task`
/// touches the body, so sharing a `&Task` cannot share a non-`Sync` body.
pub struct Task {
    /// How `finish` tracks this activity. Set by the spawn path before the
    /// cell is queued or sent; taken by the worker that runs it.
    pub(crate) attach: Attach,
    /// `Some` exactly when `slot` holds a body (module invariant).
    vtable: Option<&'static VTable>,
    slot: Slot,
}

impl Task {
    /// A cell holding `f`, attached `Uncounted`.
    pub(crate) fn new<F: FnOnce(&Ctx) + Send + 'static>(f: F) -> Task {
        let mut t = Task {
            attach: Attach::Uncounted,
            vtable: None,
            slot: Slot([MaybeUninit::uninit(); INLINE_BYTES]),
        };
        let p = t.slot.0.as_mut_ptr().cast::<u8>();
        if fits_inline::<F>() {
            // SAFETY: `F` fits the slot in size and alignment, and the new
            // slot is empty, so nothing is overwritten.
            unsafe { ptr::write(p.cast::<F>(), f) };
            t.vtable = Some(&Inline::<F>::VTABLE);
        } else {
            // SAFETY: a `Box` is pointer-sized and pointer-aligned, which
            // the slot satisfies; the new slot is empty.
            unsafe { ptr::write(p.cast::<Box<F>>(), Box::new(f)) };
            t.vtable = Some(&Boxed::<F>::VTABLE);
        }
        t
    }

    /// Run the body, leaving the cell empty. A panicking body has already
    /// been moved out of the cell, so the unwind drops its captures and the
    /// cell's own drop never drops them again.
    ///
    /// # Panics
    /// If the cell holds no body, or if the body panics.
    pub(crate) fn run(&mut self, ctx: &Ctx) {
        let v = self.vtable.take().expect("activity cell holds no body");
        // SAFETY: `vtable` was `Some(v)`, so the slot holds the body `v` was
        // built for; taking the vtable first marks the slot empty, so the
        // body is moved out exactly once.
        unsafe { (v.call)(self.slot.0.as_mut_ptr().cast(), ctx) }
    }

    /// `size_of` the body closure (0 when empty) — the modeled bytes a
    /// spawn charges for it, the same whether the closure is inline or
    /// boxed.
    pub(crate) fn size(&self) -> usize {
        self.vtable.map_or(0, |v| v.size)
    }
}

impl Drop for Task {
    /// Drop the body without running it, if the cell still holds one.
    fn drop(&mut self) {
        if let Some(v) = self.vtable.take() {
            // SAFETY: as in `run`: the slot holds `v`'s body, and it is
            // dropped exactly once.
            unsafe { (v.drop)(self.slot.0.as_mut_ptr().cast()) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Runtime};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts its drops; captured by the closures under test.
    struct DropCount(Arc<AtomicUsize>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counter() -> (Arc<AtomicUsize>, DropCount) {
        let n = Arc::new(AtomicUsize::new(0));
        (n.clone(), DropCount(n))
    }

    /// Run `body` with a live `Ctx` (tasks need one to run).
    fn with_ctx(body: impl FnOnce(&Ctx) + Send + 'static) {
        Runtime::new(Config::new(1)).run(body);
    }

    /// Both storage forms: a small capture set and one past `INLINE_BYTES`.
    fn small(d: DropCount) -> impl FnOnce(&Ctx) + Send + 'static {
        move |_: &Ctx| {
            let _keep = &d;
        }
    }

    fn large(d: DropCount) -> impl FnOnce(&Ctx) + Send + 'static {
        let pad = [7u64; 8];
        move |_: &Ctx| {
            let _keep = (&d, pad);
        }
    }

    fn panicking(d: DropCount) -> impl FnOnce(&Ctx) + Send + 'static {
        move |_: &Ctx| {
            let _keep = &d;
            panic!("body panics");
        }
    }

    #[test]
    fn run_drops_captures_once() {
        let (n1, d1) = counter();
        let (n2, d2) = counter();
        with_ctx(move |ctx| {
            let mut a = Task::new(small(d1));
            let mut b = Task::new(large(d2));
            a.run(ctx);
            b.run(ctx);
            assert!(a.vtable.is_none() && b.vtable.is_none());
        });
        assert_eq!(n1.load(Ordering::SeqCst), 1);
        assert_eq!(n2.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropping_an_unrun_cell_drops_captures_once() {
        let (n1, d1) = counter();
        let (n2, d2) = counter();
        drop(Task::new(small(d1)));
        drop(Task::new(large(d2)));
        assert_eq!(n1.load(Ordering::SeqCst), 1);
        assert_eq!(n2.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_body_drops_captures_once() {
        let (n1, d1) = counter();
        let (n2, d2) = counter();
        with_ctx(move |ctx| {
            let mut a = Task::new(panicking(d1));
            // Boxed form panics the same way.
            let pad = [1u64; 8];
            let mut b = Task::new(move |_: &Ctx| {
                let _keep = (&d2, pad);
                panic!("boxed body panics");
            });
            assert!(catch_unwind(AssertUnwindSafe(|| a.run(ctx))).is_err());
            assert!(catch_unwind(AssertUnwindSafe(|| b.run(ctx))).is_err());
            assert!(a.vtable.is_none() && b.vtable.is_none());
            // Dropping the emptied cells must not drop the captures again.
            drop((a, b));
        });
        assert_eq!(n1.load(Ordering::SeqCst), 1);
        assert_eq!(n2.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn large_or_overaligned_closures_take_the_boxed_fallback() {
        #[repr(align(32))]
        struct Wide;
        /// Is `f` boxed inside its cell? Also pins the closure's size and
        /// alignment, so a capture-analysis change cannot void the check.
        fn boxed<F: FnOnce(&Ctx) + Send + 'static>(f: F, size: usize, align: usize) -> bool {
            assert_eq!((size_of::<F>(), align_of::<F>()), (size, align));
            Task::new(f).vtable.unwrap().boxed
        }
        let exact = [0u8; INLINE_BYTES];
        let over = [0u8; INLINE_BYTES + 1];
        let w = Wide;
        let exact = move |_: &Ctx| {
            let _keep = &exact;
        };
        let over = move |_: &Ctx| {
            let _keep = &over;
        };
        let aligned = move |_: &Ctx| {
            let _keep = &w;
        };
        assert!(!boxed(|_: &Ctx| {}, 0, 1));
        assert!(!boxed(exact, INLINE_BYTES, 1));
        assert!(boxed(over, INLINE_BYTES + 1, 1));
        assert!(boxed(aligned, 0, 32));
    }

    #[test]
    fn size_is_the_closure_size() {
        fn check<F: FnOnce(&Ctx) + Send + 'static>(f: F, size: usize) {
            assert_eq!(size_of::<F>(), size);
            assert_eq!(Task::new(f).size(), size);
        }
        let (a, b) = ([1u8; 5], [2u64; 9]);
        check(|_: &Ctx| {}, 0);
        check(
            move |_: &Ctx| {
                let _keep = &a;
            },
            5,
        );
        check(
            move |_: &Ctx| {
                let _keep = &b;
            },
            72,
        );
    }
}
