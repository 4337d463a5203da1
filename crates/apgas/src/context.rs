//! Stackful place contexts for the shared executor (M:N scheduling).
//!
//! When the executor runs in shared mode (`Config::executor_threads` below
//! the hosted place count; see `executor`), each hosted place runs as a
//! *context* — a worker loop on its own heap-allocated call stack — instead
//! of owning an OS thread. A small pool of executor threads resumes queued
//! contexts; a context that finds nothing to do yields back to its executor
//! instead of blocking the thread, so thousands of places multiplex over a
//! handful of cores.
//!
//! The switch itself is ~20 instructions of `global_asm!`: save the SysV
//! callee-saved registers plus the FP control words on the outgoing stack,
//! swap `rsp`, restore, `ret`. Everything a place can wait on is
//! quantum-shaped (the `step::StepGate` baton proves this — the deterministic
//! controller already drives every wait point one `run_one` quantum at a
//! time), so a context only ever switches at the top of its scheduler loop,
//! never in the middle of protocol state updates.
//!
//! Safety model: a context's stack, saved stack pointers, and entry closure
//! are only ever touched by the executor thread that popped it off the
//! shared pool's run queue, between that pop and its yield. The queue's
//! mutex plus the context's [`State`] hand it over: the executor that
//! yields it changes the state, and whoever queues it next does so under
//! the mutex the next executor pops under. That is what makes migrating a
//! context between executor threads sound: the resuming thread observes
//! every stack write the previous thread made.

use std::cell::Cell;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Smallest stack we will allocate, guard page excluded. Worker quanta keep
/// large buffers (receive scratch, coalescer payloads) on the heap, but
/// activity bodies are arbitrary user code — refuse to run them on a
/// pocket-sized stack.
pub(crate) const MIN_STACK: usize = 64 * 1024;

const PAGE: usize = 4096;

#[cfg(target_arch = "x86_64")]
mod sys {
    use std::ffi::c_void;

    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    /// Virtual reservation only — 4,096 contexts × 16 MiB is 64 GiB of
    /// address space but pages are only committed as stacks actually grow.
    pub const MAP_NORESERVE: i32 = 0x4000;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    }
}

// apgas_ctx_switch(save: *mut *mut u8 /* rdi */, to: *mut u8 /* rsi */):
// push the SysV callee-saved set and the FP control words (mxcsr + x87 CW)
// onto the current stack, publish rsp through *save, adopt `to`, then unwind
// the same frame shape in reverse. A fresh context's stack is seeded with
// exactly this frame (see `seed_stack`) whose return address is
// apgas_ctx_boot, which moves the context pointer (parked in r12 by the
// seed) into rdi and calls apgas_ctx_entry.
#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".balign 16",
    ".globl apgas_ctx_switch",
    "apgas_ctx_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".balign 16",
    ".globl apgas_ctx_boot",
    "apgas_ctx_boot:",
    "mov rdi, r12",
    "xor ebp, ebp",
    "call apgas_ctx_entry",
    "ud2",
);

#[cfg(target_arch = "x86_64")]
extern "C" {
    fn apgas_ctx_switch(save: *mut *mut u8, to: *mut u8);
    fn apgas_ctx_boot();
}

#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn ctx_switch(save: *mut *mut u8, to: *mut u8) {
    apgas_ctx_switch(save, to);
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
unsafe fn ctx_switch(_save: *mut *mut u8, _to: *mut u8) {
    unreachable!("M:N place contexts are only implemented for x86_64");
}

/// Bytes of the seeded switch frame: return address + six callee-saved
/// registers + one 8-byte slot for mxcsr/fcw.
const FRAME: usize = 64;

/// Power-on defaults for the x86 FP environment (mxcsr 0x1F80: all
/// exceptions masked; x87 CW 0x037F: 80-bit precision, round-nearest) — what
/// a fresh OS thread would start with.
const FRESH_FPU_WORDS: u64 = 0x1F80 | (0x037F << 32);

thread_local! {
    /// The context currently running on this executor thread, if any. Set
    /// around `resume`, read by `yield_now` from inside the context.
    static CURRENT: Cell<*const PlaceContext> = const { Cell::new(std::ptr::null()) };
}

/// A guard-paged, lazily-committed stack.
struct StackMem {
    base: *mut u8,
    len: usize,
}

impl StackMem {
    fn alloc(usable: usize) -> StackMem {
        let usable = (usable.max(MIN_STACK) + PAGE - 1) & !(PAGE - 1);
        let len = usable + PAGE; // + low guard page
        #[cfg(target_arch = "x86_64")]
        unsafe {
            let p = sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE,
                -1,
                0,
            );
            assert!(
                p as isize != -1,
                "mmap of a {len}-byte context stack failed"
            );
            // Stacks grow down; the lowest page traps runaway recursion with
            // a segfault instead of silent corruption of the neighbour.
            let r = sys::mprotect(p, PAGE, sys::PROT_NONE);
            assert_eq!(r, 0, "mprotect of context-stack guard page failed");
            StackMem {
                base: p as *mut u8,
                len,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = len;
            unreachable!("M:N place contexts are only implemented for x86_64");
        }
    }

    fn top(&self) -> *mut u8 {
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for StackMem {
    fn drop(&mut self) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            sys::munmap(self.base as *mut std::ffi::c_void, self.len);
        }
    }
}

/// Where a context is in the shared pool's schedule (see `executor`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum State {
    /// On the run queue, or about to be pushed there: the next wake is
    /// already answered.
    Queued,
    /// An executor is running it.
    Running,
    /// Running, and woken since it was resumed: its executor queues it
    /// again when it yields.
    Woken,
    /// Yielded with no wake pending: the next wake queues it.
    Idle,
    /// Its entry returned; it never runs again.
    Done,
}

/// Each [`State`] at its `u8` value.
const STATES: [State; 5] = {
    use State::*;
    [Queued, Running, Woken, Idle, Done]
};

/// One place's schedulable context: a worker loop suspended on its own
/// stack. Contexts are identified by their slot in the executor pool; the
/// runtime maps pool slots to hosted place ids.
pub(crate) struct PlaceContext {
    stack: StackMem,
    /// Suspended stack pointer of the context (valid while not running).
    ctx_sp: UnsafeCell<*mut u8>,
    /// Stack pointer of the executor currently running the context.
    exec_sp: UnsafeCell<*mut u8>,
    /// A [`State`], changed only by read-modify-writes (AcqRel), a wake's
    /// included even when it leaves the state as it was. So every wake is
    /// ordered against the swap to `Running` that starts a quantum: before
    /// it, and the quantum sees what the waker sent; after it, and the wake
    /// finds the context running and marks it `Woken`.
    state: AtomicU8,
    entry: UnsafeCell<Option<Box<dyn FnOnce() + Send>>>,
}

// SAFETY: `ctx_sp`/`exec_sp`/`entry` and the stack are only accessed by the
// executor thread that popped the context off the run queue, until it
// yields (or by `new` before the context is shared). The state change at
// the yield and the queue mutex at the next push and pop order those
// accesses (module docs).
unsafe impl Send for PlaceContext {}
unsafe impl Sync for PlaceContext {}

impl PlaceContext {
    pub(crate) fn new(stack_size: usize, entry: Box<dyn FnOnce() + Send>) -> Arc<PlaceContext> {
        if !cfg!(target_arch = "x86_64") {
            panic!("the shared executor (M:N place contexts) requires x86_64");
        }
        let ctx = Arc::new(PlaceContext {
            stack: StackMem::alloc(stack_size),
            ctx_sp: UnsafeCell::new(std::ptr::null_mut()),
            exec_sp: UnsafeCell::new(std::ptr::null_mut()),
            state: AtomicU8::new(State::Queued as u8),
            entry: UnsafeCell::new(Some(entry)),
        });
        ctx.seed_stack();
        ctx
    }

    /// Lay the initial switch frame on the fresh stack so the first `resume`
    /// "returns" into `apgas_ctx_boot` with r12 = this context.
    fn seed_stack(&self) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            // SysV requires rsp ≡ 8 (mod 16) at function entry. The restore
            // path pops FRAME bytes and `apgas_ctx_boot`'s `call` pushes 8,
            // so entering apgas_ctx_entry at sp + FRAME - 8 means sp must be
            // 16-aligned (FRAME is a multiple of 16).
            let top = (self.stack.top() as usize) & !15;
            let sp = top - FRAME;
            let p = sp as *mut u64;
            p.write(FRESH_FPU_WORDS); // [sp+0] mxcsr, [sp+4] x87 CW
            p.add(1).write(0); // r15
            p.add(2).write(0); // r14
            p.add(3).write(0); // r13
            p.add(4).write(self as *const PlaceContext as u64); // r12
            p.add(5).write(0); // rbx
            p.add(6).write(0); // rbp
            p.add(7).write(apgas_ctx_boot as *const () as usize as u64); // return address
            *self.ctx_sp.get() = sp as *mut u8;
        }
    }

    /// Apply `f` to the state as one read-modify-write; `None` leaves it.
    /// Returns the state it found.
    fn update(&self, f: impl Fn(State) -> Option<State>) -> State {
        let step = |s: u8| f(STATES[s as usize]).map(|to| to as u8);
        let found = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, step);
        STATES[found.unwrap_or_else(|s| s) as usize]
    }

    /// Note a wake. An `Idle` context becomes `Queued` and this returns
    /// true: the caller must push it on the run queue. A running one
    /// becomes `Woken`. A queued or woken one keeps its state (written
    /// back, see `state`), and a finished one ignores the wake.
    pub(crate) fn wake(&self) -> bool {
        self.update(|s| match s {
            State::Idle => Some(State::Queued),
            State::Running => Some(State::Woken),
            State::Done => None,
            same => Some(same),
        }) == State::Idle
    }

    /// Run the context on the calling thread until it yields or finishes,
    /// and return the state it yields in: `Idle`, `Woken` (the caller must
    /// queue it again) or `Done`. The caller must have popped it off the
    /// run queue; resuming a context that is not Queued (one another
    /// thread may be running) panics.
    pub(crate) fn resume(&self) -> State {
        let was = self.update(|_| Some(State::Running));
        assert_eq!(was, State::Queued, "resumed a context that was not queued");
        CURRENT.with(|c| c.set(self as *const PlaceContext));
        unsafe { ctx_switch(self.exec_sp.get(), *self.ctx_sp.get()) };
        CURRENT.with(|c| c.set(std::ptr::null()));
        // A Woken context goes straight back to Queued: the caller pushes it.
        let yielded = self.update(|s| match s {
            State::Running => Some(State::Idle),
            State::Woken => Some(State::Queued),
            _ => None,
        });
        match yielded {
            State::Running => State::Idle,
            woken_or_done => woken_or_done,
        }
    }

    /// Switch from the context's stack back to its executor. Only called on
    /// the context's own stack.
    fn switch_out(&self) {
        unsafe { ctx_switch(self.ctx_sp.get(), *self.exec_sp.get()) };
    }
}

/// Yield the currently running place context back to its executor thread.
/// Only a worker on the shared executor calls this (through its
/// `executor::Parker`), so it always runs on a context.
///
/// Never inlined: a context may resume on a different executor thread than
/// the one it yielded on, so no thread-local may be read across a switch.
/// Inlined into a polling loop (`Worker::run_one`'s step-gate poll), the
/// compiler is free to compute `CURRENT`'s address once and reuse it on
/// every iteration, which after a migration reads the *previous* thread's
/// slot: a hang or a wild pointer. Keeping the read behind a call forces a
/// fresh address lookup on whichever thread is running the context now.
#[inline(never)]
pub(crate) fn yield_now() {
    let p = CURRENT.with(|c| c.get());
    assert!(!p.is_null(), "yield_now called off a place context");
    // SAFETY: `p` was set by the executor that resumed us and the context
    // (and its Arc) outlives the suspended stack.
    unsafe { (*p).switch_out() };
}

/// Whether the calling code is running on a place context.
#[cfg(test)]
pub(crate) fn on_context() -> bool {
    CURRENT.with(|c| !c.get().is_null())
}

/// C entry point reached via `apgas_ctx_boot` on the context's own stack.
/// The catch_unwind is load-bearing: a panic must never unwind into the
/// hand-written switch frame below this function.
#[no_mangle]
extern "C" fn apgas_ctx_entry(ctx: *mut PlaceContext) -> ! {
    // SAFETY: seeded by `seed_stack` from a live Arc that the pool keeps
    // alive for as long as the context can run.
    let ctx = unsafe { &*ctx };
    let entry = unsafe { (*ctx.entry.get()).take() };
    if let Some(f) = entry {
        // Worker bodies do their own panic recording (`Worker::main_loop`);
        // this catch only stops the unwind at the stack boundary.
        let _ = catch_unwind(AssertUnwindSafe(f));
    }
    ctx.update(|_| Some(State::Done));
    loop {
        // A finished context is never queued again (a wake ignores it),
        // but being parked here forever is the safe failure mode if one is.
        ctx.switch_out();
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_yields_and_finishes() {
        let steps = Arc::new(AtomicUsize::new(0));
        let s2 = steps.clone();
        let ctx = PlaceContext::new(
            MIN_STACK,
            Box::new(move || {
                assert!(on_context());
                s2.fetch_add(1, Ordering::SeqCst);
                yield_now();
                s2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(!ctx.wake(), "a new context is already queued");
        assert_eq!(ctx.resume(), State::Idle);
        assert_eq!(steps.load(Ordering::SeqCst), 1);
        assert!(ctx.wake(), "an idle context must be queued by a wake");
        assert!(!ctx.wake(), "a second wake finds it queued");
        assert_eq!(ctx.resume(), State::Done);
        assert_eq!(steps.load(Ordering::SeqCst), 2);
        assert!(!ctx.wake(), "a finished context is never queued again");
        assert!(!on_context());
    }

    #[test]
    fn context_panic_is_contained() {
        let ctx = PlaceContext::new(MIN_STACK, Box::new(|| panic!("boom")));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let state = ctx.resume();
        std::panic::set_hook(prev);
        assert_eq!(state, State::Done, "panicking context must still finish");
    }

    #[test]
    fn migrates_between_threads() {
        // Start on one thread, yield, finish on another: the state handoff
        // must carry the stack state across.
        let ctx = PlaceContext::new(
            MIN_STACK,
            Box::new(|| {
                let local = 41u64;
                yield_now();
                assert_eq!(local + 1, 42);
            }),
        );
        assert_eq!(ctx.resume(), State::Idle);
        assert!(ctx.wake());
        let c2 = ctx.clone();
        let state = std::thread::spawn(move || c2.resume()).join().unwrap();
        assert_eq!(state, State::Done);
    }

    #[test]
    fn deep_recursion_fits_in_default_stack() {
        fn rec(n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                std::hint::black_box(n + rec(n - 1))
            }
        }
        let ctx = PlaceContext::new(
            1 << 20,
            Box::new(|| {
                assert_eq!(rec(2000), 2001 * 1000);
            }),
        );
        assert_eq!(ctx.resume(), State::Done);
    }
}
