//! Rank continuations as stackful fibers.
//!
//! A [`Fiber`] is a call stack of its own — `mmap`'d, with a `PROT_NONE` guard
//! page below it — plus a saved stack pointer. [`Fiber::resume`] switches the
//! calling worker thread onto that stack; [`suspend`], called on the fiber,
//! switches back. A switch is one short x86_64 SysV routine: push the
//! callee-saved registers, MXCSR and the x87 control word onto the stack being
//! left, store its stack pointer, load the other one and pop the same state
//! off it. No syscall, no futex: a rank that blocks costs a register swap.
//!
//! The rules every caller keeps:
//!
//! - **Resume only after switch-out.** A fiber that suspends on worker A can be
//!   granted again before A has finished switching away from it. The resumer
//!   therefore waits for the `parked` flag, which A sets once its switch has
//!   returned.
//! - **Nothing unwinds through the assembly.** The body runs under
//!   `catch_unwind` in [`entry`], and the trampoline that calls it ends the
//!   call chain with `.cfi_undefined rip`, so unwinders, backtraces and
//!   profilers stop there.
//! - **No fiber is dropped while suspended.** Its frames would never run their
//!   destructors; dropping one aborts. A fiber's stack is unmapped as soon as
//!   its body has returned.
//! - **Fibers migrate between workers.** A thread-local is per worker, not per
//!   fiber: no lock guard or thread-local borrow may be held across a
//!   [`suspend`].

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "crates/simnet/src/fiber.rs implements the rank context switch for x86_64 Linux only; \
     port `simnet_fiber_switch` and the stack calls there to build on this target"
);

use std::cell::{Cell, UnsafeCell};
use std::ffi::c_void;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// x86_64 Linux base page: the guard's size and the stack's granularity.
const PAGE: usize = 4096;
const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 0x1 | 0x2;
/// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK`.
const MAP_STACK_FLAGS: i32 = 0x02 | 0x20 | 0x4000 | 0x20000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
/// The MXCSR (all exceptions masked, round to nearest) and x87 control word a
/// fresh thread starts with, packed as the switch stores them.
const FP_CONTROL_DEFAULT: usize = 0x037f << 32 | 0x1f80;
/// What the last switch out of a fiber carries: its body has returned.
const EXITED: usize = 1;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    /// Save the callee-saved state on the current stack and its stack pointer
    /// in `*save`, then continue on the stack `to` was saved from. The side
    /// switched to sees `arg` as the return value of its own switch.
    fn simnet_fiber_switch(save: *mut *mut u8, to: *mut u8, arg: usize) -> usize;
    /// A fresh fiber's first return address: calls `r13(r12, rax)`.
    fn simnet_fiber_trampoline();
}

// Each instruction that moves rsp carries its CFI on the same line, so a
// backtrace taken inside the switch still unwinds.
std::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".globl simnet_fiber_switch",
    ".hidden simnet_fiber_switch",
    ".type simnet_fiber_switch, @function",
    "simnet_fiber_switch:",
    ".cfi_startproc",
    "push rbp; .cfi_adjust_cfa_offset 8; .cfi_rel_offset rbp, 0",
    "push rbx; .cfi_adjust_cfa_offset 8; .cfi_rel_offset rbx, 0",
    "push r12; .cfi_adjust_cfa_offset 8; .cfi_rel_offset r12, 0",
    "push r13; .cfi_adjust_cfa_offset 8; .cfi_rel_offset r13, 0",
    "push r14; .cfi_adjust_cfa_offset 8; .cfi_rel_offset r14, 0",
    "push r15; .cfi_adjust_cfa_offset 8; .cfi_rel_offset r15, 0",
    "sub rsp, 8; .cfi_adjust_cfa_offset 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    // The other stack holds the same frame layout, so the CFI stays valid.
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8; .cfi_adjust_cfa_offset -8",
    "pop r15; .cfi_adjust_cfa_offset -8",
    "pop r14; .cfi_adjust_cfa_offset -8",
    "pop r13; .cfi_adjust_cfa_offset -8",
    "pop r12; .cfi_adjust_cfa_offset -8",
    "pop rbx; .cfi_adjust_cfa_offset -8",
    "pop rbp; .cfi_adjust_cfa_offset -8",
    "mov rax, rdx",
    "ret",
    ".cfi_endproc",
    ".size simnet_fiber_switch, . - simnet_fiber_switch",
    // A fresh fiber's first switch returns here with r12 = body, r13 = entry
    // and rax = its context; the call chain ends here for every unwinder.
    ".globl simnet_fiber_trampoline",
    ".hidden simnet_fiber_trampoline",
    ".type simnet_fiber_trampoline, @function",
    "simnet_fiber_trampoline:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "mov rsi, rax",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size simnet_fiber_trampoline, . - simnet_fiber_trampoline",
);

thread_local! {
    /// The fiber this thread is running, null on a plain thread.
    static CURRENT: Cell<*const Context> = const { Cell::new(std::ptr::null()) };
}

/// A fiber stack: `bytes` usable, one guard page below, unmapped on drop.
struct Stack {
    base: *mut c_void,
    len: usize,
}

impl Stack {
    fn new(bytes: usize) -> Self {
        let len = bytes.next_multiple_of(PAGE) + PAGE;
        // SAFETY: an anonymous private mapping at an address the kernel picks
        // aliases no existing memory.
        let base =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ_WRITE, MAP_STACK_FLAGS, -1, 0) };
        assert!(base != MAP_FAILED, "mmap of a {len}-byte fiber stack failed");
        // SAFETY: the first page lies inside the mapping just made and nothing
        // points into it yet.
        let guarded = unsafe { mprotect(base, PAGE, PROT_NONE) };
        assert_eq!(guarded, 0, "mprotect of a fiber stack's guard page failed");
        Self { base, len }
    }

    /// One past the highest usable byte (page-aligned, so 16-byte aligned).
    fn top(&self) -> *mut usize {
        self.base.cast::<u8>().wrapping_add(self.len).cast()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base..base + len` is exactly the mapping `new` made, and a
        // stack is dropped only once no frame lives on it.
        unsafe { munmap(self.base, self.len) };
    }
}

/// The part of a fiber its own code switches through.
struct Context {
    /// The fiber's stack pointer while it is suspended.
    sp: UnsafeCell<*mut u8>,
    /// The resuming thread's stack pointer while the fiber runs.
    caller: UnsafeCell<*mut u8>,
    /// Set once the switch out of the fiber has returned on its worker;
    /// cleared by the next resumer.
    parked: AtomicBool,
}

/// A rank's continuation: a body that runs on its own stack and can
/// [`suspend`] back to whichever thread resumed it.
pub(crate) struct Fiber<'a> {
    ctx: Context,
    /// `Some` until the body has returned and switched out for the last time.
    stack: UnsafeCell<Option<Stack>>,
    /// The body (boxed, consumed by [`entry`]) may borrow for `'a`.
    _body: PhantomData<Box<dyn FnOnce() + Send + 'a>>,
}

// SAFETY: a fiber is shared by reference among the worker threads. `ctx.sp`,
// `ctx.caller` and `stack` are read and written only by the one thread that
// resumes the fiber, or by the fiber itself while it runs on that thread; the
// scheduler grants a suspended fiber to one resumer at a time, and `parked`
// (Release on switch-out, Acquire before switch-in) orders each handover.
// `parked` is atomic. The body is only ever called on the fiber's stack and
// is `Send`.
unsafe impl Sync for Fiber<'_> {}

impl<'a> Fiber<'a> {
    /// A suspended fiber that will run `body` on a fresh `stack_bytes` stack
    /// when first resumed.
    pub(crate) fn new<F: FnOnce() + Send + 'a>(stack_bytes: usize, body: F) -> Self {
        let stack = Stack::new(stack_bytes);
        let entry: extern "C" fn(*mut F, *const Context) -> ! = entry::<F>;
        // The frame `simnet_fiber_switch` pops: control words, r15, r14, r13 =
        // entry, r12 = body, rbx, rbp = 0 (ends frame-pointer walks), return
        // address = trampoline. Its `ret` leaves rsp 16-byte aligned for the
        // trampoline's call.
        let frame = [
            FP_CONTROL_DEFAULT,
            0,
            0,
            entry as usize,
            Box::into_raw(Box::new(body)) as usize,
            0,
            0,
            simnet_fiber_trampoline as *const () as usize,
        ];
        let sp = stack.top().wrapping_sub(frame.len() + 2);
        // SAFETY: the frame's 8 words and the 2 above it are inside the
        // mapping's writable top, which nothing else references yet.
        unsafe { sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len()) };
        Self {
            ctx: Context {
                sp: UnsafeCell::new(sp.cast()),
                caller: UnsafeCell::new(std::ptr::null_mut()),
                parked: AtomicBool::new(true),
            },
            stack: UnsafeCell::new(Some(stack)),
            _body: PhantomData,
        }
    }

    /// Run the fiber on this thread until it suspends or its body returns;
    /// `true` once it has returned (its stack is then unmapped). The caller
    /// must hold the only grant of this fiber, and must not call this from
    /// the fiber itself.
    pub(crate) fn resume(&self) -> bool {
        let ctx = &self.ctx;
        while !ctx.parked.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        ctx.parked.store(false, Ordering::Relaxed);
        let outer = CURRENT.replace(ctx as *const Context);
        // SAFETY: the fiber is suspended (or fresh) and ours alone, so `sp`
        // holds a frame `simnet_fiber_switch` can pop; `caller` receives ours.
        let arg = unsafe {
            simnet_fiber_switch(ctx.caller.get(), *ctx.sp.get(), ctx as *const _ as usize)
        };
        CURRENT.set(outer);
        let exited = arg == EXITED;
        if exited {
            // SAFETY: the body returned and its last switch completed, so no
            // frame lives on the stack and no other thread touches `stack`.
            unsafe { *self.stack.get() = None };
        }
        ctx.parked.store(true, Ordering::Release);
        exited
    }
}

impl Drop for Fiber<'_> {
    fn drop(&mut self) {
        if self.stack.get_mut().is_some() {
            eprintln!("simnet: a fiber was dropped while suspended; its frames can never unwind");
            std::process::abort();
        }
    }
}

/// Switch from the running fiber back to the thread that resumed it; returns
/// when a worker resumes the fiber again. Never inlined: the thread-local is
/// read here, before the switch, and on no thread after it.
#[inline(never)]
pub(crate) fn suspend() {
    let ctx = CURRENT.get();
    assert!(!ctx.is_null(), "suspend called outside a fiber");
    // SAFETY: `ctx` is the running fiber's context, set by the `resume` that
    // is waiting for this switch on this thread with its frame in `caller`.
    unsafe { simnet_fiber_switch((*ctx).sp.get(), *(*ctx).caller.get(), 0) };
}

/// A fiber's first Rust frame: run the body, then switch out for good.
extern "C" fn entry<F: FnOnce()>(body: *mut F, ctx: *const Context) -> ! {
    // SAFETY: `body` is the box `Fiber::new` leaked for this fiber, and the
    // trampoline enters each fiber once.
    let body = unsafe { Box::from_raw(body) };
    if catch_unwind(AssertUnwindSafe(body)).is_err() {
        eprintln!("simnet: a panic escaped a fiber's body");
        std::process::abort();
    }
    // SAFETY: `ctx` is this fiber's context, passed by the `resume` that first
    // switched in and now waits with its frame in `caller`; it unmaps the
    // stack only after this switch.
    unsafe { simnet_fiber_switch((*ctx).sp.get(), *(*ctx).caller.get(), EXITED) };
    // An exited fiber is never resumed.
    std::process::abort()
}
