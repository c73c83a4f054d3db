//! Lending: a send whose payload is a slice the sender only borrows.
//!
//! Inside [`crate::Net::lending`] a rank may [`lend`](crate::Comm::lend) a
//! `&[f32]` to a peer, the way an `MPI_Isend` hands MPI the caller's own
//! array: the envelope carries a pointer to the slice, and the receiver reads
//! it in place with [`recv_lent`](crate::Comm::recv_lent) instead of taking a
//! copy. A lent message is stamped, ledgered, traced and chaos-drawn exactly
//! like a `send` of the same length, so no modeled number can tell the two
//! apart.
//!
//! **The loan rule.** Lent memory is read-only for the length of the scope:
//! the scope holds it borrowed (`&'a [f32]`), so the lender cannot write it.
//! And a lender cannot leave the scope while a reader may still read: its
//! [`Loans`] lives on the lender's stack and counts the loans nobody has
//! released yet, plus one while the lender is inside the scope. Leaving, the
//! lender drops its own count; if loans are still out it waits for one
//! internal envelope, tagged [`REPAID`], which the reader whose release takes
//! the count to zero posts. That envelope charges no clock, ledger entry or
//! metric, and it wakes the lender through the engine's ordinary claim/park
//! protocol, so the engine keeps no loan state. It is keyed as if it came
//! from the scope's first borrower, whoever reads last: a parking lender's
//! wait then names a rank that still has to read, and the scheduler's
//! wait-for walk runs that rank next if it is ready.
//!
//! **Unwinding.** A lender that unwinds out of the scope (its own panic, or
//! the run's teardown) sets the scope's revoke flag, withdraws every loan
//! still sitting in an inbox and waits until no reader holds one. A reader
//! that takes a loan checks the flag *after* its loan is counted, so either it
//! sees the flag and reads nothing, or the lender sees its count and waits
//! for it; either way no reader reads a slice, or the count, of a frame that
//! is gone. Only a lender that has already stopped holding the scope (it was
//! waiting for [`REPAID`] when the run was torn down) can meet a reader's
//! repayment, and then the run has faulted, so nothing waits for it again.
//!
//! This module holds the crate's only unsafe code outside `fiber.rs`.

use crate::comm::Tag;
use crate::engine::{self, EventCore};
use crate::envelope::{Envelope, Payload};
use std::cell::{Cell, OnceCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

/// Tag of the envelope that tells a lender its last loan was read.
pub(crate) const REPAID: Tag = Tag::MAX;

/// What every loan of a scope points at.
struct Scope {
    /// Loans not yet released, plus one while the lender holds the scope.
    outstanding: AtomicUsize,
    /// Set when the lender unwinds out of the scope: a reader that sees it
    /// reads nothing.
    revoked: AtomicBool,
}

/// Where a lending scope is on its way out.
#[derive(Clone, Copy, PartialEq)]
enum Stage {
    /// The body runs; `outstanding` counts the lender's hold.
    Open,
    /// The lender dropped its hold and waits for [`REPAID`].
    Settling,
    /// Every loan was read.
    Settled,
}

/// A lending scope, opened by [`crate::Net::lending`] on the lender's stack.
///
/// A slice lent through it ([`crate::Net::lend`]) must be borrowed for `'a`,
/// which outlives the whole `lending` call, so the lender cannot change or
/// free it while a reader may read it; `lending` returns only once every
/// slice lent through the scope has been read. `Loans` is invariant in `'a`
/// and neither `Send` nor `Sync`: it cannot lend shorter-lived memory or
/// leave its rank.
pub struct Loans<'a> {
    scope: Scope,
    /// The lender's rank, the first borrower's and the run's core, bound by
    /// the first loan.
    bound: OnceCell<(u32, u32, Arc<EventCore>)>,
    stage: Cell<Stage>,
    _lent: PhantomData<(Cell<&'a [f32]>, *const ())>,
}

impl<'a> Loans<'a> {
    pub(crate) fn new() -> Self {
        Self {
            scope: Scope { outstanding: AtomicUsize::new(1), revoked: AtomicBool::new(false) },
            bound: OnceCell::new(),
            stage: Cell::new(Stage::Open),
            _lent: PhantomData,
        }
    }

    /// Count a loan of `data` by `rank` to `dst`, whose envelopes `core`
    /// carries.
    pub(crate) fn lend(
        &self,
        rank: usize,
        dst: usize,
        core: &Arc<EventCore>,
        data: &'a [f32],
    ) -> Loan {
        let ids = |r: usize| u32::try_from(r).expect("rank ids fit in 32 bits");
        let &(lender, key, ref core) =
            self.bound.get_or_init(|| (ids(rank), ids(dst), Arc::clone(core)));
        assert_eq!(lender, ids(rank), "a lending scope lends its own rank's memory");
        self.scope.outstanding.fetch_add(1, SeqCst);
        let core = Arc::as_ptr(core);
        Loan { data: data.as_ptr(), len: data.len(), scope: &self.scope, lender, key, core }
    }

    /// Leave the scope: drop the lender's hold and, unless that was the last
    /// count, park until the last reader's [`REPAID`] arrives. `clock` is the
    /// lender's virtual time, its ready-queue priority if it parks.
    pub(crate) fn settle(&self, clock: f64) {
        let Some(&(lender, key, ref core)) = self.bound.get() else { return };
        self.stage.set(Stage::Settling);
        if self.scope.outstanding.fetch_sub(1, SeqCst) != 1 {
            let env = core.next_envelope(lender as usize, key as usize, REPAID, clock);
            debug_assert!(matches!(env.payload, Payload::Repaid));
        }
        self.stage.set(Stage::Settled);
    }
}

impl Drop for Loans<'_> {
    /// Only a lender that unwinds out of an unsettled scope gets past the
    /// first two lines: revoke, withdraw the loans nobody took, and wait
    /// until no reader holds one.
    fn drop(&mut self) {
        let Some((_, _, core)) = self.bound.get() else { return };
        let floor = match self.stage.get() {
            Stage::Settled => return,
            Stage::Open => 1,
            Stage::Settling => 0,
        };
        self.scope.revoked.store(true, SeqCst);
        let scope: *const Scope = &self.scope;
        // Dropped outside every inbox lock; each releases its count.
        drop(core.withdraw(|env| matches!(&env.payload, Payload::Lent(l) if l.scope == scope)));
        // A reader holds a loan only between taking it and returning from
        // `recv_lent`, with no blocking call in between, so this waits for
        // ranks running on other workers and never for a parked one.
        while self.scope.outstanding.load(SeqCst) != floor {
            std::thread::yield_now();
        }
    }
}

/// A lent slice in flight: the payload of one envelope. Dropping it releases
/// its count in the scope, and the release that empties a settling scope
/// posts the lender's [`REPAID`].
pub(crate) struct Loan {
    data: *const f32,
    len: usize,
    scope: *const Scope,
    /// The lender, and the source its wait for [`REPAID`] is keyed on; 32-bit
    /// ids keep a `Loan` (40 bytes) inside the 48 an envelope's payload
    /// already takes for the COO pair.
    lender: u32,
    key: u32,
    core: *const EventCore,
}

// SAFETY: a `Loan` only reads through its pointers. The slice is borrowed
// shared (`&'a [f32]`, `f32: Sync`) for as long as the loan is counted, the
// scope's fields are atomics, and the core is `Sync`; every one of them
// outlives the count the loan holds (module docs).
unsafe impl Send for Loan {}

impl Loan {
    /// Run `read` on the lent slice, then release the loan (on unwinding
    /// too). If the lender has revoked the scope, release it unread and
    /// unwind with the run's teardown.
    pub(crate) fn read<R>(self, read: impl FnOnce(&[f32]) -> R) -> R {
        // SAFETY: `self` is counted in the scope until it drops, and the
        // lender keeps its `Loans`, where the scope lives, until the count
        // allows.
        let scope = unsafe { &*self.scope };
        if scope.revoked.load(SeqCst) {
            drop(self);
            engine::cascade();
        }
        // SAFETY: unrevoked and counted, so the lender is still inside its
        // scope and holds the `&'a [f32]` this loan was made from, shared and
        // alive, until `self` drops at the end of this call.
        read(unsafe { std::slice::from_raw_parts(self.data, self.len) })
    }
}

impl Drop for Loan {
    fn drop(&mut self) {
        // SAFETY: this loan is still counted, so the scope is alive (`read`).
        let scope = unsafe { &*self.scope };
        let revoked = scope.revoked.load(SeqCst);
        // After this decrement the scope may be gone: only copies are used.
        // An unwinding reader posts nothing (its fault tears the run down and
        // wakes the lender), so a torn-down run's `post` can unwind this drop
        // only when nothing else is unwinding.
        if scope.outstanding.fetch_sub(1, SeqCst) == 1 && !revoked && !std::thread::panicking() {
            // SAFETY: the core outlives every envelope, and this loan came
            // out of one of its inboxes.
            let core = unsafe { &*self.core };
            let poster = engine::current_rank().expect("a loan is released on a rank's fiber");
            let repaid = Envelope {
                src: self.key as usize,
                tag: REPAID,
                head_arrival: f64::NEG_INFINITY,
                elems: 0,
                beta: 0.0,
                perturbed: false,
                payload: Payload::Repaid,
            };
            core.post(poster, self.lender as usize, repaid);
        }
    }
}
