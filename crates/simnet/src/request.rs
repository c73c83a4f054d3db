//! The send handle [`crate::Comm::isend`] returns.
//!
//! Sends are DMA-style: ownership of the buffer transfers at `isend`/`send`
//! and the injection port is charged immediately, so a [`SendHandle`] is
//! already complete when constructed; its `wait` exists for MPI-shaped
//! symmetry and its [`complete_at`](SendHandle::complete_at) exposes when the
//! message has fully left the injection port.
//!
//! There is no receive handle. A receive is charged where `recv` is called,
//! and overlap comes from program order: a message drains through the
//! reception port concurrently with local compute, because its port-busy
//! interval `[max(head_arrival, port_free), …+β·L)` never depends on the
//! receiver's clock. Code that sends, runs `compute`, then calls `recv`
//! finishes at `max(now + c, done)` instead of `max(now, done) + c`.

/// Handle for a posted nonblocking send.
#[derive(Clone, Copy, Debug)]
pub struct SendHandle {
    complete_at: f64,
}

impl SendHandle {
    pub(crate) fn new(complete_at: f64) -> Self {
        Self { complete_at }
    }

    /// Modeled time at which the message has fully left this rank's injection
    /// port (`injection start + β·L`).
    pub fn complete_at(&self) -> f64 {
        self.complete_at
    }

    /// Complete the send. Injection is DMA-style — buffer ownership moved at
    /// `isend` and the sender's clock never blocks on its own injection port —
    /// so this is a no-op; the port occupancy is still visible to
    /// [`crate::Comm::local_finish_time`] and barriers.
    pub fn wait(self) {}
}
