//! Offline shim for `parking_lot` (API subset used by this workspace).
//!
//! Wraps `std::sync::Mutex` behind parking_lot's non-poisoning interface:
//! `lock()` returns the guard directly and a panicked holder does not poison
//! the lock for everyone else (poison errors are unwrapped into the inner
//! guard, matching parking_lot's semantics of simply releasing the lock).

use std::ops::{Deref, DerefMut};
use std::sync;

/// A mutex whose `lock` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

/// RAII guard of [`Mutex::lock`].
pub struct MutexGuard<'a, T> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// A new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Self { inner: sync::Mutex::new(value) }
    }

    /// Acquire the lock, blocking; ignores poisoning like parking_lot does.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = self.inner.lock().unwrap_or_else(sync::PoisonError::into_inner);
        MutexGuard { inner }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }
}
