//! Internal message envelope passed between ranks.
//!
//! The payload is a small enum with *inline* variants for the two hot wire
//! shapes (`Vec<f32>` dense chunks and COO index/value pairs), so a
//! steady-state send moves a `Vec`'s `(ptr, len, cap)` triple through the
//! channel without any per-message heap allocation. Everything else falls back
//! to the old `Box<dyn Any>` type erasure, and fan-out traffic (broadcast,
//! allgather) can share one reference-counted buffer across P−1 destinations.
//! A lent slice (`loan.rs`) travels as a pointer into the lender's memory.

use crate::loan::Loan;
use std::any::Any;
use std::sync::Arc;

/// Type-erased message body with inline fast paths for the hot payload shapes.
pub(crate) enum Payload {
    /// Dense value chunk (gradient slices, reduce-scatter/allgather chunks).
    F32(Vec<f32>),
    /// COO gradient as (indexes, values) — the paper's 2k-element sparse format.
    Pair(Vec<u32>, Vec<f32>),
    /// Reference-counted payload shared across a fan-out: one buffer serves
    /// every destination of a broadcast or allgather relay.
    Shared(Arc<dyn Any + Send + Sync>),
    /// Fallback for arbitrary message types.
    Boxed(Box<dyn Any + Send>),
    /// A slice the sender lends from inside a lending scope (`loan.rs`).
    Lent(Loan),
    /// Header only: the last reader of a lender's loans wakes it.
    Repaid,
}

/// Move a concrete `S` into a `T` if (and only if) they are the same runtime
/// type. This is the `Option` dance: wrapping the value lets it be moved out
/// through a `&mut dyn Any` without consuming the original binding on failure.
fn reclaim<T: 'static, S: 'static>(value: S) -> Result<T, S> {
    let mut slot = Some(value);
    match (&mut slot as &mut dyn Any).downcast_mut::<Option<T>>() {
        Some(s) => Ok(s.take().unwrap()),
        None => Err(slot.unwrap()),
    }
}

impl Payload {
    /// Wrap a value for the wire, moving it into an inline variant when it is
    /// one of the hot shapes (no heap allocation) and boxing it otherwise.
    pub(crate) fn from_value<T: Send + 'static>(value: T) -> Self {
        let value = match reclaim::<Vec<f32>, T>(value) {
            Ok(v) => return Payload::F32(v),
            Err(v) => v,
        };
        let value = match reclaim::<(Vec<u32>, Vec<f32>), T>(value) {
            Ok((idx, val)) => return Payload::Pair(idx, val),
            Err(v) => v,
        };
        Payload::Boxed(Box::new(value))
    }

    /// Unwrap into a concrete `T`, or report what the payload actually was.
    pub(crate) fn into_value<T: Send + 'static>(self) -> Result<T, &'static str> {
        match self {
            Payload::F32(v) => reclaim(v).map_err(|_| "Vec<f32>"),
            Payload::Pair(idx, val) => reclaim((idx, val)).map_err(|_| "(Vec<u32>, Vec<f32>)"),
            Payload::Shared(_) => Err("an Arc-shared payload (use recv_shared)"),
            Payload::Boxed(b) => {
                b.downcast::<T>().map(|b| *b).map_err(|_| "a boxed payload of another type")
            }
            Payload::Lent(_) => Err("a lent slice (use recv_lent)"),
            Payload::Repaid => Err("a loan's repayment"),
        }
    }

    /// Unwrap a shared payload into `Arc<T>`.
    pub(crate) fn into_shared<T: Send + Sync + 'static>(self) -> Result<Arc<T>, &'static str> {
        match self {
            Payload::Shared(arc) => arc.downcast::<T>().map_err(|_| "an Arc of another type"),
            _ => Err("a non-shared payload (use recv)"),
        }
    }
}

/// A message in flight between two ranks.
///
/// Timing fields are computed by the *sender* from its own virtual clock; the
/// receiver combines them with its reception-port state to produce the modeled
/// completion time.
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: u64,
    /// Modeled time at which the head of the message reaches the receiver
    /// (injection start + effective α, including any injected jitter).
    pub head_arrival: f64,
    /// Body size in 4-byte wire elements.
    pub elems: u64,
    /// Effective per-element link time for this message. The sender evaluates
    /// any chaos link degradation once at injection start and carries the
    /// result here, so both endpoints charge the *same* β for the same bytes;
    /// with no chaos plan this is exactly `cost.link(src, dst).1`.
    pub beta: f64,
    /// Whether a chaos plan perturbed this message's timing (for trace tagging).
    pub perturbed: bool,
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_shapes_take_inline_variants() {
        assert!(matches!(Payload::from_value(vec![1.0f32]), Payload::F32(_)));
        assert!(matches!(Payload::from_value((vec![1u32], vec![1.0f32])), Payload::Pair(_, _)));
        assert!(matches!(Payload::from_value("other"), Payload::Boxed(_)));
        // Other vectors take the boxed fallback and still round-trip.
        assert!(matches!(Payload::from_value(vec![1u32]), Payload::Boxed(_)));
        let v = vec![1.0f64, -2.0];
        assert_eq!(Payload::from_value(v.clone()).into_value::<Vec<f64>>().unwrap(), v);
        // An `Option` wrapper is a *different* runtime type: no false positives.
        assert!(matches!(Payload::from_value(Some(vec![1.0f32])), Payload::Boxed(_)));
    }

    #[test]
    fn round_trips_preserve_values() {
        let v: Vec<f32> = vec![1.0, 2.0];
        assert_eq!(Payload::from_value(v.clone()).into_value::<Vec<f32>>().unwrap(), v);
        let pair = (vec![3u32, 9], vec![0.5f32, -0.5]);
        assert_eq!(
            Payload::from_value(pair.clone()).into_value::<(Vec<u32>, Vec<f32>)>().unwrap(),
            pair
        );
        let boxed = Payload::from_value((1u8, 2u8));
        assert_eq!(boxed.into_value::<(u8, u8)>().unwrap(), (1, 2));
    }

    #[test]
    fn mismatches_report_what_was_found() {
        let err = Payload::from_value(vec![1.0f32]).into_value::<Vec<u32>>().unwrap_err();
        assert_eq!(err, "Vec<f32>");
        let err = Payload::Shared(Arc::new(vec![1.0f32])).into_value::<Vec<f32>>().unwrap_err();
        assert!(err.contains("recv_shared"));
    }
}
