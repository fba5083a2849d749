//! Broadcast variables — shipping the micro-cluster model to every task.
//!
//! [`Broadcast::new`] moves a value in; [`Broadcast::from_arc`] shares one
//! the caller keeps in an [`Arc`] — the driver's own model `Q_t`, which it
//! then updates copy-on-write ([`Arc::make_mut`]): the update copies `Q_t`
//! only while a task still holds the broadcast, and writes in place once
//! every handle has dropped.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use serde::Serialize;

use crate::codec::serialized_size;

/// A read-only value shared with every task of a step, like Spark's
/// broadcast variables.
///
/// At the start of each batch-by-batch feedback loop, DistStream broadcasts
/// "the entire micro-cluster set `Q_t` to each task" (§V-A). In-process the
/// share is an [`Arc`] clone; the *cost* of the broadcast — `p` copies of
/// the serialized value over the network — is captured once at construction
/// as [`Broadcast::payload_bytes`], which the batch's `broadcast_bytes`
/// record for a network model to price.
///
/// # Examples
///
/// ```
/// use diststream_engine::Broadcast;
///
/// let model = Broadcast::new(vec![1.0f64; 100]);
/// assert_eq!(model.payload_bytes(), 8 + 800);
/// assert_eq!(model.len(), 100); // Deref to the inner value
/// ```
pub struct Broadcast<T> {
    value: Arc<T>,
    payload_bytes: u64,
}

impl<T: Serialize> Broadcast<T> {
    /// Wraps `value` for sharing, recording its serialized size.
    pub fn new(value: T) -> Self {
        Broadcast::from_arc(Arc::new(value))
    }

    /// Shares a value the caller already holds in an [`Arc`], without
    /// copying it, recording its serialized size.
    pub fn from_arc(value: Arc<T>) -> Self {
        let payload_bytes = serialized_size(&*value);
        Broadcast {
            value,
            payload_bytes,
        }
    }
}

impl<T> Broadcast<T> {
    /// Serialized size of the broadcast payload, in bytes (one copy).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// A shared handle for moving into a task closure.
    pub fn handle(&self) -> Arc<T> {
        Arc::clone(&self.value)
    }
}

impl<T> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Broadcast {
            value: Arc::clone(&self.value),
            payload_bytes: self.payload_bytes,
        }
    }
}

impl<T> Deref for Broadcast<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Broadcast<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broadcast")
            .field("payload_bytes", &self.payload_bytes)
            .field("value", &*self.value)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_size_recorded() {
        let b = Broadcast::new(7u64);
        assert_eq!(b.payload_bytes(), 8);
    }

    #[test]
    fn clones_share_the_value() {
        let b = Broadcast::new(vec![1, 2, 3]);
        let c = b.clone();
        assert!(Arc::ptr_eq(&b.handle(), &c.handle()));
        assert_eq!(c.payload_bytes(), b.payload_bytes());
    }

    #[test]
    fn from_arc_shares_the_callers_value() {
        let mut model = Arc::new(vec![1u64, 2, 3]);
        let b = Broadcast::from_arc(Arc::clone(&model));
        assert!(Arc::ptr_eq(&b.handle(), &model));
        assert_eq!(
            b.payload_bytes(),
            Broadcast::new(vec![1u64, 2, 3]).payload_bytes()
        );
        // A write while the broadcast is alive copies; the tasks' view stays.
        Arc::make_mut(&mut model).push(4);
        assert_eq!(*b, vec![1, 2, 3]);
        // Once it has dropped, the writer owns its value again.
        drop(b);
        let before = Arc::as_ptr(&model);
        Arc::make_mut(&mut model).push(5);
        assert_eq!(Arc::as_ptr(&model), before);
    }

    #[test]
    fn deref_reaches_inner() {
        let b = Broadcast::new(String::from("model"));
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn handle_moves_into_threads() {
        let b = Broadcast::new(vec![1u64, 2, 3]);
        let h = b.handle();
        let sum: u64 = std::thread::spawn(move || h.iter().sum()).join().unwrap();
        assert_eq!(sum, 6);
    }

    #[test]
    fn debug_is_nonempty() {
        let b = Broadcast::new(1u8);
        assert!(format!("{b:?}").contains("payload_bytes"));
    }
}
