//! Fixture: a relaxed claim on a scheduling atomic.

fn claim(cursor: &AtomicUsize) -> usize {
    cursor.fetch_add(1, Ordering::Relaxed)
}
