//! Fixture: sequentially consistent claims.

fn claim(cursor: &AtomicUsize) -> usize {
    cursor.fetch_add(1, Ordering::SeqCst)
}
