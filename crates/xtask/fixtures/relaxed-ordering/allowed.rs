//! Fixture: an inline allow suppresses the `relaxed-ordering` rule.

fn count(events: &AtomicU64) {
    // lint:allow(relaxed-ordering) a statistic; it publishes no other data
    events.fetch_add(1, Ordering::Relaxed);
}
