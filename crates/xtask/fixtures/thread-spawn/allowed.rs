//! Fixture: an inline allow suppresses the `thread-spawn` rule.

fn reader(slot: SnapshotReader) {
    // lint:allow(thread-spawn) a serving reader is outside the batch protocol
    std::thread::spawn(move || slot.poll());
}
