//! Fixture: an inline allow suppresses the `nondeterministic-collection` rule.

// lint:allow(nondeterministic-collection) lookup only, never iterated
use std::collections::HashMap;

// lint:allow(nondeterministic-collection) lookup only, never iterated
fn slot_of(slots: &HashMap<u64, usize>, key: u64) -> Option<usize> {
    slots.get(&key).copied()
}
