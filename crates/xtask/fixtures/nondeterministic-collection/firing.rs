//! Fixture: a hash map in shipping code, iterated into model state.

use std::collections::HashMap;

fn merge(weights: &HashMap<u64, f64>) -> Vec<(u64, f64)> {
    weights.iter().map(|(id, w)| (*id, *w)).collect()
}
