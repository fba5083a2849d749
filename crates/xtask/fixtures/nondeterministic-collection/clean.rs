//! Fixture: an ordered map iterates in key order on every run.

use std::collections::BTreeMap;

fn merge(weights: &BTreeMap<u64, f64>) -> Vec<(u64, f64)> {
    weights.iter().map(|(id, w)| (*id, *w)).collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
}
