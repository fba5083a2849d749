//! Fixture: the information goes back to the caller; tests may print.

fn report(batch: u64) -> String {
    format!("batch {batch} done")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_print() {
        println!("{}", super::report(1));
    }
}
