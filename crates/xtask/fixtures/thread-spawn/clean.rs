//! Fixture: parallelism routed through the pool; tests may spawn.

fn squares(pool: &TaskPool, xs: Vec<u64>) -> Result<Vec<u64>> {
    Ok(pool.run(xs, &|_, x| x * x)?.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_spawn() {
        std::thread::spawn(|| {}).join().unwrap();
    }
}
