//! Fixture: wall-clock reads and RNG construction in an operator.

fn jitter() -> f64 {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(7);
    let _wall = SystemTime::now();
    rng.gen::<f64>() + started.elapsed().as_secs_f64()
}
