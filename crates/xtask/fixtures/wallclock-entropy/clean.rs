//! Fixture: time and randomness arrive from the driver.

fn jitter(rng: &mut StdRng, now: Timestamp) -> f64 {
    rng.gen::<f64>() + now.as_secs()
}
