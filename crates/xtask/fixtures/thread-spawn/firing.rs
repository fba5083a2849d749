//! Fixture: an ad-hoc thread beside the task pool.

fn background(work: impl FnOnce() + Send + 'static) {
    std::thread::spawn(work);
    let _named = std::thread::Builder::new().name("side".into());
}
