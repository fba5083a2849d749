//! Fixture: an inline allow suppresses the `wallclock-entropy` rule.

fn init(params: &Params) -> StdRng {
    // lint:allow(wallclock-entropy) params.seed arrives through configuration
    StdRng::seed_from_u64(params.seed)
}
