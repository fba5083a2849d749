//! Fixture: an inline allow suppresses the `print-in-shipping` rule.

fn report(batch: u64) {
    // lint:allow(print-in-shipping) last-resort diagnostic on a failed journal
    eprintln!("journal lost at batch {batch}");
}
