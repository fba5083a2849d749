//! Fixture: library code writing to the terminal.

fn report(batch: u64) {
    println!("batch {batch} done");
    eprintln!("batch {batch} was slow");
}
