use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let process_start = Instant::now();
    diststream_benchmark::cli::main(process_start, std::env::args().skip(1).collect())
}
