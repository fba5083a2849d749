//! `repro <subcommand>`: every committed number of the reproduction, from
//! one binary. See `diststream_bench::repro` and README "Reproducing the
//! paper".

fn main() -> std::process::ExitCode {
    diststream_bench::repro(std::env::args().skip(1))
}
