//! `figures <name | all | list> [--full]` — see [`dppr_bench::figures`].

fn main() -> std::process::ExitCode {
    dppr_bench::figures::main()
}
