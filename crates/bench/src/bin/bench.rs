//! `bench <name>|list|all`: see [`bpfstor_bench::cli`].

fn main() -> std::process::ExitCode {
    bpfstor_bench::cli::main()
}
