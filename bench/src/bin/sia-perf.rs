//! The untraced binary: system allocator, no spans.

fn main() -> std::process::ExitCode {
    sia_perf::cli::main(false)
}
