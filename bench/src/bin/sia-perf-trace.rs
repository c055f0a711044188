//! The traced binary: the same program with a counting allocator, so the
//! traced run can report allocations per operation. End-to-end numbers
//! never come from this binary.

#[global_allocator]
static ALLOCATOR: sia_perf::alloc::Counting = sia_perf::alloc::Counting;

fn main() -> std::process::ExitCode {
    sia_perf::cli::main(true)
}
