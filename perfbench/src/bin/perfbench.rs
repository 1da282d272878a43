//! Untraced run: end-to-end metrics on the system allocator.

fn main() -> std::process::ExitCode {
    perfbench::main(false)
}
