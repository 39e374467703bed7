//! The timed end-to-end run (`--trace 0`).

fn main() -> std::process::ExitCode {
    vardelay_perfbench::main(false)
}
