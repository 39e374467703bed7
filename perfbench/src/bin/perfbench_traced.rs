//! The traced per-layer run (`--trace 1`), the only build that counts
//! heap allocations.

#[global_allocator]
static ALLOC: vardelay_perfbench::alloc::CountingAlloc = vardelay_perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    vardelay_perfbench::main(true)
}
