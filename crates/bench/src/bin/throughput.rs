//! Measures the parallel execution engine against serial execution: the
//! DATE'23 evaluation sweep, a tile-parallel cycle-accurate GEMM and the
//! wavefront cycle kernel (the speedup table of `EXPERIMENTS.md`).
//!
//! Pass `--threads N` to pin the worker count (default: all cores) and
//! `--json` for machine-readable output.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut threads = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            threads = args
                .next()
                .ok_or("--threads needs a value")?
                .parse::<usize>()?;
        }
    }
    let rows = bench::experiments::throughput(threads)?;
    let rendered = bench::experiments::throughput_text(&rows);
    bench::emit(&rendered, &rows);
    Ok(())
}
