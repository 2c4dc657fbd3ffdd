//! Skinny GEMMs cost memory in proportion to their operands, not to the
//! zero padding of the array-sized tiles they run on.
//!
//! A 65,536x1x1 weight-stationary GEMM and a 1x65,536x1 output-stationary
//! one on a 64x64 array at k = 4 each reach one PE row and one PE column
//! of their tile. The tile's streams, partial sums and harvest cover only
//! that part, so the process's peak resident set (`VmHWM`, which Linux
//! reports) grows by a few MiB instead of the ~100 MB a whole 64-wide
//! tile of that length takes. This file holds this one test, so no other
//! test shares the process's peak.

use gemm::rng::SplitMix64;
use gemm::{multiply, Matrix};
use sa_sim::{ArrayConfig, Dataflow, Simulator};

/// The process's peak resident set in KiB, on Linux.
fn peak_rss_kib() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .expect("a VmHWM line");
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn skinny_gemms_stay_small() {
    const BOUND_KIB: u64 = 32 * 1024;
    let mut rng = SplitMix64::new(65_536);
    for (dataflow, t, n) in [
        (Dataflow::WeightStationary, 65_536, 1),
        (Dataflow::OutputStationary, 1, 65_536),
    ] {
        let a = Matrix::random(t, n, &mut rng, -100, 100);
        let b = Matrix::random(n, 1, &mut rng, -100, 100);
        let config = ArrayConfig::new(64, 64)
            .with_collapse_depth(4)
            .with_dataflow(dataflow);
        let before = peak_rss_kib();
        let result = Simulator::new(config).unwrap().run_gemm(&a, &b).unwrap();
        let after = peak_rss_kib();
        assert_eq!(result.output, multiply(&a, &b).unwrap(), "{config}");
        if let (Some(before), Some(after)) = (before, after) {
            let grown = after - before;
            assert!(
                grown < BOUND_KIB,
                "{config}: the peak resident set grew {grown} KiB"
            );
        }
    }
}
