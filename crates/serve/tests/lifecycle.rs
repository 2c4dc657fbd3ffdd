//! Integration tests of the zipfian loadgen workload at the service
//! level: deterministic under a fixed seed, and hitting the plan cache.

use arrayflex_serve::http::{serve, ServerConfig};
use arrayflex_serve::loadgen::{run, LoadgenConfig, ZipfSampler, ZipfWorkload};
use gemm::rng::SplitMix64;

#[test]
fn zipf_sampling_is_deterministic_under_a_fixed_seed() {
    let sampler = ZipfSampler::new(32, 1.1);
    let draw = |seed: u64| -> Vec<usize> {
        let mut rng = SplitMix64::new(seed);
        (0..200).map(|_| sampler.sample(&mut rng)).collect()
    };
    assert_eq!(draw(42), draw(42), "same seed, same sequence");
    assert_ne!(draw(42), draw(43), "different seed, different sequence");
    // Every draw is in range, and the skew shows: the hottest rank
    // dominates the coldest.
    let sequence = draw(42);
    assert!(sequence.iter().all(|&rank| rank < 32));
    let count = |rank: usize| sequence.iter().filter(|&&r| r == rank).count();
    assert!(count(0) > count(31), "rank 0 must be hotter than rank 31");
}

#[test]
fn zipf_probabilities_are_normalized_and_skewed() {
    let sampler = ZipfSampler::new(16, 1.0);
    let total: f64 = (0..16).map(|rank| sampler.probability(rank)).sum();
    assert!((total - 1.0).abs() < 1e-12, "probabilities sum to {total}");
    for rank in 1..16 {
        assert!(
            sampler.probability(rank - 1) > sampler.probability(rank),
            "rank {rank} out of order"
        );
    }
    // s = 0 degenerates to the uniform distribution.
    let uniform = ZipfSampler::new(8, 0.0);
    for rank in 0..8 {
        assert!((uniform.probability(rank) - 0.125).abs() < 1e-12);
    }
}

#[test]
fn zipf_workload_bodies_are_distinct_deterministic_plan_requests() {
    let workload = ZipfWorkload {
        s: 1.0,
        pool: 8,
        seed: 42,
        rows: 32,
        cols: 32,
    };
    let bodies = workload.bodies();
    assert_eq!(bodies.len(), 8);
    assert_eq!(bodies, workload.bodies(), "bodies are a pure function");
    for (index, body) in bodies.iter().enumerate() {
        assert!(body.contains("\"rows\":32"), "body {index}: {body}");
        let value: serde::Value = serde_json::from_str(body).expect("bodies are valid JSON");
        assert!(value.get("network").is_some(), "body {index}");
    }
    for (i, a) in bodies.iter().enumerate() {
        for (j, b) in bodies.iter().enumerate().skip(i + 1) {
            assert_ne!(a, b, "bodies {i} and {j} collide");
        }
    }
}

#[test]
fn zipfian_load_hits_the_cache_and_reports_counters() {
    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let mut config = LoadgenConfig::plan_workload(handle.addr(), 120, 4);
    config.zipf = Some(ZipfWorkload {
        s: 1.0,
        pool: 8,
        seed: 42,
        rows: 32,
        cols: 32,
    });
    let report = run(&config);
    assert_eq!(report.errors, 0, "zipf load must be all-200");
    let cache = handle.state().cache();
    // Every request was exactly one tallied lookup, and a pool of 8 keys
    // under 120 requests guarantees repeats, i.e. hits.
    assert_eq!(cache.hits() + cache.misses(), 120);
    assert!(cache.hits() > 0, "skewed keys must repeat");
    assert!(cache.len() <= 8, "at most one entry per pool rank");
    handle.shutdown();
}
