//! Cache-correctness integration tests: the memoized fast path must be
//! observationally identical to cold simulation, and the cache must earn
//! its keep on a real workload.
//!
//! These tests read and reset process-global state (the simulation cache
//! and the perf-counter registry), so everything lives in ONE `#[test]` —
//! the harness runs tests of a binary on concurrent threads, and a second
//! test in this file would race the counters.

use memcnn::core::{Engine, LayoutThresholds, Mechanism};
use memcnn::gpusim::{simcache, DeviceConfig, SimOptions};
use memcnn::models::{alexnet, cifar10, lenet};

#[test]
fn cache_is_invisible_in_reports_and_earns_its_keep() {
    // Exercise the parallel probe fan-out too, whatever the host's core
    // count.
    rayon::with_max_threads(4, cache_checks);
}

fn cache_checks() {
    let engine = |use_cache: bool| {
        Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
            .with_sim_options(SimOptions { use_cache, ..SimOptions::default() })
    };

    // (1) Determinism: NetworkReports are bit-identical cache-on vs
    // cache-off, forward and training. Compare the serialized form — f64s
    // must match to the last bit, not within eps. LeNet and CIFAR between
    // them exercise every kernel family cheaply; AlexNet is covered in (2).
    for net in [lenet().unwrap(), cifar10().unwrap()] {
        let cold = engine(false).simulate_network(&net, Mechanism::Opt).unwrap();
        let warm = engine(true).simulate_network(&net, Mechanism::Opt).unwrap();
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
            "{}: cache-on report differs from cache-off",
            net.name
        );
        // And a second cached run (now all hits) is still identical.
        let warm2 = engine(true).simulate_network(&net, Mechanism::Opt).unwrap();
        assert_eq!(
            serde_json::to_string(&warm).unwrap(),
            serde_json::to_string(&warm2).unwrap(),
            "{}: hit-path report differs from miss-path",
            net.name
        );
    }
    {
        let net = lenet().unwrap();
        let cold = engine(false).simulate_network_training(&net, Mechanism::Opt).unwrap();
        let warm = engine(true).simulate_network_training(&net, Mechanism::Opt).unwrap();
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
            "training report differs cache-on vs cache-off"
        );
    }

    // (2) Hit rate: an AlexNet-scale Opt run must hit more than 50% once
    // the engine's probing patterns (candidate scoring + layout DP +
    // autotune revisiting the same kernels) flow through the cache. The
    // warm run doubles as the paper-scale bit-identical check against a
    // cold run.
    simcache::clear();
    let net = alexnet().unwrap();
    let before = simcache::stats();
    let warm = engine(true).simulate_network(&net, Mechanism::Opt).unwrap();
    let after = simcache::stats();
    let cold = engine(false).simulate_network(&net, Mechanism::Opt).unwrap();
    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "AlexNet: cache-on report differs from cache-off"
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    assert!(
        hit_rate > 0.5,
        "AlexNet Opt run should hit >50% (got {:.1}% over {} lookups)",
        hit_rate * 100.0,
        hits + misses
    );

    // (3) The cache actually held entries (the runs above were not all
    // bypasses), and bypasses stayed at zero: every engine kernel is
    // cacheable.
    assert!(simcache::len() > 0, "cache is empty after a full network run");
    assert_eq!(after.bypasses, before.bypasses, "engine kernels should never bypass the cache");
}
