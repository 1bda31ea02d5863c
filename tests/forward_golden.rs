//! Golden pin of the functional forward pass.
//!
//! Runs `exec::run_network` on LeNet (batch 128), on the CIFAR-10 network
//! at batch 16 and on a small net that exercises strided, padded
//! convolution, average pooling and LRN, each under all-NCHW, all-CHWN
//! and the layouts Opt's plan assigns, and folds the bits of every output
//! into an FNV-1a digest per run, under the default thread budget and
//! under budgets of 1 and 4 workers. The digests were recorded before the
//! host kernels moved to the packed, implicit-GEMM forward path: any
//! change to a single output bit, in any layout, moves one.

use memcnn::core::exec::run_network;
use memcnn::core::{Engine, LayoutThresholds, Mechanism, Network, NetworkBuilder};
use memcnn::gpusim::DeviceConfig;
use memcnn::models::{cifar10, lenet};
use memcnn::tensor::{Layout, Shape, Tensor};

/// 64-bit FNV-1a over the bits of every output value.
fn digest(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Strided and padded convolution, average pooling and LRN: the paths
/// LeNet and CIFAR do not take.
fn mixed_net() -> Network {
    NetworkBuilder::new("mixed", Shape::new(6, 3, 17, 17))
        .conv("cv1", 10, 3, 2, 1)
        .relu("r1")
        .lrn("lrn", 5)
        .avg_pool("pl1", 3, 2)
        .conv("cv2", 7, 2, 1, 0)
        .max_pool("pl2", 2, 1)
        .fc("fc", 5)
        .softmax("prob")
        .build()
        .expect("mixed net builds")
}

/// Digests of one network under all-NCHW, all-CHWN and Opt's layouts. The
/// three agree bit for bit: every layout runs the same arithmetic.
fn digests(net: &Network, seed: u64) -> [String; 3] {
    let n = net.layers().len();
    let engine = Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper());
    let opt = engine.plan(net, Mechanism::Opt).expect("Opt plans").layouts();
    let input = Tensor::random(net.input, Layout::NCHW, seed);
    [vec![Layout::NCHW; n], vec![Layout::CHWN; n], opt].map(|layouts| {
        let out = run_network(net, &input, &layouts, seed).expect("forward pass runs");
        format!("{:016x}", digest(&out))
    })
}

/// Every run of [`digests`] pins `want`, under the default thread budget
/// and under budgets of 1 and 4 workers.
fn assert_digests(net: &Network, seed: u64, want: &str) {
    assert_eq!(digests(net, seed), [want; 3], "default thread budget");
    for threads in [1, 4] {
        let got = rayon::with_max_threads(threads, || digests(net, seed));
        assert_eq!(got, [want; 3], "{threads} threads");
    }
}

#[test]
fn lenet_forward_matches_the_golden_digests() {
    assert_digests(&lenet().unwrap(), 42, "fec1c2b3e323f312");
}

#[test]
fn cifar_batch16_forward_matches_the_golden_digests() {
    assert_digests(&cifar10().unwrap().with_batch(16).unwrap(), 42, "736ad3b2a2225425");
}

#[test]
fn mixed_net_forward_matches_the_golden_digests() {
    assert_digests(&mixed_net(), 7, "4b0241afc8a476bf");
}
