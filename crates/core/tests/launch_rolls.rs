//! Fault rolls of a plan's launches: the per-attempt incremental rolls
//! ([`Plan::launch_rolls`], which hash the `network/N{batch}/` prefix once
//! and extend it per layer) equal the roll of each layer's whole
//! [`Plan::launch_key`], and `execute_attempt` acts on exactly those rolls.

use memcnn_core::{Engine, EngineError, LayoutThresholds, Mechanism, Plan, PlannedLayer};
use memcnn_gpusim::{DeviceConfig, Fault, FaultPlan};
use memcnn_tensor::Layout;
use proptest::prelude::*;

/// Name characters: ASCII, the key separator `/`, and multi-byte UTF-8.
const ALPHABET: &[char] = &['a', 'Z', '0', '-', '_', ' ', '/', 'é', 'ß', '卷', '积', '🦀'];

fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..=10)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// A rate that is often exactly 0 or 1, the two edges of the draw.
fn rate() -> impl Strategy<Value = f64> {
    (0u32..4, 0.0f64..1.0).prop_map(|(pick, r)| match pick {
        0 => 0.0,
        1 => 1.0,
        _ => r,
    })
}

/// A launch index that is often 0 or `u64::MAX`.
fn launch_index() -> impl Strategy<Value = u64> {
    (0u32..4, any::<u64>()).prop_map(|(pick, i)| match pick {
        0 => 0,
        1 => u64::MAX,
        _ => i,
    })
}

fn plan() -> impl Strategy<Value = Plan> {
    let layer = (name(), name(), 1e-6f64..1e-3, 0u32..3);
    (name(), 1usize..=4096, prop::collection::vec(layer, 1..=12)).prop_map(
        |(network, batch, layers)| Plan {
            network,
            batch,
            mechanism: Mechanism::Opt,
            layers: layers
                .into_iter()
                .map(|(name, impl_name, time, t)| PlannedLayer {
                    name,
                    layout: Layout::CHWN,
                    layout_sensitive: true,
                    is_conv: true,
                    impl_name,
                    time,
                    transform_before: if t == 0 { time / 4.0 } else { 0.0 },
                    transform_from: None,
                    fell_back: false,
                })
                .collect(),
        },
    )
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), rate(), rate(), rate(), 1.0f64..4.0).prop_map(|(seed, lf, oom, th, factor)| {
        FaultPlan::new(seed, lf, oom, th).with_throttle_factor(factor)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn incremental_rolls_equal_whole_key_rolls(
        plan in plan(),
        faults in fault_plan(),
        index in launch_index(),
    ) {
        let rolls: Vec<Option<Fault>> = plan.launch_rolls(&faults, index).collect();
        prop_assert_eq!(rolls.len(), plan.layers.len());
        for (layer, roll) in plan.layers.iter().zip(&rolls) {
            let whole = faults.roll(&plan.launch_key(layer), index);
            prop_assert_eq!(*roll, whole, "{:?} at {}", plan.launch_key(layer), index);
        }

        // The attempt stops at the first failure and stretches throttled
        // layers, judged by the whole-key rolls.
        let engine = Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper());
        let attempt = engine.execute_attempt(&plan, Some(&faults), index);
        let (mut time, mut throttled, mut error) = (0.0f64, 0u32, None);
        for layer in &plan.layers {
            let t = layer.transform_before + layer.time;
            match faults.roll(&plan.launch_key(layer), index) {
                None => time += t,
                Some(Fault::Throttled { factor }) => {
                    throttled += 1;
                    time += t * factor;
                }
                Some(fault @ Fault::LaunchFailed) => {
                    let layer = layer.name.clone();
                    error = Some(EngineError::Transient { layer, launch: index, fault });
                    break;
                }
                Some(Fault::DeviceOom) => {
                    error = Some(EngineError::ExecOom { layer: layer.name.clone(), launch: index });
                    break;
                }
            }
        }
        if faults.is_noop() {
            time = plan.total_time();
        }
        prop_assert_eq!(attempt.time.to_bits(), time.to_bits());
        prop_assert_eq!(attempt.throttled, throttled);
        prop_assert_eq!(attempt.error, error);
    }
}
