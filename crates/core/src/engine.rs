//! The execution engine: scores whole networks under each library
//! mechanism, assigning per-layer layouts and inserting transformation
//! kernels for the `Opt` mechanism — the integration §IV.D describes
//! ("by comparing the data layout fields of the current layer and the next
//! layer, if different, the transformation ... will be performed").

use crate::autotune::tune_pooling;
use crate::error::EngineError;
use crate::heuristic::{choose_layout, LayoutThresholds};
use crate::layer::{Layer, LayerSpec};
use crate::library::Mechanism;
use crate::net::Network;
use memcnn_gpusim::{
    simulate, simulate_sequence, DeviceConfig, Fault, FaultPlan, KernelSpec, SimError, SimOptions,
};
use memcnn_kernels::conv::direct_chwn::DirectConvChwn;
use memcnn_kernels::conv::fft_nchw::{FftConvMode, FftConvNchw};
use memcnn_kernels::conv::mm_nchw::MmConvNchw;
use memcnn_kernels::layers::{ElementwiseKernel, LrnKernel};
use memcnn_kernels::matmul::gemm_kernel;
use memcnn_kernels::pool::chwn::PoolChwn;
use memcnn_kernels::pool::nchw::{PoolNchwCaffe, PoolNchwCudnn};
use memcnn_kernels::softmax::{cudnn_pipeline, five_kernel_pipeline, SoftmaxFused};
use memcnn_kernels::transform::{TransformImpl, TransformKernel, VECTORIZE_MIN_N};
use memcnn_kernels::{ConvShape, PoolShape};
use memcnn_tensor::{Layout, Shape};
use memcnn_trace as trace;
use rayon::prelude::*;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::Mutex;

/// Per-plan perf counters, resolved once per process.
static PLAN_COMPILES: trace::perf::CachedCounter =
    trace::perf::CachedCounter::new("engine.plan.compile");
static PROBE_FANOUT: trace::perf::CachedCounter =
    trace::perf::CachedCounter::new("engine.probe.fanout");
static AUTOTUNE_POOL: trace::perf::CachedCounter =
    trace::perf::CachedCounter::new("engine.autotune.pool");

/// Which transformation kernels the `Opt` mechanism inserts — Fig 10's
/// `Opt+Naive Transform` vs `Opt+Optimized Transform` distinction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransformQuality {
    /// Fig 7a's naive 4D transpose.
    Naive,
    /// Fig 7b: tiled (Opt1), vectorized (Opt2) when `N >= 64`.
    Optimized,
}

/// How `Opt` assigns layouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutPolicy {
    /// The §IV.A rule applied per conv layer; pooling prefers `CHWN`.
    Heuristic,
    /// Heuristic seeding refined by simulated profiling: a two-state
    /// dynamic program over the layer chain that charges transformation
    /// costs at every boundary (the §IV.D "one-time profiling ... to fine
    /// tune the data layout settings automatically").
    Profiled,
}

/// Per-layer entry of a network report.
#[derive(Clone, Debug, Serialize)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Layout the layer ran in.
    pub layout: String,
    /// Implementation used (e.g. `direct-chwn`, `mm`, `fft`, `fused`).
    pub impl_name: String,
    /// Simulated forward time, seconds.
    pub time: f64,
    /// Simulated backward time, seconds (0 in forward-only reports).
    pub backward_time: f64,
    /// Time of the layout transformation inserted *before* this layer
    /// (0 when none).
    pub transform_before: f64,
    /// Whether an FFT mode failed and fell back to MM (§VI.C).
    pub fell_back: bool,
}

/// Simulated execution of a network under one mechanism.
#[derive(Clone, Debug, Serialize)]
pub struct NetworkReport {
    /// Network name.
    pub network: String,
    /// Mechanism label.
    pub mechanism: String,
    /// Per-layer details.
    pub layers: Vec<LayerReport>,
}

impl NetworkReport {
    /// Total time including transformations and any backward pass.
    pub fn total_time(&self) -> f64 {
        self.layers.iter().map(|l| l.time + l.backward_time + l.transform_before).sum()
    }

    /// Total backward-pass time (0 for forward-only reports).
    pub fn backward_time(&self) -> f64 {
        self.layers.iter().map(|l| l.backward_time).sum()
    }

    /// Total time spent in layout transformations.
    pub fn transform_time(&self) -> f64 {
        self.layers.iter().map(|l| l.transform_before).sum()
    }

    /// Number of transformations inserted.
    pub fn transform_count(&self) -> usize {
        self.layers.iter().filter(|l| l.transform_before > 0.0).count()
    }

    /// Find a layer's report by name.
    pub fn layer(&self, name: &str) -> Option<&LayerReport> {
        self.layers.iter().find(|l| l.name == name)
    }
}

impl fmt::Display for NetworkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} under {}: {:.3} ms total ({} transforms, {:.3} ms)",
            self.network,
            self.mechanism,
            self.total_time() * 1e3,
            self.transform_count(),
            self.transform_time() * 1e3
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "  {:<8} {:<6} {:<16} {:>9.3} ms{}{}{}",
                l.name,
                l.layout,
                l.impl_name,
                l.time * 1e3,
                if l.backward_time > 0.0 {
                    format!("  (+{:.3} ms bwd)", l.backward_time * 1e3)
                } else {
                    String::new()
                },
                if l.transform_before > 0.0 {
                    format!("  (+{:.3} ms transform)", l.transform_before * 1e3)
                } else {
                    String::new()
                },
                if l.fell_back { "  [FFT fell back to MM]" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// One layer of a compiled [`Plan`]: the planned layout, implementation
/// and simulated times, replayable without re-running selection.
#[derive(Clone, Debug)]
pub struct PlannedLayer {
    /// Layer name.
    pub name: String,
    /// Working layout the plan assigns the layer.
    pub layout: Layout,
    /// Whether the layer is sensitive to the 4D layout (FC/softmax end the
    /// layout-constrained region and report `-`).
    pub layout_sensitive: bool,
    /// Whether the layer is a convolution (the layers the `(Ct, Nt)`
    /// heuristic actually decides; pooling always prefers CHWN).
    pub is_conv: bool,
    /// Chosen implementation (e.g. `direct-chwn`, `mm`, `fft`).
    pub impl_name: String,
    /// Simulated forward time, seconds.
    pub time: f64,
    /// Layout transformation inserted before this layer, seconds (0: none).
    pub transform_before: f64,
    /// Source layout of that transformation, when one is inserted.
    pub transform_from: Option<Layout>,
    /// Whether an FFT mode failed and fell back to MM.
    pub fell_back: bool,
}

/// A compiled network plan: the output of layout assignment (heuristic or
/// DP) plus per-layer implementation selection at one batch size. Produced
/// once by [`Engine::plan`] and replayed any number of times by
/// [`Engine::execute`] — the split that lets callers (serving, benches,
/// functional execution) stop re-planning implicitly on every run.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Network name.
    pub network: String,
    /// Batch size (`N`) the plan was compiled at.
    pub batch: usize,
    /// Mechanism it was compiled under.
    pub mechanism: Mechanism,
    /// Per-layer decisions in network order.
    pub layers: Vec<PlannedLayer>,
}

impl Plan {
    /// Total simulated forward time including transformations, seconds.
    pub fn total_time(&self) -> f64 {
        self.layers.iter().map(|l| l.time + l.transform_before).sum()
    }

    /// The per-layer layout assignment, in network order (the vector
    /// [`crate::exec::run_network`] takes).
    pub fn layouts(&self) -> Vec<Layout> {
        self.layers.iter().map(|l| l.layout).collect()
    }

    /// Layout of a named layer, if it exists and is layout-sensitive.
    pub fn layout_of(&self, name: &str) -> Option<Layout> {
        self.layers.iter().find(|l| l.name == name && l.layout_sensitive).map(|l| l.layout)
    }

    /// Compact signature of the convolution-layer layout decisions, e.g.
    /// `"CHWN"` when uniform or `"CHWN,NCHW,NCHW"` in layer order — the
    /// string the serving tables print per batch-size bucket.
    pub fn conv_layout_signature(&self) -> String {
        let convs: Vec<String> =
            self.layers.iter().filter(|l| l.is_conv).map(|l| l.layout.name()).collect();
        if !convs.is_empty() && convs.iter().all(|c| *c == convs[0]) {
            convs[0].clone()
        } else {
            convs.join(",")
        }
    }

    /// Number of layout transformations the plan inserts.
    pub fn transform_count(&self) -> usize {
        self.layers.iter().filter(|l| l.transform_before > 0.0).count()
    }

    /// Stable fault-roll identity of one planned layer's launch:
    /// `network/N{batch}/layer/impl`. Fault plans key on this (plus the
    /// launch index), so the same plan replayed at the same index always
    /// rolls the same fault, while distinct buckets of the same network
    /// fault independently.
    pub fn launch_key(&self, layer: &PlannedLayer) -> String {
        format!("{}/N{}/{}/{}", self.network, self.batch, layer.name, layer.impl_name)
    }

    /// Every layer's fault roll at `launch_index`, in layer order: for
    /// each layer, `faults.roll(&self.launch_key(layer), launch_index)`.
    /// The key prefix `network/N{batch}/` is hashed once and each layer
    /// extends a copy of that state with its `layer/impl` suffix, so no
    /// key is ever built.
    pub fn launch_rolls<'a>(
        &'a self,
        faults: &'a FaultPlan,
        launch_index: u64,
    ) -> impl Iterator<Item = Option<Fault>> + 'a {
        let mut prefix = faults.at(launch_index);
        write!(prefix, "{}/N{}/", self.network, self.batch).expect("hashing text cannot fail");
        self.layers
            .iter()
            .map(move |l| prefix.absorb(&l.name).absorb("/").absorb(&l.impl_name).decide())
    }
}

/// Outcome of one fault-aware launch attempt of a [`Plan`]
/// ([`Engine::execute_attempt`]). Not a `Result`: a failing attempt still
/// made progress — simulated time elapsed, throttles were absorbed — and
/// retry policies must charge that progress before rolling again.
#[derive(Clone, Debug)]
pub struct LaunchAttempt {
    /// Simulated time the attempt consumed (up to the faulting layer when
    /// `error` is set; the full plan time otherwise).
    pub time: f64,
    /// Throttle faults absorbed during the attempt (execution continued,
    /// stretched by the throttle factor).
    pub throttled: u32,
    /// The fault that stopped the attempt, if one did.
    pub error: Option<EngineError>,
}

/// The engine: a device, simulation options, thresholds and caches.
///
/// `Engine` is `Sync`: its only interior mutability is a `Mutex`-guarded
/// autotune cache, so one engine can be shared by reference across rayon
/// workers (the candidate fan-out below does exactly that).
pub struct Engine {
    device: DeviceConfig,
    opts: SimOptions,
    thresholds: LayoutThresholds,
    transform_quality: TransformQuality,
    layout_policy: LayoutPolicy,
    pool_tune_cache: Mutex<HashMap<PoolShape, (usize, usize)>>,
}

impl Engine {
    /// Engine with explicit thresholds (use
    /// [`crate::heuristic::derive_thresholds`] for the profiled ones).
    pub fn new(device: DeviceConfig, thresholds: LayoutThresholds) -> Engine {
        Engine {
            device,
            opts: SimOptions::default(),
            thresholds,
            transform_quality: TransformQuality::Optimized,
            layout_policy: LayoutPolicy::Profiled,
            pool_tune_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Override the transformation quality (Fig 10 ablation).
    pub fn with_transform_quality(mut self, q: TransformQuality) -> Engine {
        self.transform_quality = q;
        self
    }

    /// Override the layout policy.
    pub fn with_layout_policy(mut self, p: LayoutPolicy) -> Engine {
        self.layout_policy = p;
        self
    }

    /// Override simulation options.
    pub fn with_sim_options(mut self, opts: SimOptions) -> Engine {
        self.opts = opts;
        self
    }

    /// The device this engine scores on.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// The thresholds in use.
    pub fn thresholds(&self) -> &LayoutThresholds {
        &self.thresholds
    }

    fn sim(&self, k: &dyn KernelSpec) -> Result<f64, SimError> {
        Ok(simulate(&self.device, k, &self.opts)?.time())
    }

    /// Whether speculative parallel probing can help *and* cannot be
    /// observed: it needs the simulation cache (the sequential re-read must
    /// hit) and more than one worker thread. Under an active trace the
    /// workers record into per-worker collectors (`trace::fork`) whose
    /// records merge back tagged `Scope::Worker`, so the orchestrator's
    /// own deterministic records are untouched and fan-out stays on.
    fn parallel_probes_enabled(&self) -> bool {
        self.opts.use_cache && rayon::max_threads() > 1
    }

    /// Run `probe(i, &jobs[i])` for every job across rayon workers, each
    /// recording under worker `i` of a `trace::fork`, to prime the
    /// simulation cache; a no-op unless
    /// [`parallel_probes_enabled`](Self::parallel_probes_enabled). The
    /// probes' outcomes are for the cache only (errors included: they are
    /// never cached): the caller re-runs the same probes sequentially and
    /// reads hits, so its results are bit-identical to a cold run.
    fn fan_out<J: Sync>(&self, jobs: &[J], probe: impl Fn(usize, &J) + Sync) {
        if !self.parallel_probes_enabled() {
            return;
        }
        PROBE_FANOUT.add(jobs.len() as u64);
        let fork = trace::fork();
        jobs.par_iter().enumerate().for_each(|(i, job)| {
            let _w = fork.attach(i);
            probe(i, job);
        });
        fork.merge();
    }

    /// Fan the NCHW convolution candidates (mm, fft, fft-tiling) out across
    /// rayon workers, priming the simulation cache for the caller's
    /// sequential candidate selection.
    fn prewarm_conv_candidates(&self, shape: &ConvShape) {
        self.fan_out(&[None, Some(FftConvMode::Full), Some(FftConvMode::Tiled)], |_, mode| {
            let _ = match mode {
                None => MmConvNchw::new(*shape).simulate(&self.device, &self.opts).is_ok(),
                Some(mode) => FftConvNchw::new(*shape, *mode)
                    .ok()
                    .and_then(|p| p.simulate(&self.device, &self.opts).ok())
                    .is_some(),
            };
        });
    }

    fn sim_seq(&self, ks: &[Box<dyn KernelSpec + Send>]) -> Result<f64, SimError> {
        let refs: Vec<&dyn KernelSpec> = ks.iter().map(|k| k.as_ref() as _).collect();
        Ok(simulate_sequence(&self.device, &refs, &self.opts)?.time())
    }

    /// Time of a convolution under a specific implementation family,
    /// with FFT fallback to MM. Returns `(time, impl name, fell_back)`.
    pub fn conv_time(
        &self,
        shape: &ConvShape,
        mech: Mechanism,
        layout: Layout,
    ) -> Result<(f64, &'static str, bool), SimError> {
        if layout == Layout::CHWN {
            let _c = trace::scope_with(|| trace::Scope::Candidate("direct-chwn".to_string()));
            return Ok((self.sim(&DirectConvChwn::new(*shape))?, "direct-chwn", false));
        }
        let mm = || -> Result<f64, SimError> {
            let _c = trace::scope_with(|| trace::Scope::Candidate("mm".to_string()));
            Ok(MmConvNchw::new(*shape).simulate(&self.device, &self.opts)?.time())
        };
        let fft = |mode: FftConvMode| -> Option<f64> {
            let label = match mode {
                FftConvMode::Full => "fft",
                FftConvMode::Tiled => "fft-tiling",
            };
            let _c = trace::scope_with(|| trace::Scope::Candidate(label.to_string()));
            FftConvNchw::new(*shape, mode)
                .ok()
                .and_then(|p| p.simulate(&self.device, &self.opts).ok())
                .map(|r| r.time())
        };
        match mech {
            Mechanism::CudnnFft => match fft(FftConvMode::Full) {
                Some(t) => Ok((t, "fft", false)),
                None => Ok((mm()?, "mm", true)),
            },
            Mechanism::CudnnFftTiling => match fft(FftConvMode::Tiled) {
                Some(t) => Ok((t, "fft-tiling", false)),
                None => Ok((mm()?, "mm", true)),
            },
            Mechanism::CudnnBest | Mechanism::Opt => {
                self.prewarm_conv_candidates(shape);
                let mut best = (mm()?, "mm");
                if let Some(t) = fft(FftConvMode::Full) {
                    if t < best.0 {
                        best = (t, "fft");
                    }
                }
                if let Some(t) = fft(FftConvMode::Tiled) {
                    if t < best.0 {
                        best = (t, "fft-tiling");
                    }
                }
                Ok((best.0, best.1, false))
            }
            _ => Ok((mm()?, "mm", false)),
        }
    }

    /// Time of a pooling layer under a mechanism/layout.
    pub fn pool_time(
        &self,
        shape: &PoolShape,
        mech: Mechanism,
        layout: Layout,
    ) -> Result<(f64, &'static str), SimError> {
        let cand =
            |name: &'static str| trace::scope_with(|| trace::Scope::Candidate(name.to_string()));
        match (mech, layout) {
            (Mechanism::Opt, Layout::CHWN) => {
                let (ux, uy) = self.tuned_pool_factors(shape);
                let _c = cand("pool-chwn-opt");
                Ok((self.sim(&PoolChwn::coarsened(*shape, ux, uy))?, "pool-chwn-opt"))
            }
            (_, Layout::CHWN) => {
                let _c = cand("pool-chwn");
                Ok((self.sim(&PoolChwn::new(*shape))?, "pool-chwn"))
            }
            (Mechanism::Caffe, _) => {
                let _c = cand("pool-caffe");
                Ok((self.sim(&PoolNchwCaffe::new(*shape))?, "pool-caffe"))
            }
            (Mechanism::Opt, _) => {
                // Opt in NCHW uses the better of the two NCHW baselines.
                let caffe = {
                    let _c = cand("pool-caffe");
                    self.sim(&PoolNchwCaffe::new(*shape))?
                };
                let cudnn = {
                    let _c = cand("pool-cudnn");
                    self.sim(&PoolNchwCudnn::new(*shape))?
                };
                Ok(if caffe <= cudnn { (caffe, "pool-caffe") } else { (cudnn, "pool-cudnn") })
            }
            _ => {
                let _c = cand("pool-cudnn");
                Ok((self.sim(&PoolNchwCudnn::new(*shape))?, "pool-cudnn"))
            }
        }
    }

    /// Lock the autotune cache, surviving poisoning: the map holds plain
    /// `(usize, usize)` pairs inserted atomically, so a panicking worker
    /// cannot leave a torn entry — recovering the guard is always safe and
    /// keeps this path panic-free.
    fn pool_tune_lock(&self) -> std::sync::MutexGuard<'_, HashMap<PoolShape, (usize, usize)>> {
        self.pool_tune_cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tuned_pool_factors(&self, shape: &PoolShape) -> (usize, usize) {
        if let Some(&f) = self.pool_tune_lock().get(shape) {
            return f;
        }
        // The lock is *not* held while tuning: concurrent workers may race
        // to tune the same shape, but the tuner is deterministic (and its
        // simulations hit the cache), so duplicate inserts agree.
        let _a = trace::scope(trace::Scope::Autotune);
        AUTOTUNE_POOL.incr();
        let r = tune_pooling(&self.device, shape, &self.opts);
        self.pool_tune_lock().insert(*shape, (r.ux, r.uy));
        (r.ux, r.uy)
    }

    /// Time of a layout transformation of `shape` between two layouts.
    pub fn transform_time(&self, shape: Shape, from: Layout, to: Layout) -> Result<f64, SimError> {
        if from == to {
            return Ok(0.0);
        }
        let _t = trace::scope(trace::Scope::Transform);
        let imp = match self.transform_quality {
            TransformQuality::Naive => TransformImpl::Naive,
            TransformQuality::Optimized => {
                if shape.n >= VECTORIZE_MIN_N {
                    TransformImpl::Opt2
                } else {
                    TransformImpl::Opt1
                }
            }
        };
        self.sim(&TransformKernel::new(shape, from, to, imp))
    }

    /// Time of one layer in a given layout under a mechanism.
    fn layer_time(
        &self,
        layer: &Layer,
        mech: Mechanism,
        layout: Layout,
    ) -> Result<(f64, String, bool), SimError> {
        match &layer.spec {
            LayerSpec::Conv { .. } => {
                let shape = layer
                    .conv_shape()
                    .expect("invariant: matched LayerSpec::Conv, so conv_shape() is Some");
                let (t, name, fb) = self.conv_time(&shape, mech, layout)?;
                Ok((t, name.to_string(), fb))
            }
            LayerSpec::Pool { .. } => {
                let shape = layer
                    .pool_shape()
                    .expect("invariant: matched LayerSpec::Pool, so pool_shape() is Some");
                let (t, name) = self.pool_time(&shape, mech, layout)?;
                Ok((t, name.to_string(), false))
            }
            LayerSpec::Softmax => {
                let shape = layer
                    .softmax_shape()
                    .expect("invariant: matched LayerSpec::Softmax, so softmax_shape() is Some");
                let name = match mech {
                    Mechanism::Opt => "softmax-fused",
                    Mechanism::CudaConvnet | Mechanism::Caffe => "softmax-5k",
                    _ => "softmax-cudnn",
                };
                let _c = trace::scope_with(|| trace::Scope::Candidate(name.to_string()));
                let t = match mech {
                    Mechanism::Opt => self.sim(&SoftmaxFused::new(shape))?,
                    Mechanism::CudaConvnet | Mechanism::Caffe => {
                        self.sim_seq(&five_kernel_pipeline(shape))?
                    }
                    _ => self.sim_seq(&cudnn_pipeline(shape))?,
                };
                Ok((t, name.to_string(), false))
            }
            LayerSpec::ReLU => {
                let _c = trace::scope_with(|| trace::Scope::Candidate("relu".to_string()));
                let t = self.sim(&ElementwiseKernel::new("relu", layer.input.len() as u64, 1))?;
                Ok((t, "relu".to_string(), false))
            }
            LayerSpec::Lrn { size } => {
                let _c = trace::scope_with(|| trace::Scope::Candidate("lrn".to_string()));
                let t = self.sim(&LrnKernel::new(layer.input.len() as u64, *size as u64))?;
                Ok((t, "lrn".to_string(), false))
            }
            LayerSpec::Fc { outputs } => {
                let _c = trace::scope_with(|| trace::Scope::Candidate("fc-gemm".to_string()));
                let inputs = layer.input.c * layer.input.h * layer.input.w;
                let t = self.sim(&gemm_kernel(*outputs, inputs, layer.input.n))?;
                Ok((t, "fc-gemm".to_string(), false))
            }
        }
    }

    /// Assign per-layer layouts for the `Opt` mechanism.
    fn opt_layouts(&self, net: &Network) -> Result<Vec<Layout>, SimError> {
        let _plan = trace::scope(trace::Scope::Plan);
        let layers = net.layers();
        let mut heuristic: Vec<Layout> = Vec::with_capacity(layers.len());
        let mut carried = Layout::NCHW;
        for l in layers {
            let layout = match &l.spec {
                LayerSpec::Conv { .. } => {
                    let shape = l
                        .conv_shape()
                        .expect("invariant: matched LayerSpec::Conv, so conv_shape() is Some");
                    let chosen = choose_layout(&shape, &self.thresholds);
                    let th = &self.thresholds;
                    trace::record_decision(|| trace::Decision {
                        layer: l.name.clone(),
                        layout: chosen.name(),
                        policy: "heuristic".to_string(),
                        reason: if chosen == Layout::CHWN {
                            format!(
                                "C={} < Ct={} or N={} >= Nt={}",
                                shape.ci, th.ct, shape.n, th.nt
                            )
                        } else {
                            format!(
                                "C={} >= Ct={} and N={} < Nt={}",
                                shape.ci, th.ct, shape.n, th.nt
                            )
                        },
                    });
                    chosen
                }
                // §IV.B: pooling always prefers CHWN.
                LayerSpec::Pool { .. } => {
                    trace::record_decision(|| trace::Decision {
                        layer: l.name.clone(),
                        layout: Layout::CHWN.name(),
                        policy: "heuristic".to_string(),
                        reason: "pooling prefers CHWN (fully coalesced, no Cin reduction)"
                            .to_string(),
                    });
                    Layout::CHWN
                }
                // Layout-neutral layers (ReLU, LRN, FC, softmax) inherit
                // the running layout so they never force a transform.
                _ => carried,
            };
            carried = layout;
            heuristic.push(layout);
        }
        if self.layout_policy == LayoutPolicy::Heuristic {
            return Ok(heuristic);
        }

        // Profiled: dynamic program over {NCHW, CHWN} charging layer times
        // and boundary transformations.
        let states = [Layout::NCHW, Layout::CHWN];
        let n = layers.len();
        if n == 0 {
            return Ok(vec![]);
        }

        // Fan the DP's whole probe set — every (layer, state) time plus
        // both boundary transforms of every sensitive layer — out across
        // rayon workers, priming the simulation cache; the sequential DP
        // then reads hits and produces the exact costs a cold run would.
        enum Job<'a> {
            Time(&'a Layer, Layout),
            Transform(Shape, Layout, Layout),
        }
        let mut jobs: Vec<Job> = Vec::with_capacity(4 * n);
        for layer in layers {
            if layer.layout_sensitive() {
                jobs.push(Job::Time(layer, Layout::NCHW));
                jobs.push(Job::Time(layer, Layout::CHWN));
                jobs.push(Job::Transform(layer.input, Layout::NCHW, Layout::CHWN));
                jobs.push(Job::Transform(layer.input, Layout::CHWN, Layout::NCHW));
            } else {
                jobs.push(Job::Time(layer, Layout::NCHW));
            }
        }
        self.fan_out(&jobs, |_, job| {
            let _ = match job {
                Job::Time(layer, layout) => {
                    self.layer_time(layer, Mechanism::Opt, *layout).map(|_| ()).is_ok()
                }
                Job::Transform(shape, from, to) => self.transform_time(*shape, *from, *to).is_ok(),
            };
        });
        let mut cost = vec![[f64::INFINITY; 2]; n];
        let mut parent = vec![[0usize; 2]; n];
        for (i, layer) in layers.iter().enumerate() {
            for (s, &layout) in states.iter().enumerate() {
                // Layout-insensitive layers cost the same either way.
                let t = if layer.layout_sensitive() {
                    self.layer_time(layer, Mechanism::Opt, layout)?.0
                } else {
                    self.layer_time(layer, Mechanism::Opt, Layout::NCHW)?.0
                };
                if i == 0 {
                    cost[0][s] = t;
                    continue;
                }
                for (p, &prev_layout) in states.iter().enumerate() {
                    // Transformation happens on this layer's input tensor.
                    // FC/softmax flatten their input, so entering them
                    // never needs a transform.
                    let tr = if layer.layout_sensitive() {
                        self.transform_time(layer.input, prev_layout, layout)?
                    } else if prev_layout == layout {
                        0.0
                    } else {
                        // Collapse insensitive layers onto the previous
                        // state to avoid phantom transforms.
                        f64::INFINITY
                    };
                    let c = cost[i - 1][p] + tr + t;
                    if c < cost[i][s] {
                        cost[i][s] = c;
                        parent[i][s] = p;
                    }
                }
            }
        }
        // Trace back the cheaper terminal state.
        let mut s = if cost[n - 1][0] <= cost[n - 1][1] { 0 } else { 1 };
        let mut layouts = vec![Layout::NCHW; n];
        for i in (0..n).rev() {
            layouts[i] = states[s];
            s = parent[i][s];
        }
        for (i, layer) in layers.iter().enumerate() {
            if layer.layout_sensitive() && layouts[i] != heuristic[i] {
                trace::record_decision(|| trace::Decision {
                    layer: layer.name.clone(),
                    layout: layouts[i].name(),
                    policy: "profiled".to_string(),
                    reason: format!(
                        "DP override: heuristic chose {}, but {} is cheaper once \
                         boundary transformations are charged",
                        heuristic[i].name(),
                        layouts[i].name()
                    ),
                });
            }
        }
        Ok(layouts)
    }

    /// Backward-pass time of one layer under a mechanism/layout. The first
    /// layer's data gradient is skipped (nothing upstream consumes it), as
    /// real frameworks do.
    fn layer_backward_time(
        &self,
        layer: &Layer,
        mech: Mechanism,
        layout: Layout,
        is_first: bool,
    ) -> Result<f64, SimError> {
        use memcnn_kernels::backward as bwd;
        match &layer.spec {
            LayerSpec::Conv { .. } => {
                let shape = layer
                    .conv_shape()
                    .expect("invariant: matched LayerSpec::Conv, so conv_shape() is Some");
                // Data gradient: a convolution on the transposed shape,
                // using the same implementation selection as the forward
                // pass (cuDNN's BwdData has MM and FFT algorithms too).
                let t_data = if is_first {
                    0.0
                } else {
                    self.conv_time(&bwd::backward_data_shape(&shape), mech, layout)?.0
                };
                // Weight gradient: a GEMM-shaped reduction; FFT-capable
                // mechanisms also have an FFT BwdFilter with forward-like
                // cost, so take the better of the two.
                let mut t_w = self.sim(&bwd::weight_grad_gemm(&shape))?;
                if matches!(
                    mech,
                    Mechanism::Opt
                        | Mechanism::CudnnBest
                        | Mechanism::CudnnFft
                        | Mechanism::CudnnFftTiling
                ) {
                    t_w = t_w.min(self.conv_time(&shape, mech, layout)?.0);
                }
                Ok(t_data + t_w)
            }
            LayerSpec::Pool { .. } => {
                let shape = layer
                    .pool_shape()
                    .expect("invariant: matched LayerSpec::Pool, so pool_shape() is Some");
                self.sim(bwd::pool_backward_spec(&shape, layout).as_ref())
            }
            LayerSpec::ReLU => {
                self.sim(&bwd::elementwise_backward("relu", layer.input.len() as u64, 2))
            }
            LayerSpec::Lrn { size } => self.sim(&bwd::elementwise_backward(
                "lrn",
                layer.input.len() as u64,
                3 * *size as u64 + 10,
            )),
            LayerSpec::Fc { outputs } => {
                let inputs = layer.input.c * layer.input.h * layer.input.w;
                // dW = dY x X^T and dX = W^T x dY.
                let dw = gemm_kernel(*outputs, layer.input.n, inputs);
                let dx = gemm_kernel(inputs, *outputs, layer.input.n);
                let _ = mech;
                Ok(self.sim(&dw)? + if is_first { 0.0 } else { self.sim(&dx)? })
            }
            LayerSpec::Softmax => {
                self.sim(&bwd::elementwise_backward("softmax-xent", layer.input.len() as u64, 2))
            }
        }
    }

    /// Simulate a training step (forward + backward) — the configuration
    /// the paper's §IV.D "complete forward-backward profiling" measures.
    /// Transformation costs are charged twice (activations travel both
    /// directions through each layout boundary).
    pub fn simulate_network_training(
        &self,
        net: &Network,
        mech: Mechanism,
    ) -> Result<NetworkReport, SimError> {
        let mut report = self.simulate_network(net, mech)?;
        let forward_end = report.total_time();
        let layouts: Vec<Layout> = report
            .layers
            .iter()
            .map(|l| if l.layout == "CHWN" { Layout::CHWN } else { Layout::NCHW })
            .collect();
        // Prime the backward-pass simulations in parallel before the
        // sequential, trace-ordered accumulation below reads them as hits.
        self.fan_out(net.layers(), |i, layer| {
            let _ = self.layer_backward_time(layer, mech, layouts[i], i == 0).is_ok();
        });
        {
            let _net_scope = trace::scope_with(|| trace::Scope::Network(net.name.clone()));
            let _bwd_scope = trace::scope(trace::Scope::Backward);
            for (i, (layer, &layout)) in net.layers().iter().zip(&layouts).enumerate() {
                let bwd = {
                    let _layer_scope =
                        trace::scope_with(|| trace::Scope::Layer(layer.name.clone()));
                    self.layer_backward_time(layer, mech, layout, i == 0)?
                };
                let entry = &mut report.layers[i];
                entry.backward_time = bwd;
                entry.transform_before *= 2.0;
            }
        }
        // Backward timeline: gradients flow last layer to first, with the
        // doubled transformation's second half charged on the way back.
        let mut clock = forward_end;
        for entry in report.layers.iter().rev() {
            if entry.backward_time > 0.0 {
                let ts = clock;
                trace::record_span(|| trace::SpanEvent {
                    name: format!("{} (bwd)", entry.name),
                    track: trace::Track::Backward,
                    ts_us: ts * 1e6,
                    dur_us: entry.backward_time * 1e6,
                    args: vec![("layout".into(), entry.layout.clone().into())],
                });
                clock += entry.backward_time;
            }
            let bwd_transform = entry.transform_before / 2.0;
            if bwd_transform > 0.0 {
                let ts = clock;
                trace::record_span(|| trace::SpanEvent {
                    name: "transform (bwd)".to_string(),
                    track: trace::Track::Transforms,
                    ts_us: ts * 1e6,
                    dur_us: bwd_transform * 1e6,
                    args: vec![
                        ("layer".into(), entry.name.clone().into()),
                        ("phase".into(), "backward".into()),
                    ],
                });
                clock += bwd_transform;
            }
        }
        Ok(report)
    }

    /// Compile `net` under `mech` into a reusable [`Plan`]: layout
    /// assignment (heuristic or the profiling DP), per-layer implementation
    /// selection, and boundary-transformation costing. This is the
    /// expensive half of [`Engine::simulate_network`]; the plan replays
    /// through [`Engine::execute`] without touching the simulator again.
    /// Every compile bumps the `engine.plan.compile` perf counter, so plan
    /// caches can prove they never re-run the DP for a cached entry.
    pub fn plan(&self, net: &Network, mech: Mechanism) -> Result<Plan, SimError> {
        let _buffers = memcnn_gpusim::reuse_trace_buffers();
        let _net_scope = trace::scope_with(|| trace::Scope::Network(net.name.clone()));
        PLAN_COMPILES.incr();
        let layouts: Vec<Layout> = match mech.fixed_layout() {
            Some(l) => vec![l; net.layers().len()],
            None => self.opt_layouts(net)?,
        };
        // Prime the per-layer simulations in parallel (all hits afterwards;
        // a no-op when probing is off or everything is already cached).
        self.fan_out(net.layers(), |i, layer| {
            let _ = self.layer_time(layer, mech, layouts[i]).is_ok();
        });
        let mut planned = Vec::with_capacity(net.layers().len());
        let mut prev_layout: Option<Layout> = None;
        for (layer, &layout) in net.layers().iter().zip(&layouts) {
            let _layer_scope = trace::scope_with(|| trace::Scope::Layer(layer.name.clone()));
            let transform_before = match prev_layout {
                Some(p) if layer.layout_sensitive() && mech == Mechanism::Opt => {
                    self.transform_time(layer.input, p, layout)?
                }
                _ => 0.0,
            };
            let (time, impl_name, fell_back) = self.layer_time(layer, mech, layout)?;
            planned.push(PlannedLayer {
                name: layer.name.clone(),
                layout,
                layout_sensitive: layer.layout_sensitive(),
                is_conv: matches!(layer.spec, LayerSpec::Conv { .. }),
                impl_name,
                time,
                transform_before,
                transform_from: if transform_before > 0.0 { prev_layout } else { None },
                fell_back,
            });
            if layer.layout_sensitive() {
                prev_layout = Some(layout);
            }
        }
        Ok(Plan { network: net.name.clone(), batch: net.input.n, mechanism: mech, layers: planned })
    }

    /// Compile a plan for the same architecture at batch size `n` — the
    /// serving path, where the optimal layouts are a function of the
    /// effective batch (`C < Ct || N >= Nt`), so each batch-size bucket
    /// compiles its own plan.
    pub fn plan_at(&self, net: &Network, mech: Mechanism, n: usize) -> Result<Plan, SimError> {
        let rebatched = net
            .with_batch(n)
            .map_err(|e| SimError::Unlaunchable(format!("cannot rebatch network: {e}")))?;
        self.plan(&rebatched, mech)
    }

    /// Replay a compiled [`Plan`] into a [`NetworkReport`], emitting the
    /// timeline trace spans. Pure bookkeeping: no simulation runs, so
    /// executing a plan twice is free and bit-identical.
    pub fn execute(&self, plan: &Plan) -> NetworkReport {
        let mut reports = Vec::with_capacity(plan.layers.len());
        // Simulated-time cursor driving the trace timeline: spans are
        // laid back-to-back, so per-track timestamps are monotonic and
        // non-overlapping by construction.
        let mut clock = 0.0f64;
        for pl in &plan.layers {
            // `transform_from` is Some whenever `transform_before > 0`
            // (set together at plan time); matching on it instead of
            // unwrapping keeps this path panic-free on a hand-built plan.
            if let (true, Some(from)) = (pl.transform_before > 0.0, pl.transform_from) {
                let ts = clock;
                trace::record_span(|| trace::SpanEvent {
                    name: format!("transform {}->{}", from.name(), pl.layout.name()),
                    track: trace::Track::Transforms,
                    ts_us: ts * 1e6,
                    dur_us: pl.transform_before * 1e6,
                    args: vec![("layer".into(), pl.name.clone().into())],
                });
            }
            clock += pl.transform_before;
            {
                let ts = clock;
                let imp = pl.impl_name.clone();
                trace::record_span(|| trace::SpanEvent {
                    name: pl.name.clone(),
                    track: trace::Track::Layers,
                    ts_us: ts * 1e6,
                    dur_us: pl.time * 1e6,
                    args: vec![
                        ("impl".into(), imp.into()),
                        ("layout".into(), pl.layout.name().into()),
                        ("fell_back".into(), pl.fell_back.to_string().into()),
                    ],
                });
            }
            clock += pl.time;
            reports.push(LayerReport {
                name: pl.name.clone(),
                layout: if pl.layout_sensitive { pl.layout.name() } else { "-".to_string() },
                impl_name: pl.impl_name.clone(),
                time: pl.time,
                backward_time: 0.0,
                transform_before: pl.transform_before,
                fell_back: pl.fell_back,
            });
        }
        NetworkReport {
            network: plan.network.clone(),
            mechanism: plan.mechanism.label().to_string(),
            layers: reports,
        }
    }

    /// Execute one *launch attempt* of a plan under a fault plan: the
    /// fault-aware counterpart of [`Engine::execute`], returning a
    /// [`LaunchAttempt`] rather than a `Result` so partial progress — time
    /// elapsed before a mid-plan fault, throttles absorbed along the way —
    /// survives a failing attempt (a retry policy charges that time; a
    /// `Result` would throw it away).
    ///
    /// Each planned layer rolls the fault plan once at
    /// ([`Plan::launch_key`], `launch_index`), through
    /// [`Plan::launch_rolls`]; the caller supplies the index from its
    /// launch-attempt counter so retries roll fresh.
    /// Throttles stretch the layer (and its preceding transform) by the
    /// fault's factor and execution continues; launch failures and OOM
    /// stop the attempt at that layer with the elapsed time kept.
    ///
    /// With no plan — or a [`FaultPlan::is_noop`] plan — the attempt
    /// returns exactly [`Plan::total_time`], bit for bit: zero-fault
    /// injection is indistinguishable from no injection.
    pub fn execute_attempt(
        &self,
        plan: &Plan,
        faults: Option<&FaultPlan>,
        launch_index: u64,
    ) -> LaunchAttempt {
        let Some(fp) = faults.filter(|p| !p.is_noop()) else {
            return LaunchAttempt { time: plan.total_time(), throttled: 0, error: None };
        };
        let mut time = 0.0f64;
        let mut throttled = 0u32;
        for (pl, roll) in plan.layers.iter().zip(plan.launch_rolls(fp, launch_index)) {
            match roll {
                None => time += pl.transform_before + pl.time,
                Some(Fault::Throttled { factor }) => {
                    throttled += 1;
                    time += (pl.transform_before + pl.time) * factor;
                }
                Some(fault @ Fault::LaunchFailed) => {
                    return LaunchAttempt {
                        time,
                        throttled,
                        error: Some(EngineError::Transient {
                            layer: pl.name.clone(),
                            launch: launch_index,
                            fault,
                        }),
                    };
                }
                Some(Fault::DeviceOom) => {
                    return LaunchAttempt {
                        time,
                        throttled,
                        error: Some(EngineError::ExecOom {
                            layer: pl.name.clone(),
                            launch: launch_index,
                        }),
                    };
                }
            }
        }
        LaunchAttempt { time, throttled, error: None }
    }

    /// Simulate a whole network under a mechanism, producing the per-layer
    /// report (the Fig 14/15 generator). Thin wrapper over
    /// [`Engine::plan`] + [`Engine::execute`]; callers that re-run the
    /// same network should plan once and execute the plan instead.
    pub fn simulate_network(
        &self,
        net: &Network,
        mech: Mechanism,
    ) -> Result<NetworkReport, SimError> {
        Ok(self.execute(&self.plan(net, mech)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkBuilder;

    fn engine() -> Engine {
        Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
    }

    fn lenet_like() -> Network {
        NetworkBuilder::new("lenet-like", Shape::new(128, 1, 28, 28))
            .conv("CV1", 16, 5, 1, 2)
            .max_pool("PL1", 2, 2)
            .conv("CV2", 16, 5, 1, 2)
            .max_pool("PL2", 2, 2)
            .fc("fc", 10)
            .softmax("prob")
            .build()
            .unwrap()
    }

    #[test]
    fn every_mechanism_simulates_lenet() {
        let e = engine();
        let net = lenet_like();
        for m in Mechanism::ALL {
            let r = e.simulate_network(&net, m).unwrap();
            assert_eq!(r.layers.len(), 6, "{m}");
            assert!(r.total_time() > 0.0, "{m}");
        }
    }

    #[test]
    fn opt_beats_fixed_layout_mechanisms_on_lenet() {
        // Fig 14: for LeNet, Opt >> cuDNN (5.61x over cuDNN-MM) and at
        // least matches cuda-convnet.
        let e = engine();
        let net = lenet_like();
        let opt = e.simulate_network(&net, Mechanism::Opt).unwrap().total_time();
        let mm = e.simulate_network(&net, Mechanism::CudnnMm).unwrap().total_time();
        let convnet = e.simulate_network(&net, Mechanism::CudaConvnet).unwrap().total_time();
        assert!(opt < mm, "opt {:.3}ms vs mm {:.3}ms", opt * 1e3, mm * 1e3);
        assert!(opt <= convnet * 1.001, "opt {:.3}ms vs convnet {:.3}ms", opt * 1e3, convnet * 1e3);
    }

    #[test]
    fn fixed_layout_mechanisms_have_no_transforms() {
        let e = engine();
        let net = lenet_like();
        for m in [Mechanism::CudaConvnet, Mechanism::CudnnMm, Mechanism::Caffe] {
            let r = e.simulate_network(&net, m).unwrap();
            assert_eq!(r.transform_count(), 0, "{m}");
        }
    }

    #[test]
    fn opt_layouts_match_heuristic_on_uniform_networks() {
        // LeNet: all convs have N=128 -> everything CHWN, zero transforms.
        let e = engine();
        let r = e.simulate_network(&lenet_like(), Mechanism::Opt).unwrap();
        assert_eq!(r.transform_count(), 0);
        for l in &r.layers {
            if l.layout != "-" {
                assert_eq!(l.layout, "CHWN", "{}", l.name);
            }
        }
    }

    #[test]
    fn mixed_network_inserts_transforms() {
        // An AlexNet-like tail: N=64 with large C prefers NCHW for convs,
        // CHWN for pooling only if the transforms pay for themselves.
        let e = engine();
        let net = NetworkBuilder::new("mixed", Shape::new(64, 3, 64, 64))
            .conv("CV1", 96, 5, 2, 0)
            .max_pool("PL1", 3, 2)
            .conv("CV2", 256, 3, 1, 1)
            .max_pool("PL2", 3, 2)
            .fc("fc", 100)
            .softmax("prob")
            .build()
            .unwrap();
        let r = e.simulate_network(&net, Mechanism::Opt).unwrap();
        // CV1 has C=3 < Ct: CHWN. CV2 has C=96, N=64: NCHW. At least one
        // boundary must transform.
        assert_eq!(r.layer("CV1").unwrap().layout, "CHWN");
        assert_eq!(r.layer("CV2").unwrap().layout, "NCHW");
        assert!(r.transform_count() >= 1);
        // And the DP must still beat both fixed-layout baselines.
        let convnet = e.simulate_network(&net, Mechanism::CudaConvnet).unwrap().total_time();
        let mm = e.simulate_network(&net, Mechanism::CudnnMm).unwrap().total_time();
        assert!(r.total_time() <= convnet.min(mm) * 1.001);
    }

    #[test]
    fn naive_transform_quality_is_slower() {
        let e = engine();
        let naive = Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
            .with_transform_quality(TransformQuality::Naive);
        let shape = Shape::new(128, 16, 14, 14);
        let fast = e.transform_time(shape, Layout::CHWN, Layout::NCHW).unwrap();
        let slow = naive.transform_time(shape, Layout::CHWN, Layout::NCHW).unwrap();
        assert!(slow > fast, "naive {slow:.2e} vs opt {fast:.2e}");
        assert_eq!(e.transform_time(shape, Layout::NCHW, Layout::NCHW).unwrap(), 0.0);
    }

    #[test]
    fn fft_mechanism_falls_back_on_strided_conv() {
        // ZFNet CV5 (stride 2): cuDNN-FFT must fall back to MM.
        let e = engine();
        let net = NetworkBuilder::new("zf-head", Shape::new(64, 3, 224, 224))
            .conv("CV5", 96, 3, 2, 0)
            .build()
            .unwrap();
        let r = e.simulate_network(&net, Mechanism::CudnnFft).unwrap();
        assert!(r.layers[0].fell_back);
        assert_eq!(r.layers[0].impl_name, "mm");
    }

    #[test]
    fn plan_then_execute_matches_simulate_network() {
        let e = engine();
        let net = lenet_like();
        for m in [Mechanism::Opt, Mechanism::CudnnMm, Mechanism::CudaConvnet] {
            let direct = e.simulate_network(&net, m).unwrap();
            let plan = e.plan(&net, m).unwrap();
            assert_eq!(plan.batch, 128);
            assert!((plan.total_time() - direct.total_time()).abs() == 0.0, "{m}");
            let replayed = e.execute(&plan);
            assert_eq!(replayed.layers.len(), direct.layers.len());
            for (a, b) in direct.layers.iter().zip(&replayed.layers) {
                assert_eq!(a.time, b.time, "{m} {}", a.name);
                assert_eq!(a.layout, b.layout, "{m} {}", a.name);
                assert_eq!(a.impl_name, b.impl_name, "{m} {}", a.name);
                assert_eq!(a.transform_before, b.transform_before, "{m} {}", a.name);
            }
        }
    }

    #[test]
    fn plan_at_rebatches_and_layouts_track_n() {
        // The heuristic (Ct=32, Nt=128): C=96 convs flip NCHW -> CHWN when
        // the plan's batch size crosses Nt.
        let e = Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
            .with_layout_policy(LayoutPolicy::Heuristic);
        let net = NetworkBuilder::new("bucketed", Shape::new(1, 96, 28, 28))
            .conv("CV", 128, 3, 1, 1)
            .build()
            .unwrap();
        let small = e.plan_at(&net, Mechanism::Opt, 32).unwrap();
        let large = e.plan_at(&net, Mechanism::Opt, 256).unwrap();
        assert_eq!(small.batch, 32);
        assert_eq!(large.batch, 256);
        assert_eq!(small.layout_of("CV"), Some(Layout::NCHW));
        assert_eq!(large.layout_of("CV"), Some(Layout::CHWN));
        assert_eq!(small.conv_layout_signature(), "NCHW");
        assert_eq!(large.conv_layout_signature(), "CHWN");
    }

    #[test]
    fn heuristic_policy_matches_rule_exactly() {
        let e = Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
            .with_layout_policy(LayoutPolicy::Heuristic);
        let net = NetworkBuilder::new("n", Shape::new(64, 128, 28, 28))
            .conv("CV", 256, 3, 1, 1)
            .max_pool("PL", 3, 2)
            .build()
            .unwrap();
        let r = e.simulate_network(&net, Mechanism::Opt).unwrap();
        assert_eq!(r.layer("CV").unwrap().layout, "NCHW"); // C=128 >= 32, N=64 < 128
        assert_eq!(r.layer("PL").unwrap().layout, "CHWN"); // pooling rule
    }
}
