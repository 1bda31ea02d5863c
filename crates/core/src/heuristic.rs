//! The data-layout selection heuristic — §IV.A.
//!
//! "For a given convolutional configuration, (1) if the value of C is
//! smaller than a threshold Ct, CHWN will be preferred ... (2) if N is
//! greater than or equal to a threshold Nt, the CHWN data layout is still
//! the better choice ... For the rest of the configurations, NCHW is the
//! preferred choice. ... the thresholds (Ct and Nt) can vary [per GPU] ...
//! for each GPU architecture, we only need one-time profiling to determine
//! the thresholds."
//!
//! [`derive_thresholds`] performs that one-time profiling on the simulated
//! device: the same N- and C-sweeps as the paper's Fig 4.

use memcnn_gpusim::{simulate, DeviceConfig, SimError, SimOptions};
use memcnn_kernels::conv::direct_chwn::DirectConvChwn;
use memcnn_kernels::conv::fft_nchw::{FftConvMode, FftConvNchw};
use memcnn_kernels::conv::mm_nchw::MmConvNchw;
use memcnn_kernels::ConvShape;
use memcnn_tensor::Layout;
use serde::Serialize;

/// Per-device layout thresholds `(Ct, Nt)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct LayoutThresholds {
    /// Channel threshold: `C < Ct` prefers `CHWN`.
    pub ct: usize,
    /// Batch threshold: `N >= Nt` prefers `CHWN`.
    pub nt: usize,
}

impl LayoutThresholds {
    /// The paper's Titan Black values (§IV.A).
    pub fn titan_black_paper() -> LayoutThresholds {
        LayoutThresholds { ct: 32, nt: 128 }
    }

    /// The paper's Titan X values (§IV.A).
    pub fn titan_x_paper() -> LayoutThresholds {
        LayoutThresholds { ct: 128, nt: 64 }
    }
}

/// The §IV.A selection rule.
///
/// ```
/// use memcnn_core::{choose_layout, LayoutThresholds};
/// use memcnn_kernels::ConvShape;
/// use memcnn_tensor::Layout;
///
/// let th = LayoutThresholds::titan_black_paper(); // (Ct, Nt) = (32, 128)
/// // LeNet CONV1: C = 1 < Ct -> CHWN.
/// assert_eq!(choose_layout(&ConvShape::table1(128, 16, 28, 5, 1, 1), &th), Layout::CHWN);
/// // ZFNet CONV7: C = 256, N = 64 -> NCHW.
/// assert_eq!(choose_layout(&ConvShape::table1(64, 384, 13, 3, 256, 1), &th), Layout::NCHW);
/// ```
pub fn choose_layout(shape: &ConvShape, th: &LayoutThresholds) -> Layout {
    if shape.ci < th.ct || shape.n >= th.nt {
        Layout::CHWN
    } else {
        Layout::NCHW
    }
}

/// Best simulated time for a convolution in the `CHWN` layout (direct
/// convolution — the preferred implementation for that layout, §IV.D).
pub fn time_chwn(
    device: &DeviceConfig,
    shape: &ConvShape,
    opts: &SimOptions,
) -> Result<f64, SimError> {
    Ok(simulate(device, &DirectConvChwn::new(*shape), opts)?.time())
}

/// Simulated time for a convolution in the `NCHW` layout under cuDNN's
/// default matrix-multiplication method — the comparison the paper's Fig 4
/// sweeps and threshold profiling use ("Here we use cuDNN to denote its
/// default MM method").
pub fn time_nchw_mm(
    device: &DeviceConfig,
    shape: &ConvShape,
    opts: &SimOptions,
) -> Result<f64, SimError> {
    Ok(MmConvNchw::new(*shape).simulate(device, opts)?.time())
}

/// Best simulated time for a convolution in the `NCHW` layout (the best of
/// MM, FFT and FFT-tiling, as cuDNN-Best would pick).
pub fn time_nchw(
    device: &DeviceConfig,
    shape: &ConvShape,
    opts: &SimOptions,
) -> Result<f64, SimError> {
    let mut best = time_nchw_mm(device, shape, opts)?;
    for mode in [FftConvMode::Full, FftConvMode::Tiled] {
        if let Ok(p) = FftConvNchw::new(*shape, mode) {
            if let Ok(r) = p.simulate(device, opts) {
                best = best.min(r.time());
            }
        }
    }
    Ok(best)
}

/// The profiling shape family used for threshold derivation: CONV7 from
/// Table 1 (the layer the paper's Fig 4 sweeps), with `N` and `C` varied.
fn probe_shape(n: usize, c: usize) -> ConvShape {
    ConvShape::table1(n, 384, 13, 3, c, 1)
}

/// One-time profiling: sweep `C` (at moderate `N`) to find `Ct`, and `N`
/// (at large `C`) to find `Nt`, exactly as Fig 4 does on hardware.
pub fn derive_thresholds(
    device: &DeviceConfig,
    opts: &SimOptions,
) -> Result<LayoutThresholds, SimError> {
    let _buffers = memcnn_gpusim::reuse_trace_buffers();
    // Ct: smallest C at which NCHW wins with N fixed at 64.
    let c_sweep = [16usize, 32, 64, 128, 256];
    let mut ct = *c_sweep.last().unwrap() * 2; // "never": CHWN always wins
    for &c in &c_sweep {
        let s = probe_shape(64, c);
        if time_nchw_mm(device, &s, opts)? < time_chwn(device, &s, opts)? {
            ct = c;
            break;
        }
    }
    // Nt: smallest N at which CHWN wins back with C fixed at 256.
    let n_sweep = [32usize, 64, 128, 256];
    let mut nt = *n_sweep.last().unwrap() * 2;
    for &n in &n_sweep {
        let s = probe_shape(n, 256);
        if time_chwn(device, &s, opts)? < time_nchw_mm(device, &s, opts)? {
            nt = n;
            break;
        }
    }
    Ok(LayoutThresholds { ct, nt })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_matches_paper_examples_on_titan_black() {
        let th = LayoutThresholds::titan_black_paper();
        // §VI.A: "For the layers including CONV1, CONV2, CONV3, and CONV4,
        // CHWN is the best layout as the value of N is 128."
        assert_eq!(choose_layout(&ConvShape::table1(128, 16, 28, 5, 1, 1), &th), Layout::CHWN);
        assert_eq!(choose_layout(&ConvShape::table1(128, 64, 12, 5, 64, 1), &th), Layout::CHWN);
        // "For the layers including CONV5 and CONV9, the number of input
        // feature channels is less than 16. Thus, CHWN is still the best."
        assert_eq!(choose_layout(&ConvShape::table1(64, 96, 224, 3, 3, 2), &th), Layout::CHWN);
        assert_eq!(choose_layout(&ConvShape::table1(32, 64, 224, 3, 3, 1), &th), Layout::CHWN);
        // "For the rest layers ... NCHW achieves higher performance":
        // CONV6-8, CONV10-12 (N in {32, 64}, C >= 96).
        for s in [
            ConvShape::table1(64, 256, 55, 5, 96, 2),
            ConvShape::table1(64, 384, 13, 3, 256, 1),
            ConvShape::table1(32, 256, 56, 3, 128, 1),
            ConvShape::table1(32, 512, 14, 3, 512, 1),
        ] {
            assert_eq!(choose_layout(&s, &th), Layout::NCHW, "{s}");
        }
    }

    #[test]
    fn titan_x_thresholds_flip_conv6() {
        // On Titan X (Ct=128): CONV6 (C=96 < 128) switches to CHWN.
        let s = ConvShape::table1(64, 256, 55, 5, 96, 2);
        assert_eq!(choose_layout(&s, &LayoutThresholds::titan_black_paper()), Layout::NCHW);
        assert_eq!(choose_layout(&s, &LayoutThresholds::titan_x_paper()), Layout::CHWN);
    }

    #[test]
    fn derived_thresholds_are_in_paper_range_on_titan_black() {
        let d = DeviceConfig::titan_black();
        let th = derive_thresholds(&d, &SimOptions::default()).unwrap();
        // The paper derives (32, 128); accept the derivation landing within
        // one sweep step.
        assert!(th.ct >= 16 && th.ct <= 64, "ct = {}", th.ct);
        assert!(th.nt >= 64 && th.nt <= 256, "nt = {}", th.nt);
    }
}

#[cfg(test)]
mod debug_sweeps {
    use super::*;

    #[test]
    #[ignore]
    fn print_fig4_sweeps() {
        let d = DeviceConfig::titan_black();
        let o = SimOptions::default();
        println!("-- Fig 4a: N sweep (CONV7, C=256) GFLOPS --");
        for n in [1usize, 3, 16, 32, 64, 128, 256, 384, 512] {
            let s = probe_shape(n, 256);
            let gf = |t: f64| s.flops() as f64 / t / 1e9;
            let tc = time_chwn(&d, &s, &o).unwrap();
            let tn = time_nchw_mm(&d, &s, &o).unwrap();
            println!("N={n:4}  chwn {:7.0}  nchw {:7.0}", gf(tc), gf(tn));
        }
        println!("-- Fig 4b: C sweep (CONV7, N=64) GFLOPS --");
        for c in [16usize, 32, 64, 128, 256] {
            let s = probe_shape(64, c);
            let gf = |t: f64| s.flops() as f64 / t / 1e9;
            let tc = time_chwn(&d, &s, &o).unwrap();
            let tn = time_nchw_mm(&d, &s, &o).unwrap();
            println!("C={c:4}  chwn {:7.0}  nchw {:7.0}", gf(tc), gf(tn));
        }
        let th = derive_thresholds(&d, &o).unwrap();
        println!("derived thresholds: Ct={} Nt={}", th.ct, th.nt);
    }
}
