//! Layer shape descriptions shared by every kernel in this crate.

use memcnn_tensor::Shape;
use std::fmt;

/// Shape of a convolutional layer (the columns of the paper's Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Batch size (`Ni`).
    pub n: usize,
    /// Input feature maps (`Ci`).
    pub ci: usize,
    /// Input height/width (square images, `H/W` in Table 1).
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output feature maps (`Co`).
    pub co: usize,
    /// Filter height (`Fh`).
    pub fh: usize,
    /// Filter width (`Fw`).
    pub fw: usize,
    /// Stride (`S`).
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
}

impl ConvShape {
    /// Square-image constructor matching Table 1 columns
    /// `(Ni, Co, H/W, Fw/Fh, Ci, S)`.
    pub const fn table1(n: usize, co: usize, hw: usize, f: usize, ci: usize, s: usize) -> Self {
        ConvShape { n, ci, h: hw, w: hw, co, fh: f, fw: f, stride: s, pad: 0 }
    }

    /// Output height.
    pub const fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.fh) / self.stride + 1
    }

    /// Output width.
    pub const fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.fw) / self.stride + 1
    }

    /// Input tensor shape.
    pub const fn input_shape(&self) -> Shape {
        Shape::new(self.n, self.ci, self.h, self.w)
    }

    /// Output tensor shape.
    pub const fn output_shape(&self) -> Shape {
        Shape::new(self.n, self.co, self.out_h(), self.out_w())
    }

    /// Filter tensor shape (`N`=Co, `C`=Ci, `H`=Fh, `W`=Fw).
    pub const fn filter_shape(&self) -> Shape {
        Shape::new(self.co, self.ci, self.fh, self.fw)
    }

    /// FMA FLOPs of the convolution (2 per multiply-accumulate).
    pub const fn flops(&self) -> u64 {
        2 * (self.n * self.co * self.out_h() * self.out_w() * self.ci * self.fh * self.fw) as u64
    }

    /// Validate basic consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 || self.ci == 0 || self.co == 0 {
            return Err(format!("degenerate conv shape {self:?}"));
        }
        if self.fh > self.h + 2 * self.pad || self.fw > self.w + 2 * self.pad {
            return Err(format!("filter exceeds padded input in {self:?}"));
        }
        if self.stride == 0 {
            return Err("stride must be positive".into());
        }
        Ok(())
    }
}

impl fmt::Display for ConvShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conv N={} Ci={} {}x{} -> Co={} F={}x{} s={} p={}",
            self.n, self.ci, self.h, self.w, self.co, self.fh, self.fw, self.stride, self.pad
        )
    }
}

/// Shape of a pooling layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PoolShape {
    /// Batch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Pooling window (square, `X = Y` in Eq. 2).
    pub window: usize,
    /// Stride between successive windows.
    pub stride: usize,
    /// Ceil-mode output sizing (cuda-convnet/Caffe convention): a final,
    /// clamped window covers the remainder. Floor mode drops it.
    pub ceil_mode: bool,
}

impl PoolShape {
    /// Square constructor matching Table 1 columns `(Ni, H/W, Fw, Ci, S)`,
    /// floor-mode.
    pub const fn table1(n: usize, hw: usize, window: usize, c: usize, s: usize) -> Self {
        PoolShape { n, c, h: hw, w: hw, window, stride: s, ceil_mode: false }
    }

    /// Builder-style ceil-mode toggle.
    pub const fn with_ceil_mode(mut self, ceil: bool) -> Self {
        self.ceil_mode = ceil;
        self
    }

    const fn out_dim(&self, extent: usize) -> usize {
        let span = extent - self.window;
        if self.ceil_mode {
            // ceil(span / stride) + 1; the last window clamps to the edge.
            // A last window that would start past the input is dropped, as
            // Caffe does (only possible when stride > window).
            let out = span.div_ceil(self.stride) + 1;
            if (out - 1) * self.stride >= extent {
                out - 1
            } else {
                out
            }
        } else {
            span / self.stride + 1
        }
    }

    /// Output height.
    pub const fn out_h(&self) -> usize {
        self.out_dim(self.h)
    }

    /// Output width.
    pub const fn out_w(&self) -> usize {
        self.out_dim(self.w)
    }

    /// Whether windows overlap (`window > stride`), the case §V.A's
    /// register-reuse optimization targets.
    pub const fn overlapped(&self) -> bool {
        self.window > self.stride
    }

    /// Input tensor shape.
    pub const fn input_shape(&self) -> Shape {
        Shape::new(self.n, self.c, self.h, self.w)
    }

    /// Output tensor shape.
    pub const fn output_shape(&self) -> Shape {
        Shape::new(self.n, self.c, self.out_h(), self.out_w())
    }

    /// Validate basic consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 || self.stride == 0 {
            return Err("window and stride must be positive".into());
        }
        if self.window > self.h || self.window > self.w {
            return Err(format!("window exceeds input in {self:?}"));
        }
        Ok(())
    }
}

impl fmt::Display for PoolShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pool N={} C={} {}x{} win={} s={}{}",
            self.n,
            self.c,
            self.h,
            self.w,
            self.window,
            self.stride,
            if self.overlapped() { " (overlapped)" } else { "" }
        )
    }
}

/// Shape of a softmax (classifier) layer: a `batch x categories` matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SoftmaxShape {
    /// Batch size (images).
    pub batch: usize,
    /// Number of categories.
    pub categories: usize,
}

impl SoftmaxShape {
    /// Construct from batch and category counts.
    pub const fn new(batch: usize, categories: usize) -> Self {
        SoftmaxShape { batch, categories }
    }

    /// Elements of the input/output matrix.
    pub const fn len(&self) -> usize {
        self.batch * self.categories
    }

    /// Whether the matrix is empty.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for SoftmaxShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "softmax {}/{}", self.batch, self.categories)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_dims() {
        // LeNet CONV1: 28x28, F=5, s=1 -> 24x24.
        let cv1 = ConvShape::table1(128, 16, 28, 5, 1, 1);
        assert_eq!(cv1.out_h(), 24);
        // ZFNet CONV5: 224, F=3, s=2 -> 111.
        let cv5 = ConvShape::table1(64, 96, 224, 3, 3, 2);
        assert_eq!(cv5.out_h(), 111);
        // Padding: 13 + 2*1 - 3 + 1 = 13 (same-conv).
        let same = ConvShape { pad: 1, ..ConvShape::table1(64, 384, 13, 3, 256, 1) };
        assert_eq!(same.out_h(), 13);
    }

    #[test]
    fn conv_flops_formula() {
        let s = ConvShape::table1(1, 1, 3, 3, 1, 1);
        // 1 output element, 9 MACs = 18 FLOPs.
        assert_eq!(s.flops(), 18);
    }

    #[test]
    fn conv_validation() {
        assert!(ConvShape::table1(128, 16, 28, 5, 1, 1).validate().is_ok());
        assert!(ConvShape::table1(0, 16, 28, 5, 1, 1).validate().is_err());
        assert!(ConvShape::table1(128, 16, 4, 5, 1, 1).validate().is_err());
        let zero_stride = ConvShape { stride: 0, ..ConvShape::table1(1, 1, 8, 3, 1, 1) };
        assert!(zero_stride.validate().is_err());
    }

    #[test]
    fn pool_output_dims_and_overlap() {
        // PL1 (LeNet): 28x28, win 2, s 2 -> 14x14, non-overlapped.
        let pl1 = PoolShape::table1(128, 28, 2, 16, 2);
        assert_eq!(pl1.out_h(), 14);
        assert!(!pl1.overlapped());
        // PL5 (AlexNet): 55x55, win 3, s 2 -> 27x27, overlapped.
        let pl5 = PoolShape::table1(128, 55, 3, 96, 2);
        assert_eq!(pl5.out_h(), 27);
        assert!(pl5.overlapped());
    }

    #[test]
    fn pool_validation() {
        assert!(PoolShape::table1(128, 28, 2, 16, 2).validate().is_ok());
        assert!(PoolShape::table1(128, 2, 3, 16, 2).validate().is_err());
        let zero = PoolShape { stride: 0, ..PoolShape::table1(1, 8, 2, 1, 2) };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn shapes_display() {
        let s = ConvShape::table1(128, 16, 28, 5, 1, 1).to_string();
        assert!(s.contains("N=128"));
        assert!(PoolShape::table1(128, 55, 3, 96, 2).to_string().contains("overlapped"));
        assert_eq!(SoftmaxShape::new(128, 10).to_string(), "softmax 128/10");
    }
}
