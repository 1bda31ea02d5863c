//! Network descriptions: an ordered stack of layers with resolved shapes,
//! the analogue of a Caffe prototxt (§IV.D: "each CNN has a configuration
//! file that defines a network structure by specifying a stack of various
//! layers").

use crate::layer::{Layer, LayerSpec};
use memcnn_kernels::pool::PoolOp;
use memcnn_kernels::PoolShape;
use memcnn_tensor::Shape;
use std::fmt;

/// Errors from network construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// A layer cannot be applied to the running shape.
    BadShape(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadShape(m) => write!(f, "bad layer shape: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A feed-forward CNN: named layers with resolved shapes.
#[derive(Clone, Debug)]
pub struct Network {
    /// Network name (e.g. `"AlexNet"`).
    pub name: String,
    /// Shape of the input batch.
    pub input: Shape,
    layers: Vec<Layer>,
}

impl Network {
    /// The layers in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Output shape of the whole network.
    pub fn output(&self) -> Shape {
        self.layers.last().map(|l| l.output).unwrap_or(self.input)
    }

    /// The same architecture at a different batch size: every layer spec is
    /// replayed through the builder with `n` images, re-resolving shapes.
    /// Spatial dims are independent of `N`, so any network that builds at
    /// one batch size builds at all of them; the `Result` only guards
    /// against `n == 0` style misuse.
    pub fn with_batch(&self, n: usize) -> Result<Network, NetError> {
        if n == 0 {
            return Err(NetError::BadShape(format!("{}: batch size must be >= 1", self.name)));
        }
        let mut b = NetworkBuilder::new(
            self.name.clone(),
            Shape::new(n, self.input.c, self.input.h, self.input.w),
        );
        for l in &self.layers {
            b = b.push(&l.name, l.spec.clone());
        }
        b.build()
    }
}

/// `shape` if it holds at least one element and its `f32` byte size fits
/// in `usize`. Every dimension of such a shape is at most `usize::MAX / 4`,
/// so the layer arithmetic in [`NetworkBuilder`] cannot overflow on it.
fn sized(name: &str, shape: Shape) -> Result<Shape, NetError> {
    let dims = [shape.n, shape.c, shape.h, shape.w];
    match dims.iter().try_fold(std::mem::size_of::<f32>(), |acc, &d| acc.checked_mul(d)) {
        Some(bytes) if bytes > 0 => Ok(shape),
        _ => Err(NetError::BadShape(format!("{name}: shape {shape} is empty or too large"))),
    }
}

/// Builder that tracks the running shape and resolves each layer.
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    name: String,
    input: Shape,
    current: Shape,
    layers: Vec<Layer>,
    error: Option<NetError>,
}

impl NetworkBuilder {
    /// Start a network taking `input`-shaped batches.
    pub fn new(name: impl Into<String>, input: Shape) -> NetworkBuilder {
        let name = name.into();
        let error = sized(&name, input).err();
        NetworkBuilder { name, input, current: input, layers: Vec::new(), error }
    }

    fn push(mut self, name: &str, spec: LayerSpec) -> Self {
        if self.error.is_some() {
            return self;
        }
        let input = self.current;
        let output = match &spec {
            LayerSpec::Conv { co, f, stride, pad } => {
                // Output extent along one axis; `None` if the filter does
                // not fit or the padded extent overflows.
                let extent = |x: usize| {
                    let padded = pad.checked_mul(2)?.checked_add(x)?;
                    if *stride == 0 || *f > padded {
                        return None;
                    }
                    ((padded - f) / stride).checked_add(1)
                };
                let (Some(h), Some(w)) = (extent(input.h), extent(input.w)) else {
                    self.error = Some(NetError::BadShape(format!(
                        "{name}: filter {f} (stride {stride}) does not fit {input}"
                    )));
                    return self;
                };
                Shape::new(input.n, *co, h, w)
            }
            LayerSpec::Pool { window, stride, .. } => {
                if *window > input.h || *window > input.w || *stride == 0 {
                    self.error = Some(NetError::BadShape(format!(
                        "{name}: window {window} does not fit {input}"
                    )));
                    return self;
                }
                // Ceil-mode output sizing, matching the evaluated
                // frameworks (see `Layer::pool_shape`).
                let pool = PoolShape {
                    n: input.n,
                    c: input.c,
                    h: input.h,
                    w: input.w,
                    window: *window,
                    stride: *stride,
                    ceil_mode: true,
                };
                pool.output_shape()
            }
            LayerSpec::Lrn { .. } | LayerSpec::ReLU => input,
            LayerSpec::Fc { outputs } => Shape::new(input.n, *outputs, 1, 1),
            LayerSpec::Softmax => {
                if input.h != 1 || input.w != 1 {
                    self.error = Some(NetError::BadShape(format!(
                        "{name}: softmax needs flat input (C x 1 x 1), got {input}"
                    )));
                    return self;
                }
                input
            }
        };
        if let Err(e) = sized(name, output) {
            self.error = Some(e);
            return self;
        }
        self.layers.push(Layer { name: name.to_string(), spec, input, output });
        self.current = output;
        self
    }

    /// Add a convolution.
    pub fn conv(self, name: &str, co: usize, f: usize, stride: usize, pad: usize) -> Self {
        self.push(name, LayerSpec::Conv { co, f, stride, pad })
    }

    /// Add a max-pooling layer.
    pub fn max_pool(self, name: &str, window: usize, stride: usize) -> Self {
        self.push(name, LayerSpec::Pool { window, stride, op: PoolOp::Max })
    }

    /// Add an average-pooling layer.
    pub fn avg_pool(self, name: &str, window: usize, stride: usize) -> Self {
        self.push(name, LayerSpec::Pool { window, stride, op: PoolOp::Avg })
    }

    /// Add a local response normalization layer.
    pub fn lrn(self, name: &str, size: usize) -> Self {
        self.push(name, LayerSpec::Lrn { size })
    }

    /// Add a ReLU activation.
    pub fn relu(self, name: &str) -> Self {
        self.push(name, LayerSpec::ReLU)
    }

    /// Add a fully-connected layer.
    pub fn fc(self, name: &str, outputs: usize) -> Self {
        self.push(name, LayerSpec::Fc { outputs })
    }

    /// Add the final softmax classifier.
    pub fn softmax(self, name: &str) -> Self {
        self.push(name, LayerSpec::Softmax)
    }

    /// Finish, returning the network or the first shape error.
    pub fn build(self) -> Result<Network, NetError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(Network { name: self.name, input: self.input, layers: self.layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_shapes_resolve() {
        // LeNet per Table 1: CONV1 28->24, POOL1 24->12 ... with the paper's
        // layer dims (CONV2 at 14 implies pooling first in their variant;
        // here we just verify the builder math).
        let net = NetworkBuilder::new("lenet-ish", Shape::new(128, 1, 28, 28))
            .conv("CV1", 16, 5, 1, 2)
            .max_pool("PL1", 2, 2)
            .conv("CV2", 16, 5, 1, 2)
            .max_pool("PL2", 2, 2)
            .fc("fc", 10)
            .softmax("prob")
            .build()
            .unwrap();
        assert_eq!(net.layers().len(), 6);
        assert_eq!(net.layers()[0].output, Shape::new(128, 16, 28, 28));
        assert_eq!(net.layers()[1].output, Shape::new(128, 16, 14, 14));
        assert_eq!(net.layers()[3].output, Shape::new(128, 16, 7, 7));
        assert_eq!(net.output(), Shape::new(128, 10, 1, 1));
    }

    #[test]
    fn oversized_filter_is_rejected() {
        let err = NetworkBuilder::new("bad", Shape::new(1, 1, 4, 4))
            .conv("CV1", 8, 5, 1, 0)
            .build()
            .unwrap_err();
        assert!(matches!(err, NetError::BadShape(_)));
    }

    #[test]
    fn softmax_requires_flat_input() {
        let err =
            NetworkBuilder::new("bad", Shape::new(1, 3, 8, 8)).softmax("prob").build().unwrap_err();
        assert!(matches!(err, NetError::BadShape(_)));
    }

    #[test]
    fn error_is_sticky_through_later_layers() {
        let err = NetworkBuilder::new("bad", Shape::new(1, 1, 4, 4))
            .conv("CV1", 8, 5, 1, 0)
            .relu("r")
            .fc("fc", 10)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("CV1"));
    }

    #[test]
    fn with_batch_rescales_every_layer_shape() {
        let net = NetworkBuilder::new("rebatch", Shape::new(128, 3, 24, 24))
            .conv("CV", 64, 5, 1, 2)
            .max_pool("PL", 3, 2)
            .fc("fc", 10)
            .softmax("prob")
            .build()
            .unwrap();
        let small = net.with_batch(16).unwrap();
        assert_eq!(small.input, Shape::new(16, 3, 24, 24));
        assert_eq!(small.layers().len(), net.layers().len());
        for (a, b) in net.layers().iter().zip(small.layers()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(b.input.n, 16, "{}", b.name);
            // Only N changes: C/H/W are batch-independent.
            assert_eq!((a.input.c, a.input.h, a.input.w), (b.input.c, b.input.h, b.input.w));
        }
        assert!(net.with_batch(0).is_err());
    }

    #[test]
    fn empty_network_output_is_input() {
        let net = NetworkBuilder::new("empty", Shape::new(2, 3, 4, 4)).build().unwrap();
        assert_eq!(net.output(), net.input);
    }
}
