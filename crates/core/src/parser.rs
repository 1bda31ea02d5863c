//! A prototxt-like network description format.
//!
//! §IV.D: "In the deep learning frameworks such as Caffe or Cuda-convnet,
//! each CNN has a configuration file that defines a network structure by
//! specifying a stack of various layers." This module provides that
//! configuration-file path: a small line-oriented format parsed into a
//! [`Network`].
//!
//! ```text
//! # comment
//! name: LeNet
//! input: 128 1 28 28          # N C H W
//! conv CV1 co=16 f=5 stride=1 pad=2
//! relu relu1
//! pool PL1 window=2 stride=2 op=max
//! conv CV2 co=16 f=5 stride=1 pad=2
//! pool PL2 window=2 stride=2 op=max
//! fc ip1 outputs=128
//! fc ip2 outputs=10
//! softmax prob
//! lrn norm1 size=5            # also supported
//! ```

use crate::net::{NetError, Network, NetworkBuilder};
use memcnn_tensor::Shape;
use std::collections::HashMap;
use std::fmt;

/// Errors from parsing a network description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed line with its 1-based line number.
    Syntax(usize, String),
    /// Header (`name:`/`input:`) missing or misplaced.
    Header(String),
    /// Shape-inference failure from the builder.
    Net(NetError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(line, msg) => write!(f, "line {line}: {msg}"),
            ParseError::Header(msg) => write!(f, "header: {msg}"),
            ParseError::Net(e) => write!(f, "network: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<NetError> for ParseError {
    fn from(e: NetError) -> Self {
        ParseError::Net(e)
    }
}

fn parse_args(line_no: usize, parts: &[&str]) -> Result<HashMap<String, String>, ParseError> {
    let mut map = HashMap::new();
    for p in parts {
        let (k, v) = p
            .split_once('=')
            .ok_or_else(|| ParseError::Syntax(line_no, format!("expected key=value, got {p:?}")))?;
        map.insert(k.to_string(), v.to_string());
    }
    Ok(map)
}

fn req_usize(
    line_no: usize,
    args: &HashMap<String, String>,
    key: &str,
) -> Result<usize, ParseError> {
    args.get(key)
        .ok_or_else(|| ParseError::Syntax(line_no, format!("missing {key}=")))?
        .parse()
        .map_err(|_| ParseError::Syntax(line_no, format!("{key} must be a number")))
}

fn opt_usize(
    line_no: usize,
    args: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, ParseError> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => {
            v.parse().map_err(|_| ParseError::Syntax(line_no, format!("{key} must be a number")))
        }
    }
}

/// Parse a network description (see module docs for the format).
///
/// ```
/// let net = memcnn_core::parse_network("
///     name: tiny
///     input: 32 3 24 24
///     conv c1 co=16 f=3 pad=1
///     relu r1
///     pool p1 window=2
///     fc out outputs=10
///     softmax prob
/// ").unwrap();
/// assert_eq!(net.layers().len(), 5);
/// assert_eq!(net.output(), memcnn_tensor::Shape::new(32, 10, 1, 1));
/// ```
pub fn parse_network(text: &str) -> Result<Network, ParseError> {
    let mut name: Option<String> = None;
    let mut builder: Option<NetworkBuilder> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("name:") {
            name = Some(rest.trim().to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("input:") {
            let dims: Vec<usize> = rest
                .split_whitespace()
                .map(|d| {
                    d.parse().map_err(|_| {
                        ParseError::Syntax(line_no, format!("bad input dimension {d:?}"))
                    })
                })
                .collect::<Result<_, _>>()?;
            let [n, c, h, w] = dims.as_slice() else {
                return Err(ParseError::Syntax(line_no, "input: wants N C H W".into()));
            };
            let net_name = name
                .clone()
                .ok_or_else(|| ParseError::Header("name: must precede input:".into()))?;
            builder = Some(NetworkBuilder::new(net_name, Shape::new(*n, *c, *h, *w)));
            continue;
        }
        let b = builder
            .take()
            .ok_or_else(|| ParseError::Header("input: must precede layers".into()))?;
        let mut parts = line.split_whitespace();
        let kind = parts.next().expect("non-empty line");
        let lname =
            parts.next().ok_or_else(|| ParseError::Syntax(line_no, "layer needs a name".into()))?;
        let rest: Vec<&str> = parts.collect();
        let args = parse_args(line_no, &rest)?;
        builder = Some(match kind {
            "conv" => b.conv(
                lname,
                req_usize(line_no, &args, "co")?,
                req_usize(line_no, &args, "f")?,
                opt_usize(line_no, &args, "stride", 1)?,
                opt_usize(line_no, &args, "pad", 0)?,
            ),
            "pool" => {
                let window = req_usize(line_no, &args, "window")?;
                let stride = opt_usize(line_no, &args, "stride", window)?;
                match args.get("op").map(String::as_str).unwrap_or("max") {
                    "max" => b.max_pool(lname, window, stride),
                    "avg" => b.avg_pool(lname, window, stride),
                    other => {
                        return Err(ParseError::Syntax(
                            line_no,
                            format!("op must be max or avg, got {other:?}"),
                        ))
                    }
                }
            }
            "relu" => b.relu(lname),
            "lrn" => b.lrn(lname, opt_usize(line_no, &args, "size", 5)?),
            "fc" => b.fc(lname, req_usize(line_no, &args, "outputs")?),
            "softmax" => b.softmax(lname),
            other => {
                return Err(ParseError::Syntax(line_no, format!("unknown layer kind {other:?}")))
            }
        });
    }
    builder
        .ok_or_else(|| ParseError::Header("no input: line found".into()))?
        .build()
        .map_err(ParseError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerSpec;

    const LENET: &str = "
        # LeNet as a config file
        name: LeNet
        input: 128 1 28 28
        conv CV1 co=16 f=5 stride=1 pad=2
        relu relu1
        pool PL1 window=2 stride=2 op=max
        conv CV2 co=16 f=5 pad=2        # stride defaults to 1
        pool PL2 window=2               # stride defaults to window
        fc ip1 outputs=128
        fc ip2 outputs=10
        softmax prob
    ";

    #[test]
    fn parses_lenet() {
        let net = parse_network(LENET).unwrap();
        assert_eq!(net.name, "LeNet");
        assert_eq!(net.layers().len(), 8);
        assert_eq!(net.output(), Shape::new(128, 10, 1, 1));
        assert!(matches!(
            net.layers()[0].spec,
            LayerSpec::Conv { co: 16, f: 5, stride: 1, pad: 2 }
        ));
        assert!(matches!(net.layers()[2].spec, LayerSpec::Pool { window: 2, stride: 2, .. }));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let net =
            parse_network("name: t\n\n# only a conv\ninput: 1 1 8 8\nconv c co=4 f=3\n").unwrap();
        assert_eq!(net.layers().len(), 1);
    }

    #[test]
    fn avg_pool_and_lrn() {
        let net = parse_network("name: t\ninput: 2 4 8 8\nlrn n1 size=3\npool p window=2 op=avg\n")
            .unwrap();
        assert!(matches!(net.layers()[0].spec, LayerSpec::Lrn { size: 3 }));
        assert!(matches!(
            net.layers()[1].spec,
            LayerSpec::Pool { op: memcnn_kernels::pool::PoolOp::Avg, .. }
        ));
    }

    #[test]
    fn error_cases_carry_line_numbers() {
        let e = parse_network("name: t\ninput: 1 1 8 8\nconv c f=3\n").unwrap_err();
        assert!(matches!(e, ParseError::Syntax(3, _)), "{e}");
        let e = parse_network("name: t\ninput: 1 1 8\n").unwrap_err();
        assert!(matches!(e, ParseError::Syntax(2, _)));
        let e = parse_network("name: t\ninput: 1 1 8 8\nwarp w\n").unwrap_err();
        assert!(e.to_string().contains("unknown layer kind"));
        let e = parse_network("conv c co=1 f=1\n").unwrap_err();
        assert!(matches!(e, ParseError::Header(_)));
        let e = parse_network("input: 1 1 8 8\n").unwrap_err();
        assert!(matches!(e, ParseError::Header(_)));
    }

    #[test]
    fn shape_errors_surface_as_net_errors() {
        let e = parse_network("name: t\ninput: 1 1 4 4\nconv c co=4 f=9\n").unwrap_err();
        assert!(matches!(e, ParseError::Net(_)));
    }

    #[test]
    fn overflowing_padding_is_a_shape_error() {
        let text = format!("name: x\ninput: 1 1 8 8\nconv c co=4 f=3 pad={}\n", usize::MAX);
        let e = parse_network(&text).unwrap_err();
        assert!(matches!(e, ParseError::Net(NetError::BadShape(_))), "{e}");
    }

    #[test]
    fn overflowing_input_size_is_a_shape_error() {
        let text = format!("name: x\ninput: {0} {0} 8 8\n", usize::MAX);
        let e = parse_network(&text).unwrap_err();
        assert!(matches!(e, ParseError::Net(NetError::BadShape(_))), "{e}");
    }

    #[test]
    fn parsed_network_matches_builder_equivalent() {
        let parsed = parse_network(LENET).unwrap();
        let built = crate::net::NetworkBuilder::new("LeNet", Shape::new(128, 1, 28, 28))
            .conv("CV1", 16, 5, 1, 2)
            .relu("relu1")
            .max_pool("PL1", 2, 2)
            .conv("CV2", 16, 5, 1, 2)
            .max_pool("PL2", 2, 2)
            .fc("ip1", 128)
            .fc("ip2", 10)
            .softmax("prob")
            .build()
            .unwrap();
        for (a, b) in parsed.layers().iter().zip(built.layers()) {
            assert_eq!(a.spec, b.spec, "{}", a.name);
            assert_eq!(a.output, b.output);
        }
    }
}
