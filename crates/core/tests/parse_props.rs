//! Damaged network descriptions parse to `Ok` or `Err`, never panic:
//! byte-mutated, truncated and line-dropped copies of a LeNet
//! description, and copies whose numeric fields hold any `usize`. A
//! description that does parse has only shapes whose `f32` byte size
//! fits in `usize`.

use memcnn_core::{parse_network, Network};
use memcnn_tensor::Shape;
use proptest::prelude::*;

const LENET: &str = "\
# LeNet as a config file
name: LeNet
input: 128 1 28 28
conv CV1 co=16 f=5 stride=1 pad=2
relu relu1
pool PL1 window=2 stride=2 op=max
conv CV2 co=16 f=5 pad=2
pool PL2 window=2
lrn norm1 size=5
fc ip1 outputs=128
fc ip2 outputs=10
softmax prob
";

/// `shape`'s `f32` byte size, if it fits in `usize`.
fn bytes(shape: Shape) -> Option<usize> {
    [shape.n, shape.c, shape.h, shape.w].iter().try_fold(4usize, |acc, &d| acc.checked_mul(d))
}

/// Parse `text`; a network that parses must have sized shapes throughout.
fn check(text: &str) {
    if let Ok(net) = parse_network(text) {
        assert_sized(&net);
    }
}

fn assert_sized(net: &Network) {
    assert!(bytes(net.input).is_some_and(|b| b > 0), "input {} overflows", net.input);
    for layer in net.layers() {
        assert!(bytes(layer.output).is_some_and(|b| b > 0), "{} output overflows", layer.name);
    }
}

/// Byte offsets and lengths of every numeric field: the `input:`
/// dimensions and every `key=value` value.
fn numeric_fields(text: &str) -> Vec<(usize, usize)> {
    let mut fields = Vec::new();
    let mut start = None;
    for (i, ch) in text.char_indices() {
        match (ch.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                let before = text[..s].chars().next_back();
                if matches!(before, Some('=' | ' ')) {
                    fields.push((s, i - s));
                }
                start = None;
            }
            _ => {}
        }
    }
    fields
}

#[test]
fn the_undamaged_description_parses() {
    let net = parse_network(LENET).unwrap();
    assert_eq!(net.layers().len(), 9);
    assert_sized(&net);
    // input (4) + co/f/stride/pad + window/stride + co/f/pad + window +
    // size + outputs + outputs.
    assert_eq!(numeric_fields(LENET).len(), 4 + 4 + 2 + 3 + 1 + 1 + 1 + 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_descriptions_parse_or_fail_without_panicking(
        edits in prop::collection::vec((any::<u64>(), any::<u8>()), 1..8),
        cut in any::<u64>(),
        drops in prop::collection::vec(any::<u64>(), 1..6),
        numbers in prop::collection::vec((any::<u64>(), 0..=usize::MAX, 0u32..64), 1..4),
    ) {
        let at = |x: u64, len: usize| (x % len as u64) as usize;

        let mut bytes = LENET.as_bytes().to_vec();
        for &(pos, byte) in &edits {
            let i = at(pos, bytes.len());
            bytes[i] = byte;
        }
        check(&String::from_utf8_lossy(&bytes));

        check(&LENET[..at(cut, LENET.len() + 1)]);

        let lines: Vec<&str> = LENET.lines().collect();
        let dropped: Vec<usize> = drops.iter().map(|&d| at(d, lines.len())).collect();
        let kept = (0..lines.len()).filter(|i| !dropped.contains(i)).map(|i| lines[i]);
        check(&kept.collect::<Vec<_>>().join("\n"));

        // Numeric fields: each draw replaces one field with a value from
        // 0..=usize::MAX, shifted right so small values (0, 1, a few
        // hundred) come up as often as huge ones.
        let fields = numeric_fields(LENET);
        let mut values: Vec<Option<usize>> = vec![None; fields.len()];
        for &(which, value, shift) in &numbers {
            values[at(which, fields.len())] = Some(value >> shift);
        }
        let mut text = String::new();
        let mut end = 0;
        for (&(start, len), value) in fields.iter().zip(&values) {
            if let Some(v) = value {
                text.push_str(&LENET[end..start]);
                text.push_str(&v.to_string());
                end = start + len;
            }
        }
        text.push_str(&LENET[end..]);
        check(&text);
    }
}
