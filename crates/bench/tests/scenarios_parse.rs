//! Every committed `scenarios/*.toml` must parse, carry a name matching
//! its filename stem, and declare tenants only where the suite expects
//! them — catching scenario/baseline skew before the (slower) harness
//! run in CI does. Damaged copies of the same files must parse to `Ok`
//! or `Err`, never panic.

use memcnn_bench::scenario::parse_spec;
use proptest::prelude::*;
use std::path::PathBuf;

/// Every committed scenario file, path-ascending.
fn committed() -> Vec<(PathBuf, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    paths.into_iter().map(|p| (p.clone(), std::fs::read_to_string(p).expect("read"))).collect()
}

#[test]
fn committed_scenarios_parse() {
    let files = committed();
    for (path, text) in &files {
        let spec = parse_spec(text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let stem = path.file_stem().unwrap().to_string_lossy();
        assert_eq!(spec.name, stem, "scenario name must match its filename stem");
        // Tenant sections flip the run onto the SLO scheduler, so they
        // belong only to the slo suite — a stray tenant in another file
        // would silently change what its baseline pins.
        assert_eq!(
            spec.suite == "slo",
            !spec.tenants.is_empty(),
            "{}: tenants iff suite == slo",
            path.display()
        );
    }
    assert!(files.len() >= 16, "expected the committed scenario set");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte-mutated, truncated and line-dropped copies of every committed
    /// scenario make `parse_spec` return, never panic.
    #[test]
    fn damaged_scenarios_parse_or_fail_without_panicking(
        pick in any::<u64>(),
        edits in prop::collection::vec((any::<u64>(), any::<u8>()), 1..8),
        cut in any::<u64>(),
        drops in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let files = committed();
        let text = &files[(pick % files.len() as u64) as usize].1;
        let at = |x: u64, len: usize| (x % len as u64) as usize;

        let mut bytes = text.as_bytes().to_vec();
        for &(pos, byte) in &edits {
            let i = at(pos, bytes.len());
            bytes[i] = byte;
        }
        let _ = parse_spec(&String::from_utf8_lossy(&bytes));

        let mut end = at(cut, text.len() + 1);
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        let _ = parse_spec(&text[..end]);

        let lines: Vec<&str> = text.lines().collect();
        let dropped: Vec<usize> = drops.iter().map(|&d| at(d, lines.len())).collect();
        let kept = (0..lines.len()).filter(|i| !dropped.contains(i)).map(|i| lines[i]);
        let _ = parse_spec(&kept.collect::<Vec<_>>().join("\n"));
    }
}
