//! Every committed `scenarios/*.toml` must parse, carry a name matching
//! its filename stem, and declare tenants only where the suite expects
//! them — catching scenario/baseline skew before the (slower) harness
//! run in CI does. Damaged copies of the same files must parse to `Ok`
//! or `Err`, never panic; a parse error names its line, section and key,
//! and a spec error its section, key and kind.

use memcnn_bench::scenario::{parse_spec, SpecError, SpecErrorKind};
use memcnn_bench::toml_lite::{self, ErrorKind};
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

/// Every committed file with one line inserted after its `[scenario]`
/// header's first key: the inserted line's number, the key, and the
/// damaged text.
fn with_line_after_first_key(
    insert: impl Fn(&str) -> String,
) -> impl Iterator<Item = (usize, String, String)> {
    committed().into_iter().map(move |(path, text)| {
        let lines: Vec<&str> = text.lines().collect();
        let header = lines.iter().position(|l| l.trim() == "[scenario]").expect("[scenario]");
        let at = (header + 1..lines.len())
            .find(|&i| lines[i].contains('='))
            .unwrap_or_else(|| panic!("{}: [scenario] has no key", path.display()));
        let key = lines[at].split('=').next().unwrap().trim().to_string();
        let mut damaged: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        damaged.insert(at + 1, insert(lines[at]));
        (at + 2, key, damaged.join("\n"))
    })
}

#[test]
fn parse_errors_name_line_section_and_key() {
    // A value outside the subset, under a fresh key.
    for (line, _, text) in with_line_after_first_key(|_| "bogus = 2024-01-01".to_string()) {
        let err = toml_lite::parse(&text).unwrap_err();
        assert_eq!((err.line, err.section.as_str()), (line, "scenario"));
        assert_eq!(err.key.as_deref(), Some("bogus"));
        assert!(matches!(err.kind, ErrorKind::BadValue(_)), "{err}");
        let spec_err = parse_spec(&text).unwrap_err();
        assert_eq!(spec_err.kind, SpecErrorKind::Parse(Box::new(err)));
        let msg = spec_err.to_string();
        assert!(msg.starts_with(&format!("line {line} [scenario] key \"bogus\": ")), "{msg}");
    }
    // The section's first key, set twice.
    for (line, key, text) in with_line_after_first_key(str::to_string) {
        let err = toml_lite::parse(&text).unwrap_err();
        assert_eq!((err.line, err.section.as_str()), (line, "scenario"));
        assert_eq!((err.key, err.kind), (Some(key), ErrorKind::DuplicateKey));
    }
}

/// `parse_spec` of every committed file with `edit` applied to its text.
fn spec_errors(edit: impl Fn(&str) -> String) -> Vec<SpecError> {
    committed().iter().map(|(_, text)| parse_spec(&edit(text)).unwrap_err()).collect()
}

#[test]
fn spec_errors_name_section_key_and_kind() {
    let fields = |e: &SpecError| (e.section.clone(), e.key.clone(), e.kind.clone());
    let scenario = |key: &str, kind| ("scenario".to_string(), Some(key.to_string()), kind);
    // An unknown section.
    for e in spec_errors(|t| format!("{t}\n[expect]\nrequests = 1\n")) {
        assert_eq!(fields(&e), ("expect".to_string(), None, SpecErrorKind::UnknownSection));
    }
    // An unknown key.
    for e in spec_errors(|t| t.replacen("[scenario]", "[scenario]\nlaod_frac = 0.5", 1)) {
        assert_eq!(fields(&e), scenario("laod_frac", SpecErrorKind::UnknownKey));
    }
    // A value of the wrong type: `[scenario]` comes first, so the first
    // `seed` line is its own.
    let bad_seed = |t: &str| {
        let seed = t.lines().find(|l| l.starts_with("seed")).expect("a seed line");
        t.replacen(seed, "seed = -1", 1)
    };
    for e in spec_errors(bad_seed) {
        let what = "a non-negative integer".to_string();
        assert_eq!(fields(&e), scenario("seed", SpecErrorKind::BadValue(what)));
        assert_eq!(e.to_string(), "[scenario] `seed` must be a non-negative integer");
    }
    // A name the format does not know.
    let bad_placement = |t: &str| {
        let placement = t.lines().find(|l| l.starts_with("placement")).expect("a placement");
        t.replacen(placement, "placement = \"random\"", 1)
    };
    for e in spec_errors(bad_placement) {
        let SpecErrorKind::UnknownName { name, .. } = &e.kind else { panic!("{e:?}") };
        assert_eq!((e.section.as_str(), e.key.as_deref()), ("scenario", Some("placement")));
        assert_eq!(name, "random");
    }
    // A missing required key.
    for e in
        spec_errors(|t| t.lines().filter(|l| !l.starts_with("seed")).collect::<Vec<_>>().join("\n"))
    {
        assert_eq!(fields(&e), scenario("seed", SpecErrorKind::MissingKey));
        assert_eq!(e.to_string(), "[scenario] is missing `seed`");
    }
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
