//! Executable docs: every cargo target or package a document tells the
//! reader to run must exist, so deleting a binary, example, test or crate
//! cannot leave a stale command behind.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "benchmark/README.md",
    ".claude/skills/verify/SKILL.md",
];

/// Every `<flag> NAME` in `text` (`flag` spelled out: `--bin`, `-p`). A
/// placeholder (`--bin <name>`) has no name characters after the flag and
/// is skipped; so is a flag that is only the tail of a longer word.
fn targets<'a>(text: &'a str, flag: &str) -> Vec<&'a str> {
    let flag = format!("{flag} ");
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    text.match_indices(&flag)
        .filter(|&(i, _)| !text[..i].ends_with(is_name))
        .map(|(i, _)| {
            let rest = text[i + flag.len()..].trim_start();
            &rest[..rest.find(|c| !is_name(c)).unwrap_or(rest.len())]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// The directories a `--test NAME` may resolve in: the facade's, each
/// crate's, the benchmark package's.
fn test_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("tests"), root.join("benchmark/tests")];
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        dirs.push(krate.expect("dir entry").path().join("tests"));
    }
    dirs
}

/// The package names a `-p NAME` may resolve to: the facade, each crate,
/// the benchmark package.
fn packages(root: &Path) -> Vec<String> {
    let mut manifests = vec![root.join("Cargo.toml"), root.join("benchmark/Cargo.toml")];
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        manifests.push(krate.expect("dir entry").path().join("Cargo.toml"));
    }
    manifests
        .iter()
        .map(|m| {
            let text = fs::read_to_string(m).expect("manifest");
            let name = text
                .lines()
                .find_map(|l| l.strip_prefix("name = \""))
                .expect("a [package] name");
            name.trim_end_matches('"').to_string()
        })
        .collect()
}

#[test]
fn every_documented_cargo_target_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let kinds: [(&str, Vec<PathBuf>); 4] = [
        ("--bin", vec![root.join("crates/harness/src/bin")]),
        ("--example", vec![root.join("examples")]),
        ("--test", test_dirs(root)),
        // No package has `benches/` any more: every `--bench X` is stale.
        ("--bench", Vec::new()),
    ];
    let packages = packages(root);
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in DOCS {
        // A checkout may leave a document out (a packaged crate has no
        // `.claude/`); the count below catches losing most of them.
        let Ok(text) = fs::read_to_string(root.join(doc)) else {
            continue;
        };
        for (flag, dirs) in &kinds {
            for name in targets(&text, flag) {
                checked += 1;
                if !dirs.iter().any(|d| d.join(format!("{name}.rs")).is_file()) {
                    stale.push(format!("{doc}: {flag} {name}"));
                }
            }
        }
        for name in targets(&text, "-p") {
            checked += 1;
            if !packages.iter().any(|p| p == name) {
                stale.push(format!("{doc}: -p {name}"));
            }
        }
    }
    assert!(stale.is_empty(), "no such target: {stale:#?}");
    // The extraction itself works (the documents name dozens of targets).
    assert!(checked > 40, "only {checked} commands found");
}

#[test]
fn extraction_takes_names_and_skips_placeholders() {
    let text = "run `cargo bench --bench engine`: or --bin <name>`, then\n--test  socket_chaos, --bin a-b_c -p wamcast-sim --top-p 3.";
    assert_eq!(targets(text, "--bench"), ["engine"]);
    assert_eq!(targets(text, "--bin"), ["a-b_c"]);
    assert_eq!(targets(text, "--test"), ["socket_chaos"]);
    assert_eq!(targets(text, "-p"), ["wamcast-sim"]);
    assert!(targets(text, "--example").is_empty());
}
