//! Executable docs: every cargo target or package a document tells the
//! reader to run must exist, so deleting a binary, example, test or crate
//! cannot leave a stale command behind; and every link into `CLAIMS.md`
//! must name one of its sections, so a renamed claim cannot leave a stale
//! pointer.

use std::fs;
use std::path::{Path, PathBuf};
use wamcast_harness::paper::anchor;

const DOCS: [&str; 5] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "benchmark/README.md",
    ".claude/skills/verify/SKILL.md",
];

/// Every `<prefix>NAME` in `text` (`prefix`: `"--bin "`, `"-p "`,
/// `"CLAIMS.md#"`). A placeholder (`--bin <name>`) has no name characters
/// after the prefix and is skipped; so is a prefix that is only the tail of
/// a longer word.
fn targets<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    text.match_indices(prefix)
        .filter(|&(i, _)| !text[..i].ends_with(is_name))
        .map(|(i, _)| {
            let rest = text[i + prefix.len()..].trim_start();
            &rest[..rest.find(|c| !is_name(c)).unwrap_or(rest.len())]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// Every `(NAME, --flag)` a document passes to a binary after `--`, as in
/// `--bin NAME … -- --flag value`. `\`-continued lines are joined; a
/// command ends at the end of its line or at a backtick.
fn bin_flags(text: &str) -> Vec<(String, String)> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let joined = text.replace("\\\n", " ");
    let mut out = Vec::new();
    for cmd in joined.lines().flat_map(|line| line.split('`')) {
        let Some(&bin) = targets(cmd, "--bin ").first() else {
            continue;
        };
        let after_bin = &cmd[cmd.find(&format!("--bin {bin}")).expect("found above")..];
        let Some(args) = after_bin.find(" -- ").map(|i| &after_bin[i + 4..]) else {
            continue;
        };
        for word in args.split_whitespace() {
            let Some(name) = word.strip_prefix("--") else {
                continue;
            };
            let name = &name[..name.find(|c| !is_name(c)).unwrap_or(name.len())];
            if !name.is_empty() {
                out.push((bin.to_string(), format!("--{name}")));
            }
        }
    }
    out
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
            for name in targets(&text, &format!("{flag} ")) {
                checked += 1;
                if !dirs.iter().any(|d| d.join(format!("{name}.rs")).is_file()) {
                    stale.push(format!("{doc}: {flag} {name}"));
                }
            }
        }
        for name in targets(&text, "-p ") {
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
fn every_documented_flag_is_parsed_by_its_binary() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bins = root.join("crates/harness/src/bin");
    let cli = fs::read_to_string(root.join("crates/harness/src/cli.rs")).expect("cli.rs");
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in DOCS {
        let Ok(text) = fs::read_to_string(root.join(doc)) else {
            continue;
        };
        for (bin, flag) in bin_flags(&text) {
            checked += 1;
            let source = fs::read_to_string(bins.join(format!("{bin}.rs"))).unwrap_or_default();
            let literal = format!("\"{flag}\"");
            if !source.contains(&literal) && !cli.contains(&literal) {
                stale.push(format!("{doc}: --bin {bin} -- {flag}"));
            }
        }
    }
    assert!(stale.is_empty(), "no such flag: {stale:#?}");
    // The documents pass dozens of flags to scenario_fuzz, smr_kv and
    // scale_sweep.
    assert!(checked > 30, "only {checked} flags found");
}

#[test]
fn every_claims_link_names_a_section() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let claims = fs::read_to_string(root.join("CLAIMS.md")).expect("CLAIMS.md");
    let sections: Vec<String> = claims
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .map(anchor)
        .collect();
    let mut links = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap_or_default();
        for link in targets(&text, "CLAIMS.md#") {
            links += 1;
            assert!(
                sections.iter().any(|s| s == link),
                "{doc}: no CLAIMS.md#{link}"
            );
        }
    }
    // EXPERIMENTS alone points E1–E8, E13 and three more rows at sections.
    assert!(links > 10, "only {links} CLAIMS.md links found");
}

#[test]
fn extraction_takes_names_and_skips_placeholders() {
    let text = "run `cargo bench --bench engine`: or --bin <name>`, then\n--test  socket_chaos, --bin a-b_c -p wamcast-sim --top-p 3.";
    assert_eq!(targets(text, "--bench "), ["engine"]);
    assert_eq!(targets(text, "--bin "), ["a-b_c"]);
    assert_eq!(targets(text, "--test "), ["socket_chaos"]);
    assert_eq!(targets(text, "-p "), ["wamcast-sim"]);
    assert!(targets(text, "--example ").is_empty());
    let cmds = "cargo run --bin scale_sweep -- \\\n    --arms a1,a2 --smoke\n\
                `cargo run --bin smr_kv -- --faulty`, not -- --seed; --bin <name> -- --nope";
    let flags: Vec<_> = bin_flags(cmds)
        .into_iter()
        .map(|(bin, flag)| format!("{bin} {flag}"))
        .collect();
    assert_eq!(
        flags,
        [
            "scale_sweep --arms",
            "scale_sweep --smoke",
            "smr_kv --faulty"
        ]
    );
    let links = "see [E3](CLAIMS.md#theorem-41), or CLAIMS.md#figure-1a.";
    assert_eq!(targets(links, "CLAIMS.md#"), ["theorem-41", "figure-1a"]);
}
