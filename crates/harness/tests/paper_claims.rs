//! `CLAIMS.md` is generated, and these tests keep it honest: every claim
//! of the paper (`wamcast_harness::paper`) must hold, the checked-in file
//! must be exactly what the code produces (the simulator is exact, so the
//! text is byte-stable), and the `paper` binary must print it.
//!
//! After an intended change, rewrite the file with
//! `WAMCAST_BLESS=1 cargo test -p wamcast-harness --test paper_claims`.

use std::process::Command;
use wamcast_harness::paper;

const CLAIMS_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../CLAIMS.md");

#[test]
fn every_claim_holds() {
    let claims = paper::claims();
    let failing: Vec<&str> = claims
        .iter()
        .filter(|c| !c.holds)
        .map(|c| c.title)
        .collect();
    assert!(failing.is_empty(), "claims that do not hold: {failing:?}");
}

#[test]
fn claims_md_is_what_the_code_produces() {
    let text = paper::render(&paper::claims());
    if std::env::var_os("WAMCAST_BLESS").is_some() {
        std::fs::write(CLAIMS_MD, &text).expect("write CLAIMS.md");
    }
    let want = std::fs::read_to_string(CLAIMS_MD).expect("CLAIMS.md at the repo root");
    let stale = text.lines().zip(want.lines()).position(|(a, b)| a != b);
    let stale = stale.map_or("its length".into(), |n| format!("line {}", n + 1));
    assert!(
        text == want,
        "CLAIMS.md differs at {stale}; rerun with WAMCAST_BLESS=1"
    );
}

#[test]
fn the_paper_binary_prints_claims_md_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .output()
        .expect("run paper");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).expect("UTF-8"),
        paper::render(&paper::claims())
    );
}
