//! Prints `CLAIMS.md`: every checkable claim of the paper, run on the
//! simulator and judged (see `wamcast_harness::paper`). Exits 1 if any
//! claim does not hold.
//!
//! ```text
//! cargo run --release -p wamcast-harness --bin paper > CLAIMS.md
//! ```

use std::process::ExitCode;
use wamcast_harness::paper;

fn main() -> ExitCode {
    let claims = paper::claims();
    print!("{}", paper::render(&claims));
    let failing = claims.iter().filter(|c| !c.holds);
    let failing: Vec<&str> = failing.map(|c| c.title).collect();
    if !failing.is_empty() {
        eprintln!("paper: does not hold: {}", failing.join(", "));
    }
    ExitCode::from(u8::from(!failing.is_empty()))
}
