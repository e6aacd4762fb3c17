//! `peer` rejects arguments it cannot honour as usage errors: exit 2, a
//! message naming the flag, and never a listening socket — not a silent
//! wrap to another process id, not a panic.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `peer` with `args`; returns (exit code, stdout, stderr). A peer
/// still running after the deadline accepted its arguments: it is killed
/// and the test fails.
fn run_peer(args: &[String]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_peer"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn peer");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("wait on peer").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("peer {args:?} is still running: it accepted the arguments");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("collect peer output");
    let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// Asserts that `peer` refuses `args` as a usage error naming `flag`, and
/// returns its stderr.
fn assert_usage_error(args: &[String], flag: &str) -> String {
    let (code, out, err) = run_peer(args);
    assert_eq!(code, Some(2), "{flag}: stderr {err:?}");
    assert!(err.contains(flag), "{flag} not named in {err:?}");
    assert!(!out.contains("listening"), "{flag}: {out:?}");
    err
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

#[test]
fn me_beyond_u32_is_refused_not_wrapped() {
    let args = strings(&[
        "--me",
        "4294967296",
        "--groups",
        "1",
        "--procs",
        "1",
        "--addrs",
        "127.0.0.1:0",
    ]);
    assert_usage_error(&args, "--me");
}

#[test]
fn more_groups_than_the_wire_addresses_is_a_usage_error() {
    let addrs = vec!["127.0.0.1:0"; 65].join(",");
    let mut args = strings(&["--groups", "65", "--procs", "1", "--addrs"]);
    args.push(addrs);
    let err = assert_usage_error(&args, "--groups");
    assert!(
        err.contains("at most 64 groups"),
        "wire limit not named: {err:?}"
    );
}

#[test]
fn more_groups_than_a_group_set_holds_is_a_usage_error() {
    let addrs = vec!["127.0.0.1:0"; 129].join(",");
    let mut args = strings(&["--groups", "129", "--procs", "1", "--addrs"]);
    args.push(addrs);
    assert_usage_error(&args, "--groups");
}
