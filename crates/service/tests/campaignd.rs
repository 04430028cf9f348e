//! Bin-level tests for `campaignd`'s flag parsing.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A zero-depth admission queue would answer 429 to every submission,
/// so `--queue-depth 0` must be a usage error (exit code 2) rather than
/// a daemon that rejects all work.  A daemon that did start serves
/// forever, so the child is killed on a deadline.
#[test]
fn zero_queue_depth_is_a_usage_error() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_campaignd"))
        .args(["--addr", "127.0.0.1:0", "--queue-depth", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("campaignd starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("campaignd can be polled") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().expect("campaignd can be killed");
            child.wait().expect("killed campaignd is reaped");
            panic!("campaignd --queue-depth 0 started serving instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr is UTF-8");
    assert_eq!(status.code(), Some(2), "usage errors exit 2: {stderr}");
    assert!(
        stderr.contains("--queue-depth needs a positive integer"),
        "stderr must name the flag: {stderr}"
    );
}
