//! The shutdown-signal hook, tested against a real SIGTERM.
//!
//! The hook trips a process-wide flag that every running `NetServer`
//! polls, so raising the signal inside the library's unit-test binary
//! would drain the servers other tests run concurrently. This file is its
//! own test binary, hence its own process: the signal reaches nothing
//! else.

#![cfg(unix)]

use std::process::Command;
use std::time::{Duration, Instant};

use rei_net::{install_shutdown_signals, shutdown_tripped};

#[test]
fn sigterm_trips_the_shutdown_flag() {
    install_shutdown_signals();
    assert!(!shutdown_tripped(), "clean before any signal");
    let status = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -TERM {}", std::process::id()))
        .status()
        .expect("spawn sh to send SIGTERM");
    assert!(status.success(), "kill failed: {status}");
    // A signal sent by another process is delivered asynchronously.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !shutdown_tripped() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(shutdown_tripped(), "SIGTERM takes the graceful path");
}
