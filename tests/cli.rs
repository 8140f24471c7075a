//! The `alf` binary rejects an option its subcommand never reads, or one
//! given twice, before doing any work: a typo, a retired flag or a
//! shadowed value fails with the usage text instead of running with a
//! value the user did not mean. `--help` / `-h` after a subcommand prints
//! the usage text and runs nothing.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `alf args…` to completion, killing it (and failing the test) if
/// it is still running after `limit`.
fn alf(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_alf"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn alf");
    let started = Instant::now();
    while child.try_wait().expect("poll alf").is_none() {
        if started.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`alf {}` still running after {limit:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect alf output")
}

#[test]
fn unread_options_fail_fast_with_the_usage_text() {
    for (args, error) in [
        (
            &["serve", "--addr", "127.0.0.1:0", "--rate", "5"][..],
            "unknown option --rate",
        ),
        (&["train", "--epoch", "1"][..], "unknown option --epoch"),
        (
            &["summary", "--width", "4", "--width", "16"][..],
            "--width given twice",
        ),
    ] {
        let out = alf(args, Duration::from_secs(10));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`alf {}` succeeded", args.join(" "));
        assert!(stderr.contains(error), "{stderr}");
        assert!(stderr.contains("usage: alf"), "{stderr}");
        assert!(out.stdout.is_empty(), "work started before the error");
    }
}

#[test]
fn help_after_the_subcommand_prints_the_usage_before_any_work() {
    // `serve` would bind and block; `-h` must win before it starts.
    for args in [&["train", "--help"][..], &["serve", "-h"][..]] {
        let out = alf(args, Duration::from_secs(10));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "`alf {}` failed", args.join(" "));
        assert!(stdout.contains("usage: alf"), "{stdout}");
        assert!(
            out.stderr.is_empty(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn a_valid_summary_still_runs() {
    let out = alf(
        &[
            "summary",
            "--model",
            "plain20",
            "--width",
            "4",
            "--classes",
            "3",
        ],
        Duration::from_secs(60),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
