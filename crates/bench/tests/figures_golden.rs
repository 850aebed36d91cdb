//! Pins the `figures all` report byte for byte.
//!
//! `golden/figures_all.txt` is the checked-in stdout of `figures all`. A
//! change that moves a paper number updates the file in the same diff, so
//! the moved number shows up in review.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn figures_all_matches_the_golden_report() {
    let output = figures(&["all"]);
    assert!(
        output.status.success(),
        "figures all failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let golden = include_str!("golden/figures_all.txt");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    if stdout != golden {
        let first = stdout
            .lines()
            .zip(golden.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| stdout.lines().count().min(golden.lines().count()));
        panic!(
            "figures all diverged from golden/figures_all.txt at line {}:\n  got:  {:?}\n  want: {:?}",
            first + 1,
            stdout.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}

#[test]
fn unknown_flags_are_rejected() {
    let output = figures(&["all", "--quick"]);
    assert!(!output.status.success(), "--quick must not be accepted");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown flag '--quick'"),
        "stderr: {stderr}"
    );
}
