//! Command-line contract of the `bench` binary: every bad command line
//! exits 2 with a usage line, before any sweep runs.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().expect("bench binary runs")
}

#[test]
fn bad_command_lines_exit_2_with_the_usage_line() {
    for (args, usage) in [
        (&["7", "--frames"][..], "usage: bench 7 "),
        (&["5", "--ranks", "8,x"][..], "usage: bench 5 "),
        (&["3", "--scale", "big"][..], "usage: bench 3 "),
        (&["8", "--seed", "0xzz"][..], "usage: bench 8 "),
        (&["6", "--bogus", "1"][..], "usage: bench 6 "),
        (&["4", "stray"][..], "usage: bench 4 "),
        (&["9"][..], "bench 3 "),
        (&[][..], "bench 8 "),
    ] {
        let out = bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(usage), "{args:?}: {stderr}");
    }
}
