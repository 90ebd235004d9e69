//! `dosas-sim` front-door checks: an invalid cluster is rejected before the
//! binary writes anything to stdout.

use std::process::Command;

/// Run `dosas-sim` with `args` and return (exit code, stdout, stderr).
fn dosas_sim(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dosas-sim"))
        .args(args)
        .output()
        .expect("dosas-sim starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A topology the cluster cannot be built on exits 2 with the validation
/// error on stderr and no banner or table header on stdout.
#[test]
fn invalid_topology_fails_before_any_output() {
    for spec in ["fat-tree:3", "tree:0"] {
        let (code, stdout, stderr) = dosas_sim(&["--topology", spec]);
        assert_eq!(code, Some(2), "--topology {spec}: stderr {stderr:?}");
        assert!(
            stdout.is_empty(),
            "--topology {spec}: expected no stdout, got {stdout:?}"
        );
        assert!(
            stderr.starts_with("error: --topology"),
            "--topology {spec}: expected the error on stderr, got {stderr:?}"
        );
    }
}
