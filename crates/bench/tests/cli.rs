//! Command-line behaviour of the `experiments` binary: an unknown subcommand
//! fails fast instead of falling through to the full suite.

use std::process::Command;

#[test]
fn unknown_subcommand_exits_2_and_lists_the_subcommands() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    let out = Command::new(bin).arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let list = "all|fig2|fig3|fig4|fig5|fig6|speed|speedup|tails|faults|tables|policies";
    assert!(stderr.contains(list), "{stderr}");
    // A known subcommand still dispatches.
    let known = Command::new(bin).arg("tables").output().unwrap();
    assert_eq!(known.status.code(), Some(0));
}
