//! A malformed command line, or a `--cores`/`--lines` filter that selects
//! no scenario, makes `lacc_mc` exit with status 2 and an error naming the
//! flag, before any exploration starts — never a panic.

use std::process::Command;

#[test]
fn bad_flags_exit_2_and_name_the_flag() {
    let cases: [(&[&str], &str); 6] = [
        (&["--cores", "abc"], "--cores takes an integer, got 'abc'"),
        (&["--cores", "2", "--depth"], "--depth needs a value"),
        (&["--max-states", "-1"], "--max-states takes an integer, got '-1'"),
        (&["--bogus"], "unknown flag '--bogus'"),
        (&["--cores", "4"], "no scenario matches --cores 4 --lines 1"),
        (&["--lines", "0"], "no scenario matches --cores 2 --lines 0"),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_lacc_mc"))
            .args(args)
            .output()
            .expect("launch lacc_mc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("error: {want}")), "{args:?}: {stderr:?}");
        assert!(stderr.contains("usage: lacc_mc"), "{args:?}: {stderr:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr:?}");
    }
}
