//! The `run_experiments` command line: a name that is not in its experiment
//! table — never was, or went with the experiments `benchmark/` superseded —
//! is rejected with the usage text on stderr and exit status 2, before
//! anything runs. The binary takes no flags.

use std::process::Command;

#[test]
fn an_unknown_experiment_exits_2_with_the_usage_text() {
    for name in ["nope", "updates", "--all"] {
        let output = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
            .arg(name)
            .output()
            .expect("run_experiments starts");
        assert_eq!(output.status.code(), Some(2), "`{name}`");
        assert!(output.stdout.is_empty(), "`{name}` ran something");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown experiment `{name}`")),
            "{stderr}"
        );
        for listed in ["fig2", "index", "sql", "all"] {
            assert!(stderr.contains(&format!("\n  {listed} ")), "{stderr}");
        }
    }
}
