//! CLI-surface pins for the `repro` binary.
//!
//! These run the real executable with arguments that must fail fast —
//! no simulation is paid for — and pin the contract that a typo always
//! comes back with the complete subcommand listing. A subcommand that
//! exists but is missing from [`usage_hint`] is invisible to anyone
//! exploring the tool, so the listing itself is under test.

use std::process::Command;

fn repro(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_artifact_lists_every_subcommand() {
    let (code, stderr) = repro(&["no-such-artifact"]);
    assert_eq!(code, 2, "unknown artifact must exit 2 before any work");
    // Every dispatchable subcommand must appear in the hint. This list
    // is the test's copy of the CLI surface: extending `main` without
    // extending `usage_hint` fails here.
    for sub in [
        "all",
        "table2..table13",
        "figure2..figure5",
        "portscan",
        "dad",
        "variants",
        "tracking",
        "enterprise",
        "reachability",
        "json",
        "fleet",
        "mesh",
        "wanscan",
        "serve",
        "upload",
        "stats",
        "--scenario <preset>",
    ] {
        assert!(
            stderr.contains(sub),
            "usage hint is missing {sub:?}: {stderr}"
        );
    }
    assert!(
        stderr.contains("scenario presets:"),
        "hint must enumerate the fault presets: {stderr}"
    );
}

#[test]
fn mesh_rejects_unknown_flags_before_simulating() {
    let (code, stderr) = repro(&["mesh", "--no-such-flag"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown mesh flag"), "{stderr}");
}

#[test]
fn fleet_rejects_out_of_range_mesh_fraction() {
    let (code, stderr) = repro(&["fleet", "4", "--mesh-per-mille", "1001"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("--mesh-per-mille"), "{stderr}");
}

#[test]
fn wanscan_rejects_out_of_range_mesh_fraction() {
    let (code, stderr) = repro(&["wanscan", "4", "--mesh-per-mille", "1001"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("--mesh-per-mille"), "{stderr}");
}

/// A second positional argument is refused by name, never dropped.
fn rejects_second_positional(args: &[&str], extra: &str) {
    let (code, stderr) = repro(args);
    assert_eq!(code, 2, "{args:?} must exit 2 before simulating: {stderr}");
    assert!(
        stderr.contains(&format!("unexpected argument {extra:?}")),
        "{stderr}"
    );
}

#[test]
fn fleet_rejects_a_second_home_count() {
    rejects_second_positional(&["fleet", "2", "99", "--duration", "1", "--json"], "99");
}

#[test]
fn wanscan_rejects_a_second_home_count() {
    rejects_second_positional(
        &[
            "wanscan", "1", "7", "--settle", "1", "--policy", "open", "--json",
        ],
        "7",
    );
}

#[test]
fn upload_rejects_a_second_home_count() {
    // Port 1 refuses at once, so a run that got past its flags ends
    // quickly, with another error.
    rejects_second_positional(
        &[
            "upload",
            "1",
            "5",
            "--duration",
            "1",
            "--addr",
            "127.0.0.1:1",
        ],
        "5",
    );
}

#[test]
fn scenario_rejects_a_second_preset() {
    rejects_second_positional(&["--scenario", "broken-v6", "ra-suppress"], "ra-suppress");
}

#[test]
fn serve_rejects_unknown_flags_before_binding() {
    // A bound daemon would serve until drained; exiting at all shows the
    // flag was refused before the listener existed.
    let (code, stderr) = repro(&["serve", "--no-such-flag"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown flag --no-such-flag"), "{stderr}");
    // The usage is v6brickd's: every ServerConfig flag.
    for flag in [
        "--addr",
        "--seed",
        "--shards",
        "--max-upload-mb",
        "--upload-timeout-ms",
        "--read-timeout-ms",
        "--loop-threads",
        "--drain-deadline-ms",
        "--max-conns",
        "--data-dir",
        "--snapshot-every",
    ] {
        assert!(stderr.contains(flag), "usage is missing {flag}: {stderr}");
    }
}
