//! End-to-end exit-code contract of the `tr-opt` binary:
//! 0 success, 1 pipeline failure, 2 usage error, 3 batch completed
//! with failed cells (good cells' reports still on stdout, the failure
//! summary on stderr).

use std::process::Command;

fn tr_opt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tr-opt"))
}

/// A tiny valid ISCAS `.bench` netlist.
const GOOD_BENCH: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NAND(a, b)
";

#[test]
fn usage_errors_exit_2() {
    let out = tr_opt().arg("optimize").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "missing <netlist> is usage");
    let out = tr_opt()
        .args(["frobnicate", "x.bench"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown command is usage");
    let out = tr_opt()
        .args(["batch", "--suite", "small", "--degrade", "maybe"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "bad --degrade value is usage");
    let out = tr_opt()
        .args(["serve", "--queue-depth", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "zero queue depth is usage");
    let out = tr_opt()
        .args(["serve", "--out", "x.trnet"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "serve takes no artifact flags: per-request outputs are rejected"
    );
}

#[test]
fn pipeline_errors_exit_1() {
    let out = tr_opt()
        .args(["optimize", "/nonexistent/ghost.bench"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn a_cyclic_netlist_is_a_pipeline_error() {
    let dir = std::env::temp_dir().join(format!("tr-opt-cycle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cyc.bench");
    std::fs::write(&path, "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(x)\n").unwrap();
    let out = tr_opt()
        .arg("optimize")
        .arg(&path)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "a parse error, not a panic");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("combinational cycle through signal"),
        "{stderr}"
    );
}

#[test]
fn batch_partial_failure_exits_3_with_surviving_reports() {
    let dir = std::env::temp_dir().join(format!("tr-opt-exit3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.bench"), GOOD_BENCH).unwrap();
    std::fs::write(dir.join("corrupt.bench"), "y = NAND(a, b)\nOUTPUT(y)\n").unwrap();

    let out = tr_opt()
        .args(["batch", "--scenarios", "a:1", "--report", "json"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(out.status.code(), Some(3), "partial failure is exit 3");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    // The good cell's report made it out.
    assert!(
        stdout.contains("\"circuit\":\"good\""),
        "good cell's report on stdout: {stdout}"
    );
    // The summary names the failed cell.
    assert!(
        stderr.contains("cells failed: corrupt"),
        "failure summary on stderr: {stderr}"
    );
}

#[test]
fn clean_batch_exits_0() {
    let dir = std::env::temp_dir().join(format!("tr-opt-exit0-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.bench"), GOOD_BENCH).unwrap();
    let out = tr_opt()
        .args(["batch", "--scenarios", "a:1", "--report", "csv"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The partitioned backend is reachable from the command line and its
/// shape lands in the JSON report; its tuning flags are rejected when
/// they cannot apply.
#[test]
fn partitioned_backend_flags_round_trip() {
    let dir = std::env::temp_dir().join(format!("tr-opt-part-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.bench"), GOOD_BENCH).unwrap();
    let out = tr_opt()
        .args([
            "optimize",
            "--prob",
            "part",
            "--region-nodes",
            "4096",
            "--cut-width",
            "8",
            "--json",
        ])
        .arg(dir.join("good.bench"))
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"prob_mode\":\"part\""),
        "report: {stdout}"
    );
    assert!(stdout.contains("\"max_cut_width\":8"), "report: {stdout}");
    assert!(
        stdout.contains("\"partition_regions\":1"),
        "a one-gate circuit is a single region: {stdout}"
    );
    assert!(
        stdout.contains("\"partition_error_bound\":0"),
        "one region means exact: {stdout}"
    );

    // The tuning flags are meaningless without `--prob part`.
    let out = tr_opt()
        .args(["optimize", "x.bench", "--region-nodes", "4096"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "flags without part are usage");
}

/// A budget-blown governed run under `--degrade on` (the default) still
/// exits 0 and reports how it degraded.
#[test]
fn degraded_run_exits_0_and_records_the_rung() {
    let dir = std::env::temp_dir().join(format!("tr-opt-degrade-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.bench"), GOOD_BENCH).unwrap();
    let out = tr_opt()
        .args(["optimize", "--prob", "bdd", "--deadline-ms", "0", "--json"])
        .arg(dir.join("good.bench"))
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"degraded\":true"), "report: {stdout}");
    assert!(
        stdout.contains("\"degrade_rung\":\"independent-fallback\""),
        "report: {stdout}"
    );
}
