//! Smoke tests for the `tdals` command-line tool: benchmark export,
//! reporting, and a miniature end-to-end flow over real files.

use std::process::Command;

fn tdals() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tdals"))
}

#[test]
fn list_names_every_benchmark() {
    let out = tdals().arg("list").output().expect("run tdals list");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    for name in ["Cavlc", "c6288", "Sqrt", "Adder16"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn bench_emits_parseable_verilog() {
    let out = tdals()
        .args(["bench", "--name", "Max16"])
        .output()
        .expect("run tdals bench");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    let netlist = tdals::netlist::verilog::parse(&text).expect("emitted Verilog parses");
    assert_eq!(netlist.input_count(), 32);
    assert_eq!(netlist.output_count(), 16);
}

#[test]
fn report_summarizes_netlist() {
    let out = tdals()
        .args(["report", "--input", "bench:Adder16"])
        .output()
        .expect("run tdals report");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("CPD"));
    assert!(text.contains("critical path"));
}

#[test]
fn flow_writes_feasible_netlist() {
    let dir = std::env::temp_dir().join(format!("tdals-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out_path = dir.join("approx.v");
    let out = tdals()
        .args([
            "flow",
            "--input",
            "bench:Max16",
            "--metric",
            "nmed",
            "--bound",
            "0.0244",
            "--population",
            "8",
            "--iterations",
            "4",
            "--vectors",
            "1024",
            "--output",
            out_path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run tdals flow");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("output written");
    let netlist = tdals::netlist::verilog::parse(&text).expect("valid Verilog");
    netlist.check_invariants().expect("valid netlist");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = tdals()
        .args(["flow", "--metric", "nmed"])
        .output()
        .expect("run tdals");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "stderr: {err}");
}

#[test]
fn flow_with_method_and_progress_streams_events() {
    let out = tdals()
        .args([
            "flow",
            "--input",
            "bench:Max16",
            "--metric",
            "nmed",
            "--bound",
            "0.0244",
            "--method",
            "hedals",
            "--progress",
            "--iterations",
            "3",
            "--vectors",
            "512",
        ])
        .output()
        .expect("run tdals flow");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[HEDALS] start"), "stderr: {err}");
    assert!(err.contains("iter"), "stderr: {err}");
    assert!(err.contains("post-opt:"), "stderr: {err}");
    // The approximate netlist still lands on stdout, parseable.
    let text = String::from_utf8(out.stdout).expect("utf8");
    tdals::netlist::verilog::parse(&text).expect("emitted Verilog parses");
}

#[test]
fn invalid_bounds_are_rejected_without_usage_dump() {
    for bad in ["NaN", "-0.1", "1.5", "oops"] {
        let out = tdals()
            .args([
                "flow",
                "--input",
                "bench:Max16",
                "--metric",
                "nmed",
                "--bound",
                bad,
            ])
            .output()
            .expect("run tdals flow");
        assert!(!out.status.success(), "bound {bad} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--bound"), "bound {bad}: {err}");
        assert!(
            !err.contains("usage:"),
            "bound {bad} is a semantic error, not a usage error: {err}"
        );
    }
}

#[test]
fn population_above_the_limit_is_rejected_before_seeding() {
    let huge = (tdals::server::MAX_POPULATION + 1).to_string();
    let out = tdals()
        .args([
            "flow",
            "--input",
            "bench:Max16",
            "--metric",
            "nmed",
            "--bound",
            "0.01",
            "--population",
            &huge,
        ])
        .output()
        .expect("run tdals flow");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("above the limit"), "{err}");
    assert!(!err.contains("usage:"), "no usage dump: {err}");
}

#[test]
fn unknown_benchmark_is_a_proper_error() {
    let out = tdals()
        .args(["report", "--input", "bench:NoSuchCircuit"])
        .output()
        .expect("run tdals report");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown benchmark `NoSuchCircuit`"), "{err}");
    assert!(err.contains("tdals list"), "points at the list: {err}");
    assert!(!err.contains("usage:"), "no usage dump: {err}");
}

#[test]
fn unknown_method_is_a_proper_error() {
    let out = tdals()
        .args([
            "flow",
            "--input",
            "bench:Max16",
            "--metric",
            "nmed",
            "--bound",
            "0.02",
            "--method",
            "annealer",
        ])
        .output()
        .expect("run tdals flow");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown method `annealer`"), "{err}");
}

#[test]
fn threads_zero_is_a_proper_error() {
    let out = tdals()
        .args([
            "flow",
            "--input",
            "bench:Max16",
            "--metric",
            "nmed",
            "--bound",
            "0.02",
            "--threads",
            "0",
        ])
        .output()
        .expect("run tdals flow");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads"), "{err}");
    assert!(err.contains("1 or more"), "{err}");
    assert!(
        !err.contains("usage:"),
        "a bad thread count is a semantic error, not a usage error: {err}"
    );
}

#[test]
fn threads_non_numeric_is_a_proper_error() {
    let out = tdals()
        .args([
            "flow",
            "--input",
            "bench:Max16",
            "--metric",
            "nmed",
            "--bound",
            "0.02",
            "--threads",
            "four",
        ])
        .output()
        .expect("run tdals flow");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads: `four` is not a number"), "{err}");
    assert!(!err.contains("usage:"), "no usage dump: {err}");
}

#[test]
fn serve_batch_total_threads_zero_is_a_proper_error() {
    let out = tdals()
        .args([
            "serve-batch",
            "--manifest",
            "does_not_matter.json",
            "--total-threads",
            "0",
        ])
        .output()
        .expect("run tdals serve-batch");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--total-threads"), "{err}");
    assert!(err.contains("1 or more"), "{err}");
    assert!(
        !err.contains("usage:"),
        "semantic error, no usage dump: {err}"
    );
}

#[test]
fn serve_batch_requires_a_manifest() {
    let out = tdals()
        .args(["serve-batch"])
        .output()
        .expect("run tdals serve-batch");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--manifest is required"), "{err}");
    assert!(
        err.contains("usage"),
        "a missing option earns the usage dump: {err}"
    );
}

#[test]
fn serve_batch_rejects_bad_manifests_without_usage_dump() {
    let dir = std::env::temp_dir().join(format!("tdals-cli-manifest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("bad.json");
    let check = |content: &str, needle: &str| {
        std::fs::write(&path, content).expect("write manifest");
        let out = tdals()
            .args(["serve-batch", "--manifest", path.to_str().expect("utf8")])
            .output()
            .expect("run tdals serve-batch");
        assert!(!out.status.success(), "manifest {content:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "manifest {content:?}: {err}");
        assert!(!err.contains("usage:"), "no usage dump: {err}");
    };
    check("{ not json", "not valid JSON");
    check(r#"{"jobs": []}"#, "empty");
    check(
        r#"{"jobs": [{"circuit": "bench:Max16", "metric": "er", "bound": 0.05,
                      "method": "annealer"}]}"#,
        "unknown method `annealer`",
    );
    check(
        r#"{"jobs": [{"circuit": "bench:Max16", "metric": "er", "bound": 0.05,
                      "method": "dcgwo", "threads": 0}]}"#,
        "0 worker threads",
    );

    // Whole batch or nothing: an inadmissible *second* job fails the
    // command before any results file is written.
    std::fs::write(
        &path,
        r#"{"jobs": [{"circuit": "bench:Int2float", "metric": "er", "bound": 0.05,
                      "method": "dcgwo", "population": 4, "iterations": 1,
                      "vectors": 256},
                     {"circuit": "bench:Max16", "name": "late-zero", "metric": "er",
                      "bound": 0.05, "method": "dcgwo", "threads": 0}]}"#,
    )
    .expect("write manifest");
    let results = dir.join("results.json");
    let out = tdals()
        .args([
            "serve-batch",
            "--manifest",
            path.to_str().expect("utf8"),
            "--out",
            results.to_str().expect("utf8"),
        ])
        .output()
        .expect("run tdals serve-batch");
    assert!(!out.status.success(), "a late inadmissible job must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("late-zero"), "names the job: {err}");
    assert!(err.contains("0 worker threads"), "{err}");
    assert!(!err.contains("usage:"), "no usage dump: {err}");
    assert!(!results.exists(), "no partial results file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flow_output_is_identical_across_thread_counts() {
    // The CLI-level face of the equivalence guarantee: the emitted
    // Verilog is byte-identical whether the flow ran on 1 worker or 4.
    let dir = std::env::temp_dir().join(format!("tdals-cli-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let run = |threads: &str, file: &str| -> String {
        let out_path = dir.join(file);
        let out = tdals()
            .args([
                "flow",
                "--input",
                "bench:Int2float",
                "--metric",
                "er",
                "--bound",
                "0.05",
                "--population",
                "6",
                "--iterations",
                "3",
                "--vectors",
                "512",
                "--threads",
                threads,
                "--output",
                out_path.to_str().expect("utf8 path"),
            ])
            .output()
            .expect("run tdals flow");
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&out_path).expect("output written")
    };
    let sequential = run("1", "seq.v");
    let parallel = run("4", "par.v");
    assert_eq!(sequential, parallel, "emitted Verilog diverged");
    std::fs::remove_dir_all(&dir).ok();
}
