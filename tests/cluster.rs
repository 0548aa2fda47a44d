//! Acceptance suite for the shard coordinator (`tdals::cluster` /
//! `tdals shard-batch`).
//!
//! The headline contract: for any shard count, on spawned or given
//! daemons, the merged results file is **byte-identical** to what
//! `tdals serve-batch` writes for the unsharded manifest. Everything
//! else here defends the pieces that contract leans on: plan
//! stability, shard-map validation, merge invariants, crash-restart
//! convergence, and the typed dial errors.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use tdals::circuits::Benchmark;
use tdals::cluster::{merge, plan, ClusterError, ShardPlan, ShardPolicy};
use tdals::server::{FlowJob, Manifest};
use tdals_bench::json::Json;

fn quick_job(seed: u64) -> FlowJob {
    FlowJob::benchmark(Benchmark::Int2float)
        .with_bound(0.05)
        .with_scale(4, 1)
        .with_vectors(256)
        .with_seed(seed)
        .with_name(format!("job-{seed}"))
}

fn five_jobs() -> Manifest {
    Manifest::new([3u64, 5, 7, 11, 13].map(quick_job).to_vec())
}

/// The five-job manifest as `tdals` CLI input (unique names are
/// mandatory since duplicate-name rejection landed).
const CLI_MANIFEST: &str = r#"{
  "jobs": [
    {"circuit": "bench:Int2float", "name": "i2f-a", "metric": "er", "bound": 0.05,
     "method": "dcgwo", "population": 4, "iterations": 1, "vectors": 256, "seed": 3},
    {"circuit": "bench:Int2float", "name": "i2f-b", "metric": "er", "bound": 0.05,
     "method": "dcgwo", "population": 4, "iterations": 1, "vectors": 256, "seed": 5},
    {"circuit": "bench:Max16", "name": "max-a", "metric": "nmed", "bound": 0.0244,
     "method": "hedals", "iterations": 1, "vectors": 256, "seed": 7},
    {"circuit": "bench:Int2float", "name": "i2f-c", "metric": "er", "bound": 0.05,
     "method": "greedy", "iterations": 1, "vectors": 256, "seed": 11,
     "max_iterations": 3},
    {"circuit": "bench:Int2float", "name": "i2f-d", "metric": "er", "bound": 0.05,
     "method": "dcgwo", "population": 4, "iterations": 1, "vectors": 256, "seed": 13}
  ]
}"#;

fn tdals() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tdals"))
}

// ---------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------

#[test]
fn round_robin_deals_indices_and_clamps_to_job_count() {
    let manifest = five_jobs();
    let p = plan(&manifest, 2, ShardPolicy::RoundRobin).expect("plannable");
    assert_eq!(p.shard_count(), 2);
    assert_eq!(p.jobs_of(0), &[0, 2, 4]);
    assert_eq!(p.jobs_of(1), &[1, 3]);

    // More shards than jobs: the effective count clamps, because an
    // empty shard would mean a worker running an empty manifest.
    let p = plan(&manifest, 9, ShardPolicy::RoundRobin).expect("plannable");
    assert_eq!(p.shard_count(), 5);
    for s in 0..5 {
        assert_eq!(p.jobs_of(s), &[s]);
    }

    // The sub-manifest is the assigned jobs in manifest-relative order.
    let p = plan(&manifest, 2, ShardPolicy::RoundRobin).expect("plannable");
    let sub = p.manifest_for(&manifest, 0);
    let names: Vec<&str> = sub.jobs.iter().map(|j| j.name.as_str()).collect();
    assert_eq!(names, ["job-3", "job-7", "job-13"]);

    assert!(matches!(
        plan(&manifest, 0, ShardPolicy::RoundRobin),
        Err(ClusterError::Plan { .. })
    ));
}

#[test]
fn size_weighted_balances_cost_deterministically() {
    // Weights scale with population × iterations × vectors: one heavy
    // job (index 0) and four light ones onto 2 shards must isolate the
    // heavy job via LPT.
    let mut jobs = vec![quick_job(3)
        .with_scale(4, 100) // 100× the iterations of its peers
        .with_name("heavy".to_owned())];
    jobs.extend([5u64, 7, 11, 13].map(quick_job));
    let manifest = Manifest::new(jobs);
    let p = plan(&manifest, 2, ShardPolicy::SizeWeighted).expect("plannable");
    assert_eq!(p.jobs_of(0), &[0], "heavy job gets its own shard");
    assert_eq!(p.jobs_of(1), &[1, 2, 3, 4]);

    // Deterministic: planning twice yields the same assignment.
    let again = plan(&manifest, 2, ShardPolicy::SizeWeighted).expect("plannable");
    assert_eq!(p, again);
}

#[test]
fn shard_map_round_trips_and_rejects_broken_partitions() {
    let manifest = five_jobs();
    let p = plan(&manifest, 3, ShardPolicy::SizeWeighted).expect("plannable");
    let doc = p.to_json();
    let parsed = ShardPlan::from_json(&doc).expect("round-trips");
    assert_eq!(p, parsed);
    // The document pins its schema and policy spelling.
    assert_eq!(doc.get("schema").and_then(Json::as_uint), Some(1));
    assert_eq!(
        doc.get("policy").and_then(Json::as_str),
        Some("size-weighted")
    );

    let reject = |text: &str, needle: &str| {
        let doc = Json::parse(text).expect("valid JSON");
        let err = ShardPlan::from_json(&doc).expect_err(text);
        assert!(err.to_string().contains(needle), "{text}: {err}");
    };
    reject(
        r#"{"schema": 2, "policy": "round-robin", "jobs": 1, "shards": [[0]]}"#,
        "schema 2",
    );
    reject(
        r#"{"schema": 1, "policy": "by-vibes", "jobs": 1, "shards": [[0]]}"#,
        "unknown shard policy",
    );
    reject(
        r#"{"schema": 1, "policy": "round-robin", "jobs": 2, "shards": [[0], [0]]}"#,
        "assigned to two shards",
    );
    reject(
        r#"{"schema": 1, "policy": "round-robin", "jobs": 2, "shards": [[0]]}"#,
        "assigned to no shard",
    );
    reject(
        r#"{"schema": 1, "policy": "round-robin", "jobs": 2, "shards": [[1, 0]]}"#,
        "not ascending",
    );
    reject(
        r#"{"schema": 1, "policy": "round-robin", "jobs": 2, "shards": [[], [0, 1]]}"#,
        "empty",
    );
    reject(
        r#"{"schema": 1, "policy": "round-robin", "jobs": 1, "shards": [[0, 5]]}"#,
        "references job 5",
    );
}

// ---------------------------------------------------------------------
// Merge invariants (fabricated shard docs — no flows run)
// ---------------------------------------------------------------------

#[test]
fn merge_rejects_count_schema_and_index_violations() {
    let manifest = five_jobs();
    let p = plan(&manifest, 2, ShardPolicy::RoundRobin).expect("plannable");
    let record =
        |local: usize| format!(r#"{{"job": {local}, "name": "n{local}", "status": "completed"}}"#);
    let doc = |locals: &[usize]| {
        let rows: Vec<String> = locals.iter().map(|&l| record(l)).collect();
        format!("{{\"schema\": 1, \"results\": [{}]}}\n", rows.join(", "))
    };

    // One doc for a two-shard plan.
    let err = merge(&p, &[doc(&[0, 1, 2])]).expect_err("count mismatch");
    assert!(err.to_string().contains("1 shard document(s)"), "{err}");

    // Wrong schema.
    let bad_schema = doc(&[0, 1, 2]).replace("\"schema\": 1", "\"schema\": 9");
    let err = merge(&p, &[bad_schema, doc(&[0, 1])]).expect_err("schema");
    assert!(err.to_string().contains("schema"), "{err}");

    // A shard that lost a record.
    let err = merge(&p, &[doc(&[0, 1]), doc(&[0, 1])]).expect_err("short shard");
    assert!(err.to_string().contains("2 record(s) for 3"), "{err}");

    // A worker that reordered its records: local indices must equal
    // positions exactly.
    let err = merge(&p, &[doc(&[0, 2, 1]), doc(&[0, 1])]).expect_err("reorder");
    assert!(err.to_string().contains("carries job index"), "{err}");

    // The good case stitches global indices back in manifest order.
    let merged = merge(&p, &[doc(&[0, 1, 2]), doc(&[0, 1])]).expect("merges");
    let parsed = Json::parse(&merged).expect("valid JSON");
    let indices: Vec<u64> = parsed
        .get("results")
        .and_then(Json::as_array)
        .expect("results array")
        .iter()
        .map(|r| r.get("job").and_then(Json::as_uint).expect("job index"))
        .collect();
    assert_eq!(indices, [0, 1, 2, 3, 4]);
    // Shard 0 held globals {0,2,4}, shard 1 {1,3}: spot-check the
    // rewrite by the names the fabricated records carried.
    let names: Vec<&str> = parsed
        .get("results")
        .and_then(Json::as_array)
        .expect("results array")
        .iter()
        .map(|r| r.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, ["n0", "n0", "n1", "n1", "n2"]);
}

// ---------------------------------------------------------------------
// The headline: CLI byte-identity on spawned daemons
// ---------------------------------------------------------------------

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tdals-cluster-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn write_manifest(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("jobs.json");
    std::fs::write(&path, CLI_MANIFEST).expect("write manifest");
    path
}

fn run_serve_batch(manifest: &std::path::Path, out: &std::path::Path) -> String {
    let run = tdals()
        .args([
            "serve-batch",
            "--manifest",
            manifest.to_str().expect("utf8"),
            "--total-threads",
            "2",
            "--out",
            out.to_str().expect("utf8"),
        ])
        .output()
        .expect("run tdals serve-batch");
    assert!(
        run.status.success(),
        "serve-batch: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    std::fs::read_to_string(out).expect("results written")
}

#[test]
fn shard_batch_children_are_byte_identical_to_serve_batch() {
    let dir = scratch_dir("modea");
    let manifest = write_manifest(&dir);
    let solo = run_serve_batch(&manifest, &dir.join("solo.json"));

    for shards in ["1", "2", "3"] {
        let out = dir.join(format!("sharded{shards}.json"));
        let map = dir.join(format!("map{shards}.json"));
        let run = tdals()
            .args([
                "shard-batch",
                "--manifest",
                manifest.to_str().expect("utf8"),
                "--shards",
                shards,
                "--total-threads",
                "2",
                "--shard-map",
                map.to_str().expect("utf8"),
                "--out",
                out.to_str().expect("utf8"),
            ])
            .output()
            .expect("run tdals shard-batch");
        assert!(
            run.status.success(),
            "--shards {shards}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let sharded = std::fs::read_to_string(&out).expect("results written");
        assert_eq!(sharded, solo, "--shards {shards} diverged from serve-batch");
        // The recorded shard map parses and covers the manifest.
        let map_doc =
            Json::parse(&std::fs::read_to_string(&map).expect("map written")).expect("map is JSON");
        let parsed = ShardPlan::from_json(&map_doc).expect("map validates");
        assert_eq!(parsed.job_count(), 5);
    }

    // The size-weighted policy must converge to the same bytes too —
    // assignment changes, results don't.
    let out = dir.join("weighted.json");
    let run = tdals()
        .args([
            "shard-batch",
            "--manifest",
            manifest.to_str().expect("utf8"),
            "--shards",
            "2",
            "--policy",
            "size-weighted",
            "--total-threads",
            "2",
            "--out",
            out.to_str().expect("utf8"),
        ])
        .output()
        .expect("run tdals shard-batch");
    assert!(
        run.status.success(),
        "size-weighted: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(std::fs::read_to_string(&out).expect("written"), solo);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashed_child_restarts_and_still_converges() {
    // Kill shard 1's first child right after spawn (the supervisor's
    // own crash hook): the bounded restart re-runs the same shard on a
    // fresh daemon, and seed-driven determinism makes the merged file
    // byte-identical anyway.
    let dir = scratch_dir("crash");
    let manifest = write_manifest(&dir);
    let solo = run_serve_batch(&manifest, &dir.join("solo.json"));

    let out = dir.join("crashed.json");
    let run = tdals()
        .args([
            "shard-batch",
            "--manifest",
            manifest.to_str().expect("utf8"),
            "--shards",
            "3",
            "--total-threads",
            "2",
            "--out",
            out.to_str().expect("utf8"),
        ])
        .env("TDALS_CLUSTER_CRASH_SHARD", "1")
        .output()
        .expect("run tdals shard-batch");
    assert!(
        run.status.success(),
        "crash-restart run: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&out).expect("written"),
        solo,
        "restart diverged from serve-batch"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Given daemons: driving running `tdals serve` processes
// ---------------------------------------------------------------------

/// Spawns `tdals serve` on an ephemeral port and parses the bound
/// address from its banner line.
fn spawn_daemon() -> (Child, String) {
    let mut child = tdals()
        .args(["serve", "--listen", "127.0.0.1:0", "--total-threads", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tdals serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let banner = loop {
        match lines.next() {
            Some(Ok(line)) if line.contains("listening on ") => break line,
            Some(Ok(_)) => continue,
            other => panic!("daemon banner never arrived: {other:?}"),
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    let spec = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(" with").next())
        .expect("banner names the address")
        .to_owned();
    (child, spec)
}

#[test]
fn shard_batch_daemons_are_byte_identical_to_serve_batch() {
    let dir = scratch_dir("modeb");
    let manifest = write_manifest(&dir);
    let solo = run_serve_batch(&manifest, &dir.join("solo.json"));

    let (mut d1, spec1) = spawn_daemon();
    let (mut d2, spec2) = spawn_daemon();
    let out = dir.join("daemons.json");
    let run = tdals()
        .args([
            "shard-batch",
            "--manifest",
            manifest.to_str().expect("utf8"),
            "--connect",
            &format!("{spec1},{spec2}"),
            "--out",
            out.to_str().expect("utf8"),
        ])
        .output()
        .expect("run tdals shard-batch");
    let stderr = String::from_utf8_lossy(&run.stderr);
    d1.kill().ok();
    d2.kill().ok();
    d1.wait().ok();
    d2.wait().ok();
    assert!(run.status.success(), "mode B: {stderr}");
    // --shards defaulted to the daemon count.
    assert!(stderr.contains("over 2 shard(s)"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&out).expect("written"),
        solo,
        "daemon-backed run diverged from serve-batch"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A module instantiating a cell the library does not have: it parses
/// as a manifest entry but fails as a flow, so its record is `failed`.
const UNKNOWN_CELL_VERILOG: &str = "module bad (a, y);
  input a;
  output y;
  BOGUSX1 u1 ( .Y(y), .A(a) );
endmodule
";

#[test]
fn failed_records_are_byte_identical_through_every_shard_path() {
    let dir = scratch_dir("failed");
    let bad = dir.join("bad.v");
    std::fs::write(&bad, UNKNOWN_CELL_VERILOG).expect("write verilog");
    let manifest = dir.join("jobs.json");
    std::fs::write(
        &manifest,
        format!(
            r#"{{"jobs": [
  {{"circuit": "bench:Int2float", "name": "ok-a", "metric": "er", "bound": 0.05,
   "method": "dcgwo", "population": 4, "iterations": 1, "vectors": 256, "seed": 3}},
  {{"circuit": {}, "name": "bad", "metric": "er", "bound": 0.05,
   "method": "dcgwo", "population": 4, "iterations": 1, "vectors": 256, "seed": 4}},
  {{"circuit": "bench:Int2float", "name": "ok-b", "metric": "er", "bound": 0.05,
   "method": "dcgwo", "population": 4, "iterations": 1, "vectors": 256, "seed": 5}}
]}}"#,
            Json::Str(bad.to_str().expect("utf8").to_owned())
        ),
    )
    .expect("write manifest");
    let manifest = manifest.to_str().expect("utf8");

    // Every path exits nonzero for the failed job and still writes the
    // whole results file.
    let run = |args: &[&str], out: &str| {
        let out = dir.join(out);
        let run = tdals()
            .args(args)
            .args(["--manifest", manifest, "--out", out.to_str().expect("utf8")])
            .output()
            .expect("run tdals");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            !run.status.success(),
            "{args:?} must exit nonzero: {stderr}"
        );
        assert!(
            stderr.contains("1 job(s) did not complete"),
            "{args:?}: {stderr}"
        );
        std::fs::read_to_string(&out).expect("results written")
    };
    let solo = run(&["serve-batch", "--total-threads", "2"], "solo.json");
    let spawned = run(&["shard-batch", "--shards", "2"], "spawned.json");
    let (mut d1, spec1) = spawn_daemon();
    let (mut d2, spec2) = spawn_daemon();
    let given = run(
        &["shard-batch", "--connect", &format!("{spec1},{spec2}")],
        "given.json",
    );
    for daemon in [&mut d1, &mut d2] {
        daemon.kill().ok();
        daemon.wait().ok();
    }
    assert_eq!(spawned, solo, "spawned daemons diverged from serve-batch");
    assert_eq!(given, solo, "given daemons diverged from serve-batch");

    let doc = Json::parse(&solo).expect("results are JSON");
    let statuses: Vec<&str> = doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results array")
        .iter()
        .map(|r| r.get("status").and_then(Json::as_str).expect("status"))
        .collect();
    assert_eq!(statuses, ["completed", "failed", "completed"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timeout_kills_the_spawned_daemon_with_a_typed_error() {
    // A Sqrt DCGWO flow with a huge iteration budget runs far longer
    // than the 1 s limit: the shard must end with the typed timeout
    // error and its child killed, not waited out.
    let dir = scratch_dir("timeout");
    let manifest = dir.join("jobs.json");
    std::fs::write(
        &manifest,
        r#"{"jobs": [{"circuit": "bench:Sqrt", "name": "sqrt-long", "metric": "nmed",
  "bound": 0.01, "method": "dcgwo", "population": 20, "iterations": 1000,
  "vectors": 512, "seed": 7}]}"#,
    )
    .expect("write manifest");
    let started = tdals::obs::clock::now();
    let run = tdals()
        .args([
            "shard-batch",
            "--manifest",
            manifest.to_str().expect("utf8"),
            "--shards",
            "1",
            "--timeout",
            "1",
        ])
        .output()
        .expect("run tdals shard-batch");
    let elapsed = started.elapsed();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "{stderr}");
    assert!(stderr.contains("shard 0 timed out after 1s"), "{stderr}");
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "took {elapsed:?}: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Typed dial errors (`submit --retry` satellite)
// ---------------------------------------------------------------------

#[test]
fn submit_fails_fast_with_typed_connection_refused() {
    // Default --retry is 0: one attempt, the typed taxonomy names the
    // spec and the attempt count, and nothing hangs waiting for a
    // daemon that will never come.
    let dir = scratch_dir("refused");
    let manifest = write_manifest(&dir);
    let run = tdals()
        .args([
            "submit",
            "--connect",
            "127.0.0.1:1", // reserved port: nothing listens here
            "--manifest",
            manifest.to_str().expect("utf8"),
        ])
        .output()
        .expect("run tdals submit");
    assert!(!run.status.success(), "dial must fail");
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("connection-refused"), "{err}");
    assert!(err.contains("127.0.0.1:1"), "{err}");
    assert!(err.contains("after 1 attempt(s)"), "{err}");

    // --retry widens the attempt budget (still refused, more attempts).
    let run = tdals()
        .args([
            "submit",
            "--connect",
            "127.0.0.1:1",
            "--retry",
            "2",
            "--manifest",
            manifest.to_str().expect("utf8"),
        ])
        .output()
        .expect("run tdals submit");
    assert!(!run.status.success(), "dial must fail");
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("after 3 attempt(s)"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
