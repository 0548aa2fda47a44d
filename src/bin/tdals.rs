//! `tdals` — command-line front end for the timing-driven ALS flow.
//!
//! Subcommands:
//!
//! * `flow`   — approximate a structural-Verilog netlist (or a named
//!   benchmark) under an ER/NMED budget with any of the five methods
//!   and write the result as Verilog;
//! * `serve-batch` — run a JSON manifest of jobs as concurrent
//!   sessions over one shared worker pool and write a deterministic
//!   results file;
//! * `shard-batch` — fan the same manifest across N `serve` daemons
//!   (spawned as child processes, or already running and given by
//!   `--connect`) and merge a results file byte-identical to the
//!   single-process run;
//! * `serve`  — the same serving layer as a long-lived daemon speaking
//!   the versioned frame protocol over TCP or a unix socket;
//! * `submit` — client for `serve`: submit a manifest, stream events,
//!   reassemble a results file byte-identical to `serve-batch`'s;
//! * `stats`  — query a running daemon's metric registry (counters,
//!   gauges, histograms) plus per-tenant/per-session tallies;
//! * `report` — static timing + statistics report for a netlist;
//! * `bench`  — emit one of the paper's regenerated benchmarks as
//!   Verilog;
//! * `lint`   — structural verification of a netlist (undriven nets,
//!   cycles, dangling wires, fan-out consistency, …) with optional
//!   machine-readable JSON findings.
//!
//! ```sh
//! tdals bench --name Adder16 --output adder16.v
//! tdals flow --input adder16.v --metric nmed --bound 0.0244 --output approx.v
//! tdals flow --input bench:Max16 --metric nmed --bound 0.0244 --method hedals --progress
//! tdals serve-batch --manifest jobs.json --total-threads 4 --out results.json
//! tdals shard-batch --manifest jobs.json --shards 3 --out results.json
//! tdals serve --listen 127.0.0.1:7171 --total-threads 4
//! tdals submit --connect 127.0.0.1:7171 --manifest jobs.json --out results.json --shutdown
//! tdals report --input approx.v
//! tdals lint --input approx.v --deny warnings --json
//! ```

use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;
use std::time::Duration;

use tdals::baselines::Method;
use tdals::circuits::{Benchmark, ALL_BENCHMARKS};
use tdals::cluster::{merge, plan, run_shards, Daemons, ShardPolicy, SupervisorOptions};
use tdals::core::api::{FlowEvent, FnObserver};
use tdals::netlist::{verilog, Netlist};
use tdals::server::{
    check_bound, connect_retry, parse_worker_count, results_document_from_records, roundtrip,
    run_jobs, ClientError, Connection, Daemon, DaemonConfig, FlowJob, Listener, Manifest, Request,
    PROTOCOL_SCHEMA,
};
use tdals::sim::ErrorMetric;
use tdals::sta::{analyze, critical_path, TimingConfig};
use tdals_bench::json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(CliError::Run(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// A usage error reprints the option summary; a run error (bad bound,
/// unknown benchmark, I/O or parse failure) is reported on its own —
/// the user typed a structurally valid command line and a usage dump
/// would bury the actual problem.
enum CliError {
    Usage(String),
    Run(String),
}

impl CliError {
    fn run(message: impl Into<String>) -> CliError {
        CliError::Run(message.into())
    }
}

const USAGE: &str = "usage:
  tdals flow   --input <file.v | bench:NAME> --metric <er|nmed> --bound <f>
               [--method <dcgwo|gwo|hedals|greedy|vaacs>] [--output <file.v>]
               [--population <n>] [--iterations <n>] [--vectors <n>]
               [--area-con <µm²>] [--seed <n>] [--threads <n>] [--progress]
               [--trace <trace.json>]
  tdals serve-batch --manifest <jobs.json> [--out <results.json>]
               [--total-threads <n>] [--session-threads <n>] [--progress]
               [--trace <trace.json>]
  tdals shard-batch --manifest <jobs.json> --shards <n> [--connect <addr,addr,...>]
               [--policy <round-robin|size-weighted>] [--out <results.json>]
               [--shard-map <file.json>] [--total-threads <n>] [--timeout <secs>]
               [--retry <n>] [--progress] [--trace <trace.json>]
  tdals serve  --listen <host:port | socket-path> [--total-threads <n>]
               [--session-threads <n>] [--max-sessions <n>] [--tenant-quota <n>]
  tdals submit --connect <host:port | socket-path> [--manifest <jobs.json>]
               [--out <results.json>] [--tenant <name>] [--retry <n>]
               [--progress] [--drain] [--shutdown]
  tdals stats  --connect <host:port | socket-path> [--retry <n>]
  tdals report --input <file.v | bench:NAME>
  tdals bench  --name <NAME> [--output <file.v>]
  tdals lint   --input <file.v | bench:NAME> [--deny warnings] [--json]
               [--out <file.json>]
  tdals list";

/// Options that are flags (present/absent, no value).
const FLAGS: [&str; 4] = ["progress", "json", "drain", "shutdown"];

fn run(args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage("missing subcommand".into()));
    };
    let opts = parse_options(rest).map_err(CliError::Usage)?;
    match command.as_str() {
        "flow" => cmd_flow(&opts),
        "serve-batch" => cmd_serve_batch(&opts),
        "shard-batch" => cmd_shard_batch(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "stats" => cmd_stats(&opts),
        "report" => cmd_report(&opts),
        "bench" => cmd_bench(&opts),
        "lint" => cmd_lint(&opts),
        "list" => cmd_list(),
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

fn parse_options(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --option, found `{key}`"));
        };
        if FLAGS.contains(&name) {
            opts.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        opts.insert(name.to_owned(), value.clone());
    }
    Ok(opts)
}

fn load_input(opts: &HashMap<String, String>) -> Result<Netlist, CliError> {
    let input = opts
        .get("input")
        .ok_or_else(|| CliError::Usage("--input is required".into()))?;
    if let Some(name) = input.strip_prefix("bench:") {
        return benchmark_by_name(name).map(Benchmark::build);
    }
    let text =
        fs::read_to_string(input).map_err(|e| CliError::run(format!("reading {input}: {e}")))?;
    verilog::parse(&text).map_err(|e| CliError::run(format!("parsing {input}: {e}")))
}

fn benchmark_by_name(name: &str) -> Result<Benchmark, CliError> {
    ALL_BENCHMARKS
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| CliError::run(format!("unknown benchmark `{name}` (try `tdals list`)")))
}

fn write_output(opts: &HashMap<String, String>, netlist: &Netlist) -> Result<(), CliError> {
    write_text(opts.get("output"), &verilog::to_verilog(netlist))
}

/// Writes `text` to `path`, or to stdout when no path was given.
fn write_text(path: Option<&String>, text: &str) -> Result<(), CliError> {
    match path {
        Some(path) => {
            fs::write(path, text).map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match opts.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::run(format!("--{key}: invalid value `{v}`"))),
        None => Ok(default),
    }
}

/// Parses and validates `--threads`: a positive integer worker count
/// (the shared [`parse_worker_count`] rule, so the wording matches
/// every other front end). Absent means one worker per available core;
/// results are bit-identical whatever the count, so the flag only
/// trades wall-clock for cores. `0` and non-numeric values are rejected
/// with a typed run error (a structurally valid command line never
/// earns a usage dump).
fn parse_threads(opts: &HashMap<String, String>) -> Result<usize, CliError> {
    let Some(raw) = opts.get("threads") else {
        return Ok(tdals::core::par::available_threads());
    };
    parse_worker_count(raw).map_err(|msg| CliError::run(format!("--threads: {msg}")))
}

/// Parses and validates `--bound` via the shared [`check_bound`] rule —
/// the same range (and wording) the manifest parser enforces, rejecting
/// NaN, negatives, and values above 1 up front instead of letting them
/// reach the optimizer.
fn parse_bound(opts: &HashMap<String, String>) -> Result<f64, CliError> {
    let raw = opts
        .get("bound")
        .ok_or_else(|| CliError::Usage("--bound is required".into()))?;
    let bound: f64 = raw
        .parse()
        .map_err(|_| CliError::run(format!("--bound: `{raw}` is not a number")))?;
    check_bound(bound).map_err(|msg| CliError::run(format!("--bound: {msg}")))
}

/// Arms the span recorder when `--trace <out.json>` was passed,
/// returning the output path for [`write_trace`] to drain into after
/// the run. Tracing is strictly additive: it records timings, never
/// feeds them back, so results files are byte-identical with it on.
fn trace_path(opts: &HashMap<String, String>) -> Option<&String> {
    let path = opts.get("trace")?;
    tdals::obs::trace::enable(0);
    Some(path)
}

/// Drains the span recorder into a Chrome trace-event JSON artifact —
/// load it in `chrome://tracing` or <https://ui.perfetto.dev>.
fn write_trace(path: Option<&String>) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    tdals::obs::trace::disable();
    let dropped = tdals::obs::trace::dropped();
    let records = tdals::obs::trace::drain();
    let doc = tdals_bench::obs_report::trace_to_json(&records, dropped);
    let text = format!("{doc}\n");
    fs::write(path, &text).map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
    eprintln!("wrote {path} ({} span(s))", records.len());
    Ok(())
}

fn cmd_flow(opts: &HashMap<String, String>) -> Result<(), CliError> {
    // The CLI is a thin shell over the same FlowJob the manifest format
    // and the daemon admit, so defaults and validation cannot drift
    // between the front ends.
    let input = opts
        .get("input")
        .ok_or_else(|| CliError::Usage("--input is required".into()))?;
    let base = if let Some(name) = input.strip_prefix("bench:") {
        FlowJob::benchmark(benchmark_by_name(name)?)
    } else {
        let text = fs::read_to_string(input)
            .map_err(|e| CliError::run(format!("reading {input}: {e}")))?;
        // Parse now: `flow` reports a broken file up front, not as a
        // session failure mid-run.
        verilog::parse(&text).map_err(|e| CliError::run(format!("parsing {input}: {e}")))?;
        FlowJob::verilog(input.clone(), text)
    };
    let metric = match opts.get("metric") {
        // A bad value on a structurally valid command line is a run
        // error, like `--bound` and `--method`; only a missing option
        // warrants the usage dump. One vocabulary with the manifest
        // format: `ErrorMetric::parse`.
        Some(name) => ErrorMetric::parse(name)
            .ok_or_else(|| CliError::run(format!("--metric must be er|nmed, got `{name}`")))?,
        None => return Err(CliError::Usage("--metric is required".into())),
    };
    let bound = parse_bound(opts)?;
    let method = match opts.get("method") {
        None => Method::Dcgwo,
        Some(name) => {
            Method::parse(name).ok_or_else(|| CliError::run(format!("unknown method `{name}`")))?
        }
    };
    let threads = parse_threads(opts)?;
    let area_con = match opts.get("area-con") {
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| CliError::run("--area-con: invalid number"))?,
        ),
        None => None,
    };
    let progress = opts.contains_key("progress");

    // Flag defaults are read *from the job*, so the CLI's defaults are
    // the manifest format's by construction.
    let job = base
        .clone()
        .with_metric(metric)
        .with_bound(bound)
        .with_method(method)
        .with_scale(
            parse_num(opts, "population", base.population)?,
            parse_num(opts, "iterations", base.iterations)?,
        )
        .with_vectors(parse_num(opts, "vectors", base.vectors)?)
        .with_seed(parse_num(opts, "seed", base.seed)?)
        .with_area_con(area_con);

    job.validate().map_err(|e| CliError::run(e.to_string()))?;

    let label = method.label();
    let mut obs = FnObserver(move |ev: &FlowEvent| {
        if let FlowEvent::FlowStarted {
            gates,
            cpd_ori,
            area_ori,
            ..
        } = ev
        {
            eprintln!(
                "flow: {gates} gates, CPD_ori {cpd_ori:.2} ps, Area_ori {area_ori:.2} µm², \
                 method {label}, {threads} worker{}",
                if threads == 1 { "" } else { "s" }
            );
        }
        if progress {
            print_progress("", ev);
        }
    });
    let trace = trace_path(opts);
    let result = job
        .run_with(threads, job.budget.to_budget(), &mut obs)
        .map_err(|e| CliError::run(e.to_string()))?;
    write_trace(trace)?;
    eprintln!(
        "done: Ratio_cpd {:.4}, CPD_fac {:.2} ps, error {:.5}, area {:.2} µm², {:.1}s ({})",
        result.ratio_cpd,
        result.cpd_fac,
        result.error,
        result.area,
        result.runtime_s,
        result.stop()
    );
    write_output(opts, &result.netlist)
}

/// Renders streaming flow events for `flow --progress`, human-readable
/// (stderr, so piped Verilog output stays clean). The serving commands
/// (`serve-batch`, `submit`) stream the machine-readable wire frames
/// instead — see [`print_event_frame`].
fn print_progress(prefix: &str, ev: &FlowEvent) {
    match ev {
        FlowEvent::FlowStarted {
            optimizer,
            gates,
            cpd_ori,
            error_bound,
            ..
        } => eprintln!(
            "{prefix}[{optimizer}] start: {gates} gates, CPD_ori {cpd_ori:.2} ps, bound {error_bound}"
        ),
        FlowEvent::IterationFinished { stats } => eprintln!(
            "{prefix}  iter {:>3}: constraint {:.5}, best fitness {:.4}, depth {}, area {:.1}, {} feasible",
            stats.iteration,
            stats.constraint,
            stats.best_fitness,
            stats.best_depth,
            stats.best_area,
            stats.feasible
        ),
        FlowEvent::BestImproved {
            iteration,
            fitness,
            error,
            ..
        } => eprintln!(
            "{prefix}  iter {iteration:>3}: new best fitness {fitness:.4} (error {error:.5})"
        ),
        FlowEvent::LacAccepted {
            iteration,
            error,
            area,
        } => eprintln!(
            "{prefix}  iter {iteration:>3}: LAC accepted (error {error:.5}, area {area:.1})"
        ),
        FlowEvent::OptimizeFinished { stop, evaluations } => {
            eprintln!("{prefix}optimizer {stop} after {evaluations} evaluations");
        }
        FlowEvent::PostOptFinished { report } => eprintln!(
            "{prefix}post-opt: {} gates swept, {} sizing moves, CPD {:.2} -> {:.2} ps",
            report.gates_removed, report.sizing_moves, report.cpd_before, report.cpd_final
        ),
        _ => {}
    }
}

/// Parses an optional positive count option (`--total-threads`,
/// `--session-threads`, `--max-sessions`, `--tenant-quota`): the shared
/// [`parse_worker_count`] rule with the flag name prefixed, so the
/// typed-error contract matches `--threads`.
fn parse_positive(opts: &HashMap<String, String>, key: &str) -> Result<Option<usize>, CliError> {
    let Some(raw) = opts.get(key) else {
        return Ok(None);
    };
    parse_worker_count(raw)
        .map(Some)
        .map_err(|msg| CliError::run(format!("--{key}: {msg}")))
}

/// `serve-batch`'s pool shape, as `(total slots, per-session cap)`: the
/// total is `--total-threads`, else the manifest's hint, else the core
/// count; the cap is `--session-threads`, else an even static split
/// across the batch widened to the largest per-job `threads` hint
/// (hints are clamped to the pool).
fn pool_shape(
    manifest: &Manifest,
    total_flag: Option<usize>,
    session_flag: Option<usize>,
) -> (usize, usize) {
    let total = total_flag
        .or(manifest.total_threads)
        .unwrap_or_else(tdals::core::par::available_threads)
        .max(1);
    let session_cap = session_flag.unwrap_or_else(|| {
        let concurrency = manifest.jobs.len().min(total).max(1);
        let hinted = manifest
            .jobs
            .iter()
            .filter_map(|j| j.threads)
            .map(|t| t.min(total))
            .max()
            .unwrap_or(1);
        total.div_ceil(concurrency).max(hinted).min(total)
    });
    (total, session_cap)
}

fn cmd_serve_batch(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let manifest_path = opts
        .get("manifest")
        .ok_or_else(|| CliError::Usage("--manifest is required".into()))?;
    // Flag validation first: a bad worker count is reported even when
    // the manifest is absent or broken.
    let total_flag = parse_positive(opts, "total-threads")?;
    let session_flag = parse_positive(opts, "session-threads")?;
    let manifest = read_manifest(manifest_path)?;

    // A daemon in this process, driven by the same client loop as
    // `submit` and `shard-batch`: the three commands' results files
    // agree by construction. It admits the whole batch at once.
    let (total, session_cap) = pool_shape(&manifest, total_flag, session_flag);
    let daemon = Daemon::new(
        DaemonConfig::new(total)
            .with_session_cap(session_cap)
            .with_max_sessions(manifest.jobs.len()),
    )
    .map_err(|e| CliError::run(e.to_string()))?;
    eprintln!(
        "serve-batch: {} job(s) over {total} worker slot(s), {session_cap} per session",
        manifest.jobs.len()
    );

    let trace = trace_path(opts);
    let failed = run_batch(opts, "serve-batch", &manifest.jobs, None, &mut |request| {
        daemon.call(request)
    })?;
    // Let every session thread wind down, so the trace holds its spans.
    daemon
        .call(&Request::Drain)
        .map_err(|e| CliError::run(e.to_string()))?;
    write_trace(trace)?;
    batch_exit(failed)
}

/// Reads and parses a manifest, resolving circuit file paths to inline
/// Verilog (the daemon reads no files).
fn read_manifest(path: &str) -> Result<Manifest, CliError> {
    let text =
        fs::read_to_string(path).map_err(|e| CliError::run(format!("reading {path}: {e}")))?;
    Manifest::parse(&text, &|p| fs::read_to_string(p).map_err(|e| e.to_string()))
        .map_err(|e| CliError::run(e.to_string()))
}

/// Runs `jobs` through `send` (a daemon in this process, or one behind
/// a socket), streams `--progress` frames, writes the results document
/// to `--out` (or stdout) and prints the `<command> done` tally. Returns
/// how many jobs did not complete.
fn run_batch(
    opts: &HashMap<String, String>,
    command: &str,
    jobs: &[FlowJob],
    tenant: Option<&str>,
    send: &mut dyn FnMut(&Request) -> Result<Json, ClientError>,
) -> Result<usize, CliError> {
    let progress = opts.contains_key("progress");
    let rows = run_jobs(send, jobs, tenant, None, &mut |i, name, ev| {
        if progress {
            print_event_frame(i, name, ev);
        }
    })
    .map_err(|e| CliError::run(e.to_string()))?;
    let failed = count_failed(&rows);
    let total = rows.len();
    write_text(
        opts.get("out"),
        &format!("{}\n", results_document_from_records(rows)),
    )?;
    eprintln!(
        "{command} done: {} completed, {failed} failed of {total} job(s)",
        total - failed
    );
    Ok(failed)
}

/// The batch commands' exit contract: failed jobs are *in* the
/// deterministic results file, and the command exits nonzero.
fn batch_exit(failed: usize) -> Result<(), CliError> {
    if failed > 0 {
        return Err(CliError::run(format!(
            "{failed} job(s) did not complete (see the results file)"
        )));
    }
    Ok(())
}

fn cmd_shard_batch(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let manifest_path = opts
        .get("manifest")
        .ok_or_else(|| CliError::Usage("--manifest is required".into()))?;
    // --connect drives running daemons; without it, each shard gets a
    // `tdals serve` child spawned from this very binary.
    let connect_specs: Option<Vec<String>> = opts.get("connect").map(|list| {
        list.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect()
    });
    let shards = match parse_positive(opts, "shards")? {
        Some(n) => n,
        // Given daemons make a natural default: one shard per daemon.
        None => match &connect_specs {
            Some(specs) if !specs.is_empty() => specs.len(),
            _ => return Err(CliError::Usage("--shards is required".into())),
        },
    };
    let policy = match opts.get("policy") {
        None => ShardPolicy::RoundRobin,
        Some(name) => ShardPolicy::parse(name).ok_or_else(|| {
            CliError::run(format!(
                "--policy must be round-robin|size-weighted, got `{name}`"
            ))
        })?,
    };
    let timeout = parse_positive(opts, "timeout")?.map(|secs| Duration::from_secs(secs as u64));
    let total_flag = parse_positive(opts, "total-threads")?;
    let retries = parse_num(opts, "retry", 0usize)?;
    let progress = opts.contains_key("progress");

    let manifest = read_manifest(manifest_path)?;

    let shard_plan = plan(&manifest, shards, policy).map_err(|e| CliError::run(e.to_string()))?;
    if let Some(path) = opts.get("shard-map") {
        let text = format!("{}\n", shard_plan.to_json());
        fs::write(path, &text).map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
        eprintln!("wrote {path}");
    }

    let supervisor = SupervisorOptions::new()
        .with_timeout(timeout)
        .with_total_threads(total_flag)
        .with_retries(retries)
        .with_progress(progress);
    let daemons = match connect_specs {
        Some(specs) => Daemons::Connect(specs),
        None => Daemons::Spawn(
            std::env::current_exe()
                .map_err(|e| CliError::run(format!("locating the tdals binary: {e}")))?,
        ),
    };
    let mut on_frame = |frame: &Json| {
        if let Some(stats) = frame.get("stats") {
            // Per-shard daemon stats summary: part of the merge report,
            // so it prints whether or not --progress is set.
            let shard = frame.get("shard").and_then(Json::as_f64).unwrap_or(-1.0);
            let counter = |name: &str| {
                stats
                    .get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            eprintln!(
                "shard {shard:.0} stats: {:.0} evaluations, {:.0} frames read, \
                 {:.0} frames written, {:.0} session(s) reaped",
                counter("evaluations"),
                counter("frames_read"),
                counter("frames_written"),
                counter("sessions_reaped")
            );
        } else if progress {
            eprintln!("{}", frame.compact());
        }
    };
    eprintln!(
        "shard-batch: {} job(s) over {} shard(s) ({} policy), {}",
        shard_plan.job_count(),
        shard_plan.shard_count(),
        policy,
        match &daemons {
            Daemons::Connect(specs) => format!("daemons {}", specs.join(", ")),
            Daemons::Spawn(_) => "spawned daemons".into(),
        }
    );
    let trace = trace_path(opts);
    let docs = run_shards(&manifest, &shard_plan, &daemons, &supervisor, &mut on_frame)
        .map_err(|e| CliError::run(e.to_string()))?;

    let merged = {
        let _span = tdals::obs::trace::span(tdals::obs::trace::cat::PHASE, "merge")
            .arg("shards", shard_plan.shard_count() as u64);
        merge(&shard_plan, &docs)
    };
    write_trace(trace)?;
    let merged = merged.map_err(|e| CliError::run(e.to_string()))?;
    write_text(opts.get("out"), &merged)?;

    let failed = Json::parse(&merged)
        .ok()
        .and_then(|doc| {
            doc.get("results")
                .and_then(Json::as_array)
                .map(count_failed)
        })
        .unwrap_or(0);
    eprintln!(
        "shard-batch done: {} completed, {failed} failed of {} job(s) over {} shard(s)",
        shard_plan.job_count() - failed,
        shard_plan.job_count(),
        shard_plan.shard_count()
    );
    batch_exit(failed)
}

/// How many result records did not complete.
fn count_failed(records: &[Json]) -> usize {
    records
        .iter()
        .filter(|r| r.get("status").and_then(Json::as_str) != Some("completed"))
        .count()
}

/// Prints one `--progress` line for the serving commands: a compact
/// wire frame tagging the session's local submission index and name,
/// with the event in the protocol's own encoding. `serve-batch` and
/// `submit` share this renderer, so their progress streams for the same
/// manifest are line-for-line comparable.
fn print_event_frame(session: usize, name: &str, event: Json) {
    let frame = Json::Obj(vec![
        ("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64)),
        ("session".into(), Json::Num(session as f64)),
        ("name".into(), Json::Str(name.into())),
        ("event".into(), event),
    ]);
    eprintln!("{}", frame.compact());
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let listen = opts
        .get("listen")
        .ok_or_else(|| CliError::Usage("--listen is required".into()))?;
    let total = parse_positive(opts, "total-threads")?
        .unwrap_or_else(tdals::core::par::available_threads)
        .max(1);
    let mut config = DaemonConfig::new(total);
    if let Some(cap) = parse_positive(opts, "session-threads")? {
        config = config.with_session_cap(cap);
    }
    if let Some(n) = parse_positive(opts, "max-sessions")? {
        config = config.with_max_sessions(n);
    }
    if let Some(quota) = parse_positive(opts, "tenant-quota")? {
        config = config.with_tenant_quota(quota);
    }
    let daemon = Daemon::new(config).map_err(|e| CliError::run(e.to_string()))?;
    let listener =
        Listener::bind(listen).map_err(|e| CliError::run(format!("binding {listen}: {e}")))?;
    eprintln!(
        "serve: listening on {} with {total} worker slot(s)",
        listener.local_spec()
    );
    daemon
        .serve(listener)
        .map_err(|e| CliError::run(format!("serving on {listen}: {e}")))?;
    eprintln!("serve: shut down");
    Ok(())
}

fn cmd_submit(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let spec = opts
        .get("connect")
        .ok_or_else(|| CliError::Usage("--connect is required".into()))?;
    let drain = opts.contains_key("drain");
    let shutdown = opts.contains_key("shutdown");
    let manifest_path = opts.get("manifest");
    if manifest_path.is_none() && !drain && !shutdown {
        return Err(CliError::Usage(
            "--manifest is required (or pass --drain / --shutdown)".into(),
        ));
    }
    let tenant = opts.get("tenant").cloned();
    // Dial retries are opt-in (default 0): an absent daemon should fail
    // fast with the typed connection-refused error unless the caller is
    // deliberately racing a daemon that is still binding its socket
    // (the CI soak job does exactly that, with a generous --retry).
    let retries = parse_num(opts, "retry", 0usize)?;

    // Parse (and resolve circuit files to inline Verilog) before
    // dialing: a broken manifest never opens a socket.
    let manifest = manifest_path.map(|path| read_manifest(path)).transpose()?;

    let mut conn =
        Connection::new(connect_retry(spec, retries).map_err(|e| CliError::run(e.to_string()))?);
    let mut failed = 0;
    if let Some(manifest) = &manifest {
        eprintln!("submit: {} job(s) to {spec}", manifest.jobs.len());
        failed = run_batch(
            opts,
            "submit",
            &manifest.jobs,
            tenant.as_deref(),
            &mut |request| roundtrip(&mut conn, request),
        )?;
    }

    if drain || shutdown {
        let verb = if shutdown {
            Request::Shutdown
        } else {
            Request::Drain
        };
        let reply = roundtrip(&mut conn, &verb).map_err(|e| CliError::run(e.to_string()))?;
        let count = reply.get("sessions").and_then(Json::as_f64).unwrap_or(0.0);
        eprintln!(
            "{}: {count} session(s) settled",
            if shutdown { "shutdown" } else { "drain" }
        );
    }
    batch_exit(failed)
}

/// `tdals stats --connect <addr>`: one `stats` round-trip against a
/// running daemon, reply pretty-printed to stdout. An older daemon that
/// predates the verb answers `unknown-verb`, which surfaces here as a
/// plain run error naming the verbs it does speak.
fn cmd_stats(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let spec = opts
        .get("connect")
        .ok_or_else(|| CliError::Usage("--connect is required".into()))?;
    let retries = parse_num(opts, "retry", 0usize)?;
    let mut conn =
        Connection::new(connect_retry(spec, retries).map_err(|e| CliError::run(e.to_string()))?);
    let reply = roundtrip(&mut conn, &Request::Stats).map_err(|e| CliError::run(e.to_string()))?;
    println!("{reply}");
    Ok(())
}

fn cmd_report(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let netlist = load_input(opts)?;
    let cfg = TimingConfig::default();
    let report = analyze(&netlist, &cfg);
    println!("module {}", netlist.name());
    println!("  gates : {}", netlist.logic_gate_count());
    println!("  PIs   : {}", netlist.input_count());
    println!("  POs   : {}", netlist.output_count());
    println!("  area  : {:.2} µm² (live)", netlist.area_live());
    println!("  depth : {} levels", report.max_depth());
    println!("  CPD   : {:.2} ps", report.critical_path_delay());
    let dead = netlist.live_mask().iter().filter(|&&l| !l).count();
    println!("  dangling gates: {dead}");
    let mut hist: Vec<(String, usize)> = netlist
        .func_histogram()
        .into_iter()
        .map(|(f, c)| (f.to_string(), c))
        .collect();
    hist.sort();
    println!(
        "  cell mix: {}",
        hist.iter()
            .map(|(f, c)| format!("{f}:{c}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let path = critical_path(&netlist, &report);
    println!("  critical path ({} gates):", path.len());
    for &gate in path.iter().rev().take(12) {
        println!(
            "    {:>10.2} ps  {:<10} {}",
            report.arrival(gate),
            netlist.gate(gate).cell().lib_name(),
            netlist.gate_name(gate)
        );
    }
    if path.len() > 12 {
        println!("    ... {} more", path.len() - 12);
    }
    Ok(())
}

fn cmd_bench(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let name = opts
        .get("name")
        .ok_or_else(|| CliError::Usage("--name is required".into()))?;
    let bench = benchmark_by_name(name)?;
    let netlist = bench.build();
    eprintln!(
        "{}: {} gates, {} PIs, {} POs — {}",
        bench.name(),
        netlist.logic_gate_count(),
        netlist.input_count(),
        netlist.output_count(),
        bench.description()
    );
    write_output(opts, &netlist)
}

fn cmd_lint(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let input = opts
        .get("input")
        .ok_or_else(|| CliError::Usage("--input is required".into()))?;
    let deny_warnings = match opts.get("deny").map(String::as_str) {
        None => false,
        Some("warnings") => true,
        Some(other) => {
            return Err(CliError::run(format!(
                "--deny: only `warnings` can be denied, got `{other}`"
            )))
        }
    };
    // A Verilog file goes through `lint_verilog`, so a file that does
    // not even parse still produces one located finding instead of a
    // bare parse error; generated benchmarks are linted in memory.
    let (subject, report) = if let Some(name) = input.strip_prefix("bench:") {
        let netlist = benchmark_by_name(name)?.build();
        (
            netlist.name().to_owned(),
            tdals::lint::lint_netlist(&netlist),
        )
    } else {
        let text = fs::read_to_string(input)
            .map_err(|e| CliError::run(format!("reading {input}: {e}")))?;
        (input.clone(), tdals::lint::lint_verilog(&text))
    };

    for finding in report.findings() {
        eprintln!("{subject}: {finding}");
    }
    let json = lint_json(input, &report);
    if let Some(path) = opts.get("out") {
        let text = format!("{json}\n");
        fs::write(path, &text).map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    if opts.contains_key("json") {
        println!("{json}");
    }
    eprintln!(
        "{subject}: {} error(s), {} warning(s)",
        report.error_count(),
        report.warning_count()
    );
    if !report.has_no_errors() {
        return Err(CliError::run(format!(
            "{subject}: lint failed with {} error(s)",
            report.error_count()
        )));
    }
    if deny_warnings && !report.is_clean() {
        return Err(CliError::run(format!(
            "{subject}: lint failed with {} warning(s) (--deny warnings)",
            report.warning_count()
        )));
    }
    Ok(())
}

/// Renders a lint report as the machine-readable findings document the
/// CI gate archives (same self-contained JSON codec as the benchmark
/// pipeline).
fn lint_json(input: &str, report: &tdals::lint::LintReport) -> Json {
    let opt_num = |v: Option<usize>| match v {
        Some(n) => Json::Num(n as f64),
        None => Json::Null,
    };
    let findings: Vec<Json> = report
        .findings()
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("rule".into(), Json::Str(f.rule.as_str().into())),
                ("severity".into(), Json::Str(f.severity.to_string())),
                ("message".into(), Json::Str(f.message.clone())),
                ("gate".into(), opt_num(f.gate.map(|g| g.index()))),
                ("output".into(), opt_num(f.output)),
                ("line".into(), opt_num(f.line)),
                ("column".into(), opt_num(f.column)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("input".into(), Json::Str(input.into())),
        ("errors".into(), Json::Num(report.error_count() as f64)),
        ("warnings".into(), Json::Num(report.warning_count() as f64)),
        ("findings".into(), Json::Arr(findings)),
    ])
}

fn cmd_list() -> Result<(), CliError> {
    println!("{:<12} {:<10} {:>7}  description", "name", "class", "#gate");
    for bench in ALL_BENCHMARKS {
        let n = bench.build();
        let class = match bench.class() {
            tdals::circuits::CircuitClass::RandomControl => "rand/ctrl",
            tdals::circuits::CircuitClass::Arithmetic => "arith",
        };
        println!(
            "{:<12} {:<10} {:>7}  {}",
            bench.name(),
            class,
            n.logic_gate_count(),
            bench.description()
        );
    }
    Ok(())
}
