//! `serve-mix`: a closed loop of small jobs against a `tdals serve`
//! child process on a unix socket, driven over the newline-delimited
//! JSON wire protocol.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tdals::baselines::ALL_METHODS;
use tdals::circuits::Benchmark;
use tdals::core::api::FlowOutcome;
use tdals::core::par::split_seed;
use tdals::netlist::verilog;
use tdals::obs::trace;
use tdals::server::{
    connect, session_record_fields, Connection, FlowJob, Request, SessionError, Stream,
};
use tdals::sim::ErrorMetric;
use tdals_bench::json::Json;
use tdals_bench::timing::Stopwatch;

use crate::flows::{check_output, method_key, Circuit, Scale, Spec, FLOW_STREAM};
use crate::probe;
use crate::report::{
    median, minimum, peak_rss_mb, percentile, ratio, Counters, Metrics, Quality, Recorder, Tally,
    PROBE,
};
use crate::Run;

/// The job mix: small circuits of both classes, so each job takes tens
/// of milliseconds and per-job fixed costs carry weight.
const CIRCUITS: [Spec; 6] = [
    spec(Benchmark::Int2float, ErrorMetric::Nmed, 0.0244),
    spec(Benchmark::Adder16, ErrorMetric::Nmed, 0.0244),
    spec(Benchmark::Max16, ErrorMetric::Nmed, 0.0244),
    spec(Benchmark::C880, ErrorMetric::ErrorRate, 0.03),
    spec(Benchmark::C1908, ErrorMetric::ErrorRate, 0.03),
    spec(Benchmark::Cavlc, ErrorMetric::ErrorRate, 0.03),
];
const SCALE: Scale = Scale {
    population: 8,
    iterations: 4,
    vectors: 512,
};
/// Each method on each circuit once per round.
const JOBS_PER_ROUND: usize = ALL_METHODS.len() * CIRCUITS.len();
/// Round pairs whose records (one round of each) the quality metrics pool.
const PAIRS_POOLED: usize = 2;
/// Daemon start-ups before the first round; one more follows every
/// round, and `setup_s` is the fastest. A start-up takes about 2 ms, so
/// single ones swing with whatever else the host runs in that instant.
const SPAWN_REPS_FIRST: usize = 10;
/// Circuit set-ups of the traced run; the layer metrics take the fastest.
const SETUP_REPS: usize = 15;
/// Health pings of the traced run's round-trip probe.
const PINGS: usize = 200;
/// Category of the client-side spans around each verb.
const CLIENT: &str = "client";

const fn spec(bench: Benchmark, metric: ErrorMetric, bound: f64) -> Spec {
    Spec {
        bench,
        metric,
        bound,
    }
}

/// A `tdals serve` child; dropping it kills and reaps the process and
/// removes the socket, so no exit path leaves either behind.
struct DaemonProcess {
    child: Child,
    socket: PathBuf,
}

impl DaemonProcess {
    /// Spawns the daemon and waits for its first `health` reply; returns
    /// the process, the connection that got the reply and the time from
    /// spawn to reply.
    fn start(
        tdals: &Path,
        socket: PathBuf,
        width: usize,
    ) -> Result<(DaemonProcess, Connection<Stream>, f64), String> {
        let _ = std::fs::remove_file(&socket);
        let clock = Stopwatch::start();
        let child = Command::new(tdals)
            .arg("serve")
            .arg("--listen")
            .arg(&socket)
            .args(["--total-threads", &width.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", tdals.display()))?;
        let daemon = DaemonProcess { child, socket };
        let spec = daemon.spec();
        let stream = loop {
            match connect(&spec) {
                Ok(stream) => break stream,
                Err(e) if clock.elapsed_s() > 30.0 => {
                    return Err(format!("daemon never listened on {spec}: {e}"))
                }
                // Spin rather than sleep: a sleep's granularity would be
                // a large share of the start-up time.
                Err(_) => std::thread::yield_now(),
            }
        };
        let mut conn = Connection::new(stream);
        let reply = roundtrip(&mut conn, &Request::Health)?;
        if reply.get("ok").and_then(Json::as_str) != Some("health") {
            return Err(format!("health refused: {}", reply.to_compact()));
        }
        Ok((daemon, conn, clock.elapsed_s()))
    }

    fn spec(&self) -> String {
        self.socket.to_string_lossy().into_owned()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn shutdown(mut self, conn: &mut Connection<Stream>) -> Result<(), String> {
        roundtrip(conn, &Request::Shutdown)?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Ratios of the two rounds of each pair, in pair order.
fn pair_ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter().zip(den).map(|(n, d)| n / d).collect()
}

fn roundtrip(conn: &mut Connection<Stream>, request: &Request) -> Result<Json, String> {
    conn.send(&request.to_json())
        .map_err(|e| format!("sending: {e}"))?;
    match conn.receive() {
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err("daemon closed the connection".into()),
        Err(e) => Err(format!("reading: {e}")),
    }
}

/// One submitted job and what came back.
struct JobResult {
    latency_s: f64,
    submit_rtt_s: f64,
    result_bytes: usize,
    record: Json,
}

/// Submits `job` and blocks on its result, timing from submit to result.
fn run_job(conn: &mut Connection<Stream>, job: &FlowJob) -> Result<JobResult, String> {
    let clock = Stopwatch::start();
    let submit_span = trace::span(CLIENT, "client.submit");
    let reply = roundtrip(
        conn,
        &Request::Submit {
            job: job.clone(),
            tenant: None,
        },
    )?;
    drop(submit_span);
    let submit_rtt_s = clock.elapsed_s();
    let session = reply
        .get("session")
        .and_then(Json::as_uint)
        .ok_or_else(|| format!("submit refused: {}", reply.to_compact()))?;
    let result_span = trace::span(CLIENT, "client.result");
    let frame = roundtrip(
        conn,
        &Request::Result {
            session,
            wait: true,
        },
    )?;
    drop(result_span);
    let latency_s = clock.elapsed_s();
    let record = frame
        .get("record")
        .cloned()
        .ok_or_else(|| format!("result without record: {}", frame.to_compact()))?;
    Ok(JobResult {
        latency_s,
        submit_rtt_s,
        result_bytes: frame.to_compact().len() + 1,
        record,
    })
}

/// Runs `jobs` over `conns`, each connection submitting its next job
/// only after the previous result arrived. Returns results in job order.
fn run_round(conns: &mut [Connection<Stream>], jobs: &[FlowJob]) -> Vec<Result<JobResult, String>> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<JobResult, String>>>> =
        Mutex::new(jobs.iter().map(|_| None).collect());
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, results) = (&next, &results);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let result = run_job(conn, job);
                results
                    .lock()
                    .expect("no client thread panics holding the lock")[i] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("no client thread panics holding the lock")
        .into_iter()
        .map(|r| r.expect("every job index is claimed once"))
        .collect()
}

/// The jobs of round `round`: every method on every circuit, half of
/// them as inline Verilog and half by name (swapping between pairs of
/// rounds), seeds split off the run seed. Every round holds the same
/// kinds of job, so round times compare, and both rounds of a pair
/// (`round / 2`) run the same jobs.
fn mix(round: usize, seed: u64, texts: &[String]) -> Vec<FlowJob> {
    let pair = round / 2;
    (0..JOBS_PER_ROUND)
        .map(|k| {
            let (c, m) = (k / ALL_METHODS.len(), k % ALL_METHODS.len());
            let spec = CIRCUITS[c];
            let job = if (c + m + pair).is_multiple_of(2) {
                FlowJob::verilog(spec.bench.name(), texts[c].clone())
            } else {
                FlowJob::benchmark(spec.bench)
            };
            job.with_name(format!("r{round}-{k}"))
                .with_method(ALL_METHODS[m])
                .with_metric(spec.metric)
                .with_bound(spec.bound)
                .with_scale(SCALE.population, SCALE.iterations)
                .with_vectors(SCALE.vectors)
                .with_seed(split_seed(seed, (pair * JOBS_PER_ROUND + k) as u64))
        })
        .collect()
}

/// Record-level checks every job gets.
fn check_record(job: &FlowJob, record: &Json, tally: &mut Tally) {
    let num = |k: &str| record.get(k).and_then(Json::as_f64);
    let completed = record.get("status").and_then(Json::as_str) == Some("completed");
    tally.check(completed, || {
        format!("job {}: {}", job.name, record.to_compact())
    });
    tally.check(num("error").is_some_and(|e| e <= job.bound), || {
        format!(
            "job {}: error above bound: {}",
            job.name,
            record.to_compact()
        )
    });
    tally.check(num("ratio_cpd").is_some_and(|r| r <= 1.0), || {
        format!(
            "job {}: Ratio_cpd above 1: {}",
            job.name,
            record.to_compact()
        )
    });
}

/// Re-runs a job in this process and checks the daemon's record against
/// the direct run's, then gives the output the flow workloads' checks.
fn check_direct(
    run: &Run,
    job: &FlowJob,
    circuit: &Circuit,
    daemon_record: &Json,
    recorder: &mut Recorder,
    tally: &mut Tally,
) {
    let direct_run = || job.run_direct(run.width).map_err(SessionError::Flow);
    let result: Result<FlowOutcome, SessionError> = if run.trace {
        recorder.record_flow(direct_run)
    } else {
        direct_run()
    };
    let direct = Json::Obj(session_record_fields(job, &result));
    tally.check(&direct == daemon_record, || {
        format!(
            "job {}: daemon record {} != direct record {}",
            job.name,
            daemon_record.to_compact(),
            direct.to_compact()
        )
    });
    let Ok(out) = result else { return };
    check_output(circuit, &out, job.seed, tally);
    if run.trace {
        recorder.record_probes(|| {
            probe::population(&circuit.ctx, &out, circuit.spec.bound, job.seed, tally)
        });
    }
}

/// Builds the mix's circuits with their evaluation contexts and Verilog
/// texts; returns them with the build and context times in ms.
fn prepare() -> (Vec<Circuit>, Vec<String>, f64, f64) {
    let clock = Stopwatch::start();
    let built: Vec<_> = CIRCUITS.iter().map(|s| s.bench.build()).collect();
    let build_ms = clock.elapsed_s() * 1e3;
    let texts = built.iter().map(verilog::to_verilog).collect();
    let clock = Stopwatch::start();
    let circuits = CIRCUITS
        .iter()
        .zip(built)
        .map(|(&spec, accurate)| Circuit::new(spec, accurate, SCALE.vectors, 0))
        .collect();
    (circuits, texts, build_ms, clock.elapsed_s() * 1e3)
}

pub fn serve_mix(run: &Run, tally: &mut Tally) -> Result<Metrics, String> {
    let tdals = run
        .tdals
        .as_deref()
        .ok_or("serve-mix needs --tdals <path to the tdals binary>")?;
    let mut m = Metrics::new();
    let mut recorder = Recorder::default();
    let (mut builds, mut contexts) = (Vec::new(), Vec::new());
    let (mut circuits, mut texts) = (Vec::new(), Vec::new());
    for _ in 0..if run.trace { SETUP_REPS } else { 1 } {
        let (c, t, build_ms, context_ms) = prepare();
        (circuits, texts) = (c, t);
        builds.push(build_ms);
        contexts.push(context_ms);
    }
    if run.trace {
        m.insert("circuits.build_ms", minimum(&builds));
        m.insert("core.context_ms", minimum(&contexts));
        recorder.record_probes(|| {
            for text in &texts {
                let _span = trace::span(PROBE, "netlist.parse");
                let parsed = verilog::parse(text);
                tally.check(parsed.is_ok(), || {
                    format!("mix Verilog does not parse: {parsed:?}")
                });
            }
        });
    }

    let socket =
        |name: &str| PathBuf::from(format!("./.flowbench-{}-{name}.sock", std::process::id()));
    // A start-up of a daemon that serves nothing and shuts down at once.
    let start_up = |spawns: &mut Vec<f64>| -> Result<(), String> {
        let (process, mut conn, secs) = DaemonProcess::start(tdals, socket("setup"), run.width)?;
        spawns.push(secs);
        process.shutdown(&mut conn)
    };
    let mut spawns = Vec::new();
    for _ in 1..SPAWN_REPS_FIRST {
        start_up(&mut spawns)?;
    }
    let (process, first_conn, secs) = DaemonProcess::start(tdals, socket("serve"), run.width)?;
    spawns.push(secs);
    let mut conns = vec![first_conn];
    for _ in 1..run.width {
        conns.push(Connection::new(
            connect(&process.spec()).map_err(|e| e.to_string())?,
        ));
    }
    let stats =
        |conn: &mut Connection<Stream>| Counters::from_stats(&roundtrip(conn, &Request::Stats)?);
    let before = stats(&mut conns[0])?;

    let seeds = split_seed(run.seed, FLOW_STREAM);
    let (mut narrow_rounds, mut wide_rounds, mut untraced, mut traced) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut latencies, mut submit_rtts, mut result_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_method: Vec<Vec<f64>> = vec![Vec::new(); ALL_METHODS.len()];
    let mut quality = Quality::default();
    let mut samples: Vec<(FlowJob, usize, Json)> = Vec::new();
    let mut jobs_run = 0usize;
    let clock = Stopwatch::start();
    let mut round = 0;
    // Rounds come in pairs that run the same jobs, one round on one
    // connection and one on all (or one untraced and one traced), in
    // alternating order, so every pair compares like with like.
    while round < 2 * PAIRS_POOLED || round % 2 == 1 || clock.elapsed_s() < run.seconds {
        let jobs = mix(round, seeds, &texts);
        let second = round % 2 == 1;
        let swapped = second == (round / 2 % 2 == 0);
        let narrow = !run.trace && swapped;
        let trace_round = run.trace && swapped;
        let used = if narrow { 1 } else { run.width };
        let t = Stopwatch::start();
        let results = if trace_round {
            recorder.record_probes(|| run_round(&mut conns[..used], &jobs))
        } else {
            run_round(&mut conns[..used], &jobs)
        };
        let secs = t.elapsed_s();
        eprintln!("round {round}: {used} connection(s), {secs:.3} s");
        match (run.trace, narrow, trace_round) {
            (false, true, _) => narrow_rounds.push(secs),
            (false, false, _) => wide_rounds.push(secs),
            (true, _, true) => traced.push(secs),
            (true, _, false) => untraced.push(secs),
        }
        for (k, (job, result)) in jobs.iter().zip(results).enumerate() {
            jobs_run += 1;
            tally.check(result.is_ok(), || {
                format!("job {}: {:?}", job.name, result.as_ref().err())
            });
            let Ok(done) = result else { continue };
            check_record(job, &done.record, tally);
            let c = k / ALL_METHODS.len();
            if round % 2 == 0 && round < 2 * PAIRS_POOLED {
                let num = |key: &str| {
                    done.record
                        .get(key)
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN)
                };
                quality.add(num("ratio_cpd"), num("area"), circuits[c].ctx.area_ori());
            }
            if !narrow {
                latencies.push(done.latency_s);
            }
            submit_rtts.push(done.submit_rtt_s);
            result_bytes.push(done.result_bytes as f64);
            per_method[k % ALL_METHODS.len()].push(done.latency_s);
            // Sampled for the direct-run check: both job sources of the
            // first round, and one job of every fifth round.
            if (round == 0 && k < 2) || (round % 5 == 4 && k == round * 7 % JOBS_PER_ROUND) {
                samples.push((job.clone(), c, done.record));
            }
        }
        round += 1;
        start_up(&mut spawns)?;
    }
    let timed_s = clock.elapsed_s();
    let delta = stats(&mut conns[0])?.since(&before);

    if run.trace {
        let health = Request::Health;
        let mut rtts = Vec::new();
        for _ in 0..PINGS {
            let t = Stopwatch::start();
            let reply = roundtrip(&mut conns[0], &health)?;
            rtts.push(t.elapsed_s() * 1e6);
            tally.check(reply.get("ok").is_some(), || {
                format!("health: {}", reply.to_compact())
            });
        }
        m.insert("server.health_rtt_us", median(&rtts));
        let busy_s: f64 = untraced.iter().chain(&traced).sum();
        m.insert("server.jobs_per_s", latencies.len() as f64 / busy_s);
        m.insert("server.job_p50_s", median(&latencies));
        m.insert("server.job_p90_s", percentile(&latencies, 0.9));
        m.insert("server.submit_rtt_us", median(&submit_rtts) * 1e6);
        m.insert(
            "server.result_frame_bytes",
            ratio(result_bytes.iter().sum(), result_bytes.len() as f64),
        );
        delta.write_server(jobs_run as f64, &mut m);
        delta.write_flow(jobs_run as f64, timed_s, &mut m);
        m.insert(
            "obs.trace_overhead_pct",
            (median(&pair_ratios(&traced, &untraced)) - 1.0) * 100.0,
        );
        for (method, times) in ALL_METHODS.iter().zip(&per_method) {
            m.insert(
                method_key(*method),
                ratio(times.iter().sum(), times.len() as f64),
            );
        }
    } else {
        m.insert("setup_s", minimum(&spawns));
        m.insert("wall_s", median(&wide_rounds));
        m.insert(
            "width_speedup",
            median(&pair_ratios(&narrow_rounds, &wide_rounds)),
        );
        quality.write(&mut m);
        m.insert("peak_rss_mb", peak_rss_mb(Some(process.child.id()))?);
    }
    drop(conns.split_off(1));
    process.shutdown(&mut conns[0])?;

    for (job, c, record) in &samples {
        check_direct(run, job, &circuits[*c], record, &mut recorder, tally);
    }
    if run.trace {
        recorder.write_phases(&mut m);
        recorder.write_probes(&mut m);
        recorder.print_summary();
    }
    Ok(m)
}
