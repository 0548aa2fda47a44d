//! Flow-level benchmark of the tdals workspace.
//!
//! ```sh
//! flowbench --workload <sqrt-dcgwo|method-table|serve-mix> --seed <n> \
//!           --seconds <s> --trace <0|1> [--tdals <path to the tdals binary>]
//! ```
//!
//! Runs one workload for about `--seconds` seconds, checks every output,
//! prints a table of the metrics on stderr and, as the last line of
//! stdout, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the run is traced and reports the per-layer ones.
//! The exit code is nonzero when any operation or check failed.

mod flows;
mod probe;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

use tdals_bench::json::Json;

use report::{Metrics, Tally};

/// End-to-end metrics (reported with tracing off), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("width_speedup", "x"),
    ("ratio_cpd_geo", "ratio"),
    ("area_ratio_geo", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (reported by the traced run), with units.
const PER_LAYER: [(&str, &str); 44] = [
    ("circuits.build_ms", "ms"),
    ("netlist.clone_us", "us"),
    ("netlist.parse_ms", "ms"),
    ("core.context_ms", "ms"),
    ("sim.full_us", "us"),
    ("sim.delta_previews", "count"),
    ("sim.delta_commits", "count"),
    ("sim.cone_gates_mean", "count"),
    ("sta.full_us", "us"),
    ("core.delta_eval_us", "us"),
    ("core.reproduce_us", "us"),
    ("core.propose_us", "us"),
    ("core.score_lac_us", "us"),
    ("core.evaluate_us", "us"),
    ("phase.setup_ms", "ms"),
    ("phase.optimize_s", "s"),
    ("phase.postopt_ms", "ms"),
    ("iter.p50_ms", "ms"),
    ("iter.count", "count"),
    ("core.evaluations", "count"),
    ("core.evals_per_s", "1/s"),
    ("core.lacs_accepted", "count"),
    ("core.accept_ratio", "ratio"),
    ("par.spans", "count"),
    ("par.busy_frac", "ratio"),
    ("par.lease_waits", "count"),
    ("method.dcgwo_s", "s"),
    ("method.gwo_s", "s"),
    ("method.hedals_s", "s"),
    ("method.greedy_s", "s"),
    ("method.vaacs_s", "s"),
    ("server.jobs_per_s", "1/s"),
    ("server.job_p50_s", "s"),
    ("server.job_p90_s", "s"),
    ("server.health_rtt_us", "us"),
    ("server.submit_rtt_us", "us"),
    ("server.result_frame_bytes", "bytes"),
    ("server.lease_waits", "count"),
    ("server.lease_wait_us_mean", "us"),
    ("server.grant_width_mean", "count"),
    ("server.frames_read", "count"),
    ("server.frames_written", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans_dropped", "count"),
];

const USAGE: &str = "usage: flowbench --workload <sqrt-dcgwo|method-table|serve-mix> \
--seed <n> --seconds <s> --trace <0|1> [--tdals <path>]";

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker width of the wide flows and client connections: the
    /// host's core count.
    pub width: usize,
    pub tdals: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<(String, Run), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tdals) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--tdals" => tdals = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let missing = |name: &str| format!("--{name} is required");
    Ok((
        workload.ok_or_else(|| missing("workload"))?,
        Run {
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.ok_or_else(|| missing("trace"))?,
            width: tdals::core::par::available_threads().max(1),
            tdals,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("flowbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let result = match workload.as_str() {
        "sqrt-dcgwo" => flows::sqrt_dcgwo(&run, &mut tally),
        "method-table" => flows::method_table(&run, &mut tally),
        "serve-mix" => serve::serve_mix(&run, &mut tally),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("flowbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    print_result(&workload, &run, &tally, &metrics, declared);
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The widest x86 vector extension the CPU reports, for the run header.
fn vector_unit() -> &'static str {
    let flags = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    if has("avx512f") {
        "avx512"
    } else if has("avx2") {
        "avx2"
    } else {
        "none reported"
    }
}

/// Prints the metric table on stderr and the result object as the last
/// line of stdout. Every declared metric must have been measured.
fn print_result(
    workload: &str,
    run: &Run,
    tally: &Tally,
    metrics: &Metrics,
    declared: &[(&str, &str)],
) {
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    eprintln!(
        "{workload} seed {} ({} s, width {}, trace {}): {} attempted, {} failed, failed_frac {failed_frac}",
        run.seed, run.seconds, run.width, run.trace as u8, tally.attempted, tally.failed
    );
    eprintln!(
        "host: nproc {}, vector unit {}, SIMD width {}",
        run.width,
        vector_unit(),
        tdals::sim::SimdWidth::auto()
    );
    let mut members = Vec::new();
    for &(name, unit) in declared {
        let value = *metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload {workload} did not measure {name}"));
        eprintln!("  {name:<28} {value:>16.6} {unit}");
        members.push((
            name.to_owned(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        ("attempted".into(), Json::Num(tally.attempted as f64)),
        ("failed".into(), Json::Num(tally.failed as f64)),
        ("metrics".into(), Json::Obj(members)),
    ]);
    println!("{}", result.to_compact());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above and `BENCHMARK.json` must agree, name for
    /// name and unit for unit.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, declared, "{key}");
        }
    }
}
