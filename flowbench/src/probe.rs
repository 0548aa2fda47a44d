//! Layer probes: after a flow, replay its final population through
//! each layer's public entry points, one `probe` span per call, so the
//! per-layer times come from the workload's own circuits.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdals::circuits::Benchmark;
use tdals::core::api::FlowOutcome;
use tdals::core::{
    post_optimize, propose_lac_with, reproduce, EvalContext, LevelWeights, OptimizerConfig,
    PostOptConfig, SearchConfig,
};
use tdals::netlist::verilog;
use tdals::obs::clock;
use tdals::obs::trace;
use tdals::server::{Daemon, DaemonConfig, FlowJob, Request};
use tdals::sim::ErrorMetric;
use tdals_bench::json::Json;

use crate::report::{median, percentile, Counters, Metrics, Tally, PROBE};

/// Members of the final population replayed per flow: enough calls for
/// a stable mean, few enough that probing stays well below flow time.
const MEMBERS: usize = 8;
/// Jobs the in-process serving probe runs.
const JOBS: u64 = 20;

fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = trace::span(PROBE, name);
    black_box(f())
}

/// Replays `out`'s final population through clone, full simulation,
/// full STA, the incremental scoring base, reproduction (with the
/// weights the flow's optimizer derives), proposal, LAC scoring, full
/// evaluation, post-optimization and a Verilog round trip.
pub fn population(ctx: &EvalContext, out: &FlowOutcome, bound: f64, seed: u64, tally: &mut Tally) {
    let members = &out.optimize.population[..out.optimize.population.len().min(MEMBERS)];
    let weights =
        LevelWeights::paper_defaults(ctx.cpd_ori(), OptimizerConfig::paper_level_we(ctx.metric()))
            .with_error_floor(0.1 * bound);
    let mut rng = StdRng::seed_from_u64(seed);
    for (i, member) in members.iter().enumerate() {
        let netlist = timed("netlist.clone", || member.netlist.clone());
        timed("sim.full", || ctx.simulate(&netlist));
        timed("sta.full", || ctx.analyze(&netlist));
        let evaluated = netlist.clone();
        timed("core.evaluate", || ctx.evaluate(evaluated));
        let base = timed("core.delta_eval", || ctx.delta_eval(netlist));
        let partner = &members[(i + 1) % members.len()];
        timed("core.reproduce", || reproduce(member, partner, &weights));
        let lac = timed("core.propose", || {
            let report = base.report();
            propose_lac_with(
                base.netlist(),
                &report,
                base.sim(),
                &SearchConfig::default(),
                &mut rng,
            )
        });
        if let Some(lac) = lac {
            timed("core.score_lac", || ctx.score_lac(&base, lac));
        }
    }
    let mut best = out.optimize.best.netlist.clone();
    timed("core.post_optimize", || {
        post_optimize(&mut best, ctx.timing(), &PostOptConfig::new(ctx.area_ori()))
    });
    let text = verilog::to_verilog(&out.netlist);
    let parsed = timed("netlist.parse", || verilog::parse(&text));
    tally.check(parsed.is_ok(), || {
        format!("flow output does not parse back: {parsed:?}")
    });
}

/// Serving-layer probe for the flow workloads, which start no daemon:
/// the transport-free `Daemon::handle` answers `health` pings and runs
/// small jobs, so the server metrics exist on every workload.
/// Frame counters stay 0 here; they count socket traffic only.
/// Jobs run one at a time, so lease waits stay 0 too.
pub fn server_in_process(width: usize, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let daemon = Daemon::new(DaemonConfig::new(width)).map_err(|e| e.to_string())?;
    let before = Counters::local();
    let health = Request::Health.to_json();
    let mut rtts = Vec::new();
    for _ in 0..200 {
        let t = clock::now();
        let reply = daemon.handle(&health);
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
        tally.check(reply.get("ok").is_some(), || {
            format!("health: {}", reply.to_compact())
        });
    }
    let (mut latencies, mut submit_us, mut result_bytes) = (Vec::new(), Vec::new(), 0);
    for seed in 0..JOBS {
        let job = FlowJob::benchmark(Benchmark::Int2float)
            .with_metric(ErrorMetric::Nmed)
            .with_bound(0.0244)
            .with_scale(8, 4)
            .with_vectors(512)
            .with_seed(seed);
        let submit = Request::Submit { job, tenant: None }.to_json();
        let t = clock::now();
        let reply = daemon.handle(&submit);
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        let session = reply
            .get("session")
            .and_then(Json::as_uint)
            .ok_or_else(|| format!("submit refused: {}", reply.to_compact()))?;
        let result = daemon.handle(
            &Request::Result {
                session,
                wait: true,
            }
            .to_json(),
        );
        latencies.push(t.elapsed().as_secs_f64());
        let completed = result.get("status").and_then(Json::as_str) == Some("completed");
        tally.check(completed, || {
            format!("in-process job: {}", result.to_compact())
        });
        result_bytes += result.to_compact().len() + 1;
    }
    m.insert(
        "server.jobs_per_s",
        JOBS as f64 / latencies.iter().sum::<f64>(),
    );
    m.insert("server.job_p50_s", median(&latencies));
    m.insert("server.job_p90_s", percentile(&latencies, 0.9));
    m.insert("server.submit_rtt_us", median(&submit_us));
    m.insert(
        "server.result_frame_bytes",
        result_bytes as f64 / JOBS as f64,
    );
    m.insert("server.health_rtt_us", median(&rtts));
    Counters::local()
        .since(&before)
        .write_server(JOBS as f64, m);
    Ok(())
}
