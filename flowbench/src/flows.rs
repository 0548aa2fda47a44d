//! The in-process flow workloads, `sqrt-dcgwo` and `method-table`:
//! flows run through `Flow` as a user would, in pairs at width 1 and at
//! the host's width, with every output checked outside the timed part.

use tdals::baselines::{Method, MethodConfig, ALL_METHODS};
use tdals::circuits::Benchmark;
use tdals::core::api::{Flow, FlowOutcome};
use tdals::core::par::split_seed;
use tdals::core::{EvalContext, OptimizerConfig};
use tdals::lint::lint_netlist;
use tdals::netlist::Netlist;
use tdals::sim::{ErrorMetric, Patterns};
use tdals::sta::TimingConfig;
use tdals_bench::timing::Stopwatch;

use crate::probe;
use crate::report::{median, minimum, peak_rss_mb, Metrics, Quality, Recorder, Tally};
use crate::Run;

/// Seed streams split off the run seed.
const PATTERN_STREAM: u64 = 1;
pub const FLOW_STREAM: u64 = 2;
/// `Flow`'s default depth weight, which the check contexts must match.
const DEPTH_WEIGHT: f64 = 0.8;

/// One circuit of a workload with its error metric and bound.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub bench: Benchmark,
    pub metric: ErrorMetric,
    pub bound: f64,
}

/// Optimizer budget shared by every flow of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub population: usize,
    pub iterations: usize,
    pub vectors: usize,
}

/// A built circuit with the evaluation context set-up builds for it;
/// probes run on that context.
pub struct Circuit {
    pub spec: Spec,
    pub accurate: Netlist,
    pub vectors: usize,
    pub ctx: EvalContext,
}

impl Circuit {
    pub fn new(spec: Spec, accurate: Netlist, vectors: usize, pattern_seed: u64) -> Circuit {
        let ctx = context(&accurate, spec.metric, vectors, pattern_seed);
        Circuit {
            spec,
            accurate,
            vectors,
            ctx,
        }
    }

    /// A freshly built context on the stimulus a flow seeded with `seed`
    /// draws, which the output checks re-evaluate on.
    pub fn context(&self, seed: u64) -> EvalContext {
        context(&self.accurate, self.spec.metric, self.vectors, seed)
    }
}

/// The evaluation context `Flow` builds for these knobs.
fn context(
    accurate: &Netlist,
    metric: ErrorMetric,
    vectors: usize,
    pattern_seed: u64,
) -> EvalContext {
    let patterns = Patterns::random(accurate.input_count(), vectors, pattern_seed);
    EvalContext::new(
        accurate,
        patterns,
        metric,
        TimingConfig::default(),
        DEPTH_WEIGHT,
    )
}

/// Set-up timing. Every circuit and its evaluation context are built
/// again and again through the run, a few times before each flow, and
/// the fastest set-up counts: a set-up takes milliseconds, so single
/// ones swing with whatever else the host runs in that instant, while
/// the fastest of many spread over the run holds steady.
pub struct Setup {
    specs: Vec<Spec>,
    vectors: usize,
    seed: u64,
    total_s: Vec<f64>,
    build_ms: Vec<f64>,
    context_ms: Vec<f64>,
}

impl Setup {
    pub fn new(specs: &[Spec], vectors: usize, seed: u64) -> Setup {
        Setup {
            specs: specs.to_vec(),
            vectors,
            seed,
            total_s: Vec::new(),
            build_ms: Vec::new(),
            context_ms: Vec::new(),
        }
    }

    /// Builds every circuit and its evaluation context once, timed.
    pub fn once(&mut self) -> Vec<Circuit> {
        let (mut build_s, mut context_s) = (0.0, 0.0);
        let clock = Stopwatch::start();
        let circuits = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let t = Stopwatch::start();
                let accurate = spec.bench.build();
                build_s += t.elapsed_s();
                let t = Stopwatch::start();
                let pattern_seed = split_seed(split_seed(self.seed, PATTERN_STREAM), i as u64);
                let circuit = Circuit::new(spec, accurate, self.vectors, pattern_seed);
                context_s += t.elapsed_s();
                circuit
            })
            .collect();
        self.total_s.push(clock.elapsed_s());
        self.build_ms.push(build_s * 1e3);
        self.context_ms.push(context_s * 1e3);
        circuits
    }

    /// Sets up `reps` more times, discarding what it builds.
    pub fn repeat(&mut self, reps: usize) {
        for _ in 0..reps {
            drop(self.once());
        }
    }

    fn write(&self, run: &Run, m: &mut Metrics) {
        if run.trace {
            m.insert("circuits.build_ms", minimum(&self.build_ms));
            m.insert("core.context_ms", minimum(&self.context_ms));
        } else {
            m.insert("setup_s", minimum(&self.total_s));
        }
    }
}

/// Runs one flow on `circuit` as `tdals flow` would and times it. Like
/// `tdals flow`, the seed drives both the stimulus and the optimizer, so
/// every flow of a run draws its own stimulus.
pub fn run_flow(
    circuit: &Circuit,
    method: Method,
    scale: Scale,
    seed: u64,
    threads: usize,
    tally: &mut Tally,
) -> Option<(FlowOutcome, f64)> {
    let spec = circuit.spec;
    let cfg = MethodConfig::default()
        .with_population(scale.population)
        .with_iterations(scale.iterations)
        .with_level_we(OptimizerConfig::paper_level_we(spec.metric))
        .with_seed(seed);
    let clock = Stopwatch::start();
    let result = Flow::for_netlist(&circuit.accurate)
        .metric(spec.metric)
        .error_bound(spec.bound)
        .vectors(scale.vectors)
        .pattern_seed(seed)
        .threads(threads)
        .optimizer(method.optimizer(&cfg))
        .run();
    let secs = clock.elapsed_s();
    tally.check(result.is_ok(), || {
        format!(
            "{} on {}: {:?}",
            method.cli_name(),
            spec.bench.name(),
            result.as_ref().err()
        )
    });
    result.ok().map(|out| (out, secs))
}

/// The output checks every flow gets: the bound holds, the flow is not
/// slower than its input, a fresh context reproduces the reported error
/// and `CPD_fac` bit for bit, and the netlist lints clean.
pub fn check_output(circuit: &Circuit, out: &FlowOutcome, seed: u64, tally: &mut Tally) {
    let what = || format!("{} on {}", out.method, circuit.spec.bench.name());
    tally.check(out.error <= circuit.spec.bound, || {
        format!(
            "{}: error {} above bound {}",
            what(),
            out.error,
            circuit.spec.bound
        )
    });
    tally.check(out.ratio_cpd <= 1.0, || {
        format!("{}: Ratio_cpd {}", what(), out.ratio_cpd)
    });
    let fresh = circuit.context(seed);
    let again = fresh.evaluate(out.netlist.clone());
    tally.check(again.error.to_bits() == out.error.to_bits(), || {
        format!(
            "{}: re-evaluated error {} != reported {}",
            what(),
            again.error,
            out.error
        )
    });
    let cpd = fresh.analyze(&out.netlist).critical_path_delay();
    tally.check(cpd.to_bits() == out.cpd_fac.to_bits(), || {
        format!(
            "{}: re-analyzed CPD {} != reported {}",
            what(),
            cpd,
            out.cpd_fac
        )
    });
    let lint = lint_netlist(&out.netlist);
    tally.check(lint.has_no_errors(), || {
        format!("{}: lint errors:\n{lint}", what())
    });
}

/// Whether two outcomes are identical in everything but wall-clock time.
fn same_outcome(a: &FlowOutcome, b: &FlowOutcome) -> bool {
    let numbers = |o: &FlowOutcome| {
        [
            o.cpd_ori,
            o.cpd_fac,
            o.ratio_cpd,
            o.error,
            o.area,
            o.area_con,
        ]
        .map(f64::to_bits)
    };
    a.netlist == b.netlist
        && numbers(a) == numbers(b)
        && a.optimize.history == b.optimize.history
        && a.optimize.evaluations == b.optimize.evaluations
        && a.optimize.stop == b.optimize.stop
        && a.post_opt == b.post_opt
}

/// Runs one flow at width 1 and at `run.width` (alternating which goes
/// first), checks that both outcomes are identical and that the output
/// passes [`check_output`], and returns it with both times.
fn run_pair(
    run: &Run,
    circuit: &Circuit,
    unit: Unit,
    scale: Scale,
    order: usize,
    tally: &mut Tally,
) -> Option<(FlowOutcome, f64, f64)> {
    let wide_first = order % 2 == 1;
    let [first, second] = if wide_first {
        [run.width, 1]
    } else {
        [1, run.width]
    };
    let a = run_flow(circuit, unit.method, scale, unit.seed, first, tally)?;
    let b = run_flow(circuit, unit.method, scale, unit.seed, second, tally)?;
    let (wide, narrow) = if wide_first { (a, b) } else { (b, a) };
    let what = || {
        format!(
            "{} on {} seed {}",
            unit.method.cli_name(),
            circuit.spec.bench.name(),
            unit.seed
        )
    };
    eprintln!(
        "{}: {:.3} s at width 1, {:.3} s at width {}",
        what(),
        narrow.1,
        wide.1,
        run.width
    );
    tally.check(same_outcome(&narrow.0, &wide.0), || {
        format!(
            "{}: width 1 and width {} outcomes differ",
            what(),
            run.width
        )
    });
    check_output(circuit, &wide.0, unit.seed, tally);
    Some((wide.0, narrow.1, wide.1))
}

/// The per-method metric name.
pub fn method_key(method: Method) -> &'static str {
    match method {
        Method::Dcgwo => "method.dcgwo_s",
        Method::SingleChaseGwo => "method.gwo_s",
        Method::Hedals => "method.hedals_s",
        Method::VecbeeSasimi => "method.greedy_s",
        Method::Vaacs => "method.vaacs_s",
    }
}

/// One flow of a workload: a circuit of its set-up, a method and the
/// flow's seed.
#[derive(Debug, Clone, Copy)]
struct Unit {
    circuit: usize,
    method: Method,
    seed: u64,
}

/// What a flow workload runs: its circuits, the optimizer budget, the
/// reference units and the units the run seed draws.
struct Workload<'a> {
    circuits: &'a [Circuit],
    scale: Scale,
    /// Units with fixed seeds, the same in every run: a flow's time
    /// depends on its seed (post-optimization sizing takes 0.1 s on some
    /// outputs and several seconds on others), so the timed metrics
    /// average a fixed set of flows, whose mix of fast and slow flows
    /// cannot change from run to run.
    reference: Vec<Unit>,
    /// How many passes `reference` holds: `wall_s` is the time of one.
    passes: usize,
    /// The units of round `i` drawn from the run seed. The untraced run
    /// runs round 0; the traced run runs rounds until time is up.
    seeded: &'a dyn Fn(usize) -> Vec<Unit>,
}

impl Workload<'_> {
    fn flow(&self, unit: Unit, threads: usize, tally: &mut Tally) -> Option<(FlowOutcome, f64)> {
        let circuit = &self.circuits[unit.circuit];
        run_flow(circuit, unit.method, self.scale, unit.seed, threads, tally)
    }
}

/// Set-ups taken back to back before the first flow, while the heap is
/// still small, and then before each flow.
const SETUP_REPS_FIRST: usize = 50;
const SETUP_REPS_PER_UNIT: usize = 5;

/// The untraced run of a flow workload (`--trace 0`). Every reference
/// unit runs at width 1 and at width `nproc`, then the run seed's units
/// run at width `nproc`, then reference units run again, in turn, as
/// long as each fits in what is left of `run.seconds`. Every output is
/// checked; the two widths must agree.
///
/// - `wall_s`: the sum over reference units of their median width-`nproc`
///   time, divided by the passes: the time of one reference pass.
/// - `width_speedup`: the same sum at width 1 over the sum at `nproc`.
/// - quality: every output of the first round, reference and seeded.
fn untraced(run: &Run, work: &Workload, setup: &mut Setup, tally: &mut Tally, m: &mut Metrics) {
    let clock = Stopwatch::start();
    let n = work.reference.len();
    let (mut wide, mut narrow) = (vec![vec![]; n], vec![vec![]; n]);
    // How long each reference pair took last time.
    let mut last = vec![0.0; n];
    let mut quality = Quality::default();
    // `None` stands for the seeded units.
    let schedule = (0..n)
        .map(Some)
        .chain([None])
        .chain((0..n).cycle().map(Some));
    for (step, item) in schedule.enumerate() {
        setup.repeat(SETUP_REPS_PER_UNIT);
        let first_round = step <= n;
        let Some(k) = item else {
            for unit in (work.seeded)(0) {
                let circuit = &work.circuits[unit.circuit];
                let Some((out, secs)) = work.flow(unit, run.width, tally) else {
                    continue;
                };
                eprintln!(
                    "{} on {} seed {}: {secs:.3} s at width {}",
                    unit.method.cli_name(),
                    circuit.spec.bench.name(),
                    unit.seed,
                    run.width
                );
                check_output(circuit, &out, unit.seed, tally);
                quality.add(out.ratio_cpd, out.area, circuit.ctx.area_ori());
            }
            continue;
        };
        if !first_round && clock.elapsed_s() + last[k] > run.seconds {
            break;
        }
        let unit = work.reference[k];
        let circuit = &work.circuits[unit.circuit];
        let Some((out, narrow_s, wide_s)) = run_pair(run, circuit, unit, work.scale, step, tally)
        else {
            continue;
        };
        narrow[k].push(narrow_s);
        wide[k].push(wide_s);
        last[k] = narrow_s + wide_s;
        if first_round {
            quality.add(out.ratio_cpd, out.area, circuit.ctx.area_ori());
        }
    }
    let typical = |times: &[Vec<f64>]| times.iter().map(|t| median(t)).sum::<f64>();
    let passes = work.passes as f64;
    eprintln!(
        "reference pass: {:.3} s at width {}, {:.3} s at width 1",
        typical(&wide) / passes,
        run.width,
        typical(&narrow) / passes
    );
    m.insert("wall_s", typical(&wide) / passes);
    m.insert("width_speedup", typical(&narrow) / typical(&wide));
    quality.write(m);
}

/// The traced run of a flow workload (`--trace 1`): each of the run
/// seed's units runs untraced and traced on the same seed (alternating
/// which goes first), and the traced flow's population is probed.
/// Rounds repeat until `run.seconds` have passed and at least
/// `min_units` units ran. Returns the untraced times per unit kind
/// (circuit × method, in `ALL_METHODS` order).
fn traced(
    run: &Run,
    work: &Workload,
    setup: &mut Setup,
    min_units: usize,
    recorder: &mut Recorder,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Vec<Vec<f64>> {
    let clock = Stopwatch::start();
    let mut untraced = vec![vec![]; work.circuits.len() * ALL_METHODS.len()];
    let mut overhead = Vec::new();
    let (mut round, mut units) = (0, 0);
    while units < min_units || clock.elapsed_s() < run.seconds {
        for unit in (work.seeded)(round) {
            units += 1;
            setup.repeat(SETUP_REPS_PER_UNIT);
            let circuit = &work.circuits[unit.circuit];
            let plain = |tally: &mut Tally| work.flow(unit, run.width, tally);
            let (plain, traced) = if units % 2 == 0 {
                (plain(tally), traced_flow(run, work, unit, recorder, tally))
            } else {
                let traced = traced_flow(run, work, unit, recorder, tally);
                (plain(tally), traced)
            };
            let (Some((_, plain_s)), Some((out, traced_s))) = (plain, traced) else {
                continue;
            };
            check_output(circuit, &out, unit.seed, tally);
            overhead.push(traced_s / plain_s);
            let kind = unit.circuit * ALL_METHODS.len()
                + ALL_METHODS
                    .iter()
                    .position(|&m| m == unit.method)
                    .expect("every method is in ALL_METHODS");
            untraced[kind].push(plain_s);
        }
        round += 1;
    }
    m.insert("obs.trace_overhead_pct", (median(&overhead) - 1.0) * 100.0);
    untraced
}

/// One traced flow, then the population probes on its output.
fn traced_flow(
    run: &Run,
    work: &Workload,
    unit: Unit,
    recorder: &mut Recorder,
    tally: &mut Tally,
) -> Option<(FlowOutcome, f64)> {
    let circuit = &work.circuits[unit.circuit];
    let (out, secs) = recorder.record_flow(|| work.flow(unit, run.width, tally))?;
    recorder.record_probes(|| {
        probe::population(&circuit.ctx, &out, circuit.spec.bound, unit.seed, tally)
    });
    Some((out, secs))
}

/// Flow workloads' untimed tail: set-up and peak memory, and for the
/// traced run the span-derived metrics, the serving-layer probe and the
/// summary.
fn finish(
    run: &Run,
    setup: &Setup,
    recorder: &Recorder,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    setup.write(run, m);
    if run.trace {
        recorder.write_phases(m);
        recorder.write_probes(m);
        recorder
            .counters
            .write_flow(recorder.flows, recorder.optimize_s(), m);
        probe::server_in_process(run.width, tally, m)?;
        recorder.print_summary();
    } else {
        m.insert("peak_rss_mb", peak_rss_mb(None)?);
    }
    Ok(())
}

const C6288: Spec = Spec {
    bench: Benchmark::C6288,
    metric: ErrorMetric::Nmed,
    bound: 0.0244,
};
const C3540: Spec = Spec {
    bench: Benchmark::C3540,
    metric: ErrorMetric::ErrorRate,
    bound: 0.03,
};
const METHOD_TABLE_SCALE: Scale = Scale {
    population: 20,
    iterations: 10,
    vectors: 1024,
};

/// `sqrt-dcgwo`: DCGWO on Sqrt at the ROADMAP baseline shape.
pub fn sqrt_dcgwo(run: &Run, tally: &mut Tally) -> Result<Metrics, String> {
    /// Reference flows: the first three seeds. Seed 2's output takes
    /// the slow post-optimization path, about the share seen over many
    /// seeds.
    const REFERENCE_SEEDS: [u64; 3] = [1, 2, 3];
    let spec = Spec {
        bench: Benchmark::Sqrt,
        metric: ErrorMetric::Nmed,
        bound: 0.01,
    };
    let scale = Scale {
        population: 20,
        iterations: 10,
        vectors: 512,
    };
    let mut setup = Setup::new(&[spec], scale.vectors, run.seed);
    let circuits = setup.once();
    setup.repeat(SETUP_REPS_FIRST - 1);
    let seeds = split_seed(run.seed, FLOW_STREAM);
    let dcgwo = |seed| Unit {
        circuit: 0,
        method: Method::Dcgwo,
        seed,
    };
    let seeded = |i: usize| vec![dcgwo(split_seed(seeds, i as u64))];
    let work = Workload {
        circuits: &circuits,
        scale,
        reference: REFERENCE_SEEDS.map(dcgwo).to_vec(),
        passes: REFERENCE_SEEDS.len(),
        seeded: &seeded,
    };
    let mut m = Metrics::new();
    let mut recorder = Recorder::default();
    if run.trace {
        traced(run, &work, &mut setup, 2, &mut recorder, tally, &mut m);
        // HEDALS scores every critical-path gate per round, which takes
        // minutes on Sqrt, so the baselines layer is measured here by
        // one flow per method on c3540 at the method-table scale.
        let reference = Setup::new(&[C3540], METHOD_TABLE_SCALE.vectors, run.seed).once();
        let circuit = &reference[0];
        for method in ALL_METHODS {
            if let Some((out, secs)) =
                run_flow(circuit, method, METHOD_TABLE_SCALE, seeds, run.width, tally)
            {
                check_output(circuit, &out, seeds, tally);
                m.insert(method_key(method), secs);
            }
        }
    } else {
        untraced(run, &work, &mut setup, tally, &mut m);
    }
    finish(run, &setup, &recorder, tally, &mut m)?;
    Ok(m)
}

/// `method-table`: the five methods on c6288 and c3540, TABLE II's shape.
pub fn method_table(run: &Run, tally: &mut Tally) -> Result<Metrics, String> {
    /// Reference passes: the first two seeds, each the whole table.
    const REFERENCE_SEEDS: [u64; 2] = [1, 2];
    let specs = [C6288, C3540];
    let mut setup = Setup::new(&specs, METHOD_TABLE_SCALE.vectors, run.seed);
    let circuits = setup.once();
    setup.repeat(SETUP_REPS_FIRST - 1);
    let seeds = split_seed(run.seed, FLOW_STREAM);
    // A pass runs every method on every circuit, all on one seed.
    let pass = |seed: u64| -> Vec<Unit> {
        (0..specs.len())
            .flat_map(|circuit| {
                ALL_METHODS.map(|method| Unit {
                    circuit,
                    method,
                    seed,
                })
            })
            .collect()
    };
    let seeded = |i: usize| pass(split_seed(seeds, i as u64));
    let work = Workload {
        circuits: &circuits,
        scale: METHOD_TABLE_SCALE,
        reference: REFERENCE_SEEDS.into_iter().flat_map(pass).collect(),
        passes: REFERENCE_SEEDS.len(),
        seeded: &seeded,
    };
    let mut m = Metrics::new();
    let mut recorder = Recorder::default();
    if run.trace {
        let untraced = traced(run, &work, &mut setup, 20, &mut recorder, tally, &mut m);
        for (k, &method) in ALL_METHODS.iter().enumerate() {
            let per_circuit = untraced.iter().skip(k).step_by(ALL_METHODS.len());
            m.insert(method_key(method), per_circuit.map(|t| median(t)).sum());
        }
    } else {
        untraced(run, &work, &mut setup, tally, &mut m);
    }
    finish(run, &setup, &recorder, tally, &mut m)?;
    Ok(m)
}
