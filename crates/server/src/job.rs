//! Job descriptions and their serializable records.
//!
//! A [`FlowJob`] is everything one tenant asks of the service: a
//! circuit (named benchmark or structural Verilog), a method, an error
//! bound, evaluation knobs, a scheduling priority, and a resource
//! budget. Jobs round-trip through the same hand-rolled JSON value type
//! the benchmark pipeline uses ([`tdals_bench::json::Json`] — the build
//! environment has no registry access, so no serde), which is what the
//! `tdals serve-batch` manifest format and the deterministic results
//! file are made of.
//!
//! Determinism contract: [`FlowJob::run_direct`] defines the reference
//! semantics of a job — the scheduler runs the *same* code path, so a
//! session's [`FlowOutcome`] is bit-identical to its solo run whatever
//! the co-tenant mix or lease width (see `tests/server.rs`).

use std::time::Duration;

use tdals_baselines::{Method, MethodConfig};
use tdals_bench::json::Json;
use tdals_circuits::{Benchmark, ALL_BENCHMARKS};
use tdals_core::api::{Budget, Flow, FlowError, FlowOutcome, Observer};
use tdals_core::OptimizerConfig;
use tdals_sim::ErrorMetric;

use crate::scheduler::{ServerError, SessionError};

/// The circuit a job runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSource {
    /// One of the paper's regenerated benchmarks.
    Benchmark(Benchmark),
    /// Structural Verilog text (parsed when the job runs).
    Verilog(String),
}

/// Resource limits carried by a job; mirrors [`Budget`] minus the
/// cancellation flag, which belongs to the session, not the job
/// description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobBudget {
    /// Iteration cap, if any.
    pub max_iterations: Option<usize>,
    /// Candidate-evaluation cap, if any.
    pub max_evaluations: Option<u64>,
    /// Wall-clock deadline, if any. The manifest format carries whole
    /// milliseconds (`deadline_ms`), so a sub-millisecond remainder set
    /// programmatically is rounded down by [`FlowJob::to_json`].
    pub deadline: Option<Duration>,
}

impl JobBudget {
    /// Builds a fresh [`Budget`] (with its own cancellation flag) from
    /// these limits.
    pub fn to_budget(self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(n) = self.max_iterations {
            budget = budget.with_max_iterations(n);
        }
        if let Some(n) = self.max_evaluations {
            budget = budget.with_max_evaluations(n);
        }
        if let Some(d) = self.deadline {
            budget = budget.with_deadline(d);
        }
        budget
    }
}

/// Largest population a job may ask for. Every member holds its own
/// netlist copy and, while it is scored, its own simulation and timing
/// state, so the limit bounds what one session can make a process
/// allocate. It leaves ~30× headroom over the paper's population of 30.
pub const MAX_POPULATION: usize = 1024;

/// Largest Monte-Carlo vector count a job may ask for. Stimulus and
/// simulated words grow linearly with it (one bit per vector per input
/// and per gate); the limit is ~10× the paper's 1e5 vectors.
pub const MAX_VECTORS: usize = 1 << 20;

/// One tenant's complete request: circuit + method + bound + knobs +
/// priority + budget. Construct with [`FlowJob::benchmark`] /
/// [`FlowJob::verilog`] and refine with the `with_*` setters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FlowJob {
    /// Display name (defaults to the circuit's name).
    pub name: String,
    /// The circuit to approximate.
    pub source: JobSource,
    /// Which of the five optimizers runs.
    pub method: Method,
    /// Error metric in force.
    pub metric: ErrorMetric,
    /// User error budget under the metric.
    pub bound: f64,
    /// Population size for the population-based methods.
    pub population: usize,
    /// Iterations / generations / greedy-round budget.
    pub iterations: usize,
    /// Monte-Carlo vectors per evaluation.
    pub vectors: usize,
    /// RNG + stimulus seed (the determinism anchor).
    pub seed: u64,
    /// Scheduling priority: higher is admitted first, FIFO within.
    pub priority: u8,
    /// Requested per-session worker-thread cap; `None` takes whatever
    /// the scheduler's lease grants. `Some(n)` beyond the lease cap is
    /// rejected at submission with a typed error.
    pub threads: Option<usize>,
    /// Post-optimization area constraint; `None` means the accurate
    /// circuit's area.
    pub area_con: Option<f64>,
    /// Resource limits for the optimizer phase.
    pub budget: JobBudget,
}

impl FlowJob {
    fn with_source(name: String, source: JobSource) -> FlowJob {
        FlowJob {
            name,
            source,
            method: Method::Dcgwo,
            metric: ErrorMetric::ErrorRate,
            bound: 0.05,
            population: 30,
            iterations: 20,
            vectors: 4096,
            seed: 1,
            priority: 0,
            threads: None,
            area_con: None,
            budget: JobBudget::default(),
        }
    }

    /// A job on one of the paper's benchmarks (the paper's defaults:
    /// DCGWO, ER, population 30, 20 iterations, 4096 vectors, seed 1).
    pub fn benchmark(bench: Benchmark) -> FlowJob {
        FlowJob::with_source(bench.name().to_owned(), JobSource::Benchmark(bench))
    }

    /// A job on structural Verilog text (parsed when the job runs; a
    /// parse failure surfaces as the session's typed
    /// [`FlowError::Verilog`]).
    pub fn verilog(name: impl Into<String>, text: impl Into<String>) -> FlowJob {
        FlowJob::with_source(name.into(), JobSource::Verilog(text.into()))
    }

    /// Sets the display name. Names identify result records (and shard
    /// assignments), so [`Manifest::parse`] rejects duplicates — give
    /// programmatic jobs on the same circuit distinct names.
    pub fn with_name(mut self, name: impl Into<String>) -> FlowJob {
        self.name = name.into();
        self
    }

    /// Sets the optimizer method.
    pub fn with_method(mut self, method: Method) -> FlowJob {
        self.method = method;
        self
    }

    /// Sets the error metric.
    pub fn with_metric(mut self, metric: ErrorMetric) -> FlowJob {
        self.metric = metric;
        self
    }

    /// Sets the error bound.
    pub fn with_bound(mut self, bound: f64) -> FlowJob {
        self.bound = bound;
        self
    }

    /// Sets population and iteration counts.
    pub fn with_scale(mut self, population: usize, iterations: usize) -> FlowJob {
        self.population = population;
        self.iterations = iterations;
        self
    }

    /// Sets the Monte-Carlo vector count.
    pub fn with_vectors(mut self, vectors: usize) -> FlowJob {
        self.vectors = vectors;
        self
    }

    /// Sets the RNG + stimulus seed.
    pub fn with_seed(mut self, seed: u64) -> FlowJob {
        self.seed = seed;
        self
    }

    /// Sets the scheduling priority (higher is admitted first).
    pub fn with_priority(mut self, priority: u8) -> FlowJob {
        self.priority = priority;
        self
    }

    /// Sets the requested per-session thread cap.
    pub fn with_threads(mut self, threads: impl Into<Option<usize>>) -> FlowJob {
        self.threads = threads.into();
        self
    }

    /// Sets the post-optimization area constraint.
    pub fn with_area_con(mut self, area_con: impl Into<Option<f64>>) -> FlowJob {
        self.area_con = area_con.into();
        self
    }

    /// Sets the job's resource limits.
    pub fn with_budget(mut self, budget: JobBudget) -> FlowJob {
        self.budget = budget;
        self
    }

    /// Checks the knobs that do not depend on where the job runs. The
    /// one rule every front end applies: [`Scheduler::validate`]
    /// (wire frames and manifests, through the daemon) and `tdals flow`
    /// both call it before anything is allocated for the job.
    ///
    /// # Errors
    ///
    /// [`ServerError::AboveLimit`] for a population above
    /// [`MAX_POPULATION`] or a vector count above [`MAX_VECTORS`].
    ///
    /// [`Scheduler::validate`]: crate::Scheduler::validate
    pub fn validate(&self) -> Result<(), ServerError> {
        for (knob, requested, limit) in [
            ("population", self.population, MAX_POPULATION),
            ("vectors", self.vectors, MAX_VECTORS),
        ] {
            if requested > limit {
                return Err(ServerError::AboveLimit {
                    job: self.name.clone(),
                    knob,
                    requested,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Runs this job on the calling thread at `threads` workers with an
    /// explicit budget and observer. This is the one code path both the
    /// scheduler and [`FlowJob::run_direct`] use, which is what makes
    /// the scheduler-vs-solo digests bit-identical.
    ///
    /// # Errors
    ///
    /// Whatever [`Flow::run`] reports for this job's knobs.
    pub fn run_with(
        &self,
        threads: usize,
        budget: Budget,
        obs: &mut dyn Observer,
    ) -> Result<FlowOutcome, FlowError> {
        let cfg = MethodConfig::default()
            .with_population(self.population)
            .with_iterations(self.iterations)
            .with_level_we(OptimizerConfig::paper_level_we(self.metric))
            .with_seed(self.seed)
            .with_threads(threads);
        let built;
        let flow = match &self.source {
            JobSource::Benchmark(bench) => {
                built = bench.build();
                Flow::for_netlist(&built)
            }
            JobSource::Verilog(text) => Flow::for_verilog(text)?,
        };
        flow.metric(self.metric)
            .error_bound(self.bound)
            .vectors(self.vectors)
            .pattern_seed(self.seed)
            .area_constraint(self.area_con)
            .budget(budget)
            .optimizer(self.method.optimizer(&cfg))
            .observer(obs)
            .run()
    }

    /// The reference semantics of this job: a solo run on the calling
    /// thread, no scheduler involved. A scheduled session's outcome is
    /// bit-identical to this for any lease width and co-tenant mix.
    ///
    /// # Errors
    ///
    /// Whatever [`Flow::run`] reports for this job's knobs.
    pub fn run_direct(&self, threads: usize) -> Result<FlowOutcome, FlowError> {
        let mut obs = tdals_core::api::NopObserver;
        self.run_with(threads, self.budget.to_budget(), &mut obs)
    }

    /// The job as a manifest-format JSON object ([`FlowJob::from_json`]
    /// round-trips it).
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![("name".into(), Json::Str(self.name.clone()))];
        match &self.source {
            JobSource::Benchmark(bench) => members.push((
                "circuit".into(),
                Json::Str(format!("bench:{}", bench.name())),
            )),
            JobSource::Verilog(text) => members.push(("verilog".into(), Json::Str(text.clone()))),
        }
        members.push(("method".into(), Json::Str(self.method.cli_name().into())));
        members.push(("metric".into(), Json::Str(self.metric.cli_name().into())));
        members.push(("bound".into(), Json::Num(self.bound)));
        members.push(("population".into(), Json::Num(self.population as f64)));
        members.push(("iterations".into(), Json::Num(self.iterations as f64)));
        members.push(("vectors".into(), Json::Num(self.vectors as f64)));
        // Seeds are the determinism anchor, so they must survive the
        // round-trip exactly; big ones travel as strings (`u64_to_json`).
        members.push(("seed".into(), u64_to_json(self.seed)));
        members.push(("priority".into(), Json::Num(f64::from(self.priority))));
        if let Some(threads) = self.threads {
            members.push(("threads".into(), Json::Num(threads as f64)));
        }
        if let Some(area_con) = self.area_con {
            members.push(("area_con".into(), Json::Num(area_con)));
        }
        if let Some(n) = self.budget.max_iterations {
            members.push(("max_iterations".into(), Json::Num(n as f64)));
        }
        if let Some(n) = self.budget.max_evaluations {
            members.push(("max_evaluations".into(), u64_to_json(n)));
        }
        if let Some(d) = self.budget.deadline {
            members.push(("deadline_ms".into(), Json::Num(d.as_millis() as f64)));
        }
        Json::Obj(members)
    }

    /// Parses one manifest job object. `index` is the job's position in
    /// the manifest (for error messages); `read` resolves a non-`bench:`
    /// circuit string (a file path) to Verilog text.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] naming the offending job and field.
    pub fn from_json(
        value: &Json,
        index: usize,
        read: &dyn Fn(&str) -> Result<String, String>,
    ) -> Result<FlowJob, ManifestError> {
        let Json::Obj(members) = value else {
            return Err(ManifestError::Shape {
                what: format!("job {index} is not an object"),
            });
        };
        // Strict keys: a typo'd knob (`max_iteration`, `deadline`)
        // must not silently run an unbudgeted default session.
        const KNOWN: [&str; 16] = [
            "name",
            "circuit",
            "verilog",
            "method",
            "metric",
            "bound",
            "population",
            "iterations",
            "vectors",
            "seed",
            "priority",
            "threads",
            "area_con",
            "max_iterations",
            "max_evaluations",
            "deadline_ms",
        ];
        if let Some((key, _)) = members.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
            return Err(ManifestError::Shape {
                what: format!(
                    "job {index}: unknown field `{key}` (known fields: {})",
                    KNOWN.join(", ")
                ),
            });
        }
        let (name_hint, source) = match (value.get("circuit"), value.get("verilog")) {
            (Some(circuit), None) => {
                let spec = circuit.as_str().ok_or_else(|| ManifestError::Shape {
                    what: format!("job {index}: `circuit` must be a string"),
                })?;
                if let Some(name) = spec.strip_prefix("bench:") {
                    let bench = ALL_BENCHMARKS
                        .into_iter()
                        .find(|b| b.name().eq_ignore_ascii_case(name))
                        .ok_or_else(|| ManifestError::UnknownBenchmark {
                            job: index,
                            name: name.to_owned(),
                        })?;
                    (bench.name().to_owned(), JobSource::Benchmark(bench))
                } else {
                    let text = read(spec).map_err(|error| ManifestError::Read {
                        job: index,
                        path: spec.to_owned(),
                        error,
                    })?;
                    (spec.to_owned(), JobSource::Verilog(text))
                }
            }
            (None, Some(verilog)) => {
                let text = verilog.as_str().ok_or_else(|| ManifestError::Shape {
                    what: format!("job {index}: `verilog` must be a string"),
                })?;
                (format!("job{index}"), JobSource::Verilog(text.to_owned()))
            }
            (Some(_), Some(_)) => {
                return Err(ManifestError::Shape {
                    what: format!("job {index}: give `circuit` or `verilog`, not both"),
                })
            }
            (None, None) => {
                return Err(ManifestError::Shape {
                    what: format!("job {index}: missing `circuit` (or inline `verilog`)"),
                })
            }
        };

        let method_name = req_str(value, "method", index)?;
        let method = Method::parse(method_name).ok_or_else(|| ManifestError::UnknownMethod {
            job: index,
            name: method_name.to_owned(),
        })?;
        let metric_str = req_str(value, "metric", index)?;
        let metric =
            ErrorMetric::parse(metric_str).ok_or_else(|| ManifestError::UnknownMetric {
                job: index,
                name: metric_str.to_owned(),
            })?;
        let bound =
            check_bound(req_num(value, "bound", index)?).map_err(|msg| ManifestError::Shape {
                what: format!("job {index}: `bound` {msg}"),
            })?;

        let mut job = FlowJob::with_source(name_hint, source);
        if let Some(name) = value.get("name") {
            job.name = name
                .as_str()
                .ok_or_else(|| ManifestError::Shape {
                    what: format!("job {index}: `name` must be a string"),
                })?
                .to_owned();
        }
        job.method = method;
        job.metric = metric;
        job.bound = bound;
        job.population = opt_uint(value, "population", index, job.population)?;
        job.iterations = opt_uint(value, "iterations", index, job.iterations)?;
        job.vectors = opt_uint(value, "vectors", index, job.vectors)?;
        job.seed = match value.get("seed") {
            None => job.seed,
            // Large seeds travel as strings (see `to_json`).
            Some(Json::Str(s)) => s.parse().map_err(|_| ManifestError::Shape {
                what: format!("job {index}: `seed` string `{s}` is not a u64"),
            })?,
            Some(v) => json_uint(v).ok_or_else(|| ManifestError::Shape {
                what: format!("job {index}: `seed` must be a non-negative integer"),
            })? as u64,
        };
        let priority = opt_uint(value, "priority", index, usize::from(job.priority))?;
        job.priority = u8::try_from(priority).map_err(|_| ManifestError::Shape {
            what: format!("job {index}: `priority` must be 0..=255, got {priority}"),
        })?;
        if value.get("threads").is_some() {
            job.threads = Some(opt_uint(value, "threads", index, 0)?);
        }
        if let Some(v) = value.get("area_con") {
            job.area_con = Some(v.as_f64().ok_or_else(|| ManifestError::Shape {
                what: format!("job {index}: `area_con` must be a number"),
            })?);
        }
        if value.get("max_iterations").is_some() {
            job.budget.max_iterations = Some(opt_uint(value, "max_iterations", index, 0)?);
        }
        job.budget.max_evaluations = match value.get("max_evaluations") {
            None => None,
            // Large caps travel as strings (see `to_json`).
            Some(Json::Str(s)) => Some(s.parse().map_err(|_| ManifestError::Shape {
                what: format!("job {index}: `max_evaluations` string `{s}` is not a u64"),
            })?),
            Some(v) => Some(json_uint(v).ok_or_else(|| ManifestError::Shape {
                what: format!("job {index}: `max_evaluations` must be a non-negative integer"),
            })? as u64),
        };
        if value.get("deadline_ms").is_some() {
            let ms = opt_uint(value, "deadline_ms", index, 0)?;
            job.budget.deadline = Some(Duration::from_millis(ms as u64));
        }
        Ok(job)
    }

    /// Short human description of the circuit (benchmark name or
    /// `verilog`), used in result records.
    pub fn circuit_label(&self) -> String {
        match &self.source {
            JobSource::Benchmark(bench) => format!("bench:{}", bench.name()),
            JobSource::Verilog(_) => "verilog".into(),
        }
    }
}

/// A batch of jobs plus batch-level defaults: the `serve-batch` input
/// format.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Manifest {
    /// The jobs, in manifest order (which is also the order of the
    /// results file).
    pub jobs: Vec<FlowJob>,
    /// Pool budget suggested by the manifest; the CLI flag wins.
    pub total_threads: Option<usize>,
}

impl Manifest {
    /// Wraps a job list (no suggested pool budget).
    pub fn new(jobs: Vec<FlowJob>) -> Manifest {
        Manifest {
            jobs,
            total_threads: None,
        }
    }

    /// Suggests a pool budget (the CLI `--total-threads` flag wins).
    pub fn with_total_threads(mut self, total: usize) -> Manifest {
        self.total_threads = Some(total);
        self
    }

    /// Parses a manifest document. `read` resolves job circuit paths to
    /// Verilog text ([`FlowJob::from_json`]).
    ///
    /// # Errors
    ///
    /// [`ManifestError`] for syntax errors, structural problems, or any
    /// invalid job.
    pub fn parse(
        text: &str,
        read: &dyn Fn(&str) -> Result<String, String>,
    ) -> Result<Manifest, ManifestError> {
        let doc = Json::parse(text).map_err(ManifestError::Syntax)?;
        if let Json::Obj(members) = &doc {
            if let Some((key, _)) = members
                .iter()
                .find(|(k, _)| k != "jobs" && k != "total_threads")
            {
                return Err(ManifestError::Shape {
                    what: format!(
                        "unknown top-level field `{key}` (known fields: jobs, total_threads)"
                    ),
                });
            }
        }
        let jobs_json =
            doc.get("jobs")
                .and_then(Json::as_array)
                .ok_or_else(|| ManifestError::Shape {
                    what: "manifest has no `jobs` array".into(),
                })?;
        if jobs_json.is_empty() {
            return Err(ManifestError::Empty);
        }
        let jobs = jobs_json
            .iter()
            .enumerate()
            .map(|(i, j)| FlowJob::from_json(j, i, read))
            .collect::<Result<Vec<_>, _>>()?;
        // Names identify result records (and shard-map entries), so a
        // duplicate would make two records indistinguishable downstream;
        // reject it at parse time with the colliding indices named.
        for (second, job) in jobs.iter().enumerate() {
            if let Some(first) = jobs[..second].iter().position(|j| j.name == job.name) {
                return Err(ManifestError::DuplicateName {
                    name: job.name.clone(),
                    first,
                    second,
                });
            }
        }
        let total_threads = match doc.get("total_threads") {
            Some(v) => {
                let n = json_uint(v).ok_or_else(|| ManifestError::Shape {
                    what: "`total_threads` must be a non-negative integer".into(),
                })?;
                // Zero workers gets the same typed rejection the CLI
                // flag and SchedulerConfig give it, not a silent 1.
                if n == 0 {
                    return Err(ManifestError::Shape {
                        what: "`total_threads` is 0; a pool needs at least 1 worker slot".into(),
                    });
                }
                Some(n)
            }
            None => None,
        };
        Ok(Manifest {
            jobs,
            total_threads,
        })
    }

    /// The sub-manifest holding the jobs at `indices`, in the order
    /// given, with the batch-level defaults carried over. This is the
    /// shard-split primitive: a shard planner picks index sets, and each
    /// shard's manifest is `subset` of the original, so a shard job is
    /// field-for-field the original job and its result record cannot
    /// differ from the unsharded run's.
    ///
    /// Out-of-range indices are skipped (a validated shard map never
    /// contains any).
    pub fn subset(&self, indices: &[usize]) -> Manifest {
        Manifest {
            jobs: indices
                .iter()
                .filter_map(|&i| self.jobs.get(i).cloned())
                .collect(),
            total_threads: self.total_threads,
        }
    }

    /// The manifest as a JSON document ([`Manifest::parse`] round-trips
    /// it).
    pub fn to_json(&self) -> Json {
        let mut members = Vec::new();
        if let Some(total) = self.total_threads {
            members.push(("total_threads".into(), Json::Num(total as f64)));
        }
        members.push((
            "jobs".into(),
            Json::Arr(self.jobs.iter().map(FlowJob::to_json).collect()),
        ));
        Json::Obj(members)
    }
}

/// Why a manifest was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ManifestError {
    /// The document is not valid JSON.
    Syntax(String),
    /// The document parsed but a required field is missing or
    /// mis-typed.
    Shape {
        /// What is wrong, naming the job index and field.
        what: String,
    },
    /// The `jobs` array is empty — there is nothing to run, and an
    /// empty batch would write a results file with zero records.
    Empty,
    /// Two jobs share a name. Names identify result records (and shard
    /// assignments), so duplicates would be ambiguous downstream.
    DuplicateName {
        /// The colliding name.
        name: String,
        /// Manifest index of the first job with the name.
        first: usize,
        /// Manifest index of the later duplicate.
        second: usize,
    },
    /// A job names a method outside the five supported ones.
    UnknownMethod {
        /// Manifest index of the offending job.
        job: usize,
        /// The unrecognized method name.
        name: String,
    },
    /// A job names a metric other than `er`/`nmed`.
    UnknownMetric {
        /// Manifest index of the offending job.
        job: usize,
        /// The unrecognized metric name.
        name: String,
    },
    /// A `bench:` circuit names no known benchmark.
    UnknownBenchmark {
        /// Manifest index of the offending job.
        job: usize,
        /// The unrecognized benchmark name.
        name: String,
    },
    /// A circuit path could not be read.
    Read {
        /// Manifest index of the offending job.
        job: usize,
        /// The path that failed.
        path: String,
        /// The underlying error.
        error: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Syntax(e) => write!(f, "manifest is not valid JSON: {e}"),
            ManifestError::Shape { what } => write!(f, "manifest: {what}"),
            ManifestError::Empty => write!(f, "manifest `jobs` array is empty"),
            ManifestError::DuplicateName {
                name,
                first,
                second,
            } => write!(
                f,
                "jobs {first} and {second} share the name `{name}`; names identify \
                 result records, give each job a unique `name`"
            ),
            ManifestError::UnknownMethod { job, name } => write!(
                f,
                "job {job}: unknown method `{name}` (expected dcgwo|gwo|hedals|greedy|vaacs)"
            ),
            ManifestError::UnknownMetric { job, name } => {
                write!(f, "job {job}: unknown metric `{name}` (expected er|nmed)")
            }
            ManifestError::UnknownBenchmark { job, name } => {
                write!(
                    f,
                    "job {job}: unknown benchmark `{name}` (try `tdals list`)"
                )
            }
            ManifestError::Read { job, path, error } => {
                write!(f, "job {job}: reading {path}: {error}")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// Largest integer `f64` (and therefore a JSON number) represents
/// exactly: 2^53.
const MAX_EXACT_JSON_INT: u64 = 1 << 53;

/// A `u64` as JSON that survives the round-trip exactly: a number up to
/// 2^53, a decimal string beyond (JSON numbers are f64 and lose integer
/// precision past that). Used for seeds, evaluation budgets and counts,
/// and wire-protocol session ids.
pub(crate) fn u64_to_json(n: u64) -> Json {
    if n <= MAX_EXACT_JSON_INT {
        Json::Num(n as f64)
    } else {
        Json::Str(n.to_string())
    }
}

/// Inverse of [`u64_to_json`]: accepts an exact non-negative integer
/// number or a decimal string.
pub(crate) fn u64_from_json(value: &Json) -> Option<u64> {
    match value {
        Json::Num(n) => {
            if n.fract() != 0.0 || !(0.0..=MAX_EXACT_JSON_INT as f64).contains(n) {
                return None;
            }
            Some(*n as u64)
        }
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// Validates an error bound: finite and in `[0, 1]` (both ER and NMED
/// are normalized). The one rule both front ends use — the CLI `--bound`
/// flag and [`FlowJob::from_json`] both call this, so the wording and
/// the accepted range cannot drift between them.
///
/// # Errors
///
/// A human-readable message (no flag/field prefix — the caller adds its
/// own context).
pub fn check_bound(bound: f64) -> Result<f64, String> {
    // `contains` rejects NaN too: NaN compares false against both ends.
    if !(0.0..=1.0).contains(&bound) {
        return Err(format!(
            "{bound} is out of range (error bounds are in [0, 1])"
        ));
    }
    Ok(bound)
}

/// Parses a worker count: a positive integer. Shared by every CLI
/// worker-count flag (`--threads`, `--total-threads`, …) so the typed
/// error wording cannot drift between them.
///
/// # Errors
///
/// A human-readable message (no flag/field prefix — the caller adds its
/// own context).
pub fn parse_worker_count(raw: &str) -> Result<usize, String> {
    let n: usize = raw
        .parse()
        .map_err(|_| format!("`{raw}` is not a number (expected a worker count like 4)"))?;
    if n == 0 {
        return Err("0 workers cannot run anything; pass 1 or more".into());
    }
    Ok(n)
}

fn json_uint(value: &Json) -> Option<usize> {
    let n = value.as_f64()?;
    if n.fract() != 0.0 || !(0.0..=MAX_EXACT_JSON_INT as f64).contains(&n) {
        return None;
    }
    Some(n as usize)
}

fn req_str<'a>(obj: &'a Json, key: &str, job: usize) -> Result<&'a str, ManifestError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ManifestError::Shape {
            what: format!("job {job}: missing string field `{key}`"),
        })
}

fn req_num(obj: &Json, key: &str, job: usize) -> Result<f64, ManifestError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ManifestError::Shape {
            what: format!("job {job}: missing numeric field `{key}`"),
        })
}

fn opt_uint(obj: &Json, key: &str, job: usize, default: usize) -> Result<usize, ManifestError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => json_uint(v).ok_or_else(|| ManifestError::Shape {
            what: format!("job {job}: `{key}` must be a non-negative integer"),
        }),
    }
}

// ---------------------------------------------------------------------
// Deterministic result records
// ---------------------------------------------------------------------

/// One session's result as a JSON record: job identity plus either the
/// outcome's numbers or the typed failure. Deliberately excludes every
/// wall-clock quantity (`runtime_s`), so a results file is byte-for-byte
/// reproducible for any pool width — the property the CI soak job
/// diffs. The one input that can break it is a *binding*
/// `deadline_ms`: a deadline that actually fires stops the session at
/// a load-dependent iteration, which is inherent to wall-clock
/// budgets, not to the scheduler.
pub fn session_record(
    index: usize,
    job: &FlowJob,
    result: &Result<FlowOutcome, SessionError>,
) -> Json {
    let mut members: Vec<(String, Json)> = vec![("job".into(), Json::Num(index as f64))];
    members.extend(session_record_fields(job, result));
    Json::Obj(members)
}

/// The body of a [`session_record`] minus the leading `job` index: what
/// the daemon ships over the wire, so a client that knows its own
/// submission order can prepend the index and reassemble a document
/// byte-identical to `serve-batch`'s.
pub fn session_record_fields(
    job: &FlowJob,
    result: &Result<FlowOutcome, SessionError>,
) -> Vec<(String, Json)> {
    let mut members: Vec<(String, Json)> = vec![
        ("name".into(), Json::Str(job.name.clone())),
        ("circuit".into(), Json::Str(job.circuit_label())),
        ("method".into(), Json::Str(job.method.cli_name().into())),
        ("metric".into(), Json::Str(job.metric.cli_name().into())),
        ("bound".into(), Json::Num(job.bound)),
        ("seed".into(), u64_to_json(job.seed)),
    ];
    match result {
        Ok(outcome) => {
            members.push(("status".into(), Json::Str("completed".into())));
            members.push(("stop".into(), Json::Str(outcome.stop().to_string())));
            members.push((
                "gates".into(),
                Json::Num(outcome.netlist.logic_gate_count() as f64),
            ));
            members.push(("cpd_ori".into(), Json::Num(outcome.cpd_ori)));
            members.push(("cpd_fac".into(), Json::Num(outcome.cpd_fac)));
            members.push(("ratio_cpd".into(), Json::Num(outcome.ratio_cpd)));
            members.push(("error".into(), Json::Num(outcome.error)));
            members.push(("area".into(), Json::Num(outcome.area)));
            members.push((
                "evaluations".into(),
                Json::Num(outcome.optimize.evaluations as f64),
            ));
            members.push((
                "iterations".into(),
                Json::Num(outcome.optimize.history.len() as f64),
            ));
        }
        // "failure", not "error": completed records use "error" for the
        // measured metric (a number), and one key must keep one type
        // across the schema.
        Err(SessionError::Flow(e)) => {
            members.push(("status".into(), Json::Str("failed".into())));
            members.push(("failure".into(), Json::Str(e.to_string())));
        }
        Err(SessionError::Panicked(message)) => {
            members.push(("status".into(), Json::Str("panicked".into())));
            members.push(("failure".into(), Json::Str(message.clone())));
        }
    }
    members
}

/// The whole batch's results as one JSON document, in submission order.
pub fn results_document<'a>(
    entries: impl IntoIterator<Item = (&'a FlowJob, &'a Result<FlowOutcome, SessionError>)>,
) -> Json {
    results_document_from_records(
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (job, result))| session_record(i, job, result))
            .collect(),
    )
}

/// Wraps pre-built [`session_record`]s (each already carrying its `job`
/// index) in the schema-1 results document. The daemon client uses this
/// to reassemble results collected over the wire.
pub fn results_document_from_records(records: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Num(1.0)),
        ("results".into(), Json::Arr(records)),
    ])
}
