//! Statistics, correctness tallies, counter deltas and the span
//! summary shared by every workload.

use std::collections::BTreeMap;

use tdals::obs::metrics::MetricsSnapshot;
use tdals::obs::trace::{self, SpanRecord};
use tdals_bench::json::Json;

/// Metric values by name; `main` prints them in the declared order.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Span category of the benchmark's own layer probes.
pub const PROBE: &str = "probe";

/// Ring capacity while tracing: large enough that a run drops nothing.
const TRACE_CAPACITY: usize = 1 << 20;

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Smallest value; 0 when empty.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile (`q` in (0, 1]); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// Attempted operations and correctness checks, and how many failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation or check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("flowbench: FAILED: {}", what());
        }
    }
}

/// Quality of the flows a workload pools: `Ratio_cpd` and final area
/// over the accurate circuit's area.
#[derive(Debug, Default)]
pub struct Quality {
    ratio_cpd: Vec<f64>,
    area_ratio: Vec<f64>,
}

impl Quality {
    pub fn add(&mut self, ratio_cpd: f64, area: f64, area_ori: f64) {
        self.ratio_cpd.push(ratio_cpd);
        self.area_ratio.push(area / area_ori);
    }

    pub fn write(&self, m: &mut Metrics) {
        m.insert("ratio_cpd_geo", geomean(&self.ratio_cpd));
        m.insert("area_ratio_geo", geomean(&self.area_ratio));
    }
}

/// The registry counters and histogram totals the per-layer metrics
/// read, taken from this process or from a daemon's `stats` frame.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub evaluations: f64,
    pub lacs_accepted: f64,
    pub delta_previews: f64,
    pub delta_commits: f64,
    pub lease_waits: f64,
    pub frames_read: f64,
    pub frames_written: f64,
    pub cone: (f64, f64),
    pub grant_width: (f64, f64),
    pub lease_wait_us: (f64, f64),
}

impl Counters {
    /// This process's registry.
    pub fn local() -> Counters {
        let snap: MetricsSnapshot = tdals::obs::metrics().snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let h = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name)
                .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
        };
        Counters::read(c, h)
    }

    /// A daemon's registry, from its `stats` reply.
    pub fn from_stats(frame: &Json) -> Result<Counters, String> {
        let metrics = frame
            .get("metrics")
            .ok_or_else(|| format!("stats reply without metrics: {}", frame.to_compact()))?;
        let c = |name: &str| {
            metrics
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let h = |name: &str| {
            let hist = metrics.get("histograms").and_then(|h| h.get(name));
            let field = |k: &str| hist.and_then(|h| h.get(k)).and_then(Json::as_f64);
            (field("count").unwrap_or(0.0), field("sum").unwrap_or(0.0))
        };
        Ok(Counters::read(c, h))
    }

    /// Reads every field by registry name: `counter` gives a counter's
    /// total, `histogram` a histogram's (count, sum).
    fn read(counter: impl Fn(&str) -> f64, histogram: impl Fn(&str) -> (f64, f64)) -> Counters {
        Counters {
            evaluations: counter("evaluations"),
            lacs_accepted: counter("lacs_accepted"),
            delta_previews: counter("delta_previews"),
            delta_commits: counter("delta_commits"),
            lease_waits: counter("lease_waits"),
            frames_read: counter("frames_read"),
            frames_written: counter("frames_written"),
            cone: histogram("delta_cone_gates"),
            grant_width: histogram("grant_width"),
            lease_wait_us: histogram("lease_wait_us"),
        }
    }

    /// Combines two readings field by field.
    fn zip(&self, other: &Counters, f: impl Fn(f64, f64) -> f64) -> Counters {
        let h = |a: (f64, f64), b: (f64, f64)| (f(a.0, b.0), f(a.1, b.1));
        Counters {
            evaluations: f(self.evaluations, other.evaluations),
            lacs_accepted: f(self.lacs_accepted, other.lacs_accepted),
            delta_previews: f(self.delta_previews, other.delta_previews),
            delta_commits: f(self.delta_commits, other.delta_commits),
            lease_waits: f(self.lease_waits, other.lease_waits),
            frames_read: f(self.frames_read, other.frames_read),
            frames_written: f(self.frames_written, other.frames_written),
            cone: h(self.cone, other.cone),
            grant_width: h(self.grant_width, other.grant_width),
            lease_wait_us: h(self.lease_wait_us, other.lease_wait_us),
        }
    }

    /// The change from an earlier reading.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |a, b| a - b)
    }

    /// Accumulates another change.
    pub fn add(&mut self, delta: &Counters) {
        *self = self.zip(delta, |a, b| a + b);
    }

    /// The flow-level counter metrics, per job, plus the evaluation
    /// rate over `busy_s` seconds.
    pub fn write_flow(&self, jobs: f64, busy_s: f64, m: &mut Metrics) {
        m.insert("core.evaluations", ratio(self.evaluations, jobs));
        m.insert("core.evals_per_s", ratio(self.evaluations, busy_s));
        m.insert("core.lacs_accepted", ratio(self.lacs_accepted, jobs));
        m.insert(
            "core.accept_ratio",
            ratio(self.lacs_accepted, self.evaluations),
        );
        m.insert("sim.delta_previews", ratio(self.delta_previews, jobs));
        m.insert("sim.delta_commits", ratio(self.delta_commits, jobs));
        m.insert("sim.cone_gates_mean", ratio(self.cone.1, self.cone.0));
        m.insert("par.lease_waits", ratio(self.lease_waits, jobs));
    }

    /// The serving-layer counter metrics, per job.
    pub fn write_server(&self, jobs: f64, m: &mut Metrics) {
        m.insert("server.lease_waits", ratio(self.lease_waits, jobs));
        m.insert(
            "server.lease_wait_us_mean",
            ratio(self.lease_wait_us.1, self.lease_wait_us.0),
        );
        m.insert(
            "server.grant_width_mean",
            ratio(self.grant_width.1, self.grant_width.0),
        );
        m.insert("server.frames_read", ratio(self.frames_read, jobs));
        m.insert("server.frames_written", ratio(self.frames_written, jobs));
    }
}

/// What the traced run records: spans from inside flows (with the
/// registry changes those flows made) and spans of the benchmark's own
/// probes, kept apart so the phase metrics see flows only. Arming the
/// recorder clears its ring, so each armed stretch is drained before the
/// next starts and the drop count is summed across stretches.
#[derive(Debug, Default)]
pub struct Recorder {
    pub flow_spans: Vec<SpanRecord>,
    pub probe_spans: Vec<SpanRecord>,
    pub dropped: u64,
    pub counters: Counters,
    pub flows: f64,
}

impl Recorder {
    fn record<R>(&mut self, f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
        trace::enable(TRACE_CAPACITY);
        let result = f();
        trace::disable();
        self.dropped += trace::dropped();
        (result, trace::drain())
    }

    /// Runs one flow with recording on.
    pub fn record_flow<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = Counters::local();
        let (result, spans) = self.record(f);
        self.flow_spans.extend(spans);
        self.counters.add(&Counters::local().since(&before));
        self.flows += 1.0;
        result
    }

    /// Runs probes (or client calls) with recording on.
    pub fn record_probes<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (result, spans) = self.record(f);
        self.probe_spans.extend(spans);
        result
    }

    /// The flow-phase metrics: phase and iteration times, iteration and
    /// parallel-batch counts per flow, and the parallel busy share.
    pub fn write_phases(&self, m: &mut Metrics) {
        let durs = |cat: &str, name: Option<&str>| -> Vec<f64> {
            self.flow_spans
                .iter()
                .filter(|s| s.cat == cat && name.is_none_or(|n| s.name == n))
                .map(|s| s.dur_us as f64)
                .collect()
        };
        let flows = durs(trace::cat::FLOW, None).len() as f64;
        let optimize = durs(trace::cat::PHASE, Some("optimize"));
        let iterations = durs(trace::cat::ITERATION, None);
        let par = durs(trace::cat::PAR, None);
        m.insert(
            "phase.setup_ms",
            median(&durs(trace::cat::PHASE, Some("setup"))) / 1e3,
        );
        m.insert("phase.optimize_s", median(&optimize) / 1e6);
        m.insert(
            "phase.postopt_ms",
            median(&durs(trace::cat::PHASE, Some("post-opt"))) / 1e3,
        );
        m.insert("iter.p50_ms", median(&iterations) / 1e3);
        m.insert("iter.count", ratio(iterations.len() as f64, flows));
        m.insert("par.spans", ratio(par.len() as f64, flows));
        m.insert(
            "par.busy_frac",
            ratio(par.iter().sum::<f64>(), optimize.iter().sum::<f64>()),
        );
    }

    /// Total optimize-phase seconds of the traced flows.
    pub fn optimize_s(&self) -> f64 {
        self.flow_spans
            .iter()
            .filter(|s| s.cat == trace::cat::PHASE && s.name == "optimize")
            .map(|s| s.dur_us as f64 / 1e6)
            .sum()
    }

    /// Mean duration of the probe spans called `name`, in µs.
    pub fn probe_us(&self, name: &str) -> f64 {
        let durs: Vec<f64> = self
            .probe_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64)
            .collect();
        ratio(durs.iter().sum(), durs.len() as f64)
    }

    /// The layer-probe metrics.
    pub fn write_probes(&self, m: &mut Metrics) {
        m.insert("netlist.clone_us", self.probe_us("netlist.clone"));
        m.insert("netlist.parse_ms", self.probe_us("netlist.parse") / 1e3);
        m.insert("sim.full_us", self.probe_us("sim.full"));
        m.insert("sta.full_us", self.probe_us("sta.full"));
        m.insert("core.delta_eval_us", self.probe_us("core.delta_eval"));
        m.insert("core.reproduce_us", self.probe_us("core.reproduce"));
        m.insert("core.propose_us", self.probe_us("core.propose"));
        m.insert("core.score_lac_us", self.probe_us("core.score_lac"));
        m.insert("core.evaluate_us", self.probe_us("core.evaluate"));
        m.insert("obs.spans_dropped", self.dropped as f64);
    }

    /// Prints the per-span-name table (count, total, self time) of
    /// everything recorded to stderr.
    pub fn print_summary(&self) {
        let spans: Vec<&SpanRecord> = self.flow_spans.iter().chain(&self.probe_spans).collect();
        let rows = summarize(&spans);
        eprintln!(
            "{:<28} {:>9} {:>12} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms", "mean_us"
        );
        for (name, row) in &rows {
            eprintln!(
                "{:<28} {:>9} {:>12.3} {:>12.3} {:>12.1}",
                name,
                row.count,
                row.total_us as f64 / 1e3,
                row.self_us as f64 / 1e3,
                row.total_us as f64 / row.count as f64
            );
        }
    }
}

/// One row of the span summary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanRow {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Groups spans by `category:name` (iteration spans under one key) and
/// computes self time: a span's duration minus the part its child
/// spans on the same thread cover. Spans on one thread nest LIFO, so a
/// stack over start-ordered spans finds each span's parent.
pub fn summarize(spans: &[&SpanRecord]) -> BTreeMap<String, SpanRow> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        (
            spans[i].tid,
            spans[i].ts_us,
            std::cmp::Reverse(spans[i].dur_us),
        )
    });
    let mut covered = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let end = |i: usize| spans[i].ts_us + spans[i].dur_us;
    for &i in &order {
        while let Some(&top) = stack.last() {
            if spans[top].tid != spans[i].tid || spans[i].ts_us >= end(top) {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            covered[parent] += end(i).min(end(parent)) - spans[i].ts_us;
        }
        stack.push(i);
    }
    let mut rows: BTreeMap<String, SpanRow> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let key = if span.cat == trace::cat::ITERATION {
            format!("{}:*", span.cat)
        } else {
            format!("{}:{}", span.cat, span.name)
        };
        let row = rows.entry(key).or_default();
        row.count += 1;
        row.total_us += span.dur_us;
        row.self_us += span.dur_us.saturating_sub(covered[i]);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, ts_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            cat: PROBE,
            ts_us,
            dur_us,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("outer", 0, 0, 100),
            span("mid", 0, 10, 50),
            span("inner", 0, 20, 10),
            span("mid", 0, 70, 20),
            span("other-thread", 1, 5, 90),
        ];
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        let rows = summarize(&refs);
        let row = |n: &str| rows[&format!("{PROBE}:{n}")];
        assert_eq!(row("outer").self_us, 30);
        assert_eq!(row("mid").self_us, 60);
        assert_eq!(row("mid").count, 2);
        assert_eq!(row("inner").self_us, 10);
        assert_eq!(row("other-thread").self_us, 90);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
