//! SIMD-width equivalence harness.
//!
//! The blockwise simulation kernels (`tdals::sim::SimdWidth`) promise
//! that a flow returns a **bit-identical** [`FlowOutcome`] at every
//! block width — same best fitness, same measured error, same
//! gate-for-gate netlist, same evaluation count, same event sequence —
//! and that the width knob composes with the thread-count knob. This
//! suite holds every method to that promise across the full
//! width × worker grid {1, 4, 8} × {1, 4}, with pinned seeds and
//! randomized proptest seeds, mirroring `tests/parallel.rs`.
//!
//! The digest compares the *entire observable surface* of a run: the
//! outcome's numbers, the final netlists, the per-iteration history,
//! and the full event stream with the only wall-clock field
//! (`FlowFinished::runtime_s`) stripped.

use std::cell::RefCell;

use proptest::prelude::*;
use tdals::baselines::{Method, MethodConfig, ALL_METHODS};
use tdals::circuits::Benchmark;
use tdals::core::api::{Budget, Flow, FlowEvent, StopReason};
use tdals::core::{EvalContext, IterationStats};
use tdals::netlist::Netlist;
use tdals::sim::{ErrorMetric, Patterns, SimdWidth, ALL_WIDTHS};
use tdals::sta::TimingConfig;

fn quick_ctx(width: SimdWidth) -> EvalContext {
    let accurate = Benchmark::Int2float.build();
    EvalContext::new(
        &accurate,
        Patterns::random(accurate.input_count(), 512, 7),
        ErrorMetric::ErrorRate,
        TimingConfig::default(),
        0.8,
    )
    .with_simd_width(width)
}

fn quick_cfg(seed: u64, threads: usize) -> MethodConfig {
    MethodConfig::default()
        .with_population(6)
        .with_iterations(3)
        .with_seed(seed)
        .with_threads(threads)
}

/// A comparable fingerprint of one event; `{:?}` on `f64` prints the
/// shortest round-trip representation, so two keys compare equal iff
/// the underlying values are bit-identical (modulo `-0.0`, which none
/// of these quantities produce).
fn event_key(ev: &FlowEvent) -> String {
    match ev {
        FlowEvent::FlowStarted {
            optimizer,
            gates,
            cpd_ori,
            area_ori,
            metric,
            error_bound,
        } => {
            format!("start {optimizer} {gates} {cpd_ori:?} {area_ori:?} {metric:?} {error_bound:?}")
        }
        FlowEvent::IterationStarted {
            iteration,
            constraint,
        } => format!("iter-start {iteration} {constraint:?}"),
        FlowEvent::BestImproved {
            iteration,
            fitness,
            error,
            depth,
            area,
        } => format!("best {iteration} {fitness:?} {error:?} {depth} {area:?}"),
        FlowEvent::LacAccepted {
            iteration,
            error,
            area,
        } => format!("lac {iteration} {error:?} {area:?}"),
        FlowEvent::IterationFinished { stats } => format!("iter-done {stats:?}"),
        FlowEvent::OptimizeFinished { stop, evaluations } => {
            format!("opt-done {stop:?} {evaluations}")
        }
        FlowEvent::PostOptStarted { area_con } => format!("post-start {area_con:?}"),
        FlowEvent::PostOptFinished { report } => format!("post-done {report:?}"),
        // runtime_s is the one wall-clock field in the stream: strip it.
        FlowEvent::FlowFinished {
            ratio_cpd, error, ..
        } => format!("done {ratio_cpd:?} {error:?}"),
        other => format!("other {other:?}"),
    }
}

/// Everything observable about one run that must not depend on the
/// SIMD width (or the thread count it is crossed with).
#[derive(Debug, PartialEq)]
struct RunDigest {
    method: String,
    final_netlist: Netlist,
    best_netlist: Netlist,
    best_fitness: f64,
    error: f64,
    area: f64,
    ratio_cpd: f64,
    gate_count: usize,
    evaluations: u64,
    stop: StopReason,
    history: Vec<IterationStats>,
    events: Vec<String>,
}

fn run_digest(
    width: SimdWidth,
    method: Method,
    seed: u64,
    threads: usize,
    budget: Budget,
) -> RunDigest {
    let ctx = quick_ctx(width);
    let events: RefCell<Vec<String>> = RefCell::new(Vec::new());
    let outcome = Flow::for_context(&ctx)
        .error_bound(0.05)
        .budget(budget)
        .optimizer(method.optimizer(&quick_cfg(seed, threads)))
        .observe(|ev: &FlowEvent| events.borrow_mut().push(event_key(ev)))
        .run()
        .expect("valid session");
    RunDigest {
        method: outcome.method.clone(),
        gate_count: outcome.netlist.logic_gate_count(),
        best_fitness: outcome.optimize.best.fitness,
        best_netlist: outcome.optimize.best.netlist.clone(),
        error: outcome.error,
        area: outcome.area,
        ratio_cpd: outcome.ratio_cpd,
        evaluations: outcome.optimize.evaluations,
        stop: outcome.stop(),
        history: outcome.optimize.history.clone(),
        final_netlist: outcome.netlist,
        events: events.into_inner(),
    }
}

#[test]
fn all_five_methods_are_bit_identical_across_widths_and_threads() {
    for method in ALL_METHODS {
        let baseline = run_digest(SimdWidth::W1, method, 11, 1, Budget::unlimited());
        assert_eq!(baseline.stop, StopReason::Completed, "{method}");
        for width in ALL_WIDTHS {
            for threads in [1usize, 4] {
                if width == SimdWidth::W1 && threads == 1 {
                    continue;
                }
                let run = run_digest(width, method, 11, threads, Budget::unlimited());
                assert_eq!(
                    baseline, run,
                    "{method}: W{width} x {threads} worker(s) diverged from the \
                     scalar sequential baseline"
                );
            }
        }
    }
}

#[test]
fn flow_simd_width_knob_matches_context_knob() {
    // `Flow::simd_width` reaches `build_context` on source-based
    // sessions; it must land on the same code path as widening a
    // prebuilt `EvalContext` — and on the same bits as every other
    // width.
    let accurate = Benchmark::Int2float.build();
    let digest = |width: SimdWidth| {
        let events: RefCell<Vec<String>> = RefCell::new(Vec::new());
        let outcome = Flow::for_netlist(&accurate)
            .metric(ErrorMetric::ErrorRate)
            .vectors(512)
            .pattern_seed(7)
            .error_bound(0.05)
            .simd_width(width)
            .optimizer(Method::Dcgwo.optimizer(&quick_cfg(31, 1)))
            .observe(|ev: &FlowEvent| events.borrow_mut().push(event_key(ev)))
            .run()
            .expect("valid session");
        (
            outcome.netlist,
            outcome.optimize.evaluations,
            events.into_inner(),
        )
    };
    let scalar = digest(SimdWidth::W1);
    for width in [SimdWidth::W4, SimdWidth::W8] {
        assert_eq!(
            digest(width),
            scalar,
            "W{width} diverged via Flow::simd_width"
        );
    }

    // And the ctx route produces those same bits.
    let via_ctx = run_digest(SimdWidth::W8, Method::Dcgwo, 31, 1, Budget::unlimited());
    assert_eq!(via_ctx.final_netlist, scalar.0);
    assert_eq!(via_ctx.evaluations, scalar.1);
    assert_eq!(via_ctx.events, scalar.2);
}

#[test]
fn deterministic_budgets_stop_identically_at_any_width() {
    // Budget caps are enforced per candidate in index order, never at a
    // width-dependent boundary, so a budgeted run stops at the very
    // same candidate whether the kernels walk 1 word or 8 per trip.
    for method in ALL_METHODS {
        for budget in [
            Budget::unlimited().with_max_evaluations(10),
            Budget::unlimited().with_max_iterations(1),
        ] {
            let scalar = run_digest(SimdWidth::W1, method, 5, 1, budget.clone());
            let wide = run_digest(SimdWidth::W8, method, 5, 4, budget);
            assert_eq!(
                scalar, wide,
                "{method}: budgeted run diverged at W8 x 4 workers"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Randomized corner of the acceptance check: any method, any
    /// seed, scalar sequential vs widest-kernel 4-worker — the digests
    /// are equal.
    #[test]
    fn equivalence_holds_for_random_seeds(seed in 0u64..1000, method_idx in 0usize..5) {
        let method = ALL_METHODS[method_idx];
        let scalar = run_digest(SimdWidth::W1, method, seed, 1, Budget::unlimited());
        let wide = run_digest(SimdWidth::W8, method, seed, 4, Budget::unlimited());
        prop_assert_eq!(scalar, wide);
    }
}
