//! Integration tests for the unified session API: the shared
//! `Optimizer` trait across DCGWO and all four baselines, the
//! observer-event protocol (monotone iterations, guaranteed terminal
//! event, bounded-latency cancellation), and budget enforcement.

use std::cell::RefCell;

use proptest::prelude::*;
use tdals::baselines::{Method, MethodConfig, ALL_METHODS};
use tdals::circuits::Benchmark;
use tdals::core::api::{Budget, CancelFlag, Flow, FlowEvent, FlowOutcome, StopReason};
use tdals::core::EvalContext;
use tdals::netlist::verilog;
use tdals::server::FlowJob;
use tdals::sim::{ErrorMetric, Patterns};
use tdals::sta::TimingConfig;

fn quick_ctx(seed: u64) -> EvalContext {
    let accurate = Benchmark::Int2float.build();
    EvalContext::new(
        &accurate,
        Patterns::random(accurate.input_count(), 512, seed),
        ErrorMetric::ErrorRate,
        TimingConfig::default(),
        0.8,
    )
}

fn quick_cfg(seed: u64) -> MethodConfig {
    MethodConfig::default()
        .with_population(6)
        .with_iterations(4)
        .with_seed(seed)
}

/// The `iteration` carried by an event, when it has one.
fn event_iteration(ev: &FlowEvent) -> Option<usize> {
    match ev {
        FlowEvent::IterationStarted { iteration, .. }
        | FlowEvent::BestImproved { iteration, .. }
        | FlowEvent::LacAccepted { iteration, .. } => Some(*iteration),
        FlowEvent::IterationFinished { stats } => Some(stats.iteration),
        _ => None,
    }
}

#[test]
fn all_five_methods_run_through_the_shared_trait() {
    // The acceptance check in miniature: one EvalContext, one Flow
    // shape, five optimizers, one FlowOutcome type.
    let ctx = quick_ctx(42);
    let cfg = quick_cfg(5);
    let outcomes: Vec<FlowOutcome> = ALL_METHODS
        .iter()
        .map(|method| {
            Flow::for_context(&ctx)
                .error_bound(0.05)
                .optimizer(method.optimizer(&cfg))
                .run()
                .expect("valid session")
        })
        .collect();
    for (method, outcome) in ALL_METHODS.iter().zip(&outcomes) {
        assert!(
            outcome.error <= 0.05 + 1e-12,
            "{method}: error {}",
            outcome.error
        );
        assert!(outcome.ratio_cpd <= 1.0 + 1e-9, "{method}");
        assert!(outcome.area <= ctx.area_ori() + 1e-9, "{method}");
        assert_eq!(outcome.stop(), StopReason::Completed, "{method}");
        assert!(outcome.optimize.evaluations > 0, "{method}");
        outcome.netlist.check_invariants().expect("valid netlist");
    }
    // Method names surface in the shared outcome.
    let names: Vec<&str> = outcomes.iter().map(|o| o.method.as_str()).collect();
    assert_eq!(names, ["VECBEE-S", "VaACS", "HEDALS", "GWO", "DCGWO"]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Observer protocol, for every method and across seeds: event
    /// iterations are monotone non-decreasing, the terminal
    /// OptimizeFinished event fires exactly once, FlowStarted opens and
    /// FlowFinished closes the stream.
    #[test]
    fn events_are_monotone_with_guaranteed_terminal(seed in 0u64..40, method_idx in 0usize..5) {
        let ctx = quick_ctx(7);
        let method = ALL_METHODS[method_idx];
        let events: RefCell<Vec<FlowEvent>> = RefCell::new(Vec::new());
        Flow::for_context(&ctx)
            .error_bound(0.05)
            .optimizer(method.optimizer(&quick_cfg(seed)))
            .observe(|ev: &FlowEvent| events.borrow_mut().push(ev.clone()))
            .run()
            .expect("valid session");
        let events = events.into_inner();

        prop_assert!(matches!(events.first(), Some(FlowEvent::FlowStarted { .. })));
        prop_assert!(matches!(events.last(), Some(FlowEvent::FlowFinished { .. })));
        let terminals = events
            .iter()
            .filter(|e| matches!(e, FlowEvent::OptimizeFinished { .. }))
            .count();
        prop_assert_eq!(terminals, 1, "exactly one terminal optimizer event");

        let mut last_iteration = 0usize;
        for ev in &events {
            if let Some(iteration) = event_iteration(ev) {
                prop_assert!(
                    iteration >= last_iteration,
                    "iteration went backwards: {} after {} ({method})",
                    iteration,
                    last_iteration
                );
                last_iteration = iteration;
            }
        }

        // Post-opt phase events bracket correctly after the optimizer.
        let opt_done = events
            .iter()
            .position(|e| matches!(e, FlowEvent::OptimizeFinished { .. }))
            .expect("terminal exists");
        let post_start = events
            .iter()
            .position(|e| matches!(e, FlowEvent::PostOptStarted { .. }))
            .expect("post-opt starts");
        let post_done = events
            .iter()
            .position(|e| matches!(e, FlowEvent::PostOptFinished { .. }))
            .expect("post-opt finishes");
        prop_assert!(opt_done < post_start && post_start < post_done);
    }

    /// Cancelling from inside the observer stops the run within one
    /// iteration: no iteration beyond `cancel_at + 1` ever starts, and
    /// the outcome still carries a feasible best plus the terminal
    /// event.
    #[test]
    fn cancellation_stops_within_one_iteration(
        seed in 0u64..20,
        cancel_at in 0usize..3,
        method_idx in 0usize..5,
    ) {
        let ctx = quick_ctx(7);
        let method = ALL_METHODS[method_idx];
        let budget = Budget::unlimited();
        let flag: CancelFlag = budget.cancel_flag();
        let max_started: RefCell<Option<usize>> = RefCell::new(None);
        let terminal_seen = RefCell::new(false);
        let outcome = Flow::for_context(&ctx)
            .error_bound(0.05)
            .budget(budget)
            .optimizer(method.optimizer(&quick_cfg(seed)))
            .observe(|ev: &FlowEvent| {
                if let FlowEvent::IterationStarted { iteration, .. } = ev {
                    *max_started.borrow_mut() = Some(*iteration);
                    if *iteration == cancel_at {
                        flag.cancel();
                    }
                }
                if matches!(ev, FlowEvent::OptimizeFinished { .. }) {
                    *terminal_seen.borrow_mut() = true;
                }
            })
            .run()
            .expect("valid session");
        prop_assert!(*terminal_seen.borrow(), "terminal event fires on cancellation");
        // The core property: once the flag is raised during iteration
        // `cancel_at`, no later iteration ever starts. (The method may
        // also converge naturally before — or during — that round, in
        // which case it reports Completed.)
        if let Some(max) = *max_started.borrow() {
            prop_assert!(
                max <= cancel_at,
                "iteration {} started after cancellation at {} ({})",
                max,
                cancel_at,
                method
            );
        }
        prop_assert!(
            matches!(outcome.stop(), StopReason::Cancelled | StopReason::Completed),
            "{}: unexpected stop {:?}",
            method,
            outcome.stop()
        );
        prop_assert!(outcome.error <= 0.05 + 1e-12, "best stays feasible");
    }
}

#[test]
fn deadline_budget_is_honored() {
    let ctx = quick_ctx(3);
    let outcome = Flow::for_context(&ctx)
        .error_bound(0.05)
        .budget(Budget::unlimited().with_deadline(std::time::Duration::ZERO))
        .optimizer(Method::Dcgwo.optimizer(&quick_cfg(1)))
        .run()
        .expect("valid session");
    assert_eq!(outcome.stop(), StopReason::DeadlineExpired);
    assert!(outcome.history().is_empty());
    assert!(outcome.error <= 0.05 + 1e-12);
}

#[test]
fn iteration_budget_truncates_every_method() {
    let ctx = quick_ctx(9);
    for method in ALL_METHODS {
        let outcome = Flow::for_context(&ctx)
            .error_bound(0.05)
            .budget(Budget::unlimited().with_max_iterations(2))
            .optimizer(method.optimizer(&quick_cfg(2)))
            .run()
            .expect("valid session");
        assert!(
            outcome.history().len() <= 2,
            "{method}: {} iterations ran past a 2-iteration budget",
            outcome.history().len()
        );
        assert!(outcome.error <= 0.05 + 1e-12, "{method}");
    }
}

#[test]
fn evaluation_counts_are_deterministic() {
    let ctx = quick_ctx(21);
    let run = || {
        Flow::for_context(&ctx)
            .error_bound(0.05)
            .optimizer(Method::Dcgwo.optimizer(&quick_cfg(6)))
            .run()
            .expect("valid session")
    };
    let a = run();
    let b = run();
    assert_eq!(a.optimize.evaluations, b.optimize.evaluations);
    assert_eq!(a.netlist, b.netlist);
}

#[test]
fn flow_result_is_never_slower_than_its_input() {
    // A c880 session from its Verilog round trip whose best
    // approximation came out of post-optimization slower than the
    // accurate circuit (Ratio_cpd 1.0020). The flow must fall back to
    // the accurate circuit, sized under the same area budget.
    let text = verilog::to_verilog(&Benchmark::C880.build());
    let job = FlowJob::verilog("c880", text)
        .with_metric(ErrorMetric::ErrorRate)
        .with_bound(0.03)
        .with_scale(8, 4)
        .with_vectors(512)
        .with_seed(11_433_928_545_154_310_608);
    let outcome = job.run_direct(1).expect("valid job");
    assert!(
        outcome.ratio_cpd <= 1.0,
        "Ratio_cpd {} exceeds 1",
        outcome.ratio_cpd
    );
    assert_eq!(outcome.error, 0.0, "the fallback is the accurate circuit");
    assert!(outcome.area <= outcome.area_con);
    assert_eq!(outcome.post_opt.cpd_final, outcome.cpd_fac);
    // The optimizer's own best is kept for inspection, and it is the
    // approximation that regressed.
    assert!(outcome.optimize.best.error > 0.0);
}
