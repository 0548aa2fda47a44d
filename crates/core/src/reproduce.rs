//! The *circuit reproduction* approximate action (§III-B): merge the
//! best PO-TFI pairs of two approximate circuits into one child, guided
//! by the `Level` evaluation of Eq. 3.

use tdals_netlist::{GateId, Netlist, SignalRef};

use crate::fitness::Candidate;

/// Weights of the PO-TFI pair evaluation function `Level` (Eq. 3).
///
/// `Level(PO_i) = wt / Ta(PO_i) + we / Error(PO_i)`. The paper sets
/// `wt = 0.9 × CPD_ori` under both metrics and `we = 0.1` (ER) or
/// `0.2` (NMED).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelWeights {
    /// Timing weight `wt` (already scaled by `CPD_ori`).
    pub wt: f64,
    /// Error weight `we`.
    pub we: f64,
    /// Floor applied to the per-PO error before taking `1/Error`.
    ///
    /// Eq. 3 degenerates at `Error = 0`; with a microscopic floor an
    /// error-free PO scores astronomically and reproduction would never
    /// adopt a *slightly* erroneous but much faster cone, disabling the
    /// merge mechanism entirely. Setting the floor at a fraction of the
    /// error budget treats every sufficiently-clean cone as equally
    /// clean and lets the timing term arbitrate among them.
    pub error_floor: f64,
}

impl LevelWeights {
    /// Creates explicit weights with a strict (1e-6) error floor.
    pub fn new(wt: f64, we: f64) -> LevelWeights {
        LevelWeights {
            wt,
            we,
            error_floor: 1e-6,
        }
    }

    /// The paper's setting for a circuit with the given accurate CPD:
    /// `wt = 0.9 × CPD_ori`, `we` as passed (0.1 for ER, 0.2 for NMED).
    pub fn paper_defaults(cpd_ori: f64, we: f64) -> LevelWeights {
        LevelWeights {
            wt: 0.9 * cpd_ori,
            we,
            error_floor: 1e-6,
        }
    }

    /// Same weights with the error floor raised to match an error
    /// budget (optimizers pass a fraction of the user bound).
    pub fn with_error_floor(mut self, floor: f64) -> LevelWeights {
        self.error_floor = floor.max(1e-9);
        self
    }

    /// `Level` score of one PO given its arrival time and error
    /// contribution.
    ///
    /// Both denominators are clamped. The timing term saturates at
    /// `100 × wt / CPD_ori`-scale for constant-driven POs (arrival ≈ 0),
    /// so a PO tied to a constant can never out-score an error-free PO:
    /// correctness rewards must dominate degenerate timing rewards.
    pub fn level(&self, arrival: f64, error: f64) -> f64 {
        let min_arrival = 0.01 * self.wt.max(1e-9); // wt ≈ 0.9·CPD_ori
        self.wt / arrival.max(min_arrival) + self.we / error.max(self.error_floor)
    }
}

/// Produces a child circuit from two evaluated parents by taking, for
/// every primary output, the PO-TFI pair with the higher `Level`.
///
/// Pairs are written in descending `Level` order and gates accept
/// adjacency information only from the first write-in, exactly as in the
/// paper's Fig. 5 walk-through; gates in no chosen cone keep parent
/// `a`'s adjacency (the paper: "their information is selected from cp1
/// and cp2"), which also covers dangling gates.
///
/// The writes are resolved without replaying them. Each chosen pair
/// gets its rank in the write order, and one reverse-topological sweep
/// per parent gives every gate the best (lowest) rank among that
/// parent's chosen cones containing it. A gate takes parent `b`'s row
/// exactly when `b`'s best rank beats `a`'s, which is what the first
/// write would have left. The cost is O(gates + pins) per parent,
/// independent of the output count.
///
/// # Panics
///
/// Panics if the parents disagree in gate or output count (they are
/// always approximations of the same accurate circuit).
pub fn reproduce(a: &Candidate, b: &Candidate, weights: &LevelWeights) -> Netlist {
    let na = &a.netlist;
    let nb = &b.netlist;
    assert_eq!(na.gate_count(), nb.gate_count(), "parents must be siblings");
    assert_eq!(
        na.output_count(),
        nb.output_count(),
        "parents must share outputs"
    );
    let choices = choose_pairs(a, b, weights);

    let mut child = na.clone();
    for choice in &choices {
        let parent = if choice.from_b { nb } else { na };
        child.set_output_driver(choice.po, parent.output_driver(choice.po));
    }
    let rank_a = first_write_ranks(na, &choices, false);
    let rank_b = first_write_ranks(nb, &choices, true);
    for (idx, (&ra, &rb)) in rank_a.iter().zip(&rank_b).enumerate() {
        let id = GateId::new(idx);
        if rb < ra && !nb.gate(id).is_input() {
            child
                .set_fanins(id, nb.gate(id).fanins())
                .expect("sibling adjacency rows always satisfy the id invariant");
        }
    }
    child
}

/// One PO's winning PO-TFI pair.
struct Choice {
    po: usize,
    from_b: bool,
    level: f64,
}

/// Scores every (po, parent) and picks the better parent per PO, in
/// write order: higher `Level` first, ties in PO order.
fn choose_pairs(a: &Candidate, b: &Candidate, weights: &LevelWeights) -> Vec<Choice> {
    let mut choices: Vec<Choice> = (0..a.netlist.output_count())
        .map(|po| {
            let la = weights.level(a.po_arrivals[po], a.po_errors[po]);
            let lb = weights.level(b.po_arrivals[po], b.po_errors[po]);
            if lb > la {
                Choice {
                    po,
                    from_b: true,
                    level: lb,
                }
            } else {
                Choice {
                    po,
                    from_b: false,
                    level: la,
                }
            }
        })
        .collect();
    choices.sort_by(|x, y| y.level.total_cmp(&x.level));
    choices
}

/// Per gate, the earliest write rank among the cones `parent` owns in
/// `choices` that contain the gate (`usize::MAX` for none).
///
/// Fan-ins have smaller ids than their readers, so one descending
/// sweep pushes each gate's rank into its fan-ins after every reader
/// has contributed.
fn first_write_ranks(parent: &Netlist, choices: &[Choice], from_b: bool) -> Vec<usize> {
    let mut rank = vec![usize::MAX; parent.gate_count()];
    for (r, choice) in choices.iter().enumerate() {
        if choice.from_b != from_b {
            continue;
        }
        if let SignalRef::Gate(driver) = parent.output_driver(choice.po) {
            let slot = &mut rank[driver.index()];
            *slot = (*slot).min(r);
        }
    }
    for idx in (0..rank.len()).rev() {
        let r = rank[idx];
        if r == usize::MAX {
            continue;
        }
        for fanin in parent.gate(GateId::new(idx)).fanins() {
            if let SignalRef::Gate(src) = fanin {
                let slot = &mut rank[src.index()];
                *slot = (*slot).min(r);
            }
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::EvalContext;
    use tdals_netlist::builder::Builder;
    use tdals_netlist::SignalRef;
    use tdals_sim::{ErrorMetric, Patterns};
    use tdals_sta::TimingConfig;

    fn setup() -> (Netlist, EvalContext) {
        let mut b = Builder::new("t");
        let a = b.inputs("a", 4);
        let x = b.inputs("b", 4);
        let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &s);
        b.output("c", c);
        let n = b.finish();
        let ctx = EvalContext::new(
            &n,
            Patterns::exhaustive(8),
            ErrorMetric::ErrorRate,
            TimingConfig::default(),
            0.8,
        );
        (n, ctx)
    }

    /// The per-PO write replay the one-sweep `reproduce` replaced: one
    /// cone mask and scan per chosen pair, first write wins.
    fn reproduce_reference(a: &Candidate, b: &Candidate, weights: &LevelWeights) -> Netlist {
        let (na, nb) = (&a.netlist, &b.netlist);
        let mut child = na.clone();
        let mut written = vec![false; na.gate_count()];
        for choice in &choose_pairs(a, b, weights) {
            let parent = if choice.from_b { nb } else { na };
            child.set_output_driver(choice.po, parent.output_driver(choice.po));
            let cone = parent.po_cone_mask(&[choice.po]);
            for (idx, &in_cone) in cone.iter().enumerate() {
                if in_cone && !written[idx] {
                    written[idx] = true;
                    let id = GateId::new(idx);
                    if !parent.gate(id).is_input() {
                        child
                            .set_fanins(id, parent.gate(id).fanins())
                            .expect("sibling rows");
                    }
                }
            }
        }
        child
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random parent pairs (independent LAC chains) on three
        /// circuits and several error floors: the sweep builds exactly
        /// the child the per-PO replay builds, in both parent orders.
        #[test]
        fn one_sweep_matches_per_po_replay(
            circuit in 0usize..3,
            seed in 0u64..1 << 32,
            lacs_a in 0usize..12,
            lacs_b in 0usize..12,
            floor in 0usize..3,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let accurate = [
                tdals_circuits::Benchmark::C880,
                tdals_circuits::Benchmark::Int2float,
                tdals_circuits::Benchmark::Max16,
            ][circuit]
            .build();
            let patterns = Patterns::random(accurate.input_count(), 128, seed);
            let ctx = EvalContext::new(
                &accurate,
                patterns.clone(),
                ErrorMetric::ErrorRate,
                TimingConfig::default(),
                0.8,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let pa = crate::lac::random_lac_chain(&accurate, &patterns, lacs_a, &mut rng);
            let pb = crate::lac::random_lac_chain(&accurate, &patterns, lacs_b, &mut rng);
            let (ca, cb) = (ctx.evaluate(pa), ctx.evaluate(pb));
            let w = LevelWeights::paper_defaults(ctx.cpd_ori(), 0.1)
                .with_error_floor([1e-6, 0.01, 0.2][floor]);
            proptest::prop_assert_eq!(reproduce(&ca, &cb, &w), reproduce_reference(&ca, &cb, &w));
            proptest::prop_assert_eq!(reproduce(&cb, &ca, &w), reproduce_reference(&cb, &ca, &w));
        }
    }

    #[test]
    fn level_prefers_fast_and_clean() {
        let w = LevelWeights::paper_defaults(100.0, 0.1);
        let fast_clean = w.level(50.0, 0.0);
        let slow_clean = w.level(100.0, 0.0);
        let fast_dirty = w.level(50.0, 0.5);
        assert!(fast_clean > slow_clean);
        assert!(fast_clean > fast_dirty);
    }

    #[test]
    fn identical_parents_reproduce_identically() {
        let (n, ctx) = setup();
        let cand = ctx.evaluate(n.clone());
        let child = reproduce(&cand, &cand, &LevelWeights::paper_defaults(100.0, 0.1));
        assert_eq!(child, n);
    }

    #[test]
    fn child_mixes_po_cones_from_both_parents() {
        let (n, ctx) = setup();
        // Parent A: damage PO 0's cone. Parent B: damage PO 4's cone.
        let mut pa = n.clone();
        let d0 = pa.output_driver(0).gate().expect("gate");
        pa.substitute(d0, SignalRef::Const0).expect("lac");
        let mut pb = n.clone();
        let d4 = pb.output_driver(4).gate().expect("gate");
        pb.substitute(d4, SignalRef::Const1).expect("lac");

        let ca = ctx.evaluate(pa);
        let cb = ctx.evaluate(pb);
        let w = LevelWeights::paper_defaults(ctx.cpd_ori(), 0.1);
        let child = reproduce(&ca, &cb, &w);
        child.check_invariants().expect("valid child");
        let cc = ctx.evaluate(child);
        // Best case: child inherits B's intact PO0 and A's intact PO4,
        // in which case it is error-free; at minimum it must not be
        // worse than both parents on every PO.
        assert!(
            cc.error <= ca.error.max(cb.error) + 1e-12,
            "child error {} vs parents {} / {}",
            cc.error,
            ca.error,
            cb.error
        );
    }

    #[test]
    fn child_satisfies_invariants_after_heavy_mixing() {
        let (n, ctx) = setup();
        use crate::search::{search_step, SearchConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let w = LevelWeights::paper_defaults(ctx.cpd_ori(), 0.1);
        for _ in 0..10 {
            let mut pa = n.clone();
            let mut pb = n.clone();
            for _ in 0..4 {
                search_step(&ctx, &mut pa, &SearchConfig::default(), &mut rng);
                search_step(&ctx, &mut pb, &SearchConfig::default(), &mut rng);
            }
            let ca = ctx.evaluate(pa);
            let cb = ctx.evaluate(pb);
            let child = reproduce(&ca, &cb, &w);
            child.check_invariants().expect("valid child");
            // Child outputs must each match one of the parents' drivers.
            for po in 0..child.output_count() {
                let d = child.output_driver(po);
                assert!(
                    d == ca.netlist.output_driver(po) || d == cb.netlist.output_driver(po),
                    "PO {po} driver comes from a parent"
                );
            }
        }
    }
}
