//! Post-optimization (§III-C): dangling-gate deletion followed by
//! timing-driven gate re-sizing under an area constraint, converting the
//! optimizer's area savings into further critical-path-delay reduction.

use tdals_netlist::Netlist;
use tdals_sta::{analyze, size_for_timing, SizingConfig, TimingConfig};

/// Options for [`post_optimize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostOptConfig {
    /// Area constraint `Area_con` in µm² — usually the accurate
    /// circuit's area (TABLEs II/III set it a hair below `Area_ori`).
    pub area_con: f64,
    /// Sizer tunables.
    pub sizing: SizingConfig,
}

impl PostOptConfig {
    /// Budget at exactly `area_con` with default sizing behaviour.
    pub fn new(area_con: f64) -> PostOptConfig {
        PostOptConfig {
            area_con,
            sizing: SizingConfig::default(),
        }
    }
}

/// Outcome of post-optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostOptReport {
    /// Dangling gates removed by the sweep.
    pub gates_removed: usize,
    /// CPD before any post-optimization, ps.
    pub cpd_before: f64,
    /// CPD after the dangling sweep (load relief alone), ps.
    pub cpd_after_sweep: f64,
    /// Final CPD after sizing (`CPD_fac`), ps.
    pub cpd_final: f64,
    /// Final live area, µm².
    pub area_final: f64,
    /// Accepted sizing moves.
    pub sizing_moves: usize,
}

/// Runs the full post-optimization on an approximate netlist in place.
///
/// Deletes every gate with an (transitively) empty fan-out, then
/// greedily upsizes critical-path gates while total area stays within
/// `cfg.area_con`. The circuit function is untouched: the sweep only
/// removes unobservable gates and the sizer only changes drive
/// strengths.
pub fn post_optimize(
    netlist: &mut Netlist,
    timing: &TimingConfig,
    cfg: &PostOptConfig,
) -> PostOptReport {
    let cpd_before = analyze(netlist, timing).critical_path_delay();
    let gates_removed = netlist.sweep_dangling();
    // The sizer's opening timing pass is exact, so its starting CPD is
    // the post-sweep CPD: no second full pass needed.
    let sizing = size_for_timing(netlist, timing, cfg.area_con, &cfg.sizing);
    PostOptReport {
        gates_removed,
        cpd_before,
        cpd_after_sweep: sizing.cpd_before,
        cpd_final: sizing.cpd_after,
        area_final: sizing.area_after,
        sizing_moves: sizing.moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::builder::Builder;
    use tdals_netlist::SignalRef;
    use tdals_sim::{simulate, Patterns};

    fn approximated_adder() -> Netlist {
        let mut b = Builder::new("t");
        let a = b.inputs("a", 6);
        let x = b.inputs("b", 6);
        let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &s);
        b.output("c", c);
        let mut n = b.finish();
        // Approximate: kill the top sum bit's cone.
        let d = n.output_driver(5).gate().expect("gate");
        n.substitute(d, SignalRef::Const0).expect("lac");
        n
    }

    #[test]
    fn sweep_then_size_improves_cpd() {
        let mut n = approximated_adder();
        let timing = TimingConfig::default();
        let area_con = n.area_total(); // pre-LAC area as the budget
        let report = post_optimize(&mut n, &timing, &PostOptConfig::new(area_con));
        assert!(report.gates_removed > 0, "LAC left dangling gates");
        assert!(report.cpd_after_sweep <= report.cpd_before + 1e-9);
        assert!(report.cpd_final <= report.cpd_after_sweep + 1e-9);
        assert!(report.area_final <= area_con + 1e-9);
        n.check_invariants().expect("valid after post-opt");
    }

    #[test]
    fn post_opt_preserves_function() {
        let mut n = approximated_adder();
        let p = Patterns::random(12, 1024, 3);
        let before = simulate(&n, &p);
        let timing = TimingConfig::default();
        let area_con = n.area_total() * 1.2;
        post_optimize(&mut n, &timing, &PostOptConfig::new(area_con));
        let after = simulate(&n, &p);
        for po in 0..n.output_count() {
            for w in 0..p.word_count() {
                assert_eq!(
                    before.po_word(po, w),
                    after.po_word(po, w),
                    "PO {po} word {w}"
                );
            }
        }
    }

    #[test]
    fn tight_budget_still_sweeps() {
        let mut n = approximated_adder();
        let timing = TimingConfig::default();
        // Budget below current area: sizing can do nothing, sweep still runs.
        let report = post_optimize(&mut n, &timing, &PostOptConfig::new(1.0));
        assert!(report.gates_removed > 0);
        assert_eq!(report.sizing_moves, 0);
    }
}
