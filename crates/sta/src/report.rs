//! Human-readable timing reports (the `report_timing` view a signoff
//! tool prints).

use std::fmt::Write as _;

use tdals_netlist::{Netlist, SignalRef};

use crate::analysis::{critical_path_to_po, TimingReport};

/// Options for [`timing_report_text`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportOptions {
    /// How many worst primary outputs to detail.
    pub path_count: usize,
    /// Maximum gates printed per path (tail is elided).
    pub max_gates_per_path: usize,
}

impl Default for ReportOptions {
    fn default() -> ReportOptions {
        ReportOptions {
            path_count: 3,
            max_gates_per_path: 32,
        }
    }
}

/// Renders a PrimeTime-style text report: summary line plus the worst
/// `path_count` PO paths with per-stage arrival, load, and cell.
///
/// # Examples
///
/// ```
/// use tdals_netlist::builder::Builder;
/// use tdals_sta::{analyze, timing_report_text, ReportOptions, TimingConfig};
///
/// let mut b = Builder::new("t");
/// let a = b.input("a");
/// let g = b.not(a);
/// b.output("y", g);
/// let n = b.finish();
/// let report = analyze(&n, &TimingConfig::default());
/// let text = timing_report_text(&n, &report, &ReportOptions::default());
/// assert!(text.contains("critical path delay"));
/// assert!(text.contains("y"));
/// ```
pub fn timing_report_text(
    netlist: &Netlist,
    report: &TimingReport,
    options: &ReportOptions,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "timing report for module `{}`", netlist.name());
    let _ = writeln!(
        out,
        "  critical path delay : {:.2} ps (depth {} levels)",
        report.critical_path_delay(),
        report.max_depth()
    );
    let _ = writeln!(
        out,
        "  live area           : {:.2} um2",
        netlist.area_live()
    );

    // Rank POs by arrival, worst first.
    let mut pos: Vec<usize> = (0..netlist.output_count()).collect();
    pos.sort_by(|&a, &b| report.po_arrival(b).total_cmp(&report.po_arrival(a)));
    for &po in pos.iter().take(options.path_count) {
        let _ = writeln!(
            out,
            "\n  path to PO `{}` — arrival {:.2} ps, depth {}",
            netlist.output_name(po),
            report.po_arrival(po),
            report.po_depth(po)
        );
        let _ = writeln!(
            out,
            "    {:>10}  {:>8}  {:<10}  instance",
            "arrival", "load fF", "cell"
        );
        let path = critical_path_to_po(netlist, report, po);
        let shown = path.len().min(options.max_gates_per_path);
        for &gate in path.iter().rev().take(shown) {
            let _ = writeln!(
                out,
                "    {:>10.2}  {:>8.2}  {:<10}  {}",
                report.arrival(gate),
                report.load(gate),
                netlist.gate(gate).cell().lib_name(),
                netlist.gate_name(gate)
            );
        }
        if path.len() > shown {
            let _ = writeln!(out, "    ... {} earlier stages elided", path.len() - shown);
        }
        if let SignalRef::Const0 | SignalRef::Const1 = netlist.output_driver(po) {
            let _ = writeln!(out, "    (constant output)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, TimingConfig};
    use tdals_netlist::builder::Builder;

    fn sample() -> Netlist {
        let mut b = Builder::new("sample");
        let a = b.inputs("a", 3);
        let g1 = b.and(a[0], a[1]);
        let g2 = b.xor(g1, a[2]);
        let g3 = b.or(g2, a[0]);
        b.output("fast", g1);
        b.output("slow", g3);
        b.finish()
    }

    #[test]
    fn report_contains_worst_pos_in_order() {
        let n = sample();
        let r = analyze(&n, &TimingConfig::default());
        let text = timing_report_text(&n, &r, &ReportOptions::default());
        let slow_pos = text.find("PO `slow`").expect("slow PO listed");
        let fast_pos = text.find("PO `fast`").expect("fast PO listed");
        assert!(slow_pos < fast_pos, "worst PO first");
    }

    #[test]
    fn path_count_limits_output() {
        let n = sample();
        let r = analyze(&n, &TimingConfig::default());
        let opts = ReportOptions {
            path_count: 1,
            ..ReportOptions::default()
        };
        let text = timing_report_text(&n, &r, &opts);
        assert!(text.contains("PO `slow`"));
        assert!(!text.contains("PO `fast`"));
    }

    #[test]
    fn long_paths_are_elided() {
        let mut b = Builder::new("deep");
        let a = b.input("a");
        let mut s = a;
        for _ in 0..40 {
            s = b.not(s);
        }
        b.output("y", s);
        let n = b.finish();
        let r = analyze(&n, &TimingConfig::default());
        let opts = ReportOptions {
            path_count: 1,
            max_gates_per_path: 8,
        };
        let text = timing_report_text(&n, &r, &opts);
        assert!(text.contains("elided"));
    }
}
