//! The STA counters of the `tdals-obs` registry count what they name.
//!
//! The registry is process-wide, so this file holds a single test: no
//! other test in the binary can move the counters between snapshots.

use tdals_netlist::cell::{Cell, CellFunc, Drive};
use tdals_netlist::{Netlist, SignalRef};
use tdals_sta::{analyze, size_for_timing, SizingConfig, TimingConfig};

fn counters() -> (u64, u64) {
    let m = tdals_obs::metrics();
    (m.sta_full_passes.get(), m.sizer_trials.get())
}

/// A chain of reconvergent stages: two identical NAND2X0 gates feed
/// one XOR2X0, so upsizing either NAND alone cannot speed the stage
/// and the sizer rejects such trials.
fn reconvergent_chain(len: usize) -> Netlist {
    let mut n = Netlist::new("reconvergent");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let mut prev: SignalRef = a.into();
    for i in 0..len {
        let nand = Cell::new(CellFunc::Nand2, Drive::X0);
        let n1 = n
            .add_gate(format!("n{i}a"), nand, vec![prev, b.into()])
            .expect("gate");
        let n2 = n
            .add_gate(format!("n{i}b"), nand, vec![prev, b.into()])
            .expect("gate");
        let x = n
            .add_gate(
                format!("x{i}"),
                Cell::new(CellFunc::Xor2, Drive::X0),
                vec![n1.into(), n2.into()],
            )
            .expect("gate");
        n.add_output(format!("o{i}"), x.into());
        prev = x.into();
    }
    n
}

#[test]
fn full_passes_and_sizer_trials_are_counted() {
    let cfg = TimingConfig::default();
    let mut n = reconvergent_chain(8);

    let (passes, trials) = counters();
    analyze(&n, &cfg);
    assert_eq!(counters(), (passes + 1, trials), "one analyze, one pass");

    // The sizer times incrementally: trials, but no full passes.
    let budget = n.area_live() * 1.5;
    let r = size_for_timing(&mut n, &cfg, budget, &SizingConfig::default());
    let (passes_after, trials_after) = counters();
    assert_eq!(passes_after, passes + 1, "the sizer runs no analyze");
    assert!(r.moves > 0);
    assert!(
        trials_after - trials > r.moves as u64,
        "every accepted move is a trial, and some trials were rejected"
    );
}
