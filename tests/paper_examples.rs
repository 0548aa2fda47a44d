//! Recreates the paper's worked examples (Fig. 3 and Fig. 5) and checks
//! that this implementation produces exactly the published outcomes.
//!
//! Paper gate ids are 1-based (1-15); ours are 0-based (0-14), so
//! paper id `k` is `GateId::new(k - 1)` here.

use tdals::core::{reproduce, Candidate, LevelWeights};
use tdals::netlist::cell::{Cell, CellFunc, Drive};
use tdals::netlist::{GateId, Netlist, SignalRef};

/// The circuit of Fig. 3: PIs 1-4, gates 5-15 with the fan-in adjacency
/// listed in the figure.
fn fig3() -> Netlist {
    let x1 = |f| Cell::new(f, Drive::X1);
    let mut n = Netlist::new("fig3");
    for i in 1..=4 {
        n.add_input(format!("n{i}"));
    }
    let g = |k: usize| SignalRef::Gate(GateId::new(k - 1));
    let rows: [(usize, CellFunc, Vec<SignalRef>); 11] = [
        (5, CellFunc::And2, vec![g(1), g(2)]),
        (6, CellFunc::Or2, vec![g(2), g(3)]),
        (7, CellFunc::Nand2, vec![g(3), g(4)]),
        (8, CellFunc::And2, vec![g(5), g(6)]),
        (9, CellFunc::Xor2, vec![g(6), g(7)]),
        (10, CellFunc::Or2, vec![g(4), g(7)]),
        (11, CellFunc::Or2, vec![g(5), g(8)]),
        (12, CellFunc::And2, vec![g(9), g(10)]),
        (13, CellFunc::Inv, vec![g(11)]),
        (14, CellFunc::Buf, vec![g(9)]),
        (15, CellFunc::Inv, vec![g(12)]),
    ];
    for (id, func, fanins) in rows {
        let got = n
            .add_gate(format!("u{id}"), x1(func), fanins)
            .expect("paper adjacency is valid");
        assert_eq!(got, GateId::new(id - 1), "paper ids map 1:1");
    }
    n.add_output("po1", g(13));
    n.add_output("po2", g(14));
    n.add_output("po3", g(15));
    n.check_invariants().expect("Fig. 3 is a valid netlist");
    n
}

fn fanin_ids(n: &Netlist, paper_id: usize) -> Vec<SignalRef> {
    n.gate(GateId::new(paper_id - 1)).fanins().to_vec()
}

fn pg(paper_id: usize) -> SignalRef {
    SignalRef::Gate(GateId::new(paper_id - 1))
}

#[test]
fn fig3_adjacency_matches_figure() {
    let n = fig3();
    assert_eq!(fanin_ids(&n, 5), vec![pg(1), pg(2)]);
    assert_eq!(fanin_ids(&n, 11), vec![pg(5), pg(8)]);
    assert_eq!(fanin_ids(&n, 12), vec![pg(9), pg(10)]);
    assert_eq!(fanin_ids(&n, 15), vec![pg(12)]);
    assert_eq!(n.input_count(), 4);
    assert_eq!(n.output_count(), 3);
}

#[test]
fn fig5_wire_by_constant_searching() {
    // "the fan-in adjacency of the ID11 gate is changed from (5, 8) to
    // (5, con0), greatly decreasing the Path1 depth."
    let mut n = fig3();
    n.substitute(GateId::new(8 - 1), SignalRef::Const0)
        .expect("wire-by-constant is legal");
    assert_eq!(fanin_ids(&n, 11), vec![pg(5), SignalRef::Const0]);
    // Gate 8 is now dangling, like the figure's cs1 shows.
    assert!(!n.live_mask()[8 - 1]);
    n.check_invariants().expect("still valid");
}

#[test]
fn fig5_wire_by_wire_searching() {
    // "the fan-in adjacency of ID15 PO is changed from 12 to 10,
    // decreasing the Path3 depth" — gate 10 is in gate 12's TFI.
    let mut n = fig3();
    assert!(n.tfi_mask(GateId::new(12 - 1))[10 - 1]);
    n.substitute(GateId::new(12 - 1), pg(10))
        .expect("wire-by-wire from the TFI is legal");
    assert_eq!(fanin_ids(&n, 15), vec![pg(10)]);
    assert!(!n.live_mask()[12 - 1], "gate 12 dangles");
}

/// Builds an evaluated candidate whose per-PO `Level` values are fixed
/// by construction: with weights `(wt=1, we=0)` the level is `1/Ta`, so
/// `Ta = 1/level` reproduces the figure's numbers exactly.
fn candidate_with_levels(netlist: Netlist, levels: [f64; 3]) -> Candidate {
    Candidate {
        depth: 4,
        cpd: 1.0,
        area: netlist.area_live(),
        error: 0.0,
        fd: 1.0,
        fa: 1.0,
        fitness: 1.0,
        po_arrivals: levels.map(|l| 1.0 / l).to_vec(),
        po_errors: vec![1.0; 3],
        netlist,
    }
}

#[test]
fn fig5_circuit_reproduction_builds_cr1() {
    // Circuit cp1: the Fig. 3 netlist with PO3 re-pointed through
    // gate 7 (15:(7)); gates 12 and 10 dangling.
    let mut cp1 = fig3();
    cp1.set_fanins(GateId::new(15 - 1), &[pg(7)])
        .expect("15:(7)");
    // Circuit cp2: 11:(5,2) — gate 8 dangling.
    let mut cp2 = fig3();
    cp2.set_fanins(GateId::new(11 - 1), &[pg(5), pg(2)])
        .expect("11:(5,2)");

    // Levels from the figure: cp1 = (9.6, 10.2, 14.0),
    // cp2 = (11.3, 10.2, 10.6).
    let ca = candidate_with_levels(cp1, [9.6, 10.2, 14.0]);
    let cb = candidate_with_levels(cp2, [11.3, 10.2, 10.6]);
    // Pure timing weights make Level = 1/Ta exactly.
    let weights = LevelWeights::new(1.0, 0.0);
    let child = reproduce(&ca, &cb, &weights);
    child.check_invariants().expect("cr1 is valid");

    // cr1 per the figure: PO1-TFI from cp2 (13:(11), 11:(5,2), 5:(1,2)),
    // PO2-TFI shared, PO3-TFI from cp1 (15:(7), 7:(3,4)).
    assert_eq!(fanin_ids(&child, 11), vec![pg(5), pg(2)], "PO1 from cp2");
    assert_eq!(fanin_ids(&child, 13), vec![pg(11)]);
    assert_eq!(fanin_ids(&child, 15), vec![pg(7)], "PO3 from cp1");
    assert_eq!(fanin_ids(&child, 14), vec![pg(9)], "PO2 shared");
    assert_eq!(fanin_ids(&child, 9), vec![pg(6), pg(7)]);

    // "gates with IDs 8, 10 and 12 are not in any PO-TFI pair …
    // their information is selected from cp1 and cp2": both parents
    // agree on these rows, and the child keeps them.
    assert_eq!(fanin_ids(&child, 8), vec![pg(5), pg(6)]);
    assert_eq!(fanin_ids(&child, 10), vec![pg(4), pg(7)]);
    assert_eq!(fanin_ids(&child, 12), vec![pg(9), pg(10)]);

    // And exactly those three gates dangle in cr1, as drawn.
    let live = child.live_mask();
    for dangling in [8usize, 10, 12] {
        assert!(!live[dangling - 1], "gate {dangling} dangles in cr1");
    }
    for alive in [5usize, 6, 7, 9, 11, 13, 14, 15] {
        assert!(live[alive - 1], "gate {alive} is live in cr1");
    }
}
