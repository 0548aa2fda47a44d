//! Local approximate changes (LACs): wire-by-wire and wire-by-constant
//! substitution, target-set construction, and similarity-based switch
//! selection (§III-A / §III-B of the paper).

use rand::Rng;
use tdals_netlist::{GateId, Netlist, NetlistError, SignalRef};
use tdals_sim::SimWords;
use tdals_sta::{walk_worst_path, TimingReport};

/// One local approximate change: substitute every use of the target
/// gate's output with the switch signal.
///
/// With a constant switch this is a *wire-by-constant* LAC; with a gate
/// switch it is *wire-by-wire*. The paper draws switch gates from the
/// target's transitive fan-in, which guarantees the substitution cannot
/// create a combinational loop.
///
/// # Examples
///
/// ```
/// use tdals_core::Lac;
/// use tdals_netlist::{GateId, SignalRef};
///
/// let lac = Lac::new(GateId::new(8), SignalRef::Const0);
/// assert!(lac.is_wire_by_constant());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lac {
    target: GateId,
    switch: SignalRef,
}

impl Lac {
    /// Creates a LAC from a target gate and switch signal.
    pub fn new(target: GateId, switch: SignalRef) -> Lac {
        Lac { target, switch }
    }

    /// Gate whose output wire is substituted away.
    pub fn target(self) -> GateId {
        self.target
    }

    /// Signal taking the target's place.
    pub fn switch(self) -> SignalRef {
        self.switch
    }

    /// `true` when the switch is a constant (`wire-by-constant`).
    pub fn is_wire_by_constant(self) -> bool {
        self.switch.is_const()
    }

    /// Applies the substitution to a netlist, returning the number of
    /// rewritten references.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FaninOrder`] if the switch gate does not
    /// precede the target in topological id order.
    pub fn apply(self, netlist: &mut Netlist) -> Result<usize, NetlistError> {
        netlist.substitute(self.target, self.switch)
    }
}

/// Builds the target set `T_c` of circuit searching: all gates on the
/// worst path of each of the `path_count` latest primary outputs, plus —
/// with probability 0.5 per sampled gate — their gate fan-ins.
///
/// Primary inputs never enter the set (they cannot be approximated).
///
/// A worst path depends only on the gate it starts from, so each PO's
/// walk stops at the first gate an earlier walk already claimed: the
/// rest of its path is in the set already. The total walk is
/// O(distinct path gates), not O(POs × path length).
pub fn collect_targets<R: Rng>(
    netlist: &Netlist,
    report: &TimingReport,
    path_count: usize,
    rng: &mut R,
) -> Vec<GateId> {
    // Rank POs by arrival time, worst first.
    let mut pos: Vec<usize> = (0..netlist.output_count()).collect();
    pos.sort_by(|&a, &b| report.po_arrival(b).total_cmp(&report.po_arrival(a)));
    pos.truncate(path_count.max(1));

    let mut in_set = vec![false; netlist.gate_count()];
    let mut targets = Vec::new();
    for po in pos {
        // Walk from the PO side, then append the new stretch in path
        // order (nearest the inputs first).
        let fresh = targets.len();
        walk_worst_path(
            netlist,
            |g| report.arrival(g),
            netlist.output_driver(po),
            |gate| {
                if in_set[gate.index()] {
                    return false;
                }
                in_set[gate.index()] = true;
                targets.push(gate);
                true
            },
        );
        targets[fresh..].reverse();
    }
    // Uniform (0,1) sampling per path gate: above 0.5, adopt its fan-ins.
    let path_len = targets.len();
    for i in 0..path_len {
        if rng.gen::<f64>() > 0.5 {
            for fanin in netlist.gate(targets[i]).fanins() {
                if let SignalRef::Gate(src) = fanin {
                    if !in_set[src.index()] && !netlist.gate(*src).is_input() {
                        in_set[src.index()] = true;
                        targets.push(*src);
                    }
                }
            }
        }
    }
    targets
}

/// Selects the switch signal for `target` by output similarity: the
/// candidate pool is the target's transitive fan-in (sampled down to
/// `max_candidates` when large) plus the constants `0` and `1`; the
/// highest-similarity candidate wins.
///
/// `sim` is any [`SimWords`] view of the netlist — a full
/// [`SimResult`](tdals_sim::SimResult) or the incremental engine's
/// state ([`DeltaSim`](tdals_sim::DeltaSim)).
///
/// Returns `None` when the target has an empty fan-in cone and neither
/// constant improves on it (cannot happen in practice: constants are
/// always candidates).
pub fn select_switch<R: Rng, V: SimWords>(
    netlist: &Netlist,
    sim: &V,
    target: GateId,
    max_candidates: usize,
    rng: &mut R,
) -> Option<Lac> {
    let tfi = netlist.tfi_mask(target);
    let mut pool: Vec<SignalRef> = tfi
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(i, _)| SignalRef::Gate(GateId::new(i)))
        .collect();
    if pool.len() > max_candidates {
        // Sample without replacement via partial Fisher-Yates.
        for i in 0..max_candidates {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(max_candidates);
    }
    pool.push(SignalRef::Const0);
    pool.push(SignalRef::Const1);

    let target_sig = SignalRef::Gate(target);
    let mut best: Option<(SignalRef, f64)> = None;
    for cand in pool {
        if cand == target_sig {
            continue;
        }
        let s = sim.similarity(target_sig, cand);
        if best.is_none_or(|(_, bs)| s > bs) {
            best = Some((cand, s));
        }
    }
    best.map(|(switch, _)| Lac::new(target, switch))
}

/// Draws a random LAC anywhere in the circuit (used for initial
/// population seeding: "performing LACs on randomly selected target
/// gates of the accurate circuit").
pub fn random_lac<R: Rng, V: SimWords>(
    netlist: &Netlist,
    sim: &V,
    max_candidates: usize,
    rng: &mut R,
) -> Option<Lac> {
    let logic_gates: Vec<GateId> = netlist
        .iter()
        .filter(|(_, g)| !g.is_input())
        .map(|(id, _)| id)
        .collect();
    if logic_gates.is_empty() {
        return None;
    }
    let target = logic_gates[rng.gen_range(0..logic_gates.len())];
    select_switch(netlist, sim, target, max_candidates, rng)
}

/// Applies `lacs` random LACs (targets anywhere, switches by
/// similarity) to a copy of `netlist`: the approximate circuits the
/// differential tests feed the chase primitives.
#[cfg(test)]
pub(crate) fn random_lac_chain<R: Rng>(
    netlist: &Netlist,
    patterns: &tdals_sim::Patterns,
    lacs: usize,
    rng: &mut R,
) -> Netlist {
    let mut n = netlist.clone();
    for _ in 0..lacs {
        let sim = tdals_sim::simulate(&n, patterns);
        if let Some(lac) = random_lac(&n, &sim, 16, rng) {
            lac.apply(&mut n).expect("TFI switch is always legal");
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tdals_netlist::builder::Builder;
    use tdals_sim::{simulate, Patterns};
    use tdals_sta::{analyze, TimingConfig};

    fn test_circuit() -> Netlist {
        let mut b = Builder::new("t");
        let a = b.inputs("a", 4);
        let x = b.inputs("b", 4);
        let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &s);
        b.output("c", c);
        b.finish()
    }

    #[test]
    fn targets_come_from_critical_paths() {
        let n = test_circuit();
        let report = analyze(&n, &TimingConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let targets = collect_targets(&n, &report, 2, &mut rng);
        assert!(!targets.is_empty());
        for t in &targets {
            assert!(!n.gate(*t).is_input(), "PIs are never targets");
        }
        // The worst PO's driver must be in the set.
        let worst = report.critical_po();
        let driver = n.output_driver(worst).gate().expect("gate-driven PO");
        assert!(targets.contains(&driver));
    }

    #[test]
    fn switch_comes_from_tfi_or_constants() {
        let n = test_circuit();
        let p = Patterns::exhaustive(8);
        let sim = simulate(&n, &p);
        let mut rng = StdRng::seed_from_u64(2);
        for (id, gate) in n.iter() {
            if gate.is_input() {
                continue;
            }
            let lac = select_switch(&n, &sim, id, 16, &mut rng).expect("switch");
            assert_eq!(lac.target(), id);
            // Constant switches are always legal; gate switches must
            // come from the target's TFI.
            if let SignalRef::Gate(s) = lac.switch() {
                assert!(n.tfi_mask(id)[s.index()], "switch inside TFI");
            }
        }
    }

    #[test]
    fn applied_lac_never_creates_cycles() {
        let n = test_circuit();
        let p = Patterns::exhaustive(8);
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..50 {
            let mut approx = n.clone();
            let sim = simulate(&approx, &p);
            if let Some(lac) = random_lac(&approx, &sim, 16, &mut rng) {
                lac.apply(&mut approx).expect("TFI switch is always legal");
                approx
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            }
        }
    }

    #[test]
    fn switch_selection_picks_high_similarity() {
        // Build a circuit where gate `dup` duplicates gate `orig`:
        // similarity 1.0, so `dup`'s best switch must be `orig`.
        let mut b = Builder::new("dup");
        let a = b.input("a");
        let x = b.input("b");
        let orig = b.raw_gate(tdals_netlist::cell::CellFunc::And2, &[a, x]);
        let inv = b.not(orig);
        let dup = b.not(inv); // dup == orig functionally
        b.output("y", dup);
        let n = b.finish();
        let p = Patterns::exhaustive(2);
        let sim = simulate(&n, &p);
        let mut rng = StdRng::seed_from_u64(4);
        let dup_gate = dup.gate().expect("gate");
        let lac = select_switch(&n, &sim, dup_gate, 16, &mut rng).expect("switch");
        assert_eq!(lac.switch(), orig, "perfect-similarity switch chosen");
    }

    /// The full-walk `collect_targets` the early-stopping walk replaced:
    /// every PO's whole worst path, deduplicated on insertion.
    fn collect_targets_reference<R: Rng>(
        netlist: &Netlist,
        report: &TimingReport,
        path_count: usize,
        rng: &mut R,
    ) -> Vec<GateId> {
        let mut pos: Vec<usize> = (0..netlist.output_count()).collect();
        pos.sort_by(|&a, &b| report.po_arrival(b).total_cmp(&report.po_arrival(a)));
        pos.truncate(path_count.max(1));

        let mut in_set = vec![false; netlist.gate_count()];
        let mut targets = Vec::new();
        for po in pos {
            for gate in tdals_sta::critical_path_to_po(netlist, report, po) {
                if !in_set[gate.index()] && !netlist.gate(gate).is_input() {
                    in_set[gate.index()] = true;
                    targets.push(gate);
                }
            }
        }
        let path_gates = targets.clone();
        for gate in path_gates {
            if rng.gen::<f64>() > 0.5 {
                for fanin in netlist.gate(gate).fanins() {
                    if let SignalRef::Gate(src) = fanin {
                        if !in_set[src.index()] && !netlist.gate(*src).is_input() {
                            in_set[src.index()] = true;
                            targets.push(*src);
                        }
                    }
                }
            }
        }
        targets
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random LAC chains on three circuits, any path count: the
        /// early-stopping walk returns the same targets in the same
        /// order and leaves the RNG stream where the full walk did.
        #[test]
        fn early_stopping_walk_matches_full_walk(
            circuit in 0usize..3,
            seed in 0u64..1 << 32,
            lacs in 0usize..12,
            path_count in 1usize..80,
        ) {
            let accurate = [
                tdals_circuits::Benchmark::C880,
                tdals_circuits::Benchmark::Int2float,
                tdals_circuits::Benchmark::Max16,
            ][circuit]
            .build();
            let patterns = Patterns::random(accurate.input_count(), 128, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let n = random_lac_chain(&accurate, &patterns, lacs, &mut rng);
            let report = analyze(&n, &TimingConfig::default());
            let path_count = if path_count >= 64 { usize::MAX } else { path_count };
            let mut fast_rng = StdRng::seed_from_u64(seed ^ 1);
            let mut ref_rng = StdRng::seed_from_u64(seed ^ 1);
            let fast = collect_targets(&n, &report, path_count, &mut fast_rng);
            let reference = collect_targets_reference(&n, &report, path_count, &mut ref_rng);
            proptest::prop_assert_eq!(fast, reference);
            proptest::prop_assert_eq!(fast_rng.gen::<u64>(), ref_rng.gen::<u64>());
        }
    }

    #[test]
    fn wire_by_constant_classification() {
        let lac0 = Lac::new(GateId::new(5), SignalRef::Const0);
        let lacw = Lac::new(GateId::new(5), SignalRef::Gate(GateId::new(2)));
        assert!(lac0.is_wire_by_constant());
        assert!(!lacw.is_wire_by_constant());
    }
}
