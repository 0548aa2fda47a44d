//! Timing-driven gate sizing under an area constraint.
//!
//! This is the workspace's substitute for the paper's post-optimization
//! call into Design Compiler: "resize its remaining gates without
//! adjusting any circuit structure under area constraints `Area_con`"
//! (§III-C). The approximate circuit is smaller than the accurate one,
//! so the freed area budget is spent upsizing gates on (near-)critical
//! paths, converting area reduction into drive-strength — and hence
//! critical-path-delay — improvement.
//!
//! The algorithm is a classic greedy TILOS-style sizer:
//!
//! 1. run STA, extract the critical path;
//! 2. for every gate on it, locally estimate the CPD change of a one-step
//!    upsize (self speeds up, its drivers slow down under the higher pin
//!    capacitance);
//! 3. rank the moves that fit the area budget by estimated benefit per
//!    area (ties to the lower gate id) and try them in that order: each
//!    trial re-times the circuit incrementally through
//!    [`IncrementalSta::set_drive`], and the first move whose measured
//!    CPD improves is kept. A rejected trial is undone from the
//!    engine's log and leaves the timing unchanged, so the ranking
//!    stays valid and the next entry is tried; only an accepted move
//!    re-extracts the path and re-ranks;
//! 4. stop when no move fits or helps.
//!
//! The incremental engine is bit-identical to a full
//! [`analyze`](crate::analyze) (debug builds check this after every
//! trial and undo), so the sizer makes exactly the decisions of a
//! full-STA-per-trial loop.

use std::collections::HashMap;

use tdals_netlist::cell::Drive;
use tdals_netlist::{GateId, Netlist, SignalRef};

use crate::analysis::{walk_worst_path, TimingConfig};
use crate::incremental::IncrementalSta;

/// Options for [`size_for_timing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingConfig {
    /// Upper bound on accepted sizing moves (safety valve; the greedy
    /// loop normally stops on its own).
    pub max_moves: usize,
    /// Also consider upsizing the fan-ins of critical-path gates (their
    /// delay is on the path through the loading term).
    pub include_fanins: bool,
}

impl Default for SizingConfig {
    fn default() -> SizingConfig {
        SizingConfig {
            max_moves: 10_000,
            include_fanins: true,
        }
    }
}

/// Outcome of a sizing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingResult {
    /// Critical path delay before sizing, ps.
    pub cpd_before: f64,
    /// Critical path delay after sizing, ps.
    pub cpd_after: f64,
    /// Live area after sizing, µm².
    pub area_after: f64,
    /// Number of accepted upsize moves.
    pub moves: usize,
}

/// Estimated CPD benefit of upsizing `gate` one step, using local delay
/// arithmetic only (no full STA).
///
/// Negative values predict improvement. The estimate sums the gate's own
/// delay change at its current load with the slowdown of each fan-in
/// driver caused by the increased pin capacitance.
fn estimate_upsize_delta(netlist: &Netlist, load: f64, gate: GateId) -> Option<(Drive, f64)> {
    let g = netlist.gate(gate);
    if g.is_input() {
        return None;
    }
    let cell = g.cell();
    let up = cell.drive().upsize()?;
    let bigger = cell.with_drive(up);
    let mut delta = bigger.delay(load) - cell.delay(load);
    let cap_increase = bigger.input_cap() - cell.input_cap();
    for fanin in g.fanins() {
        if let SignalRef::Gate(src) = fanin {
            let drv = netlist.gate(*src);
            if !drv.is_input() {
                delta += drv.cell().resistance() * cap_increase;
            }
        }
    }
    Some((up, delta))
}

/// One candidate upsize, ranked by `score` (estimated CPD change per
/// µm² of extra area; lower is better).
#[derive(Debug, Clone, Copy)]
struct Move {
    gate: GateId,
    up: Drive,
    extra_area: f64,
    score: f64,
}

/// Sizer state shared by the ranking step: everything a candidate's
/// admissibility depends on besides the timing itself.
struct MoveFilter<'a> {
    live: &'a [bool],
    /// Gates whose last attempted upsize failed validation at the drive
    /// recorded here; retried only after they change drive via another
    /// accepted move.
    rejected: &'a HashMap<GateId, Drive>,
    area: f64,
    area_con: f64,
    include_fanins: bool,
}

/// Ranks the admissible upsizes of the current critical path (plus,
/// optionally, its live fan-ins) best first: by score, ties to the
/// lower gate id.
fn rank_moves(netlist: &Netlist, sta: &IncrementalSta, filter: &MoveFilter<'_>) -> Vec<Move> {
    let mut candidates: Vec<GateId> = Vec::new();
    let worst = netlist.output_driver(sta.critical_po(netlist));
    walk_worst_path(
        netlist,
        |g| sta.arrival(g),
        worst,
        |g| {
            candidates.push(g);
            true
        },
    );
    if filter.include_fanins {
        for i in 0..candidates.len() {
            for fanin in netlist.gate(candidates[i]).fanins() {
                if let SignalRef::Gate(src) = fanin {
                    if filter.live[src.index()] && !netlist.gate(*src).is_input() {
                        candidates.push(*src);
                    }
                }
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup();

    let mut moves: Vec<Move> = Vec::new();
    for g in candidates {
        let cell = netlist.gate(g).cell();
        if filter.rejected.get(&g) == Some(&cell.drive()) {
            continue;
        }
        let Some((up, delta)) = estimate_upsize_delta(netlist, sta.load(g), g) else {
            continue;
        };
        if delta >= 0.0 {
            continue;
        }
        let extra_area = cell.with_drive(up).area() - cell.area();
        if filter.area + extra_area > filter.area_con {
            continue;
        }
        moves.push(Move {
            gate: g,
            up,
            extra_area,
            score: delta / extra_area.max(1e-9),
        });
    }
    // Candidates arrive in id order, so a stable sort by score alone
    // breaks ties toward the lower id.
    moves.sort_by(|a, b| a.score.total_cmp(&b.score));
    moves
}

/// Greedily upsizes gates to minimize critical path delay while keeping
/// the live area at or below `area_con` µm².
///
/// The circuit structure is never modified — only drive strengths change
/// — so the function is function-preserving by construction. If the
/// circuit already exceeds `area_con`, no upsizing is performed (the
/// paper never encounters this case because approximate circuits shrink).
///
/// # Examples
///
/// ```
/// use tdals_netlist::Netlist;
/// use tdals_netlist::cell::{Cell, CellFunc, Drive};
/// use tdals_sta::{analyze, size_for_timing, SizingConfig, TimingConfig};
///
/// let mut n = Netlist::new("chain");
/// let a = n.add_input("a");
/// let mut prev = a.into();
/// for i in 0..6 {
///     prev = n.add_gate(format!("g{i}"), Cell::new(CellFunc::Nand2, Drive::X0),
///                       vec![prev, a.into()])?.into();
/// }
/// n.add_output("y", prev);
///
/// let cfg = TimingConfig::default();
/// let budget = n.area_live() * 2.0;
/// let result = size_for_timing(&mut n, &cfg, budget, &SizingConfig::default());
/// assert!(result.cpd_after <= result.cpd_before);
/// assert!(result.area_after <= budget);
/// # Ok::<(), tdals_netlist::NetlistError>(())
/// ```
pub fn size_for_timing(
    netlist: &mut Netlist,
    cfg: &TimingConfig,
    area_con: f64,
    sizing: &SizingConfig,
) -> SizingResult {
    let mut sta = IncrementalSta::new(netlist, *cfg);
    let cpd_before = sta.critical_path_delay(netlist);
    let mut cpd = cpd_before;
    let mut moves = 0usize;
    let live = netlist.live_mask();
    let mut rejected: HashMap<GateId, Drive> = HashMap::new();
    let mut area = netlist.area_live();

    // The ranking of the current timing, and how much of it was tried.
    let mut ranked: Vec<Move> = Vec::new();
    let mut tried = 0usize;
    let mut stale = true;
    while moves < sizing.max_moves {
        if stale {
            let filter = MoveFilter {
                live: &live,
                rejected: &rejected,
                area,
                area_con,
                include_fanins: sizing.include_fanins,
            };
            ranked = rank_moves(netlist, &sta, &filter);
            tried = 0;
            stale = false;
        }
        let Some(&Move {
            gate,
            up,
            extra_area,
            ..
        }) = ranked.get(tried)
        else {
            break;
        };
        tried += 1;

        tdals_obs::metrics().sizer_trials.incr();
        let old_drive = netlist.gate(gate).cell().drive();
        sta.set_drive(netlist, gate, up);
        #[cfg(debug_assertions)]
        sta.assert_exact(netlist);
        let new_cpd = sta.critical_path_delay(netlist);
        if new_cpd < cpd {
            cpd = new_cpd;
            area += extra_area;
            moves += 1;
            stale = true;
        } else {
            // Local estimate was optimistic; revert, remember the
            // failure at this drive, and let the next-ranked move
            // compete.
            sta.revert_drive(netlist);
            #[cfg(debug_assertions)]
            sta.assert_exact(netlist);
            rejected.insert(gate, old_drive);
        }
    }

    SizingResult {
        cpd_before,
        cpd_after: cpd,
        area_after: netlist.area_live(),
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::cell::{Cell, CellFunc};

    fn weak_chain(len: usize, width: usize) -> Netlist {
        // A chain of NAND2X0 gates with `width` parallel side-loads per
        // stage, so upsizing has real work to do.
        let mut n = Netlist::new("weak");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let mut prev: SignalRef = a.into();
        for i in 0..len {
            let g = n
                .add_gate(
                    format!("g{i}"),
                    Cell::new(CellFunc::Nand2, Drive::X0),
                    vec![prev, b.into()],
                )
                .expect("gate");
            for j in 0..width {
                let s = n
                    .add_gate(
                        format!("side{i}_{j}"),
                        Cell::new(CellFunc::Inv, Drive::X1),
                        vec![g.into()],
                    )
                    .expect("gate");
                n.add_output(format!("o{i}_{j}"), s.into());
            }
            prev = g.into();
        }
        n.add_output("y", prev);
        n
    }

    /// The full-STA-per-trial sizer the ranked, incremental loop
    /// replaced: re-ranks every candidate and re-runs `analyze` after
    /// every trial.
    fn size_for_timing_reference(
        netlist: &mut Netlist,
        cfg: &TimingConfig,
        area_con: f64,
        sizing: &SizingConfig,
    ) -> SizingResult {
        use crate::analysis::{analyze, critical_path};
        let mut report = analyze(netlist, cfg);
        let cpd_before = report.critical_path_delay();
        let mut cpd = cpd_before;
        let mut area = netlist.area_live();
        let mut moves = 0usize;
        let live = netlist.live_mask();
        let mut rejected: HashMap<GateId, Drive> = HashMap::new();
        while moves < sizing.max_moves {
            let path = critical_path(netlist, &report);
            if path.is_empty() {
                break;
            }
            let mut candidates: Vec<GateId> = path.clone();
            if sizing.include_fanins {
                for &g in &path {
                    for fanin in netlist.gate(g).fanins() {
                        if let SignalRef::Gate(src) = fanin {
                            if live[src.index()] && !netlist.gate(*src).is_input() {
                                candidates.push(*src);
                            }
                        }
                    }
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
            let mut best: Option<(GateId, Drive, f64, f64)> = None;
            for &g in &candidates {
                if rejected.get(&g) == Some(&netlist.gate(g).cell().drive()) {
                    continue;
                }
                let Some((up, delta)) = estimate_upsize_delta(netlist, report.load(g), g) else {
                    continue;
                };
                if delta >= 0.0 {
                    continue;
                }
                let cell = netlist.gate(g).cell();
                let extra_area = cell.with_drive(up).area() - cell.area();
                if area + extra_area > area_con {
                    continue;
                }
                let score = delta / extra_area.max(1e-9);
                if best.is_none_or(|(_, _, _, s)| score < s) {
                    best = Some((g, up, extra_area, score));
                }
            }
            let Some((g, up, extra_area, _)) = best else {
                break;
            };
            let old_drive = netlist.gate(g).cell().drive();
            netlist.set_drive(g, up);
            let new_report = analyze(netlist, cfg);
            let new_cpd = new_report.critical_path_delay();
            if new_cpd < cpd {
                cpd = new_cpd;
                area += extra_area;
                report = new_report;
                moves += 1;
            } else {
                netlist.set_drive(g, old_drive);
                rejected.insert(g, old_drive);
            }
        }
        SizingResult {
            cpd_before,
            cpd_after: cpd,
            area_after: netlist.area_live(),
            moves,
        }
    }

    /// A random DAG of mixed cells and drives with several outputs.
    fn random_dag(seed: u64, gates: usize) -> Netlist {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Netlist::new("dag");
        let mut pool: Vec<SignalRef> = (0..6)
            .map(|i| n.add_input(format!("x{i}")).into())
            .collect();
        let drives = [Drive::X0, Drive::X1, Drive::X2];
        for k in 0..gates {
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            let drive = drives[rng.gen_range(0..drives.len())];
            let (func, fanins) = match rng.gen_range(0..4) {
                0 => (CellFunc::Nand2, vec![a, b]),
                1 => (CellFunc::Xor2, vec![a, b]),
                2 => (CellFunc::Nor2, vec![a, b]),
                _ => (CellFunc::Inv, vec![a]),
            };
            let g = n
                .add_gate(format!("g{k}"), Cell::new(func, drive), fanins)
                .expect("gate");
            pool.push(g.into());
        }
        let len = pool.len();
        for (k, &sig) in pool[len - 8..].iter().enumerate() {
            n.add_output(format!("y{k}"), sig);
        }
        n
    }

    /// A ripple-carry adder with every gate at the weakest drive.
    fn weak_adder(bits: usize) -> Netlist {
        use tdals_netlist::builder::Builder;
        let mut b = Builder::new("add");
        let a = b.inputs("a", bits);
        let x = b.inputs("b", bits);
        let (sum, carry) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &sum);
        b.output("c", carry);
        let mut n = b.finish();
        let logic: Vec<GateId> = n
            .iter()
            .filter(|(_, g)| !g.is_input())
            .map(|(id, _)| id)
            .collect();
        for g in logic {
            n.set_drive(g, Drive::X0);
        }
        n
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Three circuit families, random sizing budgets, move caps and
        /// fan-in options: the ranked, incremental sizer makes exactly
        /// the decisions of the full-STA loop (same drives, same bits).
        #[test]
        fn ranked_incremental_sizer_matches_full_sta_loop(
            circuit in 0usize..3,
            seed in 0u64..1 << 32,
            headroom in 0.0f64..0.6,
            max_moves in 1usize..40,
            fanins in 0usize..2,
        ) {
            let n = match circuit {
                0 => weak_chain(6 + (seed % 6) as usize, 1 + (seed % 3) as usize),
                1 => random_dag(seed, 80),
                _ => weak_adder(4 + (seed % 5) as usize),
            };
            let cfg = TimingConfig::default();
            let budget = n.area_live() * (1.0 + headroom);
            let sizing = SizingConfig {
                max_moves: if max_moves > 30 { 10_000 } else { max_moves },
                include_fanins: fanins == 1,
            };
            let (mut fast, mut reference) = (n.clone(), n);
            let got = size_for_timing(&mut fast, &cfg, budget, &sizing);
            let want = size_for_timing_reference(&mut reference, &cfg, budget, &sizing);
            proptest::prop_assert_eq!(fast, reference);
            proptest::prop_assert_eq!(got.moves, want.moves);
            proptest::prop_assert_eq!(got.cpd_before.to_bits(), want.cpd_before.to_bits());
            proptest::prop_assert_eq!(got.cpd_after.to_bits(), want.cpd_after.to_bits());
            proptest::prop_assert_eq!(got.area_after.to_bits(), want.area_after.to_bits());
        }
    }

    #[test]
    fn equal_scores_rank_in_gate_id_order() {
        // The middle stages of a uniform chain estimate identically; the
        // full-STA loop's strict `<` scan took the lowest id among them.
        let n = weak_chain(8, 2);
        let sta = IncrementalSta::new(&n, TimingConfig::default());
        let live = n.live_mask();
        let rejected = HashMap::new();
        let filter = MoveFilter {
            live: &live,
            rejected: &rejected,
            area: n.area_live(),
            area_con: n.area_live() * 2.0,
            include_fanins: true,
        };
        let ranked = rank_moves(&n, &sta, &filter);
        let mut ties = 0;
        for pair in ranked.windows(2) {
            assert!(pair[0].score <= pair[1].score, "ranked best first");
            if pair[0].score == pair[1].score {
                ties += 1;
                assert!(pair[0].gate < pair[1].gate, "ties in id order");
            }
        }
        assert!(ties >= 3, "the chain has tied stages");
    }

    #[test]
    fn sizing_improves_cpd_within_budget() {
        let mut n = weak_chain(8, 2);
        let cfg = TimingConfig::default();
        let budget = n.area_live() * 1.5;
        let r = size_for_timing(&mut n, &cfg, budget, &SizingConfig::default());
        assert!(r.moves > 0, "expected at least one accepted move");
        assert!(r.cpd_after < r.cpd_before);
        assert!(r.area_after <= budget + 1e-9);
        n.check_invariants().expect("structure untouched");
    }

    #[test]
    fn sizing_is_function_preserving() {
        use tdals_sim::{simulate, Patterns};
        let mut n = weak_chain(4, 1);
        let p = Patterns::random(2, 512, 5);
        let before = simulate(&n, &p);
        let cfg = TimingConfig::default();
        let budget = n.area_live() * 2.0;
        size_for_timing(&mut n, &cfg, budget, &SizingConfig::default());
        let after = simulate(&n, &p);
        for po in 0..n.output_count() {
            for w in 0..p.word_count() {
                assert_eq!(before.po_word(po, w), after.po_word(po, w));
            }
        }
    }

    #[test]
    fn zero_headroom_budget_means_no_moves() {
        let mut n = weak_chain(4, 1);
        let cfg = TimingConfig::default();
        let area = n.area_live();
        let r = size_for_timing(&mut n, &cfg, area, &SizingConfig::default());
        assert_eq!(r.moves, 0);
        assert_eq!(r.cpd_after, r.cpd_before);
    }

    #[test]
    fn larger_budget_never_hurts() {
        let cfg = TimingConfig::default();
        let base = weak_chain(8, 2);
        let mut tight = base.clone();
        let mut loose = base.clone();
        let area = base.area_live();
        let rt = size_for_timing(&mut tight, &cfg, area * 1.1, &SizingConfig::default());
        let rl = size_for_timing(&mut loose, &cfg, area * 2.0, &SizingConfig::default());
        assert!(rl.cpd_after <= rt.cpd_after + 1e-9);
    }

    #[test]
    fn move_cap_is_respected() {
        let mut n = weak_chain(8, 2);
        let cfg = TimingConfig::default();
        let sizing = SizingConfig {
            max_moves: 1,
            ..SizingConfig::default()
        };
        let budget = n.area_live() * 3.0;
        let r = size_for_timing(&mut n, &cfg, budget, &sizing);
        assert!(r.moves <= 1);
    }
}
