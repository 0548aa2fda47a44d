//! Fan-out adjacency in compressed sparse row form.
//!
//! A [`Netlist`] stores only fan-in rows. Engines that chase a mutation
//! forwards through its transitive fan-out (incremental simulation and
//! timing, TFO masks) need the reverse relation; [`Fanouts`] holds it as
//! two flat arrays instead of one heap list per gate, so building or
//! copying it costs a pair of allocations.

use crate::netlist::{GateId, Netlist, SignalRef};

/// For each gate, the gates reading its output: one entry per reader
/// pin, listed in ascending reader id.
///
/// Readers of gate `g` are `readers[offsets[g]..offsets[g + 1]]`. The
/// ascending order is part of the contract: incremental timing re-sums a
/// gate's load over its readers in exactly this order, which is the
/// order a from-scratch analysis uses.
///
/// # Examples
///
/// ```
/// use tdals_netlist::builder::Builder;
///
/// let mut b = Builder::new("t");
/// let a = b.input("a");
/// let x = b.not(a);
/// let y = b.and(a, x);
/// b.output("y", y);
/// let n = b.finish();
/// let fanouts = n.fanouts();
/// let a = a.gate().expect("gate");
/// assert_eq!(fanouts.readers(a), &[x.gate().unwrap(), y.gate().unwrap()]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fanouts {
    /// `gate_count + 1` prefix sums into `readers`.
    offsets: Vec<u32>,
    readers: Vec<GateId>,
}

impl Fanouts {
    /// Builds the fan-out relation of `netlist` (two passes over its
    /// fan-in rows); [`Netlist::fanouts`] is the public entry point.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` reader pins.
    pub(crate) fn new(netlist: &Netlist) -> Fanouts {
        let n = netlist.gate_count();
        let mut offsets = vec![0u32; n + 1];
        for (_, gate) in netlist.iter() {
            for fanin in gate.fanins() {
                if let SignalRef::Gate(src) = fanin {
                    offsets[src.index() + 1] += 1;
                }
            }
        }
        for i in 0..n {
            offsets[i + 1] = offsets[i]
                .checked_add(offsets[i + 1])
                .expect("reader pin count exceeds u32::MAX");
        }
        // Filling in id order keeps every list sorted by reader id.
        let mut cursor = offsets.clone();
        let mut readers = vec![GateId::new(0); offsets[n] as usize];
        for (id, gate) in netlist.iter() {
            for fanin in gate.fanins() {
                if let SignalRef::Gate(src) = fanin {
                    let slot = &mut cursor[src.index()];
                    readers[*slot as usize] = id;
                    *slot += 1;
                }
            }
        }
        Fanouts { offsets, readers }
    }

    fn range(&self, id: GateId) -> std::ops::Range<usize> {
        self.offsets[id.index()] as usize..self.offsets[id.index() + 1] as usize
    }

    /// The gates reading `id`'s output, one entry per reader pin, in
    /// ascending id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn readers(&self, id: GateId) -> &[GateId] {
        &self.readers[self.range(id)]
    }

    /// Moves every reader of `target` to `switch`, mirroring
    /// [`Netlist::substitute`]: afterwards the relation equals
    /// [`Netlist::fanouts`] of the substituted netlist.
    ///
    /// A gate switch grows by the target's readers and the lists between
    /// the two shift up by as many entries; a constant switch drops them.
    /// Either way one contiguous move of the array does it.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is a gate with id ≥ `target` (the substitution
    /// would break the topological id invariant).
    pub fn substitute(&mut self, target: GateId, switch: SignalRef) {
        let t = self.range(target);
        let moved = t.len();
        if moved == 0 {
            return;
        }
        let delta = u32::try_from(moved).expect("offsets fit u32");
        match switch {
            SignalRef::Gate(sw) => {
                assert!(
                    sw < target,
                    "switch {sw} must precede target {target} in id order"
                );
                let s = self.range(sw);
                let taken: Vec<GateId> = self.readers[t.clone()].to_vec();
                self.readers.copy_within(s.end..t.start, s.end + moved);
                self.readers[s.end..s.end + moved].copy_from_slice(&taken);
                self.readers[s.start..s.end + moved].sort_unstable();
                for off in &mut self.offsets[sw.index() + 1..=target.index()] {
                    *off += delta;
                }
            }
            SignalRef::Const0 | SignalRef::Const1 => {
                self.readers.drain(t);
                for off in &mut self.offsets[target.index() + 1..] {
                    *off -= delta;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::cell::CellFunc;

    /// SplitMix64: a dependency-free stream for the random DAGs.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// The per-gate lists the compressed form replaced, built the
    /// obvious way: one push per reader pin in id order.
    fn reference_lists(n: &Netlist) -> Vec<Vec<GateId>> {
        let mut lists = vec![Vec::new(); n.gate_count()];
        for (id, gate) in n.iter() {
            for fanin in gate.fanins() {
                if let SignalRef::Gate(src) = fanin {
                    lists[src.index()].push(id);
                }
            }
        }
        lists
    }

    fn assert_matches_reference(f: &Fanouts, n: &Netlist) {
        let lists = reference_lists(n);
        assert_eq!(f.offsets.len(), lists.len() + 1);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(f.readers(GateId::new(i)), list.as_slice(), "gate {i}");
        }
    }

    /// A random DAG with 1-, 2- and 3-input gates; pins may repeat a
    /// driver, so a reader can appear twice in one list.
    fn random_dag(rng: &mut Rng) -> Netlist {
        let mut b = Builder::new("dag");
        let mut pool: Vec<SignalRef> = (0..4).map(|i| b.input(format!("x{i}"))).collect();
        for _ in 0..10 + rng.below(70) {
            let kind = rng.below(4);
            let mut pick = || pool[rng.below(pool.len())];
            let (func, fanins) = match kind {
                0 => (CellFunc::Inv, vec![pick()]),
                1 => (CellFunc::Nand2, vec![pick(), pick()]),
                2 => (CellFunc::Xor2, vec![pick(), pick()]),
                _ => (CellFunc::And3, vec![pick(), pick(), pick()]),
            };
            let g = b.raw_gate(func, &fanins);
            pool.push(g);
        }
        let len = pool.len();
        for (k, &s) in pool[len - 3..].iter().enumerate() {
            b.output(format!("y{k}"), s);
        }
        b.finish()
    }

    #[test]
    fn compressed_lists_equal_per_gate_lists_on_random_dags() {
        let mut rng = Rng(5);
        for _ in 0..40 {
            let n = random_dag(&mut rng);
            assert_matches_reference(&n.fanouts(), &n);
        }
    }

    #[test]
    fn patched_lists_equal_a_rebuild_after_substitutions() {
        let mut rng = Rng(17);
        for _ in 0..40 {
            let mut n = random_dag(&mut rng);
            let mut f = n.fanouts();
            for _ in 0..10 {
                let target = GateId::new(4 + rng.below(n.gate_count() - 4));
                let switch = match rng.below(3) {
                    0 => SignalRef::Const0,
                    1 => SignalRef::Const1,
                    _ => SignalRef::Gate(GateId::new(rng.below(target.index()))),
                };
                n.substitute(target, switch)
                    .expect("switch precedes target");
                f.substitute(target, switch);
                assert_matches_reference(&f, &n);
            }
        }
    }
}
