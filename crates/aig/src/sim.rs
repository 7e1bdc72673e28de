//! Bit-parallel and single-pattern simulation.

use cirlearn_logic::{Assignment, SimVector};

use crate::{Aig, Edge};

impl Aig {
    /// Simulates the whole graph on a block of patterns, returning one
    /// [`SimVector`] per node (indexed by node id).
    ///
    /// `inputs[k]` holds the pattern bits of the `k`-th primary input.
    /// All input vectors must have the same pattern count.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs` or pattern counts differ.
    pub fn simulate_nodes(&self, inputs: &[SimVector]) -> Vec<SimVector> {
        // panic-ok: documented `# Panics` contract guard, once per
        // simulated block (not per pattern).
        assert_eq!(inputs.len(), self.num_inputs(), "wrong input count");
        let patterns = inputs.first().map_or(0, SimVector::len);
        let mut values = Vec::with_capacity(self.node_count());
        values.push(SimVector::zeros(patterns));
        for v in inputs {
            // panic-ok: documented `# Panics` contract guard, once per
            // input vector.
            assert_eq!(v.len(), patterns, "pattern counts differ across inputs");
            values.push(v.clone());
        }
        for (_, a, b) in self.ands() {
            // panic-ok: fanin edges point at earlier nodes (topological
            // order by construction), all already pushed.
            let va = &values[a.node().index()];
            // panic-ok: same topological-order invariant.
            let vb = &values[b.node().index()];
            let v = SimVector::and2(va, a.is_complemented(), vb, b.is_complemented());
            values.push(v);
        }
        values
    }

    /// Simulates the graph on a block of patterns, returning one
    /// [`SimVector`] per primary output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs` or pattern counts differ.
    pub fn simulate(&self, inputs: &[SimVector]) -> Vec<SimVector> {
        let values = self.simulate_nodes(inputs);
        self.outputs()
            .iter()
            .map(|(e, _)| resolve(&values, *e))
            .collect()
    }

    /// Simulates a batch of full assignments, returning the output bits
    /// of each assignment in order.
    ///
    /// This is the access pattern of a black-box oracle: rows in, rows
    /// out. Internally the rows are transposed 64×64 bits at a time
    /// ([`SimVector::columns`]) and evaluated 64 patterns per word.
    ///
    /// # Panics
    ///
    /// Panics if any assignment is not exactly `num_inputs` wide.
    pub fn eval_batch(&self, patterns: &[Assignment]) -> Vec<Vec<bool>> {
        for p in patterns {
            // panic-ok: documented `# Panics` contract guard, once per
            // row (not per bit).
            assert_eq!(p.len(), self.num_inputs(), "wrong assignment width");
        }
        let inputs = SimVector::columns(patterns, self.num_inputs());
        let outputs = self.simulate(&inputs);
        (0..patterns.len())
            .map(|row| outputs.iter().map(|v| v.bit(row)).collect())
            .collect()
    }

    /// Evaluates all outputs on one full assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not exactly `num_inputs` wide.
    pub fn eval(&self, assignment: &Assignment) -> Vec<bool> {
        let bits: Vec<bool> = assignment.iter().collect();
        self.eval_bits(&bits)
    }
}

fn resolve(values: &[SimVector], e: Edge) -> SimVector {
    // panic-ok: `values` holds one vector per node and edges point at
    // existing nodes (checked when the edge was created).
    let mut v = values[e.node().index()].clone();
    if e.is_complemented() {
        v.not_assign();
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_logic::Var;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_aig() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.xor(a, b);
        let f = g.mux(c, ab, !a);
        g.add_output(f, "f");
        g.add_output(!ab, "g");
        g
    }

    #[test]
    fn simulate_matches_eval_bits() {
        let g = sample_aig();
        let mut rng = StdRng::seed_from_u64(11);
        let patterns: Vec<Assignment> = (0..200).map(|_| Assignment::random(3, &mut rng)).collect();
        let batch = g.eval_batch(&patterns);
        for (row, p) in patterns.iter().enumerate() {
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(batch[row], g.eval_bits(&bits), "row {row}");
        }
    }

    /// A random AIG over `inputs` inputs with a handful of outputs,
    /// built through the strashing API from `seed`.
    fn random_aig(inputs: usize, seed: u64) -> Aig {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut pool = g.add_inputs("x", inputs);
        for _ in 0..rng.gen_range(0..3 * inputs) {
            let a = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.5));
            let b = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.5));
            pool.push(g.and(a, b));
        }
        for k in 0..rng.gen_range(1..6) {
            let e = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.5));
            g.add_output(e, format!("y{k}"));
        }
        g
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The word-transposed batch path equals single-pattern
        /// evaluation row by row — partial 64-row blocks and inputs
        /// past the first word included.
        #[test]
        fn eval_batch_matches_eval_bits_rowwise(
            inputs in 1usize..=200,
            rows in 0usize..=300,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let g = random_aig(inputs, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let patterns: Vec<Assignment> =
                (0..rows).map(|_| Assignment::random(inputs, &mut rng)).collect();
            let batch = g.eval_batch(&patterns);
            proptest::prop_assert_eq!(batch.len(), rows);
            for (row, p) in patterns.iter().enumerate() {
                let bits: Vec<bool> = p.iter().collect();
                proptest::prop_assert_eq!(&batch[row], &g.eval_bits(&bits), "row {}", row);
            }
        }
    }

    #[test]
    fn eval_matches_eval_bits() {
        let g = sample_aig();
        let mut a = Assignment::zeros(3);
        a.set(Var::new(1), true);
        assert_eq!(g.eval(&a), g.eval_bits(&[false, true, false]));
    }

    #[test]
    fn simulate_complemented_output() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        g.add_output(!a, "na");
        let inputs = vec![SimVector::from_bits([true, false, true])];
        let out = g.simulate(&inputs);
        assert_eq!(out[0].iter().collect::<Vec<_>>(), vec![false, true, false]);
    }

    #[test]
    fn empty_pattern_block() {
        let g = sample_aig();
        let out = g.eval_batch(&[]);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "wrong input count")]
    fn wrong_input_count_panics() {
        let g = sample_aig();
        g.simulate(&[SimVector::zeros(4)]);
    }
}
