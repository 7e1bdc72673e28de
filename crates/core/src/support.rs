//! Support identification (paper §IV-C).
//!
//! Estimate each output's support `S' ⊆ S` by unconstrained
//! `PatternSampling`: an input with a nonzero dependency count provably
//! belongs to the support; inputs with zero count are *assumed*
//! independent (the black-box setting cannot prove independence).
//!
//! Every query answers all outputs, so one sweep — a base block plus
//! one flip block per input — serves every output at once; the learner
//! runs it once per run over all outputs the templates left open.

use cirlearn_logic::Cube;
use cirlearn_oracle::Oracle;
use rand::rngs::StdRng;

use crate::sampling::{pattern_sampling, SamplingConfig};

/// The estimated support of one output.
#[derive(Debug, Clone)]
pub struct SupportInfo {
    /// Input positions with observed dependency, ascending.
    pub support: Vec<usize>,
    /// Dependency count per input position.
    pub dependency: Vec<u64>,
    /// Truth ratio observed during sampling.
    pub truth_ratio: f64,
}

impl SupportInfo {
    /// Inputs ordered by descending significance (dependency count).
    pub fn by_significance(&self) -> Vec<usize> {
        let mut s = self.support.clone();
        s.sort_by_key(|&i| std::cmp::Reverse(self.dependency[i]));
        s
    }
}

/// Identifies the approximate support `S'` of every output in
/// `outputs` with one shared sweep, returning one [`SupportInfo`] per
/// output in request order.
///
/// This is the paper's §IV-C procedure: unconstrained sampling (empty
/// cube) over all inputs with mixed 0/1 ratios. The sweep costs
/// `r · (n + 1)` queries however many outputs it serves.
pub fn identify_supports<O: Oracle + ?Sized>(
    oracle: &mut O,
    outputs: &[usize],
    config: &SamplingConfig,
    rng: &mut StdRng,
) -> Vec<SupportInfo> {
    let probe: Vec<usize> = (0..oracle.num_inputs()).collect();
    pattern_sampling(oracle, outputs, &Cube::top(), &probe, config, rng)
        .outputs
        .into_iter()
        .map(|s| SupportInfo {
            support: s.support(),
            truth_ratio: s.truth_ratio,
            dependency: s.dependency,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::seeded_rng;
    use cirlearn_aig::Aig;
    use cirlearn_oracle::CircuitOracle;

    #[test]
    fn support_matches_structure() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 10);
        let t = g.xor(inputs[2], inputs[7]);
        let y = g.or(t, inputs[9]);
        g.add_output(y, "y");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(11);
        let info = identify_supports(&mut o, &[0], &SamplingConfig::fast(), &mut rng).remove(0);
        assert_eq!(info.support, vec![2, 7, 9]);
        let sig = info.by_significance();
        assert!(sig.contains(&2) && sig.contains(&7) && sig.contains(&9));
        assert!(info.dependency[2] > 0 && info.dependency[9] > 0);
    }

    #[test]
    fn constant_output_has_empty_support() {
        let mut g = Aig::new();
        let _ = g.add_inputs("x", 6);
        g.add_output(cirlearn_aig::Edge::TRUE, "one");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(12);
        let info = identify_supports(&mut o, &[0], &SamplingConfig::fast(), &mut rng).remove(0);
        assert!(info.support.is_empty());
        assert!((info.truth_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_output_supports_are_independent() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 6);
        let y0 = g.and(inputs[0], inputs[1]);
        let y1 = g.or(inputs[4], inputs[5]);
        g.add_output(y0, "y0");
        g.add_output(y1, "y1");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(13);
        let infos = identify_supports(&mut o, &[0, 1], &SamplingConfig::fast(), &mut rng);
        assert_eq!(infos[0].support, vec![0, 1]);
        assert_eq!(infos[1].support, vec![4, 5]);
        // One sweep served both outputs.
        assert_eq!(o.queries(), 240 * 7);
    }
}
