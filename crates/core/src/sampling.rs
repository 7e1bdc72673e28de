//! `PatternSampling` (paper Algorithm 1).
//!
//! The procedure takes the black-box generator and a constraining cube
//! `c`, and returns the *dependency count* `D_i` of every input not in
//! `c` plus the `TruthRatio` — the share of 1s among sampled outputs.
//!
//! `D_i` counts sampled assignment pairs `(α_i, α_{¬i})` on which the
//! output flips; `D_i ≠ 0` certifies input `i` is in the support, and
//! `argmax D_i` is the *most significant input* the FBDT splits on.
//!
//! Two implementation notes relative to the paper's pseudo code:
//!
//! * The paper draws fresh assignments for every input; we draw one
//!   base block of `r` assignments and flip each input against it, an
//!   optimization preserving the sampling distribution while cutting
//!   queries from `2r·|R|` to `r·(|R| + 1)`.
//! * The paper observes that uneven 0/1 ratios expose dependencies an
//!   even ratio misses; [`SamplingConfig::ratios`] cycles the blocks
//!   through `{0.5, 0.25, 0.75, 0.1, 0.9}` by default.

use cirlearn_logic::{Assignment, Cube, Var};
use cirlearn_oracle::Oracle;
use rand::rngs::StdRng;

/// Configuration for [`pattern_sampling`].
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Number of base assignments `r` (the paper uses 7200 for support
    /// identification and 60 inside the FBDT).
    pub rounds: usize,
    /// The 1-ratios cycled across base assignments.
    pub ratios: Vec<f64>,
}

impl SamplingConfig {
    /// The paper's support-identification setting (`r = 7200`).
    pub fn support_default() -> Self {
        SamplingConfig {
            rounds: 7200,
            ratios: vec![0.5, 0.25, 0.75, 0.1, 0.9],
        }
    }

    /// The paper's FBDT node setting (`r = 60`).
    pub fn node_default() -> Self {
        SamplingConfig {
            rounds: 60,
            ratios: vec![0.5, 0.25, 0.75],
        }
    }

    /// A reduced-effort setting for tests.
    pub fn fast() -> Self {
        SamplingConfig {
            rounds: 240,
            ratios: vec![0.5, 0.25, 0.75],
        }
    }
}

/// The outcome of one `PatternSampling` call over a set of outputs.
#[derive(Debug, Clone)]
pub struct SampleStats {
    /// One entry per requested output, in request order.
    pub outputs: Vec<OutputSample>,
    /// Oracle queries spent — shared by every output of the call,
    /// since each query answers all of them.
    pub queries: u64,
}

/// What one `PatternSampling` call observed for one output.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSample {
    /// Dependency count per primary-input position (entries for inputs
    /// outside the probe set are 0 and must be ignored).
    pub dependency: Vec<u64>,
    /// Proportion of 1s among all sampled values of this output.
    pub truth_ratio: f64,
}

impl OutputSample {
    /// The *most significant input*: the free input with the highest
    /// dependency count, or `None` if no dependency was observed.
    pub fn most_significant(&self, free: &[usize]) -> Option<usize> {
        free.iter()
            .copied()
            // panic-ok: callers pass `free ⊆ 0..num_inputs` and
            // `dependency` has exactly `num_inputs` slots.
            .max_by_key(|&i| self.dependency[i])
            // panic-ok: same bound as the `max_by_key` line.
            .filter(|&i| self.dependency[i] > 0)
    }

    /// The approximate support `S' = { i : D_i ≠ 0 }`.
    pub fn support(&self) -> Vec<usize> {
        self.dependency
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d > 0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Runs `PatternSampling(F, c)` for a set of outputs of the oracle.
///
/// Draws `config.rounds` base assignments constrained to satisfy
/// `cube`, then flips each input in `probe` (the paper's `R = I \ C`;
/// the caller restricts it further to the known support inside the
/// FBDT) across the whole block. Every query answers every output, so
/// one base block plus one flip block per probed input yields `D_i`
/// and the truth ratio of each output in `outputs` at once: support
/// identification passes every unlearned output, the FBDT and the
/// baselines pass one. Which outputs are requested does not touch the
/// RNG stream, so each output's counts equal those of a single-output
/// call from the same RNG state.
///
/// # Panics
///
/// Panics if an output is out of range or `probe` contains an input
/// constrained by `cube`.
pub fn pattern_sampling<O: Oracle + ?Sized>(
    oracle: &mut O,
    outputs: &[usize],
    cube: &Cube,
    probe: &[usize],
    config: &SamplingConfig,
    rng: &mut StdRng,
) -> SampleStats {
    let m = oracle.num_outputs();
    for &o in outputs {
        // panic-ok: entry contract guard, once per requested output
        // (not per pattern); every `row[o]` below relies on it.
        assert!(o < m, "output index out of range");
    }
    let n = oracle.num_inputs();
    for &i in probe {
        // panic-ok: entry contract guard — bounds every later
        // `dependency[i]` write and `flip` call.
        assert!(i < n, "probe input {i} out of range");
        // panic-ok: entry contract guard, once per probe input.
        assert!(
            !cube.contains_var(Var::new(i as u32)),
            "probe input {i} is fixed by the cube"
        );
    }
    let r = config.rounds.max(1);

    // Base block: r assignments satisfying the cube, with cycling
    // 1-ratios (an empty ratio list falls back to unbiased 0.5).
    let mut base: Vec<Assignment> = Vec::with_capacity(r);
    for k in 0..r {
        let ratio = config
            .ratios
            .get(k % config.ratios.len().max(1))
            .copied()
            .unwrap_or(0.5);
        let mut a = if (ratio - 0.5).abs() < f64::EPSILON {
            Assignment::random(n, rng)
        } else {
            Assignment::random_biased(n, ratio, rng)
        };
        a.constrain(cube);
        base.push(a);
    }
    let base_out = oracle.query_batch(&base);
    // Per requested output: 1s seen so far, and `D_i` per input.
    let mut ones: Vec<u64> = outputs
        .iter()
        // panic-ok: `o` bounded by the entry guard; rows have
        // `num_outputs` entries by the Oracle contract.
        .map(|&o| base_out.iter().filter(|row| row[o]).count() as u64)
        .collect();
    let mut dependency: Vec<Vec<u64>> = vec![vec![0u64; n]; outputs.len()];

    // One reusable flip block: flip the probed input in place, query,
    // then flip it back — no per-probe reallocation of r assignments.
    let mut flipped: Vec<Assignment> = base.clone();
    for &i in probe {
        let var = Var::new(i as u32);
        for f in &mut flipped {
            f.flip(var);
        }
        let flip_out = oracle.query_batch(&flipped);
        for f in &mut flipped {
            f.flip(var);
        }
        for ((dep, one), &o) in dependency.iter_mut().zip(&mut ones).zip(outputs) {
            let mut d = 0u64;
            for (b, f) in base_out.iter().zip(&flip_out) {
                // panic-ok: `o` bounded by the entry guard; rows have
                // `num_outputs` entries by the Oracle contract.
                d += u64::from(b[o] != f[o]);
                // panic-ok: same bound as the comparison above.
                *one += u64::from(f[o]);
            }
            // panic-ok: `i < n` checked by the entry guard and `dep`
            // has exactly `n` slots.
            dep[i] = d;
        }
    }

    let queries = (r * (probe.len() + 1)) as u64;
    SampleStats {
        outputs: dependency
            .into_iter()
            .zip(ones)
            .map(|(dependency, ones)| OutputSample {
                dependency,
                truth_ratio: ones as f64 / queries as f64,
            })
            .collect(),
        queries,
    }
}

/// Draws `count` random assignments satisfying `cube` and returns the
/// output values of output `output` — the leaf-test sampling used by
/// the FBDT when no split candidate remains.
pub fn sample_output<O: Oracle + ?Sized>(
    oracle: &mut O,
    output: usize,
    cube: &Cube,
    count: usize,
    rng: &mut StdRng,
) -> Vec<bool> {
    // panic-ok: entry contract guard, once per leaf test; bounds the
    // `row[output]` projection below.
    assert!(output < oracle.num_outputs(), "output index out of range");
    let n = oracle.num_inputs();
    let patterns: Vec<Assignment> = (0..count)
        .map(|k| {
            let mut a = if k % 3 == 0 {
                Assignment::random(n, rng)
            } else {
                Assignment::random_biased(n, if k % 3 == 1 { 0.25 } else { 0.75 }, rng)
            };
            a.constrain(cube);
            a
        })
        .collect();
    oracle
        .query_batch(&patterns)
        .into_iter()
        // panic-ok: `output` bounded by the entry guard; rows have
        // `num_outputs` entries by the Oracle contract.
        .map(|row| row[output])
        .collect()
}

/// Convenience: a seeded RNG for deterministic experiments.
pub fn seeded_rng(seed: u64) -> StdRng {
    use rand::SeedableRng;
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_aig::Aig;
    use cirlearn_logic::Literal;
    use cirlearn_oracle::CircuitOracle;

    /// y = x0 & x5 over 8 inputs (x1..x4, x6, x7 irrelevant).
    fn and_oracle() -> CircuitOracle {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 8);
        let y = g.and(inputs[0], inputs[5]);
        g.add_output(y, "y");
        CircuitOracle::new(g)
    }

    #[test]
    fn dependency_counts_identify_support() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(1);
        let probe: Vec<usize> = (0..8).collect();
        let stats = pattern_sampling(
            &mut o,
            &[0],
            &Cube::top(),
            &probe,
            &SamplingConfig::fast(),
            &mut rng,
        )
        .outputs
        .remove(0);
        assert_eq!(stats.support(), vec![0, 5]);
        assert!(stats.dependency[0] > 0 && stats.dependency[5] > 0);
        assert_eq!(stats.dependency[1], 0);
        let msi = stats.most_significant(&probe).expect("depends on inputs");
        assert!(msi == 0 || msi == 5);
    }

    #[test]
    fn truth_ratio_reflects_function() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(2);
        // Under the cube x0=1, x5=1 the function is constant 1.
        let cube = Cube::from_literals([
            Literal::new(Var::new(0), false),
            Literal::new(Var::new(5), false),
        ])
        .expect("consistent");
        let stats = pattern_sampling(
            &mut o,
            &[0],
            &cube,
            &[1, 2, 3],
            &SamplingConfig::fast(),
            &mut rng,
        )
        .outputs
        .remove(0);
        assert!((stats.truth_ratio - 1.0).abs() < 1e-9);
        assert!(stats.support().is_empty());
    }

    #[test]
    fn constrained_sampling_respects_cube() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(3);
        // x0=0 makes the output constant 0.
        let cube = Cube::from_literals([Literal::new(Var::new(0), true)]).expect("ok");
        let stats = pattern_sampling(&mut o, &[0], &cube, &[5], &SamplingConfig::fast(), &mut rng)
            .outputs
            .remove(0);
        assert_eq!(stats.truth_ratio, 0.0);
        assert_eq!(stats.dependency[5], 0);
    }

    #[test]
    #[should_panic(expected = "fixed by the cube")]
    fn probing_fixed_input_panics() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(4);
        let cube = Cube::from_literals([Literal::new(Var::new(0), false)]).expect("ok");
        pattern_sampling(&mut o, &[0], &cube, &[0], &SamplingConfig::fast(), &mut rng);
    }

    #[test]
    fn uneven_ratios_find_skewed_dependencies() {
        // y = AND of 12 inputs: under uniform sampling a flip of one
        // input changes the output only when the other 11 are all 1
        // (probability 2^-11); the 0.9-biased block sees it readily.
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 12);
        let y = g.and_many(&inputs);
        g.add_output(y, "y");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(5);
        let probe: Vec<usize> = (0..12).collect();
        let cfg = SamplingConfig {
            rounds: 600,
            ratios: vec![0.5, 0.9],
        };
        let stats = pattern_sampling(&mut o, &[0], &Cube::top(), &probe, &cfg, &mut rng)
            .outputs
            .remove(0);
        assert_eq!(stats.support().len(), 12, "all 12 inputs must be found");
    }

    #[test]
    fn sample_output_is_constrained() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(6);
        let cube = Cube::from_literals([
            Literal::new(Var::new(0), false),
            Literal::new(Var::new(5), false),
        ])
        .expect("ok");
        let vals = sample_output(&mut o, 0, &cube, 100, &mut rng);
        assert!(vals.iter().all(|&b| b));
    }

    #[test]
    fn query_accounting_matches_formula() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(7);
        let cfg = SamplingConfig {
            rounds: 50,
            ratios: vec![0.5],
        };
        let stats = pattern_sampling(&mut o, &[0], &Cube::top(), &[0, 1, 2], &cfg, &mut rng);
        // r * (|probe| + 1)
        assert_eq!(stats.queries, 50 * 4);
        assert_eq!(o.queries(), 50 * 4);
    }

    #[test]
    fn multi_output_call_equals_single_output_calls() {
        // Four outputs over 70 inputs (past one word): a shared input,
        // disjoint cones, a constant and a complemented output.
        let mut g = Aig::new();
        let x = g.add_inputs("x", 70);
        let y0 = g.xor(x[0], x[65]);
        let y1 = g.and_many(&x[3..9]);
        let y2 = g.or(x[0], x[40]);
        g.add_output(y0, "y0");
        g.add_output(y1, "y1");
        g.add_output(cirlearn_aig::Edge::TRUE, "one");
        g.add_output(!y2, "y2n");
        let cube = Cube::from_literals([Literal::new(Var::new(4), false)]).expect("ok");
        let probe: Vec<usize> = (0..70).filter(|&i| i != 4).collect();
        let outputs = [3, 0, 2, 1];
        for seed in [1u64, 2, 3] {
            let mut o = CircuitOracle::new(g.clone());
            let all = pattern_sampling(
                &mut o,
                &outputs,
                &cube,
                &probe,
                &SamplingConfig::fast(),
                &mut seeded_rng(seed),
            );
            assert_eq!(all.outputs.len(), outputs.len());
            for (k, &out) in outputs.iter().enumerate() {
                let one = pattern_sampling(
                    &mut o,
                    &[out],
                    &cube,
                    &probe,
                    &SamplingConfig::fast(),
                    &mut seeded_rng(seed),
                );
                assert_eq!(one.queries, all.queries, "queries, output {out}");
                assert_eq!(
                    one.outputs[0], all.outputs[k],
                    "seed {seed} output {out}: dependency and truth ratio"
                );
            }
            assert!(all.outputs[2].support().is_empty());
            assert_eq!(all.outputs[2].truth_ratio, 1.0);
            assert_eq!(all.outputs[1].support(), vec![0, 65]);
        }
    }
}
