//! The workloads: which hidden circuits each one learns, and how its
//! black boxes are built.
//!
//! Every hidden circuit is a Table II case from
//! `cirlearn_oracle::contest_suite()`. The workload seed derives a
//! permutation of each circuit's inputs (names travel with their
//! inputs), so each seed gives different black boxes of the same
//! difficulty. Drawing fresh generator seeds instead changes the work
//! itself from seed to seed (case_11 took 0.5 to 3.2 s, case_7's
//! gates ranged 5 to 29), which no bound on a median could absorb.
//! A case listed with several copies is learned under that many
//! different permutations, which averages out how the sampling luck
//! of one permutation moves the FBDT's queries, gates and accuracy,
//! and how the permutation moves learn time. In `support_sweep`,
//! case_5's and case_11's learn times moved by up to 30% between
//! permutations of equal query counts, case_1's and case_17's by under
//! 10%, so the first two get three copies and case_17 two.

use std::path::Path;
use std::time::{Duration, Instant};

use cirlearn_aig::{Aig, Edge};
use cirlearn_logic::Assignment;
use cirlearn_oracle::{
    contest_suite, Category, CircuitOracle, ContestCase, Oracle, OracleError, ProcessOracle,
    ResilientOracle, RetryPolicy,
};
use cirlearn_telemetry::json::Json;

pub struct Workload {
    pub name: &'static str,
    /// Table II cases learned, each with its number of permuted copies.
    pub cases: &'static [(&'static str, usize)],
    /// Query cap per learned circuit (`LearnerConfig::max_queries`).
    pub max_queries: Option<u64>,
    /// Served by a `cirlearn blackbox` child over the line protocol
    /// instead of in-process.
    pub pipe: bool,
    /// Every circuit must score 100%, and DIAG circuits must pass a SAT
    /// equivalence check against the hidden circuit.
    pub exact: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "support_sweep",
        cases: &[("case_1", 1), ("case_5", 3), ("case_11", 3), ("case_17", 2)],
        max_queries: None,
        pipe: false,
        exact: false,
    },
    Workload {
        name: "fbdt_deep",
        cases: &[("case_18", 12)],
        max_queries: Some(200_000),
        pipe: false,
        exact: false,
    },
    Workload {
        name: "datapath",
        cases: &[
            ("case_2", 2),
            ("case_12", 2),
            ("case_8", 8),
            ("case_15", 8),
            ("case_16", 8),
        ],
        max_queries: None,
        pipe: false,
        exact: true,
    },
    Workload {
        name: "blackbox_pipe",
        cases: &[("case_7", 1)],
        max_queries: None,
        pipe: true,
        exact: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Presents a black box's inputs in another order: the `k`-th
/// presented input is the box's input `order[k]`.
///
/// Only the process box needs it, since its child builds the roster
/// circuit itself; remapping costs well under 1% of a pipe round trip.
/// In-process boxes get a permuted circuit instead, so their queries
/// pay nothing.
pub struct Permuted<O> {
    inner: O,
    order: Vec<usize>,
    names: Vec<String>,
}

impl<O: Oracle> Permuted<O> {
    fn new(inner: O, order: Vec<usize>) -> Self {
        let names = order
            .iter()
            .map(|&k| inner.input_names()[k].clone())
            .collect();
        Permuted {
            inner,
            order,
            names,
        }
    }

    pub fn inner(&self) -> &O {
        &self.inner
    }

    fn to_inner(&self, presented: &Assignment) -> Assignment {
        let mut bits = vec![false; self.order.len()];
        for (bit, &k) in presented.iter().zip(&self.order) {
            bits[k] = bit;
        }
        Assignment::from_bits(bits)
    }

    fn batch_to_inner(&self, presented: &[Assignment]) -> Vec<Assignment> {
        presented.iter().map(|a| self.to_inner(a)).collect()
    }
}

impl<O: Oracle> Oracle for Permuted<O> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn input_names(&self) -> &[String] {
        &self.names
    }

    fn output_names(&self) -> &[String] {
        self.inner.output_names()
    }

    fn query(&mut self, input: &Assignment) -> Vec<bool> {
        let input = self.to_inner(input);
        self.inner.query(&input)
    }

    fn query_batch(&mut self, inputs: &[Assignment]) -> Vec<Vec<bool>> {
        let inputs = self.batch_to_inner(inputs);
        self.inner.query_batch(&inputs)
    }

    fn try_query(&mut self, input: &Assignment) -> Result<Vec<bool>, OracleError> {
        let input = self.to_inner(input);
        self.inner.try_query(&input)
    }

    fn try_query_batch(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
        let inputs = self.batch_to_inner(inputs);
        self.inner.try_query_batch(&inputs)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn checkpoint_state(&self) -> Option<Json> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), OracleError> {
        self.inner.restore_state(state)
    }
}

/// The black box the learner queries.
pub enum BlackBox {
    Local(CircuitOracle),
    /// A child process behind the client stack `cirlearn learn-bb`
    /// uses, with its inputs permuted on the client side.
    Pipe(Box<Permuted<ResilientOracle<ProcessOracle>>>),
}

/// One hidden circuit of a workload, ready to learn.
pub struct Case {
    /// The Table II case it comes from.
    pub name: &'static str,
    pub category: Category,
    /// Permutation seed derived from the workload seed.
    pub seed: u64,
    /// The hidden circuit as the learner sees it, for scoring and
    /// checks only.
    pub golden: Aig,
    pub bbox: BlackBox,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Fisher–Yates shuffle of `0..n` drawn from `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut z = seed;
    for i in (1..n).rev() {
        z = splitmix64(z);
        order.swap(i, (z % (i as u64 + 1)) as usize);
    }
    order
}

/// `aig` with input `order[k]` moved to position `k`.
fn permute_inputs(aig: &Aig, order: &[usize]) -> Aig {
    let mut out = Aig::new();
    let mut map = vec![Edge::FALSE; aig.node_count()];
    for &k in order {
        map[aig.input_edge(k).node().index()] = out.add_input(aig.input_name(k));
    }
    let lit = |map: &[Edge], e: Edge| map[e.node().index()].complement_if(e.is_complemented());
    for (node, a, b) in aig.ands() {
        let and = out.and(lit(&map, a), lit(&map, b));
        map[node.index()] = and;
    }
    for (edge, name) in aig.outputs() {
        out.add_output(lit(&map, *edge), name.clone());
    }
    out
}

/// Spawns a `cirlearn blackbox` child serving the roster circuit and
/// waits for its first answer: the child builds its circuit before it
/// answers.
fn spawn_child(
    cirlearn: &Path,
    roster: &ContestCase,
    hidden: &Aig,
) -> Result<ProcessOracle, String> {
    let category = match roster.category {
        Category::Neq => "neq",
        Category::Eco => "eco",
        Category::Diag => "diag",
        Category::Data => "data",
    };
    let mut args = vec![
        "blackbox".to_owned(),
        category.to_owned(),
        roster.num_inputs.to_string(),
        roster.num_outputs.to_string(),
        "--seed".to_owned(),
        roster.seed.to_string(),
    ];
    if let Some(k) = roster.support {
        args.extend(["--support".to_owned(), k.to_string()]);
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outputs = hidden.outputs().iter().map(|(_, n)| n.clone()).collect();
    let program = cirlearn.to_str().ok_or("cirlearn path is not UTF-8")?;
    let mut child = ProcessOracle::spawn(program, &args, hidden.input_names().to_vec(), outputs)
        .map_err(|e| format!("spawning {program}: {e}"))?;
    let ones = Assignment::from_bits(vec![true; hidden.num_inputs()]);
    let first = child
        .try_query(&ones)
        .map_err(|e| format!("first answer of the black box child: {e}"))?;
    if first != hidden.eval(&ones) {
        return Err(format!(
            "the black box child does not serve {}",
            roster.name
        ));
    }
    Ok(child)
}

/// One planned black box: roster entry, permutation seed and order.
struct Plan {
    roster: ContestCase,
    seed: u64,
    order: Vec<usize>,
}

/// Builds every black box of the workload `reps` times, timing each
/// full build, and keeps the last build.
///
/// In-process boxes time the generator, the input permutation and
/// `CircuitOracle::new`; a process box times spawning the child up to
/// its first answer.
pub fn setup(
    workload: &'static Workload,
    seed: u64,
    cirlearn: Option<&Path>,
    reps: usize,
) -> Result<(Vec<Case>, Vec<Duration>), String> {
    let suite = contest_suite();
    let mut plans = Vec::new();
    for &(name, copies) in workload.cases {
        let roster = suite
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| format!("{name} is not in the Table II roster"))?;
        for _ in 0..copies {
            let seed = splitmix64(splitmix64(seed) ^ plans.len() as u64);
            let order = permutation(roster.num_inputs, seed);
            plans.push(Plan {
                roster: roster.clone(),
                seed,
                order,
            });
        }
    }

    let mut times = Vec::with_capacity(reps);
    let mut built: Vec<(Aig, BlackBox)> = Vec::new();
    if workload.pipe {
        let cirlearn = cirlearn.ok_or("this workload needs --cirlearn <path>")?;
        let hidden: Vec<Aig> = plans
            .iter()
            .map(|p| p.roster.build().reveal().clone())
            .collect();
        for _ in 0..reps {
            // The previous children are reaped before the clock starts.
            built.clear();
            let start = Instant::now();
            for (plan, hidden) in plans.iter().zip(&hidden) {
                let child = spawn_child(cirlearn, &plan.roster, hidden)?;
                let client = ResilientOracle::new(child, RetryPolicy::default());
                let golden = permute_inputs(hidden, &plan.order);
                let bbox = BlackBox::Pipe(Box::new(Permuted::new(client, plan.order.clone())));
                built.push((golden, bbox));
            }
            times.push(start.elapsed());
        }
    } else {
        for _ in 0..reps {
            built.clear();
            let start = Instant::now();
            for plan in &plans {
                let golden = permute_inputs(plan.roster.build().reveal(), &plan.order);
                let bbox = BlackBox::Local(CircuitOracle::new(golden.clone()));
                built.push((golden, bbox));
            }
            times.push(start.elapsed());
        }
    }
    let cases = plans
        .into_iter()
        .zip(built)
        .map(|(plan, (golden, bbox))| Case {
            name: plan.roster.name,
            category: plan.roster.category,
            seed: plan.seed,
            golden,
            bbox,
        })
        .collect();
    Ok((cases, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permuted_box_and_circuit_agree() {
        let roster = &contest_suite()[6]; // case_7
        let hidden = roster.build().reveal().clone();
        let order = permutation(hidden.num_inputs(), 42);
        assert_ne!(order, (0..hidden.num_inputs()).collect::<Vec<_>>());
        let golden = permute_inputs(&hidden, &order);
        let mut boxed = Permuted::new(roster.build(), order);
        assert_eq!(boxed.input_names(), golden.input_names());
        let patterns: Vec<Assignment> = (0..64u64)
            .map(|i| {
                let z = splitmix64(i);
                Assignment::from_bits((0..golden.num_inputs()).map(|b| (z >> (b % 64)) & 1 == 1))
            })
            .collect();
        assert_eq!(boxed.query_batch(&patterns), golden.eval_batch(&patterns));
    }
}
