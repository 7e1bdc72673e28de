//! Property coverage for the checkpoint file format.
//!
//! Two families:
//!
//! - **Roundtrip**: any serializable `LearnState` — including RNG
//!   state words at the integer extremes, FBDT frontier order, and
//!   oracle sub-state — must survive `to_file_bytes` →
//!   `from_file_bytes` exactly (`PartialEq` covers every field).
//! - **Corruption**: truncated files, single-bit flips, version skew
//!   and arbitrary garbage must surface as a typed
//!   [`CheckpointError`], never as a panic and *never* as a silently
//!   different state (misresume).

use std::time::Duration;

use cirlearn::checkpoint::CHECKPOINT_VERSION;
use cirlearn::fbdt::FbdtSnapshot;
use cirlearn::{CheckpointError, Cursor, LearnState, Strategy};
use cirlearn_logic::{Cube, Var};
use cirlearn_telemetry::json::Json;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counters and durations are JSON numbers in the checkpoint payload:
/// exact up to 2^53, unreachable in any real run (the format doc spells
/// out the bound). The generators stay inside it; full-width 64-bit
/// survival is exercised separately through the hex-encoded RNG words.
const EXACT: u64 = 1 << 53;

/// A random cube over at most `max_vars` variables (distinct by
/// construction, so `from_literals` always accepts).
fn random_cube(rng: &mut StdRng, max_vars: usize) -> Cube {
    let mut lits = Vec::new();
    for v in 0..max_vars {
        if !rng.gen_bool(0.4) {
            continue;
        }
        let var = Var::new(v as u32);
        lits.push(if rng.gen_bool(0.5) {
            var.positive()
        } else {
            var.negative()
        });
    }
    Cube::from_literals(lits).expect("distinct vars form a cube")
}

/// A random, internally consistent `LearnState` driven by `seed`.
fn random_state(seed: u64) -> LearnState {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_inputs = rng.gen_range(1..=24usize);
    let num_outputs = rng.gen_range(1..=6usize);

    let mut circuit = cirlearn_aig::Aig::new();
    let edges = circuit.add_inputs("i", num_inputs);
    let mut pool = edges.clone();
    for _ in 0..rng.gen_range(0..20usize) {
        let a = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.5));
        let b = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.5));
        pool.push(circuit.and(a, b));
    }

    let strategies = [
        Strategy::LinearTemplate,
        Strategy::ComparatorTemplate,
        Strategy::Exhaustive,
        Strategy::Fbdt,
        Strategy::CompressedFbdt,
        Strategy::Degraded,
    ];
    let out_edges: Vec<Option<u32>> = (0..num_outputs)
        .map(|_| {
            rng.gen_bool(0.6)
                .then(|| pool[rng.gen_range(0..pool.len())].code())
        })
        .collect();
    let cursor = if rng.gen_bool(0.5) {
        Cursor::NextOutput
    } else {
        let n_cubes = |rng: &mut StdRng| rng.gen_range(0..5usize);
        let onset: Vec<Cube> = (0..n_cubes(&mut rng))
            .map(|_| random_cube(&mut rng, num_inputs))
            .collect();
        let offset: Vec<Cube> = (0..n_cubes(&mut rng))
            .map(|_| random_cube(&mut rng, num_inputs))
            .collect();
        let frontier: Vec<Cube> = (0..n_cubes(&mut rng))
            .map(|_| random_cube(&mut rng, num_inputs))
            .collect();
        Cursor::Fbdt {
            snapshot: FbdtSnapshot {
                output: rng.gen_range(0..num_outputs),
                support: (0..num_inputs).filter(|_| rng.gen_bool(0.5)).collect(),
                truth_ratio_hint: rng.gen::<f64>(),
                collect_offset: rng.gen_bool(0.5),
                onset,
                offset,
                frontier,
                splits: rng.gen_range(0..1000),
                leaves: rng.gen_range(0..1000),
                forced_leaves: rng.gen_range(0..50),
                queries: rng.gen_range(0..EXACT),
            },
            max_queries: rng.gen_bool(0.5).then(|| rng.gen_range(0..EXACT)),
            partial_elapsed: Duration::from_micros(rng.gen_range(0..EXACT)),
            partial_queries: rng.gen_range(0..EXACT),
        }
    };
    LearnState {
        seed: rng.gen(),
        config_fingerprint: rng.gen(),
        // Hit the extremes the hex encoding must survive.
        rng: [0, u64::MAX, rng.gen(), 1u64 << 63],
        input_names: (0..num_inputs).map(|k| format!("i{k}")).collect(),
        output_names: (0..num_outputs).map(|k| format!("o{k}")).collect(),
        queries_used: rng.gen_range(0..EXACT),
        elapsed_before: Duration::from_micros(rng.gen_range(0..EXACT)),
        circuit_aiger: circuit.to_aiger_ascii(),
        edges: out_edges,
        strategies: (0..num_outputs)
            .map(|_| {
                rng.gen_bool(0.7)
                    .then(|| strategies[rng.gen_range(0..strategies.len())])
            })
            .collect(),
        supports: (0..num_outputs)
            .map(|_| {
                rng.gen_bool(0.7)
                    .then(|| (0..num_inputs).filter(|_| rng.gen_bool(0.4)).collect())
            })
            .collect(),
        forced: (0..num_outputs).map(|_| rng.gen_range(0..64)).collect(),
        out_elapsed: (0..num_outputs)
            .map(|_| Duration::from_micros(rng.gen_range(0..1u64 << 40)))
            .collect(),
        out_queries: (0..num_outputs).map(|_| rng.gen_range(0..EXACT)).collect(),
        truth_bias: (0..num_outputs)
            .map(|_| rng.gen_bool(0.5).then(|| rng.gen::<f64>()))
            .collect(),
        cursor,
        oracle: rng.gen_bool(0.5).then(|| {
            Json::object([
                ("fault_seq", Json::from(rng.gen_range(0u64..1 << 50))),
                ("kind", Json::from("faulty")),
            ])
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_preserves_every_field(seed in any::<u64>()) {
        let state = random_state(seed);
        let bytes = state.to_file_bytes();
        let back = LearnState::from_file_bytes(&bytes).expect("own bytes parse");
        prop_assert_eq!(back, state);
    }

    #[test]
    fn truncation_yields_a_typed_error(seed in any::<u64>(), at in any::<u64>()) {
        let bytes = random_state(seed).to_file_bytes();
        let cut = (at % bytes.len() as u64) as usize;
        // Never a panic, never an Ok with a different state.
        prop_assert!(LearnState::from_file_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn single_bit_flips_are_rejected(seed in any::<u64>(), pos in any::<u64>(), bit in 0..8u32) {
        let state = random_state(seed);
        let mut bytes = state.to_file_bytes();
        let idx = (pos % bytes.len() as u64) as usize;
        bytes[idx] ^= 1 << bit;
        // A flip either breaks the header, the checksum, the UTF-8
        // encoding or the JSON — all typed errors. (The flipped byte
        // can't equal the original; xor with a nonzero mask differs.)
        match LearnState::from_file_bytes(&bytes) {
            Err(_) => {}
            Ok(back) => prop_assert!(
                false,
                "bit flip at {idx} silently accepted: {:?} vs {:?}",
                back.queries_used,
                state.queries_used
            ),
        }
    }

    #[test]
    fn version_skew_is_a_version_error(seed in any::<u64>(), version in 0..1000u32) {
        // Every version but the current one, below it and above it.
        let version = if version == CHECKPOINT_VERSION { version + 1000 } else { version };
        let bytes = random_state(seed).to_file_bytes();
        let text = String::from_utf8(bytes).expect("checkpoint files are UTF-8");
        let skewed = text.replacen(
            &format!(" v{CHECKPOINT_VERSION} "),
            &format!(" v{version} "),
            1,
        );
        prop_assert!(skewed != text, "the header must carry the version token");
        let err = LearnState::from_file_bytes(skewed.as_bytes()).expect_err("wrong version");
        prop_assert!(
            matches!(err, CheckpointError::Version(_)),
            "want Version error, got {err}"
        );
    }

    #[test]
    fn arbitrary_garbage_never_panics(raw in prop::collection::vec(0..256u32, 512)) {
        // Random bytes virtually never carry a valid magic + checksum;
        // the point is that the parser returns instead of panicking.
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let _ = LearnState::from_file_bytes(&bytes);
    }
}

/// A checkpoint written by the v1 format (per-output support sweeps,
/// `support_sizes` instead of `supports`): an intact file from a real
/// suspended run, two outputs over ten inputs.
const V1_FILE: &[u8] = include_bytes!("data/checkpoint_v1.ckpt");

#[test]
fn real_v1_file_is_a_version_error() {
    let err = LearnState::from_file_bytes(V1_FILE).expect_err("v1 is no longer spoken");
    assert!(
        matches!(&err, CheckpointError::Version(v) if v == "v1"),
        "want Version(\"v1\"), got {err}"
    );
    // The file itself is intact — the version check is what stops it.
    // Relabelled as the current version it passes magic and checksum
    // and fails on the field v2 added.
    let text = std::str::from_utf8(V1_FILE).expect("UTF-8");
    let relabelled = text.replacen(" v1 ", &format!(" v{CHECKPOINT_VERSION} "), 1);
    let err = LearnState::from_file_bytes(relabelled.as_bytes()).expect_err("v1 payload");
    assert!(
        matches!(&err, CheckpointError::Parse(why) if why.contains("supports")),
        "want a Parse error naming `supports`, got {err}"
    );
}
