//! Crash-safe checkpointing of learning runs.
//!
//! A long anytime run must survive being killed — by an operator, a
//! job scheduler, or a power cut — without losing hours of oracle
//! queries. This module defines [`LearnState`]: an explicit, fully
//! serializable snapshot of everything the [`Learner`](crate::Learner)
//! needs to continue *bit-identically* from a stage boundary:
//!
//! - the partial circuit (as canonical ASCII AIGER, whose import
//!   rebuilds identical node ids and repopulates the structural-hash
//!   table),
//! - per-output progress (learned edges, strategies, the supports the
//!   shared support sweep estimated, forced-leaf counts, per-output
//!   wall clock and query counts, observed truth biases),
//! - the run cursor — either "start the next unfinished output" or a
//!   mid-construction FBDT frontier with its collected onset/offset
//!   cubes,
//! - the RNG state (all four xoshiro256++ words, so every future
//!   sample pair is the one the uninterrupted run would have drawn),
//! - cumulative query and wall-clock totals across all segments, and
//! - the oracle stack's own resume state (fault-injection schedules,
//!   retry-jitter salts) via [`Oracle::checkpoint_state`](cirlearn_oracle::Oracle::checkpoint_state).
//!
//! # File format
//!
//! A checkpoint file is a one-line header followed by a JSON payload:
//!
//! ```text
//! cirlearn-checkpoint v2 fnv64:0123456789abcdef
//! {"seed":"000000000001ccad", ...}
//! ```
//!
//! The checksum is FNV-1a 64 over the exact payload bytes, so a torn,
//! truncated or bit-flipped file is rejected with a typed
//! [`CheckpointError`] — never a panic, never a silent misresume. Files
//! are written atomically (tmp + fsync + rename, via
//! [`cirlearn_telemetry::write_atomic`]): readers observe the previous
//! checkpoint or the complete new one, nothing in between.

use std::path::Path;
use std::time::Duration;

use cirlearn_logic::{Cube, Literal};
use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::write_atomic;

use crate::fbdt::FbdtSnapshot;
use crate::learner::{LearnerConfig, Strategy};

/// First token of a checkpoint file's header line.
pub const CHECKPOINT_MAGIC: &str = "cirlearn-checkpoint";

/// Current checkpoint format version (header token `v2`).
///
/// v2 replaced v1's per-output `support_sizes` with the `supports`
/// the shared support sweep estimated: a v1 file comes from a run that
/// swept each output separately, so it cannot resume bit-identically
/// and is rejected with [`CheckpointError::Version`].
pub const CHECKPOINT_VERSION: u32 = 2;

/// Why a checkpoint file could not be loaded or applied.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic — it is not a
    /// checkpoint at all.
    Magic(String),
    /// The file declares a format version this build does not speak.
    Version(String),
    /// The payload bytes do not match the header checksum: the file is
    /// torn, truncated or corrupted.
    Checksum {
        /// Checksum declared in the header.
        expected: u64,
        /// Checksum of the payload actually present.
        found: u64,
    },
    /// The payload is not valid JSON, or a field is missing/mistyped.
    Parse(String),
    /// The state is internally valid but does not match the resuming
    /// run: different config, different oracle shape, or an oracle
    /// stack that rejected its nested state.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Magic(line) => {
                write!(f, "not a cirlearn checkpoint (header {line:?})")
            }
            CheckpointError::Version(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v:?} (this build speaks v{CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::Checksum { expected, found } => write!(
                f,
                "checkpoint payload corrupted: checksum {found:016x}, header says {expected:016x}"
            ),
            CheckpointError::Parse(why) => write!(f, "malformed checkpoint payload: {why}"),
            CheckpointError::Mismatch(why) => {
                write!(f, "checkpoint does not match this run: {why}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64: the payload checksum. Not cryptographic — it guards
/// against torn writes and bit rot, not adversaries.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fingerprint of the learner configuration, stored in checkpoints
/// so a resume with different settings is rejected instead of silently
/// producing a run that matches neither configuration.
pub fn config_fingerprint(config: &LearnerConfig) -> u64 {
    // `Debug` output covers every field deterministically; hashing the
    // rendered form avoids hand-maintaining a field list that would
    // silently go stale when the config grows.
    fnv1a64(format!("{config:?}").as_bytes())
}

/// Where a suspended run picks back up.
#[derive(Debug, Clone, PartialEq)]
pub enum Cursor {
    /// All per-output work up to here is recorded in the progress
    /// arrays; resume with the next output that has no learned edge.
    NextOutput,
    /// Mid-FBDT on one output: the frontier and collected cubes are in
    /// the snapshot; the shared support sweep already ran (its queries
    /// and RNG draws are burned into the totals).
    Fbdt {
        /// The suspended tree: frontier, onset/offset cubes, stats.
        snapshot: FbdtSnapshot,
        /// The per-tree query cap assigned when this tree started (the
        /// budget share must not be re-portioned mid-tree).
        max_queries: Option<u64>,
        /// Wall clock already spent on this output in prior segments.
        partial_elapsed: Duration,
        /// Oracle queries already spent on this output in prior
        /// segments.
        partial_queries: u64,
    },
}

/// The complete serializable state of a learning run at a stage
/// boundary.
///
/// Produced by [`Learner::learn_with`](crate::Learner::learn_with)
/// when a stop is requested, persisted with [`LearnState::save`], and
/// consumed by [`Learner::resume`](crate::Learner::resume).
///
/// Numeric range: fields that must survive at full 64-bit width (the
/// RNG state words, the config fingerprint) are stored as 16-hex-digit
/// strings; counters and durations ride as plain JSON numbers, which
/// are exact up to 2⁵³ — about 9 quadrillion queries or 285 years of
/// microseconds, far past anything a run can accumulate.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnState {
    /// RNG seed of the run (for reporting; the live generator state is
    /// in [`LearnState::rng`]).
    pub seed: u64,
    /// Fingerprint of the [`LearnerConfig`] that produced this state.
    pub config_fingerprint: u64,
    /// The xoshiro256++ state words at the suspension point.
    pub rng: [u64; 4],
    /// Oracle input port names, for shape validation on resume.
    pub input_names: Vec<String>,
    /// Oracle output port names, for shape validation on resume.
    pub output_names: Vec<String>,
    /// Oracle queries spent across all completed segments.
    pub queries_used: u64,
    /// Wall clock consumed across all completed segments (subtracted
    /// from the time budget on resume).
    pub elapsed_before: Duration,
    /// The partial circuit (no outputs attached yet) as canonical
    /// ASCII AIGER; import rebuilds identical node ids.
    pub circuit_aiger: String,
    /// Learned output edges as AIGER literal codes, `None` where the
    /// output is still unfinished.
    pub edges: Vec<Option<u32>>,
    /// Winning strategy per output, where decided.
    pub strategies: Vec<Option<Strategy>>,
    /// Estimated support per output (ascending input positions), or
    /// `None` where the shared support sweep has not covered the output
    /// (template matches, a run suspended before the sweep, or a sweep
    /// the budget or a fault skipped).
    pub supports: Vec<Option<Vec<usize>>>,
    /// Budget-forced FBDT leaves per output.
    pub forced: Vec<usize>,
    /// Wall clock spent learning each output.
    pub out_elapsed: Vec<Duration>,
    /// Oracle queries spent learning each output.
    pub out_queries: Vec<u64>,
    /// Observed truth bias per output (drives majority-vote
    /// degradation).
    pub truth_bias: Vec<Option<f64>>,
    /// Where to pick back up.
    pub cursor: Cursor,
    /// The oracle stack's own resume state, if it has any (fault
    /// schedules, retry-jitter positions).
    pub oracle: Option<Json>,
}

impl LearnState {
    /// Serializes to the full checkpoint file contents (header line +
    /// checksummed JSON payload).
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let payload = self.to_json().to_compact();
        let header = format!(
            "{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} fnv64:{:016x}\n",
            fnv1a64(payload.as_bytes())
        );
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(payload.as_bytes());
        bytes
    }

    /// Parses checkpoint file contents, verifying magic, version and
    /// checksum before touching the payload.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] for every malformation —
    /// wrong magic, unknown version, checksum mismatch (torn or
    /// bit-flipped file), or a payload that fails to parse.
    pub fn from_file_bytes(bytes: &[u8]) -> Result<LearnState, CheckpointError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| CheckpointError::Parse(format!("not UTF-8: {e}")))?;
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| CheckpointError::Magic(first_line(text)))?;
        let mut tokens = header.split_whitespace();
        if tokens.next() != Some(CHECKPOINT_MAGIC) {
            return Err(CheckpointError::Magic(header.to_owned()));
        }
        let version = tokens.next().unwrap_or_default();
        if version != format!("v{CHECKPOINT_VERSION}") {
            return Err(CheckpointError::Version(version.to_owned()));
        }
        let checksum = tokens
            .next()
            .and_then(|t| t.strip_prefix("fnv64:"))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| CheckpointError::Magic(header.to_owned()))?;
        let found = fnv1a64(payload.as_bytes());
        if found != checksum {
            return Err(CheckpointError::Checksum {
                expected: checksum,
                found,
            });
        }
        let json = Json::parse(payload).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        LearnState::from_json(&json)
    }

    /// Atomically writes the checkpoint to `path` (tmp + fsync +
    /// rename). Returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the destination is left
    /// untouched on failure.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let bytes = self.to_file_bytes();
        write_atomic(path, &bytes)?;
        Ok(bytes.len())
    }

    /// Loads and verifies a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// I/O failures surface as [`CheckpointError::Io`]; every form of
    /// corruption as the matching typed variant.
    pub fn load(path: impl AsRef<Path>) -> Result<LearnState, CheckpointError> {
        // blocking-ok: checkpoint load runs once at resume, before the
        // learning loop starts; the hot-graph edge here is a widened
        // `.load()` (atomic) call, not a real hot-path caller.
        let bytes = std::fs::read(path)?;
        LearnState::from_file_bytes(&bytes)
    }

    /// Number of outputs with a learned edge — the resume progress
    /// indicator.
    pub fn outputs_done(&self) -> usize {
        self.edges.iter().filter(|e| e.is_some()).count()
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("seed", hex_u64(self.seed)),
            ("config_fingerprint", hex_u64(self.config_fingerprint)),
            (
                "rng",
                Json::Array(self.rng.iter().map(|&w| hex_u64(w)).collect()),
            ),
            ("input_names", string_array(&self.input_names)),
            ("output_names", string_array(&self.output_names)),
            ("queries_used", Json::from(self.queries_used)),
            ("elapsed_before_us", duration_json(self.elapsed_before)),
            ("circuit_aiger", Json::from(self.circuit_aiger.clone())),
            (
                "edges",
                Json::Array(
                    self.edges
                        .iter()
                        .map(|e| match e {
                            Some(code) => Json::from(u64::from(*code)),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
            (
                "strategies",
                Json::Array(
                    self.strategies
                        .iter()
                        .map(|s| match s {
                            Some(s) => Json::from(s.to_string()),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
            (
                "supports",
                Json::Array(
                    self.supports
                        .iter()
                        .map(|s| match s {
                            Some(s) => Json::Array(s.iter().map(|&v| Json::from(v)).collect()),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
            (
                "forced",
                Json::Array(self.forced.iter().map(|&v| Json::from(v)).collect()),
            ),
            (
                "out_elapsed_us",
                Json::Array(self.out_elapsed.iter().map(|&d| duration_json(d)).collect()),
            ),
            (
                "out_queries",
                Json::Array(self.out_queries.iter().map(|&v| Json::from(v)).collect()),
            ),
            (
                "truth_bias",
                Json::Array(
                    self.truth_bias
                        .iter()
                        .map(|b| match b {
                            Some(r) => Json::from(*r),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
            ("cursor", cursor_to_json(&self.cursor)),
            ("oracle", self.oracle.clone().unwrap_or(Json::Null)),
        ])
    }

    fn from_json(json: &Json) -> Result<LearnState, CheckpointError> {
        let field = |name: &str| {
            json.get(name)
                .ok_or_else(|| CheckpointError::Parse(format!("missing field `{name}`")))
        };
        let num_outputs_arrays = [
            "edges",
            "strategies",
            "supports",
            "forced",
            "out_elapsed_us",
            "out_queries",
            "truth_bias",
        ];
        let state = LearnState {
            seed: parse_hex_u64(field("seed")?, "seed")?,
            config_fingerprint: parse_hex_u64(field("config_fingerprint")?, "config_fingerprint")?,
            rng: parse_rng(field("rng")?)?,
            input_names: parse_strings(field("input_names")?, "input_names")?,
            output_names: parse_strings(field("output_names")?, "output_names")?,
            queries_used: parse_u64(field("queries_used")?, "queries_used")?,
            elapsed_before: parse_duration(field("elapsed_before_us")?, "elapsed_before_us")?,
            circuit_aiger: field("circuit_aiger")?
                .as_str()
                .ok_or_else(|| CheckpointError::Parse("`circuit_aiger` is not a string".into()))?
                .to_owned(),
            edges: parse_array(field("edges")?, "edges", |v| match v {
                Json::Null => Ok(None),
                _ => parse_u64(v, "edges[]").and_then(|c| {
                    u32::try_from(c)
                        .map(Some)
                        .map_err(|_| CheckpointError::Parse("edge code exceeds u32".into()))
                }),
            })?,
            strategies: parse_array(field("strategies")?, "strategies", |v| match v {
                Json::Null => Ok(None),
                _ => {
                    let s = v
                        .as_str()
                        .ok_or_else(|| CheckpointError::Parse("strategy is not a string".into()))?;
                    Strategy::parse(s)
                        .map(Some)
                        .ok_or_else(|| CheckpointError::Parse(format!("unknown strategy {s:?}")))
                }
            })?,
            supports: parse_array(field("supports")?, "supports", |v| match v {
                Json::Null => Ok(None),
                _ => parse_positions(v, "supports[]").map(Some),
            })?,
            forced: parse_array(field("forced")?, "forced", |v| {
                parse_u64(v, "forced[]").map(|v| v as usize)
            })?,
            out_elapsed: parse_array(field("out_elapsed_us")?, "out_elapsed_us", |v| {
                parse_duration(v, "out_elapsed_us[]")
            })?,
            out_queries: parse_array(field("out_queries")?, "out_queries", |v| {
                parse_u64(v, "out_queries[]")
            })?,
            truth_bias: parse_array(field("truth_bias")?, "truth_bias", |v| match v {
                Json::Null => Ok(None),
                _ => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| CheckpointError::Parse("truth bias is not a number".into())),
            })?,
            cursor: cursor_from_json(field("cursor")?)?,
            oracle: match field("oracle")? {
                Json::Null => None,
                other => Some(other.clone()),
            },
        };
        let n = state.output_names.len();
        for name in num_outputs_arrays {
            let len = json
                .get(name)
                .and_then(Json::as_array)
                .map_or(0, <[Json]>::len);
            if len != n {
                return Err(CheckpointError::Parse(format!(
                    "`{name}` has {len} entries for {n} outputs"
                )));
            }
        }
        Ok(state)
    }
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or_default().to_owned()
}

/// Full-range u64s serialize as 16-digit hex strings: JSON numbers ride
/// on `f64` and lose precision past 2^53.
fn hex_u64(v: u64) -> Json {
    Json::from(format!("{v:016x}"))
}

fn parse_hex_u64(json: &Json, what: &str) -> Result<u64, CheckpointError> {
    json.as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| CheckpointError::Parse(format!("`{what}` is not a hex u64")))
}

fn parse_u64(json: &Json, what: &str) -> Result<u64, CheckpointError> {
    json.as_u64()
        .ok_or_else(|| CheckpointError::Parse(format!("`{what}` is not a non-negative integer")))
}

fn duration_json(d: Duration) -> Json {
    Json::from(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

fn parse_duration(json: &Json, what: &str) -> Result<Duration, CheckpointError> {
    parse_u64(json, what).map(Duration::from_micros)
}

fn string_array(items: &[String]) -> Json {
    Json::Array(items.iter().map(|s| Json::from(s.clone())).collect())
}

fn parse_strings(json: &Json, what: &str) -> Result<Vec<String>, CheckpointError> {
    parse_array(json, what, |v| {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| CheckpointError::Parse(format!("`{what}` contains a non-string entry")))
    })
}

fn parse_array<T>(
    json: &Json,
    what: &str,
    mut each: impl FnMut(&Json) -> Result<T, CheckpointError>,
) -> Result<Vec<T>, CheckpointError> {
    json.as_array()
        .ok_or_else(|| CheckpointError::Parse(format!("`{what}` is not an array")))?
        .iter()
        .map(&mut each)
        .collect()
}

fn parse_positions(json: &Json, what: &str) -> Result<Vec<usize>, CheckpointError> {
    parse_array(json, what, |v| parse_u64(v, what).map(|v| v as usize))
}

fn parse_rng(json: &Json) -> Result<[u64; 4], CheckpointError> {
    let words = parse_array(json, "rng", |v| parse_hex_u64(v, "rng[]"))?;
    <[u64; 4]>::try_from(words)
        .map_err(|w| CheckpointError::Parse(format!("`rng` has {} words, need 4", w.len())))
}

fn cube_to_json(cube: &Cube) -> Json {
    Json::Array(
        cube.literals()
            .iter()
            .map(|l| Json::from(u64::from(l.code())))
            .collect(),
    )
}

fn cube_from_json(json: &Json) -> Result<Cube, CheckpointError> {
    let codes = parse_array(json, "cube", |v| {
        parse_u64(v, "literal code").and_then(|c| {
            u32::try_from(c).map_err(|_| CheckpointError::Parse("literal code exceeds u32".into()))
        })
    })?;
    Cube::from_literals(codes.into_iter().map(Literal::from_code))
        .ok_or_else(|| CheckpointError::Parse("cube contains contradictory literals".into()))
}

fn cubes_to_json(cubes: &[Cube]) -> Json {
    Json::Array(cubes.iter().map(cube_to_json).collect())
}

fn cubes_from_json(json: &Json, what: &str) -> Result<Vec<Cube>, CheckpointError> {
    parse_array(json, what, cube_from_json)
}

fn cursor_to_json(cursor: &Cursor) -> Json {
    match cursor {
        Cursor::NextOutput => Json::object([("kind", Json::from("next_output"))]),
        Cursor::Fbdt {
            snapshot,
            max_queries,
            partial_elapsed,
            partial_queries,
        } => Json::object([
            ("kind", Json::from("fbdt")),
            ("output", Json::from(snapshot.output)),
            (
                "support",
                Json::Array(snapshot.support.iter().map(|&v| Json::from(v)).collect()),
            ),
            ("truth_ratio_hint", Json::from(snapshot.truth_ratio_hint)),
            ("collect_offset", Json::Bool(snapshot.collect_offset)),
            ("onset", cubes_to_json(&snapshot.onset)),
            ("offset", cubes_to_json(&snapshot.offset)),
            ("frontier", cubes_to_json(&snapshot.frontier)),
            ("splits", Json::from(snapshot.splits)),
            ("leaves", Json::from(snapshot.leaves)),
            ("forced_leaves", Json::from(snapshot.forced_leaves)),
            ("tree_queries", Json::from(snapshot.queries)),
            (
                "max_queries",
                match max_queries {
                    Some(cap) => Json::from(*cap),
                    None => Json::Null,
                },
            ),
            ("partial_elapsed_us", duration_json(*partial_elapsed)),
            ("partial_queries", Json::from(*partial_queries)),
        ]),
    }
}

fn cursor_from_json(json: &Json) -> Result<Cursor, CheckpointError> {
    let kind = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| CheckpointError::Parse("cursor has no `kind`".into()))?;
    match kind {
        "next_output" => Ok(Cursor::NextOutput),
        "fbdt" => {
            let field = |name: &str| {
                json.get(name)
                    .ok_or_else(|| CheckpointError::Parse(format!("fbdt cursor missing `{name}`")))
            };
            let snapshot = FbdtSnapshot {
                output: parse_u64(field("output")?, "output")? as usize,
                support: parse_positions(field("support")?, "support")?,
                truth_ratio_hint: field("truth_ratio_hint")?.as_f64().ok_or_else(|| {
                    CheckpointError::Parse("`truth_ratio_hint` not a number".into())
                })?,
                collect_offset: match field("collect_offset")? {
                    Json::Bool(b) => *b,
                    _ => return Err(CheckpointError::Parse("`collect_offset` not a bool".into())),
                },
                onset: cubes_from_json(field("onset")?, "onset")?,
                offset: cubes_from_json(field("offset")?, "offset")?,
                frontier: cubes_from_json(field("frontier")?, "frontier")?,
                splits: parse_u64(field("splits")?, "splits")? as usize,
                leaves: parse_u64(field("leaves")?, "leaves")? as usize,
                forced_leaves: parse_u64(field("forced_leaves")?, "forced_leaves")? as usize,
                queries: parse_u64(field("tree_queries")?, "tree_queries")?,
            };
            Ok(Cursor::Fbdt {
                snapshot,
                max_queries: match field("max_queries")? {
                    Json::Null => None,
                    v => Some(parse_u64(v, "max_queries")?),
                },
                partial_elapsed: parse_duration(
                    field("partial_elapsed_us")?,
                    "partial_elapsed_us",
                )?,
                partial_queries: parse_u64(field("partial_queries")?, "partial_queries")?,
            })
        }
        other => Err(CheckpointError::Parse(format!(
            "unknown cursor kind {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_logic::Var;

    pub(crate) fn sample_state() -> LearnState {
        let mut circuit = cirlearn_aig::Aig::new();
        let a = circuit.add_input("a");
        let b = circuit.add_input("b");
        let y = circuit.xor(a, b);
        let cube =
            Cube::from_literals([Var::new(0).positive(), Var::new(3).negative()]).expect("ok");
        LearnState {
            seed: 0x1CCAD,
            config_fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            rng: [1, u64::MAX, 0x8000_0000_0000_0000, 42],
            input_names: vec!["a".into(), "b".into()],
            output_names: vec!["y".into(), "z".into()],
            queries_used: 123_456,
            elapsed_before: Duration::from_micros(9_876_543),
            circuit_aiger: circuit.to_aiger_ascii(),
            edges: vec![Some(y.code()), None],
            strategies: vec![Some(Strategy::Fbdt), None],
            supports: vec![Some(vec![0, 1]), None],
            forced: vec![1, 0],
            out_elapsed: vec![Duration::from_micros(5000), Duration::ZERO],
            out_queries: vec![777, 0],
            truth_bias: vec![Some(0.625), None],
            cursor: Cursor::Fbdt {
                snapshot: FbdtSnapshot {
                    output: 1,
                    support: vec![0, 1, 3],
                    truth_ratio_hint: 0.375,
                    collect_offset: false,
                    onset: vec![cube.clone()],
                    offset: vec![],
                    frontier: vec![cube, Cube::top()],
                    splits: 3,
                    leaves: 2,
                    forced_leaves: 0,
                    queries: 4321,
                },
                max_queries: Some(10_000),
                partial_elapsed: Duration::from_micros(2500),
                partial_queries: 4399,
            },
            oracle: Some(Json::object([
                ("kind", Json::from("faulty")),
                ("served", Json::from(99u64)),
            ])),
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let state = sample_state();
        let bytes = state.to_file_bytes();
        let back = LearnState::from_file_bytes(&bytes).expect("own bytes parse");
        assert_eq!(back, state);
    }

    #[test]
    fn next_output_cursor_roundtrips() {
        let state = LearnState {
            cursor: Cursor::NextOutput,
            oracle: None,
            ..sample_state()
        };
        let back = LearnState::from_file_bytes(&state.to_file_bytes()).expect("parses");
        assert_eq!(back, state);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_state().to_file_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 40] {
            let err = LearnState::from_file_bytes(&bytes[..cut]).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    CheckpointError::Checksum { .. } | CheckpointError::Magic(_)
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let bytes = sample_state().to_file_bytes();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        // Flip one bit somewhere in the payload.
        let mut corrupted = bytes.clone();
        corrupted[header_len + 100] ^= 0x04;
        let err = LearnState::from_file_bytes(&corrupted).expect_err("corrupted");
        assert!(matches!(err, CheckpointError::Checksum { .. }), "{err}");
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let bytes = sample_state().to_file_bytes();
        let text = String::from_utf8(bytes).unwrap();
        let (header, payload) = text.split_once('\n').unwrap();

        let current = format!(" v{CHECKPOINT_VERSION} ");
        assert!(header.contains(&current), "header {header:?}");

        let not_ckpt = format!("some-other-file v{CHECKPOINT_VERSION} fnv64:0\n{payload}");
        assert!(matches!(
            LearnState::from_file_bytes(not_ckpt.as_bytes()),
            Err(CheckpointError::Magic(_))
        ));

        // Every other version — older or newer — is a typed Version
        // error naming the token found.
        for version in (0..CHECKPOINT_VERSION).chain([CHECKPOINT_VERSION + 1, 99]) {
            let skewed = header.replace(&current, &format!(" v{version} "));
            let skewed = format!("{skewed}\n{payload}");
            let err = LearnState::from_file_bytes(skewed.as_bytes()).expect_err("skewed");
            assert!(
                matches!(&err, CheckpointError::Version(v) if *v == format!("v{version}")),
                "v{version}: {err}"
            );
        }

        assert!(matches!(
            LearnState::from_file_bytes(b"garbage"),
            Err(CheckpointError::Magic(_))
        ));
        assert!(matches!(
            LearnState::from_file_bytes(&[0xFF, 0xFE, 0x80]),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    fn save_and_load_via_disk() {
        let dir = std::env::temp_dir().join(format!("cirlearn-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("state.ckpt");
        let state = sample_state();
        let bytes = state.save(&path).expect("save");
        assert_eq!(bytes, state.to_file_bytes().len());
        let back = LearnState::load(&path).expect("load");
        assert_eq!(back, state);
        assert_eq!(back.outputs_done(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = LearnState::load("/nonexistent/learn.ckpt").expect_err("missing");
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = config_fingerprint(&LearnerConfig::default());
        let b = config_fingerprint(&LearnerConfig::fast());
        assert_ne!(a, b);
        assert_eq!(a, config_fingerprint(&LearnerConfig::default()));
    }
}
