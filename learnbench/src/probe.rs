//! The benchmark's timing wrapper on the `Oracle` trait.
//!
//! It sits between the learner and the black box, so it sees every
//! call the learner makes and measures the oracle layer from outside:
//! simulation for an in-process box, the pipe round trip plus retries
//! for a process box.

use std::time::{Duration, Instant};

use cirlearn_logic::Assignment;
use cirlearn_oracle::{Oracle, OracleError};
use cirlearn_telemetry::json::Json;

/// What the probe saw during one learning run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeStats {
    /// Calls into the black box (a batch is one call).
    pub calls: u64,
    /// Patterns answered.
    pub patterns: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Wall time spent inside the black box.
    pub busy: Duration,
}

/// Counts and times every call into `inner`.
pub struct Probe<O> {
    inner: O,
    stats: ProbeStats,
}

impl<O: Oracle> Probe<O> {
    pub fn new(inner: O) -> Self {
        Probe {
            inner,
            stats: ProbeStats::default(),
        }
    }

    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    fn record(&mut self, start: Instant, answered: Option<usize>) {
        self.stats.busy += start.elapsed();
        self.stats.calls += 1;
        match answered {
            Some(n) => self.stats.patterns += n as u64,
            None => self.stats.errors += 1,
        }
    }
}

impl<O: Oracle> Oracle for Probe<O> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn input_names(&self) -> &[String] {
        self.inner.input_names()
    }

    fn output_names(&self) -> &[String] {
        self.inner.output_names()
    }

    fn query(&mut self, input: &Assignment) -> Vec<bool> {
        let start = Instant::now();
        let out = self.inner.query(input);
        self.record(start, Some(1));
        out
    }

    fn query_batch(&mut self, inputs: &[Assignment]) -> Vec<Vec<bool>> {
        let start = Instant::now();
        let out = self.inner.query_batch(inputs);
        self.record(start, Some(out.len()));
        out
    }

    fn try_query(&mut self, input: &Assignment) -> Result<Vec<bool>, OracleError> {
        let start = Instant::now();
        let out = self.inner.try_query(input);
        self.record(start, out.as_ref().ok().map(|_| 1));
        out
    }

    fn try_query_batch(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
        let start = Instant::now();
        let out = self.inner.try_query_batch(inputs);
        self.record(start, out.as_ref().ok().map(Vec::len));
        out
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
