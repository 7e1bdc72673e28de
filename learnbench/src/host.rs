//! Host diagnostics read from Linux `/proc`.
//!
//! They explain a noisy session (steal from the hypervisor, run-queue
//! wait on a shared box) and are never part of a pass/fail decision.
//! Where `/proc` is missing every reading is zero.

use std::fs;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Host counters: a reading, or what was consumed between two.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTimes {
    /// Machine-wide steal time, seconds.
    pub steal_s: f64,
    /// CPU time of the calling thread, seconds.
    pub cpu_s: f64,
    /// Time the calling thread waited on a run queue, seconds.
    pub runq_wait_s: f64,
}

/// Reads the counters for the calling thread.
pub fn sample() -> HostTimes {
    let steal_s = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            // `cpu  user nice system idle iowait irq softirq steal ...`
            let line = text.lines().next()?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ);
    // `<cpu ns> <run-queue wait ns> <timeslices>`
    let sched: Vec<f64> = fs::read_to_string("/proc/thread-self/schedstat")
        .map(|text| {
            text.split_whitespace()
                .filter_map(|f| f.parse::<f64>().ok())
                .collect()
        })
        .unwrap_or_default();
    HostTimes {
        steal_s,
        cpu_s: sched.first().map_or(0.0, |ns| ns / 1e9),
        runq_wait_s: sched.get(1).map_or(0.0, |ns| ns / 1e9),
    }
}

impl HostTimes {
    pub fn since(&self, earlier: &HostTimes) -> HostTimes {
        HostTimes {
            steal_s: self.steal_s - earlier.steal_s,
            cpu_s: self.cpu_s - earlier.cpu_s,
            runq_wait_s: self.runq_wait_s - earlier.runq_wait_s,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
