//! Wall time with the hypervisor's steal taken out.
//!
//! On a shared VM the host takes the guest's vCPUs away for stretches of
//! milliseconds, and how much it takes changes from minute to minute: up
//! to a third of a `bulk_ingest` repetition. The guest kernel counts that
//! time per CPU as steal. A register-only loop read 2.3–3.9 ns/iteration by the wall
//! clock over half a minute, and 2.2–2.5 with its CPU's steal taken out.
//! No change to the program can move steal, so throughput is timed by
//! this clock; with no steal it is the wall clock.

use std::time::Instant;

use crate::affinity;

/// `/proc/stat` counts in USER_HZ ticks, 100 a second on Linux.
const TICKS_PER_S: f64 = 100.0;

/// A stopwatch that leaves out the time the host stole from the CPUs
/// the calling thread may run on.
pub struct RunClock {
    cpus: Vec<usize>,
    steal: f64,
    wall: Instant,
}

impl RunClock {
    /// Start timing. The CPUs are those the calling thread may run on
    /// now.
    pub fn start() -> RunClock {
        let cpus = affinity::allowed();
        RunClock {
            steal: steal_s(&cpus),
            cpus,
            wall: Instant::now(),
        }
    }

    /// Seconds since [`RunClock::start`] less the mean steal per CPU in
    /// that time, and that steal as a share of the wall time. The steal
    /// counter moves in 10 ms ticks, so a reading that would leave
    /// nothing falls back to the wall clock.
    pub fn read(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let stolen = (steal_s(&self.cpus) - self.steal) / self.cpus.len().max(1) as f64;
        if stolen > 0.0 && stolen < wall {
            (wall - stolen, stolen / wall)
        } else {
            (wall, 0.0)
        }
    }
}

/// Steal time of `cpus`, in seconds, summed (0 where `/proc/stat`
/// cannot be read).
fn steal_s(cpus: &[usize]) -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let ticks: f64 = stat
        .lines()
        .filter_map(|line| {
            // "cpuN user nice system idle iowait irq softirq steal ..."
            let mut fields = line.split_whitespace();
            let cpu: usize = fields.next()?.strip_prefix("cpu")?.parse().ok()?;
            if !cpus.contains(&cpu) {
                return None;
            }
            fields.nth(7)?.parse::<f64>().ok()
        })
        .sum();
    ticks / TICKS_PER_S
}
