//! Small helpers: the benchmark's clock, order statistics, process
//! memory, committed-CSV access and JSON text.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic nanoseconds since the first call in this process. This is
/// the one clock the benchmark reads; it is also the clock installed into
/// the simulator's compressor and epoch telemetry for traced runs, so
/// every host time lands in one time base.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    let base = *BASE.get_or_init(Instant::now);
    u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds since `start_ns` (a [`now_ns`] reading).
pub fn secs_since(start_ns: u64) -> f64 {
    now_ns().saturating_sub(start_ns) as f64 / 1e9
}

/// A reading of the host's clocks: wall time, this process's CPU time
/// and the CPU time the hypervisor stole from the machine's vCPUs.
///
/// On a shared host the vCPUs lose bursts of tens to hundreds of
/// milliseconds to other tenants (`steal` in `/proc/stat`), which moves
/// wall-clock readings by tens of percent between identical runs. The
/// benchmark's host times are therefore taken net of steal: see
/// [`HostTime::net_s`].
#[derive(Debug, Clone)]
pub struct HostTime {
    wall_ns: u64,
    cpu_ticks: u64,
    /// Stolen ticks of each vCPU (`cpuN` lines of `/proc/stat`).
    steal_ticks: Vec<u64>,
    thread_ns: u64,
}

/// Nanoseconds the calling thread has run on a CPU (steal excluded: the
/// scheduler's task clock does not advance while the vCPU is stolen).
fn thread_run_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// This process's user + system CPU time in clock ticks.
fn proc_self_stat_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    // utime and stime are fields 14 and 15 of the full line (1-based),
    // i.e. 11 and 12 after the name; they include exited threads.
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// `USER_HZ`, the unit of `/proc/stat`: 100 on every Linux platform the
/// simulator builds for.
fn clock_ticks_per_s() -> f64 {
    100.0
}

fn steal_ticks() -> Vec<u64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .map(|cpu| {
            cpu.split_whitespace()
                .nth(8)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        })
        .collect()
}

impl HostTime {
    /// Reads the clocks.
    pub fn now() -> HostTime {
        HostTime {
            wall_ns: now_ns(),
            cpu_ticks: proc_self_stat_ticks(),
            steal_ticks: steal_ticks(),
            thread_ns: thread_run_ns(),
        }
    }

    /// Seconds the calling thread ran since `self`: the precise net time
    /// of single-threaded work (falls back to wall time where the kernel
    /// keeps no scheduler statistics).
    pub fn thread_s(&self) -> f64 {
        let now = thread_run_ns();
        if now == 0 {
            self.wall_s()
        } else {
            now.saturating_sub(self.thread_ns) as f64 / 1e9
        }
    }

    /// Wall seconds since `self`.
    pub fn wall_s(&self) -> f64 {
        secs_since(self.wall_ns)
    }

    /// Seconds since `self` net of host steal, for work whose threads
    /// wait for each other (an epoch barrier), so that a steal on any
    /// vCPU stalls all of them: the wall time scaled by the share of time
    /// no vCPU was stolen, taking the vCPUs' steals as independent.
    pub fn coupled_net_s(&self) -> f64 {
        let wall = self.wall_s();
        if wall <= 0.0 {
            return wall;
        }
        let running: f64 = steal_ticks()
            .iter()
            .zip(&self.steal_ticks)
            .map(|(now, then)| {
                let stolen = now.saturating_sub(*then) as f64 / clock_ticks_per_s();
                (1.0 - stolen / wall).clamp(0.0, 1.0)
            })
            .product();
        wall * running
    }

    /// Seconds since `self`, net of host steal: the wall time scaled by
    /// the share of this process's CPU time plus stolen time that the
    /// process actually ran. On an unshared host (no steal) this is the
    /// wall time; a single-threaded pass reads `wall − steal`, and so do
    /// independent threads that share out a fixed amount of work. CPU and
    /// steal are both in clock ticks, so only their ratio is used.
    pub fn net_s(&self) -> f64 {
        let now = HostTime::now();
        let wall = now.wall_ns.saturating_sub(self.wall_ns) as f64 / 1e9;
        let cpu = now.cpu_ticks.saturating_sub(self.cpu_ticks) as f64;
        let steal: u64 = now
            .steal_ticks
            .iter()
            .zip(&self.steal_ticks)
            .map(|(now, then)| now.saturating_sub(*then))
            .sum();
        let steal = steal as f64;
        if cpu == 0.0 {
            // Under one tick of CPU time the ratio is meaningless.
            wall
        } else {
            wall * cpu / (cpu + steal)
        }
    }
}

/// The compressor work done since `before` (a
/// `latte_compress::stats::snapshot`).
pub fn compress_since(before: latte_compress::stats::Snapshot) -> latte_compress::stats::Snapshot {
    let now = latte_compress::stats::snapshot();
    latte_compress::stats::Snapshot {
        probe_ops: now.probe_ops - before.probe_ops,
        probe_ns: now.probe_ns - before.probe_ns,
        encode_ops: now.encode_ops - before.encode_ops,
        encode_ns: now.encode_ns - before.encode_ns,
        decode_ops: now.decode_ops - before.decode_ops,
        decode_ns: now.decode_ns - before.decode_ns,
    }
}

/// Nanoseconds as seconds.
pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Median of `values` (mean of the middle pair for even lengths; 0 for
/// an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail statistic of the benchmark: the value at the highest
/// percentile that still has at least ten samples above it. Returns
/// `(value, percentile, samples)`; with ten or fewer samples it falls
/// back to the maximum (percentile 100).
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0, n);
    }
    let idx = n - 11;
    let pct = 100.0 * (idx + 1) as f64 / n as f64;
    (v[idx], pct, n)
}

/// Geometric mean of a nonempty slice (the simulator's own definition,
/// so values match the experiment CSVs to the last printed digit).
pub fn geomean(values: &[f64]) -> f64 {
    latte_bench::geomean(values)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reads a committed CSV as rows of cells.
pub fn read_csv(path: &Path) -> Result<Vec<Vec<String>>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.split(',').map(str::to_owned).collect())
        .collect())
}

/// The row of `rows` whose first cell is `key`.
pub fn csv_row<'a>(rows: &'a [Vec<String>], key: &str) -> Option<&'a [String]> {
    rows.iter()
        .find(|r| r.first().is_some_and(|c| c == key))
        .map(Vec::as_slice)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot hold) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        // Ten samples (91..=100) lie above the reported value.
        assert_eq!((value, pct, n), (90.0, 90.0, 100));
        assert_eq!(tail(&[1.0, 5.0]).0, 5.0);
    }

    #[test]
    fn json_text() {
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\n\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
