//! Order statistics and process resource readings.

use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics. Panics on an empty sample: every caller measures at least
/// once.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Runs `f` and returns its result with the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s — the
/// Linux `USER_HZ` on every supported architecture).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after it are
    // numeric, so split after its closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so fields 14 and 15 are at 11 and 12.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Seconds the host kept this machine's CPUs from running ("steal", the
/// time a virtual machine's CPUs wait for the physical ones), from
/// `/proc/stat` in 1/100 s: the total over CPUs and the mean per CPU.
/// Both are 0 on a machine that is not virtualised.
pub fn steal_seconds() -> Steal {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let steal = |line: &str| {
        line.split_whitespace()
            .nth(8)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0) as f64
            / 100.0
    };
    let total = stat.lines().next().map_or(0.0, steal);
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count()
        .max(1);
    Steal {
        total,
        per_cpu: total / cpus as f64,
    }
}

#[derive(Clone, Copy)]
pub struct Steal {
    pub total: f64,
    pub per_cpu: f64,
}

/// Wall time of an interval net of the steal the host took during it: the
/// interval's wall seconds less the mean steal per CPU. The benchmark
/// keeps every core busy, so each CPU's steal delays its share of the
/// work; this estimates the time the interval would have taken with the
/// CPUs to itself.
pub fn net_of_steal(wall_s: f64, start: Steal) -> f64 {
    wall_s - (steal_seconds().per_cpu - start.per_cpu)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }
}
