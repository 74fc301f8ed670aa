//! What a result must say about the machine it was measured on.

use qagview_common::json::Json;

/// CPU model, online CPU count and the parallelism the process may use.
pub fn describe() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("cpu_model", Json::from(model)),
        ("nproc", Json::from(nproc)),
        ("available_parallelism", Json::from(available)),
    ])
}

/// The process's peak resident set size in MiB (`VmHWM`).
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

/// Seconds of CPU time the hypervisor has taken from this machine since
/// boot (`steal` in `/proc/stat`, at 100 ticks per second). Slow stretches
/// of a run show up here.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s
                .lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()?;
            Some(cpu / 100.0)
        })
        .unwrap_or(0.0)
}
