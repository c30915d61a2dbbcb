//! Host-side process measurements (Linux `/proc`).

/// The process's high-water resident set, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time the process has used so far, in seconds. The workloads are
/// single-threaded, so the main thread's scheduler statistics cover it.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").map_err(|e| e.to_string())?;
    let ns = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or("malformed /proc/self/schedstat")?;
    Ok(ns / 1e9)
}
