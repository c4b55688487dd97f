//! Order statistics and the process figures read from `/proc`.

/// The median of `values` (mean of the middle two for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `q`-quantile of `values` by the nearest-rank method, so the value
/// returned is an actual sample. Returns `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon keeps `0.9 * 100` at rank 90 despite rounding.
    let rank = (q * v.len() as f64 - 1e-9).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied()
}

/// User plus system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (all threads; the kernel reports it in 1/100 s).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces: fields start after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    // utime and stime are fields 14 and 15 of the whole line, 12 and 13
    // after the pid and command name.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
