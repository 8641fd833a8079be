//! Formatting and alignment helpers shared across the workspace.

/// Rounds `x` up to the next multiple of `align`.
///
/// # Panics
///
/// Panics if `align` is zero.
///
/// # Example
///
/// ```
/// assert_eq!(tee_sim::util::align_up(100, 64), 128);
/// assert_eq!(tee_sim::util::align_up(128, 64), 128);
/// ```
pub fn align_up(x: u64, align: u64) -> u64 {
    assert!(align > 0, "alignment must be positive");
    x.div_ceil(align) * align
}

/// Formats a byte count with binary units ("1.5 MiB").
///
/// # Example
///
/// ```
/// assert_eq!(tee_sim::util::fmt_bytes(1536 * 1024), "1.50 MiB");
/// assert_eq!(tee_sim::util::fmt_bytes(42), "42 B");
/// ```
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.2} {}", UNITS[unit])
}

/// Formats a throughput in bytes/second with decimal units ("12.8 GB/s").
pub fn fmt_bandwidth(bytes_per_sec: f64) -> String {
    const UNITS: [&str; 5] = ["B/s", "KB/s", "MB/s", "GB/s", "TB/s"];
    let mut v = bytes_per_sec;
    let mut unit = 0;
    while v >= 1000.0 && unit < UNITS.len() - 1 {
        v /= 1000.0;
        unit += 1;
    }
    format!("{v:.2} {}", UNITS[unit])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_cases() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 64), 128);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(1023), "1023 B");
        assert_eq!(fmt_bytes(1024), "1.00 KiB");
        assert_eq!(fmt_bytes(1 << 30), "1.00 GiB");
    }

    #[test]
    fn bandwidth_formatting() {
        assert_eq!(fmt_bandwidth(128.0e9), "128.00 GB/s");
        assert_eq!(fmt_bandwidth(500.0), "500.00 B/s");
    }
}
