//! Per-solve peak memory from `/proc/self`: the high-water mark is reset
//! before a solve (`clear_refs` = 5), and the solve's peak is the new
//! `VmHWM` minus the `VmRSS` just before it.

/// Reads a `kB` field (`VmRSS`, `VmHWM`, …) of `/proc/self/status`.
pub fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kib(&status, field)
}

fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Peak growth of one solve, in MiB: the high-water mark after it minus
/// the resident size before it. A peak below the starting size (pages
/// freed before the solve touched new ones) reads as zero growth.
pub fn peak_delta_mib(rss_before_kib: u64, hwm_after_kib: u64) -> f64 {
    hwm_after_kib.saturating_sub(rss_before_kib) as f64 / 1024.0
}

/// A measurement window for [`peak_delta_mib`].
pub struct PeakProbe {
    rss_before_kib: u64,
}

impl PeakProbe {
    /// Resets the process's high-water mark to its current resident size
    /// and records that size.
    ///
    /// # Errors
    /// When `/proc/self` cannot be written or read (not Linux).
    pub fn start() -> Result<PeakProbe, String> {
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("cannot reset the peak RSS via /proc/self/clear_refs: {e}"))?;
        let rss_before_kib = status_kib("VmRSS").ok_or("no VmRSS in /proc/self/status")?;
        Ok(PeakProbe { rss_before_kib })
    }

    /// Growth of the peak since [`PeakProbe::start`], in MiB.
    ///
    /// # Errors
    /// When `/proc/self/status` has no `VmHWM`.
    pub fn finish(self) -> Result<f64, String> {
        let hwm = status_kib("VmHWM").ok_or("no VmHWM in /proc/self/status")?;
        Ok(peak_delta_mib(self.rss_before_kib, hwm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_peak_minus_starting_rss_in_mib() {
        assert_eq!(peak_delta_mib(1024, 1024 + 41_472), 40.5);
        assert_eq!(peak_delta_mib(0, 2048), 2.0);
    }

    #[test]
    fn a_peak_below_the_start_is_zero_growth() {
        assert_eq!(peak_delta_mib(5000, 4000), 0.0);
        assert_eq!(peak_delta_mib(5000, 5000), 0.0);
    }

    #[test]
    fn status_fields_parse_in_kib() {
        let status = "Name:\tx\nVmHWM:\t  123456 kB\nVmRSS:\t   65536 kB\nThreads:\t1\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(65_536));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert_eq!(parse_status_kib(status, "Threads"), None, "not a kB field");
    }

    #[test]
    fn probe_sees_an_allocation_it_touches() {
        let Ok(probe) = PeakProbe::start() else {
            eprintln!("skipping: /proc/self/clear_refs is not available here");
            return;
        };
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let grown = probe.finish().expect("VmHWM present when clear_refs worked");
        drop(block);
        assert!(grown >= 60.0, "touched 64 MiB, peak grew by {grown} MiB");
    }
}
