//! The benchmark's own arithmetic: medians, detection-time interpolation
//! over a sampled progress timeline, and peak-RSS parsing.

/// Median of `values` (the mean of the two middle values for an even
/// count); `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The moment the `target`-th candidate (1-based) was processed, linearly
/// interpolated between the last progress sample below `target` and the
/// first one at or above it.
///
/// `samples` are `(seconds since the sweep call, candidates processed)`
/// pairs in the order the progress monitor delivered them; an implicit
/// `(0, 0)` sample opens the timeline. Returns `None` when no sample
/// reaches `target`.
pub fn interpolate_time(samples: &[(f64, u64)], target: u64) -> Option<f64> {
    let target = target.max(1);
    let mut below = (0.0, 0u64);
    for &(time, processed) in samples {
        if processed >= target {
            let share = (target - below.1) as f64 / (processed - below.1) as f64;
            return Some(below.0 + (time - below.0) * share);
        }
        below = (time, processed);
    }
    None
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in
/// bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb = rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()?;
    Some(kb * 1024)
}

/// This process's peak resident set, in bytes.
pub fn own_peak_rss() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn detection_time_interpolates_between_bracketing_samples() {
        // 100 candidates per 20 ms tick, then a stall, then a burst.
        let samples = [(0.02, 100), (0.04, 200), (0.06, 200), (0.08, 600)];
        assert_eq!(interpolate_time(&samples, 50), Some(0.01));
        assert_eq!(interpolate_time(&samples, 100), Some(0.02));
        assert!((interpolate_time(&samples, 150).unwrap() - 0.03).abs() < 1e-12);
        // A stall delays every candidate after it: the clock runs from the
        // last sample still below the target.
        assert!((interpolate_time(&samples, 400).unwrap() - 0.07).abs() < 1e-12);
        assert_eq!(interpolate_time(&samples, 600), Some(0.08));
        assert_eq!(interpolate_time(&samples, 601), None);
    }

    #[test]
    fn detection_time_of_a_target_the_first_sample_already_covers() {
        assert_eq!(interpolate_time(&[(0.5, 0), (1.0, 10)], 5), Some(0.75));
        assert_eq!(interpolate_time(&[], 1), None);
    }

    #[test]
    fn peak_rss_parses_proc_status_text() {
        let status =
            "Name:\tb3-perfbench\nVmPeak:\t  123456 kB\nVmHWM:\t    9512 kB\nVmRSS:\t    9000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(9512 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
        assert!(own_peak_rss().is_some_and(|bytes| bytes > 0));
    }
}
