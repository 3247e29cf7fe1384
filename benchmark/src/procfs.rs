//! What the kernel says about this process: CPU time and peak memory.

use std::fs;

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// architecture this benchmark runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, including those
/// that have already exited (`/proc/self/stat` fields 14 and 15).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the parenthesis that closes it.
    let after_comm = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_counters_are_readable_and_move() {
        let before = cpu_seconds();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() - before >= 0.03);
        assert!(peak_rss_mib() > 0.5);
    }
}
