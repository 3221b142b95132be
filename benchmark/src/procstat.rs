//! Process CPU time and peak RSS, read from `/proc/self` (no libc in the
//! sandbox, so no `getrusage`).

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`): 100 on every Linux ABI, and
/// not queryable without `sysconf`.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`: `state` is the first field after
/// it, `utime` and `stime` the 12th and 13th (fields 14 and 15 of the line).
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds (user + system, all threads including exited ones) this
/// process has consumed so far. Tick resolution is 10 ms.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kb(&status)? as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_comm() {
        let plain = "42 (bench) R 1 42 42 0 -1 4194304 100 0 0 0 \
                     1234 56 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(1290));
        let hostile = "42 (a b) c) d) S 1 42 42 0 -1 4194304 100 0 0 0 \
                       7 5 0 0 20 0 3 0 100 1000 200";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(12));
        assert_eq!(parse_stat_cpu_ticks("42 (bench) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_the_kib_column() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   52340 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(52340));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn live_readers_work_on_linux() {
        assert!(process_cpu_seconds().is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
