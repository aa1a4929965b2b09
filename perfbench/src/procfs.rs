//! Readers for the process's own CPU time (`/proc/self/stat`) and memory
//! high-water mark (`/proc/self/status`). The daemon and the client share
//! the benchmark process, so both numbers cover server and client alike.

/// Clock ticks per second of the `/proc` CPU fields (`USER_HZ`, fixed at
/// 100 by the Linux userspace ABI).
pub const USER_HZ: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// Fields are counted after the last `)`, since the command name in
/// parentheses may itself contain spaces or parentheses.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3 (state); utime is field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` (peak resident set) value in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// `(steal, total)` host CPU ticks from the aggregate `cpu` line of
/// `/proc/stat`. Steal is time a virtual machine's CPUs were runnable but
/// held by the hypervisor — interference from outside the guest.
pub fn parse_host_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

/// Host-wide `(steal, total)` CPU ticks so far.
pub fn host_steal() -> std::io::Result<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat")?;
    parse_host_steal(&text).ok_or_else(|| bad("/proc/stat"))
}

/// This process's user+system CPU time so far, in seconds.
pub fn cpu_seconds() -> std::io::Result<f64> {
    let text = std::fs::read_to_string("/proc/self/stat")?;
    parse_cpu_ticks(&text)
        .map(|t| t as f64 / USER_HZ)
        .ok_or_else(|| bad("/proc/self/stat"))
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let text = std::fs::read_to_string("/proc/self/status")?;
    parse_vmhwm_kib(&text)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| bad("/proc/self/status"))
}

fn bad(path: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unparsable {path}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench (x)) R 1 4242 4242 0 -1 4194304 1200 0 3 0 \
                        731 129 0 0 20 0 9 0 5183 123456789 4321 18446744073709551615";

    #[test]
    fn cpu_ticks_sum_utime_and_stime() {
        assert_eq!(parse_cpu_ticks(STAT), Some(731 + 129));
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vmhwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  912340 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(204_800));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn host_steal_is_the_eighth_field() {
        let stat = "cpu  84258 0 7220 283837 194 0 584 3406 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(
            parse_host_steal(stat),
            Some((3406, 84258 + 7220 + 283837 + 194 + 584 + 3406))
        );
        assert_eq!(parse_host_steal("cpu0 1 2\n"), None);
    }

    #[test]
    fn live_readers_work_on_this_process() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
