//! Process-level counters read straight from `/proc` (no libc crate): CPU
//! time and peak resident set. On a system without `/proc` every reading is
//! zero and the `proc.*` metrics say so rather than fail the run.

/// Kernel clock ticks per second as exposed in `/proc/self/stat`. `USER_HZ`
/// is 100 on every Linux ABI this repository builds for; reading it properly
/// needs `sysconf`, which needs libc.
const USER_HZ: f64 = 100.0;

/// User and system CPU seconds consumed by this process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTime {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTime {
    pub fn now() -> CpuTime {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user_s: (self.user_s - earlier.user_s).max(0.0),
            sys_s: (self.sys_s - earlier.sys_s).max(0.0),
        }
    }
}

/// `utime` and `stime` are fields 14 and 15; the command name (field 2) may
/// itself contain spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_stat(stat: &str) -> Option<CpuTime> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime is 11 fields later.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTime { user_s: utime / USER_HZ, sys_s: stime / USER_HZ })
}

/// Peak resident set size of this process, MB (0 if unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status").ok().and_then(|s| parse_hwm(&s)).unwrap_or(0.0)
}

fn parse_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_names() {
        let stat = "4242 (bench (v2) x) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 200 300";
        let cpu = parse_stat(stat).unwrap();
        assert_eq!(cpu, CpuTime { user_s: 2.5, sys_s: 0.5 });
        assert_eq!(cpu.total_s(), 3.0);
        assert_eq!(cpu.since(&CpuTime { user_s: 1.0, sys_s: 1.0 }).sys_s, 0.0);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn parses_peak_rss() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_hwm(status), Some(20.0));
        assert_eq!(parse_hwm("Name: x\n"), None);
    }
}
