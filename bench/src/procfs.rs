//! What the harness reads from `/proc` and the two things it asks of the
//! kernel: CPU time and peak memory of a process, loopback traffic, the
//! host's CPU model; pinning the process tree to one CPU, and tying a
//! child's life to its parent's.

#![allow(unsafe_code)]

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`; 100
/// on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in milliseconds.
///
/// The second field (the command name) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state is field 3, so utime (14) and stime (15)
    // are the 12th and 13th tokens.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1e3 / TICKS_PER_S)
}

/// On-CPU nanoseconds of one task: the first field of its `schedstat`.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// The `kB` value of a `/proc/<pid>/status` key such as `VmHWM`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// `(bytes, packets)` received on interface `iface` according to a
/// `/proc/net/dev` table.
pub fn parse_net_dev(table: &str, iface: &str) -> Option<(u64, u64)> {
    table.lines().find_map(|line| {
        let (name, counters) = line.split_once(':')?;
        if name.trim() != iface {
            return None;
        }
        let mut fields = counters.split_ascii_whitespace();
        let bytes = fields.next()?.parse().ok()?;
        let packets = fields.next()?.parse().ok()?;
        Some((bytes, packets))
    })
}

/// `(bytes, packets)` that have crossed the loopback interface of this
/// network namespace so far: every process's traffic, TCP/IP headers and
/// bare ACKs included. Socket sends do not show in a process's own I/O
/// counters, so this is how the harness sees the daemons' traffic.
pub fn loopback_traffic() -> (u64, u64) {
    fs::read_to_string("/proc/net/dev")
        .ok()
        .and_then(|t| parse_net_dev(&t, "lo"))
        .unwrap_or((0, 0))
}

/// A process whose counters the harness samples: `"self"` or a pid.
#[derive(Debug, Clone)]
pub struct Proc(String);

impl Proc {
    /// The benchmark process itself.
    pub fn this() -> Proc {
        Proc("self".into())
    }

    /// A child by pid.
    pub fn pid(pid: u32) -> Proc {
        Proc(pid.to_string())
    }

    fn read(&self, file: &str) -> String {
        fs::read_to_string(format!("/proc/{}/{file}", self.0)).unwrap_or_default()
    }

    /// CPU time consumed so far by every thread, in milliseconds: the
    /// scheduler's nanosecond accounting where the kernel keeps it (laps
    /// are a few hundred milliseconds long), else `utime + stime` in 10 ms
    /// ticks.
    pub fn cpu_ms(&self) -> f64 {
        let tasks = fs::read_dir(format!("/proc/{}/task", self.0)).ok();
        let ns: Option<u64> = tasks.and_then(|dir| {
            dir.map(|task| {
                let text = fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
                parse_schedstat_ns(&text)
            })
            .sum()
        });
        match ns {
            Some(ns) if ns > 0 => ns as f64 / 1e6,
            _ => parse_stat_cpu_ms(&self.read("stat")).unwrap_or(0.0),
        }
    }

    /// Peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        parse_status_kib(&self.read("status"), "VmHWM").unwrap_or(0) as f64 / 1024.0
    }
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPUs the host reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `PR_SET_PDEATHSIG` of `<linux/prctl.h>`.
const PR_SET_PDEATHSIG: i32 = 1;
/// `SIGKILL`.
const SIGKILL: u64 = 9;

/// Makes the kernel kill the child `cmd` spawns when this process dies,
/// however it dies: a daemon must not outlive a benchmark that was itself
/// killed and so never ran its destructors.
pub fn die_with_parent(cmd: &mut std::process::Command) {
    use std::os::unix::process::CommandExt;
    // SAFETY: the closure runs in the forked child before exec, where only
    // async-signal-safe calls are allowed; `prctl` is a bare system call
    // that takes its arguments by value and touches no memory.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
}

/// Pins the calling process (and every child it spawns afterwards, which
/// inherit the mask) to the highest-numbered CPU it is allowed to run on.
/// Returns that CPU's id, or `None` when the kernel refused.
pub fn pin_to_highest_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if got != 0 {
        return None;
    }
    let cpu = (0..1024).rev().find(|c| set[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the call
    // only reads it.
    let set_ok = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (set_ok == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_time_survives_hostile_command_names() {
        // comm = "a) b (c" — spaces and parentheses inside field 2.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(3000.0));
        assert_eq!(parse_stat_cpu_ms("garbage"), None);
        assert_eq!(parse_stat_cpu_ms("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_and_net_dev_fields_parse() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1628 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(1628));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        let dev = "Inter-|   Receive    |  Transmit\n face |bytes packets errs|bytes packets\n    \
                   lo: 4159 39 0 0 0 0 0 0 4159 39 0 0 0 0 0 0\n  eth0:12 3 0 0 0 0 0 0 9 1 0 0 0 0 0 0\n";
        assert_eq!(parse_net_dev(dev, "lo"), Some((4159, 39)));
        assert_eq!(parse_net_dev(dev, "eth0"), Some((12, 3)));
        assert_eq!(parse_net_dev(dev, "wlan0"), None);
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(parse_schedstat_ns("123456789 5000 42\n"), Some(123_456_789));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn own_counters_are_readable() {
        let me = Proc::this();
        assert!(me.peak_rss_mib() > 0.0);
        assert!(me.cpu_ms() >= 0.0);
    }
}
