//! Process accounting read from `/proc/self` (Linux only — the benchmark
//! refuses to run elsewhere rather than report zeros).

use std::fs;
use std::io;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// Fixed at 100 on every Linux ABI; reading it properly needs `sysconf`,
/// i.e. a libc binding this dependency-free package does not have.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU seconds consumed by the process so far, including
/// threads that have already exited.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cpu {
    /// Seconds in user mode.
    pub user_s: f64,
    /// Seconds in kernel mode.
    pub sys_s: f64,
}

impl Cpu {
    /// User + system seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// CPU consumed since `earlier`.
    pub fn since(&self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what}"))
}

/// Reads the process's CPU time from `/proc/self/stat`.
///
/// # Errors
///
/// The file is missing (not Linux) or not in the documented format.
pub fn cpu() -> io::Result<Cpu> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may contain spaces and parentheses; the
    // numeric fields start after the *last* ')'.
    let rest = &stat[stat.rfind(')').ok_or_else(|| bad("/proc/self/stat"))? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut tick = |n: usize| -> io::Result<f64> {
        fields
            .nth(n)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_S)
            .ok_or_else(|| bad("/proc/self/stat"))
    };
    let user_s = tick(11)?;
    let sys_s = tick(0)?;
    Ok(Cpu { user_s, sys_s })
}

/// Sum over the process's *live* threads of on-CPU nanoseconds
/// (`/proc/self/task/*/schedstat`, first field), in seconds. An
/// independent clock for [`cpu`]: nanosecond resolution, but blind to
/// threads that have exited.
///
/// # Errors
///
/// `/proc` is missing or a schedstat file is malformed.
pub fn schedstat_cpu_s() -> io::Result<f64> {
    let mut total_ns = 0u64;
    for_each_task(|dir| {
        // A thread may exit between the directory listing and the read.
        let Ok(text) = fs::read_to_string(format!("{dir}/schedstat")) else {
            return Ok(());
        };
        total_ns += text
            .split_ascii_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| bad("schedstat"))?;
        Ok(())
    })?;
    Ok(total_ns as f64 / 1e9)
}

fn for_each_task(mut f: impl FnMut(&str) -> io::Result<()>) -> io::Result<()> {
    for entry in fs::read_dir("/proc/self/task")? {
        let path = entry?.path();
        f(path.to_str().ok_or_else(|| bad("task path"))?)?;
    }
    Ok(())
}

/// Live thread count and the context switches (voluntary + involuntary)
/// they have made so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Threads {
    /// Threads alive right now.
    pub count: u64,
    /// Context switches summed over those threads.
    pub ctx_switches: u64,
}

/// Reads [`Threads`] from `/proc/self/task/*/status`.
///
/// # Errors
///
/// `/proc` is missing.
pub fn threads() -> io::Result<Threads> {
    let mut t = Threads::default();
    for_each_task(|dir| {
        let Ok(status) = fs::read_to_string(format!("{dir}/status")) else {
            return Ok(());
        };
        t.count += 1;
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                t.ctx_switches += v.trim().parse::<u64>().map_err(|_| bad("task status"))?;
            }
        }
        Ok(())
    })?;
    Ok(t)
}

/// Peak resident set size of the process so far (`VmHWM`), in MB.
///
/// # Errors
///
/// `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| bad("/proc/self/status"))
}
