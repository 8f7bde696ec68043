//! Process resource readings from `/proc/self`: CPU time and peak resident
//! memory of the measuring process.

use std::fs;

/// User plus system CPU seconds this process has used so far, all threads
/// included (live and exited). `clk_tck` is the kernel's clock-tick rate,
/// which `run.py` reads with `os.sysconf` and passes down.
pub fn cpu_seconds(clk_tck: f64) -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after it are
    // space-separated. utime and stime are fields 14 and 15.
    let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick count") as f64 };
    (ticks(11) + ticks(12)) / clk_tck
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("VmHWM is reported");
    kb as f64 / 1024.0
}
