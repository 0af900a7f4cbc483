//! Counters read from `/proc`: CPU time and syscalls per thread,
//! TIME-WAIT sockets, and the filesystem under a path.

use std::fs;
use std::net::Ipv4Addr;
use std::path::Path;

/// Clock ticks per second of `utime`/`stime` (`USER_HZ`, 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system) from a `/proc/.../stat` line.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// This thread's kernel task id.
pub fn current_tid() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// Work one thread has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskCounters {
    pub cpu_s: f64,
    pub syscr: u64,
    pub syscw: u64,
}

impl TaskCounters {
    pub fn minus(self, before: TaskCounters) -> TaskCounters {
        TaskCounters {
            cpu_s: self.cpu_s - before.cpu_s,
            syscr: self.syscr.saturating_sub(before.syscr),
            syscw: self.syscw.saturating_sub(before.syscw),
        }
    }

    pub fn plus(self, other: TaskCounters) -> TaskCounters {
        TaskCounters {
            cpu_s: self.cpu_s + other.cpu_s,
            syscr: self.syscr + other.syscr,
            syscw: self.syscw + other.syscw,
        }
    }
}

fn io_field(io: &str, key: &str) -> u64 {
    io.lines()
        .find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
        .unwrap_or(0)
}

/// Counters of one thread of this process.
pub fn task(tid: u32) -> TaskCounters {
    counters(&format!("/proc/self/task/{tid}"))
}

fn counters(dir: &str) -> TaskCounters {
    let cpu_s = fs::read_to_string(format!("{dir}/stat"))
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0);
    let io = fs::read_to_string(format!("{dir}/io")).unwrap_or_default();
    TaskCounters {
        cpu_s,
        syscr: io_field(&io, "syscr:"),
        syscw: io_field(&io, "syscw:"),
    }
}

/// Counters of the whole process, exited threads included.
pub fn process() -> TaskCounters {
    counters("/proc/self")
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this machine had work.
pub fn steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// TCP segments sent in this process's network namespace.
pub fn tcp_out_segs() -> u64 {
    let snmp = fs::read_to_string("/proc/self/net/snmp").unwrap_or_default();
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(names), Some(values)) = (tcp.next(), tcp.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(n, _)| *n == "OutSegs")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// TIME-WAIT sockets on the host: `(all, toward ip)`.
pub fn time_wait(ip: Ipv4Addr) -> (usize, usize) {
    // /proc/net/tcp prints addresses as little-endian hex words.
    let want = format!("{:08X}", u32::from_le_bytes(ip.octets()));
    let mut all = 0;
    let mut toward = 0;
    for file in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let text = fs::read_to_string(file).unwrap_or_default();
        for line in text.lines().skip(1) {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.get(3) != Some(&"06") {
                continue;
            }
            all += 1;
            let hits = |a: Option<&&str>| a.is_some_and(|a| a.starts_with(&want));
            if hits(f.get(1)) || hits(f.get(2)) {
                toward += 1;
            }
        }
    }
    (all, toward)
}

/// `(filesystem type, device)` of the mount holding `path`.
pub fn filesystem_of(path: &Path) -> (String, String) {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            Some((
                f.get(1)?.to_string(),
                f.get(2)?.to_string(),
                f.first()?.to_string(),
            ))
        })
        .filter(|(mnt, _, _)| path.starts_with(mnt))
        .max_by_key(|(mnt, _, _)| mnt.len())
        .map(|(_, fstype, dev)| (fstype, dev))
        .unwrap_or_else(|| ("unknown".into(), "unknown".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_a_command_with_spaces() {
        let line = "42 (a b) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(stat_cpu_s(line), Some(3.0));
    }

    #[test]
    fn this_thread_is_a_task_of_the_process() {
        let tid = current_tid();
        assert!(tid > 0);
        assert!(process().syscr >= task(tid).syscr);
    }
}
