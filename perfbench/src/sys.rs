//! Host facts, process counters and the one-sample child processes.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// User plus system CPU seconds this process has used, threads that
/// already exited included.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks; the fields
    // after the parenthesised command name start at field 3.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / TICKS_PER_SECOND,
        _ => 0.0,
    }
}

/// The checked-out commit, read from `.git` under the working directory
/// without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Wall seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What a one-sample child process reports.
#[derive(Debug, Clone, Copy)]
pub struct ChildSample {
    /// Wall seconds of the timed operation.
    pub op_s: f64,
    /// The child's peak resident set, MiB.
    pub rss_mb: f64,
}

impl ChildSample {
    /// The line a child prints last.
    pub fn to_line(self) -> String {
        format!("sample {} {}", self.op_s, self.rss_mb)
    }

    fn parse(line: &str) -> Option<Self> {
        let mut parts = line.strip_prefix("sample ")?.split(' ');
        let op_s = parts.next()?.parse().ok()?;
        let rss_mb = parts.next()?.parse().ok()?;
        Some(Self { op_s, rss_mb })
    }
}

/// Runs one sample of `workload` in a fresh process of this benchmark
/// (so its peak resident set is that sample's alone), waits for it, and
/// returns what it measured. The child writes its output to `artifact`.
pub fn spawn_child(
    workload: &str,
    seed: u64,
    artifact: &Path,
    extra: &[String],
) -> Result<ChildSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--child",
        ])
        .arg(artifact)
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child sample: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("child sample failed ({})", output.status));
    }
    stdout
        .lines()
        .last()
        .and_then(ChildSample::parse)
        .ok_or_else(|| format!("child sample printed no result: {stdout:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_line_round_trips() {
        let s = ChildSample {
            op_s: 1.25,
            rss_mb: 300.5,
        };
        let back = ChildSample::parse(&s.to_line()).unwrap();
        assert_eq!((back.op_s, back.rss_mb), (1.25, 300.5));
        assert!(ChildSample::parse("nonsense").is_none());
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }
}
