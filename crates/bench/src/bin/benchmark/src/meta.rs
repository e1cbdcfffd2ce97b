//! The host and revision stamp every result carries, and the process's
//! peak memory.

use std::path::Path;

/// `VmHWM` of this process in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the largest cache level `/sys` describes for cpu0, as the
/// kernel prints it (`"32768K"`), or `"unknown"`.
pub fn llc() -> String {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, String)> = None;
    for index in 0..8 {
        let level = std::fs::read_to_string(dir.join(format!("index{index}/level")));
        let size = std::fs::read_to_string(dir.join(format!("index{index}/size")));
        if let (Ok(level), Ok(size)) = (level, size) {
            let level: u32 = level.trim().parse().unwrap_or(0);
            if best.as_ref().is_none_or(|(l, _)| level > *l) {
                best = Some((level, size.trim().to_string()));
            }
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, size)| size)
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git (`"unknown"` outside a repository).
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The stamp as the fields of a JSON object (no braces).
pub fn stamp_json(seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "\"host_cores\": {cores}, \"pool_threads\": {}, \"llc\": \"{}\", \"rustc\": \"{}\", \
         \"profile\": \"{profile}\", \"git_revision\": \"{}\", \"seed\": {seed}",
        amd_exec::global().threads(),
        llc(),
        rustc_version(),
        git_revision(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_a_json_object_body() {
        let json = amd_obs::parse_json(&format!("{{{}}}", stamp_json(11))).expect("valid JSON");
        assert_eq!(json.get("seed").and_then(|v| v.as_u64()), Some(11));
        assert!(json.get("host_cores").and_then(|v| v.as_u64()).unwrap() >= 1);
        assert!(json.get("rustc").and_then(|v| v.as_str()).is_some());
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
