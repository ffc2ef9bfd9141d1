//! Host facts and process placement: pinning to one CPU and reading the
//! peak resident set.

/// Words in a Linux `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Where the benchmark process runs, recorded with every result.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPUs the process could use before pinning.
    pub nproc: usize,
    /// The one CPU the process is pinned to.
    pub cpu: usize,
}

fn get_mask() -> Result<[u64; MASK_WORDS], String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

fn cpus_in(mask: &[u64; MASK_WORDS]) -> Vec<usize> {
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread — and so every thread it spawns later — to the
/// highest-numbered CPU it may run on, then checks that the pin took.
/// Call before any thread is spawned and before anything reads the host's
/// parallelism.
///
/// # Errors
///
/// A message when the affinity calls fail or the pin did not hold.
pub fn pin_to_one_cpu() -> Result<Placement, String> {
    let allowed = cpus_in(&get_mask()?);
    let cpu = *allowed.last().ok_or("empty CPU affinity mask")?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let now = cpus_in(&get_mask()?);
    if now != [cpu] {
        return Err(format!(
            "pin to CPU {cpu} did not hold: affinity is {now:?}"
        ));
    }
    let seen = std::thread::available_parallelism().map_or(0, |n| n.get());
    if seen != 1 {
        return Err(format!(
            "pinned to CPU {cpu} but available_parallelism reports {seen}"
        ));
    }
    Ok(Placement {
        nproc: allowed.len(),
        cpu,
    })
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb),
        _ => None,
    }
}

/// This process's peak resident set so far, in MiB.
///
/// # Errors
///
/// A message when `/proc/self/status` is unreadable or has no `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_from_a_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   81236 kB\nVmRSS:\t   80000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(81_236));
    }

    #[test]
    fn rejects_missing_or_malformed_vm_hwm() {
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 10 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 10\n"), None);
        // The key must start the line.
        assert_eq!(parse_vm_hwm_kb("XVmHWM:\t 10 kB\n"), None);
    }

    #[test]
    fn reads_this_process_peak_rss() {
        let mb = peak_rss_mb().expect("VmHWM readable on Linux");
        assert!(mb > 0.0, "{mb}");
    }
}
