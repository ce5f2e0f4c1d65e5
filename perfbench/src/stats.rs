//! Small measurement helpers: order statistics, process counters from `/proc`, and the
//! FNV-1a hash that fingerprints inputs and replies.

use std::fs;

/// FNV-1a (64-bit) over `bytes`, continuing from `state` when given.
pub fn fnv1a(bytes: &[u8], state: Option<u64>) -> u64 {
    let mut hash = state.unwrap_or(0xcbf2_9ce4_8422_2325);
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating between order statistics;
/// 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// User plus system CPU seconds of this process, all threads, dead ones included
/// (`/proc/self/stat` fields 14 and 15, in Linux's fixed 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let text = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3 (state).
    let rest = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Resident set size of this process in MiB (`VmRSS` of `/proc/self/status`).
pub fn rss_mib() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hand the allocator's free heap pages back to the kernel (glibc's `malloc_trim`), so
/// that `VmRSS` read next counts memory in use, not memory freed but kept.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes a plain size, only releases memory the allocator
        // holds free, and has no other precondition.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Threads of this process in state `R` (running or runnable) right now.
pub fn runnable_threads() -> usize {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter(|task| {
            fs::read_to_string(task.path().join("stat")).is_ok_and(|stat| {
                stat.rsplit_once(')')
                    .is_some_and(|(_, rest)| rest.trim_start().starts_with('R'))
            })
        })
        .count()
}
