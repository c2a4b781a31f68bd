//! What the benchmark reads from the host: core count, the process's
//! peak memory and CPU time from `/proc`, and a memory-bandwidth probe.

use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat`. Linux reports
/// `utime`/`stime` in `USER_HZ` units, which is 100 on every supported
/// architecture; `sysconf` is not reachable without libc.
const USER_HZ: f64 = 100.0;

/// Bytes per array of the triad probe: 64 MiB, so the three arrays are
/// 48 times a core's 4 MiB L2 on the reference host. Its reported 260 MiB
/// L3 is the whole socket's and not the 2-vCPU guest's to keep.
pub const TRIAD_ARRAY_BYTES: usize = 64 << 20;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so utime (14) and stime (15) are
    // at offsets 11 and 12.
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("tick count in /proc/self/stat") };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// STREAM triad `a[i] = b[i] + s·c[i]` over three [`TRIAD_ARRAY_BYTES`]
/// arrays on `threads` threads, best of three passes, GB/s counting the
/// three arrays moved once each.
pub fn stream_triad_gbs(threads: usize) -> f64 {
    let len = TRIAD_ARRAY_BYTES / std::mem::size_of::<f64>();
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(threads);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = *y + 3.0 * *z;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    assert_eq!(a[len / 2], 7.0);
    (3 * TRIAD_ARRAY_BYTES) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 1.0);
        let before = cpu_seconds();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        assert!(cpu_seconds() >= before + 0.03);
    }
}
