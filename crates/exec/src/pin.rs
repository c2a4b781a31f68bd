//! Optional core-affinity pinning for fork-join worker threads.
//!
//! Off by default: the scheduler usually does fine, and pinning a
//! VM-sized task set onto a shared CI box hurts. Set `HOURGLASS_PIN=1`
//! (or call [`force_enable`], the CLI-flag hook) to pin task `i` of every
//! parallel fork-join region onto the `i % n`-th CPU of the process's
//! initial affinity mask — on a dedicated machine this stops the
//! scheduler from migrating workers mid-superstep and keeps each worker's
//! slab resident in one core's private cache.
//!
//! Only threads that exist to run task `i` are pinned: a scoped
//! `fork_join` thread, a [`Pool`](crate::Pool) worker. A task that runs on
//! the calling thread — the sequential path, the pool's last slot — is
//! never pinned, because the caller's affinity would stay narrowed after
//! the call returned.
//!
//! Implemented with raw `sched_setaffinity`/`sched_getaffinity` syscalls
//! on Linux x86_64/aarch64 (the workspace does not link libc); everywhere
//! else the module compiles to a no-op, so callers never need to gate on
//! platform.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Tri-state switch: 0 = read `HOURGLASS_PIN` lazily, 1 = forced on,
/// 2 = forced off.
static STATE: AtomicU8 = AtomicU8::new(0);
static ENV: OnceLock<bool> = OnceLock::new();

/// Whether worker pinning is active (`HOURGLASS_PIN=1`/`true`/`on`, or
/// [`force_enable`] was called).
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => *ENV.get_or_init(|| {
            std::env::var("HOURGLASS_PIN")
                .map(|v| matches!(v.as_str(), "1" | "true" | "on"))
                .unwrap_or(false)
        }),
    }
}

/// Turns pinning on regardless of the environment (the `--pin` CLI hook).
pub fn force_enable() {
    STATE.store(1, Ordering::Relaxed);
}

/// Turns pinning off regardless of the environment.
pub fn force_disable() {
    STATE.store(2, Ordering::Relaxed);
}

/// CPUs in this process's affinity mask at first query, in index order.
/// Empty when the platform has no affinity support compiled in.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(sys::query_allowed_cpus)
}

/// Pins the calling thread for fork-join task `index`: CPU
/// `allowed[index % allowed.len()]`. No-op (returning `false`) when
/// pinning is disabled, unsupported, or the mask query failed.
pub fn pin_task_thread(index: usize) -> bool {
    if !enabled() {
        return false;
    }
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return false;
    }
    sys::set_current_thread_cpu(cpus[index % cpus.len()])
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_SETAFFINITY: usize = 203;
    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_GETAFFINITY: usize = 204;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_SETAFFINITY: usize = 122;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_GETAFFINITY: usize = 123;

    /// 1024 CPUs worth of mask, the kernel's historical cpumask ceiling.
    const MASK_WORDS: usize = 16;

    // SAFETY: both affinity syscalls only read/write the passed mask
    // buffer, whose pointer and length we control; no memory is retained
    // by the kernel past the call.
    #[allow(unsafe_code)]
    fn syscall3(n: usize, a: usize, b: usize, c: usize) -> isize {
        let ret: usize;
        #[cfg(target_arch = "x86_64")]
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        #[cfg(target_arch = "aarch64")]
        unsafe {
            core::arch::asm!(
                "svc 0",
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                in("x8") n,
                options(nostack)
            );
        }
        ret as isize
    }

    pub fn query_allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; MASK_WORDS];
        let ret = syscall3(
            SYS_SCHED_GETAFFINITY,
            0, // pid 0: the calling thread
            std::mem::size_of_val(&mask),
            mask.as_mut_ptr() as usize,
        );
        if ret <= 0 {
            return Vec::new();
        }
        let mut cpus = Vec::new();
        for (word, &bits) in mask.iter().enumerate() {
            for bit in 0..64 {
                if bits & (1u64 << bit) != 0 {
                    cpus.push(word * 64 + bit);
                }
            }
        }
        cpus
    }

    pub fn set_current_thread_cpu(cpu: usize) -> bool {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1u64 << (cpu % 64);
        syscall3(
            SYS_SCHED_SETAFFINITY,
            0,
            std::mem::size_of_val(&mask),
            mask.as_ptr() as usize,
        ) == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub fn query_allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn set_current_thread_cpu(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The on/off switch is process-global; tests that flip it take this
    /// lock so they serialize against each other.
    static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_pin_is_a_noop() {
        let _guard = SWITCH.lock().expect("lock");
        force_disable();
        assert!(!enabled());
        assert!(!pin_task_thread(0));
    }

    #[test]
    fn pinned_fork_join_matches_unpinned() {
        let _guard = SWITCH.lock().expect("lock");
        let run = || {
            let tasks: Vec<_> = (0..8u64).map(|i| move || i * i).collect();
            crate::fork_join(true, tasks)
        };
        force_disable();
        let unpinned = run();
        force_enable();
        let pinned = run();
        force_disable();
        assert_eq!(unpinned, pinned);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn the_calling_thread_is_never_pinned() {
        let _guard = SWITCH.lock().expect("lock");
        // Drive the pool from a scratch thread: whatever happens to the
        // caller's mask must not happen to the test runner's.
        let handle = std::thread::spawn(|| {
            let before = sys::query_allowed_cpus();
            force_enable();
            let mut pool = crate::Pool::new(2);
            let tasks: Vec<_> = (0..2).map(|_| sys::query_allowed_cpus).collect();
            let masks = pool.fork_join(tasks);
            force_disable();
            (before, masks, sys::query_allowed_cpus())
        });
        let (before, masks, after) = handle.join().expect("thread");
        if before.is_empty() {
            return;
        }
        assert_eq!(masks[0], vec![allowed_cpus()[0]], "worker 0 runs task 0");
        assert_eq!(masks[1], before, "the caller's own task");
        assert_eq!(after, before);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn affinity_mask_is_queryable() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty(), "a live thread always has allowed CPUs");
        let mut sorted = cpus.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, cpus, "indices sorted and unique");
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn pinning_restricts_a_spawned_thread() {
        // Pin inside a scratch thread so the test runner's own affinity
        // is untouched; the thread inherits the process mask, narrows it,
        // and re-reads exactly one allowed CPU.
        let handle = std::thread::spawn(|| {
            let before = sys::query_allowed_cpus();
            if before.is_empty() {
                return None;
            }
            if !sys::set_current_thread_cpu(before[0]) {
                return None;
            }
            Some((before[0], sys::query_allowed_cpus()))
        });
        if let Some((target, after)) = handle.join().expect("thread") {
            assert_eq!(after, vec![target]);
        }
    }
}
