//! Host-speed calibration.
//!
//! A virtual machine that shares its processors with other tenants runs
//! slower or faster in stretches that last from seconds to minutes,
//! often longer than one run, and every CPU-bound timing moves with the
//! stretch it lands in. A fixed kernel that does not touch the engine
//! (a sort and a B-tree build over seeded keys: allocation, comparisons
//! and pointer chasing, the mix a restart spends its time on) is timed
//! before each set-up and each restart round. Each cycle's timings are
//! then scaled by [`REF_NS`] over the median of its kernel timings, so
//! a timing reads what it would on a host where the kernel takes
//! [`REF_NS`]. The engine's own speed still moves every scaled timing
//! one for one, since the kernel is the same code on every commit.
//!
//! The run is also pinned to one CPU ([`pin_to_current_cpu`]), so the
//! kernel times the CPU the workload runs on.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (ns).
pub const REF_NS: f64 = 2_500_000.0;

/// Keys the kernel sorts.
const KEYS: usize = 80_000;

/// Pins the calling thread, and every thread it spawns later, to the
/// CPU it runs on now; called first thing in `main`, it pins the run. On a host that lends a few CPUs of a shared machine,
/// whether two threads get to run in parallel changes from minute to
/// minute, and with it how two clients contend for one lock. Pinned,
/// the clients of a concurrent workload always interleave on one CPU,
/// and the speed kernel times the CPU the workload runs on. Returns the
/// CPU, or `None` where pinning is not available.
pub fn pin_to_current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // A glibc `cpu_set_t`: 1024 bits.
        let mut mask = [0u64; 16];
        // SAFETY: both calls take plain values and a pointer to a live
        // buffer of the size passed.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        (rc == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// One pass of the kernel; returns a checksum so nothing is elided.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 7
        })
        .collect();
    keys.sort_unstable();
    let mut tree = BTreeMap::new();
    for (i, k) in keys.iter().step_by(10).enumerate() {
        tree.insert(k % 100_003, i);
    }
    keys[KEYS / 2] ^ tree.len() as u64
}

/// Times one pass of the kernel (ns).
pub fn kernel_ns() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_nanos() as f64
}

/// The factor that scales a cycle's timings to the reference host,
/// from the cycle's kernel timings.
pub fn factor(kernel_ns: &[f64]) -> f64 {
    REF_NS / crate::sample::median(kernel_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_factor_scales_to_the_reference() {
        assert_eq!(kernel(), kernel());
        assert!(kernel_ns() > 0.0);
        // A host twice as slow as the reference halves every timing.
        assert_eq!(factor(&[REF_NS * 2.0, REF_NS * 2.0, 1.0]), 0.5);
        assert_eq!(factor(&[REF_NS]), 1.0);
    }
}
