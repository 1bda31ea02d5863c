//! Host time as this process's CPU time. On a virtual machine that shares
//! its cores, wall time also counts the stretches in which the hypervisor
//! runs someone else's vCPU: on a 2-vCPU host those came and went in
//! bursts that doubled a fixed loop's wall time while its CPU time stayed
//! put. The benchmark runs the library on one worker thread, so CPU time
//! is the wall time an uncontended core would show. With more workers it
//! is their summed time — total work, not latency.

/// A CPU-time stopwatch.
pub struct Stopwatch(f64);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(cpu_secs())
    }

    /// CPU seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        cpu_secs() - self.0
    }
}

/// CPU seconds this process has used, all threads included.
#[cfg(all(unix, target_pointer_width = "64"))]
pub fn cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    #[cfg(target_os = "macos")]
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 12;
    #[cfg(not(target_os = "macos"))]
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    let mut t = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `t` is a live, writable `timespec` (two 64-bit fields on the
    // 64-bit unix targets this function is compiled for), and clock_gettime
    // writes only through the pointer it is given, before returning.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Wall seconds since the first call, where no process CPU clock is
/// available.
#[cfg(not(all(unix, target_pointer_width = "64")))]
pub fn cpu_secs() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        for k in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k));
        }
        assert!(sw.secs() > 0.0, "{x}");
    }
}
