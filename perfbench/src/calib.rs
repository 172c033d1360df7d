//! Host-speed calibration.
//!
//! The benchmark runs on a two-vCPU share of a larger machine. How fast
//! that share runs the same code moves between levels up to 1.45x
//! apart, for seconds to minutes at a time, on both vCPUs together, as
//! other tenants load the machine's caches and memory (a plain
//! arithmetic loop does not slow down, so it is not the clock rate).
//! The share of a run spent at each level varies from run to run and
//! from hour to hour, so a plain timing moves by up to 1.4x with no
//! change to the program.
//!
//! The harness therefore times a fixed kernel of its own code, a sort
//! and a hash-map fill, next to every timed op. The kernel slows down
//! by about 1.5x at the slower level; the camj workloads by 1.2x to
//! 1.45x. Every timing metric is scaled to a host on which the kernel
//! takes [`NOMINAL_S`]: times are divided by the op's *slowness*
//! (kernel time / `NOMINAL_S`), rates multiplied by it. The kernel is
//! timed in thread CPU time, so waiting for a vCPU does not count. No
//! change to camj can move the kernel, so a faster camj shows in full.
//! The unscaled figures are printed as notes.

use std::collections::HashMap;

/// Keys the kernel sorts and then counts into a hash map.
const KEYS: usize = 16_384;
/// Kernel CPU time that counts as slowness 1.0: a round figure between
/// its times at the two levels on the reference host, a two-vCPU Xeon
/// VM (about 1.1 and 1.7 ms).
pub const NOMINAL_S: f64 = 0.0015;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, seconds.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: plain syscall wrapper writing into a valid local.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The calibration kernel and its reusable buffer; one per thread that
/// times ops.
pub struct Calib {
    keys: Vec<f64>,
    state: u64,
}

impl Calib {
    pub fn new() -> Self {
        Self {
            keys: vec![0.0; KEYS],
            state: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// Times the kernel twice and returns the host's slowness now: the
    /// shorter thread CPU time over [`NOMINAL_S`]. The first pass also
    /// brings the kernel's data back into cache after the op before.
    pub fn slowness(&mut self) -> f64 {
        let first = self.kernel();
        first.min(self.kernel()) / NOMINAL_S
    }

    /// One pass of the kernel; its thread CPU time, seconds.
    fn kernel(&mut self) -> f64 {
        let start = thread_cpu_s();
        let mut x = self.state;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for key in &mut self.keys {
            *key = (next() >> 11) as f64;
        }
        self.keys.sort_unstable_by(f64::total_cmp);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for i in 0..KEYS as u64 {
            *counts.entry(next() % (KEYS as u64 / 2)).or_insert(0) += i;
        }
        std::hint::black_box((&self.keys, &counts));
        self.state = next();
        thread_cpu_s() - start
    }
}
