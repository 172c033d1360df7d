//! Child processes: run one to completion with its peak RSS, and read
//! (or, for this process, reset) a live process's high-water mark.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `-signal` when killed by a signal.
    pub code: i32,
    /// Peak resident set size, KiB.
    pub maxrss_kb: u64,
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
}

/// Reaps `child` with `wait4`, which also reports its peak RSS and
/// CPU time. The child must not be waited on through `std` afterwards.
pub fn reap(child: &Child) -> std::io::Result<Exit> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: plain syscall wrapper; both pointers are valid,
        // exclusively borrowed locals of the declared layouts.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let signal = status & 0x7f;
    let code = if signal == 0 {
        (status >> 8) & 0xff
    } else {
        -signal
    };
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Exit {
        code,
        maxrss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
        cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
    })
}

/// A finished command.
#[derive(Debug)]
pub struct Output {
    pub exit: Exit,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    /// Spawn to reap, seconds.
    pub wall: f64,
}

/// Runs `cmd` to completion, capturing both output streams.
pub fn run(cmd: &mut Command) -> std::io::Result<Output> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut err_pipe = child.stderr.take().expect("piped");
    let err_reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = err_pipe.read_to_end(&mut buf);
        buf
    });
    let mut stdout = Vec::new();
    let read = child.stdout.take().expect("piped").read_to_end(&mut stdout);
    let stderr = err_reader.join().unwrap_or_default();
    let exit = reap(&child)?;
    let wall = start.elapsed().as_secs_f64();
    read?;
    Ok(Output {
        exit,
        stdout,
        stderr,
        wall,
    })
}

/// `VmHWM` (peak RSS) of a live process, MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Starts a new high-water mark for this process: hands freed heap
/// memory back to the kernel (`malloc_trim`), then resets `VmHWM` to
/// the current RSS (writing 5 to `/proc/self/clear_refs`).
pub fn reset_hwm() -> std::io::Result<()> {
    // SAFETY: a glibc call without pointer arguments; it only releases
    // free heap pages.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}
