//! Raw libc bindings the standard library does not expose: per-thread
//! and per-process CPU clocks, `wait4` with resource usage, and `kill`.
//! Declared by hand (no `libc` crate), the way the repository's serve
//! daemon binds `signal(2)`. Linux x86-64/aarch64 layouts.

use std::io;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals followed by fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

unsafe extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
pub const SIGTERM: i32 = 15;
pub const SIGKILL: i32 = 9;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock
    // ids are the fixed Linux constants for the calling thread/process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// How a reaped child ended, with its resource usage (its own plus that
/// of every descendant it reaped, e.g. `sweep-worker` processes).
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or 128 + signal number when killed by a signal.
    pub code: i32,
    pub cpu_ns: u64,
    pub maxrss_kib: u64,
}

/// Block until child `pid` exits and reap it.
pub fn wait_child(pid: u32) -> io::Result<Exit> {
    let mut status = 0i32;
    let mut ru = RUsage::default();
    loop {
        // SAFETY: `status` and `ru` are valid writable out-parameters of
        // the sizes `wait4` expects; `pid` is our own unreaped child.
        let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
        if rc == pid as i32 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let tv_ns = |t: &Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Exit {
        code,
        cpu_ns: tv_ns(&ru.ru_utime) + tv_ns(&ru.ru_stime),
        maxrss_kib: ru.ru_maxrss.max(0) as u64,
    })
}

/// Send `sig` to process `pid`.
pub fn signal(pid: u32, sig: i32) -> io::Result<()> {
    // SAFETY: plain syscall on a pid we spawned; no memory is shared.
    if unsafe { kill(pid as i32, sig) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// User + system CPU of every thread of a live process, in ns, from
/// `/proc/<pid>/stat` (clock-tick resolution).
pub fn proc_cpu_ns(pid: u32) -> io::Result<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    // `rest` starts at field 3 (state), so field k is index k - 3.
    let total = ticks(11)? + ticks(12)?;
    // USER_HZ is 100 on every Linux configuration this runs on.
    Ok(total * 10_000_000)
}

/// Peak resident set of a live process, in KiB (`VmHWM`).
pub fn proc_peak_rss_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}
