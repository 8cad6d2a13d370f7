//! What the host process costs, from `getrusage`: CPU time and the
//! resident high-water mark; and the facts a result must be read with.

use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which the first is `ru_maxrss`.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage_self() -> Rusage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value laid out as the 64-bit Linux
    // `struct rusage` (the only target this crate builds for, see the
    // `compile_error!` in lib.rs), and getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    ru
}

/// User and system CPU seconds this process has used so far.
fn cpu_seconds() -> (f64, f64) {
    let ru = rusage_self();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (secs(&ru.utime), secs(&ru.stime))
}

/// The process's resident-memory high-water mark in MiB: `ru_maxrss`,
/// the counter `/proc/self/status` shows as `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    rusage_self().maxrss_kb as f64 / 1024.0
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The git revision of the working directory's checkout, read from
/// `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None => head,
    }
}

/// Wall and CPU time of one measured interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Wall seconds.
    pub wall_s: f64,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
}

impl Usage {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Run `f`, returning its value and the wall and CPU time it took.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    let (u0, s0) = cpu_seconds();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let (u1, s1) = cpu_seconds();
    (
        r,
        Usage {
            wall_s,
            user_s: u1 - u0,
            sys_s: s1 - s0,
        },
    )
}
