//! Process and file-system facts read through libc, plus order
//! statistics.

use std::path::Path;

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct StatFs {
    f_type: i64,
    rest: [u64; 15],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn waitid(idtype: i32, id: u32, info: *mut [u64; 16], options: i32) -> i32;
    fn statfs(path: *const std::ffi::c_char, buf: *mut StatFs) -> i32;
    fn sync();
}

/// Flushes dirty file data, so a timed run does not start behind the
/// write-back of an earlier one.
pub fn flush_writes() {
    // SAFETY: `sync` takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Blocks until child `pid` has exited, without reaping it: until the
/// caller's `Child::wait`, the pid cannot be reused.
pub fn wait_exit_unreaped(pid: u32) -> std::io::Result<()> {
    const P_PID: i32 = 1;
    const WEXITED: i32 = 4;
    const WNOWAIT: i32 = 0x0100_0000;
    loop {
        // Large enough for the platform's `siginfo_t` (128 bytes).
        let mut info = [0u64; 16];
        // SAFETY: `info` is a writable buffer of `siginfo_t`'s size.
        if unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) } == 0 {
            return Ok(());
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// `getrusage(RUSAGE_CHILDREN)`: the resource use of every child process
/// waited for so far. The bench's only children are analyzer processes.
fn children_usage() -> Option<RUsage> {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable, correctly sized `struct rusage`.
    (unsafe { getrusage(RUSAGE_CHILDREN, &mut u) } == 0).then_some(u)
}

/// Largest resident set (MiB) of any child process waited for so far.
pub fn children_peak_rss_mb() -> f64 {
    children_usage().map_or(0.0, |u| u.maxrss as f64 / 1024.0)
}

/// User plus system CPU seconds of the child processes waited for so far.
pub fn children_cpu_s() -> f64 {
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    children_usage().map_or(0.0, |u| secs(u.utime) + secs(u.stime))
}

/// Name of the file system holding `path`.
pub fn fs_name(path: &Path) -> String {
    let Ok(c) = std::ffi::CString::new(path.to_string_lossy().as_bytes()) else {
        return "unknown".into();
    };
    let mut buf = StatFs {
        f_type: 0,
        rest: [0; 15],
    };
    // SAFETY: `c` is NUL-terminated and `buf` is at least as large as
    // the platform's `struct statfs`.
    if unsafe { statfs(c.as_ptr(), &mut buf) } != 0 {
        return "unknown".into();
    }
    match buf.f_type {
        0x0102_1994 => "tmpfs".into(),
        0xEF53 => "ext4".into(),
        0x794C_7630 => "overlayfs".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        other => format!("0x{other:x}"),
    }
}

/// The `q`-quantile of `xs` with linear interpolation between order
/// statistics (`q = 0.5` is the median).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.9) - 10.0).abs() < 1e-9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn waiting_leaves_the_child_to_reap() {
        let mut child = std::process::Command::new("true").spawn().unwrap();
        wait_exit_unreaped(child.id()).unwrap();
        assert!(child.wait().unwrap().success());
    }

    #[test]
    fn own_facts_are_readable() {
        assert!(children_peak_rss_mb() >= 0.0);
        assert!(children_cpu_s() >= 0.0);
        assert_ne!(fs_name(Path::new(".")), "unknown");
    }
}
