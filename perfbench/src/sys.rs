//! Process resource usage through `getrusage(2)`: user+system CPU time
//! and peak resident set size of the whole process (every thread).

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn usage() -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the C layout
    // of 64-bit Linux; getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u
}

/// User+system CPU seconds the process has used so far.
pub fn cpu_seconds() -> f64 {
    let u = usage();
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    usage().maxrss_kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_and_rss_is_positive() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_mb() > 1.0);
    }
}
