//! Thread CPU time through `getrusage(2)`, the process's peak resident
//! memory through `/proc/self`, a precise wait for a readable socket
//! through `ppoll(2)`, and idle-priority spinners pinned to each CPU
//! through `sched_setaffinity(2)` and `sched_setscheduler(2)`; the
//! standard library already links against these calls on Linux.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

#[cfg(target_os = "linux")]
mod imp {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    #[derive(Default)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }

    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_THREAD: i32 = 1;

    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    fn usage(who: i32) -> Option<RUsage> {
        let mut u = RUsage::default();
        // SAFETY: `u` is a live, writable `struct rusage` for this
        // target (64-bit Linux layout above), and `who` is one of the
        // two selectors the kernel accepts here.
        let rc = unsafe { getrusage(who, &mut u) };
        (rc == 0).then_some(u)
    }

    pub fn thread_cpu_s() -> f64 {
        usage(RUSAGE_THREAD).map_or(0.0, |u| {
            let us = (u.utime[0] + u.stime[0]) * 1_000_000 + u.utime[1] + u.stime[1];
            us as f64 / 1e6
        })
    }

    pub fn cpu_jiffies() -> Option<(u64, u64)> {
        // The first line of /proc/stat sums every CPU: user nice system
        // idle iowait irq softirq steal ...
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
    }

    pub fn reset_peak_rss() -> std::io::Result<()> {
        // "5" resets the process's resident high-water mark (VmHWM) to
        // its current resident size (Linux 4.0 and later).
        std::fs::write("/proc/self/clear_refs", "5")
    }

    pub fn peak_rss_mib() -> f64 {
        let hwm_kib = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            });
        // rest[0] is ru_maxrss, in KiB on Linux: the lifetime peak.
        hwm_kib
            .or_else(|| usage(RUSAGE_SELF).map(|u| u.rest[0] as f64))
            .map_or(0.0, |kib| kib / 1024.0)
    }

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    const POLLIN: i16 = 1;

    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }

    pub fn wait_readable(
        stream: &std::net::TcpStream,
        timeout: std::time::Duration,
    ) -> std::io::Result<bool> {
        use std::os::fd::AsRawFd;
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            sec: timeout.as_secs().min(i64::MAX as u64) as i64,
            nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` is one live `struct pollfd` (count 1) naming an
        // open socket that `stream` keeps open for the call; `ts` is a
        // valid `struct timespec` with nsec < 1e9; a null sigmask leaves
        // the signal mask unchanged.
        let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        match rc {
            -1 => {
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::Interrupted {
                    Ok(false)
                } else {
                    Err(e)
                }
            }
            0 => Ok(false),
            _ => Ok(true),
        }
    }
}

#[cfg(target_os = "linux")]
mod sched {
    /// `cpu_set_t`: a bit per CPU, 1024 CPUs.
    type CpuSet = [u64; 16];

    const SCHED_IDLE: i32 = 5;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable `cpu_set_t` of the size
        // passed; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..set.len() * 64)
            .filter(|&c| (set[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    pub fn pin_at_idle_priority(cpu: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] = 1 << (cpu % 64);
        let param = 0i32;
        // SAFETY: `param` is a `struct sched_param` (one int, priority 0
        // as SCHED_IDLE requires) and `set` a `cpu_set_t` of the size
        // passed, both live for the calls; pid 0 is the calling thread.
        unsafe {
            sched_setscheduler(0, SCHED_IDLE, &param) == 0
                && sched_setaffinity(0, size_of::<CpuSet>(), set.as_ptr()) == 0
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sched {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }
    pub fn pin_at_idle_priority(_cpu: usize) -> bool {
        false
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn thread_cpu_s() -> f64 {
        0.0
    }
    pub fn cpu_jiffies() -> Option<(u64, u64)> {
        None
    }
    pub fn reset_peak_rss() -> std::io::Result<()> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
    pub fn peak_rss_mib() -> f64 {
        0.0
    }
    pub fn wait_readable(
        stream: &std::net::TcpStream,
        timeout: std::time::Duration,
    ) -> std::io::Result<bool> {
        stream.set_read_timeout(Some(timeout.max(std::time::Duration::from_micros(1))))?;
        match stream.peek(&mut [0u8; 1]) {
            Ok(_) => Ok(true),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }
}

/// CPU time (user + system) the calling thread has used, in seconds.
pub fn thread_cpu_s() -> f64 {
    imp::thread_cpu_s()
}

/// Resets the process's peak resident set size to its current resident
/// size, so that [`peak_rss_mib`] covers only what runs after the call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    imp::reset_peak_rss()
}

/// Keeps every CPU the process may run on from going idle, until
/// dropped: one spinning thread per CPU, pinned to it and at the lowest
/// scheduling priority (`SCHED_IDLE`), so it runs only when no other
/// thread wants that CPU and yields it at once when one wakes.
///
/// A virtual CPU with nothing to run halts, and when work arrives it
/// waits for the hypervisor to run it again; on a busy host that wait
/// is milliseconds and counts as stolen time. A serving request wakes
/// several threads on its way (the server's poll loop, the worker, the
/// generator), so these waits set its tail. Keeping the CPUs from
/// halting is what booting the guest with `idle=poll` does. A spinner
/// that cannot get idle priority or its CPU does not spin.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
    spinning: usize,
}

impl KeepAwake {
    /// Starts the spinners and waits until each is spinning or has
    /// given up.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let spinners: Vec<JoinHandle<()>> = sched::allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let (stop, tx) = (Arc::clone(&stop), tx.clone());
                std::thread::spawn(move || {
                    let pinned = sched::pin_at_idle_priority(cpu);
                    // Every sender gone ends `start`'s wait.
                    let _ = tx.send(pinned);
                    drop(tx);
                    if pinned {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let spinning = rx.iter().filter(|&pinned| pinned).count();
        KeepAwake {
            stop,
            spinners,
            spinning,
        }
    }

    /// How many CPUs are kept awake.
    pub fn spinning(&self) -> usize {
        self.spinning
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for s in self.spinners.drain(..) {
            let _ = s.join();
        }
    }
}

/// The steal share above which a stretch of a run counts as disturbed:
/// the hypervisor took more than 1% of the machine's CPU time, and what
/// the stretch measured is the host more than the program.
pub const STEAL_LIMIT: f64 = 0.01;

/// The machine's CPU time so far, as (stolen, total) clock ticks summed
/// over its CPUs: stolen is time the hypervisor ran something else
/// while a virtual CPU of this machine wanted to run.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    imp::cpu_jiffies()
}

/// The share of the machine's CPU time stolen between two
/// [`cpu_jiffies`] readings; 0 where either is missing.
pub fn steal_between(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// [`reset_peak_rss`] at the start of a measured phase; says so if the
/// reset failed, as the peak then includes the fixture and set-up.
pub fn start_peak_rss_window() {
    if let Err(e) = reset_peak_rss() {
        println!("peak_rss_mb: could not reset the peak ({e}); it covers the whole process");
    }
}

/// Peak resident set size of the process since the last
/// [`reset_peak_rss`] (since the start if it never succeeded), in MiB.
pub fn peak_rss_mib() -> f64 {
    imp::peak_rss_mib()
}

/// Waits up to `timeout` for `stream` to have data (or EOF) to read;
/// returns whether it has. The wait uses the kernel's high-resolution
/// timers, so it ends on time to within the timer slack.
pub fn wait_readable(
    stream: &std::net::TcpStream,
    timeout: std::time::Duration,
) -> std::io::Result<bool> {
    imp::wait_readable(stream, timeout)
}

#[cfg(test)]
mod tests {
    #[test]
    fn usage_is_readable_and_cpu_grows_with_work() {
        let before = super::thread_cpu_s();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = super::thread_cpu_s();
        if cfg!(target_os = "linux") {
            assert!(after > before, "{before} -> {after}");
            assert!(super::peak_rss_mib() > 1.0);
        }
    }

    #[test]
    fn keep_awake_spins_on_every_cpu_and_stops_when_dropped() {
        let awake = super::KeepAwake::start();
        if cfg!(target_os = "linux") {
            assert_eq!(awake.spinning(), super::sched::allowed_cpus().len());
        }
        // Idle priority: a busy normal thread still gets its CPU.
        let t0 = std::time::Instant::now();
        let cpu0 = super::thread_cpu_s();
        while t0.elapsed().as_millis() < 200 {
            std::hint::black_box(0u64);
        }
        let share = (super::thread_cpu_s() - cpu0) / t0.elapsed().as_secs_f64();
        assert!(share > 0.2, "{share}");
        drop(awake);
    }

    #[test]
    fn steal_is_a_share_of_cpu_time() {
        let since = super::cpu_jiffies();
        if cfg!(target_os = "linux") {
            assert!(since.is_some());
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        let share = super::steal_between(since, super::cpu_jiffies());
        assert!((0.0..=1.0).contains(&share), "{share}");
        assert_eq!(super::steal_between(None, since), 0.0);
    }

    #[test]
    fn the_peak_covers_what_ran_since_the_reset() {
        if !cfg!(target_os = "linux") || super::reset_peak_rss().is_err() {
            return;
        }
        let touch = |mib: usize| {
            let mut v = vec![0u8; mib << 20];
            for page in v.chunks_mut(4096) {
                page[0] = 1;
            }
            std::hint::black_box(v.len())
        };
        touch(64);
        let with_block = super::peak_rss_mib();
        super::reset_peak_rss().unwrap();
        let after_reset = super::peak_rss_mib();
        assert!(
            with_block - after_reset > 32.0,
            "{with_block} MiB with a 64 MiB block, {after_reset} MiB after the reset"
        );
    }
}
