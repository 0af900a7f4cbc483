//! The Linux facilities the standard library does not expose: private
//! network and mount namespaces, a memory-backed work directory, CPU
//! pinning, and a thread's CPU clock.

use std::ffi::{c_char, CString};
use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::os::unix::ffi::OsStrExt;
use std::path::Path;

const CLONE_NEWNS: i32 = 0x0002_0000;
const CLONE_NEWNET: i32 = 0x4000_0000;
const MS_REC: u64 = 0x4000;
const MS_PRIVATE: u64 = 0x4_0000;
const MNT_DETACH: i32 = 0x2;
const SIOCGIFFLAGS: u64 = 0x8913;
const SIOCSIFFLAGS: u64 = 0x8914;
const IFF_UP: i16 = 0x1;

/// `struct ifreq` as the interface-flag ioctls read and write it.
#[repr(C)]
struct IfReq {
    name: [u8; 16],
    flags: i16,
    _pad: [u8; 22],
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn unshare(flags: i32) -> i32;
    fn ioctl(fd: i32, request: u64, ...) -> i32;
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn mount(
        source: *const c_char,
        target: *const c_char,
        fstype: *const c_char,
        flags: u64,
        data: *const c_char,
    ) -> i32;
    fn umount2(target: *const c_char, flags: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuMask = [u64; 16];

/// Pins the calling thread to the `n`-th CPU it may run on (modulo
/// their count). Best effort: a thread that cannot be pinned runs
/// wherever the scheduler puts it.
pub fn pin_to_nth_cpu(n: usize) {
    let mut mask: CpuMask = [0; 16];
    let size = std::mem::size_of::<CpuMask>();
    // SAFETY: `mask` is a live, writable cpu_set_t of `size` bytes;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return;
    }
    let allowed: Vec<usize> = (0..size * 8)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let Some(&cpu) = allowed.get(n % allowed.len().max(1)) else {
        return;
    };
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live cpu_set_t of `size` bytes naming a CPU
    // the thread was already allowed on.
    unsafe {
        sched_setaffinity(0, size, one.as_ptr());
    }
}

/// CPU time this thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live timespec the call fills in; the clock id
    // is a constant every Linux kernel supports.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    (ts.sec as u64) * 1_000_000_000 + ts.nsec as u64
}

/// Moves this process into a new network namespace with its loopback
/// up, and says whether it did: without the privilege to create one,
/// the process stays where it started. Must run before the process
/// starts a thread.
///
/// Every fetch is a fresh TCP connection, and both ends of each one
/// linger in TIME-WAIT for 60 s. A run sharing the host's loopback with
/// the runs before it inherits their TIME-WAIT sockets: the kernel
/// table fills to its cap and expires them in bursts that stall
/// whatever runs 60 s later. A fresh namespace gives every run an empty
/// table; it and its sockets go away when the process exits.
///
/// # Errors
///
/// The namespace was created but its loopback could not be brought up.
pub fn isolate() -> Result<bool, String> {
    // SAFETY: unshare takes a flags word and touches no memory of ours;
    // the process is still single-threaded, so every later thread is
    // created inside the new namespace.
    if unsafe { unshare(CLONE_NEWNET) } != 0 {
        return Ok(false);
    }
    let sock = UdpSocket::bind("0.0.0.0:0").map_err(|e| format!("socket: {e}"))?;
    let mut req = IfReq {
        name: [0; 16],
        flags: 0,
        _pad: [0; 22],
    };
    req.name[..2].copy_from_slice(b"lo");
    // SAFETY: `req` is a live, properly laid-out ifreq for the duration
    // of both calls, and the descriptor is an open socket.
    let ok = unsafe {
        ioctl(sock.as_raw_fd(), SIOCGIFFLAGS, &mut req as *mut IfReq) == 0 && {
            req.flags |= IFF_UP;
            ioctl(sock.as_raw_fd(), SIOCSIFFLAGS, &mut req as *mut IfReq) == 0
        }
    };
    if ok {
        Ok(true)
    } else {
        Err(format!("loopback up: {}", std::io::Error::last_os_error()))
    }
}

fn c_path(path: &Path) -> Option<CString> {
    CString::new(path.as_os_str().as_bytes()).ok()
}

/// Moves this process into a mount namespace of its own and mounts a
/// tmpfs on `dir` (an existing directory), and says whether it did:
/// without the privilege, `dir` stays on whatever filesystem holds it.
/// Must run before the process starts a thread.
///
/// The edge cache `fsync`s every blob it admits. On a disk the device's
/// sync latency would set the miss path's numbers and vary with whatever
/// else the disk serves; on memory the `fsync` still runs but costs only
/// CPU. The mount is private, so nothing outside this process sees it.
pub fn memory_backed(dir: &Path) -> bool {
    let (Some(target), Some(root)) = (c_path(dir), c_path(Path::new("/"))) else {
        return false;
    };
    let tmpfs = c"tmpfs";
    let options = c"size=512m,mode=0700";
    // SAFETY: unshare takes a flags word; every pointer passed to mount
    // is a NUL-terminated string that outlives the call, or null where
    // mount(2) allows it. Making "/" recursively private first keeps the
    // tmpfs from propagating to the namespace the process came from.
    unsafe {
        unshare(CLONE_NEWNS) == 0
            && mount(
                std::ptr::null(),
                root.as_ptr(),
                std::ptr::null(),
                MS_REC | MS_PRIVATE,
                std::ptr::null(),
            ) == 0
            && mount(
                tmpfs.as_ptr(),
                target.as_ptr(),
                tmpfs.as_ptr(),
                0,
                options.as_ptr(),
            ) == 0
    }
}

/// Detaches the tmpfs [`memory_backed`] mounted on `dir`, so the empty
/// directory under it can be removed.
pub fn unmount(dir: &Path) {
    if let Some(target) = c_path(dir) {
        // SAFETY: `target` is a NUL-terminated path that outlives the call.
        unsafe {
            umount2(target.as_ptr(), MNT_DETACH);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_pinned_thread_may_run_on_one_cpu_only() {
        std::thread::spawn(|| {
            super::pin_to_nth_cpu(1);
            let mut mask: super::CpuMask = [0; 16];
            let size = std::mem::size_of::<super::CpuMask>();
            // SAFETY: `mask` is a live, writable cpu_set_t of `size` bytes.
            assert_eq!(
                unsafe { super::sched_getaffinity(0, size, mask.as_mut_ptr()) },
                0
            );
            let cpus: u32 = mask.iter().map(|w| w.count_ones()).sum();
            assert_eq!(cpus, 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_thread_cpu_clock_advances_with_work() {
        let t0 = super::thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::thread_cpu_ns() > t0, "{x}");
    }
}
