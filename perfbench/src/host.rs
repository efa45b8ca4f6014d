//! The host stamp printed with every run.

use std::ffi::CString;
use std::os::raw::{c_char, c_int};
use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The CPU model string, or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

extern "C" {
    fn statfs(path: *const c_char, buf: *mut StatFs) -> c_int;
}

/// Large enough for `struct statfs` on 64-bit Linux; only `f_type`, the
/// first field, is read.
#[repr(C)]
struct StatFs {
    f_type: i64,
    rest: [u64; 31],
}

/// The filesystem type holding `path` (e.g. "ext4", "tmpfs").
pub fn fs_type(path: &Path) -> String {
    let Ok(c_path) = CString::new(path.as_os_str().as_encoded_bytes()) else {
        return "unknown".to_owned();
    };
    let mut buf = StatFs { f_type: 0, rest: [0; 31] };
    // SAFETY: `c_path` is NUL-terminated and `buf` outsizes `struct statfs`.
    if unsafe { statfs(c_path.as_ptr(), &mut buf) } != 0 {
        return "unknown".to_owned();
    }
    match buf.f_type as u32 {
        0xEF53 => "ext4".to_owned(),
        0x0102_1994 => "tmpfs".to_owned(),
        0x794C_7630 => "overlayfs".to_owned(),
        0x5846_5342 => "xfs".to_owned(),
        0x9123_683E => "btrfs".to_owned(),
        other => format!("0x{other:x}"),
    }
}
