//! Shared immutable byte buffers backing zero-copy trace replay.
//!
//! A [`SharedBuf`] is the storage behind every
//! [`LtfTrace`](crate::ltf::LtfTrace) cursor: one refcounted, immutable
//! byte image of
//! the trace file that all per-core streams decode from in place. Opening
//! a 64-core trace therefore costs one file mapping (or one read), not 64
//! seek-positioned handles, and cloning a buffer for another cursor is an
//! `Arc` bump.
//!
//! On unix the buffer is an `mmap(2)` of the file — the kernel pages
//! trace bytes in on demand, so gigabyte traces replay without ever being
//! resident at once. The build environment has no access to the `libc`
//! crate, so the two calls needed are declared directly against the
//! platform C library (which `std` already links). Everywhere else — or
//! when the mapping fails, or for an empty file — the file is read into
//! an ordinary heap allocation behind the same type.
//!
//! Mapped memory reflects the file: truncating or rewriting a trace
//! *while a simulation replays it* is as undefined as it sounds. The heap
//! fallback snapshots instead.

use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// A cheaply cloneable, immutable byte buffer: either a whole-file heap
/// read or (unix) a shared read-only file mapping.
pub struct SharedBuf(Arc<Backing>);

enum Backing {
    Heap(Vec<u8>),
    #[cfg(unix)]
    Mmap(MmapRegion),
}

impl SharedBuf {
    /// Wraps in-memory bytes (tests, benches, in-process encoders).
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        SharedBuf(Arc::new(Backing::Heap(bytes)))
    }

    /// Opens `path`, preferring an mmap on unix and falling back to a
    /// buffered whole-file read (for empty files, failed mappings and
    /// non-unix hosts).
    ///
    /// # Errors
    ///
    /// Any I/O error from opening or reading the file. A failed mapping
    /// is not an error — it falls back to the read path.
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = std::fs::File::open(path.as_ref())?;
        #[cfg(unix)]
        if let Some(region) = MmapRegion::map(&file) {
            return Ok(SharedBuf(Arc::new(Backing::Mmap(region))));
        }
        let mut bytes = Vec::new();
        std::io::Read::read_to_end(&mut std::io::BufReader::new(file), &mut bytes)?;
        Ok(Self::from_vec(bytes))
    }

    /// Whether this buffer is an actual file mapping (unix only; the heap
    /// fallback and `from_vec` report `false`).
    #[must_use]
    pub fn is_mmap(&self) -> bool {
        #[cfg(unix)]
        {
            matches!(*self.0, Backing::Mmap(_))
        }
        #[cfg(not(unix))]
        {
            false
        }
    }
}

impl Clone for SharedBuf {
    fn clone(&self) -> Self {
        SharedBuf(Arc::clone(&self.0))
    }
}

impl Deref for SharedBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &*self.0 {
            Backing::Heap(bytes) => bytes,
            #[cfg(unix)]
            Backing::Mmap(region) => region.as_slice(),
        }
    }
}

impl std::fmt::Debug for SharedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBuf")
            .field("len", &self.len())
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

/// The two calls this module needs from the platform C library, declared
/// by hand because the container has no registry access for the `libc`
/// crate. Constants are the shared Linux/macOS values for the only
/// protection/flag combination ever requested.
#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// `MAP_FAILED`: all-ones, not null.
    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// An owned read-only private mapping of a whole file.
#[cfg(unix)]
struct MmapRegion {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the region is read-only for its whole lifetime and owned by
// exactly one `Arc<Backing>`; sharing `&[u8]` views across threads is as
// safe as any other shared immutable memory.
#[cfg(unix)]
unsafe impl Send for MmapRegion {}
#[cfg(unix)]
unsafe impl Sync for MmapRegion {}

#[cfg(unix)]
impl MmapRegion {
    /// Maps `file` read-only, returning `None` on any failure (zero-size
    /// files included: `mmap` rejects empty mappings) so the caller can
    /// fall back to reading.
    fn map(file: &std::fs::File) -> Option<Self> {
        use std::os::unix::io::AsRawFd;
        let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh private read-only mapping of a file descriptor
        // this function verifiably owns for the duration of the call;
        // length is nonzero and the result is checked below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() || ptr.is_null() {
            return None;
        }
        Some(MmapRegion { ptr, len })
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is a live mapping of exactly `len` readable bytes
        // until `Drop` unmaps it.
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
    }
}

#[cfg(unix)]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` came from a successful `mmap` and are
        // unmapped exactly once.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_matches_file_contents_and_clones_share() {
        let path = std::env::temp_dir().join("lacc_sharedbuf_unit.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();

        let buf = SharedBuf::open(&path).unwrap();
        assert_eq!(&*buf, &payload[..]);
        let clone = buf.clone();
        assert_eq!(clone.as_ptr(), buf.as_ptr(), "clones alias the same bytes");
        #[cfg(unix)]
        assert!(buf.is_mmap(), "unix opens map the file");

        std::fs::remove_file(&path).ok();
        // The mapping (or heap copy) outlives the directory entry.
        assert_eq!(clone.len(), payload.len());
        assert!(format!("{buf:?}").contains("len"));
    }

    #[test]
    fn empty_files_fall_back_to_the_heap() {
        let path = std::env::temp_dir().join("lacc_sharedbuf_empty.bin");
        std::fs::write(&path, b"").unwrap();
        let buf = SharedBuf::open(&path).unwrap();
        assert!(buf.is_empty());
        assert!(!buf.is_mmap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_vec_is_heap_backed() {
        let buf = SharedBuf::from_vec(vec![1, 2, 3]);
        assert_eq!(&*buf, &[1, 2, 3]);
        assert!(!buf.is_mmap());
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(SharedBuf::open("/nonexistent/definitely/not/here.bin").is_err());
    }
}
