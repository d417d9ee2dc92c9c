//! Read-only memory-mapped segment files — the **only** module in the
//! workspace that contains `unsafe` code.
//!
//! A [`MappedFile`] maps a finished segment file into the address space so
//! block fetches and scans decode straight out of the kernel page cache:
//! no `pread` into a fresh heap buffer, no copy at all for raw/fallback
//! blocks. The mapping is private and read-only.
//!
//! ## Safety argument (audited surface)
//!
//! All `unsafe` is confined to three small spots: the `mmap(2)` call, the
//! `munmap(2)` call in `Drop`, and the `slice::from_raw_parts` view. The
//! invariants that make them sound:
//!
//! * The mapping is `PROT_READ | MAP_PRIVATE` over a file the archive
//!   layer treats as immutable once `SegmentWriter::finish` has fsynced
//!   it — segments are written to a temp name and renamed into place, and
//!   are never modified afterwards, only unlinked. Per POSIX, an unlinked
//!   file's pages stay valid for as long as a mapping references them, so
//!   pinned readers survive compaction retiring their segment.
//! * `len` is captured from the same `File` metadata used to build the
//!   mapping and never changes, so the slice never outgrows the mapping.
//! * The pointer is non-null (checked against `MAP_FAILED`), the length
//!   is non-zero (zero-length files take the empty-slice path and never
//!   call `mmap`), and the mapping lives until `Drop`, so the borrow
//!   rules of the `&[u8]` view hold for the lifetime of `&self`.
//! * A file truncated *by an external process* while mapped can raise
//!   `SIGBUS` on access — the same failure class as hardware loss under
//!   `pread`. The archive never truncates live segments; operators who
//!   cannot rule out external truncation can select
//!   [`crate::ReadMode::Pread`].
//!
//! Everything else in the workspace is `#[forbid(unsafe_code)]` /
//! `#[deny(unsafe_code)]`; this module opts out via the narrowest
//! possible `allow`.
#![allow(unsafe_code)]

use std::fs::File;
use std::io;

/// A read-only, private memory mapping of a whole file.
///
/// Available on unix targets with the `mmap` cargo feature (on by
/// default); elsewhere [`MappedFile::map`] returns
/// [`io::ErrorKind::Unsupported`] and callers fall back to
/// [`crate::positioned::PositionedFile`].
#[derive(Debug)]
pub struct MappedFile {
    #[cfg(all(unix, feature = "mmap"))]
    inner: imp::Mapping,
    /// Mapped length in bytes (0 for an empty file, which has no mapping).
    len: usize,
}

// SAFETY: the mapping is read-only and `MappedFile` hands out only shared
// `&[u8]` views; concurrent readers on any thread observe the same
// immutable bytes, and unmapping requires `&mut self` (Drop).
#[cfg(all(unix, feature = "mmap"))]
unsafe impl Send for MappedFile {}
#[cfg(all(unix, feature = "mmap"))]
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Whether this build can actually map files (unix with the `mmap`
    /// feature). When false, [`MappedFile::map`] always errors and
    /// [`crate::ReadMode::Auto`] resolves to `pread`.
    pub const fn supported() -> bool {
        cfg!(all(unix, feature = "mmap"))
    }

    /// Map `file` read-only in its entirety. `len` must be the file's
    /// current size in bytes (callers have just stat'ed it).
    pub fn map(file: &File, len: u64) -> io::Result<MappedFile> {
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"))?;
        if len == 0 {
            // mmap(2) rejects zero-length mappings; an empty file needs no
            // mapping at all.
            return Ok(MappedFile {
                #[cfg(all(unix, feature = "mmap"))]
                inner: imp::Mapping::empty(),
                len: 0,
            });
        }
        #[cfg(all(unix, feature = "mmap"))]
        {
            Ok(MappedFile {
                inner: imp::Mapping::new(file, len)?,
                len,
            })
        }
        #[cfg(not(all(unix, feature = "mmap")))]
        {
            let _ = file;
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "memory-mapped reads need a unix target with the `mmap` feature",
            ))
        }
    }

    /// The mapped bytes. Empty for a zero-length file.
    pub fn as_slice(&self) -> &[u8] {
        #[cfg(all(unix, feature = "mmap"))]
        {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: `inner.ptr` is a live PROT_READ mapping of exactly
            // `self.len` bytes (see module docs); it is unmapped only in
            // Drop, after every `&self` borrow has ended.
            unsafe { std::slice::from_raw_parts(self.inner.ptr as *const u8, self.len) }
        }
        #[cfg(not(all(unix, feature = "mmap")))]
        {
            &[]
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (zero-length file).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(all(unix, feature = "mmap"))]
mod imp {
    //! The raw `mmap`/`munmap` FFI. The build has no `libc` crate (the
    //! workspace vendors all dependencies), so the two syscall wrappers
    //! are declared here directly against the platform C library.

    use std::fs::File;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// An owned mapping; unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mapping {
        pub(super) ptr: *mut c_void,
        len: usize,
    }

    impl Mapping {
        /// Placeholder for a zero-length file: null pointer, never passed
        /// to `munmap` (len 0 skips the Drop call).
        pub(super) fn empty() -> Mapping {
            Mapping {
                ptr: std::ptr::null_mut(),
                len: 0,
            }
        }

        pub(super) fn new(file: &File, len: usize) -> io::Result<Mapping> {
            // SAFETY: fd is a valid open file descriptor borrowed for the
            // duration of the call; addr=NULL lets the kernel choose the
            // placement; len > 0 (checked by the caller). The kernel
            // validates everything else and reports failure as MAP_FAILED.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            Ok(Mapping { ptr, len })
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: (ptr, len) is exactly what mmap returned and has
                // not been unmapped before; failure is unrecoverable in a
                // destructor and is deliberately ignored.
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::temp_segment;
    use std::io::Write;

    #[test]
    fn maps_whole_file_contents() {
        if !MappedFile::supported() {
            return;
        }
        let (path, _guard) = temp_segment("mmap-contents");
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(&payload).unwrap();
        }
        let file = File::open(&path).unwrap();
        let map = MappedFile::map(&file, payload.len() as u64).unwrap();
        assert_eq!(map.as_slice(), payload.as_slice());
        assert_eq!(map.len(), payload.len());
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let (path, _guard) = temp_segment("mmap-empty");
        File::create(&path).unwrap();
        let file = File::open(&path).unwrap();
        let map = MappedFile::map(&file, 0).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), &[] as &[u8]);
    }

    #[cfg(unix)]
    #[test]
    fn mapping_survives_unlink() {
        if !MappedFile::supported() {
            return;
        }
        let (path, _guard) = temp_segment("mmap-unlink");
        std::fs::write(&path, b"still readable after unlink").unwrap();
        let file = File::open(&path).unwrap();
        let map = MappedFile::map(&file, 27).unwrap();
        std::fs::remove_file(&path).unwrap();
        drop(file);
        assert_eq!(map.as_slice(), b"still readable after unlink");
    }

    #[test]
    fn concurrent_readers_share_one_mapping() {
        if !MappedFile::supported() {
            return;
        }
        use std::sync::Arc;
        let (path, _guard) = temp_segment("mmap-threads");
        let payload: Vec<u8> = (0..64 * 1024).map(|i| (i % 241) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let file = File::open(&path).unwrap();
        let map = Arc::new(MappedFile::map(&file, payload.len() as u64).unwrap());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let map = Arc::clone(&map);
                let payload = payload.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let offset = ((t * 7919 + i * 4099) % (64 * 1024 - 128)) as usize;
                        assert_eq!(
                            &map.as_slice()[offset..offset + 128],
                            &payload[offset..offset + 128]
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
