//! Positional file reads: `read_exact_at` behind a small platform shim.
//!
//! Cold-segment point lookups are the hot read path of the tiered store, and
//! many threads share one [`crate::SegmentReader`]. A `Mutex<File>` + seek
//! serializes them on a single cursor; on unix the kernel offers `pread`,
//! which needs no cursor and therefore no lock. [`PositionedFile`] uses it
//! where available and keeps the mutexed seek-and-read only as the portable
//! fallback.

use std::fs::File;
use std::io;
#[cfg(not(unix))]
use std::io::{Read, Seek, SeekFrom};

#[cfg(not(unix))]
use parking_lot::Mutex;

/// A read-only file supporting lock-free positional reads on unix, with a
/// mutex-guarded seek fallback elsewhere. All methods take `&self`.
#[derive(Debug)]
pub struct PositionedFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl PositionedFile {
    /// Wrap an open file handle. The handle's cursor position is ignored on
    /// unix and clobbered by every read on the fallback path.
    pub fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            PositionedFile { file }
        }
        #[cfg(not(unix))]
        {
            PositionedFile {
                file: Mutex::new(file),
            }
        }
    }

    /// Fill `buf` from the byte range starting at `offset`, independent of
    /// (and, on unix, without touching) the file cursor.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        #[cfg(unix)]
        {
            std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
        }
        #[cfg(not(unix))]
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn reads_are_independent_of_each_other() {
        let path = std::env::temp_dir().join(format!(
            "pbc-archive-positioned-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(b"0123456789abcdef").unwrap();
        }
        let file = PositionedFile::new(File::open(&path).unwrap());
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        file.read_exact_at(&mut a, 10).unwrap();
        file.read_exact_at(&mut b, 0).unwrap();
        assert_eq!(&a, b"abcd");
        assert_eq!(&b, b"0123");
        assert!(file.read_exact_at(&mut a, 14).is_err(), "past-EOF errors");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_readers_see_consistent_bytes() {
        use std::sync::Arc;
        let path = std::env::temp_dir().join(format!(
            "pbc-archive-positioned-threads-{}.bin",
            std::process::id()
        ));
        let payload: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let file = Arc::new(PositionedFile::new(File::open(&path).unwrap()));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let file = Arc::clone(&file);
                let payload = payload.clone();
                std::thread::spawn(move || {
                    let mut buf = [0u8; 128];
                    for i in 0..200u64 {
                        let offset = ((t * 7919 + i * 4099) % (64 * 1024 - 128)) as usize;
                        file.read_exact_at(&mut buf, offset as u64).unwrap();
                        assert_eq!(&buf[..], &payload[offset..offset + 128]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }
}
