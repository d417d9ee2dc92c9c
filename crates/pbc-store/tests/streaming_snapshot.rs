//! Peak-allocation bound for the streaming `snapshot_to_segment`.
//!
//! The snapshot used to materialize and sort every decoded entry, a ~2x
//! transient copy of the corpus. The streaming rewrite materializes only
//! the key list and pulls values through the segment writer one at a time,
//! so its peak extra allocation must stay far below the corpus size.
//!
//! This file holds exactly one test: the counting allocator is a
//! process-global, and a second concurrently-running test would pollute the
//! high-water mark.

use std::sync::atomic::Ordering;

use pbc_archive::{CodecSpec, SegmentConfig, SegmentReader};
use pbc_store::{TierStore, ValueCodec};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{CountingAllocator, LIVE, PEAK};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn snapshot_peak_allocation_stays_bounded() {
    // ~24 MiB of raw values: 3000 records x ~8 KiB.
    let record_count = 3_000usize;
    let value_len = 8 * 1024usize;
    let store = TierStore::new(ValueCodec::None);
    let mut raw_bytes = 0usize;
    for i in 0..record_count {
        let mut value = format!("rec|{i:08}|").into_bytes();
        while value.len() < value_len {
            let tail = format!("field{}={};", value.len() % 97, i * 31 % 100_000);
            value.extend_from_slice(tail.as_bytes());
        }
        raw_bytes += value.len();
        store.set(format!("stream:{i:08}").as_bytes(), &value);
    }

    let path = std::env::temp_dir().join(format!(
        "pbc-store-streaming-snapshot-{}.seg",
        std::process::id()
    ));
    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
    let _cleanup = Cleanup(path.clone());

    // Reset the high-water mark to "now", then snapshot. Raw block codec:
    // codec training memory is not what this test measures.
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let summary = store
        .snapshot_to_segment(&path, SegmentConfig::with_codec(CodecSpec::Raw))
        .unwrap();
    let peak_delta = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    assert_eq!(summary.record_count, record_count as u64);
    // The old materialize-everything snapshot needed >= raw_bytes extra
    // (every decoded value at once). Streaming needs the key list (~60 KiB)
    // plus one value plus one block: well under a tenth of the corpus.
    assert!(
        peak_delta < raw_bytes / 10,
        "snapshot peak allocation {peak_delta} should be far below the {raw_bytes}-byte corpus"
    );

    // And the streamed segment is still a faithful, sorted snapshot.
    let reader = SegmentReader::open(&path).unwrap();
    assert!(reader.is_sorted());
    assert_eq!(reader.record_count(), record_count as u64);
    let got = reader.get(b"stream:00001234").unwrap().unwrap();
    assert!(got.starts_with(b"rec|00001234|"));
    assert_eq!(
        got.len(),
        store.get(b"stream:00001234").unwrap().unwrap().len()
    );
}
