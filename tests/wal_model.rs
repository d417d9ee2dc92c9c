//! Property test: WAL round-trip under arbitrary torn tails (ISSUE 7).
//!
//! Arbitrary put/delete sequences are appended to a single-shard WAL with
//! tiny segments (so the log spans several files), then the newest
//! segment is truncated at an *arbitrary byte offset* — the disk state an
//! in-flight append leaves behind. Replay must recover exactly the
//! longest valid committed prefix: every record whose frame survives the
//! cut, in order, and nothing after the first incomplete frame.
//!
//! The test mirrors the writer's layout deterministically (same framing
//! arithmetic, same rotate-at-append-start rule), so it knows which
//! records must survive any cut — if the format or rotation rule drifts
//! from this model, the counts diverge and the test fails loudly.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use pbc::wal::{Durability, ReplayOp, Wal, WalConfig, WalObs};

mod support;
use support::temp_dir;

/// Segment rotation threshold; must exceed the writer's 64-byte floor so
/// the modelled rule below matches exactly.
const SEGMENT_BYTES: u64 = 256;

/// One modelled operation: `Put` with a value of the given length, or
/// `Delete`, against a key from a small pool (so ops interact).
#[derive(Debug, Clone)]
enum Op {
    Put { key: usize, vlen: usize },
    Delete { key: usize },
}

fn key_bytes(idx: usize) -> Vec<u8> {
    format!("k{idx:02}").into_bytes()
}

fn value_bytes(key: usize, vlen: usize) -> Vec<u8> {
    (0..vlen).map(|i| ((key * 31 + i) % 251) as u8).collect()
}

/// The on-disk frame length of an op: `[len u32][crc u32]` + payload
/// (`lsn u64, op u8`, then the lengths-and-bytes of key/value).
fn frame_len(op: &Op) -> u64 {
    let klen = key_bytes(match op {
        Op::Put { key, .. } | Op::Delete { key } => *key,
    })
    .len() as u64;
    match op {
        Op::Put { vlen, .. } => 8 + 8 + 1 + 4 + klen + 4 + *vlen as u64,
        Op::Delete { .. } => 8 + 8 + 1 + 4 + klen,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replay_after_arbitrary_tail_truncation_is_the_committed_prefix(
        raw_ops in vec((any::<bool>(), 0usize..12, 0usize..40), 5..80),
        cut_seed in any::<u32>(),
    ) {
        let ops: Vec<Op> = raw_ops
            .into_iter()
            .map(|(is_put, key, vlen)| {
                if is_put { Op::Put { key, vlen } } else { Op::Delete { key } }
            })
            .collect();

        let (dir, _guard) = temp_dir("wal-model");
        let config = WalConfig::new(&dir)
            .with_shards(1)
            .with_segment_bytes(SEGMENT_BYTES)
            .with_durability(Durability::None); // no fsyncs: keep 24 cases fast
        let (wal, _) = Wal::open(config.clone(), WalObs::default(), 0, |_| {}).unwrap();

        // Mirror the writer's layout: rotate at append start when the
        // active segment is at or past the threshold, then append.
        // `placed[i]` = (segment ordinal, end offset within it).
        let mut placed = Vec::with_capacity(ops.len());
        let mut segment = 0u64;
        let mut offset = 0u64;
        for op in &ops {
            if offset >= SEGMENT_BYTES {
                segment += 1;
                offset = 0;
            }
            offset += frame_len(op);
            placed.push((segment, offset));
            match op {
                Op::Put { key, vlen } => {
                    wal.append_put(&key_bytes(*key), &value_bytes(*key, *vlen)).unwrap();
                }
                Op::Delete { key } => {
                    wal.append_delete(&key_bytes(*key)).unwrap();
                }
            }
        }
        drop(wal);

        // Sanity: the modelled layout matches what the writer produced.
        // Only segment files count — the directory also holds `wal.meta`.
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
            .collect();
        files.sort();
        // Ignore the (empty) active segment the writer opened last if no
        // record landed in it.
        let tail_segment = placed.last().unwrap().0;
        let modelled_tail_len = placed
            .iter()
            .filter(|(seg, _)| *seg == tail_segment)
            .map(|(_, end)| *end)
            .max()
            .unwrap();
        let tail_path = files
            .iter()
            .rfind(|p| std::fs::metadata(p).unwrap().len() > 0)
            .unwrap()
            .clone();
        prop_assert_eq!(
            std::fs::metadata(&tail_path).unwrap().len(),
            modelled_tail_len,
            "modelled layout diverged from the writer"
        );

        // Tear the tail at an arbitrary byte offset.
        let cut = cut_seed as u64 % (modelled_tail_len + 1);
        let file = std::fs::OpenOptions::new().write(true).open(&tail_path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        // The committed prefix: everything in sealed segments, plus tail
        // records whose frames fit entirely under the cut.
        let mut expected: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut expected_count = 0u64;
        for (op, (seg, end)) in ops.iter().zip(&placed) {
            if *seg == tail_segment && *end > cut {
                break; // first torn frame; nothing after it survives
            }
            expected_count += 1;
            match op {
                Op::Put { key, vlen } => {
                    expected.insert(key_bytes(*key), value_bytes(*key, *vlen));
                }
                Op::Delete { key } => {
                    expected.remove(&key_bytes(*key));
                }
            }
        }

        let mut replayed: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut replayed_count = 0u64;
        let (_wal, report) = Wal::open(config, WalObs::default(), 0, |op| {
            replayed_count += 1;
            match op {
                ReplayOp::Put { key, value } => {
                    replayed.insert(key.to_vec(), value.to_vec());
                }
                ReplayOp::Delete { key } => {
                    replayed.remove(key);
                }
            }
        })
        .unwrap();

        prop_assert_eq!(replayed_count, expected_count, "replay is the committed prefix");
        prop_assert_eq!(report.records_replayed, expected_count);
        prop_assert_eq!(replayed, expected);
    }
}
