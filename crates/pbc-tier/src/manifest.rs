//! The manifest: which segments are live, on which level, swapped
//! atomically, stamped with a monotonically increasing **generation**.
//!
//! A tiered store's durable state is the set of segment files plus this one
//! small file naming them. Updates never touch the live manifest in place:
//! the new contents are written to `MANIFEST.tmp`, fsynced, and renamed
//! over `MANIFEST` — a single atomic step on POSIX filesystems. A crash
//! mid-commit therefore leaves either the old manifest (the half-written
//! segment is orphaned and swept on reopen) or the new one (the segment is
//! fully durable); acknowledged data is never lost. A commit that *fails*
//! (not crashes) sweeps its own `MANIFEST.tmp` before returning, so failed
//! spills and jobs leave no debris for reopen to find.
//!
//! Every committed manifest carries a generation one greater than its
//! predecessor's. The rename is the commit point, so a leftover
//! `MANIFEST.tmp` — even one that parses cleanly with a *higher*
//! generation than the live file — is an uncommitted, stale generation and
//! is rejected (deleted) on load. Partial compactions lean on this: a job
//! commits "retire inputs, add outputs" as one generation bump, and reopen
//! after a crash lands on exactly one consistent generation, sweeping
//! whichever segment files that generation does not name.
//!
//! The format is **v4**: a magic line, a generation line, one `segment
//! <id> <level>` line per live segment (level 0 = recency-ordered L0 spill
//! segment, 1 = sorted non-overlapping L1 partition; L0 entries newest
//! first, then L1 ascending by key range) and a CRC line. It records only
//! what a segment cannot say about itself: that it is live, and on which
//! level. Record and tombstone counts, byte size and key range are read
//! from each segment's own footer when it is opened. v1–v3 were never
//! deployed and are refused with [`TierError::UnsupportedVersion`].

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use pbc_codecs::crc::crc32;

use crate::error::{Result, TierError};
use crate::planner::{LEVEL_L0, LEVEL_L1};

/// File name of the live manifest inside the store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Scratch name the next manifest is staged under before the rename.
pub const MANIFEST_TMP_NAME: &str = "MANIFEST.tmp";

const MAGIC_PREFIX: &str = "pbc-tier-manifest ";
const VERSION: &str = "v4";

/// File name of segment `id` inside the store directory: the one place a
/// segment's name is derived from its id.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:06}.seg")
}

/// One live segment: its file is [`segment_file_name`]`(id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Segment id (monotonic; larger = newer).
    pub id: u64,
    /// [`LEVEL_L0`] (recency-ordered spill segment) or [`LEVEL_L1`]
    /// (sorted, non-overlapping partition).
    pub level: u8,
}

/// The ordered set of live segments plus the generation this set was
/// committed under. L0 entries come first, newest first; L1 entries
/// follow, ascending by key range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Commit counter: each manifest swap writes `generation + 1`. A fresh
    /// directory starts at 0.
    pub generation: u64,
    /// Live segments: L0 newest first, then L1 ascending.
    pub segments: Vec<ManifestEntry>,
}

impl Manifest {
    /// Path of the live manifest in `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_NAME)
    }

    /// Serialize: magic line, generation line, one `segment` line each,
    /// then a CRC line over everything above it.
    fn encode(&self) -> String {
        let mut body = format!("{MAGIC_PREFIX}{VERSION}\ngeneration {}\n", self.generation);
        for entry in &self.segments {
            body.push_str(&format!("segment {} {}\n", entry.id, entry.level));
        }
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("crc {crc:08x}\n"));
        body
    }

    fn decode(text: &str) -> Result<Manifest> {
        let corrupt = |context: String| TierError::ManifestCorrupt { context };
        let Some((body, crc_line)) = text.trim_end_matches('\n').rsplit_once('\n') else {
            return Err(corrupt("missing crc line".into()));
        };
        let body = format!("{body}\n");
        let stored = crc_line
            .strip_prefix("crc ")
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| corrupt(format!("bad crc line {crc_line:?}")))?;
        let computed = crc32(body.as_bytes());
        if stored != computed {
            return Err(corrupt(format!(
                "crc mismatch: stored {stored:08x}, computed {computed:08x}"
            )));
        }
        let mut lines = body.lines();
        match lines.next().and_then(|l| l.strip_prefix(MAGIC_PREFIX)) {
            Some(VERSION) => {}
            Some(other) => {
                return Err(TierError::UnsupportedVersion {
                    found: other.to_string(),
                })
            }
            None => return Err(corrupt("bad magic line".into())),
        }
        let line = lines
            .next()
            .ok_or_else(|| corrupt("missing generation line".into()))?;
        let generation = line
            .strip_prefix("generation ")
            .and_then(|g| g.parse::<u64>().ok())
            .ok_or_else(|| corrupt(format!("bad generation line {line:?}")))?;
        let segments = lines
            .map(|line| {
                let parts: Vec<&str> = line.split(' ').collect();
                let ["segment", id, level] = parts.as_slice() else {
                    return Err(corrupt(format!("unrecognized line {line:?}")));
                };
                let id = id
                    .parse::<u64>()
                    .map_err(|_| corrupt(format!("bad segment id in {line:?}")))?;
                let level = match level.parse::<u8>() {
                    Ok(level @ (LEVEL_L0 | LEVEL_L1)) => level,
                    _ => return Err(corrupt(format!("bad level in {line:?}"))),
                };
                Ok(ManifestEntry { id, level })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Manifest {
            generation,
            segments,
        })
    }

    /// Load the manifest from `dir`. Returns `Ok(None)` when none exists
    /// (a fresh directory).
    ///
    /// A leftover `MANIFEST.tmp` is rejected and removed regardless of its
    /// contents: the rename is the commit point, so even a tmp that parses
    /// cleanly with a generation above the live manifest's is an
    /// uncommitted — hence stale — generation, never adopted.
    pub fn load(dir: &Path) -> Result<Option<Manifest>> {
        let tmp = dir.join(MANIFEST_TMP_NAME);
        if tmp.exists() {
            fs::remove_file(&tmp)?;
        }
        let path = Self::path_in(dir);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let text = String::from_utf8(bytes).map_err(|_| TierError::ManifestCorrupt {
            context: "manifest is not valid UTF-8".into(),
        })?;
        Self::decode(&text).map(Some)
    }

    /// Atomically replace the manifest in `dir`: write `MANIFEST.tmp`,
    /// fsync it, rename over `MANIFEST`, fsync the directory.
    ///
    /// The rename is the commit point: `Err` means the swap did **not**
    /// happen and the old manifest is still live, so callers may safely
    /// clean up the segment the new manifest would have named. A failed
    /// commit also sweeps its own `MANIFEST.tmp` before returning —
    /// without that, the debris of a failed (not crashed) commit would
    /// linger until the next reopen. The directory fsync after the rename
    /// is best-effort — if it fails, the swap has still happened
    /// in-process (at worst a crash before the rename reaches disk replays
    /// as the ordinary old-manifest + orphan-segment recovery); surfacing
    /// it as an error would make callers delete a segment the on-disk
    /// manifest already references.
    pub fn store(&self, dir: &Path) -> Result<()> {
        let tmp = dir.join(MANIFEST_TMP_NAME);
        let write_and_rename = || -> Result<()> {
            {
                let mut file = fs::File::create(&tmp)?;
                file.write_all(self.encode().as_bytes())?;
                file.sync_all()?;
            }
            fs::rename(&tmp, Self::path_in(dir))?;
            Ok(())
        };
        if let Err(e) = write_and_rename() {
            // The rename did not happen; the tmp is this failed commit's
            // own debris. Best-effort sweep — reopen would remove it too,
            // but a long-lived store should not accumulate it meanwhile.
            // pbc-allow(drop-result): the rename did not happen; the tmp is this failed commit's own debris (see comment above)
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        #[cfg(unix)]
        // pbc-allow(drop-result): post-commit directory fsync is deliberately best-effort; see the doc comment on store()
        let _ = fs::File::open(dir).and_then(|d| d.sync_all());
        Ok(())
    }

    /// Like [`Manifest::store`], but first verifies this manifest's
    /// generation strictly exceeds the one on disk. The directory `LOCK`
    /// already makes concurrent writers impossible; this check turns a
    /// same-process logic bug (two handles, a missed bump) into a typed
    /// [`TierError::StaleGeneration`] instead of silent history rewind.
    pub fn store_checked(&self, dir: &Path) -> Result<()> {
        if let Some(current) = Self::load(dir)? {
            if current.generation >= self.generation {
                return Err(TierError::StaleGeneration {
                    found: self.generation,
                    current: current.generation,
                });
            }
        }
        self.store(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::temp_dir;

    fn sample() -> Manifest {
        Manifest {
            generation: 12,
            segments: vec![
                ManifestEntry {
                    id: 7,
                    level: LEVEL_L0,
                },
                ManifestEntry {
                    id: 3,
                    level: LEVEL_L1,
                },
            ],
        }
    }

    #[test]
    fn roundtrips_generation_levels_and_order() {
        let (dir, _guard) = temp_dir("roundtrip");
        sample().store(&dir).unwrap();
        let text = fs::read_to_string(Manifest::path_in(&dir)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[..4],
            [
                "pbc-tier-manifest v4",
                "generation 12",
                "segment 7 0",
                "segment 3 1"
            ],
            "one id and one level per segment, L0 first"
        );
        assert_eq!(Manifest::load(&dir).unwrap().unwrap(), sample());
        assert_eq!(segment_file_name(7), "seg-000007.seg");
    }

    #[test]
    fn older_format_versions_are_refused_with_a_typed_error() {
        let (dir, _guard) = temp_dir("old-versions");
        let bodies = [
            ("v1", "pbc-tier-manifest v1\nsegment 7 seg-000007.seg\n"),
            (
                "v2",
                "pbc-tier-manifest v2\ngeneration 9\nsegment 7 seg-000007.seg 900 45 4096 61 7a\n",
            ),
            (
                "v3",
                "pbc-tier-manifest v3\ngeneration 9\nsegment 7 seg-000007.seg 0 900 45 4096 61 7a\n",
            ),
        ];
        for (version, body) in bodies {
            let crc = crc32(body.as_bytes());
            fs::write(Manifest::path_in(&dir), format!("{body}crc {crc:08x}\n")).unwrap();
            match Manifest::load(&dir) {
                Err(TierError::UnsupportedVersion { found }) => assert_eq!(found, version),
                other => panic!("expected UnsupportedVersion for {version}, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_unknown_level_is_a_typed_error() {
        let (dir, _guard) = temp_dir("bad-level");
        let mut body = String::from("pbc-tier-manifest v4\n");
        body.push_str("generation 1\n");
        body.push_str("segment 1 7\n");
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("crc {crc:08x}\n"));
        fs::write(Manifest::path_in(&dir), body).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(TierError::ManifestCorrupt { .. })
        ));
    }

    #[test]
    fn missing_manifest_is_none_and_stale_tmp_is_swept() {
        let (dir, _guard) = temp_dir("fresh");
        fs::write(dir.join(MANIFEST_TMP_NAME), b"half-written garbage").unwrap();
        assert!(Manifest::load(&dir).unwrap().is_none());
        assert!(!dir.join(MANIFEST_TMP_NAME).exists(), "debris removed");
    }

    #[test]
    fn tmp_debris_never_shadows_the_live_manifest() {
        let (dir, _guard) = temp_dir("debris");
        sample().store(&dir).unwrap();
        fs::write(dir.join(MANIFEST_TMP_NAME), b"crash debris").unwrap();
        let loaded = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(loaded, sample());
        assert!(!dir.join(MANIFEST_TMP_NAME).exists());
    }

    #[test]
    fn a_valid_tmp_with_a_higher_generation_is_still_rejected() {
        // The rename is the commit point: a fully written MANIFEST.tmp from
        // a crash just before the rename is an uncommitted generation, not
        // the newest state — reopen must reject it, not adopt it.
        let (dir, _guard) = temp_dir("future-tmp");
        sample().store(&dir).unwrap();
        let uncommitted = Manifest {
            generation: sample().generation + 1,
            segments: Vec::new(),
        };
        fs::write(dir.join(MANIFEST_TMP_NAME), uncommitted.encode()).unwrap();
        let loaded = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(loaded, sample(), "live manifest wins");
        assert!(!dir.join(MANIFEST_TMP_NAME).exists(), "stale tmp swept");
    }

    #[test]
    fn a_failed_commit_sweeps_its_own_tmp_file() {
        // Writing into a directory that no longer exists fails before the
        // rename; no MANIFEST.tmp may linger afterwards (here trivially,
        // since the directory is gone — the non-trivial case is a rename
        // failure, simulated by making the target path unusable).
        let (dir, _guard) = temp_dir("failed-commit");
        // Make the rename fail: replace the MANIFEST path with a directory.
        fs::create_dir_all(Manifest::path_in(&dir)).unwrap();
        let result = sample().store(&dir);
        assert!(result.is_err(), "rename onto a directory must fail");
        assert!(
            !dir.join(MANIFEST_TMP_NAME).exists(),
            "failed commit swept its tmp file"
        );
    }

    #[test]
    fn store_checked_rejects_stale_generations() {
        let (dir, _guard) = temp_dir("stale");
        sample().store(&dir).unwrap();
        let stale = Manifest {
            generation: sample().generation, // not strictly greater
            segments: Vec::new(),
        };
        assert!(matches!(
            stale.store_checked(&dir),
            Err(TierError::StaleGeneration {
                found: 12,
                current: 12
            })
        ));
        let next = Manifest {
            generation: sample().generation + 1,
            segments: Vec::new(),
        };
        next.store_checked(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap().unwrap().generation, 13);
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let (dir, _guard) = temp_dir("corrupt");
        sample().store(&dir).unwrap();
        let path = Manifest::path_in(&dir);
        // Flip a byte inside a segment line (not the crc line itself).
        let mut bytes = fs::read(&path).unwrap();
        let idx = bytes.iter().position(|&b| b == b'7').unwrap();
        bytes[idx] = b'8';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(TierError::ManifestCorrupt { .. })
        ));
        // Truncation too.
        fs::write(&path, b"pbc-tier-manifest v4\n").unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(TierError::ManifestCorrupt { .. })
        ));
    }

    #[test]
    fn store_replaces_atomically_by_rename() {
        let (dir, _guard) = temp_dir("swap");
        sample().store(&dir).unwrap();
        let newer = Manifest {
            generation: 13,
            segments: vec![ManifestEntry {
                id: 9,
                level: LEVEL_L1,
            }],
        };
        newer.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap().unwrap(), newer);
        assert!(!dir.join(MANIFEST_TMP_NAME).exists());
    }
}
