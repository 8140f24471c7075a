//! The `ALFLAB01` manifest loader on hostile bytes: arbitrary bytes after
//! the magic, every truncation of a valid three-record manifest, and
//! single-byte flips of it. `ManifestFile::load_or_create` must return a
//! typed `CampaignError` or an intact prefix of the records that were
//! written — never panic, never a record whose content changed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use alf_lab::campaign::{CampaignError, JobRecord, ManifestFile, RecordStatus};
use alf_lab::ParetoPoint;
use proptest::collection::vec;
use proptest::prelude::*;

const SCALE: &str = "smoke";
const FINGERPRINT: &str = "baseline:a,fig2a,table2";

fn records() -> Vec<JobRecord> {
    let mut metrics = BTreeMap::new();
    metrics.insert("final_accuracy".to_string(), 0.8125);
    metrics.insert("ops".to_string(), 4.1e7);
    vec![
        JobRecord {
            id: "baseline:a".into(),
            status: RecordStatus::Completed {
                secs: 1.5,
                metrics,
                pareto: vec![ParetoPoint {
                    track: "cifar".into(),
                    method: "ALF".into(),
                    params: 2.7e5,
                    ops: 4.1e7,
                    accuracy: 0.8125,
                    source: "baseline:a".into(),
                }],
            },
        },
        JobRecord {
            id: "fig2a".into(),
            status: RecordStatus::Failed {
                error: "shape mismatch".into(),
            },
        },
        JobRecord {
            id: "table2".into(),
            status: RecordStatus::Skipped {
                dep: "baseline:a".into(),
            },
        },
    ]
}

/// A fresh path per load, so cases never see each other's files.
fn fresh_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("alf_lab_manifest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{n}.manifest"))
}

/// The bytes of a valid manifest holding [`records`], plus the file
/// length after the header and after each record.
fn valid_manifest() -> (Vec<u8>, Vec<u64>) {
    let path = fresh_path();
    let mut file = ManifestFile::create(&path, SCALE, FINGERPRINT).unwrap();
    let mut ends = vec![std::fs::metadata(&path).unwrap().len()];
    for rec in records() {
        file.append(&rec).unwrap();
        ends.push(std::fs::metadata(&path).unwrap().len());
    }
    drop(file);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    (bytes, ends)
}

/// Loads `bytes` as an existing manifest and returns how many records it
/// recovered, asserting they are a prefix of [`records`].
fn load(bytes: &[u8]) -> Result<usize, CampaignError> {
    let path = fresh_path();
    std::fs::write(&path, bytes).unwrap();
    let loaded = ManifestFile::load_or_create(&path, SCALE, FINGERPRINT, false);
    let _ = std::fs::remove_file(&path);
    let written = records();
    let got = loaded?.records().to_vec();
    assert!(
        got.len() <= written.len(),
        "{} records recovered",
        got.len()
    );
    assert_eq!(got, written[..got.len()]);
    Ok(got.len())
}

#[test]
fn every_truncation_recovers_exactly_the_intact_records() {
    let (bytes, ends) = valid_manifest();
    for cut in 0..=bytes.len() {
        let intact = ends
            .iter()
            .filter(|&&e| e <= cut as u64)
            .count()
            .saturating_sub(1);
        match load(&bytes[..cut]) {
            Ok(n) => assert_eq!(n, intact, "cut at {cut} of {}", bytes.len()),
            Err(e) => {
                assert!(cut < 8, "cut at {cut}: {e}");
                assert!(matches!(e, CampaignError::Corrupt { .. }), "{e}");
            }
        }
    }
}

#[test]
fn every_single_byte_flip_is_an_error_or_a_prefix() {
    let (bytes, ends) = valid_manifest();
    for at in 0..bytes.len() {
        for mask in [0x01u8 << (at % 8), 0xff] {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            match load(&flipped) {
                // A flip inside the header starts a fresh manifest; one
                // inside record k's frame keeps exactly the records
                // before it.
                Ok(n) => {
                    let hit = ends.iter().filter(|&&e| e <= at as u64).count();
                    assert_eq!(n, hit.saturating_sub(1), "flip at {at}");
                }
                Err(e) => assert!(at < 8, "flip at {at} outside the magic: {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes after the magic: bare, behind a valid header, or
    /// wrapped in frames with valid checksums so the record decoder (not
    /// only the CRC walk) sees them.
    #[test]
    fn arbitrary_bytes_after_the_magic_never_panic(
        words in vec(0u16..256, 0..200),
        shape in 0usize..3,
    ) {
        let junk: Vec<u8> = words.iter().map(|&w| w as u8).collect();
        let (valid, ends) = valid_manifest();
        let mut blob = b"ALFLAB01".to_vec();
        match shape {
            0 => blob.extend(&junk),
            1 => {
                blob = valid[..ends[0] as usize].to_vec();
                blob.extend(&junk);
            }
            _ => {
                blob = valid[..ends[0] as usize].to_vec();
                for chunk in junk.chunks(37) {
                    blob.extend(alf_obs::frame::encode(chunk));
                }
            }
        }
        // A record decoded out of junk would differ from `records()` and
        // fail `load`'s prefix check.
        if let Err(e) = load(&blob) {
            prop_assert!(
                matches!(e, CampaignError::Corrupt { .. }),
                "unexpected error kind: {}", e
            );
        }
    }
}
