//! The campaign manifest: a crash-tolerant, append-only record of
//! terminal job states.
//!
//! Layout (all integers little-endian), in the spirit of the core
//! checkpoint-v2 container:
//!
//! ```text
//! "ALFLAB01"                                  magic
//! frame*                                      header frame, then one
//!                                             frame per terminal job
//! frame := u32 len | payload (len bytes) | u32 crc32(payload)
//! ```
//!
//! The header payload pins the campaign scale and the DAG fingerprint
//! (job ids joined by `,`); resuming against a different grid or scale is
//! a typed [`CampaignError::Mismatch`] that tells the user to pass
//! `--fresh`, never a silent mixed manifest. Job payloads carry the full
//! terminal state — completed jobs include their metrics and Pareto
//! contributions, so a resumed campaign rebuilds its consolidated report
//! without re-running anything.
//!
//! Every frame is validated (length, CRC, full decode) *before* it is
//! trusted; a torn tail from a killed run is truncated away on load and
//! the campaign resumes from the last intact record. Frames are appended
//! with a single `write_all` after the record's artifacts are on disk, so
//! a record in the manifest implies its artifacts exist.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::OpenOptions;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

use crate::report::ParetoPoint;
use alf_obs::frame;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 8] = b"ALFLAB01";
/// Frames larger than this are rejected as corruption, not allocated.
const MAX_FRAME: u32 = 64 << 20;

const TAG_COMPLETED: u32 = 1;
const TAG_FAILED: u32 = 2;
const TAG_SKIPPED: u32 = 3;

/// Terminal state persisted for one job.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordStatus {
    /// Completed, with the measurements the campaign report needs.
    Completed {
        /// Wall-clock seconds the job ran.
        secs: f64,
        /// The job's flat metrics.
        metrics: BTreeMap<String, f64>,
        /// The job's Pareto contributions.
        pareto: Vec<ParetoPoint>,
    },
    /// Failed with this error (re-run on resume).
    Failed {
        /// The error string.
        error: String,
    },
    /// Skipped because `dep` did not succeed (re-run on resume).
    Skipped {
        /// The unsuccessful dependency.
        dep: String,
    },
}

/// One manifest record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: String,
    /// Persisted terminal state.
    pub status: RecordStatus,
}

/// Why the manifest cannot be used.
#[derive(Debug)]
pub enum CampaignError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a manifest (bad magic, undecodable intact frame).
    Corrupt {
        /// Manifest path.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// The manifest belongs to a different campaign; re-run with
    /// `--fresh` to discard it.
    Mismatch {
        /// Manifest path.
        path: PathBuf,
        /// `scale/fingerprint` this campaign wants.
        expected: String,
        /// `scale/fingerprint` the file holds.
        found: String,
    },
    /// A shared baseline trained more than once (or never, despite a
    /// completed campaign) — the exactly-once invariant is broken.
    BaselineRetrained {
        /// Baseline job id.
        id: String,
        /// Observed training count.
        count: u64,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "manifest i/o: {e}"),
            CampaignError::Corrupt { path, detail } => {
                write!(f, "manifest {} is corrupt: {detail}", path.display())
            }
            CampaignError::Mismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "manifest {} belongs to a different campaign (found {found}, expected \
                 {expected}); pass --fresh to discard it",
                path.display()
            ),
            CampaignError::BaselineRetrained { id, count } => write!(
                f,
                "exactly-once violation: {id} trained {count} times this campaign"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(u32::try_from(s.len()).expect("string fits u32"));
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> Result<String, String> {
    if buf.remaining() < 4 {
        return Err("truncated string length".into());
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(format!("string of {len} bytes overruns frame"));
    }
    let mut raw = vec![0u8; len];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| "string is not UTF-8".into())
}

fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_u64_le(v.to_bits());
}

fn get_f64(buf: &mut Bytes) -> Result<f64, String> {
    if buf.remaining() < 8 {
        return Err("truncated f64".into());
    }
    Ok(f64::from_bits(buf.get_u64_le()))
}

fn get_u32(buf: &mut Bytes) -> Result<u32, String> {
    if buf.remaining() < 4 {
        return Err("truncated u32".into());
    }
    Ok(buf.get_u32_le())
}

fn encode_header(scale: &str, fingerprint: &str) -> Bytes {
    let mut buf = BytesMut::new();
    put_string(&mut buf, scale);
    put_string(&mut buf, fingerprint);
    buf.freeze()
}

fn decode_header(mut payload: Bytes) -> Result<(String, String), String> {
    let scale = get_string(&mut payload)?;
    let fingerprint = get_string(&mut payload)?;
    if payload.remaining() != 0 {
        return Err("trailing bytes after header".into());
    }
    Ok((scale, fingerprint))
}

fn encode_record(rec: &JobRecord) -> Bytes {
    let mut buf = BytesMut::new();
    match &rec.status {
        RecordStatus::Completed {
            secs,
            metrics,
            pareto,
        } => {
            buf.put_u32_le(TAG_COMPLETED);
            put_string(&mut buf, &rec.id);
            put_f64(&mut buf, *secs);
            buf.put_u32_le(u32::try_from(metrics.len()).expect("metric count fits u32"));
            for (k, v) in metrics {
                put_string(&mut buf, k);
                put_f64(&mut buf, *v);
            }
            buf.put_u32_le(u32::try_from(pareto.len()).expect("pareto count fits u32"));
            for p in pareto {
                put_string(&mut buf, &p.track);
                put_string(&mut buf, &p.method);
                put_f64(&mut buf, p.params);
                put_f64(&mut buf, p.ops);
                put_f64(&mut buf, p.accuracy);
                put_string(&mut buf, &p.source);
            }
        }
        RecordStatus::Failed { error } => {
            buf.put_u32_le(TAG_FAILED);
            put_string(&mut buf, &rec.id);
            put_string(&mut buf, error);
        }
        RecordStatus::Skipped { dep } => {
            buf.put_u32_le(TAG_SKIPPED);
            put_string(&mut buf, &rec.id);
            put_string(&mut buf, dep);
        }
    }
    buf.freeze()
}

fn decode_record(mut payload: Bytes) -> Result<JobRecord, String> {
    let tag = get_u32(&mut payload)?;
    let id = get_string(&mut payload)?;
    let status = match tag {
        TAG_COMPLETED => {
            let secs = get_f64(&mut payload)?;
            let n = get_u32(&mut payload)? as usize;
            let mut metrics = BTreeMap::new();
            for _ in 0..n {
                let k = get_string(&mut payload)?;
                let v = get_f64(&mut payload)?;
                metrics.insert(k, v);
            }
            let n = get_u32(&mut payload)? as usize;
            let mut pareto = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                pareto.push(ParetoPoint {
                    track: get_string(&mut payload)?,
                    method: get_string(&mut payload)?,
                    params: get_f64(&mut payload)?,
                    ops: get_f64(&mut payload)?,
                    accuracy: get_f64(&mut payload)?,
                    source: get_string(&mut payload)?,
                });
            }
            RecordStatus::Completed {
                secs,
                metrics,
                pareto,
            }
        }
        TAG_FAILED => RecordStatus::Failed {
            error: get_string(&mut payload)?,
        },
        TAG_SKIPPED => RecordStatus::Skipped {
            dep: get_string(&mut payload)?,
        },
        other => return Err(format!("unknown record tag {other}")),
    };
    if payload.remaining() != 0 {
        return Err("trailing bytes after record".into());
    }
    Ok(JobRecord { id, status })
}

/// A cached job's persisted measurements: `(secs, metrics, pareto)`.
pub(crate) type CompletedPayload = (f64, BTreeMap<String, f64>, Vec<ParetoPoint>);

/// The loaded state of a campaign manifest plus its append handle.
#[derive(Debug)]
pub struct ManifestFile {
    file: std::fs::File,
    path: PathBuf,
    records: Vec<JobRecord>,
}

impl ManifestFile {
    /// Creates a fresh manifest at `path` (truncating any existing file)
    /// with a header pinning `scale` and `fingerprint`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(path: &Path, scale: &str, fingerprint: &str) -> Result<Self, CampaignError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(MAGIC)?;
        file.write_all(&frame::encode(&encode_header(scale, fingerprint)))?;
        file.flush()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            records: Vec::new(),
        })
    }

    /// Opens an existing manifest for resuming, or creates a fresh one
    /// when `path` does not exist (or `fresh` is set). On open, validates
    /// the magic and header against `scale`/`fingerprint`, decodes every
    /// intact record, truncates a torn tail, and positions the handle for
    /// appending.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Corrupt`] for a non-manifest file,
    /// [`CampaignError::Mismatch`] for a different campaign's manifest,
    /// or I/O errors.
    pub fn load_or_create(
        path: &Path,
        scale: &str,
        fingerprint: &str,
        fresh: bool,
    ) -> Result<Self, CampaignError> {
        if fresh || !path.exists() {
            return Self::create(path, scale, fingerprint);
        }
        let corrupt = |detail: String| CampaignError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let mut raw = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut raw)?;
        if raw.len() < MAGIC.len() || &raw[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        // A short or CRC-failing tail ends the walk (torn write); it is
        // not an error — it is truncated away below.
        let (frames, mut intact_end) = frame::split(&raw[MAGIC.len()..], MAX_FRAME);
        intact_end += MAGIC.len();
        let Some((header, body)) = frames.split_first() else {
            // Magic but no intact header: a run killed mid-create.
            return Self::create(path, scale, fingerprint);
        };
        let (got_scale, got_fp) = decode_header(Bytes::copy_from_slice(header))
            .map_err(|e| corrupt(format!("header: {e}")))?;
        if got_scale != scale || got_fp != fingerprint {
            return Err(CampaignError::Mismatch {
                path: path.to_path_buf(),
                expected: format!("{scale}/{fingerprint}"),
                found: format!("{got_scale}/{got_fp}"),
            });
        }
        let mut records = Vec::with_capacity(body.len());
        for (i, payload) in body.iter().enumerate() {
            records.push(
                decode_record(Bytes::copy_from_slice(payload))
                    .map_err(|e| corrupt(format!("record {i}: {e}")))?,
            );
        }
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(u64::try_from(intact_end).expect("file length fits u64"))?;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            records,
        })
    }

    /// Manifest path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records loaded at open plus those appended since, in order.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Ids with a `Completed` record (last record per id wins) — the
    /// cache set a resumed campaign skips.
    pub(crate) fn completed_ids(&self) -> BTreeSet<String> {
        let mut last: BTreeMap<&str, bool> = BTreeMap::new();
        for r in &self.records {
            last.insert(&r.id, matches!(r.status, RecordStatus::Completed { .. }));
        }
        last.into_iter()
            .filter(|(_, done)| *done)
            .map(|(id, _)| id.to_string())
            .collect()
    }

    /// The latest `Completed` payload per id — metrics and Pareto points
    /// a resumed campaign feeds into its consolidated report.
    pub(crate) fn completed_payloads(&self) -> BTreeMap<String, CompletedPayload> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            match &r.status {
                RecordStatus::Completed {
                    secs,
                    metrics,
                    pareto,
                } => {
                    out.insert(r.id.clone(), (*secs, metrics.clone(), pareto.clone()));
                }
                _ => {
                    out.remove(&r.id);
                }
            }
        }
        out
    }

    /// Appends one record: the frame is built and self-validated in full
    /// (decode of its own bytes must round-trip) before a single
    /// `write_all` commits it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the encoder does not round-trip its own record — a
    /// programming error, never an input condition.
    pub fn append(&mut self, rec: &JobRecord) -> Result<(), CampaignError> {
        let payload = encode_record(rec);
        let decoded = decode_record(payload.clone()).expect("record round-trips");
        assert_eq!(&decoded, rec, "record round-trips losslessly");
        self.file.write_all(&frame::encode(&payload))?;
        self.file.flush()?;
        self.records.push(rec.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("alf_lab_{}_{name}", std::process::id()))
    }

    fn completed(id: &str) -> JobRecord {
        let mut metrics = BTreeMap::new();
        metrics.insert("acc".to_string(), 0.75);
        metrics.insert("ops".to_string(), 1.25e9);
        JobRecord {
            id: id.to_string(),
            status: RecordStatus::Completed {
                secs: 1.5,
                metrics,
                pareto: vec![ParetoPoint {
                    track: "cifar".into(),
                    method: "ALF".into(),
                    params: 100.0,
                    ops: 200.0,
                    accuracy: 0.75,
                    source: id.to_string(),
                }],
            },
        }
    }

    #[test]
    fn records_roundtrip_through_a_reload() {
        let path = tmp("roundtrip.manifest");
        let _ = std::fs::remove_file(&path);
        let mut m = ManifestFile::create(&path, "smoke", "a,b").unwrap();
        m.append(&completed("a")).unwrap();
        m.append(&JobRecord {
            id: "b".into(),
            status: RecordStatus::Failed {
                error: "boom".into(),
            },
        })
        .unwrap();
        drop(m);
        let m = ManifestFile::load_or_create(&path, "smoke", "a,b", false).unwrap();
        assert_eq!(m.records().len(), 2);
        assert_eq!(m.records()[0], completed("a"));
        assert_eq!(m.completed_ids(), ["a".to_string()].into());
        let payloads = m.completed_payloads();
        assert_eq!(payloads["a"].0, 1.5);
        assert_eq!(payloads["a"].1["acc"], 0.75);
        assert_eq!(payloads["a"].2.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = tmp("torn.manifest");
        let _ = std::fs::remove_file(&path);
        let mut m = ManifestFile::create(&path, "smoke", "a,b").unwrap();
        m.append(&completed("a")).unwrap();
        drop(m);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a kill mid-append: garbage half-frame at the tail.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3]);
        std::fs::write(&path, &raw).unwrap();
        let mut m = ManifestFile::load_or_create(&path, "smoke", "a,b", false).unwrap();
        assert_eq!(m.records().len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        m.append(&completed("b")).unwrap();
        drop(m);
        let m = ManifestFile::load_or_create(&path, "smoke", "a,b", false).unwrap();
        assert_eq!(m.completed_ids().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatch_and_corruption_are_typed() {
        let path = tmp("mismatch.manifest");
        let _ = std::fs::remove_file(&path);
        drop(ManifestFile::create(&path, "smoke", "a,b").unwrap());
        match ManifestFile::load_or_create(&path, "paper", "a,b", false) {
            Err(CampaignError::Mismatch {
                found, expected, ..
            }) => {
                assert_eq!(found, "smoke/a,b");
                assert_eq!(expected, "paper/a,b");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        // --fresh recovers.
        assert!(ManifestFile::load_or_create(&path, "paper", "a,b", true).is_ok());
        std::fs::write(&path, b"not a manifest").unwrap();
        match ManifestFile::load_or_create(&path, "smoke", "a,b", false) {
            Err(CampaignError::Corrupt { detail, .. }) => assert_eq!(detail, "bad magic"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rerun_overrides_earlier_failure() {
        let path = tmp("override.manifest");
        let _ = std::fs::remove_file(&path);
        let mut m = ManifestFile::create(&path, "smoke", "a").unwrap();
        m.append(&JobRecord {
            id: "a".into(),
            status: RecordStatus::Failed {
                error: "flaky".into(),
            },
        })
        .unwrap();
        assert!(m.completed_ids().is_empty());
        m.append(&completed("a")).unwrap();
        assert_eq!(m.completed_ids(), ["a".to_string()].into());
        let _ = std::fs::remove_file(&path);
    }
}
