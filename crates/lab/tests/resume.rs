//! Campaign kill/resume semantics on the cheap (geometry-only) corner of
//! the real grid: an aborted campaign resumes skipping completed jobs,
//! produces artifacts identical to an uninterrupted run, and refuses to
//! mix manifests of different campaigns.

use std::path::{Path, PathBuf};

use alf_lab::scheduler::JobStatus;
use alf_lab::Scale;
use alf_lab::{run_campaign, CampaignOpts, LabError};

/// Geometry-only jobs: no training, so the whole file runs in
/// milliseconds while still exercising the real runner end to end.
const CHEAP: [&str; 2] = ["ablation_dataflow", "ablation_fusion"];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alf_lab_resume_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(out: &Path) -> CampaignOpts {
    let mut o = CampaignOpts::new(Scale::Smoke);
    o.out = out.to_path_buf();
    o.only = Some(CHEAP.iter().map(|s| s.to_string()).collect());
    o.jobs = Some(1); // serial: the abort point is exact
    o.quiet = true;
    o
}

fn status_of(summary: &alf_lab::CampaignSummary, id: &str) -> JobStatus {
    summary
        .outcomes
        .iter()
        .find(|o| o.id == id)
        .unwrap_or_else(|| panic!("{id} has no outcome"))
        .status
        .clone()
}

#[test]
fn aborted_campaign_resumes_to_identical_artifacts() {
    let interrupted = tmp("interrupted");
    let reference = tmp("reference");

    // Uninterrupted reference run.
    let full = run_campaign(&opts(&reference)).unwrap();
    assert!(full.all_terminal && !full.aborted && !full.has_failures());

    // Abort after the first completion…
    let mut first = opts(&interrupted);
    first.abort_after = Some(1);
    let aborted = run_campaign(&first).unwrap();
    assert!(aborted.aborted);
    assert!(!aborted.all_terminal);
    assert_eq!(aborted.outcomes.len(), 1);
    assert_eq!(status_of(&aborted, CHEAP[0]), JobStatus::Completed);

    // …and resume: the completed job is cached, the rest runs.
    let resumed = run_campaign(&opts(&interrupted)).unwrap();
    assert!(resumed.all_terminal && !resumed.aborted);
    assert_eq!(status_of(&resumed, CHEAP[0]), JobStatus::Cached);
    assert_eq!(status_of(&resumed, CHEAP[1]), JobStatus::Completed);

    // Per-job artifacts are byte-identical to the uninterrupted run
    // (they carry no timing), cached job included.
    for id in CHEAP {
        for ext in ["txt", "json"] {
            let name = format!("{id}.{ext}");
            let a = std::fs::read(interrupted.join(&name)).unwrap();
            let b = std::fs::read(reference.join(&name)).unwrap();
            assert_eq!(a, b, "{name} diverged across kill/resume");
        }
    }
    // The consolidated report exists in both and marks full coverage.
    for dir in [&interrupted, &reference] {
        let json = std::fs::read_to_string(dir.join("pareto-smoke.json")).unwrap();
        assert!(json.contains("\"all_terminal\":true"), "{json}");
    }
    // A cached job's metrics still reach the resumed report (from the
    // manifest record, not a re-run).
    let resumed_json = std::fs::read_to_string(interrupted.join("pareto-smoke.json")).unwrap();
    assert!(resumed_json.contains(&format!("\"id\":\"{}\",\"status\":\"cached\"", CHEAP[0])));
    assert!(resumed_json.contains("\"metrics\":{"));

    let _ = std::fs::remove_dir_all(&interrupted);
    let _ = std::fs::remove_dir_all(&reference);
}

#[test]
fn resuming_a_different_campaign_is_a_typed_mismatch() {
    let out = tmp("mismatch");
    let mut first = opts(&out);
    first.only = Some(vec![CHEAP[0].to_string()]);
    run_campaign(&first).unwrap();

    // Different job selection → different fingerprint → refuse.
    let err = run_campaign(&opts(&out)).unwrap_err();
    let msg = match err {
        LabError::Campaign(e) => e.to_string(),
        other => panic!("expected campaign error, got {other:?}"),
    };
    assert!(
        msg.contains("--fresh"),
        "error should point at --fresh: {msg}"
    );

    // --fresh discards the stale manifest and runs.
    let mut fresh = opts(&out);
    fresh.fresh = true;
    let summary = run_campaign(&fresh).unwrap();
    assert!(summary.all_terminal && !summary.has_failures());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn completed_campaign_is_a_cheap_no_op_on_rerun() {
    let out = tmp("noop");
    run_campaign(&opts(&out)).unwrap();
    let again = run_campaign(&opts(&out)).unwrap();
    assert!(again.all_terminal);
    for id in CHEAP {
        assert_eq!(status_of(&again, id), JobStatus::Cached);
    }
    // Events from both runs share one JSONL stream (append on resume).
    let events = std::fs::read_to_string(out.join("campaign-smoke.events.jsonl")).unwrap();
    assert_eq!(
        events.matches("campaign.start").count(),
        2,
        "resume should append, not truncate: {events}"
    );
    let _ = std::fs::remove_dir_all(&out);
}
