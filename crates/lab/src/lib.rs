//! `alf-lab` — the paper's result grid as one resumable, scheduled
//! campaign.
//!
//! Every figure, table and ablation of the ALF reproduction is a job in
//! one DAG (`alf-lab list` prints the grid; `alf-lab run --only <job>`
//! runs one with its dependencies):
//!
//! | artefact  | job id              |
//! |-----------|---------------------|
//! | Fig. 2a   | `fig2a`             |
//! | Fig. 2b   | `fig2b`             |
//! | Fig. 2c   | `fig2c`             |
//! | Table II  | `table2`            |
//! | Fig. 3    | `fig3`              |
//! | Table III | `table3`            |
//! | headline  | `headline`          |
//! | ablations | `ablation_ste`, `ablation_nuprune`, `ablation_dataflow`, `ablation_fusion`, `ablation_quant`, `sensitivity` |
//!
//! Shared `baseline:*` trainings feed the consumers, so each reference
//! model trains exactly once per campaign — an invariant the runner
//! asserts from artifact-store telemetry rather than hopes for. Every job
//! runs at `--scale smoke` (default; seconds) or `--scale paper` (the
//! full sweep; minutes to hours on a laptop) and writes
//! `<out>/<job>.{txt,json}`. The crate splits into:
//!
//! * `jobs` — the experiment bodies, functions from a typed context to a
//!   structured result, over the `artifacts` store of shared datasets and
//!   trained baselines;
//! * [`dag`] — the validated graph with a precomputed deterministic
//!   schedule order (Kahn's algorithm, declaration-index tie-break);
//! * [`scheduler`] — budgeted dispatch in exactly that order, with
//!   per-job thread leases and a progress hook that can abort;
//! * [`campaign`] — the CRC-framed append-only manifest that makes a
//!   killed campaign resumable (completed jobs skip; their metrics
//!   survive into the report);
//! * `pareto` — the consolidated coverage + Pareto-frontier report;
//! * [`run_campaign`] — the glue, plus [`cli_main`] for the `alf-lab`
//!   binary and the `alf lab` subcommand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifacts;
pub mod campaign;
pub mod dag;
mod jobs;
mod pareto;
mod report;
mod runner;
mod scale;
pub mod scheduler;

pub use report::ParetoPoint;
pub use runner::{run_campaign, CampaignOpts, CampaignSummary, LabError};
pub use scale::Scale;

use std::path::PathBuf;

use jobs::JobKind;
use report::{eng, hbar, Table};
use scale::{CifarConfig, ImagenetConfig};

const USAGE: &str = "\
alf-lab — run the ALF results grid as one resumable campaign

USAGE:
    alf-lab [run] [OPTIONS]    run (or resume) the campaign
    alf-lab list               print the declared job grid

OPTIONS:
    --scale {smoke|paper} | --smoke | --paper   experiment scale (default smoke)
    --jobs N          worker budget (default: host cores)
    --out DIR         artifact directory (default: results)
    --only a,b,c      run only these jobs (plus transitive dependencies)
    --fresh           discard the existing manifest instead of resuming
    --abort-after N   abort after N job completions, exit 70 (kill simulation)

EXIT CODES:
    0  campaign finished, every job succeeded
    1  usage/campaign error, or some job failed or was skipped
    70 campaign aborted by --abort-after (resume by re-running)
";

/// Renders the declared grid (`alf-lab list`).
fn grid_table() -> String {
    let rows = JobKind::grid()
        .into_iter()
        .map(|j| {
            vec![
                j.id().to_string(),
                j.threads().to_string(),
                j.deps()
                    .into_iter()
                    .map(|d| d.id().to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
            ]
        })
        .collect();
    Table::new("declared job grid", &["job", "lease", "depends on"], rows).to_text()
}

/// The `alf-lab` entry point, reusable from the `alf` facade binary.
/// Returns the process exit code: 0 when every job succeeded, 1 on a
/// usage or campaign error or an unsuccessful job, 70 when
/// `--abort-after` stopped the campaign.
#[must_use]
pub fn cli_main(argv: &[String]) -> i32 {
    let mut argv = argv.to_vec();
    match argv.first().map(String::as_str) {
        Some("list") => {
            print!("{}", grid_table());
            return 0;
        }
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            return 0;
        }
        Some("run") => {
            argv.remove(0);
        }
        _ => {}
    }
    let opts = match parse_opts(&argv) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("alf-lab: {msg}\n\n{USAGE}");
            return 1;
        }
    };
    match run_campaign(&opts) {
        Ok(summary) => {
            print!("{}", summary.report);
            println!(
                "report: {} / {}",
                summary.report_txt.display(),
                summary.report_json.display()
            );
            if summary.aborted {
                eprintln!("campaign aborted by --abort-after; re-run to resume");
                70
            } else {
                i32::from(summary.has_failures())
            }
        }
        Err(e) => {
            eprintln!("alf-lab: {e}");
            1
        }
    }
}

/// Parses the `run` options into [`CampaignOpts`]: one pass, every flag
/// named once, anything else a usage error.
fn parse_opts(argv: &[String]) -> Result<CampaignOpts, String> {
    let mut opts = CampaignOpts::new(Scale::Smoke);
    let mut scale = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        let picked = match arg.as_str() {
            "--smoke" => Scale::Smoke,
            "--paper" => Scale::Paper,
            "--scale" => match value()? {
                "smoke" => Scale::Smoke,
                "paper" => Scale::Paper,
                other => return Err(format!("unknown scale '{other}'; use smoke or paper")),
            },
            "--jobs" => {
                opts.jobs = Some(positive(arg, value()?)?);
                continue;
            }
            "--out" => {
                opts.out = PathBuf::from(value()?);
                continue;
            }
            "--only" => {
                let ids: Vec<String> = value()?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if ids.is_empty() {
                    return Err("--only needs at least one job id".into());
                }
                opts.only = Some(ids);
                continue;
            }
            "--fresh" => {
                opts.fresh = true;
                continue;
            }
            "--abort-after" => {
                opts.abort_after = Some(positive(arg, value()?)?);
                continue;
            }
            other => return Err(format!("unrecognised argument '{other}'")),
        };
        if scale.is_some_and(|s| s != picked) {
            return Err("conflicting scales: pick one of smoke or paper".into());
        }
        scale = Some(picked);
    }
    opts.scale = scale.unwrap_or(Scale::Smoke);
    Ok(opts)
}

fn positive(flag: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(0) => Err(format!("{flag} must be >= 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag}: bad value '{v}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn opts_parse_the_full_surface() {
        let opts = parse_opts(&argv(&[
            "--paper",
            "--jobs",
            "3",
            "--out",
            "camp",
            "--fresh",
            "--only",
            "headline, fig3",
            "--abort-after",
            "2",
        ]))
        .unwrap();
        assert_eq!(opts.scale, Scale::Paper);
        assert_eq!(opts.jobs, Some(3));
        assert_eq!(opts.out, std::path::PathBuf::from("camp"));
        assert!(opts.fresh);
        assert_eq!(
            opts.only.as_deref(),
            Some(&["headline".to_string(), "fig3".to_string()][..])
        );
        assert_eq!(opts.abort_after, Some(2));
    }

    #[test]
    fn bad_opts_are_rejected() {
        assert!(parse_opts(&argv(&["--abort-after", "0"])).is_err());
        assert!(parse_opts(&argv(&["--only", ""])).is_err());
        assert!(parse_opts(&argv(&["--wat"])).is_err());
        assert!(parse_opts(&argv(&["--jobs", "0"])).is_err());
        assert!(parse_opts(&argv(&["--jobs", "x"])).is_err());
        assert!(parse_opts(&argv(&["--jobs"])).is_err());
        assert!(parse_opts(&argv(&["--smoke", "--paper"])).is_err());
        assert!(parse_opts(&argv(&["--scale", "huge"])).is_err());
    }

    #[test]
    fn scale_without_a_value_is_a_usage_error() {
        let err = parse_opts(&argv(&["--scale"])).unwrap_err();
        assert!(err.contains("--scale needs a value"), "{err}");
        assert!(parse_opts(&argv(&["--scale", "--paper"])).is_err());
    }

    #[test]
    fn scale_value_and_conflicting_shorthand_is_a_usage_error() {
        let err = parse_opts(&argv(&["--scale", "smoke", "--paper"])).unwrap_err();
        assert!(err.contains("conflicting scales"), "{err}");
        assert!(parse_opts(&argv(&["--paper", "--scale", "smoke"])).is_err());
    }

    #[test]
    fn scale_defaults_to_smoke() {
        assert_eq!(parse_opts(&[]).unwrap().scale, Scale::Smoke);
        assert_eq!(parse_opts(&argv(&["--paper"])).unwrap().scale, Scale::Paper);
        let opts = parse_opts(&argv(&["--scale", "paper", "--paper"])).unwrap();
        assert_eq!(opts.scale, Scale::Paper);
        assert_eq!(opts.out, PathBuf::from("results"));
    }

    #[test]
    fn grid_table_lists_every_job() {
        let t = grid_table();
        for j in JobKind::grid() {
            assert!(t.contains(j.id()), "grid table misses {}", j.id());
        }
    }
}
