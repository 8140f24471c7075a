//! The command-line surface `alf-lab` parses for the experiment jobs:
//!
//! * `--scale {smoke|paper}` or the shorthands `--smoke` / `--paper`
//!   (default: smoke);
//! * `--jobs N` — worker/thread budget for schedulers that take one;
//! * `--out DIR` — artifact directory for the text table + JSON pair
//!   every job writes (default `results`).
//!
//! Unknown arguments are kept and can be consumed by caller-specific
//! flags through [`BenchArgs::flag`] / [`BenchArgs::value`];
//! [`BenchArgs::finish`] rejects leftovers so typos fail loudly.

use std::path::PathBuf;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-experiment configuration for CI and smoke testing.
    Smoke,
    /// The full configuration (hours on a CPU).
    Paper,
}

impl Scale {
    /// Parses the scale from an argv slice: either `--scale
    /// {smoke|paper}` or the bare shorthands `--smoke` / `--paper`.
    /// Defaults to smoke.
    ///
    /// # Errors
    ///
    /// Returns a usage message on an unknown scale value or conflicting
    /// shorthands.
    pub fn from_argv(argv: &[String]) -> Result<Self, String> {
        let smoke_flag = argv.iter().any(|a| a == "--smoke");
        let paper_flag = argv.iter().any(|a| a == "--paper");
        if smoke_flag && paper_flag {
            return Err("--smoke and --paper are mutually exclusive".into());
        }
        if smoke_flag {
            return Ok(Scale::Smoke);
        }
        if paper_flag {
            return Ok(Scale::Paper);
        }
        match argv
            .iter()
            .position(|a| a == "--scale")
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
        {
            None => Ok(Scale::Smoke),
            Some("smoke") => Ok(Scale::Smoke),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(format!("unknown scale '{other}'; use smoke or paper")),
        }
    }

    /// Label for report headers.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Paper => "paper",
        }
    }
}

/// Parsed shared options plus the not-yet-consumed remainder of argv.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Experiment scale (`--scale` / `--smoke` / `--paper`).
    pub scale: Scale,
    /// Worker budget (`--jobs N`), `None` when unspecified.
    pub jobs: Option<usize>,
    /// Artifact directory (`--out DIR`), `None` when unspecified.
    pub out: Option<PathBuf>,
    rest: Vec<String>,
}

impl BenchArgs {
    /// Parses an explicit argv slice.
    ///
    /// # Errors
    ///
    /// Returns a usage message on a malformed scale, a non-positive or
    /// non-numeric `--jobs`, or a missing option value.
    pub fn from_argv(argv: &[String]) -> Result<Self, String> {
        let scale = Scale::from_argv(argv)?;
        let mut jobs = None;
        let mut out = None;
        let mut rest = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--smoke" | "--paper" => {}
                "--scale" => i += 1, // value validated by Scale::from_argv
                "--jobs" => {
                    let v = argv
                        .get(i + 1)
                        .ok_or_else(|| "--jobs needs a value".to_string())?;
                    let n: usize = v.parse().map_err(|_| format!("--jobs: bad value '{v}'"))?;
                    if n == 0 {
                        return Err("--jobs must be >= 1".into());
                    }
                    jobs = Some(n);
                    i += 1;
                }
                "--out" => {
                    let v = argv
                        .get(i + 1)
                        .ok_or_else(|| "--out needs a value".to_string())?;
                    out = Some(PathBuf::from(v));
                    i += 1;
                }
                other => rest.push(other.to_string()),
            }
            i += 1;
        }
        Ok(Self {
            scale,
            jobs,
            out,
            rest,
        })
    }

    /// Artifact directory, defaulting to `results`.
    pub fn out_dir(&self) -> PathBuf {
        self.out.clone().unwrap_or_else(|| PathBuf::from("results"))
    }

    /// Consumes a boolean flag (`--name`) from the remainder.
    pub fn flag(&mut self, name: &str) -> bool {
        let tag = format!("--{name}");
        let before = self.rest.len();
        self.rest.retain(|a| *a != tag);
        self.rest.len() != before
    }

    /// Consumes a valued option (`--name VALUE`) from the remainder.
    ///
    /// # Errors
    ///
    /// Returns a message when the option is present without a value.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let tag = format!("--{name}");
        match self.rest.iter().position(|a| *a == tag) {
            None => Ok(None),
            Some(i) if i + 1 < self.rest.len() => {
                let v = self.rest.remove(i + 1);
                self.rest.remove(i);
                Ok(Some(v))
            }
            Some(_) => Err(format!("--{name} needs a value")),
        }
    }

    /// Rejects any argument no parser claimed.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unrecognised argument.
    pub fn finish(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(a) => Err(format!("unrecognised argument '{a}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn scale_defaults_to_smoke() {
        assert_eq!(Scale::from_argv(&[]).unwrap(), Scale::Smoke);
        assert_eq!(Scale::from_argv(&argv(&["--paper"])).unwrap(), Scale::Paper);
        assert_eq!(
            Scale::from_argv(&argv(&["--scale", "paper"])).unwrap(),
            Scale::Paper
        );
        assert!(Scale::from_argv(&argv(&["--smoke", "--paper"])).is_err());
        assert!(Scale::from_argv(&argv(&["--scale", "huge"])).is_err());
    }

    #[test]
    fn shared_options_parse_and_leftovers_are_rejected() {
        let mut a = BenchArgs::from_argv(&argv(&[
            "--paper", "--jobs", "4", "--out", "x", "--extra", "v",
        ]))
        .unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.out_dir(), PathBuf::from("x"));
        assert_eq!(a.value("extra").unwrap().as_deref(), Some("v"));
        assert!(a.clone().finish().is_ok());
        a.rest.push("--typo".into());
        assert!(a.finish().is_err());
    }

    #[test]
    fn bad_jobs_values_fail() {
        assert!(BenchArgs::from_argv(&argv(&["--jobs", "0"])).is_err());
        assert!(BenchArgs::from_argv(&argv(&["--jobs", "x"])).is_err());
        assert!(BenchArgs::from_argv(&argv(&["--jobs"])).is_err());
    }

    #[test]
    fn flag_consumption() {
        let mut a = BenchArgs::from_argv(&argv(&["--fresh"])).unwrap();
        assert!(a.flag("fresh"));
        assert!(!a.flag("fresh"));
        assert!(a.finish().is_ok());
    }
}
