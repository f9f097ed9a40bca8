//! Job and suite specifications.
//!
//! A [`Job`] is one fully-specified experiment cell: a scenario
//! configuration, a method, and a display label. A [`Suite`] is an ordered
//! list of jobs — the unit the [`crate::engine::Engine`] executes. Suites
//! are built in code (see [`crate::suites`] for the standard grids) or
//! loaded from a JSON file via [`Suite::from_json_file_with`].
//!
//! # Suite JSON schema
//!
//! ```json
//! {
//!   "name": "my-sweep",
//!   "base": "smoke",
//!   "jobs": [
//!     {
//!       "label": "r4ncl@L2",
//!       "base": "paper",
//!       "seed": 7,
//!       "insertion_layer": 2,
//!       "cl_epochs": 10,
//!       "pretrain_epochs": 4,
//!       "method": { "kind": "replay4ncl", "per_class": 5, "t_star": 24,
//!                   "lr_divisor": 2.0 }
//!     }
//!   ]
//! }
//! ```
//!
//! `base` names a configuration preset (the built-in resolver knows
//! `"smoke"` and `"paper"`; binaries may register more via
//! [`Suite::from_json_str_with`]); the per-job fields override it. Method
//! `kind` is one of `baseline`, `spiking_lr`, `spiking_lr_reduced`,
//! `replay4ncl`; replay kinds need `per_class`, reduced kinds need
//! `t_star`, and `lr_divisor` optionally rescales the CL learning rate.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use replay4ncl::{MethodSpec, ScenarioConfig};

use crate::error::RuntimeError;

/// One experiment cell: a scenario configuration plus a method, labelled
/// for reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Display label (unique within a suite by convention, not enforced).
    pub label: String,
    /// Scenario configuration the job runs under.
    pub config: ScenarioConfig,
    /// Method under test.
    pub method: MethodSpec,
}

impl Job {
    /// Creates a labelled job.
    #[must_use]
    pub fn new(label: impl Into<String>, config: ScenarioConfig, method: MethodSpec) -> Self {
        Job {
            label: label.into(),
            config,
            method,
        }
    }

    /// Validates the job's configuration and method.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidSuite`] naming the job and the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        self.config
            .validate()
            .and_then(|()| self.method.validate())
            .map_err(|e| RuntimeError::InvalidSuite {
                detail: format!("job '{}': {e}", self.label),
            })
    }
}

/// An ordered collection of jobs executed as one run.
///
/// Job order is the report order: results are always assembled in suite
/// order, regardless of which worker finishes which job first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Suite {
    /// Suite display name.
    pub name: String,
    /// The jobs, in report order.
    pub jobs: Vec<Job>,
}

impl Suite {
    /// Creates an empty suite.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Suite {
            name: name.into(),
            jobs: Vec::new(),
        }
    }

    /// Appends a job, builder-style.
    #[must_use]
    pub fn with_job(mut self, job: Job) -> Self {
        self.jobs.push(job);
        self
    }

    /// Appends a job.
    pub fn push(&mut self, job: Job) {
        self.jobs.push(job);
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the suite has no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Validates every job; a suite must be non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidSuite`] for an empty suite or the
    /// first invalid job.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if self.jobs.is_empty() {
            return Err(RuntimeError::InvalidSuite {
                detail: format!("suite '{}' has no jobs", self.name),
            });
        }
        for job in &self.jobs {
            job.validate()?;
        }
        Ok(())
    }

    /// [`Suite::from_json_str_with`] using the built-in base-config
    /// resolver (`"smoke"` and `"paper"`), for tests.
    #[cfg(test)]
    fn from_json_str(json: &str) -> Result<Self, RuntimeError> {
        Suite::from_json_str_with(json, &builtin_base)
    }

    /// Parses a suite from JSON with a custom base-config resolver; the
    /// resolver maps a `base` preset name to a [`ScenarioConfig`] (return
    /// `None` for unknown names, which surfaces as a parse error).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Parse`] for syntax or schema violations and
    /// [`RuntimeError::InvalidSuite`] if a decoded job fails validation.
    fn from_json_str_with(
        json: &str,
        resolve_base: &dyn Fn(&str) -> Option<ScenarioConfig>,
    ) -> Result<Self, RuntimeError> {
        let doc = serde_json::from_str(json)?;
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| schema_err("suite needs a string \"name\""))?
            .to_owned();
        let suite_base = match doc.get("base") {
            None => "smoke".to_owned(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| schema_err("\"base\" must be a string"))?
                .to_owned(),
        };
        let jobs_json = doc
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or_else(|| schema_err("suite needs a \"jobs\" array"))?;

        let mut suite = Suite::new(name);
        for (index, job_json) in jobs_json.iter().enumerate() {
            suite
                .jobs
                .push(decode_job(job_json, index, &suite_base, resolve_base)?);
        }
        suite.validate()?;
        Ok(suite)
    }

    /// Reads and parses a suite file (see [`Suite::from_json_str_with`]).
    ///
    /// # Errors
    ///
    /// Adds [`RuntimeError::Io`] for unreadable files to the parse errors.
    pub fn from_json_file_with(
        path: &std::path::Path,
        resolve_base: &dyn Fn(&str) -> Option<ScenarioConfig>,
    ) -> Result<Self, RuntimeError> {
        let json = std::fs::read_to_string(path)?;
        Suite::from_json_str_with(&json, resolve_base)
    }
}

/// The built-in base-config resolver: the two presets every binary knows.
#[must_use]
pub fn builtin_base(name: &str) -> Option<ScenarioConfig> {
    match name {
        "smoke" => Some(ScenarioConfig::smoke()),
        "paper" => Some(ScenarioConfig::paper()),
        _ => None,
    }
}

fn schema_err(detail: &str) -> RuntimeError {
    RuntimeError::Parse {
        detail: detail.to_owned(),
    }
}

fn field_usize(json: &Value, key: &str) -> Result<Option<usize>, RuntimeError> {
    match json.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| schema_err(&format!("\"{key}\" must be a non-negative integer"))),
    }
}

fn decode_job(
    json: &Value,
    index: usize,
    suite_base: &str,
    resolve_base: &dyn Fn(&str) -> Option<ScenarioConfig>,
) -> Result<Job, RuntimeError> {
    let base_name = match json.get("base") {
        None => suite_base,
        Some(v) => v
            .as_str()
            .ok_or_else(|| schema_err(&format!("job {index}: \"base\" must be a string")))?,
    };
    let mut config = resolve_base(base_name)
        .ok_or_else(|| schema_err(&format!("job {index}: unknown base preset \"{base_name}\"")))?;

    if let Some(seed) = json.get("seed") {
        config.seed = seed
            .as_u64()
            .ok_or_else(|| schema_err(&format!("job {index}: \"seed\" must be a u64")))?;
    }
    if let Some(v) = field_usize(json, "insertion_layer")? {
        config.insertion_layer = v;
    }
    if let Some(v) = field_usize(json, "cl_epochs")? {
        config.cl_epochs = v;
    }
    if let Some(v) = field_usize(json, "pretrain_epochs")? {
        config.pretrain_epochs = v;
    }

    let method_json = json
        .get("method")
        .ok_or_else(|| schema_err(&format!("job {index}: needs a \"method\" object")))?;
    let method = decode_method(method_json, index)?;

    let label = match json.get("label") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| schema_err(&format!("job {index}: \"label\" must be a string")))?
            .to_owned(),
        None => format!("{}@L{}#{index}", method.name, config.insertion_layer),
    };
    Ok(Job::new(label, config, method))
}

fn decode_method(json: &Value, index: usize) -> Result<MethodSpec, RuntimeError> {
    let kind = json
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| schema_err(&format!("job {index}: method needs a string \"kind\"")))?;
    let per_class = |what: &str| {
        field_usize(json, "per_class")?.ok_or_else(|| {
            schema_err(&format!(
                "job {index}: method kind \"{what}\" needs \"per_class\""
            ))
        })
    };
    let t_star = |what: &str| {
        field_usize(json, "t_star")?.ok_or_else(|| {
            schema_err(&format!(
                "job {index}: method kind \"{what}\" needs \"t_star\""
            ))
        })
    };
    let mut method = match kind {
        "baseline" => MethodSpec::baseline(),
        "spiking_lr" => MethodSpec::spiking_lr(per_class(kind)?),
        "spiking_lr_reduced" => MethodSpec::spiking_lr_reduced(per_class(kind)?, t_star(kind)?),
        "replay4ncl" => MethodSpec::replay4ncl(per_class(kind)?, t_star(kind)?),
        other => {
            return Err(schema_err(&format!(
                "job {index}: unknown method kind \"{other}\""
            )))
        }
    };
    if let Some(divisor) = json.get("lr_divisor") {
        let divisor = divisor
            .as_f64()
            .ok_or_else(|| schema_err(&format!("job {index}: \"lr_divisor\" must be a number")))?;
        method = method.with_lr_divisor(divisor as f32);
    }
    Ok(method)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_builds_and_validates() {
        let config = ScenarioConfig::smoke();
        let suite = Suite::new("s")
            .with_job(Job::new("base", config.clone(), MethodSpec::baseline()))
            .with_job(Job::new("r4", config, MethodSpec::replay4ncl(2, 16)));
        assert_eq!(suite.len(), 2);
        assert!(!suite.is_empty());
        assert!(suite.validate().is_ok());
        assert!(Suite::new("empty").validate().is_err());
    }

    #[test]
    fn invalid_job_is_named_in_the_error() {
        let mut config = ScenarioConfig::smoke();
        config.cl_epochs = 0;
        let suite = Suite::new("s").with_job(Job::new("broken", config, MethodSpec::baseline()));
        let err = suite.validate().unwrap_err().to_string();
        assert!(err.contains("broken"), "{err}");
    }

    #[test]
    fn json_decodes_presets_overrides_and_all_method_kinds() {
        let suite = Suite::from_json_str(
            r#"{
              "name": "grid",
              "base": "smoke",
              "jobs": [
                {"label": "b", "method": {"kind": "baseline"}},
                {"label": "slr", "seed": 42, "cl_epochs": 3,
                 "method": {"kind": "spiking_lr", "per_class": 4}},
                {"label": "slr-r", "insertion_layer": 2,
                 "method": {"kind": "spiking_lr_reduced", "per_class": 4, "t_star": 16}},
                {"pretrain_epochs": 2,
                 "method": {"kind": "replay4ncl", "per_class": 4, "t_star": 16,
                            "lr_divisor": 2.0}}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(suite.name, "grid");
        assert_eq!(suite.len(), 4);
        assert_eq!(suite.jobs[0].method, MethodSpec::baseline());
        assert_eq!(suite.jobs[1].config.seed, 42);
        assert_eq!(suite.jobs[1].config.cl_epochs, 3);
        assert_eq!(suite.jobs[2].config.insertion_layer, 2);
        assert_eq!(suite.jobs[3].config.pretrain_epochs, 2);
        assert_eq!(suite.jobs[3].method.lr_divisor, 2.0);
        // Default labels name the method and insertion layer.
        assert_eq!(suite.jobs[3].label, "Replay4NCL@L1#3");
        // Everything else is the smoke preset.
        assert_eq!(suite.jobs[0].config.data, ScenarioConfig::smoke().data);
    }

    #[test]
    fn json_custom_resolver_and_per_job_base() {
        let custom = |name: &str| match name {
            "tiny" => {
                let mut c = ScenarioConfig::smoke();
                c.cl_epochs = 1;
                Some(c)
            }
            other => builtin_base(other),
        };
        let suite = Suite::from_json_str_with(
            r#"{"name": "s", "base": "tiny", "jobs": [
                 {"label": "a", "method": {"kind": "baseline"}},
                 {"label": "b", "base": "paper", "method": {"kind": "baseline"}}
               ]}"#,
            &custom,
        )
        .unwrap();
        assert_eq!(suite.jobs[0].config.cl_epochs, 1);
        assert_eq!(suite.jobs[1].config.data.channels, 700);
    }

    #[test]
    fn json_schema_violations_are_parse_errors() {
        let cases = [
            r#"{"jobs": []}"#,                                          // no name
            r#"{"name": "s"}"#,                                         // no jobs
            r#"{"name": "s", "jobs": [{"method": {"kind": "nope"}}]}"#, // bad kind
            r#"{"name": "s", "jobs": [{"label": "x"}]}"#,               // no method
            r#"{"name": "s", "base": "mars", "jobs": [{"method": {"kind": "baseline"}}]}"#,
            r#"{"name": "s", "jobs": [{"method": {"kind": "spiking_lr"}}]}"#, // no per_class
            r#"{"name": "s", "jobs": [{"seed": -3, "method": {"kind": "baseline"}}]}"#,
        ];
        for json in cases {
            assert!(
                matches!(Suite::from_json_str(json), Err(RuntimeError::Parse { .. })),
                "{json} should be a parse error"
            );
        }
        // An empty jobs array is a suite-level validation error.
        assert!(matches!(
            Suite::from_json_str(r#"{"name": "s", "jobs": []}"#),
            Err(RuntimeError::InvalidSuite { .. })
        ));
    }
}
