//! Run metadata, and the committed baseline it is compared against.
//!
//! `baseline.jsonl` holds flat JSON records per workload: the pinned
//! campaign digest (`pin`), the configuration the baseline was measured
//! under (`meta`), per-metric medians and quartiles over ten seeds
//! (`median`) and the traced run's layer shares (`shares`).  A result is
//! compared with the baseline only when its code-model version, width and
//! engine sample sizes match: numbers from different scales do not
//! compare.

use std::path::Path;

use dmpb_metrics::json::{parse_object, JsonScalar, ObjectWriter};
use dmpb_motifs::workers::hardware_parallelism;
use dmpb_perfmodel::engine::EngineConfig;
use dmpb_scenario::CODE_MODEL_VERSION;

const BASELINE: &str = include_str!("../baseline.jsonl");

/// What a result must share with another to be compared with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Cells run concurrently.
    pub width: usize,
    /// The code-model version the cells were computed under.
    pub code_model_version: u32,
    /// Perf-model sampled data accesses per pass.
    pub engine_data_accesses: usize,
    /// Perf-model sampled instruction fetches per pass.
    pub engine_instruction_fetches: usize,
    /// Perf-model sampled branches.
    pub engine_branches: usize,
}

impl Scale {
    /// The scale of a run at `width` under this build.
    pub fn current(width: usize) -> Self {
        let engine = EngineConfig::default();
        Self {
            width,
            code_model_version: CODE_MODEL_VERSION,
            engine_data_accesses: engine.sample_data_accesses,
            engine_instruction_fetches: engine.sample_instruction_fetches,
            engine_branches: engine.sample_branches,
        }
    }

    /// Why `self` and `other` must not be compared, if they must not.
    pub fn incomparable(&self, other: &Scale) -> Option<String> {
        let fields = [
            ("width", self.width, other.width),
            (
                "code_model_version",
                self.code_model_version as usize,
                other.code_model_version as usize,
            ),
            (
                "engine_data_accesses",
                self.engine_data_accesses,
                other.engine_data_accesses,
            ),
            (
                "engine_instruction_fetches",
                self.engine_instruction_fetches,
                other.engine_instruction_fetches,
            ),
            (
                "engine_branches",
                self.engine_branches,
                other.engine_branches,
            ),
        ];
        let differing: Vec<String> = fields
            .iter()
            .filter(|(_, a, b)| a != b)
            .map(|(name, a, b)| format!("{name} {a} vs {b}"))
            .collect();
        (!differing.is_empty()).then(|| differing.join(", "))
    }

    /// Simulated events (data accesses, instruction fetches and branches)
    /// in one perf-model run: both cache paths run a warm-up and a
    /// measured pass, the branch path runs once.
    pub fn engine_events_per_run(&self) -> f64 {
        (2 * (self.engine_data_accesses + self.engine_instruction_fetches) + self.engine_branches)
            as f64
    }
}

/// Everything recorded with every result.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Hardware threads of the machine.
    pub nproc: usize,
    /// The checkout's commit, or `unknown` outside a git checkout.
    pub commit: String,
    /// The comparability fields.
    pub scale: Scale,
}

impl RunMeta {
    /// Metadata of a run at `width` from the current directory.
    pub fn collect(width: usize) -> Self {
        Self {
            nproc: hardware_parallelism(),
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
            scale: Scale::current(width),
        }
    }

    /// Appends the metadata fields to a flat JSON record.
    pub fn write(&self, w: &mut ObjectWriter) {
        w.field_int("nproc", self.nproc as i64);
        w.field_int("width", self.scale.width as i64);
        w.field_str("commit", &self.commit);
        w.field_int(
            "code_model_version",
            i64::from(self.scale.code_model_version),
        );
        w.field_int(
            "engine_data_accesses",
            self.scale.engine_data_accesses as i64,
        );
        w.field_int(
            "engine_instruction_fetches",
            self.scale.engine_instruction_fetches as i64,
        );
        w.field_int("engine_branches", self.scale.engine_branches as i64);
    }
}

/// Reads the commit `HEAD` names from a `.git` directory.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        line.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// The pinned digest of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// The campaign digest at the default seed.
    pub digest: u64,
    /// The code-model version it was pinned under.
    pub code_model_version: u32,
}

/// One baseline median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// Median over the baseline runs.
    pub median: f64,
    /// Distance between the quartiles, as a share of the median.
    pub spread: f64,
}

/// The committed baseline records.
#[derive(Debug)]
pub struct Baseline {
    records: Vec<Vec<(String, JsonScalar)>>,
}

impl Baseline {
    /// Parses the committed baseline.
    pub fn load() -> Result<Self, String> {
        Self::parse(BASELINE)
    }

    fn parse(src: &str) -> Result<Self, String> {
        let records = src
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .map(|(i, line)| {
                parse_object(line).map_err(|e| format!("baseline.jsonl:{}: {e}", i + 1))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { records })
    }

    fn find<'a>(
        &'a self,
        record: &'a str,
        workload: &'a str,
    ) -> impl Iterator<Item = &'a Vec<(String, JsonScalar)>> + 'a {
        self.records.iter().filter(move |fields| {
            get(fields, "record").and_then(JsonScalar::as_str) == Some(record)
                && get(fields, "workload").and_then(JsonScalar::as_str) == Some(workload)
        })
    }

    /// The workload's pinned digest, if one is recorded.
    pub fn pin(&self, workload: &str) -> Result<Option<Pin>, String> {
        let Some(fields) = self.find("pin", workload).next() else {
            return Ok(None);
        };
        let digest = get(fields, "digest")
            .and_then(JsonScalar::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| format!("pin for {workload}: bad digest"))?;
        let version = int(fields, "code_model_version")?;
        Ok(Some(Pin {
            digest,
            code_model_version: version as u32,
        }))
    }

    /// The scale the workload's baseline was measured at.
    pub fn scale(&self, workload: &str) -> Result<Option<Scale>, String> {
        let Some(fields) = self.find("meta", workload).next() else {
            return Ok(None);
        };
        Ok(Some(Scale {
            width: int(fields, "width")? as usize,
            code_model_version: int(fields, "code_model_version")? as u32,
            engine_data_accesses: int(fields, "engine_data_accesses")? as usize,
            engine_instruction_fetches: int(fields, "engine_instruction_fetches")? as usize,
            engine_branches: int(fields, "engine_branches")? as usize,
        }))
    }

    /// The baseline median of one metric, if recorded.
    pub fn reference(&self, workload: &str, metric: &str) -> Option<Reference> {
        let fields = self
            .find("median", workload)
            .find(|f| get(f, "metric").and_then(JsonScalar::as_str) == Some(metric))?;
        Some(Reference {
            median: get(fields, "median")?.as_f64()?,
            spread: get(fields, "spread")?.as_f64()?,
        })
    }
}

fn get<'a>(fields: &'a [(String, JsonScalar)], key: &str) -> Option<&'a JsonScalar> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn int(fields: &[(String, JsonScalar)], key: &str) -> Result<i64, String> {
    get(fields, key)
        .and_then(JsonScalar::as_int)
        .filter(|v| *v >= 0)
        .ok_or_else(|| format!("baseline field `{key}` missing or not a count"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differing_scales_refuse_to_compare() {
        let a = Scale::current(2);
        assert_eq!(a.incomparable(&a), None);
        let wider = Scale::current(4);
        assert_eq!(a.incomparable(&wider).as_deref(), Some("width 2 vs 4"));
        let other_model = Scale {
            code_model_version: a.code_model_version + 1,
            engine_branches: 1,
            ..a
        };
        let reason = a.incomparable(&other_model).expect("incomparable");
        assert!(reason.contains("code_model_version") && reason.contains("engine_branches"));
    }

    #[test]
    fn committed_baseline_parses_and_pins_every_workload() {
        let baseline = Baseline::load().expect("baseline parses");
        for workload in crate::workload::Workload::ALL {
            let pin = baseline.pin(workload.name()).expect("pin parses");
            assert!(pin.is_some(), "{} has no pinned digest", workload.name());
            assert!(baseline
                .scale(workload.name())
                .expect("meta parses")
                .is_some());
        }
    }

    #[test]
    fn baseline_records_are_found_by_workload() {
        let baseline = Baseline::parse(
            "{\"record\":\"pin\",\"workload\":\"w\",\"digest\":\"00000000000000ff\",\"code_model_version\":3}\n\
             {\"record\":\"median\",\"workload\":\"w\",\"metric\":\"m\",\"median\":2.0,\"spread\":0.01}\n",
        )
        .unwrap();
        assert_eq!(
            baseline.pin("w").unwrap(),
            Some(Pin {
                digest: 255,
                code_model_version: 3
            })
        );
        assert_eq!(baseline.pin("v").unwrap(), None);
        assert_eq!(baseline.reference("w", "m").map(|r| r.median), Some(2.0));
    }

    #[test]
    fn git_commit_follows_symbolic_refs() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("packed-refs"), "abc123 refs/heads/main\n").unwrap();
        assert_eq!(git_commit(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_commit(&dir).as_deref(), Some("def456"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_commit(&dir), None);
    }
}
