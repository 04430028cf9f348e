//! The scenario DSL: a hand-rolled TOML-subset parser that turns an
//! experiment description into a validated [`Scenario`].
//!
//! # Grammar
//!
//! A scenario file is a TOML subset with four kinds of section:
//!
//! ```toml
//! # Comments run from `#` to end of line.
//!
//! [scenario]                      # required, exactly once
//! name = "paper-tables"           # required: the campaign's identity
//! description = "Table VI sweep"  # optional
//!
//! [axes]                          # optional: sweep axes (defaults below)
//! workloads = ["all"]             # workload names, or "all" / "paper-five"
//! clusters = ["five-node-westmere"]       # ClusterConfig::NAMES slugs
//! architectures = ["default", "haswell"]  # "default" = the cluster's own
//!                                         # processor; else ArchProfile::NAMES
//! elements = [2000]               # sample-execution sizes (data scale)
//! seeds = [0x00D417A40F1F]        # base seeds (hex or decimal)
//! tuning-cluster = "five-node-westmere"   # optional: tune every proxy on
//!                                         # this cluster instead of the
//!                                         # cell's own (cross-architecture
//!                                         # studies)
//!
//! [executor]                      # optional: campaign execution policy
//! workers = 8                     # cells run at once
//!
//! [population]                    # optional: sweep a seeded population of
//! size = 128                      # synthesized workloads alongside (or
//! base-seed = 0xDA7A              # instead of) the named ones
//! family = "mixed"                # chain / fork-join / diamond / layered /
//!                                 # mixed (a family drawn per member)
//! fit-to-paper = true             # start from parameters fitted to the
//!                                 # eight paper workloads (default: false)
//! ai-fraction = 0.25              # probability a member is an AI workload
//! kernels-min = 3                 # sampled motif-kernel count range
//! kernels-max = 8
//! size-distribution = "log-uniform"  # uniform / log-uniform / zipf
//! size-min-mb = 1024              # sampled total-data-size range (MB)
//! size-max-mb = 102400
//! zipf-exponent = 1.5             # zipf shape (when distribution = zipf)
//! sparsity-min = 0.0              # sampled sparsity range
//! sparsity-max = 0.5
//! duration-budget-secs = 600.0    # campaign-wide modeled-cost budget:
//!                                 # truncates the population to the rank
//!                                 # prefix that fits (split evenly across
//!                                 # the axis combinations)
//!
//! [[include]]                     # optional, repeatable: if any [[include]]
//! workload = "TeraSort"           # blocks exist, a cell must match at
//! cluster = "five-node-westmere"  # least one of them to be kept
//!
//! [[exclude]]                     # optional, repeatable: a cell matching
//! workload = "Spark-TeraSort"     # any [[exclude]] block is dropped
//! seed = 42                       # (filters may also name architecture /
//! elements = 2000                 # elements / seed)
//! ```
//!
//! Supported values: basic `"strings"` (with `\"`, `\\`, `\n`, `\t`
//! escapes), integers (decimal or `0x` hex, `_` separators), floats,
//! booleans, and single-line arrays of those scalars.  Keys are bare
//! (`[A-Za-z0-9_-]+`).  Unknown sections, unknown keys, duplicate keys
//! within a table and duplicate
//! `[scenario]`/`[axes]`/`[executor]`/`[population]` sections are
//! errors — a typo or leftover line must not silently produce an empty
//! or different sweep.
//!
//! A scenario with a `[population]` section may set `workloads = []`:
//! the synthesized members are then the only workload axis (a
//! population-only sweep).  Without a population, every axis needs at
//! least one value.
//!
//! Every axis value is validated at parse time against the registries it
//! names ([`WorkloadKind`]'s `FromStr`, [`ClusterConfig::by_name`],
//! [`ArchProfile::by_name`]), so a parsed [`Scenario`] can always be
//! expanded.
//!
//! The axes expand to the cartesian campaign matrix in declaration order
//! (clusters ▸ architectures ▸ elements ▸ seeds ▸ workloads); see
//! [`Scenario::expand`](crate::matrix) for the determinism contract.

use dmpb_perfmodel::arch::ArchProfile;
use dmpb_population::{PopulationSpec, SizeDistribution, TopologyFamily};
use dmpb_workloads::{ClusterConfig, WorkloadKind};

use crate::matrix::CellFilter;

/// Default sample-execution size (`SAMPLE_ELEMENTS`).
pub const DEFAULT_ELEMENTS: usize = dmpb_core::runner::SAMPLE_ELEMENTS;

/// Architecture axis value meaning "the cluster's own processor".
pub const DEFAULT_ARCHITECTURE: &str = "default";

/// A validated scenario: the declarative description of one campaign.
///
/// Fields are public so tests and programmatic callers can assemble
/// scenarios directly; [`Scenario::parse`] is the DSL entry point and the
/// only constructor that validates names.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The campaign's identity (reported, and part of no fingerprint).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Workload axis, in sweep order.
    pub workloads: Vec<WorkloadKind>,
    /// Cluster axis: slugs from [`ClusterConfig::NAMES`].
    pub clusters: Vec<String>,
    /// Architecture-override axis: [`DEFAULT_ARCHITECTURE`] or slugs from
    /// [`ArchProfile::NAMES`].
    pub architectures: Vec<String>,
    /// Sample-execution sizes (the data-scale axis).
    pub elements: Vec<usize>,
    /// Base seeds; each cell derives its own seed from one of these.
    pub seeds: Vec<u64>,
    /// When set, every proxy is tuned on this cluster (slug) instead of
    /// the cell's own cluster.
    pub tuning_cluster: Option<String>,
    /// Cells run at once (None = the runner default).
    pub workers: Option<usize>,
    /// Keep-only filters (a cell must match at least one, if any exist).
    pub include: Vec<CellFilter>,
    /// Drop filters (a cell matching any is dropped).
    pub exclude: Vec<CellFilter>,
    /// When set, a seeded population of synthesized workloads sweeps
    /// alongside (or, with `workloads = []`, instead of) the named ones.
    pub population: Option<PopulationSpec>,
}

impl Scenario {
    /// A scenario with the suite defaults on every axis: all eight
    /// workloads on the five-node Westmere cluster, default architecture,
    /// `SAMPLE_ELEMENTS` and the runner's default base seed.
    pub fn with_defaults(name: &str) -> Self {
        Self {
            name: name.to_string(),
            description: String::new(),
            workloads: WorkloadKind::ALL.to_vec(),
            clusters: vec![ClusterConfig::NAMES[0].to_string()],
            architectures: vec![DEFAULT_ARCHITECTURE.to_string()],
            elements: vec![DEFAULT_ELEMENTS],
            seeds: vec![dmpb_core::runner::DEFAULT_BASE_SEED],
            tuning_cluster: None,
            workers: None,
            include: Vec::new(),
            exclude: Vec::new(),
            population: None,
        }
    }

    /// Parses and validates a scenario file.  See the [module
    /// docs](self) for the grammar.
    pub fn parse(src: &str) -> Result<Scenario, ParseError> {
        let doc = Document::parse(src)?;
        doc.into_scenario()
    }
}

/// A scenario-file syntax or validation error, with the 1-based source
/// line it was detected on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the scenario source.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// A parsed scalar or array value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(u64),
    Float(f64),
    Bool(bool),
    Array(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// Which section a `key = value` line belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Section {
    Scenario,
    Axes,
    Executor,
    Population,
    Include(usize),
    Exclude(usize),
}

/// The raw parse: sections of `(key, value, line)` entries.
#[derive(Debug, Default)]
struct Document {
    scenario: Vec<(String, Value, usize)>,
    axes: Vec<(String, Value, usize)>,
    executor: Vec<(String, Value, usize)>,
    population: Vec<(String, Value, usize)>,
    include: Vec<Vec<(String, Value, usize)>>,
    exclude: Vec<Vec<(String, Value, usize)>>,
    saw_scenario: bool,
    saw_axes: bool,
    saw_executor: bool,
    saw_population: bool,
    population_line: usize,
}

/// Rejects a key assigned twice within one table — a leftover duplicate
/// line would otherwise silently last-win and sweep different cells than
/// the author believes.
fn reject_duplicate_keys(
    table: &str,
    entries: &[(String, Value, usize)],
) -> Result<(), ParseError> {
    // `-` and `_` spellings of one key (e.g. `tuning-cluster`) collide.
    let canon = |k: &str| k.replace('_', "-");
    for (i, (key, _, line)) in entries.iter().enumerate() {
        if entries[..i]
            .iter()
            .any(|(prior, _, _)| canon(prior) == canon(key))
        {
            return err(*line, format!("duplicate {table} key `{key}`"));
        }
    }
    Ok(())
}

impl Document {
    fn parse(src: &str) -> Result<Document, ParseError> {
        let mut doc = Document::default();
        let mut section: Option<Section> = None;
        for (idx, raw) in src.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[[") {
                let name = rest
                    .strip_suffix("]]")
                    .ok_or(())
                    .or_else(|_| err(line_no, "unterminated `[[` table header"))?
                    .trim();
                section = Some(match name {
                    "include" => {
                        doc.include.push(Vec::new());
                        Section::Include(doc.include.len() - 1)
                    }
                    "exclude" => {
                        doc.exclude.push(Vec::new());
                        Section::Exclude(doc.exclude.len() - 1)
                    }
                    other => {
                        return err(
                            line_no,
                            format!("unknown table array `[[{other}]]` (expected include/exclude)"),
                        )
                    }
                });
            } else if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or(())
                    .or_else(|_| err(line_no, "unterminated `[` table header"))?
                    .trim();
                section = Some(match name {
                    "scenario" => {
                        if doc.saw_scenario {
                            return err(line_no, "duplicate [scenario] section");
                        }
                        doc.saw_scenario = true;
                        Section::Scenario
                    }
                    "axes" => {
                        if doc.saw_axes {
                            return err(line_no, "duplicate [axes] section");
                        }
                        doc.saw_axes = true;
                        Section::Axes
                    }
                    "executor" => {
                        if doc.saw_executor {
                            return err(line_no, "duplicate [executor] section");
                        }
                        doc.saw_executor = true;
                        Section::Executor
                    }
                    "population" => {
                        if doc.saw_population {
                            return err(line_no, "duplicate [population] section");
                        }
                        doc.saw_population = true;
                        doc.population_line = line_no;
                        Section::Population
                    }
                    other => {
                        return err(
                            line_no,
                            format!(
                                "unknown section `[{other}]` (expected scenario/axes/executor/population)"
                            ),
                        )
                    }
                });
            } else {
                let (key, value) = parse_assignment(line, line_no)?;
                let entry = (key, value, line_no);
                match &section {
                    None => return err(line_no, "key outside any section"),
                    Some(Section::Scenario) => doc.scenario.push(entry),
                    Some(Section::Axes) => doc.axes.push(entry),
                    Some(Section::Executor) => doc.executor.push(entry),
                    Some(Section::Population) => doc.population.push(entry),
                    Some(Section::Include(i)) => doc.include[*i].push(entry),
                    Some(Section::Exclude(i)) => doc.exclude[*i].push(entry),
                }
            }
        }
        if !doc.saw_scenario {
            return err(src.lines().count().max(1), "missing [scenario] section");
        }
        Ok(doc)
    }

    fn into_scenario(self) -> Result<Scenario, ParseError> {
        reject_duplicate_keys("[scenario]", &self.scenario)?;
        reject_duplicate_keys("[axes]", &self.axes)?;
        reject_duplicate_keys("[executor]", &self.executor)?;
        reject_duplicate_keys("[population]", &self.population)?;
        for table in self.include.iter().chain(&self.exclude) {
            reject_duplicate_keys("filter", table)?;
        }
        let mut name = None;
        let mut description = String::new();
        for (key, value, line) in &self.scenario {
            match key.as_str() {
                "name" => name = Some(expect_string(value, line)?),
                "description" => description = expect_string(value, line)?,
                other => return err(*line, format!("unknown [scenario] key `{other}`")),
            }
        }
        let name = match name {
            Some(n) if !n.is_empty() => n,
            _ => return err(1, "the [scenario] section needs a non-empty `name`"),
        };

        let mut scenario = Scenario::with_defaults(&name);
        scenario.description = description;

        for (key, value, line) in &self.axes {
            match key.as_str() {
                "workloads" => scenario.workloads = parse_workloads(value, line)?,
                "clusters" => scenario.clusters = parse_clusters(value, line)?,
                "architectures" => scenario.architectures = parse_architectures(value, line)?,
                "elements" => {
                    scenario.elements = expect_array(value, line)?
                        .iter()
                        .map(|v| match v {
                            Value::Int(n) if *n > 0 => Ok(*n as usize),
                            _ => err(*line, "`elements` entries must be positive integers"),
                        })
                        .collect::<Result<_, _>>()?;
                    dedup_preserving(&mut scenario.elements);
                }
                "seeds" => {
                    scenario.seeds = expect_array(value, line)?
                        .iter()
                        .map(|v| match v {
                            Value::Int(n) => Ok(*n),
                            _ => err(*line, "`seeds` entries must be integers"),
                        })
                        .collect::<Result<_, _>>()?;
                    dedup_preserving(&mut scenario.seeds);
                }
                "tuning-cluster" | "tuning_cluster" => {
                    let raw = expect_string(value, line)?;
                    scenario.tuning_cluster = Some(canonical_cluster(&raw, line)?);
                }
                other => return err(*line, format!("unknown [axes] key `{other}`")),
            }
        }
        // A population can stand in for the workload axis (a
        // population-only sweep); every other axis always needs a value.
        if (scenario.workloads.is_empty() && !self.saw_population)
            || scenario.clusters.is_empty()
            || scenario.architectures.is_empty()
            || scenario.elements.is_empty()
            || scenario.seeds.is_empty()
        {
            return err(1, "every axis needs at least one value");
        }

        for (key, value, line) in &self.executor {
            match key.as_str() {
                "workers" => match value {
                    Value::Int(n) if *n > 0 => scenario.workers = Some(*n as usize),
                    _ => return err(*line, "`workers` must be a positive integer"),
                },
                other => return err(*line, format!("unknown [executor] key `{other}`")),
            }
        }

        if self.saw_population {
            scenario.population = Some(self.parse_population()?);
        }

        for table in &self.include {
            scenario.include.push(parse_filter(table)?);
        }
        for table in &self.exclude {
            scenario.exclude.push(parse_filter(table)?);
        }
        Ok(scenario)
    }

    fn parse_population(&self) -> Result<PopulationSpec, ParseError> {
        let canon = |k: &str| k.replace('_', "-");
        // `fit-to-paper` chooses the *base* spec every other key then
        // overrides, so honor it first regardless of key order.
        let mut spec = PopulationSpec::default();
        for (key, value, line) in &self.population {
            if canon(key) == "fit-to-paper" {
                match value {
                    Value::Bool(true) => spec = PopulationSpec::fit_to_paper(),
                    Value::Bool(false) => {}
                    _ => return err(*line, "`fit-to-paper` must be a boolean"),
                }
            }
        }
        let positive_u32 = |value: &Value, line: &usize, key: &str| match value {
            Value::Int(n) if *n > 0 && *n <= u64::from(u32::MAX) => Ok(*n as u32),
            _ => err(*line, format!("`{key}` must be a positive integer")),
        };
        let positive_mb = |value: &Value, line: &usize, key: &str| match value {
            Value::Int(n) if *n > 0 && *n <= (u64::MAX >> 20) => Ok(*n << 20),
            _ => err(*line, format!("`{key}` must be a positive integer (MB)")),
        };
        for (key, value, line) in &self.population {
            match canon(key).as_str() {
                "fit-to-paper" => {}
                "family" => {
                    spec.family = expect_string(value, line)?
                        .parse::<TopologyFamily>()
                        .map_err(|e| ParseError {
                            line: *line,
                            message: e,
                        })?
                }
                "size" => spec.size = positive_u32(value, line, "size")?,
                "base-seed" => match value {
                    Value::Int(n) => spec.base_seed = *n,
                    _ => return err(*line, "`base-seed` must be an integer"),
                },
                "ai-fraction" => spec.ai_fraction = expect_f64(value, line)?,
                "kernels-min" => spec.kernels_min = positive_u32(value, line, "kernels-min")?,
                "kernels-max" => spec.kernels_max = positive_u32(value, line, "kernels-max")?,
                "size-distribution" => {
                    spec.size_distribution = expect_string(value, line)?
                        .parse::<SizeDistribution>()
                        .map_err(|e| ParseError {
                            line: *line,
                            message: e,
                        })?
                }
                "size-min-mb" => spec.size_min_bytes = positive_mb(value, line, "size-min-mb")?,
                "size-max-mb" => spec.size_max_bytes = positive_mb(value, line, "size-max-mb")?,
                "zipf-exponent" => spec.zipf_exponent = expect_f64(value, line)?,
                "sparsity-min" => spec.sparsity_min = expect_f64(value, line)?,
                "sparsity-max" => spec.sparsity_max = expect_f64(value, line)?,
                "duration-budget-secs" => {
                    spec.duration_budget_secs = Some(expect_f64(value, line)?)
                }
                other => return err(*line, format!("unknown [population] key `{other}`")),
            }
        }
        if let Err(message) = spec.validate() {
            return err(
                self.population_line,
                format!("invalid [population]: {message}"),
            );
        }
        Ok(spec)
    }
}

fn dedup_preserving<T: PartialEq + Clone>(values: &mut Vec<T>) {
    let mut seen: Vec<T> = Vec::with_capacity(values.len());
    values.retain(|v| {
        if seen.contains(v) {
            false
        } else {
            seen.push(v.clone());
            true
        }
    });
}

fn expect_string(value: &Value, line: &usize) -> Result<String, ParseError> {
    match value {
        Value::Str(s) => Ok(s.clone()),
        other => err(
            *line,
            format!("expected a string, found {}", other.type_name()),
        ),
    }
}

fn expect_f64(value: &Value, line: &usize) -> Result<f64, ParseError> {
    match value {
        Value::Int(n) => Ok(*n as f64),
        Value::Float(f) => Ok(*f),
        other => err(
            *line,
            format!("expected a number, found {}", other.type_name()),
        ),
    }
}

fn expect_array<'v>(value: &'v Value, line: &usize) -> Result<&'v [Value], ParseError> {
    match value {
        Value::Array(items) => Ok(items),
        other => err(
            *line,
            format!("expected an array, found {}", other.type_name()),
        ),
    }
}

fn parse_workloads(value: &Value, line: &usize) -> Result<Vec<WorkloadKind>, ParseError> {
    let mut kinds = Vec::new();
    for item in expect_array(value, line)? {
        let name = expect_string(item, line)?;
        match name.to_ascii_lowercase().as_str() {
            "all" => kinds.extend(WorkloadKind::ALL),
            "paper-five" | "paper_five" => kinds.extend(WorkloadKind::PAPER_FIVE),
            _ => kinds.push(name.parse::<WorkloadKind>().map_err(|e| ParseError {
                line: *line,
                message: e,
            })?),
        }
    }
    dedup_preserving(&mut kinds);
    Ok(kinds)
}

fn canonical_cluster(name: &str, line: &usize) -> Result<String, ParseError> {
    let slug = name.trim().to_ascii_lowercase();
    if ClusterConfig::by_name(&slug).is_none() {
        return err(
            *line,
            format!(
                "unknown cluster `{name}` (expected one of: {})",
                ClusterConfig::NAMES.join(", ")
            ),
        );
    }
    // Store the slug, not the reporting name, so fingerprints don't
    // depend on which spelling the file used.
    Ok(ClusterConfig::NAMES
        .iter()
        .find(|s| {
            **s == slug
                || ClusterConfig::by_name(s).is_some_and(|c| c.name.to_ascii_lowercase() == slug)
        })
        .expect("by_name succeeded, so a slug matches")
        .to_string())
}

fn parse_clusters(value: &Value, line: &usize) -> Result<Vec<String>, ParseError> {
    let mut clusters = expect_array(value, line)?
        .iter()
        .map(|item| canonical_cluster(&expect_string(item, line)?, line))
        .collect::<Result<Vec<_>, _>>()?;
    dedup_preserving(&mut clusters);
    Ok(clusters)
}

fn canonical_architecture(name: &str, line: &usize) -> Result<String, ParseError> {
    let slug = name.trim().to_ascii_lowercase();
    if slug == DEFAULT_ARCHITECTURE {
        return Ok(slug);
    }
    if ArchProfile::by_name(&slug).is_none() {
        return err(
            *line,
            format!(
                "unknown architecture `{name}` (expected \"default\" or one of: {})",
                ArchProfile::NAMES.join(", ")
            ),
        );
    }
    Ok(ArchProfile::NAMES
        .iter()
        .find(|s| {
            **s == slug
                || ArchProfile::by_name(s).is_some_and(|a| a.name.to_ascii_lowercase() == slug)
        })
        .expect("by_name succeeded, so a slug matches")
        .to_string())
}

fn parse_architectures(value: &Value, line: &usize) -> Result<Vec<String>, ParseError> {
    let mut archs = expect_array(value, line)?
        .iter()
        .map(|item| canonical_architecture(&expect_string(item, line)?, line))
        .collect::<Result<Vec<_>, _>>()?;
    dedup_preserving(&mut archs);
    Ok(archs)
}

fn parse_filter(table: &[(String, Value, usize)]) -> Result<CellFilter, ParseError> {
    let mut filter = CellFilter::default();
    for (key, value, line) in table {
        match key.as_str() {
            "workload" => {
                filter.workload = Some(
                    expect_string(value, line)?
                        .parse::<WorkloadKind>()
                        .map_err(|e| ParseError {
                            line: *line,
                            message: e,
                        })?,
                )
            }
            "cluster" => {
                filter.cluster = Some(canonical_cluster(&expect_string(value, line)?, line)?)
            }
            "architecture" => {
                filter.architecture =
                    Some(canonical_architecture(&expect_string(value, line)?, line)?)
            }
            "elements" => match value {
                Value::Int(n) => filter.elements = Some(*n as usize),
                _ => return err(*line, "filter `elements` must be an integer"),
            },
            "seed" => match value {
                Value::Int(n) => filter.seed = Some(*n),
                _ => return err(*line, "filter `seed` must be an integer"),
            },
            other => return err(*line, format!("unknown filter key `{other}`")),
        }
    }
    if filter == CellFilter::default() {
        return err(
            table.first().map(|(_, _, l)| *l).unwrap_or(1),
            "an empty filter matches every cell; name at least one axis",
        );
    }
    Ok(filter)
}

fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_assignment(line: &str, line_no: usize) -> Result<(String, Value), ParseError> {
    let eq = match line.find('=') {
        Some(i) => i,
        None => return err(line_no, format!("expected `key = value`, found `{line}`")),
    };
    let key = line[..eq].trim();
    if key.is_empty()
        || !key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return err(line_no, format!("invalid key `{key}`"));
    }
    let mut cursor = Cursor {
        bytes: line[eq + 1..].trim(),
        pos: 0,
        line: line_no,
    };
    let value = cursor.value()?;
    cursor.skip_ws();
    if !cursor.done() {
        return err(line_no, "trailing content after value");
    }
    Ok((key.to_string(), value))
}

struct Cursor<'a> {
    bytes: &'a str,
    pos: usize,
    line: usize,
}

impl Cursor<'_> {
    fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<char> {
        self.bytes[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('"') => self.string().map(Value::Str),
            Some('[') => self.array(),
            Some('t') | Some('f') => self.boolean(),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => self.number(),
            other => err(self.line, format!("expected a value, found {other:?}")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let c = match self.peek() {
                Some(c) => c,
                None => return err(self.line, "unterminated string"),
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = match self.peek() {
                        Some(e) => e,
                        None => return err(self.line, "unterminated escape"),
                    };
                    self.pos += esc.len_utf8();
                    out.push(match esc {
                        '"' => '"',
                        '\\' => '\\',
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        other => return err(self.line, format!("unsupported escape \\{other}")),
                    });
                }
                c => out.push(c),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // `[`
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                None => return err(self.line, "unterminated array"),
                _ => {}
            }
            let item = self.value()?;
            if let Value::Array(_) = item {
                return err(self.line, "nested arrays are not supported");
            }
            items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(']') => {}
                other => {
                    return err(
                        self.line,
                        format!("expected `,` or `]` in array, found {other:?}"),
                    )
                }
            }
        }
    }

    fn boolean(&mut self) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with("true") {
            self.pos += 4;
            Ok(Value::Bool(true))
        } else if self.bytes[self.pos..].starts_with("false") {
            self.pos += 5;
            Ok(Value::Bool(false))
        } else {
            err(self.line, "expected `true` or `false`")
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some('0'..='9' | 'a'..='f' | 'A'..='F' | 'x' | 'X' | '_' | '.' | '-' | '+')
        ) {
            self.pos += 1;
        }
        // An exponent's `e`/`E` is covered by the hex-digit range above.
        let raw: String = self.bytes[start..self.pos]
            .chars()
            .filter(|c| *c != '_')
            .collect();
        if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            return u64::from_str_radix(hex, 16)
                .map(Value::Int)
                .map_err(|e| ParseError {
                    line: self.line,
                    message: format!("bad hex integer `{raw}`: {e}"),
                });
        }
        if raw.contains(['.', 'e', 'E']) && !raw.contains("0x") {
            if let Ok(f) = raw.parse::<f64>() {
                return Ok(Value::Float(f));
            }
        }
        raw.parse::<u64>().map(Value::Int).map_err(|e| ParseError {
            line: self.line,
            message: format!("bad integer `{raw}`: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        [scenario]
        name = "smoke"
    "#;

    #[test]
    fn minimal_scenario_gets_the_suite_defaults() {
        let s = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(s.name, "smoke");
        assert_eq!(s.workloads, WorkloadKind::ALL.to_vec());
        assert_eq!(s.clusters, vec!["five-node-westmere".to_string()]);
        assert_eq!(s.architectures, vec!["default".to_string()]);
        assert_eq!(s.elements, vec![DEFAULT_ELEMENTS]);
        assert_eq!(s.seeds, vec![dmpb_core::runner::DEFAULT_BASE_SEED]);
        assert_eq!(s.tuning_cluster, None);
        assert_eq!(s.workers, None);
    }

    #[test]
    fn full_scenario_parses_every_section() {
        let src = r#"
            # A cross-architecture sweep.
            [scenario]
            name = "cross-arch"
            description = "Fig. 10 sweep"

            [axes]
            workloads = ["paper-five", "Spark-TeraSort"]
            clusters = ["three-node-westmere-64gb"]
            architectures = ["westmere", "haswell"]
            elements = [1_000, 2000]
            seeds = [0x00D417A40F1F, 42]
            tuning-cluster = "five-node-westmere"

            [executor]
            workers = 4

            [[exclude]]
            workload = "Spark-TeraSort"   # no paper numbers
            architecture = "haswell"

            [[include]]
            cluster = "three-node-westmere-64gb"
        "#;
        let s = Scenario::parse(src).unwrap();
        assert_eq!(s.name, "cross-arch");
        assert_eq!(s.description, "Fig. 10 sweep");
        assert_eq!(s.workloads.len(), 6);
        assert_eq!(s.workloads[5], WorkloadKind::SparkTeraSort);
        assert_eq!(s.architectures, vec!["westmere", "haswell"]);
        assert_eq!(s.elements, vec![1000, 2000]);
        assert_eq!(s.seeds, vec![0x00D4_17A4_0F1F, 42]);
        assert_eq!(s.tuning_cluster.as_deref(), Some("five-node-westmere"));
        assert_eq!(s.workers, Some(4));
        assert_eq!(s.exclude.len(), 1);
        assert_eq!(s.exclude[0].workload, Some(WorkloadKind::SparkTeraSort));
        assert_eq!(s.exclude[0].architecture.as_deref(), Some("haswell"));
        assert_eq!(s.include.len(), 1);
    }

    #[test]
    fn cluster_reporting_names_canonicalise_to_slugs() {
        let src = r#"
            [scenario]
            name = "n"
            [axes]
            clusters = ["5-node Xeon E5645 (32 GB)"]
        "#;
        let s = Scenario::parse(src).unwrap();
        assert_eq!(s.clusters, vec!["five-node-westmere".to_string()]);
    }

    #[test]
    fn duplicate_axis_values_collapse() {
        let src = r#"
            [scenario]
            name = "n"
            [axes]
            workloads = ["TeraSort", "terasort", "Hadoop TeraSort"]
            seeds = [7, 7, 8]
        "#;
        let s = Scenario::parse(src).unwrap();
        assert_eq!(s.workloads, vec![WorkloadKind::TeraSort]);
        assert_eq!(s.seeds, vec![7, 8]);
    }

    #[test]
    fn errors_carry_line_numbers_and_reject_typos() {
        let unknown_key = "[scenario]\nname = \"x\"\n[axes]\nworkload = [\"TeraSort\"]";
        let e = Scenario::parse(unknown_key).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("unknown [axes] key"), "{e}");

        for (src, needle) in [
            ("", "missing [scenario]"),
            ("[scenario]\ndescription = \"no name\"", "non-empty `name`"),
            (
                "[scenario]\nname = \"x\"\n[axes]\nclusters = [\"moon-base\"]",
                "unknown cluster",
            ),
            (
                "[scenario]\nname = \"x\"\n[axes]\narchitectures = [\"riscv\"]",
                "unknown architecture",
            ),
            (
                "[scenario]\nname = \"x\"\n[axes]\nworkloads = []",
                "at least one value",
            ),
            ("[scenario]\nname = \"x\"\n[[include]]", "empty filter"),
            ("[scenario]\nname = 3", "expected a string"),
            ("[weird]\nname = \"x\"", "unknown section"),
            ("name = \"x\"", "outside any section"),
            (
                "[scenario]\nname = \"x\"\n[axes]\nseeds = [1.5]",
                "must be integers",
            ),
            (
                "[scenario]\nname = \"x\"\nname = \"y\"",
                "duplicate [scenario] key `name`",
            ),
            (
                "[scenario]\nname = \"x\"\n[axes]\nseeds = [1]\nseeds = [2]",
                "duplicate [axes] key `seeds`",
            ),
            (
                "[scenario]\nname = \"x\"\n[axes]\ntuning-cluster = \"five-node-westmere\"\ntuning_cluster = \"three-node-haswell\"",
                "duplicate [axes] key",
            ),
            (
                "[scenario]\nname = \"x\"\n[axes]\nseeds = [1]\n[axes]\nelements = [2]",
                "duplicate [axes] section",
            ),
            (
                "[scenario]\nname = \"x\"\n[executor]\nworkers = 2\n[executor]\nworkers = 4",
                "duplicate [executor] section",
            ),
            (
                "[scenario]\nname = \"x\"\n[[exclude]]\nseed = 1\nseed = 2",
                "duplicate filter key `seed`",
            ),
            (
                "[scenario]\nname = \"x\"\n[executor]\nchunk_elements = 4096",
                "unknown [executor] key",
            ),
        ] {
            let e = Scenario::parse(src).unwrap_err();
            assert!(e.message.contains(needle), "`{src}` -> {e}");
        }
    }

    #[test]
    fn population_section_parses_and_validates() {
        let src = r#"
            [scenario]
            name = "pop"
            [axes]
            workloads = []
            [population]
            size = 128
            base_seed = 0xDA7A
            family = "fork-join"
            ai-fraction = 0.5
            kernels-min = 2
            kernels-max = 6
            size-distribution = "zipf"
            size-min-mb = 512
            size-max-mb = 4096
            zipf-exponent = 2
            sparsity-min = 0.1
            sparsity-max = 0.4
            duration-budget-secs = 300.5
        "#;
        let s = Scenario::parse(src).unwrap();
        assert!(s.workloads.is_empty());
        let spec = s.population.unwrap();
        assert_eq!(spec.size, 128);
        assert_eq!(spec.base_seed, 0xDA7A);
        assert_eq!(spec.family, TopologyFamily::ForkJoin);
        assert_eq!(spec.ai_fraction, 0.5);
        assert_eq!(spec.kernels_min, 2);
        assert_eq!(spec.kernels_max, 6);
        assert_eq!(spec.size_distribution, SizeDistribution::Zipf);
        assert_eq!(spec.size_min_bytes, 512 << 20);
        assert_eq!(spec.size_max_bytes, 4096 << 20);
        assert_eq!(spec.zipf_exponent, 2.0);
        assert_eq!(spec.sparsity_min, 0.1);
        assert_eq!(spec.sparsity_max, 0.4);
        assert_eq!(spec.duration_budget_secs, Some(300.5));
    }

    #[test]
    fn fit_to_paper_sets_the_base_spec_regardless_of_key_order() {
        let src = r#"
            [scenario]
            name = "pop"
            [population]
            size = 10
            fit-to-paper = true
        "#;
        let spec = Scenario::parse(src).unwrap().population.unwrap();
        let fitted = PopulationSpec::fit_to_paper();
        assert_eq!(spec.size, 10, "explicit keys override the fitted base");
        assert_eq!(spec.ai_fraction, fitted.ai_fraction);
        assert_eq!(spec.size_min_bytes, fitted.size_min_bytes);
    }

    #[test]
    fn population_errors_reject_bad_specs() {
        for (src, needle) in [
            (
                "[scenario]\nname = \"x\"\n[population]\nfamily = \"torus\"",
                "unknown topology family",
            ),
            (
                "[scenario]\nname = \"x\"\n[population]\nsize = 0",
                "`size` must be a positive integer",
            ),
            (
                "[scenario]\nname = \"x\"\n[population]\nkernels-min = 9\nkernels-max = 2",
                "invalid [population]",
            ),
            (
                "[scenario]\nname = \"x\"\n[population]\nshape = \"ring\"",
                "unknown [population] key",
            ),
            (
                "[scenario]\nname = \"x\"\n[population]\nsize = 4\n[population]\nsize = 8",
                "duplicate [population] section",
            ),
            (
                "[scenario]\nname = \"x\"\n[population]\nsize = 4\nsize = 8",
                "duplicate [population] key `size`",
            ),
            (
                "[scenario]\nname = \"x\"\n[population]\nfit-to-paper = 1",
                "`fit-to-paper` must be a boolean",
            ),
            (
                "[scenario]\nname = \"x\"\n[axes]\nworkloads = []",
                "at least one value",
            ),
        ] {
            let e = Scenario::parse(src).unwrap_err();
            assert!(e.message.contains(needle), "`{src}` -> {e}");
        }
    }

    #[test]
    fn comments_and_hex_literals_parse() {
        let src = "[scenario] # trailing\nname = \"x # not a comment\" # real comment\n[axes]\nseeds = [0xFF] # hex";
        let s = Scenario::parse(src).unwrap();
        assert_eq!(s.name, "x # not a comment");
        assert_eq!(s.seeds, vec![255]);
    }
}
