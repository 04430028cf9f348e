//! The output-correctness gate: every pass's campaign digest must match
//! the pinned digest (at the default seed) or the run's first pass (at
//! any other seed).  A pass that fails the gate, or whose campaign
//! reports failed cells, counts every one of its cells as failed.

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub enum PassOutcome {
    /// Every campaign completed; `digest` covers all their cell lines.
    Done { cells: usize, digest: u64 },
    /// A campaign reported failed cells, so the pass has no digest.
    Failed { cells: usize, reason: String },
}

impl PassOutcome {
    /// Cells the pass attempted.
    pub fn cells(&self) -> usize {
        match self {
            PassOutcome::Done { cells, .. } | PassOutcome::Failed { cells, .. } => *cells,
        }
    }
}

/// Accumulates pass outcomes against the expected digest.
#[derive(Debug)]
pub struct Gate {
    expected: Option<u64>,
    /// Cells attempted in the gated passes.
    pub attempted: usize,
    /// Cells of passes that failed.
    pub failed: usize,
    /// One message per failed pass.
    pub errors: Vec<String>,
}

impl Gate {
    /// A gate against a pinned digest, or (with `None`) against the
    /// first pass it sees.
    pub fn new(pinned: Option<u64>) -> Self {
        Self {
            expected: pinned,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Records one pass; returns whether it passed.
    pub fn check(&mut self, label: &str, outcome: &PassOutcome) -> bool {
        let error = match outcome {
            PassOutcome::Failed { reason, .. } => Some(reason.clone()),
            PassOutcome::Done { digest, .. } => match self.expected {
                None => {
                    self.expected = Some(*digest);
                    None
                }
                Some(expected) if expected == *digest => None,
                Some(expected) => Some(format!("digest {digest:016x}, expected {expected:016x}")),
            },
        };
        let cells = outcome.cells();
        self.attempted += cells;
        match error {
            None => true,
            Some(error) => {
                self.failed += cells;
                self.errors.push(format!("{label}: {error}"));
                false
            }
        }
    }

    /// Failed cells over attempted cells.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every pass so far passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINNED: u64 = 0x1da1_690a_015f_d045;

    #[test]
    fn pinned_gate_fires_on_a_tampered_digest() {
        let mut gate = Gate::new(Some(PINNED));
        let good = PassOutcome::Done {
            cells: 16,
            digest: PINNED,
        };
        assert!(gate.check("pass 1", &good));
        let tampered = PassOutcome::Done {
            cells: 16,
            digest: PINNED ^ 1,
        };
        assert!(!gate.check("pass 2", &tampered));
        assert!(!gate.correct());
        assert_eq!((gate.attempted, gate.failed), (32, 16));
        assert!(gate.errors[0].contains("expected 1da1690a015fd045"));
    }

    #[test]
    fn unpinned_gate_checks_run_to_run_equality() {
        let mut gate = Gate::new(None);
        let first = PassOutcome::Done {
            cells: 8,
            digest: 7,
        };
        assert!(gate.check("pass 1", &first));
        assert!(gate.check("pass 2", &first));
        assert!(!gate.check(
            "pass 3",
            &PassOutcome::Done {
                cells: 8,
                digest: 8
            }
        ));
        assert_eq!(gate.failed, 8);
    }

    #[test]
    fn failed_ratio_counts_every_cell_of_a_failed_pass() {
        let mut gate = Gate::new(None);
        assert_eq!(gate.failed_ratio(), 0.0);
        gate.check(
            "pass 1",
            &PassOutcome::Done {
                cells: 24,
                digest: 1,
            },
        );
        gate.check(
            "pass 2",
            &PassOutcome::Failed {
                cells: 24,
                reason: "1 cell(s) failed".to_string(),
            },
        );
        assert_eq!(gate.failed_ratio(), 0.5);
        assert!(!gate.correct());
    }
}
