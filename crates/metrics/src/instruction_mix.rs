//! Instruction-mix breakdown (Fig. 5 of the paper).
//!
//! The mix is expressed as fractions of dynamic instructions that are
//! integer, floating-point, load, store or branch operations.  The five
//! fractions sum to one; [`InstructionMix::normalized`] enforces that.

/// Fractions of the dynamic instruction stream per category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionMix {
    /// Fraction of integer ALU instructions.
    pub integer: f64,
    /// Fraction of floating-point instructions.
    pub floating_point: f64,
    /// Fraction of load instructions.
    pub load: f64,
    /// Fraction of store instructions.
    pub store: f64,
    /// Fraction of branch instructions.
    pub branch: f64,
}

impl InstructionMix {
    /// Builds a mix from raw instruction counts.
    ///
    /// Returns an all-zero mix if every count is zero.
    pub fn from_counts(
        integer: u64,
        floating_point: u64,
        load: u64,
        store: u64,
        branch: u64,
    ) -> Self {
        let total = (integer + floating_point + load + store + branch) as f64;
        if total == 0.0 {
            return Self::zero();
        }
        Self {
            integer: integer as f64 / total,
            floating_point: floating_point as f64 / total,
            load: load as f64 / total,
            store: store as f64 / total,
            branch: branch as f64 / total,
        }
    }

    /// The all-zero mix.
    pub fn zero() -> Self {
        Self {
            integer: 0.0,
            floating_point: 0.0,
            load: 0.0,
            store: 0.0,
            branch: 0.0,
        }
    }

    /// Sum of the five fractions.
    pub fn total(&self) -> f64 {
        self.integer + self.floating_point + self.load + self.store + self.branch
    }

    /// Returns a copy rescaled so the fractions sum to one (no-op for an
    /// all-zero mix).
    pub fn normalized(&self) -> Self {
        let t = self.total();
        if t == 0.0 {
            return *self;
        }
        Self {
            integer: self.integer / t,
            floating_point: self.floating_point / t,
            load: self.load / t,
            store: self.store / t,
            branch: self.branch / t,
        }
    }

    /// Fraction of data-movement instructions (load + store), the quantity
    /// the paper quotes when comparing TeraSort (39 % real vs 37 % proxy).
    pub fn data_movement(&self) -> f64 {
        self.load + self.store
    }

    /// Weighted blend of two mixes: `self * (1 - t) + other * t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside `[0, 1]`.
    pub fn blend(&self, other: &InstructionMix, t: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&t),
            "blend factor must be within [0, 1]"
        );
        Self {
            integer: self.integer * (1.0 - t) + other.integer * t,
            floating_point: self.floating_point * (1.0 - t) + other.floating_point * t,
            load: self.load * (1.0 - t) + other.load * t,
            store: self.store * (1.0 - t) + other.store * t,
            branch: self.branch * (1.0 - t) + other.branch * t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_normalises() {
        let mix = InstructionMix::from_counts(40, 10, 25, 15, 10);
        assert!((mix.total() - 1.0).abs() < 1e-12);
        assert!((mix.integer - 0.4).abs() < 1e-12);
        assert!((mix.data_movement() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_counts_give_zero_mix() {
        let mix = InstructionMix::from_counts(0, 0, 0, 0, 0);
        assert_eq!(mix, InstructionMix::zero());
        assert_eq!(mix.normalized(), mix);
    }

    #[test]
    fn normalized_sums_to_one() {
        let mix = InstructionMix {
            integer: 2.0,
            floating_point: 1.0,
            load: 1.0,
            store: 0.5,
            branch: 0.5,
        };
        assert!((mix.normalized().total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blend_endpoints() {
        let a = InstructionMix::from_counts(10, 0, 0, 0, 0);
        let b = InstructionMix::from_counts(0, 10, 0, 0, 0);
        assert_eq!(a.blend(&b, 0.0), a);
        assert_eq!(a.blend(&b, 1.0), b);
        let mid = a.blend(&b, 0.5);
        assert!((mid.integer - 0.5).abs() < 1e-12);
        assert!((mid.floating_point - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn blend_rejects_out_of_range_factor() {
        let a = InstructionMix::zero();
        let _ = a.blend(&a, 2.0);
    }
}
