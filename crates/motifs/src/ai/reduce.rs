//! Reduction motifs: reduce-sum and reduce-max.

/// Sum of all elements.
pub(crate) fn reduce_sum(input: &[f32]) -> f32 {
    input.iter().sum()
}

/// Maximum element; `None` for an empty slice.
pub(crate) fn reduce_max(input: &[f32]) -> Option<f32> {
    input.iter().cloned().reduce(f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sum_adds_everything() {
        assert_eq!(reduce_sum(&[1.0, 2.0, 3.5]), 6.5);
        assert_eq!(reduce_sum(&[]), 0.0);
    }

    #[test]
    fn reduce_max_finds_the_largest() {
        assert_eq!(reduce_max(&[1.0, 7.0, -3.0]), Some(7.0));
        assert_eq!(reduce_max(&[]), None);
    }
}
