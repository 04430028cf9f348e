//! A small CART-style decision-tree classifier.
//!
//! The paper's auto-tuning tool "builds a decision tree to determine which
//! parameter to tune if one metric has a large deviation".  This module
//! provides that machine-learning model: a classification tree trained on
//! the impact-analysis samples (feature vector = the metric changes a
//! parameter adjustment causes, label = that parameter adjustment) and
//! queried at tuning time with the change the proxy *needs*.

/// One training sample: a feature vector and a class label.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sample {
    /// Feature values.
    pub features: Vec<f64>,
    /// Class label.
    pub label: usize,
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DecisionTree {
    /// Leaf predicting a single label.
    Leaf {
        /// Predicted label.
        label: usize,
    },
    /// Internal node splitting on `feature < threshold`.
    Node {
        /// Feature index the node tests.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Subtree for `feature < threshold`.
        left: Box<DecisionTree>,
        /// Subtree for `feature >= threshold`.
        right: Box<DecisionTree>,
    },
}

fn gini(labels: &[usize], num_classes: usize) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let mut counts = vec![0usize; num_classes];
    for &l in labels {
        counts[l] += 1;
    }
    let n = labels.len() as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
}

fn majority(labels: &[usize], num_classes: usize) -> usize {
    let mut counts = vec![0usize; num_classes];
    for &l in labels {
        counts[l] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

impl DecisionTree {
    /// Trains a tree on `samples` with at most `max_depth` levels.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or the feature vectors have different
    /// lengths.
    pub(crate) fn train(samples: &[Sample], max_depth: usize) -> Self {
        assert!(!samples.is_empty(), "training set must not be empty");
        let dims = samples[0].features.len();
        assert!(
            samples.iter().all(|s| s.features.len() == dims),
            "all samples must have the same feature dimensionality"
        );
        let num_classes = samples.iter().map(|s| s.label).max().unwrap_or(0) + 1;
        Self::build(samples, max_depth, num_classes)
    }

    fn build(samples: &[Sample], depth: usize, num_classes: usize) -> Self {
        let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();
        let impurity = gini(&labels, num_classes);
        if depth == 0 || impurity == 0.0 || samples.len() < 2 {
            return DecisionTree::Leaf {
                label: majority(&labels, num_classes),
            };
        }

        let dims = samples[0].features.len();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted impurity)
        for feature in 0..dims {
            let mut values: Vec<f64> = samples.iter().map(|s| s.features[feature]).collect();
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            values.dedup();
            for pair in values.windows(2) {
                let threshold = (pair[0] + pair[1]) / 2.0;
                let (left, right): (Vec<&Sample>, Vec<&Sample>) = samples
                    .iter()
                    .partition(|s| s.features[feature] < threshold);
                if left.is_empty() || right.is_empty() {
                    continue;
                }
                let left_labels: Vec<usize> = left.iter().map(|s| s.label).collect();
                let right_labels: Vec<usize> = right.iter().map(|s| s.label).collect();
                let weighted = (left.len() as f64 * gini(&left_labels, num_classes)
                    + right.len() as f64 * gini(&right_labels, num_classes))
                    / samples.len() as f64;
                if best.map_or(true, |(_, _, b)| weighted < b) {
                    best = Some((feature, threshold, weighted));
                }
            }
        }

        match best {
            Some((feature, threshold, weighted)) if weighted < impurity - 1e-12 => {
                let (left, right): (Vec<Sample>, Vec<Sample>) = samples
                    .iter()
                    .cloned()
                    .partition(|s| s.features[feature] < threshold);
                DecisionTree::Node {
                    feature,
                    threshold,
                    left: Box::new(Self::build(&left, depth - 1, num_classes)),
                    right: Box::new(Self::build(&right, depth - 1, num_classes)),
                }
            }
            _ => DecisionTree::Leaf {
                label: majority(&labels, num_classes),
            },
        }
    }

    /// Predicts the label of a feature vector.
    pub(crate) fn predict(&self, features: &[f64]) -> usize {
        match self {
            DecisionTree::Leaf { label } => *label,
            DecisionTree::Node {
                feature,
                threshold,
                left,
                right,
            } => {
                if features.get(*feature).copied().unwrap_or(0.0) < *threshold {
                    left.predict(features)
                } else {
                    right.predict(features)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_like_samples() -> Vec<Sample> {
        // Two features; label 1 iff feature 0 > 0.5 (feature 1 is noise).
        vec![
            Sample {
                features: vec![0.1, 0.9],
                label: 0,
            },
            Sample {
                features: vec![0.2, 0.1],
                label: 0,
            },
            Sample {
                features: vec![0.3, 0.7],
                label: 0,
            },
            Sample {
                features: vec![0.7, 0.2],
                label: 1,
            },
            Sample {
                features: vec![0.8, 0.8],
                label: 1,
            },
            Sample {
                features: vec![0.9, 0.4],
                label: 1,
            },
        ]
    }

    #[test]
    fn learns_a_simple_threshold() {
        let tree = DecisionTree::train(&xor_like_samples(), 3);
        assert_eq!(tree.predict(&[0.05, 0.5]), 0);
        assert_eq!(tree.predict(&[0.95, 0.5]), 1);
        assert!(xor_like_samples()
            .iter()
            .all(|s| tree.predict(&s.features) == s.label));
        assert!(matches!(tree, DecisionTree::Node { .. }));
    }

    #[test]
    fn learns_a_two_level_rule() {
        // label = 0 if f0 < 0.5 else (1 if f1 < 0.5 else 2)
        let mut samples = Vec::new();
        for i in 0..10 {
            let a = i as f64 / 10.0;
            for j in 0..10 {
                let b = j as f64 / 10.0;
                let label = if a < 0.5 {
                    0
                } else if b < 0.5 {
                    1
                } else {
                    2
                };
                samples.push(Sample {
                    features: vec![a, b],
                    label,
                });
            }
        }
        let tree = DecisionTree::train(&samples, 4);
        let wrong = samples
            .iter()
            .filter(|s| tree.predict(&s.features) != s.label)
            .count();
        assert!(wrong <= 1, "{wrong} of 100 misclassified");
        assert_eq!(tree.predict(&[0.2, 0.9]), 0);
        assert_eq!(tree.predict(&[0.9, 0.2]), 1);
        assert_eq!(tree.predict(&[0.9, 0.9]), 2);
    }

    #[test]
    fn pure_training_set_yields_a_leaf() {
        let samples = vec![
            Sample {
                features: vec![1.0],
                label: 3,
            },
            Sample {
                features: vec![2.0],
                label: 3,
            },
        ];
        let tree = DecisionTree::train(&samples, 5);
        assert_eq!(tree, DecisionTree::Leaf { label: 3 });
    }

    #[test]
    fn zero_depth_predicts_the_majority() {
        let tree = DecisionTree::train(&xor_like_samples(), 0);
        assert!(matches!(tree, DecisionTree::Leaf { .. }));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_set_is_rejected() {
        let _ = DecisionTree::train(&[], 3);
    }
}
