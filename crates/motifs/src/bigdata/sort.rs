//! Sort motif: quick sort and merge sort (the TeraSort building blocks).
//!
//! Both kernels sort gensort-style 10-byte keys.

/// A gensort sort key.
pub type Key = [u8; 10];

/// In-place quick sort (Hoare partitioning, median-of-three pivot).
pub fn quick_sort(keys: &mut [Key]) {
    if keys.len() <= 1 {
        return;
    }
    if keys.len() <= 24 {
        insertion_sort(keys);
        return;
    }
    let pivot_index = median_of_three(keys);
    keys.swap(pivot_index, keys.len() - 1);
    let pivot = keys[keys.len() - 1];
    let mut store = 0usize;
    for i in 0..keys.len() - 1 {
        if keys[i] <= pivot {
            keys.swap(i, store);
            store += 1;
        }
    }
    keys.swap(store, keys.len() - 1);
    let (left, right) = keys.split_at_mut(store);
    quick_sort(left);
    quick_sort(&mut right[1..]);
}

fn insertion_sort(keys: &mut [Key]) {
    for i in 1..keys.len() {
        let mut j = i;
        while j > 0 && keys[j - 1] > keys[j] {
            keys.swap(j - 1, j);
            j -= 1;
        }
    }
}

fn median_of_three(keys: &[Key]) -> usize {
    let a = 0;
    let b = keys.len() / 2;
    let c = keys.len() - 1;
    let (ka, kb, kc) = (keys[a], keys[b], keys[c]);
    if (ka <= kb && kb <= kc) || (kc <= kb && kb <= ka) {
        b
    } else if (kb <= ka && ka <= kc) || (kc <= ka && ka <= kb) {
        a
    } else {
        c
    }
}

/// Stable bottom-up merge sort returning a new sorted vector.
pub fn merge_sort(keys: &[Key]) -> Vec<Key> {
    let mut current: Vec<Key> = keys.to_vec();
    if current.len() <= 1 {
        return current;
    }
    let mut buffer = vec![[0u8; 10]; current.len()];
    let mut width = 1usize;
    while width < current.len() {
        for start in (0..current.len()).step_by(width * 2) {
            let mid = (start + width).min(current.len());
            let end = (start + width * 2).min(current.len());
            merge_runs(
                &current[start..mid],
                &current[mid..end],
                &mut buffer[start..end],
            );
        }
        std::mem::swap(&mut current, &mut buffer);
        width *= 2;
    }
    current
}

/// Merges two sorted runs into `out`.
///
/// # Panics
///
/// Panics if `out.len() != left.len() + right.len()`.
pub fn merge_runs(left: &[Key], right: &[Key], out: &mut [Key]) {
    assert_eq!(
        out.len(),
        left.len() + right.len(),
        "output buffer size mismatch"
    );
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            out[k] = left[i];
            i += 1;
        } else {
            out[k] = right[j];
            j += 1;
        }
        k += 1;
    }
    out[k..k + left.len() - i].copy_from_slice(&left[i..]);
    k += left.len() - i;
    out[k..k + right.len() - j].copy_from_slice(&right[j..]);
}

/// Returns true if `keys` is sorted ascending.
pub fn is_sorted(keys: &[Key]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::text::TextGenerator;

    fn keys(n: usize, seed: u64) -> Vec<Key> {
        TextGenerator::new(seed).generate(n).keys()
    }

    #[test]
    fn quick_sort_sorts() {
        let mut k = keys(2000, 1);
        quick_sort(&mut k);
        assert!(is_sorted(&k));
    }

    #[test]
    fn quick_sort_matches_std_sort() {
        let mut a = keys(1500, 2);
        let mut b = a.clone();
        quick_sort(&mut a);
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn merge_sort_sorts_and_matches_std() {
        let input = keys(1777, 3);
        let sorted = merge_sort(&input);
        let mut expected = input;
        expected.sort();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn merge_runs_interleaves() {
        let left = [[1u8; 10], [3u8; 10]];
        let right = [[2u8; 10], [4u8; 10]];
        let mut out = [[0u8; 10]; 4];
        merge_runs(&left, &right, &mut out);
        assert_eq!(out, [[1u8; 10], [2u8; 10], [3u8; 10], [4u8; 10]]);
    }

    #[test]
    fn small_and_duplicate_inputs() {
        let mut one = vec![[7u8; 10]];
        quick_sort(&mut one);
        assert_eq!(one, vec![[7u8; 10]]);
        let mut dups = vec![[3u8; 10]; 100];
        quick_sort(&mut dups);
        assert!(is_sorted(&dups));
        assert_eq!(merge_sort(&dups), dups);
    }

    #[test]
    fn already_sorted_input_is_preserved() {
        let mut k = keys(500, 7);
        k.sort_unstable();
        let copy = k.clone();
        quick_sort(&mut k);
        assert_eq!(k, copy);
    }
}
