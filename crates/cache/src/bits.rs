//! Dense bit vectors stored as `u64` words: bit `i` is bit `i % 64` of word
//! `i / 64`.

/// Sets bit `i`.
///
/// # Panics
///
/// Panics if `i` lies beyond the last word.
pub(crate) fn insert(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Returns `true` if bit `i` is set (bits beyond the last word are clear).
pub(crate) fn contains(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// The indices of the set bits, ascending.
pub(crate) fn ones(words: &[u64]) -> Ones<'_> {
    Ones {
        words,
        next: 0,
        word: 0,
    }
}

/// Iterator returned by [`ones`].
pub(crate) struct Ones<'a> {
    words: &'a [u64],
    /// Index of the next word to load; the current one is `next - 1`.
    next: usize,
    /// The current word's bits not yet returned.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.words.get(self.next)?;
            self.next += 1;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some((self.next - 1) * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_ones_agree() {
        let mut words = vec![0u64; 3];
        for i in [0, 5, 63, 64, 130, 191] {
            insert(&mut words, i);
        }
        assert!(contains(&words, 63) && contains(&words, 64));
        assert!(!contains(&words, 1) && !contains(&words, 192) && !contains(&words, 10_000));
        assert_eq!(
            ones(&words).collect::<Vec<_>>(),
            vec![0, 5, 63, 64, 130, 191]
        );
        assert_eq!(ones(&[0, 0]).count(), 0);
        assert_eq!(ones(&[]).count(), 0);
    }
}
