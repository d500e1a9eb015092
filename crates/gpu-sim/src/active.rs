//! Ascending-order index sets: the cycle loop's worklists and each SM's
//! ready warps.
//!
//! The loop in [`crate::gpu`] keeps one [`ActiveSet`] per component
//! class (SMs and memory slices with a pending wake hint, busy SMs and
//! slices, non-empty links of each link array) so a dense cycle visits
//! only the components that can act. Members are visited in ascending
//! index order — the order of the full scans they replace — because link
//! push order, the TLB trace and the tracer event stream all follow that
//! order. Each [`crate::sm::Sm`] keeps one over its warp slots, so its
//! scheduler visits only `Ready` warps, in slot order.

/// A set of indices in `0..capacity`, stored one bit per index in a
/// vector of 64-bit words (any capacity), iterated in ascending order.
#[derive(Clone, Debug)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// An empty set over `0..capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        Self { words: vec![0; capacity.div_ceil(64)] }
    }

    /// The set of indices in `0..capacity` for which `member` holds.
    pub(crate) fn from_fn(capacity: usize, mut member: impl FnMut(usize) -> bool) -> Self {
        let mut s = Self::new(capacity);
        for i in 0..capacity {
            s.assign(i, member(i));
        }
        s
    }

    /// Add `i`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Add `i` when `on`, remove it otherwise.
    #[inline]
    pub(crate) fn assign(&mut self, i: usize, on: bool) {
        let bit = 1 << (i % 64);
        let w = &mut self.words[i / 64];
        *w = if on { *w | bit } else { *w & !bit };
    }

    /// Whether `i` is a member.
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether the set has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member `>= from`. Stepping with
    /// `next_from(i + 1)` visits members in ascending order and tolerates
    /// removing the current member between steps.
    #[inline]
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }

    /// Members `>= from` in ascending order.
    pub(crate) fn iter_from(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.next_from(from);
        std::iter::from_fn(move || {
            let i = at?;
            at = self.next_from(i + 1);
            Some(i)
        })
    }

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_iterate_in_ascending_order_across_words() {
        let picks = [0usize, 5, 63, 64, 65, 127, 128, 199];
        let s = ActiveSet::from_fn(200, |i| picks.contains(&i));
        assert_eq!(s.iter().collect::<Vec<_>>(), picks);
        let mut stepped = Vec::new();
        let mut at = s.next_from(0);
        while let Some(i) = at {
            stepped.push(i);
            at = s.next_from(i + 1);
        }
        assert_eq!(stepped, picks);
        assert_eq!(s.next_from(66), Some(127));
        assert_eq!(s.next_from(200), None);
        assert_eq!(s.iter_from(64).collect::<Vec<_>>(), [64, 65, 127, 128, 199]);
        assert_eq!(s.iter_from(6).next(), Some(63));
        assert_eq!(s.iter_from(200).next(), None);
    }

    #[test]
    fn assign_insert_and_remove_track_membership() {
        let mut s = ActiveSet::new(130);
        assert!(s.is_empty());
        s.insert(129);
        s.insert(129);
        assert!(s.contains(129) && !s.is_empty());
        s.assign(3, true);
        s.assign(129, false);
        assert_eq!(s.iter().collect::<Vec<_>>(), [3]);
        s.assign(3, false);
        assert!(s.is_empty());
        assert_eq!(s.next_from(0), None);
    }

    #[test]
    fn removing_the_current_member_while_stepping_visits_every_member_once() {
        let mut s = ActiveSet::from_fn(150, |i| i % 7 == 0);
        let mut seen = Vec::new();
        let mut at = s.next_from(0);
        while let Some(i) = at {
            seen.push(i);
            s.assign(i, false);
            at = s.next_from(i + 1);
        }
        assert_eq!(seen, (0..150).filter(|i| i % 7 == 0).collect::<Vec<_>>());
        assert!(s.is_empty());
    }
}
