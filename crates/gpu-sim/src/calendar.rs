//! The cycle loop's due-time calendar: a timing wheel over the members of
//! one component class (SMs, memory slices, or the links of one link
//! array).
//!
//! Each member is filed under the cycle of its next event — an SM's or a
//! slice's wake hint, a link's head-of-queue arrival — so a dense cycle
//! visits exactly the members due at it, in ascending index order, and
//! the loop's fast-forward target is the calendar's first occupied cycle
//! instead of a minimum over members.
//!
//! The wheel has [`SPAN`] slots, one per cycle of `[now, now + SPAN)`,
//! each a bit set over the members (any number of them, a word per 64),
//! plus one occupancy bit per slot. An event at or beyond `now + SPAN`
//! waits in an overflow set and moves into the wheel when
//! [`Calendar::advance`] brings the base within a span of it, after a
//! single step or a jump alike.

use crate::active::ActiveSet;

/// Cycles the wheel covers from its base: one slot (and one occupancy
/// bit) per cycle.
const SPAN: u64 = 64;

/// Members `0..capacity` filed under the cycle of their next event.
///
/// No member is ever due before the base `now`: the loop advances the
/// base only past cycles it has processed, and it files a member no
/// earlier than the next cycle it will process for that member's class.
pub(crate) struct Calendar {
    /// Words per slot: one bit per member.
    words: usize,
    /// `SPAN` slots of `words` words; slot `t % SPAN` holds the members
    /// due at `t`, for `t` in `[now, now + SPAN)`.
    wheel: Vec<u64>,
    /// Bit `k` is set when slot `k` has a member.
    occupied: u64,
    /// Members due at or beyond `now + SPAN`.
    overflow: ActiveSet,
    /// The earliest due cycle in `overflow` (`u64::MAX` when it is empty).
    overflow_first: u64,
    /// Each member's due cycle; `u64::MAX` while it is not filed.
    due: Vec<u64>,
    /// The wheel's base: the next cycle the loop processes.
    now: u64,
}

impl Calendar {
    /// An empty calendar over members `0..capacity`, based at cycle 0.
    pub(crate) fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        Self {
            words,
            wheel: vec![0; words * SPAN as usize],
            occupied: 0,
            overflow: ActiveSet::new(capacity),
            overflow_first: u64::MAX,
            due: vec![u64::MAX; capacity],
            now: 0,
        }
    }

    /// The cycle member `i` is filed under (`u64::MAX`: not filed).
    pub(crate) fn due(&self, i: usize) -> u64 {
        self.due[i]
    }

    /// Whether no member is filed.
    pub(crate) fn is_empty(&self) -> bool {
        self.occupied == 0 && self.overflow_first == u64::MAX
    }

    /// File member `i` under cycle `at`, moving it if it was filed
    /// elsewhere; `u64::MAX` unfiles it. `at` must not lie before the
    /// base: the caller raises a hint of 0 or a stale hint to the next
    /// cycle it will process.
    #[inline]
    pub(crate) fn file(&mut self, i: usize, at: u64) {
        let old = std::mem::replace(&mut self.due[i], at);
        if old != u64::MAX {
            self.unfile(i, old);
        }
        if at != u64::MAX {
            debug_assert!(at >= self.now, "member {i} filed at {at}, before {}", self.now);
            self.place(i, at);
        }
    }

    /// Take member `i` out of the slot of `at` or the overflow set.
    #[inline]
    fn unfile(&mut self, i: usize, at: u64) {
        if at - self.now < SPAN {
            let k = (at % SPAN) as usize;
            let slot = &mut self.wheel[k * self.words..(k + 1) * self.words];
            slot[i / 64] &= !(1 << (i % 64));
            if slot.iter().all(|&w| w == 0) {
                self.occupied &= !(1 << k);
            }
        } else {
            self.unfile_overflow(i, at);
        }
    }

    #[cold]
    fn unfile_overflow(&mut self, i: usize, at: u64) {
        self.overflow.assign(i, false);
        if at == self.overflow_first {
            let rest = self.overflow.iter().map(|j| self.due[j]);
            self.overflow_first = rest.min().unwrap_or(u64::MAX);
        }
    }

    /// Put member `i`, whose `due` entry is already `at`, in the wheel
    /// slot of `at` or in the overflow set.
    #[inline]
    fn place(&mut self, i: usize, at: u64) {
        if at - self.now < SPAN {
            let k = (at % SPAN) as usize;
            self.wheel[k * self.words + i / 64] |= 1 << (i % 64);
            self.occupied |= 1 << k;
        } else {
            self.place_overflow(i, at);
        }
    }

    #[cold]
    fn place_overflow(&mut self, i: usize, at: u64) {
        self.overflow.insert(i);
        self.overflow_first = self.overflow_first.min(at);
    }

    /// The earliest cycle any member is due (`u64::MAX` when none is).
    #[inline]
    pub(crate) fn first(&self) -> u64 {
        if self.occupied == 0 {
            // Every overflow member is due at or beyond `now + SPAN`, so
            // it comes after any member in the wheel.
            return self.overflow_first;
        }
        let rotated = self.occupied.rotate_right((self.now % SPAN) as u32);
        self.now + u64::from(rotated.trailing_zeros())
    }

    /// Unfile every member due at the base cycle and append them to
    /// `into` in ascending order; the caller processes and re-files each.
    #[inline]
    pub(crate) fn take_due(&mut self, into: &mut Vec<usize>) {
        self.drain_due(|i| {
            into.push(i);
            u64::MAX
        });
    }

    /// Visit every member due at the base cycle in ascending order and
    /// re-file it under the cycle `visit` returns (`u64::MAX`: unfiled).
    /// The returned cycle must lie after the base.
    #[inline]
    pub(crate) fn drain_due(&mut self, mut visit: impl FnMut(usize) -> u64) {
        let k = (self.now % SPAN) as usize;
        if self.occupied & (1 << k) == 0 {
            return;
        }
        self.occupied &= !(1 << k);
        for w in 0..self.words {
            // Re-filing lands after the base, never in this slot.
            let mut bits = std::mem::take(&mut self.wheel[k * self.words + w]);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let at = visit(i);
                self.due[i] = at;
                if at != u64::MAX {
                    debug_assert!(at > self.now, "member {i} re-filed at {at}, by {}", self.now);
                    self.place(i, at);
                }
            }
        }
    }

    /// Move the base to cycle `to`, past cycles whose members have all
    /// been processed and re-filed, and move the overflow members that
    /// `to` brings within a span into the wheel.
    #[inline]
    pub(crate) fn advance(&mut self, to: u64) {
        debug_assert!(self.first() >= to, "advanced to {to} past a member due at {}", self.first());
        self.now = to;
        if self.overflow_first < to + SPAN {
            self.refile_overflow();
        }
    }

    fn refile_overflow(&mut self) {
        self.overflow_first = u64::MAX;
        let mut at = self.overflow.next_from(0);
        while let Some(i) = at {
            let t = self.due[i];
            if t - self.now < SPAN {
                self.overflow.assign(i, false);
                self.place(i, t);
            } else {
                self.overflow_first = self.overflow_first.min(t);
            }
            at = self.overflow.next_from(i + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Take the members due at the base, in the order the loop visits them.
    fn take(c: &mut Calendar) -> Vec<usize> {
        let mut due = Vec::new();
        c.take_due(&mut due);
        assert!(due.iter().all(|&i| c.due(i) == u64::MAX), "taken members are unfiled");
        due
    }

    /// Step the base one cycle at a time through `cycles`, re-filing
    /// nothing, and record who falls due at each.
    fn walk(c: &mut Calendar, cycles: std::ops::Range<u64>) -> Vec<(u64, Vec<usize>)> {
        let mut seen = Vec::new();
        for t in cycles {
            c.advance(t);
            let due = take(c);
            if !due.is_empty() {
                seen.push((t, due));
            }
        }
        seen
    }

    #[test]
    fn members_due_in_one_cycle_come_in_ascending_order() {
        let mut c = Calendar::new(10);
        for i in [7, 2, 9, 0, 5] {
            c.file(i, 3);
        }
        c.file(4, 1);
        assert_eq!(c.first(), 1);
        c.advance(1);
        assert_eq!(take(&mut c), [4]);
        c.file(4, 3);
        c.advance(3);
        assert_eq!(take(&mut c), [0, 2, 4, 5, 7, 9]);
        assert!(c.is_empty());
        assert_eq!(take(&mut c), Vec::<usize>::new());
    }

    #[test]
    fn refiling_moves_a_member_and_unfiling_removes_it() {
        let mut c = Calendar::new(4);
        assert!(c.is_empty());
        assert_eq!(c.first(), u64::MAX);
        c.file(1, 5);
        c.file(2, 5);
        c.file(1, 8);
        assert_eq!((c.due(1), c.due(2), c.first()), (8, 5, 5));
        c.file(2, u64::MAX);
        assert_eq!((c.due(2), c.first()), (u64::MAX, 8));
        c.file(2, u64::MAX); // unfiling an unfiled member is a no-op
        c.file(1, 2);
        assert_eq!(c.first(), 2);
        c.file(1, u64::MAX);
        assert!(c.is_empty());
        assert_eq!(c.first(), u64::MAX);
        // Taken members are re-filed one by one, as the loop does.
        for i in 0..4 {
            c.file(i, 0);
        }
        for i in take(&mut c) {
            c.file(i, 4 - i as u64);
        }
        assert_eq!((c.first(), c.due(0), c.due(3)), (1, 4, 1));
        assert_eq!(walk(&mut c, 1..5), [(1, vec![3]), (2, vec![2]), (3, vec![1]), (4, vec![0])]);
    }

    #[test]
    fn the_wheel_wraps_across_its_span() {
        let mut c = Calendar::new(3);
        c.advance(60);
        c.file(0, 63); // slot 63
        c.file(1, 64); // slot 0, after 63 in time
        c.file(2, 123); // the last cycle inside the span: slot 59
        assert_eq!(c.first(), 63);
        assert_eq!(walk(&mut c, 60..130), [(63, vec![0]), (64, vec![1]), (123, vec![2])]);
        assert!(c.is_empty());
        // Far past the first lap, one slot still means one cycle.
        c.advance(1000);
        c.file(0, 1000 + SPAN - 1);
        c.file(1, 1001);
        assert_eq!(c.first(), 1001);
        assert_eq!(walk(&mut c, 1000..1000 + SPAN), [(1001, vec![1]), (1063, vec![0])]);
    }

    #[test]
    fn overflow_members_are_refiled_after_single_steps() {
        let mut c = Calendar::new(4);
        c.file(0, SPAN); // the first cycle outside the span
        c.file(1, 200);
        c.file(2, 10);
        assert_eq!(c.first(), 10);
        assert_eq!(
            walk(&mut c, 0..300),
            [(10, vec![2]), (SPAN, vec![0]), (200, vec![1])],
            "every member falls due at its own cycle"
        );
        // Only overflow members: the first one is read off the overflow.
        c.file(3, 900);
        c.file(2, 500);
        assert_eq!(c.first(), 500);
        c.file(2, u64::MAX);
        assert_eq!(c.first(), 900, "unfiling the earliest overflow member");
        c.file(3, u64::MAX);
        assert!(c.is_empty());
    }

    #[test]
    fn overflow_members_are_refiled_after_a_jump() {
        let mut c = Calendar::new(3);
        c.file(0, 1000);
        c.file(1, 1050);
        c.file(2, 5000);
        // Jump the way the loop does: to one cycle before the first event.
        let target = c.first();
        assert_eq!(target, 1000);
        c.advance(target - 1);
        assert_eq!(c.first(), 1000);
        assert_eq!(take(&mut c), Vec::<usize>::new());
        c.advance(target);
        assert_eq!(take(&mut c), [0]);
        assert_eq!(c.first(), 1050);
        c.advance(1049);
        c.advance(1050);
        assert_eq!(take(&mut c), [1]);
        // Member 2 is still in the overflow; a jump straight to it lands.
        c.advance(c.first());
        assert_eq!((c.first(), take(&mut c)), (5000, vec![2]));
        // Filing from a far base into the overflow and back.
        c.file(2, 5000 + 3 * SPAN);
        c.file(0, 5001);
        c.advance(5001);
        assert_eq!(take(&mut c), [0]);
        c.advance(5000 + 3 * SPAN);
        assert_eq!(take(&mut c), [2]);
        assert!(c.is_empty());
    }

    #[test]
    fn slots_hold_more_than_one_word_of_members() {
        let n = 200;
        let at = |i: usize| (i % 3) as u64 + if i.is_multiple_of(5) { 2 * SPAN } else { 0 };
        let mut c = Calendar::new(n);
        for i in 0..n {
            c.file(i, at(i));
        }
        let seen = walk(&mut c, 0..3 * SPAN);
        let expect: Vec<(u64, Vec<usize>)> = [0, 1, 2, 2 * SPAN, 2 * SPAN + 1, 2 * SPAN + 2]
            .into_iter()
            .map(|t| (t, (0..n).filter(|&i| at(i) == t).collect()))
            .collect();
        assert_eq!(seen, expect);
        assert!(c.is_empty());
        // Unfiling one member of a multi-word slot keeps the slot occupied
        // until its last member leaves.
        c.file(3, 3 * SPAN + 1);
        c.file(130, 3 * SPAN + 1);
        c.file(3, u64::MAX);
        assert_eq!(c.first(), 3 * SPAN + 1);
        c.file(130, u64::MAX);
        assert!(c.is_empty());
    }
}
