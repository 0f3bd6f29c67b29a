//! The all-pairs row sweep, replayed reference by reference or one cache
//! unit at a time.
//!
//! Row i of an all-pairs force evaluation reads pos[i], then every other
//! pos[j] in ascending order, then writes acc[i]: N rows of N + 1
//! references. [`eval_stream`] replays them one by one;
//! [`MemoryHierarchy::replay_row_sweep`] reaches the same counters and the
//! same replacement state in O(N) row replays per L1 set. It is exact for
//! three reasons:
//!
//! - **Independent units.** With power-of-two set counts, one line size and
//!   at least as many L2 sets as L1 sets, every L2 set is fed by exactly one
//!   L1 set. The hierarchy is non-inclusive and has no write-back traffic,
//!   so one L1 set plus the L2 sets below it form a *unit* that no other
//!   unit's references touch, and the counters of all units add up.
//! - **Fixed rows.** Within a unit every row is the same line sequence,
//!   except the rows whose pos[i] or acc[i] line lands in that unit: at most
//!   2N over all units. A run of references to one line is one real access
//!   plus hits on the line it just made most recently used, which change no
//!   state.
//! - **Fixed point.** LRU sets are independent recency stacks (Mattson et
//!   al., IBM Syst. J. 9(2), 1970), so a unit that replays the same row from
//!   the same state repeats the same counts and lands in the same state.
//!   Identical rows are replayed until the unit's state stops changing —
//!   found by comparing the state, never assumed — and the counts of the
//!   remaining identical rows are then multiplied.

use crate::addr::ArrayRegion;
use crate::cache::{AccessKind, CacheStats};
use crate::hierarchy::MemoryHierarchy;

/// Replay the row sweep reference by reference — for each row i: read
/// `pos[i]`, read every `pos[j]` with j ≠ i in ascending order, write
/// `acc[i]` — and return the summed cost `access` reports. This is the
/// definition [`MemoryHierarchy::replay_row_sweep`] is tested against, and
/// the replay for front ends whose state is more than independent LRU sets
/// (the prefetcher's stream detector).
pub fn eval_stream(
    n: usize,
    pos: &ArrayRegion,
    acc: &ArrayRegion,
    mut access: impl FnMut(u64, AccessKind) -> u64,
) -> u64 {
    let mut demand = 0u64;
    for i in 0..n {
        demand += access(pos.addr(i), AccessKind::Read);
        for j in (0..n).filter(|&j| j != i) {
            demand += access(pos.addr(j), AccessKind::Read);
        }
        demand += access(acc.addr(i), AccessKind::Write);
    }
    demand
}

impl MemoryHierarchy {
    /// Replay [`eval_stream`] over `n` rows of `pos` and `acc` and return
    /// its cycles. Every counter and the replacement state of every set end
    /// exactly where the straight replay leaves them (see the module docs
    /// for why). A geometry that does not split into independent units
    /// takes the straight replay. Both regions must hold at least `n`
    /// elements.
    pub fn replay_row_sweep(&mut self, n: usize, pos: &ArrayRegion, acc: &ArrayRegion) -> u64 {
        assert!(
            n as u64 <= pos.len().min(acc.len()),
            "a {n}-row sweep overruns its arrays"
        );
        let before = self.stats().total_cycles;
        match self.units() {
            Some(units) if n > 0 => {
                let sweep = Sweep {
                    n,
                    pos,
                    acc,
                    line_shift: self.config().l1.line_bytes.trailing_zeros(),
                    units,
                };
                self.replay_units(&sweep);
            }
            _ => {
                eval_stream(n, pos, acc, |a, k| self.access(a, k));
            }
        }
        self.stats().total_cycles - before
    }

    /// The number of independent units (L1 sets), if the geometry splits.
    fn units(&self) -> Option<usize> {
        let (l1, l2) = (self.config().l1, self.config().l2);
        let (s1, s2) = (l1.num_sets(), l2.num_sets());
        (l1.line_bytes == l2.line_bytes && s1.is_power_of_two() && s2.is_power_of_two() && s2 >= s1)
            .then_some(s1)
    }

    fn replay_units(&mut self, s: &Sweep<'_>) {
        let (start, special) = s.special_rows();
        // Scratch reused by every unit: the unit's pos lines, and its
        // state before and after a row.
        let mut lines = Vec::new();
        let mut entry = Vec::new();
        let mut exit = Vec::new();
        let mut bulk_hits = 0;
        for u in 0..s.units {
            s.unit_lines(u, &mut lines);
            let mut next = 0;
            for &i in &special[start[u]..start[u + 1]] {
                bulk_hits += self.identical_rows(s, u, &lines, i - next, &mut entry, &mut exit);
                bulk_hits += self.special_row(s, u, &lines, i);
                next = i + 1;
            }
            bulk_hits += self.identical_rows(s, u, &lines, s.n - next, &mut entry, &mut exit);
        }
        self.l1.add_stats(CacheStats {
            hits: bulk_hits,
            ..CacheStats::default()
        });
    }

    /// Replay `rows` rows that, within unit `u`, are exactly its pos lines.
    /// Returns the L1 hits owed for the repeated references to each line.
    fn identical_rows(
        &mut self,
        s: &Sweep<'_>,
        u: usize,
        lines: &[(u64, u64)],
        rows: usize,
        entry: &mut Vec<u64>,
        exit: &mut Vec<u64>,
    ) -> u64 {
        if lines.is_empty() || rows == 0 {
            return 0;
        }
        let mut bulk_hits = 0;
        self.unit_state(s, u, entry);
        for left in (0..rows as u64).rev() {
            let (l1, l2) = (self.l1.stats(), self.l2.stats());
            let hits = self.row_lines(s, lines, None);
            bulk_hits += hits;
            self.unit_state(s, u, exit);
            if entry == exit {
                // The row left the unit as it found it: every row left
                // repeats it exactly.
                self.l1.add_stats(self.l1.stats().delta_since(l1, left));
                self.l2.add_stats(self.l2.stats().delta_since(l2, left));
                return bulk_hits + hits * left;
            }
            std::mem::swap(entry, exit);
        }
        bulk_hits
    }

    /// Replay row `i` within unit `u`: its pos[i] read and acc[i] write if
    /// they land in the unit, and its sweep, which skips element i.
    fn special_row(&mut self, s: &Sweep<'_>, u: usize, lines: &[(u64, u64)], i: usize) -> u64 {
        let (own, out) = (s.pos.addr(i), s.acc.addr(i));
        if s.unit_of(own) == u {
            self.access(own, AccessKind::Read);
        }
        let hits = self.row_lines(s, lines, Some(own >> s.line_shift));
        if s.unit_of(out) == u {
            self.access(out, AccessKind::Write);
        }
        hits
    }

    /// Read each of a unit's pos lines as the sweep does: one access for
    /// the line's first element, then hits for the rest. `skip` is the line
    /// of the row's own element, which the sweep leaves out.
    fn row_lines(&mut self, s: &Sweep<'_>, lines: &[(u64, u64)], skip: Option<u64>) -> u64 {
        let mut hits = 0;
        for &(line, elems) in lines {
            let elems = elems - u64::from(skip == Some(line));
            if elems > 0 {
                self.access(line << s.line_shift, AccessKind::Read);
                hits += elems - 1;
            }
        }
        hits
    }

    /// Unit `u`'s replacement state: the valid tags of its L1 set and of
    /// each L2 set below it, each prefixed with its length.
    fn unit_state(&self, s: &Sweep<'_>, u: usize, out: &mut Vec<u64>) {
        out.clear();
        let l2_sets = self.l2.config().num_sets();
        let l1 = std::iter::once(self.l1.set_tags(u));
        let l2 = (u..l2_sets)
            .step_by(s.units)
            .map(|set| self.l2.set_tags(set));
        for tags in l1.chain(l2) {
            out.push(tags.len() as u64);
            out.extend_from_slice(tags);
        }
    }
}

/// One row sweep's layout over the units.
struct Sweep<'a> {
    n: usize,
    pos: &'a ArrayRegion,
    acc: &'a ArrayRegion,
    line_shift: u32,
    /// L1 sets, a power of two: the unit of a line is its L1 set.
    units: usize,
}

impl Sweep<'_> {
    fn unit_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.units - 1)
    }

    /// The rows each unit must replay one by one: those whose pos[i] or
    /// acc[i] lands in it. Unit `u`'s rows, ascending, are
    /// `rows[start[u]..start[u + 1]]`.
    fn special_rows(&self) -> (Vec<usize>, Vec<usize>) {
        let units_of = |i: usize| {
            let (p, a) = (
                self.unit_of(self.pos.addr(i)),
                self.unit_of(self.acc.addr(i)),
            );
            (p, (a != p).then_some(a))
        };
        let mut start = vec![0; self.units + 1];
        for i in 0..self.n {
            let (p, a) = units_of(i);
            for u in std::iter::once(p).chain(a) {
                start[u + 1] += 1;
            }
        }
        for u in 0..self.units {
            start[u + 1] += start[u];
        }
        let mut cursor = start[..self.units].to_vec();
        let mut rows = vec![0; start[self.units]];
        for i in 0..self.n {
            let (p, a) = units_of(i);
            for u in std::iter::once(p).chain(a) {
                rows[cursor[u]] = i;
                cursor[u] += 1;
            }
        }
        (start, rows)
    }

    /// Unit `u`'s pos lines in ascending order, each with the number of
    /// elements on it.
    fn unit_lines(&self, u: usize, out: &mut Vec<(u64, u64)>) {
        out.clear();
        let first = self.pos.addr(0) >> self.line_shift;
        let last = self.pos.addr(self.n - 1) >> self.line_shift;
        let mask = self.units as u64 - 1;
        let mut line = first + ((u as u64).wrapping_sub(first) & mask);
        while line <= last {
            out.push((
                line,
                self.first_elem_from(line + 1) - self.first_elem_from(line),
            ));
            line += self.units as u64;
        }
    }

    /// The first pos element at or after the start of `line`, capped at n.
    fn first_elem_from(&self, line: u64) -> u64 {
        let offset = (line << self.line_shift).saturating_sub(self.pos.base());
        offset.div_ceil(self.pos.elem_bytes()).min(self.n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddressSpace;

    /// pos, vel and acc for `n` atoms, allocated as the Opteron allocates
    /// them (24-byte elements, 64-byte aligned).
    fn arrays(n: usize) -> [ArrayRegion; 3] {
        let mut space = AddressSpace::new();
        [(); 3].map(|()| space.alloc_array(n, 24))
    }

    fn assert_same(fast: &MemoryHierarchy, straight: &MemoryHierarchy, what: &str) {
        let (f, s) = (fast.stats(), straight.stats());
        assert_eq!(f.l1, s.l1, "{what}: L1 counters");
        assert_eq!(f.l2, s.l2, "{what}: L2 counters");
        assert_eq!(f.total_cycles, s.total_cycles, "{what}: cycles");
        assert_eq!(f.accesses, s.accesses, "{what}: accesses");
        assert!(fast.replay_state_eq(straight), "{what}: final state");
    }

    /// One evaluation replayed both ways, then compared.
    fn eval(fast: &mut MemoryHierarchy, straight: &mut MemoryHierarchy, n: usize, what: &str) {
        let [pos, _, acc] = arrays(n);
        let expected = eval_stream(n, &pos, &acc, |a, k| straight.access(a, k));
        assert_eq!(
            fast.replay_row_sweep(n, &pos, &acc),
            expected,
            "{what}: demand"
        );
        assert_same(fast, straight, what);
    }

    /// On the Opteron geometry: a cold evaluation, an integration pass, a
    /// steady-state evaluation, then one at another atom count — fast and
    /// straight replays compared after each evaluation.
    fn check_opteron(n: usize) {
        let mut fast = MemoryHierarchy::opteron();
        let mut straight = MemoryHierarchy::opteron();
        eval(&mut fast, &mut straight, n, &format!("n = {n}, cold"));
        let [pos, vel, acc] = arrays(n);
        for h in [&mut fast, &mut straight] {
            for i in 0..n {
                h.access(acc.addr(i), AccessKind::Read);
                h.access(vel.addr(i), AccessKind::Write);
                h.access(pos.addr(i), AccessKind::Write);
            }
        }
        eval(&mut fast, &mut straight, n, &format!("n = {n}, integrated"));
        let m = n / 2 + 1;
        eval(&mut fast, &mut straight, m, &format!("n = {m} after {n}"));
    }

    #[test]
    fn opteron_sizes_match_the_straight_replay() {
        for n in [1, 2, 3, 100, 257, 300] {
            check_opteron(n);
        }
    }

    #[test]
    #[ignore = "exhaustive; run with `cargo test --release -p mdea-memsim -- --ignored`"]
    fn every_size_to_640_and_past_the_cliff_matches_the_straight_replay() {
        for n in (1..=640).chain([2700, 3000, 4096, 8192]) {
            check_opteron(n);
        }
    }
}
