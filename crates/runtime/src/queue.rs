//! The rank-bucketed track queue (§4.1's priority queue, specialised to
//! static ranks).
//!
//! Ranks are small integers fixed at compile time, and a program uses
//! only a few distinct ones, so the compiler numbers them densely
//! (`Dispatch::slot_ranks` / `rank_slot`) and the queue keeps one FIFO
//! per *bucket* plus one occupancy bit per bucket. Push appends to the
//! bucket's tail; pop takes the head of the lowest occupied bucket (a
//! find-first-set). FIFO order within a bucket is spawn order, so the
//! queue pops exactly what a heap keyed on `(rank, spawn counter)` would.
//!
//! The FIFOs are intrusive: spawn dedup puts a block in the queue at most
//! once, so one link per block threads every bucket through a single
//! array, and the link doubles as the dedup flag. Per-machine state is
//! therefore one `u32` link and one time base per block, plus two ends
//! per bucket. They live in the machine's `u32` and `u64` state blocks
//! (`ceu_codegen::StateLayout`), which it lends to every queue operation:
//! the links at the front of the `u32` block, the ends and the time bases
//! at the offsets the queue was built with. The blocks start zeroed, and
//! a zero link is an idle block, so a new or rebooted machine's queue is
//! empty.
//!
//! Nested reactions (internal emits, §2.2) run on a fresh *level*:
//! [`open_level`](TrackQueue::open_level) parks the current level's
//! occupied bucket ends on a frame stack and starts empty, so the nested
//! drain pops only the tracks it spawns;
//! [`close_level`](TrackQueue::close_level) restores the parked level.
//! Blocks queued in a parked level keep their link, so the nested level
//! cannot re-spawn them (the dedup the paper's rejoin semantics need).
//! The frame stacks keep their capacity: after warm-up, nesting at any
//! depth allocates nothing.

use ceu_codegen::BlockId;

/// A queued block's time base when it was spawned with none.
const NO_BASE: u64 = u64::MAX;

/// Occupancy words: one bit per bucket, and ranks are `u8`s.
const WORDS: usize = 4;

/// A parked level: its occupancy, length, and where its bucket ends
/// start in [`TrackQueue::parked`].
#[derive(Clone, Copy)]
struct Frame {
    mask: [u64; WORDS],
    len: u32,
    parked_at: u32,
}

/// `true` while `block` is queued, at any level (`words` is the
/// machine's `u32` block).
#[inline]
pub(crate) fn is_queued(words: &[u32], block: BlockId) -> bool {
    words[block as usize] != 0
}

/// The queue's control state: the current level's occupancy, the parked
/// levels, and where its arrays sit in the state blocks. Link `b` is word
/// `b` of the `u32` block: 0 when the block is not queued, otherwise 1 +
/// the next block of its bucket's FIFO (the tail links to itself).
/// Buckets are numbered from 0 and there is always at least one (the FIFO
/// ablation puts every block in bucket 0).
pub(crate) struct TrackQueue {
    /// Occupancy of the current level, one bit per bucket.
    mask: [u64; WORDS],
    /// Tracks queued at the current level.
    len: u32,
    /// Where the `(head, tail)` pair of each bucket starts in the `u32`
    /// block; valid while the bucket's occupancy bit is set.
    ends: u32,
    /// Where each queued block's logical time base starts in the `u64`
    /// block.
    base: u32,
    frames: Vec<Frame>,
    /// Bucket ends of every parked level, in bucket order per frame.
    parked: Vec<(u32, u32)>,
}

impl TrackQueue {
    /// A queue whose bucket ends start at word `ends` of the `u32` block
    /// and whose time bases start at word `base` of the `u64` block.
    pub(crate) fn new(ends: u32, base: u32) -> Self {
        TrackQueue { mask: [0; WORDS], len: 0, ends, base, frames: Vec::new(), parked: Vec::new() }
    }

    /// Empties every level, keeping the frame stacks' capacity; the
    /// caller zeroes the links and ends in the state blocks.
    pub(crate) fn reset(&mut self) {
        (self.mask, self.len) = ([0; WORDS], 0);
        self.frames.clear();
        self.parked.clear();
    }

    /// Tracks queued at the current level.
    #[inline]
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// Index of `bucket`'s head in the `u32` block (its tail follows).
    #[inline]
    fn head(&self, bucket: usize) -> usize {
        self.ends as usize + 2 * bucket
    }

    /// Appends `block` to `bucket`'s FIFO. Returns `false` (and changes
    /// nothing) when the block is already queued, at any level.
    #[inline]
    pub(crate) fn push(
        &mut self,
        words: &mut [u32],
        wide: &mut [u64],
        block: BlockId,
        bucket: usize,
        base: Option<u64>,
    ) -> bool {
        let b = block as usize;
        if words[b] != 0 {
            return false;
        }
        words[b] = block + 1;
        wide[self.base as usize + b] = base.unwrap_or(NO_BASE);
        let (w, bit) = (bucket / 64, 1u64 << (bucket % 64));
        let at = self.head(bucket);
        if self.mask[w] & bit != 0 {
            let tail = words[at + 1];
            words[tail as usize] = block + 1;
        } else {
            words[at] = block;
            self.mask[w] |= bit;
        }
        words[at + 1] = block;
        self.len += 1;
        true
    }

    /// Removes the head of the lowest occupied bucket of the current level.
    #[inline]
    pub(crate) fn pop(
        &mut self,
        words: &mut [u32],
        wide: &[u64],
    ) -> Option<(BlockId, Option<u64>)> {
        if self.len == 0 {
            return None;
        }
        let w = self.mask.iter().position(|&m| m != 0)?;
        let bit = self.mask[w].trailing_zeros() as usize;
        let at = self.head(w * 64 + bit);
        let head = words[at];
        let h = head as usize;
        if head == words[at + 1] {
            self.mask[w] &= !(1u64 << bit);
        } else {
            words[at] = words[h] - 1;
        }
        words[h] = 0;
        self.len -= 1;
        let base = wide[self.base as usize + h];
        Some((head, (base != NO_BASE).then_some(base)))
    }

    /// Drops every track of the current level (parked levels are kept).
    pub(crate) fn clear_level(&mut self, words: &mut [u32], wide: &[u64]) {
        while self.pop(words, wide).is_some() {}
    }

    /// Parks the current level and starts an empty one.
    pub(crate) fn open_level(&mut self, words: &[u32]) {
        self.frames.push(Frame {
            mask: self.mask,
            len: self.len,
            parked_at: self.parked.len() as u32,
        });
        for (w, &bits) in self.mask.iter().enumerate() {
            let mut m = bits;
            while m != 0 {
                let at = self.head(w * 64 + m.trailing_zeros() as usize);
                self.parked.push((words[at], words[at + 1]));
                m &= m - 1;
            }
        }
        self.mask = [0; WORDS];
        self.len = 0;
    }

    /// Drops what is left of the current level and restores the level
    /// parked by the matching [`open_level`](Self::open_level).
    pub(crate) fn close_level(&mut self, words: &mut [u32], wide: &[u64]) {
        self.clear_level(words, wide);
        let f = self.frames.pop().expect("close_level without open_level");
        let mut parked = self.parked[f.parked_at as usize..].iter();
        for (w, &bits) in f.mask.iter().enumerate() {
            let mut m = bits;
            while m != 0 {
                let at = self.head(w * 64 + m.trailing_zeros() as usize);
                (words[at], words[at + 1]) = *parked.next().expect("a parked pair per bucket");
                m &= m - 1;
            }
        }
        self.parked.truncate(f.parked_at as usize);
        self.mask = f.mask;
        self.len = f.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queue with blocks of its own, zeroed as a booting machine's
    /// are: links then bucket ends in `words`, time bases in `wide`.
    struct Owned {
        q: TrackQueue,
        words: Vec<u32>,
        wide: Vec<u64>,
    }

    impl Owned {
        fn new(n_blocks: usize, n_buckets: usize) -> Self {
            let q = TrackQueue::new(n_blocks as u32, 0);
            Owned { q, words: vec![0; n_blocks + 2 * n_buckets], wide: vec![0; n_blocks] }
        }

        fn push(&mut self, block: BlockId, bucket: usize, base: Option<u64>) -> bool {
            self.q.push(&mut self.words, &mut self.wide, block, bucket, base)
        }

        fn pop(&mut self) -> Option<(BlockId, Option<u64>)> {
            self.q.pop(&mut self.words, &self.wide)
        }

        fn open_level(&mut self) {
            self.q.open_level(&self.words);
        }

        fn close_level(&mut self) {
            self.q.close_level(&mut self.words, &self.wide);
        }

        fn len(&self) -> u32 {
            self.q.len()
        }
    }

    /// `(rank, seq, block, base)`.
    type Entry = (u8, u64, BlockId, Option<u64>);

    /// The reference: per level, pop the smallest `(rank, seq)`, where
    /// `seq` is a global spawn counter — a priority heap's order.
    struct Model {
        levels: Vec<Vec<Entry>>,
        queued: Vec<bool>,
        seq: u64,
    }

    impl Model {
        fn push(&mut self, block: BlockId, rank: u8, base: Option<u64>) -> bool {
            if std::mem::replace(&mut self.queued[block as usize], true) {
                return false;
            }
            self.seq += 1;
            self.levels.last_mut().unwrap().push((rank, self.seq, block, base));
            true
        }

        fn pop(&mut self) -> Option<(BlockId, Option<u64>)> {
            let level = self.levels.last_mut().unwrap();
            let (i, _) = level.iter().enumerate().min_by_key(|(_, e)| (e.0, e.1))?;
            let (_, _, block, base) = level.remove(i);
            self.queued[block as usize] = false;
            Some((block, base))
        }

        fn close_level(&mut self) {
            for (_, _, block, _) in self.levels.pop().unwrap() {
                self.queued[block as usize] = false;
            }
        }
    }

    /// xorshift64: seeded, dependency-free.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move |n| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % n
        }
    }

    #[test]
    fn pops_in_rank_then_spawn_order_across_nested_levels() {
        // sparse ranks, as the compiler assigns them: 0 for ordinary
        // blocks, `255 - depth` for escapes — mapped densely to buckets
        let ranks = [0u8, 250, 251, 252, 253, 254, 255];
        let n_blocks = 48;
        for seed in 1..=200 {
            let mut r = rng(seed);
            let block_rank: Vec<u8> =
                (0..n_blocks).map(|_| ranks[r(ranks.len() as u64) as usize]).collect();
            let bucket = |b: BlockId| ranks.iter().position(|&x| x == block_rank[b as usize]);
            let mut q = Owned::new(n_blocks, ranks.len());
            let mut m = Model { levels: vec![Vec::new()], queued: vec![false; n_blocks], seq: 0 };
            for step in 0..600 {
                match r(10) {
                    0..=4 => {
                        let b = r(n_blocks as u64) as BlockId;
                        let base = (r(3) == 0).then_some(step);
                        let want = m.push(b, block_rank[b as usize], base);
                        assert_eq!(q.push(b, bucket(b).unwrap(), base), want, "seed {seed}");
                    }
                    5..=7 => assert_eq!(q.pop(), m.pop(), "seed {seed} step {step}"),
                    8 if m.levels.len() < 6 => {
                        q.open_level();
                        m.levels.push(Vec::new());
                    }
                    _ if m.levels.len() > 1 => {
                        q.close_level();
                        m.close_level();
                    }
                    _ => {}
                }
                assert_eq!(q.len() as usize, m.levels.last().unwrap().len(), "seed {seed}");
            }
            while m.levels.len() > 1 {
                q.close_level();
                m.close_level();
            }
            while let Some(e) = m.pop() {
                assert_eq!(q.pop(), Some(e), "seed {seed}: final drain");
            }
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn a_nested_level_runs_lower_ranks_before_the_parked_ones() {
        let mut q = Owned::new(8, 2);
        assert!(q.push(3, 1, None));
        assert!(q.push(4, 1, Some(7)));
        q.open_level();
        assert_eq!(q.len(), 0);
        // a parked block cannot be re-spawned from the nested level
        assert!(!q.push(3, 0, None));
        assert!(q.push(5, 0, None));
        assert!(q.push(6, 1, None));
        assert_eq!(q.pop(), Some((5, None)));
        assert_eq!(q.pop(), Some((6, None)));
        assert_eq!(q.pop(), None);
        q.close_level();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((3, None)));
        assert_eq!(q.pop(), Some((4, Some(7))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn closing_a_level_releases_its_leftovers() {
        let mut q = Owned::new(4, 1);
        q.open_level();
        assert!(q.push(2, 0, None));
        q.close_level();
        // block 2 was dropped with its level, so it can be queued again
        assert!(q.push(2, 0, None));
        assert_eq!(q.pop(), Some((2, None)));
    }

    #[test]
    fn buckets_past_the_first_word_are_found() {
        let mut q = Owned::new(4, 200);
        assert!(q.push(0, 199, None));
        assert!(q.push(1, 70, None));
        assert_eq!(q.pop(), Some((1, None)));
        assert_eq!(q.pop(), Some((0, None)));
    }
}
