//! Bitmaps over dense ids: bit `i % 64` of word `i / 64` stands for id
//! `i`. A [`RankBitmap`] adds a rank directory, so a set id's rank among
//! the set ids, the slot of whatever it names in a dense list, is one
//! popcount away.

/// Sets bit `i` of a bitmap; a bit past its words is ignored.
pub(crate) fn set_bit(words: &mut [u64], i: usize) {
    if let Some(word) = words.get_mut(i / 64) {
        *word |= 1 << (i % 64);
    }
}

/// True when bit `i` of a bitmap is set; a bit past its words is not.
#[inline]
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words
        .get(i / 64)
        .is_some_and(|word| word >> (i % 64) & 1 == 1)
}

/// The ids `0..len` whose bits a bitmap sets and, before each 64-bit word,
/// how many bits the words before it set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RankBitmap {
    /// Bit `id % 64` of `words[id / 64]` is set when `id` is; no bit at or
    /// past `len` is.
    words: Vec<u64>,
    /// `ranks[w]` counts the bits set in `words[..w]`.
    ranks: Vec<u32>,
    /// The id-space size.
    len: u32,
}

impl RankBitmap {
    /// The set of `len` ids whose bits `words` sets, none of them at or
    /// past `len`.
    pub(crate) fn new(len: u32, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), (len as usize).div_ceil(64));
        let mut set = 0u32;
        let ranks = words
            .iter()
            .map(|w| {
                let rank = set;
                set += w.count_ones();
                rank
            })
            .collect();
        Self { words, ranks, len }
    }

    /// The rank of `id` among the set ids, or `None` when its bit is not
    /// set.
    #[inline]
    pub(crate) fn rank(&self, id: usize) -> Option<usize> {
        let (w, bit) = (id / 64, id % 64);
        let word = *self.words.get(w)?;
        if word >> bit & 1 == 0 {
            return None;
        }
        let below = (word & ((1 << bit) - 1)).count_ones();
        Some((self.ranks[w] + below) as usize)
    }

    /// How many ids are set.
    pub(crate) fn count(&self) -> usize {
        match (self.ranks.last(), self.words.last()) {
            (Some(&rank), Some(word)) => (rank + word.count_ones()) as usize,
            _ => 0,
        }
    }

    /// The id-space size.
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// The set ids, ascending: the `i`th has rank `i`.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(w * 64 + bit)
            })
        })
    }

    /// Appends one id, set, past the end of the space.
    pub(crate) fn push(&mut self) {
        let (w, bit) = (self.len as usize / 64, self.len % 64);
        if w == self.words.len() {
            let rank = u32::try_from(self.count()).unwrap_or(u32::MAX);
            self.words.push(0);
            self.ranks.push(rank);
        }
        self.words[w] |= 1 << bit;
        self.len += 1;
    }

    /// Drops the slack a [`RankBitmap::push`] left.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
        self.ranks.shrink_to_fit();
    }

    /// Heap bytes of the bitmap and of the rank directory, 8 and 4 B per
    /// 64 ids.
    pub(crate) fn heap_bytes(&self) -> (usize, usize) {
        (
            self.words.capacity() * size_of::<u64>(),
            self.ranks.capacity() * size_of::<u32>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_count_the_set_ids_below() {
        let mut words = vec![0; 3];
        for id in [0, 5, 63, 64, 130] {
            set_bit(&mut words, id);
        }
        set_bit(&mut words, 500); // past the words: ignored
        let set = RankBitmap::new(140, words.clone());
        let ranks: Vec<Option<usize>> = [0, 1, 5, 63, 64, 65, 130, 139, 500]
            .iter()
            .map(|&id| set.rank(id))
            .collect();
        assert_eq!(
            ranks,
            [
                Some(0),
                None,
                Some(1),
                Some(2),
                Some(3),
                None,
                Some(4),
                None,
                None
            ]
        );
        assert!(bit(&words, 63) && !bit(&words, 62) && !bit(&words, 500));
        assert_eq!(
            (set.count(), set.len(), set.heap_bytes()),
            (5, 140, (24, 12))
        );
        assert!(set.ones().eq([0, 5, 63, 64, 130]));
        let mut grown = set.clone();
        for _ in 0..53 {
            grown.push();
        }
        assert_eq!(
            (grown.count(), grown.len(), grown.rank(192)),
            (58, 193, Some(57))
        );
    }
}
