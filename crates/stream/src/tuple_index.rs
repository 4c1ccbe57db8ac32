//! Exact tuple index: the per-shard dedup set behind [`ShardSet`].
//!
//! Every stored tuple is written once, as a canonical run of `u32`
//! words, into one append-only arena. An open-addressed table of
//! `(full hash, arena offset)` slots sits over it (linear probing,
//! doubling at 3/4 load; a resize re-slots from the stored hashes and
//! never reads the arena). A lookup encodes the probe tuple into a
//! reused scratch buffer, hashes it once and walks the probe chain; a
//! hit counts only when the stored words compare fully equal, so a hash
//! collision can cost a comparison but can never merge two distinct
//! tuples — membership is exactly the paper's `TupleSet` semantics.
//!
//! The hash is the per-process-seeded [`AsnBuildHasher`]: AS_PATH
//! contents are remote-attacker-influenced, so probe chains cannot be
//! lengthened by collision sets computed offline.
//!
//! [`ShardSet`]: crate::shard::ShardSet

use bgp_types::prelude::*;
use std::hash::{BuildHasher, Hasher};

/// Arena offset marking an unused slot.
const VACANT: usize = usize::MAX;

/// Slot count of the first allocation.
const MIN_SLOTS: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    off: usize,
}

const EMPTY_SLOT: Slot = Slot {
    hash: 0,
    off: VACANT,
};

/// Append the canonical word encoding of `t` to `out`: the path length,
/// the hops, the community count, then each community as a variant tag
/// (0 regular, 1 large) followed by its fields. Every count precedes
/// what it counts and the tag fixes each community's width, so the
/// encoding is self-delimiting and injective: two tuples encode equal
/// iff they are equal (both halves are canonical — prepending collapsed,
/// communities sorted and deduplicated), and no encoding is a proper
/// prefix of another.
fn encode(t: &PathCommTuple, out: &mut Vec<u32>) {
    let hops = t.path.asns();
    out.push(hops.len() as u32);
    out.extend(hops.iter().map(|a| a.0));
    out.push(t.comm.len() as u32);
    for c in &t.comm {
        match c {
            AnyCommunity::Regular(r) => out.extend([0, r.0]),
            AnyCommunity::Large(l) => out.extend([1, l.global_admin, l.local1, l.local2]),
        }
    }
}

/// An exact set of tuples stored as arena-encoded words.
#[derive(Debug)]
pub(crate) struct TupleIndex<S = AsnBuildHasher> {
    arena: Vec<u32>,
    slots: Vec<Slot>,
    len: usize,
    hasher: S,
    /// Encoding of the tuple being looked up, reused across calls.
    scratch: Vec<u32>,
}

impl TupleIndex {
    /// An empty index hashed with a per-process-seeded hasher.
    pub(crate) fn new() -> Self {
        Self::with_hasher(AsnBuildHasher::default())
    }
}

impl<S: BuildHasher> TupleIndex<S> {
    fn with_hasher(hasher: S) -> Self {
        TupleIndex {
            arena: Vec::new(),
            slots: Vec::new(),
            len: 0,
            hasher,
            scratch: Vec::new(),
        }
    }

    /// Tuples stored.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Store `t` unless an equal tuple is already stored; `true` when it
    /// was new.
    pub(crate) fn insert(&mut self, t: &PathCommTuple) -> bool {
        self.scratch.clear();
        encode(t, &mut self.scratch);
        let mut h = self.hasher.build_hasher();
        for &w in &self.scratch {
            h.write_u32(w);
        }
        let hash = h.finish();
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let n = self.scratch.len();
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s.off == VACANT {
                break;
            }
            if s.hash == hash && self.arena.get(s.off..s.off + n) == Some(&self.scratch[..]) {
                return false;
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot {
            hash,
            off: self.arena.len(),
        };
        self.arena.extend_from_slice(&self.scratch);
        self.len += 1;
        true
    }

    /// Double the slot table, re-slotting every entry by its stored hash.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; cap]);
        let mask = cap - 1;
        for s in old.into_iter().filter(|s| s.off != VACANT) {
            let mut i = s.hash as usize & mask;
            while self.slots[i].off != VACANT {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::BuildHasherDefault;

    /// Hashes everything to 0, so every tuple shares one probe chain.
    #[derive(Debug, Default)]
    struct ConstHasher;

    impl Hasher for ConstHasher {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, _: &[u8]) {}
    }

    fn colliding() -> TupleIndex<BuildHasherDefault<ConstHasher>> {
        TupleIndex::with_hasher(BuildHasherDefault::default())
    }

    fn enc(t: &PathCommTuple) -> Vec<u32> {
        let mut v = Vec::new();
        encode(t, &mut v);
        v
    }

    fn tup(p: &[u32], comms: &[AnyCommunity]) -> PathCommTuple {
        PathCommTuple::new(path(p), comms.iter().copied().collect())
    }

    /// Tuples that differ only at encoding boundaries, plus enough
    /// filler to force several resizes of a single-chain table.
    fn tricky_corpus() -> Vec<PathCommTuple> {
        let mut v = vec![
            tup(&[1, 2], &[]),
            tup(&[1], &[AnyCommunity::regular(2, 0)]),
            tup(&[1], &[AnyCommunity::Regular(Community(2))]),
            tup(&[1], &[AnyCommunity::large(2, 0, 0)]),
            tup(&[1], &[AnyCommunity::large(0, 2, 0)]),
            tup(&[1], &[]),
            tup(&[1, 2, 0], &[]),
            tup(&[2, 1], &[]),
        ];
        for i in 0..200u32 {
            v.push(tup(&[7, i + 100], &[AnyCommunity::regular(7, i as u16)]));
        }
        v
    }

    #[test]
    fn colliding_chain_keeps_distinct_tuples_apart() {
        let corpus = tricky_corpus();
        let mut index = colliding();
        for t in &corpus {
            assert!(index.insert(t), "distinct tuple merged: {t:?}");
        }
        assert_eq!(index.len(), corpus.len());
        for t in &corpus {
            assert!(!index.insert(t), "re-push stored again: {t:?}");
        }
        assert_eq!(index.len(), corpus.len());
    }

    #[test]
    fn encoding_boundary_cases_differ() {
        // Path [1,2] with no communities vs path [1] with one.
        assert_ne!(
            enc(&tup(&[1, 2], &[])),
            enc(&tup(&[1], &[AnyCommunity::Regular(Community(2))]))
        );
        // Regular(x) vs Large(x, ..).
        assert_ne!(
            enc(&tup(&[1], &[AnyCommunity::Regular(Community(5))])),
            enc(&tup(&[1], &[AnyCommunity::large(5, 0, 0)]))
        );
        assert_ne!(
            enc(&tup(&[1], &[AnyCommunity::regular(5, 0)])),
            enc(&tup(&[1], &[AnyCommunity::large(5 << 16, 0, 0)]))
        );
    }

    /// Small field domains so random pairs are often equal or near-equal.
    fn arb_comm() -> impl Strategy<Value = AnyCommunity> {
        prop_oneof![
            (0u32..4).prop_map(|v| AnyCommunity::Regular(Community(v))),
            (0u32..3, 0u32..2, 0u32..2).prop_map(|(a, b, c)| AnyCommunity::large(a, b, c)),
        ]
    }

    fn arb_tuple() -> impl Strategy<Value = PathCommTuple> {
        (
            prop::collection::vec(0u32..3, 1..9),
            prop::collection::vec(arb_comm(), 0..4),
        )
            .prop_map(|(p, c)| tup(&p, &c))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn encoding_is_injective(a in arb_tuple(), b in arb_tuple()) {
            prop_assert_eq!(enc(&a) == enc(&b), a == b, "{:?} vs {:?}", a, b);
        }
    }
}
