//! Filtered-ranking index.
//!
//! Link-prediction metrics in the paper (and everywhere in the KGE
//! literature since Bordes et al. 2013) are *filtered*: when ranking the
//! true tail `t` of `(h, r, ?)` against all entities, every other entity
//! `t'` for which `(h, r, t')` is also a true triple — in train, valid or
//! test — is excluded from the candidate set. [`FilterIndex`] answers those
//! membership queries.
//!
//! Layout: one compressed sparse row (CSR) table per direction, keyed by
//! the anchor entity. `start[e]..start[e + 1]` is entity `e`'s run of
//! distinct `(rel, other)` entries, sorted by `(rel, other)` and stored
//! as the run's relation ids followed by its other-side entity ids in
//! one array, so both halves of a short run share a cache line. A probe
//! is one offset read, a partition over the anchor's few relations and
//! one slice: no search over the whole key set, no hash table and no
//! allocation at query time. Each direction holds 8 bytes per distinct
//! triple (a relation id and an entity id) plus a 4-byte offset per
//! entity, so the index costs 16 bytes per triple and 8 per entity.
//! It is built by a counting sort on the anchor entity, then a sort and
//! de-duplication of each (short) run.

use crate::dataset::{Dataset, Triple};

/// One direction of the index: a per-entity CSR multimap from
/// `(entity, rel)` to the sorted other-side entities.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    /// `start[e]..start[e + 1]` indexes entity `e`'s distinct entries;
    /// one longer than the largest indexed entity id (empty when no
    /// triple is indexed).
    start: Vec<u32>,
    /// Entity `e`'s run of `n = start[e + 1] − start[e]` entries is
    /// `runs[2·start[e] .. 2·start[e + 1]]`: `n` relation ids, then the
    /// `n` matching other-side entity ids, both in `(rel, other)` order.
    runs: Vec<u32>,
}

impl Adjacency {
    /// Index `(anchor, rel, other)` entries given as `side(t)` for
    /// every triple `t` of `splits`.
    ///
    /// # Panics
    ///
    /// When `splits` hold more triples than a `u32` offset can address.
    // audit:allow(E701): the triple count is checked to fit the u32
    // offsets first; `start` has one slot per anchor id up to the
    // largest one counted, and every position written is below the
    // running count of that anchor's entries
    fn build(splits: &[&[Triple]], side: impl Fn(Triple) -> (u32, u32, u32)) -> Self {
        let total: usize = splits.iter().map(|s| s.len()).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "FilterIndex offsets are u32: {total} triples do not fit"
        );
        let triples = || splits.iter().flat_map(|s| s.iter().map(|&t| side(t)));
        let Some(max) = triples().map(|(anchor, _, _)| anchor).max() else {
            return Adjacency::default();
        };
        // Counting sort on the anchor: count, prefix-sum, scatter the
        // packed `rel << 32 | other` keys.
        let entities = max as usize + 1;
        let mut start = vec![0u32; entities + 1];
        for (anchor, _, _) in triples() {
            start[anchor as usize + 1] += 1;
        }
        for e in 0..entities {
            start[e + 1] += start[e];
        }
        let mut cursor = start[..entities].to_vec();
        let mut keys = vec![0u64; total];
        for (anchor, rel, other) in triples() {
            let at = &mut cursor[anchor as usize];
            keys[*at as usize] = u64::from(rel) << 32 | u64::from(other);
            *at += 1;
        }
        drop(cursor);
        // Sort and de-duplicate each anchor's run, closing up the gaps
        // that duplicates leave; a run never moves past its old start.
        let mut len = 0;
        for e in 0..entities {
            let run = start[e] as usize..start[e + 1] as usize;
            start[e] = len as u32;
            keys[run.clone()].sort_unstable();
            let mut last = None;
            for i in run {
                if last != Some(keys[i]) {
                    last = Some(keys[i]);
                    keys[len] = keys[i];
                    len += 1;
                }
            }
        }
        start[entities] = len as u32;
        let mut runs = Vec::with_capacity(2 * len);
        for e in 0..entities {
            let run = &keys[start[e] as usize..start[e + 1] as usize];
            runs.extend(run.iter().map(|&k| (k >> 32) as u32));
            runs.extend(run.iter().map(|&k| k as u32));
        }
        Adjacency { start, runs }
    }

    /// The sorted other-side entities of `(ent, rel)`; empty for an
    /// unknown pair or an id past the largest indexed entity.
    fn get(&self, ent: u32, rel: u32) -> &[u32] {
        let e = ent as usize;
        let (Some(&lo), Some(&hi)) = (self.start.get(e), self.start.get(e + 1)) else {
            return &[];
        };
        let Some(run) = self.runs.get(2 * lo as usize..2 * hi as usize) else {
            return &[];
        };
        let (rels, others) = run.split_at(run.len() / 2);
        let from = rels.partition_point(|&r| r < rel);
        let to = rels.partition_point(|&r| r <= rel);
        others.get(from..to).unwrap_or(&[])
    }

    /// Distinct entries indexed.
    fn len(&self) -> usize {
        self.runs.len() / 2
    }
}

/// Immutable index over *all* triples of a dataset answering "is `(h,r,t)`
/// a known true triple" and "which tails/heads are known for this query".
#[derive(Debug, Clone)]
pub struct FilterIndex {
    tails_of: Adjacency,
    heads_of: Adjacency,
}

impl FilterIndex {
    /// Build from every split of `dataset` (the standard filtered setting).
    pub fn build(dataset: &Dataset) -> Self {
        Self::from_splits(&[&dataset.train, &dataset.valid, &dataset.test])
    }

    /// Build from an explicit triple collection.
    pub fn from_triples(triples: impl Iterator<Item = Triple>) -> Self {
        let triples: Vec<Triple> = triples.collect();
        Self::from_splits(&[&triples])
    }

    fn from_splits(splits: &[&[Triple]]) -> Self {
        FilterIndex {
            tails_of: Adjacency::build(splits, |t| (t.head, t.rel, t.tail)),
            heads_of: Adjacency::build(splits, |t| (t.tail, t.rel, t.head)),
        }
    }

    /// All known true tails for `(head, rel, ?)`, sorted.
    #[inline]
    pub fn tails(&self, head: u32, rel: u32) -> &[u32] {
        self.tails_of.get(head, rel)
    }

    /// All known true heads for `(?, rel, tail)`, sorted.
    #[inline]
    pub fn heads(&self, tail: u32, rel: u32) -> &[u32] {
        self.heads_of.get(tail, rel)
    }

    /// Is `(head, rel, tail)` a known true triple (any split)?
    #[inline]
    pub fn contains(&self, t: Triple) -> bool {
        self.tails(t.head, t.rel).binary_search(&t.tail).is_ok()
    }

    /// Number of distinct indexed triples.
    pub fn len(&self) -> usize {
        self.tails_of.len()
    }

    /// True when no triples are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocab;

    fn dataset_with(train: Vec<Triple>, valid: Vec<Triple>, test: Vec<Triple>) -> Dataset {
        let mut entities = Vocab::new();
        let mut relations = Vocab::new();
        let max_e = train
            .iter()
            .chain(&valid)
            .chain(&test)
            .flat_map(|t| [t.head, t.tail])
            .max()
            .unwrap_or(0);
        let max_r = train
            .iter()
            .chain(&valid)
            .chain(&test)
            .map(|t| t.rel)
            .max()
            .unwrap_or(0);
        for e in 0..=max_e {
            entities.intern(&format!("e{e}"));
        }
        for r in 0..=max_r {
            relations.intern(&format!("r{r}"));
        }
        Dataset {
            name: "t".into(),
            entities,
            relations,
            train,
            valid,
            test,
            pattern_labels: vec![],
        }
    }

    #[test]
    fn contains_across_all_splits() {
        let d = dataset_with(
            vec![Triple::new(0, 0, 1)],
            vec![Triple::new(1, 0, 2)],
            vec![Triple::new(2, 0, 3)],
        );
        let idx = FilterIndex::build(&d);
        assert!(idx.contains(Triple::new(0, 0, 1)));
        assert!(idx.contains(Triple::new(1, 0, 2)));
        assert!(idx.contains(Triple::new(2, 0, 3)));
        assert!(!idx.contains(Triple::new(0, 0, 3)));
        assert!(!idx.contains(Triple::new(1, 0, 0)), "direction matters");
    }

    #[test]
    fn tails_and_heads_sorted_and_complete() {
        let d = dataset_with(
            vec![
                Triple::new(0, 0, 5),
                Triple::new(0, 0, 2),
                Triple::new(0, 0, 2), // duplicate collapses
                Triple::new(1, 0, 2),
            ],
            vec![],
            vec![],
        );
        let idx = FilterIndex::build(&d);
        assert_eq!(idx.tails(0, 0), &[2, 5]);
        assert_eq!(idx.heads(2, 0), &[0, 1]);
        assert_eq!(idx.tails(3, 0), &[] as &[u32]);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn relations_are_isolated() {
        let d = dataset_with(
            vec![Triple::new(0, 0, 1), Triple::new(0, 1, 2)],
            vec![],
            vec![],
        );
        let idx = FilterIndex::build(&d);
        assert_eq!(idx.tails(0, 0), &[1]);
        assert_eq!(idx.tails(0, 1), &[2]);
        assert!(!idx.contains(Triple::new(0, 1, 1)));
    }

    #[test]
    fn empty_index() {
        let idx = FilterIndex::from_triples(std::iter::empty());
        assert!(idx.is_empty());
        assert_eq!(idx.tails(0, 0), &[] as &[u32]);
    }
}
