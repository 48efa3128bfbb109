//! Seeded property test of [`FilterIndex`] against a `BTreeMap`
//! reference, over random triple multisets: duplicates within and
//! across splits, sparse relation ids, entities with no triples, probes
//! past the largest indexed entity, and the empty set.

use eras_data::vocab::Vocab;
use eras_data::{Dataset, FilterIndex, Triple};
use eras_linalg::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// `(anchor, rel) → other` sets for both directions, and the distinct
/// triples.
struct Reference {
    tails: BTreeMap<(u32, u32), BTreeSet<u32>>,
    heads: BTreeMap<(u32, u32), BTreeSet<u32>>,
    distinct: BTreeSet<Triple>,
}

impl Reference {
    fn new(splits: &[&[Triple]]) -> Self {
        let mut r = Reference {
            tails: BTreeMap::new(),
            heads: BTreeMap::new(),
            distinct: BTreeSet::new(),
        };
        for &t in splits.iter().flat_map(|s| s.iter()) {
            r.tails.entry((t.head, t.rel)).or_default().insert(t.tail);
            r.heads.entry((t.tail, t.rel)).or_default().insert(t.head);
            r.distinct.insert(t);
        }
        r
    }

    fn tails(&self, head: u32, rel: u32) -> Vec<u32> {
        self.tails
            .get(&(head, rel))
            .map_or_else(Vec::new, |s| s.iter().copied().collect())
    }

    fn heads(&self, tail: u32, rel: u32) -> Vec<u32> {
        self.heads
            .get(&(tail, rel))
            .map_or_else(Vec::new, |s| s.iter().copied().collect())
    }
}

/// Sparse relation ids: gaps, and the extremes of the id range.
const RELATIONS: [u32; 6] = [0, 1, 7, 300, 65_536, u32::MAX];

/// A random multiset split three ways. Entities are every other id of
/// a random-width window, so the low ids and the odd ids stay unused;
/// every split draws from one small pool of triples, so triples repeat
/// within and across splits.
fn random_splits(rng: &mut Rng) -> [Vec<Triple>; 3] {
    let entities = 1 + rng.next_below(60) as u32;
    let offset = rng.next_below(5) as u32;
    let relations = 1 + rng.next_below(RELATIONS.len());
    let entity = |rng: &mut Rng| offset + 2 * rng.next_below(entities as usize) as u32;
    let pool: Vec<Triple> = (0..1 + rng.next_below(80))
        .map(|_| {
            let h = entity(rng);
            let r = RELATIONS[rng.next_below(relations)];
            Triple::new(h, r, entity(rng))
        })
        .collect();
    let mut splits: [Vec<Triple>; 3] = Default::default();
    for split in &mut splits {
        // Some cases leave a split (or every split) empty.
        let n = if rng.bernoulli(0.15) {
            0
        } else {
            rng.next_below(120)
        };
        for _ in 0..n {
            split.push(pool[rng.next_below(pool.len())]);
        }
    }
    splits
}

fn dataset(splits: [Vec<Triple>; 3]) -> Dataset {
    let [train, valid, test] = splits;
    Dataset {
        name: "reference".into(),
        entities: Vocab::new(),
        relations: Vocab::new(),
        train,
        valid,
        test,
        pattern_labels: vec![],
    }
}

/// Every probe of `idx` must agree with `reference`: each `(entity,
/// rel)` pair over every used id, the gaps between them, ids past the
/// largest indexed entity and the top of the id range.
fn check(idx: &FilterIndex, reference: &Reference, case: usize) {
    let largest = reference
        .distinct
        .iter()
        .flat_map(|t| [t.head, t.tail])
        .max()
        .unwrap_or(0);
    let entities = (0..=largest + 3).chain([u32::MAX - 1, u32::MAX]);
    let relations = RELATIONS.iter().copied().chain([2, 65_535]);
    for e in entities {
        for r in relations.clone() {
            assert_eq!(
                idx.tails(e, r),
                reference.tails(e, r),
                "case {case}: tails({e}, {r})"
            );
            assert_eq!(
                idx.heads(e, r),
                reference.heads(e, r),
                "case {case}: heads({e}, {r})"
            );
        }
    }
    for &t in &reference.distinct {
        assert!(idx.contains(t), "case {case}: {t:?} missing");
        for probe in [
            Triple::new(t.head, t.rel, t.tail + 1),
            Triple::new(t.tail, t.rel, t.head),
            Triple::new(t.head, t.rel.wrapping_add(1), t.tail),
            Triple::new(largest + 1, t.rel, t.tail),
        ] {
            assert_eq!(
                idx.contains(probe),
                reference.distinct.contains(&probe),
                "case {case}: contains({probe:?})"
            );
        }
    }
    assert_eq!(idx.len(), reference.distinct.len(), "case {case}: len");
    assert_eq!(idx.is_empty(), reference.distinct.is_empty(), "case {case}");
}

#[test]
fn filter_index_matches_btreemap_reference() {
    let mut rng = Rng::seed_from_u64(0x5eed_f11e);
    for case in 0..300 {
        // Every 50th case is the empty set.
        let splits = if case % 50 == 0 {
            Default::default()
        } else {
            random_splits(&mut rng)
        };
        let d = dataset(splits);
        let reference = Reference::new(&[&d.train, &d.valid, &d.test]);
        check(&FilterIndex::build(&d), &reference, case);
        check(
            &FilterIndex::from_triples(d.all_triples()),
            &reference,
            case,
        );
    }
}
