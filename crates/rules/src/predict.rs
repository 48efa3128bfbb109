//! Rule-based link prediction with max-confidence aggregation.

use crate::graph::Graph;
use crate::learn::{learn_rules, LearnConfig};
use crate::rule::{Atom, Rule, ScoredRule};
use eras_data::{Dataset, Triple};
use eras_linalg::cmp::nan_last_desc_f64;
use eras_train::eval::ScoreModel;
use eras_train::Embeddings;

/// A trained rule predictor.
///
/// Implements [`ScoreModel`] so the shared filtered-MRR evaluator can
/// score it; the `Embeddings` argument of the trait is ignored (pass
/// [`RuleModel::dummy_embeddings`]).
#[derive(Debug, Clone)]
pub struct RuleModel {
    graph: Graph,
    /// Rules grouped by head relation, best confidence first.
    by_relation: Vec<Vec<ScoredRule>>,
    num_entities: usize,
}

impl RuleModel {
    /// Mine rules from a dataset's training split.
    pub fn learn(dataset: &Dataset, cfg: &LearnConfig) -> RuleModel {
        let graph = Graph::build(&dataset.train, dataset.num_relations());
        let rules = learn_rules(&graph, cfg);
        let mut by_relation: Vec<Vec<ScoredRule>> = vec![Vec::new(); dataset.num_relations()];
        for s in rules {
            by_relation[s.rule.head_rel as usize].push(s);
        }
        for list in &mut by_relation {
            list.sort_by(|a, b| nan_last_desc_f64(a.confidence, b.confidence));
        }
        RuleModel {
            graph,
            by_relation,
            num_entities: dataset.num_entities(),
        }
    }

    /// All learned rules for one relation (best first).
    pub fn rules_for(&self, rel: u32) -> &[ScoredRule] {
        &self.by_relation[rel as usize]
    }

    /// Total number of learned rules.
    pub fn num_rules(&self) -> usize {
        self.by_relation.iter().map(Vec::len).sum()
    }

    /// Placeholder embeddings for the [`ScoreModel`] interface.
    pub fn dummy_embeddings(&self) -> Embeddings {
        let mut rng = eras_linalg::Rng::seed_from_u64(0);
        Embeddings::init(
            self.num_entities,
            self.by_relation.len().max(1),
            1,
            &mut rng,
        )
    }

    /// Fire one rule body from `x`, accumulating `max(confidence)` into
    /// `scores` for every reached entity.
    fn fire(&self, rule: &Rule, confidence: f64, x: u32, reversed: bool, scores: &mut [f32]) {
        let conf = confidence as f32;
        // To answer a head query (?, r, t) we walk the body backwards
        // from t with each atom flipped.
        let body: Vec<Atom> = if reversed {
            rule.body
                .iter()
                .rev()
                .map(|a| Atom {
                    rel: a.rel,
                    reversed: !a.reversed,
                })
                .collect()
        } else {
            rule.body.clone()
        };
        match body.as_slice() {
            [a] => {
                for &y in self.graph.step(x, *a) {
                    let s = &mut scores[y as usize];
                    *s = s.max(conf);
                }
            }
            [a, b] => {
                for &z in self.graph.step(x, *a) {
                    for &y in self.graph.step(z, *b) {
                        let s = &mut scores[y as usize];
                        *s = s.max(conf);
                    }
                }
            }
            _ => {}
        }
    }
}

impl ScoreModel for RuleModel {
    fn score_all_tails(&self, _emb: &Embeddings, h: u32, r: u32, out: &mut [f32]) {
        out.fill(0.0);
        for s in self.rules_for(r) {
            self.fire(&s.rule, s.confidence, h, false, out);
        }
    }

    fn score_all_heads(&self, _emb: &Embeddings, t: u32, r: u32, out: &mut [f32]) {
        out.fill(0.0);
        for s in self.rules_for(r) {
            self.fire(&s.rule, s.confidence, t, true, out);
        }
    }

    fn score_triple(&self, _emb: &Embeddings, triple: Triple) -> f32 {
        let mut best = 0.0f32;
        for s in self.rules_for(triple.rel) {
            let conf = s.confidence as f32;
            if conf <= best {
                break; // sorted descending
            }
            let reached = match s.rule.body.as_slice() {
                [a] => self
                    .graph
                    .step(triple.head, *a)
                    .binary_search(&triple.tail)
                    .is_ok(),
                [a, b] => self
                    .graph
                    .step(triple.head, *a)
                    .iter()
                    .any(|&z| self.graph.step(z, *b).binary_search(&triple.tail).is_ok()),
                _ => false,
            };
            if reached {
                best = conf;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_data::{FilterIndex, Preset};
    use eras_linalg::pool::ThreadPool;
    use eras_train::eval::link_prediction;
    use eras_train::RankingMode;

    #[test]
    fn rule_model_beats_chance_on_leaky_dataset() {
        // The tiny preset has an inverse pair: the reverse of a test
        // triple under the partner relation usually sits in train, which
        // is exactly what an inversion rule exploits (the WN18 story).
        let dataset = Preset::Tiny.build(50);
        let filter = FilterIndex::build(&dataset);
        let model = RuleModel::learn(&dataset, &LearnConfig::default());
        assert!(model.num_rules() > 0, "no rules learned");
        let emb = model.dummy_embeddings();
        let inverse_tests: Vec<Triple> = dataset
            .test_triples_with_pattern(eras_data::RelationPattern::Inverse)
            .into_iter()
            .collect();
        assert!(!inverse_tests.is_empty());
        let m = link_prediction(
            &model,
            &emb,
            &inverse_tests,
            &filter,
            RankingMode::Full,
            ThreadPool::global(),
        );
        // Chance MRR over 150 entities is ≈ 0.03; an inversion rule lifts
        // Hit@1 dramatically on these relations.
        assert!(
            m.mrr > 0.3,
            "rule model should exploit inverse leakage, got MRR {:.3}",
            m.mrr
        );
    }

    #[test]
    fn score_triple_agrees_with_score_all_tails() {
        let dataset = Preset::Tiny.build(51);
        let model = RuleModel::learn(&dataset, &LearnConfig::default());
        let emb = model.dummy_embeddings();
        let mut out = vec![0.0f32; dataset.num_entities()];
        for &t in dataset.test.iter().take(20) {
            model.score_all_tails(&emb, t.head, t.rel, &mut out);
            let direct = model.score_triple(&emb, t);
            assert!(
                (out[t.tail as usize] - direct).abs() < 1e-6,
                "mismatch on {t:?}"
            );
        }
    }

    #[test]
    fn head_queries_reverse_the_body() {
        // r1 is the inverse of r0; a head query (?, r1, t) must find the
        // original r0-head via the reversed body walk.
        let triples: Vec<Triple> = (0..20u32)
            .flat_map(|i| {
                [
                    Triple::new(i, 0, (i + 1) % 20),
                    Triple::new((i + 1) % 20, 1, i),
                ]
            })
            .collect();
        let mut entities = eras_data::vocab::Vocab::new();
        for i in 0..20 {
            entities.intern(&format!("e{i}"));
        }
        let mut relations = eras_data::vocab::Vocab::new();
        relations.intern("r0");
        relations.intern("r1");
        let dataset = Dataset {
            name: "inv".into(),
            entities,
            relations,
            train: triples,
            valid: vec![],
            test: vec![],
            pattern_labels: vec![],
        };
        let model = RuleModel::learn(&dataset, &LearnConfig::default());
        let emb = model.dummy_embeddings();
        let mut out = vec![0.0f32; 20];
        // (?, r1, 3): truth is 4 (since r1(4, 3) holds ⇔ r0(3, 4)).
        model.score_all_heads(&emb, 3, 1, &mut out);
        let best = eras_linalg::vecops::argmax(&out);
        assert_eq!(best, 4, "scores {out:?}");
    }
}
