//! Calibration of the filtered ranking protocols against their analytic
//! expectations, through the one evaluator (`link_prediction`) in full
//! and sampled mode.
//!
//! Let `m_q` be the number of unfiltered competitors of query `q`: the
//! candidates (every entity, or the sampled ids) other than the target
//! and the known-true answers. It is computed here from `FilterIndex`
//! and the `CandidateSet` ids alone, independently of the evaluator's
//! own filter cursor.
//!
//! - A constant scorer ties the target with every competitor, so its
//!   average-tie rank is `1 + m_q/2` and the MRR is exactly
//!   `mean_q 1/(1 + m_q/2)`.
//! - A scorer with i.i.d. continuous scores puts the target at a rank
//!   uniform on `1..=m_q+1`, so `E[1/rank] = H(m_q+1)/(m_q+1)` and the
//!   MRR must land within a few standard errors of the mean of those.

use eras_data::{Dataset, FilterIndex, Preset, Triple};
use eras_linalg::pool::ThreadPool;
use eras_linalg::Rng;
use eras_sf::zoo;
use eras_train::eval::link_prediction;
use eras_train::{BlockModel, CandidateSet, Embeddings, RankingMode, ScoreModel};

/// Candidates per sampled evaluation: well below the Tiny preset's 150
/// entities, so the sample really is a subset.
const CANDIDATES: usize = 40;
const SAMPLE_SEEDS: [u64; 3] = [1, 2, 3];

/// Scores every candidate the same; ranks through the trait defaults.
struct Constant;

impl ScoreModel for Constant {
    fn score_all_tails(&self, _emb: &Embeddings, _h: u32, _r: u32, out: &mut [f32]) {
        out.fill(0.5);
    }
    fn score_all_heads(&self, _emb: &Embeddings, _t: u32, _r: u32, out: &mut [f32]) {
        out.fill(0.5);
    }
    fn score_triple(&self, _emb: &Embeddings, _triple: Triple) -> f32 {
        0.5
    }
}

/// Scores candidate `e` of a query with a uniform draw from a seeded
/// hash of (direction, anchor, relation, `e`): i.i.d. across candidates
/// and stable across calls. Ranks through the trait defaults.
struct HashScorer {
    seed: u64,
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl HashScorer {
    /// A 24-bit uniform in [0, 1), exact in `f32`.
    fn score(&self, direction: u64, anchor: u32, rel: u32, cand: u32) -> f32 {
        let h = [direction, anchor.into(), rel.into(), cand.into()]
            .into_iter()
            .fold(splitmix(self.seed), |h, x| splitmix(h ^ x));
        (h >> 40) as f32 / (1u64 << 24) as f32
    }

    fn fill(&self, direction: u64, anchor: u32, rel: u32, out: &mut [f32]) {
        for (e, s) in out.iter_mut().enumerate() {
            *s = self.score(direction, anchor, rel, e as u32);
        }
    }
}

impl ScoreModel for HashScorer {
    fn score_all_tails(&self, _emb: &Embeddings, h: u32, r: u32, out: &mut [f32]) {
        self.fill(0, h, r, out);
    }
    fn score_all_heads(&self, _emb: &Embeddings, t: u32, r: u32, out: &mut [f32]) {
        self.fill(1, t, r, out);
    }
    fn score_triple(&self, _emb: &Embeddings, t: Triple) -> f32 {
        self.score(0, t.head, t.rel, t.tail)
    }
}

fn tiny() -> (Dataset, FilterIndex, Embeddings) {
    let dataset = Preset::Tiny.build(21);
    let filter = FilterIndex::build(&dataset);
    let mut rng = Rng::seed_from_u64(4);
    let emb = Embeddings::init(
        dataset.num_entities(),
        dataset.num_relations(),
        16,
        &mut rng,
    );
    (dataset, filter, emb)
}

/// Full ranking plus sampled ranking under several candidate seeds.
fn modes() -> Vec<RankingMode> {
    let mut modes = vec![RankingMode::Full];
    modes.extend(SAMPLE_SEEDS.map(|seed| RankingMode::Sampled {
        candidates: CANDIDATES,
        seed,
    }));
    modes
}

/// `m_q` for every query of the test split: each triple's tail query,
/// then its head query.
fn competitors(
    dataset: &Dataset,
    filter: &FilterIndex,
    emb: &Embeddings,
    mode: RankingMode,
) -> Vec<usize> {
    let pool: Vec<u32> = match mode {
        RankingMode::Full => (0..dataset.num_entities() as u32).collect(),
        RankingMode::Sampled { candidates, seed } => {
            let ids = CandidateSet::draw(emb, candidates, seed).ids().to_vec();
            assert!(ids.len() < dataset.num_entities(), "a strict subset");
            ids
        }
    };
    let mut m = Vec::with_capacity(2 * dataset.test.len());
    for t in &dataset.test {
        for (target, known) in [
            (t.tail, filter.tails(t.head, t.rel)),
            (t.head, filter.heads(t.tail, t.rel)),
        ] {
            m.push(
                pool.iter()
                    .filter(|&&e| e != target && !known.contains(&e))
                    .count(),
            );
        }
    }
    m
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// Sum of `1/k^power` for `k = 1..=n`.
fn harmonic(n: usize, power: i32) -> f64 {
    (1..=n).map(|k| (k as f64).powi(-power)).sum()
}

fn assert_constant_calibrated<M: ScoreModel + ?Sized>(
    who: &str,
    model: &M,
    dataset: &Dataset,
    filter: &FilterIndex,
    emb: &Embeddings,
) {
    for mode in modes() {
        let m_q = competitors(dataset, filter, emb, mode);
        let expected = mean(m_q.iter().map(|&m| 1.0 / (1.0 + m as f64 / 2.0)));
        let got = link_prediction(
            model,
            emb,
            &dataset.test,
            filter,
            mode,
            ThreadPool::global(),
        );
        assert_eq!(got.count, m_q.len(), "{who} {mode:?}");
        assert!(
            (got.mrr - expected).abs() < 1e-12,
            "{who} {mode:?}: MRR {} vs expected {expected}",
            got.mrr
        );
    }
}

#[test]
fn constant_scorer_lands_exactly_on_the_average_tie_expectation() {
    let (dataset, filter, emb) = tiny();
    assert_constant_calibrated("trait default", &Constant, &dataset, &filter, &emb);
}

/// The fused BlockModel scan must tie-break like the dense default:
/// all-zero embeddings score every candidate 0.
#[test]
fn block_model_on_zero_embeddings_lands_exactly_on_the_expectation() {
    let (dataset, filter, mut emb) = tiny();
    emb.entity.fill(0.0);
    emb.relation.fill(0.0);
    let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
    assert_constant_calibrated("BlockModel", &model, &dataset, &filter, &emb);
}

#[test]
fn random_scorer_lands_within_four_standard_errors_of_chance() {
    let (dataset, filter, emb) = tiny();
    let model = HashScorer { seed: 0xC0FFEE };
    for mode in modes() {
        let m_q = competitors(&dataset, &filter, &emb, mode);
        let n = m_q.len() as f64;
        // Rank uniform on 1..=m+1: E[1/rank] = H(m+1)/(m+1) and
        // E[1/rank²] = H₂(m+1)/(m+1).
        let first = |m: usize| harmonic(m + 1, 1) / (m + 1) as f64;
        let second = |m: usize| harmonic(m + 1, 2) / (m + 1) as f64;
        let expected = mean(m_q.iter().map(|&m| first(m)));
        let variance: f64 = m_q.iter().map(|&m| second(m) - first(m).powi(2)).sum();
        let std_err = variance.sqrt() / n;
        let got = link_prediction(
            &model,
            &emb,
            &dataset.test,
            &filter,
            mode,
            ThreadPool::global(),
        );
        assert_eq!(got.count, m_q.len(), "{mode:?}");
        let z = (got.mrr - expected) / std_err;
        assert!(
            z.abs() < 4.0,
            "{mode:?}: MRR {:.5} vs chance {expected:.5} (z = {z:.2}, se {std_err:.5})",
            got.mrr
        );
    }
}
