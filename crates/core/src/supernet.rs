//! The supernet: search-space encoding and one-shot evaluation.
//!
//! Section IV-C of the paper represents the relation-aware space as a
//! *bipartite graph* between multiplicative items (the `V = N·M²` decision
//! slots) and operations (`2M + 1` choices), deliberately shallower than
//! the DAG supernets of CNN NAS so that embedding sharing stays unbiased
//! (validated here by the Figure 5 reproduction). A sampled architecture
//! `A` is a token sequence; this module converts sequences to `{f_n}`
//! grids, enforces the exploitative constraint, and evaluates one-shot
//! rewards against the shared embeddings.

use eras_data::{FilterIndex, Triple};
use eras_linalg::pool::ThreadPool;
use eras_linalg::Rng;
use eras_sf::BlockSf;
use eras_train::eval::link_prediction;
use eras_train::{BlockModel, Embeddings, RankingMode};

/// Static shape of the relation-aware search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supernet {
    /// Blocks per embedding `M`.
    pub m: usize,
    /// Relation groups `N`.
    pub n_groups: usize,
}

impl Supernet {
    /// Create a supernet shape. Panics on degenerate sizes.
    pub fn new(m: usize, n_groups: usize) -> Self {
        assert!((2..=8).contains(&m), "M must be in 2..=8");
        assert!((1..=16).contains(&n_groups), "N must be in 1..=16");
        Supernet { m, n_groups }
    }

    /// Number of decision slots `V = N · M²`.
    pub fn num_slots(self) -> usize {
        self.n_groups * self.m * self.m
    }

    /// Controller vocabulary size `2M + 1`.
    pub fn vocab(self) -> usize {
        2 * self.m + 1
    }

    /// Size of the search space `(2M+1)^(N·M²)` as a log10 (the raw count
    /// overflows u128 for the paper's settings).
    pub fn log10_space_size(self) -> f64 {
        self.num_slots() as f64 * (self.vocab() as f64).log10()
    }

    /// Decode a controller token sequence into the `N` group structures.
    /// Panics unless `tokens.len() == num_slots()`.
    pub fn decode(self, tokens: &[usize]) -> Vec<BlockSf> {
        assert_eq!(tokens.len(), self.num_slots(), "token count mismatch");
        let per_group = self.m * self.m;
        tokens
            .chunks(per_group)
            .map(|chunk| BlockSf::from_indices(self.m, chunk))
            .collect()
    }

    /// Encode group structures back into a token sequence.
    pub fn encode(self, sfs: &[BlockSf]) -> Vec<usize> {
        assert_eq!(sfs.len(), self.n_groups);
        sfs.iter()
            .flat_map(|sf| {
                assert_eq!(sf.m(), self.m);
                sf.to_indices()
            })
            .collect()
    }

    /// The exploitative constraint (Section IV-B2): every relation block
    /// `r_1..r_M` must appear in at least one non-zero cell across the
    /// whole set `{f_n}`.
    pub fn satisfies_exploitative_constraint(self, sfs: &[BlockSf]) -> bool {
        let mut mask = 0u32;
        for sf in sfs {
            mask |= sf.blocks_used();
        }
        mask == (1u32 << self.m) - 1
    }

    /// One-shot reward `Q(A, B, ω; S_val)` (Eq. 6): filtered MRR of the
    /// sampled architecture on a validation minibatch, scored with the
    /// *shared* embeddings. Returns 0 when the exploitative constraint is
    /// violated.
    pub fn one_shot_reward(
        self,
        sfs: Vec<BlockSf>,
        assignment: &[u8],
        emb: &Embeddings,
        val_batch: &[Triple],
        filter: &FilterIndex,
    ) -> f64 {
        if !self.satisfies_exploitative_constraint(&sfs) {
            return 0.0;
        }
        if val_batch.is_empty() {
            return 0.0;
        }
        let model = BlockModel::relation_aware(sfs, assignment.to_vec());
        link_prediction(
            &model,
            emb,
            val_batch,
            filter,
            RankingMode::Full,
            ThreadPool::global(),
        )
        .mrr
    }

    /// Sample a uniformly random architecture that satisfies the
    /// exploitative constraint (used for warmup and the correlation
    /// study).
    pub fn random_architecture(self, budget_per_group: usize, rng: &mut Rng) -> Vec<BlockSf> {
        loop {
            let sfs: Vec<BlockSf> = (0..self.n_groups)
                .map(|_| loop {
                    let sf = BlockSf::random(self.m, budget_per_group, rng);
                    if !sf.is_degenerate() {
                        break sf;
                    }
                })
                .collect();
            if self.satisfies_exploitative_constraint(&sfs) {
                return sfs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_data::Preset;
    use eras_sf::zoo;

    #[test]
    fn slot_count_and_vocab() {
        let s = Supernet::new(4, 3);
        assert_eq!(s.num_slots(), 48);
        assert_eq!(s.vocab(), 9);
        // Space size sanity: (2M+1)^(NM²) = 9^48 → log10 ≈ 45.8.
        assert!((s.log10_space_size() - 48.0 * 9f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn relation_aware_space_is_larger_than_task_aware() {
        // The paper's key size comparison: ERAS space O((2M+1)^{NM²}) vs
        // AutoSF's O((2M+1)^{M²}).
        let eras = Supernet::new(4, 3).log10_space_size();
        let autosf = Supernet::new(4, 1).log10_space_size();
        assert!(eras > 2.9 * autosf);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = Supernet::new(4, 2);
        let sfs = vec![zoo::complex(), zoo::simple()];
        let tokens = s.encode(&sfs);
        assert_eq!(tokens.len(), 32);
        assert_eq!(s.decode(&tokens), sfs);
    }

    #[test]
    fn exploitative_constraint() {
        let s = Supernet::new(4, 2);
        // DistMult alone uses all 4 blocks.
        assert!(s.satisfies_exploitative_constraint(&[zoo::distmult(4), BlockSf::zeros(4)]));
        // Two empty groups use none.
        assert!(!s.satisfies_exploitative_constraint(&[BlockSf::zeros(4), BlockSf::zeros(4)]));
        // Coverage may be split across groups.
        let mut a = BlockSf::zeros(4);
        a.set(0, 0, eras_sf::Op::pos(0));
        a.set(1, 1, eras_sf::Op::pos(1));
        let mut b = BlockSf::zeros(4);
        b.set(2, 2, eras_sf::Op::pos(2));
        b.set(3, 3, eras_sf::Op::pos(3));
        assert!(s.satisfies_exploitative_constraint(&[a.clone(), b]));
        assert!(!s.satisfies_exploitative_constraint(&[a.clone(), a]));
    }

    #[test]
    fn constraint_violation_zeroes_reward() {
        let dataset = Preset::Tiny.build(9);
        let filter = FilterIndex::build(&dataset);
        let mut rng = Rng::seed_from_u64(0);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            16,
            &mut rng,
        );
        let s = Supernet::new(4, 1);
        let mut partial = BlockSf::zeros(4);
        partial.set(0, 0, eras_sf::Op::pos(0)); // uses only r1 → violation
        let reward = s.one_shot_reward(
            vec![partial],
            &vec![0; dataset.num_relations()],
            &emb,
            &dataset.valid,
            &filter,
        );
        assert_eq!(reward, 0.0);
        // A constraint-satisfying architecture gets a real (positive) MRR.
        let reward_ok = s.one_shot_reward(
            vec![zoo::complex()],
            &vec![0; dataset.num_relations()],
            &emb,
            &dataset.valid,
            &filter,
        );
        assert!(reward_ok > 0.0);
    }

    #[test]
    fn random_architecture_honours_constraint() {
        let mut rng = Rng::seed_from_u64(1);
        let s = Supernet::new(4, 2);
        for _ in 0..20 {
            let sfs = s.random_architecture(5, &mut rng);
            assert_eq!(sfs.len(), 2);
            assert!(s.satisfies_exploitative_constraint(&sfs));
            assert!(sfs.iter().all(|sf| !sf.is_degenerate()));
        }
    }

    #[test]
    fn empty_val_batch_reward_is_zero() {
        let dataset = Preset::Tiny.build(9);
        let filter = FilterIndex::build(&dataset);
        let mut rng = Rng::seed_from_u64(0);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            16,
            &mut rng,
        );
        let s = Supernet::new(4, 1);
        let reward = s.one_shot_reward(
            vec![zoo::distmult(4)],
            &vec![0; dataset.num_relations()],
            &emb,
            &[],
            &filter,
        );
        assert_eq!(reward, 0.0);
    }
}
