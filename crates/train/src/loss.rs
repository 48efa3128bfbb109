//! Loss-mode configuration shared by the trainers.

/// How the training objective is materialised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossMode {
    /// Softmax over every entity — the paper's training objective
    /// (Lacroix et al. multiclass log-loss). `O(N_e d)` per example.
    Full,
    /// Softmax over the target plus `negatives` uniform negatives.
    /// `O(k d)` per example; used inside search loops where thousands of
    /// candidate structures must be trained a little rather than one
    /// structure a lot.
    Sampled {
        /// Number of uniform negative candidates.
        negatives: usize,
    },
    /// Gamma-margin logsigmoid loss over a per-triple block of sampled
    /// negatives (the RotatE objective), optionally self-adversarially
    /// weighted. `O(k d)` per example *and* filtered against known-true
    /// triples, so it trains million-entity graphs where even the
    /// sampled softmax's unfiltered negatives are too noisy.
    NegSampling {
        /// Negatives per (triple, side) block.
        negatives: usize,
        /// Margin γ added to every score inside the logsigmoid.
        gamma: f32,
        /// Self-adversarial softmax temperature over negative scores;
        /// `0.0` selects uniform `1/k` weights.
        adversarial_temp: f32,
        /// Which side(s) of each triple get a negative block.
        corruption: Corruption,
    },
}

/// Corruption-side policy for [`LossMode::NegSampling`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Corrupt both sides of every triple: one tail-batch and one
    /// head-batch negative block each (two loss terms per triple).
    Uniform,
    /// Bernoulli side selection (Wang et al.): corrupt exactly one
    /// side per triple, choosing the tail with the relation's fitted
    /// `tph/(tph+hpt)` probability — fewer false negatives on skewed
    /// relations, one loss term per triple.
    Bernoulli,
}

impl LossMode {
    /// A reasonable sampled default used by the search loops.
    pub fn sampled_default() -> Self {
        LossMode::Sampled { negatives: 32 }
    }

    /// The default negative-sampling objective (RotatE-style): 16
    /// filtered negatives per side, γ = 12, self-adversarial α = 1.
    pub fn neg_sampling_default() -> Self {
        LossMode::NegSampling {
            negatives: 16,
            gamma: 12.0,
            adversarial_temp: 1.0,
            corruption: Corruption::Uniform,
        }
    }

    /// Whether this loss trains on the sharded step, which spreads each
    /// minibatch over the pool ([`crate::parallel::train_minibatch_parallel`]:
    /// [`LossMode::Full`] and [`LossMode::NegSampling`]), rather than on
    /// the sequential [`crate::block::train_minibatch`] (the sampled loss).
    pub fn sharded_step(&self) -> bool {
        !matches!(self, LossMode::Sampled { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_default_has_negatives() {
        match LossMode::sampled_default() {
            LossMode::Sampled { negatives } => assert!(negatives > 0),
            other => panic!("default should be sampled, got {other:?}"),
        }
    }

    #[test]
    fn neg_sampling_default_is_self_adversarial() {
        match LossMode::neg_sampling_default() {
            LossMode::NegSampling {
                negatives,
                gamma,
                adversarial_temp,
                corruption,
            } => {
                assert!(negatives > 0);
                assert!(gamma > 0.0);
                assert!(adversarial_temp > 0.0);
                assert_eq!(corruption, Corruption::Uniform);
            }
            other => panic!("expected NegSampling, got {other:?}"),
        }
    }
}
