//! Training checkpoints: periodic snapshots of the *complete* training
//! state, written atomically, from which a crashed run resumes
//! **bit-identically** — the resumed run produces exactly the
//! embeddings, metrics and early-stopping decisions the uninterrupted
//! run would have.
//!
//! "Complete state" is the whole closure of
//! [`crate::trainer::TrainRun`]'s epoch loop: the RNG state,
//! the cumulative shuffle order (the trainer re-shuffles the *previous*
//! epoch's order, so the permutation is history-dependent and must be
//! saved, not recomputed), both embedding tables, both Adagrad
//! accumulators with their decayed learning rates, the best validation
//! metrics, the patience counter, and the last epoch's mean loss.
//!
//! A checkpoint that does not match the run's configuration fingerprint
//! is rejected; a torn or corrupt checkpoint loads as a clean
//! [`IoError::Format`] and is treated by the trainer as "no checkpoint"
//! — restarting from scratch is still bit-identical to the
//! uninterrupted run, just slower.
//!
//! Format: magic `b"ERCK"`, version 1, little-endian throughout, saved
//! via the same atomic temp-file/fsync/rename path as model snapshots
//! (and therefore subject to the same fault-injection sites).

use crate::embeddings::Embeddings;
use crate::eval::LinkPredictionMetrics;
use crate::io::{self, IoError};
use crate::trainer::TrainConfig;
use eras_data::Triple;
use std::path::Path;

const MAGIC: &[u8; 4] = b"ERCK";
const VERSION: u32 = 1;

/// Everything the epoch loop needs to continue as if never interrupted.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Fingerprint of the configuration + dataset shape that produced
    /// this checkpoint; resume refuses a mismatch.
    pub fingerprint: u64,
    /// Epochs fully completed (the resumed loop starts at `epoch + 1`).
    pub epoch: usize,
    /// Xoshiro state after `epoch` epochs of shuffling and sampling.
    pub rng_state: [u64; 4],
    /// The training order as last shuffled (history-dependent).
    pub order: Vec<Triple>,
    /// Embedding tables after `epoch` epochs.
    pub embeddings: Embeddings,
    /// Adagrad squared-gradient accumulator for the entity table.
    pub ent_accum: Vec<f32>,
    /// Adagrad squared-gradient accumulator for the relation table.
    pub rel_accum: Vec<f32>,
    /// Entity-table learning rate after decay.
    pub lr_entity: f32,
    /// Relation-table learning rate after decay.
    pub lr_relation: f32,
    /// Best validation metrics observed so far.
    pub best_valid: LinkPredictionMetrics,
    /// Consecutive validations without improvement.
    pub strikes: usize,
    /// Mean training loss of the last completed epoch.
    pub final_loss: f32,
}

/// Fingerprint of a training configuration plus the dataset shape it
/// runs on. Two runs with equal fingerprints walk identical epoch
/// sequences, so a checkpoint from one can seed the other.
pub fn config_fingerprint(
    cfg: &TrainConfig,
    num_entities: usize,
    num_relations: usize,
    num_train: usize,
) -> u64 {
    let mut h = Fnv::new();
    h.usize(cfg.dim);
    h.u32(cfg.lr.to_bits());
    h.u32(cfg.l2.to_bits());
    h.u32(cfg.n3.to_bits());
    h.u32(cfg.decay_rate.to_bits());
    h.usize(cfg.batch_size);
    h.usize(cfg.max_epochs);
    h.usize(cfg.eval_every);
    h.usize(cfg.patience);
    match cfg.loss {
        crate::loss::LossMode::Full => h.usize(1),
        crate::loss::LossMode::Sampled { negatives } => {
            h.usize(2);
            h.usize(negatives);
        }
        crate::loss::LossMode::NegSampling {
            negatives,
            gamma,
            adversarial_temp,
            corruption,
        } => {
            h.usize(3);
            h.usize(negatives);
            h.u32(gamma.to_bits());
            h.u32(adversarial_temp.to_bits());
            h.usize(match corruption {
                crate::loss::Corruption::Uniform => 1,
                crate::loss::Corruption::Bernoulli => 2,
            });
        }
    }
    match cfg.ranking {
        crate::eval::RankingMode::Full => h.usize(1),
        crate::eval::RankingMode::Sampled { candidates, seed } => {
            h.usize(2);
            h.usize(candidates);
            h.u64(seed);
        }
    }
    h.u64(cfg.seed);
    // cfg.bounds is deliberately absent: the declared norm bounds feed
    // only the static certifier, never the update sequence, so a
    // re-declared contract must still resume an existing run.
    h.usize(num_entities);
    h.usize(num_relations);
    h.usize(num_train);
    h.0
}

/// FNV-1a, field-at-a-time. Stability across runs of one binary is all
/// resume needs; this is not a persistent wire format.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

impl TrainCheckpoint {
    /// Save atomically (temp sibling + fsync + rename). Subject to the
    /// `IoWrite` and `TornWrite` fault-injection sites, like every
    /// persistence path.
    pub fn save(&self, path: &Path) -> Result<(), IoError> {
        io::atomic_write(path, |w| self.write(w))
    }

    fn write<W: std::io::Write>(&self, w: &mut W) -> Result<(), IoError> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&self.fingerprint.to_le_bytes())?;
        w.write_all(&(self.epoch as u64).to_le_bytes())?;
        for s in self.rng_state {
            w.write_all(&s.to_le_bytes())?;
        }
        for bits in [
            self.lr_entity.to_bits(),
            self.lr_relation.to_bits(),
            self.final_loss.to_bits(),
        ] {
            w.write_all(&bits.to_le_bytes())?;
        }
        w.write_all(&(self.strikes as u64).to_le_bytes())?;
        for v in [
            self.best_valid.mrr,
            self.best_valid.hits1,
            self.best_valid.hits3,
            self.best_valid.hits10,
        ] {
            w.write_all(&v.to_bits().to_le_bytes())?;
        }
        w.write_all(&(self.best_valid.count as u64).to_le_bytes())?;
        for v in [
            self.embeddings.num_entities() as u64,
            self.embeddings.num_relations() as u64,
            self.embeddings.dim() as u64,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
        io::write_f32_table(w, &self.embeddings.entity)?;
        io::write_f32_table(w, &self.embeddings.relation)?;
        for accum in [&self.ent_accum, &self.rel_accum] {
            let mut buf = Vec::with_capacity(accum.len() * 4);
            for &x in accum.iter() {
                buf.extend_from_slice(&x.to_le_bytes());
            }
            w.write_all(&buf)?;
        }
        w.write_all(&(self.order.len() as u64).to_le_bytes())?;
        for t in &self.order {
            for v in [t.head, t.rel, t.tail] {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Load a checkpoint. Truncation and corruption surface as
    /// [`IoError::Format`]; a missing file as [`IoError::Io`]. Subject
    /// to the `SnapshotOpen` and `IoRead` injection sites.
    pub fn load(path: &Path) -> Result<TrainCheckpoint, IoError> {
        use eras_linalg::faults;
        if faults::check(faults::Site::SnapshotOpen).is_some() {
            return Err(IoError::Io(faults::injected_io_error(
                faults::Site::SnapshotOpen,
            )));
        }
        let file = std::fs::File::open(path)?;
        Self::read(std::io::BufReader::new(file))
    }

    // audit:allow(E701): m[0..4] indexes a fixed [f64; 4] with literal
    // indices — statically in bounds
    fn read<R: std::io::Read>(r: R) -> Result<TrainCheckpoint, IoError> {
        let mut r = io::FormatReader { inner: r };
        let magic = r.bytes::<4>()?;
        if &magic != MAGIC {
            return Err(IoError::Format(
                "bad magic; not an ERAS checkpoint file".into(),
            ));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(IoError::Format(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let fingerprint = u64::from_le_bytes(r.bytes::<8>()?);
        let epoch = r.len_u64("epoch")? as usize;
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = u64::from_le_bytes(r.bytes::<8>()?);
        }
        let lr_entity = f32::from_le_bytes(r.bytes::<4>()?);
        let lr_relation = f32::from_le_bytes(r.bytes::<4>()?);
        let final_loss = f32::from_le_bytes(r.bytes::<4>()?);
        let strikes = r.len_u64("strike count")? as usize;
        let mut m = [0f64; 4];
        for v in &mut m {
            *v = f64::from_bits(u64::from_le_bytes(r.bytes::<8>()?));
        }
        let count = r.len_u64("metric count")? as usize;
        let best_valid = LinkPredictionMetrics {
            mrr: m[0],
            hits1: m[1],
            hits3: m[2],
            hits10: m[3],
            count,
        };
        let ne = r.len_u64("entity count")? as usize;
        let nr = r.len_u64("relation count")? as usize;
        let dim = r.len_u64("dim")? as usize;
        if ne == 0 || nr == 0 || dim == 0 {
            return Err(IoError::Format("degenerate checkpoint shape".into()));
        }
        let entity = r.f32_table(ne, dim)?;
        let relation = r.f32_table(nr, dim)?;
        let ent_accum = r.f32_table(ne, dim)?.as_slice().to_vec();
        let rel_accum = r.f32_table(nr, dim)?.as_slice().to_vec();
        let n_order = r.len_u64("order length")? as usize;
        let mut order = Vec::with_capacity(n_order.min(1 << 20));
        for _ in 0..n_order {
            let (head, rel, tail) = (r.u32()?, r.u32()?, r.u32()?);
            order.push(Triple { head, rel, tail });
        }
        Ok(TrainCheckpoint {
            fingerprint,
            epoch,
            rng_state,
            order,
            embeddings: Embeddings { entity, relation },
            ent_accum,
            rel_accum,
            lr_entity,
            lr_relation,
            best_valid,
            strikes,
            final_loss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_linalg::Rng;

    fn sample() -> TrainCheckpoint {
        let mut rng = Rng::seed_from_u64(5);
        let embeddings = Embeddings::init(6, 3, 4, &mut rng);
        TrainCheckpoint {
            fingerprint: 0xDEAD_BEEF,
            epoch: 7,
            rng_state: [1, 2, 3, 4],
            order: vec![Triple::new(0, 1, 2), Triple::new(3, 0, 5)],
            ent_accum: (0..24).map(|i| i as f32).collect(),
            rel_accum: (0..12).map(|i| i as f32 * 0.5).collect(),
            embeddings,
            lr_entity: 0.09,
            lr_relation: 0.07,
            best_valid: LinkPredictionMetrics {
                mrr: 0.31,
                hits1: 0.2,
                hits3: 0.35,
                hits10: 0.5,
                count: 40,
            },
            strikes: 1,
            final_loss: 2.5,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        let back = TrainCheckpoint::read(buf.as_slice()).unwrap();
        assert_eq!(back.fingerprint, ck.fingerprint);
        assert_eq!(back.epoch, ck.epoch);
        assert_eq!(back.rng_state, ck.rng_state);
        assert_eq!(back.order, ck.order);
        assert_eq!(
            back.embeddings.entity.as_slice(),
            ck.embeddings.entity.as_slice()
        );
        assert_eq!(back.ent_accum, ck.ent_accum);
        assert_eq!(back.rel_accum, ck.rel_accum);
        assert_eq!(back.lr_entity, ck.lr_entity);
        assert_eq!(back.lr_relation, ck.lr_relation);
        assert_eq!(back.best_valid, ck.best_valid);
        assert_eq!(back.strikes, ck.strikes);
        assert_eq!(back.final_loss, ck.final_loss);
    }

    #[test]
    fn every_truncation_is_a_clean_format_error() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        for cut in 0..buf.len() {
            match TrainCheckpoint::read(&buf[..cut]) {
                Err(IoError::Format(_)) => {}
                other => panic!("prefix of {cut} bytes: expected Format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip_is_atomic() {
        let ck = sample();
        let dir = std::env::temp_dir().join(format!("eras_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ckpt");
        ck.save(&path).unwrap();
        // No temp residue: the only file is the destination.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["train.ckpt".to_string()]);
        let back = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(back.epoch, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let cfg = TrainConfig::default();
        let base = config_fingerprint(&cfg, 10, 3, 100);
        assert_eq!(base, config_fingerprint(&cfg, 10, 3, 100));
        let mut other = cfg.clone();
        other.seed = 1;
        assert_ne!(base, config_fingerprint(&other, 10, 3, 100));
        let mut lr = cfg.clone();
        lr.lr += 0.01;
        assert_ne!(base, config_fingerprint(&lr, 10, 3, 100));
        assert_ne!(base, config_fingerprint(&cfg, 11, 3, 100));
    }
}
