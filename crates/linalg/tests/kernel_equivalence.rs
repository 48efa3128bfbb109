//! Equivalence and pinning tests for the vectorized kernels.
//!
//! The vecops kernels come in two classes (see the module docs of
//! `eras_linalg::vecops`):
//!
//! - **Elementwise** kernels (`axpy`, `scaled_copy`, `hadamard`,
//!   `hadamard_axpy`, `scale`): lane chunking is a pure unroll, so the
//!   vectorized form must be **bit-identical** to the scalar reference
//!   for every input length.
//! - **Reduction** kernels (`dot`, `triple_dot`, `dist_sq`, `dist_l1`):
//!   the lane split reassociates the sum, so the result legitimately
//!   differs from the single-accumulator reference — by a bounded
//!   number of ulps, and *deterministically* for a given lane width.
//!   The exact bits for fixed inputs are pinned by golden tests so a
//!   lane-width or combine-tree change cannot slip through silently.
//!
//! The golden-bit tests are compiled out under the `scalar-kernels`
//! feature (the scalar path has its own exact-identity test); the
//! structural agreement tests (dot4 vs dot, scan vs matvec) hold for
//! both build variants.

use eras_linalg::scan::{scan_rows, BlockConsumer, Hit, RankTally, StreamTopK};
use eras_linalg::vecops::{self, reference};
use eras_linalg::{Matrix, Rng};

/// Deterministic test vectors with mixed signs and magnitudes.
fn wave(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.normal() * 2.0).collect()
}

/// Distance in ulps between two finite floats: both are mapped onto the
/// monotone integer line (negative floats mirrored below zero, -0.0
/// coinciding with +0.0) and the keys subtracted.
fn ulp_diff(a: f32, b: f32) -> u64 {
    fn key(x: f32) -> i64 {
        let i = x.to_bits() as i32 as i64;
        if i < 0 {
            (i32::MIN as i64) - i
        } else {
            i
        }
    }
    assert!(a.is_finite() && b.is_finite());
    (key(a) - key(b)).unsigned_abs()
}

/// Input lengths straddling every chunking boundary: empty, sub-lane,
/// exact lanes, lane + tail, several whole chunks.
fn lens() -> Vec<usize> {
    let mut v: Vec<usize> = (0..=67).collect();
    v.extend([128, 129, 513, 1000]);
    v
}

#[test]
fn elementwise_kernels_bit_identical_to_reference() {
    for n in lens() {
        let a = wave(n, 11);
        let b = wave(n, 22);
        let alpha = -0.37f32;

        let mut got = wave(n, 33);
        let mut want = got.clone();
        vecops::axpy(alpha, &a, &mut got);
        reference::axpy(alpha, &a, &mut want);
        assert_bits_eq(&got, &want, "axpy", n);

        let mut got = vec![9.0; n];
        let mut want = vec![9.0; n];
        vecops::scaled_copy(alpha, &a, &mut got);
        reference::scaled_copy(alpha, &a, &mut want);
        assert_bits_eq(&got, &want, "scaled_copy", n);

        let mut got = vec![0.0; n];
        let mut want = vec![0.0; n];
        vecops::hadamard(&a, &b, &mut got);
        reference::hadamard(&a, &b, &mut want);
        assert_bits_eq(&got, &want, "hadamard", n);

        let mut got = wave(n, 44);
        let mut want = got.clone();
        vecops::hadamard_axpy(alpha, &a, &b, &mut got);
        reference::hadamard_axpy(alpha, &a, &b, &mut want);
        assert_bits_eq(&got, &want, "hadamard_axpy", n);

        let mut got = a.clone();
        let mut want = a.clone();
        vecops::scale(alpha, &mut got);
        reference::scale(alpha, &mut want);
        assert_bits_eq(&got, &want, "scale", n);
    }
}

fn assert_bits_eq(got: &[f32], want: &[f32], kernel: &str, n: usize) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{kernel} diverged from reference at n={n} i={i}: {g} vs {w}"
        );
    }
}

/// Pinned per-lane-width ulp budgets for the reduction kernels against
/// the single-accumulator reference, measured over the `lens()` sweep
/// at `LANES = 8` and pinned with one doubling of headroom:
///
/// | kernel       | measured max | pinned |
/// |--------------|--------------|--------|
/// | `dot`        | 2176         | 4352   |
/// | `triple_dot` | 48           | 96     |
/// | `dist_sq`    | 7            | 14     |
/// | `dist_l1`    | 9            | 18     |
///
/// `dot` of zero-mean data cancels, so its result can be tiny relative
/// to the summands — ulps are measured against the *result*, which
/// inflates the count without the absolute error growing (the absolute
/// error stays ~n·eps·Σ|aᵢbᵢ| for both summation orders). `dist_sq` /
/// `dist_l1` accumulate non-negative terms, so no cancellation and a
/// single-digit budget. A lane-width or combine-tree change must
/// re-measure these (see [`harvest_golden_bits`]), not merely raise
/// them.
const REDUCTION_ULPS: [(&str, u64); 4] = [
    ("dot", 4352),
    ("triple_dot", 96),
    ("dist_sq", 14),
    ("dist_l1", 18),
];

#[test]
fn reduction_kernels_within_pinned_ulp_bound() {
    for n in lens() {
        let a = wave(n, 55);
        let b = wave(n, 66);
        let c = wave(n, 77);
        let cases = [
            ("dot", vecops::dot(&a, &b), reference::dot(&a, &b)),
            (
                "triple_dot",
                vecops::triple_dot(&a, &b, &c),
                reference::triple_dot(&a, &b, &c),
            ),
            (
                "dist_sq",
                vecops::dist_sq(&a, &b),
                reference::dist_sq(&a, &b),
            ),
            (
                "dist_l1",
                vecops::dist_l1(&a, &b),
                reference::dist_l1(&a, &b),
            ),
        ];
        for (kernel, got, want) in cases {
            let bound = REDUCTION_ULPS
                .iter()
                .find(|(k, _)| *k == kernel)
                .map(|(_, b)| *b)
                .unwrap();
            let d = ulp_diff(got, want);
            assert!(
                d <= bound,
                "{kernel} at n={n}: {got} vs reference {want} = {d} ulps (budget {bound})"
            );
        }
    }
}

/// Harvest helper (ignored): prints the golden bits below. Re-run with
/// `cargo test -p eras-linalg --test kernel_equivalence harvest -- \
/// --ignored --nocapture` after any deliberate numeric change.
#[test]
#[ignore]
#[cfg(not(feature = "scalar-kernels"))]
fn harvest_golden_bits() {
    for n in [37usize, 64] {
        let a = wave(n, 1);
        let b = wave(n, 2);
        let c = wave(n, 3);
        println!("n={n}");
        println!("  dot        0x{:08X}", vecops::dot(&a, &b).to_bits());
        println!(
            "  triple_dot 0x{:08X}",
            vecops::triple_dot(&a, &b, &c).to_bits()
        );
        println!("  dist_sq    0x{:08X}", vecops::dist_sq(&a, &b).to_bits());
        println!("  dist_l1    0x{:08X}", vecops::dist_l1(&a, &b).to_bits());
    }
    let mut max = [0u64; 4];
    for n in lens() {
        let a = wave(n, 55);
        let b = wave(n, 66);
        let c = wave(n, 77);
        max[0] = max[0].max(ulp_diff(vecops::dot(&a, &b), reference::dot(&a, &b)));
        max[1] = max[1].max(ulp_diff(
            vecops::triple_dot(&a, &b, &c),
            reference::triple_dot(&a, &b, &c),
        ));
        max[2] = max[2].max(ulp_diff(
            vecops::dist_sq(&a, &b),
            reference::dist_sq(&a, &b),
        ));
        max[3] = max[3].max(ulp_diff(
            vecops::dist_l1(&a, &b),
            reference::dist_l1(&a, &b),
        ));
    }
    println!(
        "max ulps: dot={} triple_dot={} dist_sq={} dist_l1={}",
        max[0], max[1], max[2], max[3]
    );
}

/// Golden bits for the laned reductions at `LANES = 8`. A change to the
/// lane width or the lane-combine tree is a *numeric* change: it must
/// re-harvest these constants (see [`harvest_golden_bits`]) and say so
/// in the changelog, not adjust tolerances.
#[test]
#[cfg(not(feature = "scalar-kernels"))]
fn golden_bits_pinned_for_lane_width_8() {
    assert_eq!(vecops::LANES, 8, "golden bits below are for LANES = 8");
    // n = 37: five whole lanes plus a 5-element scalar tail.
    let (a, b, c) = (wave(37, 1), wave(37, 2), wave(37, 3));
    assert_eq!(vecops::dot(&a, &b).to_bits(), 0xC0E6_6C3C);
    assert_eq!(vecops::triple_dot(&a, &b, &c).to_bits(), 0xC208_86E1);
    assert_eq!(vecops::dist_sq(&a, &b).to_bits(), 0x4394_C0ED);
    assert_eq!(vecops::dist_l1(&a, &b).to_bits(), 0x42AB_1752);
    // n = 64: eight whole lanes, no tail.
    let (a, b, c) = (wave(64, 1), wave(64, 2), wave(64, 3));
    assert_eq!(vecops::dot(&a, &b).to_bits(), 0xC1A7_7BE5);
    assert_eq!(vecops::triple_dot(&a, &b, &c).to_bits(), 0xC238_4F26);
    assert_eq!(vecops::dist_sq(&a, &b).to_bits(), 0x440A_D8A5);
    assert_eq!(vecops::dist_l1(&a, &b).to_bits(), 0x4317_7FE4);
}

/// Under `scalar-kernels` every public kernel *is* the reference — the
/// reductions must agree exactly, not just within ulps.
#[test]
#[cfg(feature = "scalar-kernels")]
fn scalar_feature_is_exactly_the_reference() {
    for n in lens() {
        let a = wave(n, 55);
        let b = wave(n, 66);
        let c = wave(n, 77);
        assert_eq!(
            vecops::dot(&a, &b).to_bits(),
            reference::dot(&a, &b).to_bits()
        );
        assert_eq!(
            vecops::triple_dot(&a, &b, &c).to_bits(),
            reference::triple_dot(&a, &b, &c).to_bits()
        );
        assert_eq!(
            vecops::dist_sq(&a, &b).to_bits(),
            reference::dist_sq(&a, &b).to_bits()
        );
        assert_eq!(
            vecops::dist_l1(&a, &b).to_bits(),
            reference::dist_l1(&a, &b).to_bits()
        );
    }
}

/// `dot4(x, y0..y3)[i]` must be bit-identical to `dot(x, yi)` in *both*
/// build variants — the invariant `Matrix::matvec`, the dense reference
/// the fused scan and the serve/eval agreement tests are checked
/// against, leans on.
#[test]
fn dot4_bitwise_consistent_with_dot() {
    for n in lens() {
        let x = wave(n, 5);
        let ys: Vec<Vec<f32>> = (0..4).map(|j| wave(n, 100 + j)).collect();
        let fused = vecops::dot4(&x, &ys[0], &ys[1], &ys[2], &ys[3]);
        for (j, y) in ys.iter().enumerate() {
            assert_eq!(
                fused[j].to_bits(),
                vecops::dot(&x, y).to_bits(),
                "n={n} j={j}"
            );
        }
    }
}

/// Collects every score — the materializing reference consumer.
struct Collect(Vec<f32>);

impl BlockConsumer for Collect {
    fn consume(&mut self, base: u32, scores: &[f32]) {
        assert_eq!(base as usize, self.0.len());
        self.0.extend_from_slice(scores);
    }
}

/// Equal bits, or NaN on both sides: Rust leaves the sign and payload
/// of a NaN arithmetic result unspecified, so those bits are no part
/// of the scan's contract.
fn same_score(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Scans `qvecs` (`dim` floats per query) through `table` in one call
/// and checks every score against `Matrix::matvec`.
fn assert_scan_matches_matvec(table: &Matrix, qvecs: &[f32], what: &str) {
    let dim = table.cols();
    let nq = qvecs.len() / dim;
    let mut sinks: Vec<Collect> = (0..nq).map(|_| Collect(Vec::new())).collect();
    scan_rows(table, qvecs, &mut sinks);
    let mut want = vec![0.0f32; table.rows()];
    for (qi, sink) in sinks.iter().enumerate() {
        table.matvec(&qvecs[qi * dim..(qi + 1) * dim], &mut want);
        assert_eq!(sink.0.len(), want.len(), "{what} q={qi}");
        for (e, (&g, &w)) in sink.0.iter().zip(&want).enumerate() {
            assert!(
                same_score(g, w),
                "{what} q={qi} e={e}: scan {g:?} ({:#x}) vs matvec {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }
}

/// The fused scan must reproduce `Matrix::matvec` down to the bit for
/// shapes straddling the cache-block boundary, the eight-query tile
/// (full tiles, padded tiles and the one-query `dot` path) and the
/// eight-lane chunk (dims with and without remainder coordinates).
#[test]
fn scan_rows_agrees_with_matvec_bitwise() {
    let mut rng = Rng::seed_from_u64(123);
    for (rows, nq) in [(255usize, 4usize), (256, 7), (1000, 6)] {
        let dim = 24;
        let table = Matrix::uniform_init(rows, dim, 1.0, &mut rng);
        let qvecs: Vec<f32> = (0..nq * dim).map(|_| rng.normal()).collect();
        assert_scan_matches_matvec(&table, &qvecs, &format!("rows={rows} nq={nq}"));
    }
    for dim in [1usize, 7, 8, 12, 33] {
        for rows in [255usize, 256, 257] {
            let table = Matrix::uniform_init(rows, dim, 1.0, &mut rng);
            for nq in [1usize, 2, 3, 8, 9, 16, 17] {
                let qvecs: Vec<f32> = (0..nq * dim).map(|_| rng.normal()).collect();
                let what = format!("dim={dim} rows={rows} nq={nq}");
                assert_scan_matches_matvec(&table, &qvecs, &what);
            }
        }
    }
}

/// Signed zeros and non-finite queries through the tile: a zero row
/// against an all-negative query sums `-0.0` products into `dot`'s
/// `+0.0` accumulators (the score is `+0.0`), a query holding `+inf`
/// and `-inf` scores `±inf` or NaN, a NaN query scores NaN, and none of
/// them may leak into the other queries of its tile.
#[test]
fn scan_rows_handles_signed_zeros_and_non_finite_queries() {
    let mut rng = Rng::seed_from_u64(456);
    for dim in [1usize, 7, 8, 12, 33] {
        let mut table = Matrix::uniform_init(257, dim, 1.0, &mut rng);
        for v in table.row_mut(3) {
            *v = 0.0;
        }
        for v in table.row_mut(200) {
            *v = -0.0;
        }
        for nq in [2usize, 3, 8, 9, 16, 17] {
            let mut qvecs: Vec<f32> = (0..nq * dim).map(|_| rng.normal()).collect();
            for v in &mut qvecs[..dim] {
                *v = -v.abs() - 0.25;
            }
            let q1 = &mut qvecs[dim..2 * dim];
            q1[dim - 1] = f32::INFINITY;
            q1[0] = f32::NEG_INFINITY;
            if nq > 2 {
                qvecs[(nq - 1) * dim + dim / 2] = f32::NAN;
            }
            let what = format!("dim={dim} nq={nq}");
            assert_scan_matches_matvec(&table, &qvecs, &what);
            // The zero rows score +0.0 against the negative query.
            let mut sinks: Vec<Collect> = (0..nq).map(|_| Collect(Vec::new())).collect();
            scan_rows(&table, &qvecs, &mut sinks);
            assert_eq!(sinks[0].0[3].to_bits(), 0.0f32.to_bits(), "{what}");
            assert_eq!(sinks[0].0[200].to_bits(), 0.0f32.to_bits(), "{what}");
        }
    }
}

/// Streaming consumers vs a dense reference over the same scan: top-k
/// against sort-and-truncate, rank tally against a counted rank.
#[test]
fn streaming_consumers_agree_with_dense_reference() {
    let mut rng = Rng::seed_from_u64(321);
    let (rows, dim) = (700usize, 16usize);
    let table = Matrix::uniform_init(rows, dim, 1.0, &mut rng);
    let q: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
    let mut dense = vec![0.0f32; rows];
    table.matvec(&q, &mut dense);
    let filt: Vec<u32> = vec![0, 17, 350, 699];

    // Top-k: fused StreamTopK vs sort of the dense score vector.
    for k in [1usize, 10, 699] {
        let mut sink = vec![StreamTopK::new(k, &filt)];
        scan_rows(&table, &q, &mut sink);
        let got = sink.pop().unwrap().into_sorted();
        let mut want: Vec<Hit> = dense
            .iter()
            .enumerate()
            .filter(|(i, _)| filt.binary_search(&(*i as u32)).is_err())
            .map(|(i, &s)| Hit {
                id: i as u32,
                score: s,
            })
            .collect();
        want.sort_by(|a, b| b.cmp(a));
        want.truncate(k);
        assert_eq!(got.len(), want.len(), "k={k}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.id, g.score.to_bits()),
                (w.id, w.score.to_bits()),
                "k={k}"
            );
        }
    }

    // Rank tally: fused RankTally vs counting over the dense vector.
    for target in [0u32, 17, 123, 698] {
        let ts = dense[target as usize];
        let mut sink = vec![RankTally::new(target, ts, &filt)];
        scan_rows(&table, &q, &mut sink);
        let got = sink.pop().unwrap().rank();
        let mut better = 0u64;
        let mut ties = 0u64;
        for (i, &s) in dense.iter().enumerate() {
            if i as u32 == target || filt.binary_search(&(i as u32)).is_ok() {
                continue;
            }
            if s > ts {
                better += 1;
            } else if s == ts {
                ties += 1;
            }
        }
        let want = 1.0 + better as f64 + ties as f64 / 2.0;
        assert_eq!(got, want, "target={target}");
    }
}

/// The top-k half of the test above through one eight-query scan (the
/// transposed tile and `StreamTopK`'s whole-chunk reject), each query
/// with its own `k` and filter: rows 100, 350 and 600 are equal, so
/// every query has a three-way tie, and query `i`'s `k` puts that tie
/// exactly at its threshold, where the smallest id must enter and the
/// two larger ones stay out; row 5 scores NaN for every query, so at
/// `k = 10` each heap fills with a NaN worst member that later numbers
/// must still push out (the reject stands aside while the worst is
/// NaN), and query 7 scores NaN on every row; each query's best row is
/// filtered, so a filtered id scores above every threshold; and the
/// same queries run again with `k` above the candidate count.
#[test]
fn stream_topk_through_a_tile_agrees_with_dense_reference() {
    let mut rng = Rng::seed_from_u64(654);
    let (rows, dim, nq) = (700usize, 16usize, 8usize);
    let mut table = Matrix::uniform_init(rows, dim, 1.0, &mut rng);
    let tied = table.row(350).to_vec();
    table.row_mut(100).copy_from_slice(&tied);
    table.row_mut(600).copy_from_slice(&tied);
    table.row_mut(5)[5] = f32::NAN;
    let mut qvecs: Vec<f32> = (0..nq * dim).map(|_| rng.normal()).collect();
    qvecs[7 * dim + 3] = f32::NAN;
    let dense: Vec<Vec<f32>> = (0..nq)
        .map(|qi| {
            let mut d = vec![0.0f32; rows];
            table.matvec(&qvecs[qi * dim..(qi + 1) * dim], &mut d);
            d
        })
        .collect();
    let filts: Vec<Vec<u32>> = dense
        .iter()
        .map(|d| {
            let best = (0..rows as u32)
                .max_by_key(|&id| Hit {
                    id,
                    score: d[id as usize],
                })
                .unwrap();
            assert!(![100, 350, 600].contains(&best), "a tied row is a best row");
            let mut f: Vec<u32> = (0..rows as u32).step_by(37).collect();
            f.push(best);
            f.sort_unstable();
            f.dedup();
            f
        })
        .collect();
    let reference = |qi: usize, k: usize| -> Vec<Hit> {
        let mut want: Vec<Hit> = dense[qi]
            .iter()
            .enumerate()
            .filter(|(i, _)| filts[qi].binary_search(&(*i as u32)).is_err())
            .map(|(i, &s)| Hit {
                id: i as u32,
                score: s,
            })
            .collect();
        want.sort_by(|a, b| b.cmp(a));
        want.truncate(k);
        want
    };
    // k at the tie: one more than the candidates scoring strictly
    // above row 100 (for query 7 every score is NaN, so row 100 is
    // reached in id order).
    let at_tie: Vec<usize> = (0..nq)
        .map(|qi| {
            let t = Hit {
                id: 100,
                score: dense[qi][100],
            };
            1 + reference(qi, rows).iter().take_while(|&&h| h > t).count()
        })
        .collect();
    for ks in [
        at_tie.clone(),
        vec![10; nq],
        vec![rows; nq],
        vec![rows + 300; nq],
    ] {
        let mut sinks: Vec<StreamTopK> = (0..nq)
            .map(|qi| StreamTopK::new(ks[qi], &filts[qi]))
            .collect();
        scan_rows(&table, &qvecs, &mut sinks);
        for (qi, sink) in sinks.into_iter().enumerate() {
            let got = sink.into_sorted();
            let want = reference(qi, ks[qi]);
            assert_eq!(got.len(), want.len(), "q={qi} k={}", ks[qi]);
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    g.id == w.id && same_score(g.score, w.score),
                    "q={qi} k={}: got {g:?}, want {w:?}",
                    ks[qi]
                );
            }
            if ks == at_tie {
                let ids: Vec<u32> = got.iter().map(|h| h.id).collect();
                assert_eq!(
                    ids.last(),
                    Some(&100),
                    "q={qi}: the smallest tied id enters"
                );
                assert!(
                    !ids.contains(&350) && !ids.contains(&600),
                    "q={qi}: {ids:?}"
                );
            }
            assert!(
                got.iter().all(|h| filts[qi].binary_search(&h.id).is_err()),
                "q={qi}"
            );
        }
    }
}
