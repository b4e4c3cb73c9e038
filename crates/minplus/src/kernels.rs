//! Min-plus kernels: the GEMM product and the classical Floyd–Warshall
//! closure.
//!
//! Every kernel returns the exact number of scalar relaxations
//! (`c = min(c, a + b)`) it executed; rows/entries skipped through the `∞`
//! fast path are not counted. These counts feed the paper's computation
//! comparisons (SuperFW vs classical FW, §2/§4).
//!
//! Each kernel additionally records host-side perf counters (ops, ∞-row
//! skips, approximate bytes touched) into the global metrics registry —
//! once per call, see [`crate::perf`].
//!
//! # The row kernel
//!
//! All work goes through one loop, `relax_row`: `c[j] = a + r[j]` where
//! that is smaller, written as a select rather than a conditional store so
//! that LLVM vectorizes it. The select keeps `c[j]` exactly when a
//! conditional store `if via < c[j] { c[j] = via }` would, `±0` and `∞`
//! included, so the bits are those of the scalar loop.
//!
//! # Panelled Floyd–Warshall
//!
//! [`fw_in_place`] takes pivots in panels of `KB` = 16 steps. First the
//! panel's own rows run steps `k0..k1` in the classical order, and pivot
//! row `k` is copied aside at its step `k`. Then every other row runs the
//! same steps, in order, against those copies, while the row stays in L1.
//! Each step therefore streams the pivot panel, not the whole block.
//!
//! The result is bit-identical to the classical `k-i-j` loop. Rows only
//! interact through the pivot row, and while `d[k][k] ≥ 0` step `k`
//! changes neither row `k` nor column `k`. So the copy of row `k` is the
//! value every row sees at step `k`, and `d[i][k]` read at step `k` is the
//! classical value too. Each element receives the same candidates in
//! increasing `k`, and the `(k, i)` ∞-skip tests see the same values, so
//! the op and skip counts are identical as well. A negative `d[k][k]`
//! (only possible on a negative cycle) makes step `k` rewrite row `k`
//! mid-step; from that step on the panel runs the classical loop.
//!
//! # Dispatch
//!
//! On x86-64 each kernel picks its row loops once per call: the same
//! source compiled with AVX2 enabled when `is_x86_feature_detected!`
//! reports it, the portable (baseline SSE2) build otherwise. Both copies
//! do the same IEEE additions and comparisons, so they agree bit for bit.

use crate::matrix::MinPlusMatrix;
use crate::perf;
use crate::{Weight, INF};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pivot steps per `fw_in_place` panel. The panel copy is `KB·n` words.
const KB: usize = 16;

/// `C ⊕= A ⊗ B` (min-plus product accumulate). Returns the scalar-op count.
///
/// Loop order `i-k-j` with an `∞` skip on `A[i][k]`, so structurally empty
/// operands cost nothing — this is what makes the §4.1 empty-block
/// avoidance measurable.
///
/// ```
/// use apsp_minplus::{gemm, MinPlusMatrix, INF};
///
/// let a = MinPlusMatrix::from_raw(2, 2, vec![0.0, 1.0, INF, 0.0]);
/// let b = MinPlusMatrix::from_raw(2, 2, vec![5.0, INF, 2.0, 0.0]);
/// let mut c = MinPlusMatrix::empty(2, 2);
/// gemm(&mut c, &a, &b);
/// assert_eq!(c.get(0, 0), 3.0); // min(0+5, 1+2)
/// ```
///
/// # Panics
/// Panics on shape mismatch or when `C` aliases would be required (pass
/// distinct `&mut`/`&` — aliasing is impossible in safe Rust anyway).
pub fn gemm(c: &mut MinPlusMatrix, a: &MinPlusMatrix, b: &MinPlusMatrix) -> u64 {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "output row mismatch");
    assert_eq!(c.cols(), b.cols(), "output col mismatch");
    let (m, kk, n) = (a.rows(), a.cols(), b.cols());
    let counts = dispatch_gemm_rows(c.as_mut_slice(), a.as_slice(), b.as_slice(), m, kk, n);
    perf::record_gemm(counts.ops, counts.skips, (m * kk) as u64);
    counts.ops
}

/// Parallel variant of [`gemm`] splitting output rows across threads.
/// Returns the scalar-op count. Falls back to [`gemm`] for small outputs.
pub fn gemm_parallel(c: &mut MinPlusMatrix, a: &MinPlusMatrix, b: &MinPlusMatrix) -> u64 {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "output row mismatch");
    assert_eq!(c.cols(), b.cols(), "output col mismatch");
    let (m, kk, n) = (a.rows(), a.cols(), b.cols());
    if m * n < 64 * 64 {
        return gemm(c, a, b);
    }
    let rows_per_chunk = m.div_ceil(apsp_par::num_threads()).max(1);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let ops = AtomicU64::new(0);
    let skips = AtomicU64::new(0);
    apsp_par::par_chunks_mut(c.as_mut_slice(), rows_per_chunk * n, |start, chunk| {
        let (i0, rows) = (start / n, chunk.len() / n);
        let local = dispatch_gemm_rows(chunk, &av[i0 * kk..(i0 + rows) * kk], bv, rows, kk, n);
        ops.fetch_add(local.ops, Ordering::Relaxed);
        skips.fetch_add(local.skips, Ordering::Relaxed);
    });
    let ops = ops.into_inner();
    perf::record_gemm(ops, skips.into_inner(), (m * kk) as u64);
    ops
}

/// Classical Floyd–Warshall closure of a square block, in place
/// (the paper's `ClassicalFW(A(k,k))`, §3.3). The diagonal is first
/// `⊕`-ed with `0` (a vertex reaches itself for free). Returns the
/// scalar-op count.
///
/// Pivots run in panels (see the module docs); the result, op count and
/// skip count are those of the classical `k-i-j` loop, bit for bit.
pub fn fw_in_place(a: &mut MinPlusMatrix) -> u64 {
    assert_eq!(a.rows(), a.cols(), "FW needs a square block");
    let n = a.rows();
    for i in 0..n {
        a.relax(i, i, 0.0);
    }
    let counts = dispatch_fw_panels(a.as_mut_slice(), n);
    perf::record_fw(counts.ops, counts.skips, (n * n) as u64);
    counts.ops
}

/// Relaxations executed and `∞` rows skipped by one kernel body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    ops: u64,
    skips: u64,
}

impl Counts {
    /// `c ⊕= a ⊗ r`, counted; an `a = ∞` row is one skip and no work.
    #[inline(always)]
    fn relax(&mut self, c: &mut [Weight], a: Weight, r: &[Weight]) {
        if a == INF {
            self.skips += 1;
        } else {
            self.ops += c.len() as u64;
            relax_row(c, a, r);
        }
    }
}

/// `c[j] = min(c[j], a + r[j])` over equal-length rows, as a select so it
/// vectorizes. Keeps `c[j]` exactly when `a + r[j] < c[j]` is false.
#[inline(always)]
fn relax_row(c: &mut [Weight], a: Weight, r: &[Weight]) {
    debug_assert_eq!(c.len(), r.len());
    for (cj, &rj) in c.iter_mut().zip(r) {
        let via = a + rj;
        *cj = if via < *cj { via } else { *cj };
    }
}

/// The `gemm` body over `m` rows: `c` is `m×n`, `a` is `m×kk`, `b` is
/// `kk×n`, all row-major.
#[inline(always)]
fn gemm_rows(
    c: &mut [Weight],
    a: &[Weight],
    b: &[Weight],
    m: usize,
    kk: usize,
    n: usize,
) -> Counts {
    let mut counts = Counts::default();
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        for (k, &aik) in a[i * kk..(i + 1) * kk].iter().enumerate() {
            counts.relax(crow, aik, &b[k * n..(k + 1) * n]);
        }
    }
    counts
}

/// [`gemm_rows`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
// SAFETY: callers establish AVX2 with `is_x86_feature_detected!`; the
// body is safe code, so that is the only obligation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_rows_avx2(
    c: &mut [Weight],
    a: &[Weight],
    b: &[Weight],
    m: usize,
    kk: usize,
    n: usize,
) -> Counts {
    gemm_rows(c, a, b, m, kk, n)
}

/// Runs [`gemm_rows`] in the widest build this CPU supports.
fn dispatch_gemm_rows(
    c: &mut [Weight],
    a: &[Weight],
    b: &[Weight],
    m: usize,
    kk: usize,
    n: usize,
) -> Counts {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on this CPU just above.
        return unsafe { gemm_rows_avx2(c, a, b, m, kk, n) };
    }
    gemm_rows(c, a, b, m, kk, n)
}

/// The `fw_in_place` body on an `n×n` row-major block whose diagonal is
/// already `⊕ 0` (module docs: panel order and why it is bit-identical).
#[inline(always)]
fn fw_panels(d: &mut [Weight], n: usize) -> Counts {
    let mut counts = Counts::default();
    let mut panel = vec![0.0; KB.min(n) * n];
    for k0 in (0..n).step_by(KB) {
        let k1 = (k0 + KB).min(n);
        // the panel's own rows, steps k0..k in order; row k copied at step k
        let mut k = k0;
        while k < k1 && d[k * n + k] >= 0.0 {
            let pivot = &mut panel[(k - k0) * n..(k - k0 + 1) * n];
            pivot.copy_from_slice(&d[k * n..(k + 1) * n]);
            for row in d[k0 * n..k1 * n].chunks_exact_mut(n) {
                let dik = row[k];
                counts.relax(row, dik, pivot);
            }
            k += 1;
        }
        // every other row takes the same steps while it stays in L1
        let (above, rest) = d.split_at_mut(k0 * n);
        let below = &mut rest[(k1 - k0) * n..];
        for row in above.chunks_exact_mut(n).chain(below.chunks_exact_mut(n)) {
            for (s, pivot) in (k0..k).zip(panel.chunks_exact(n)) {
                let dis = row[s];
                counts.relax(row, dis, pivot);
            }
        }
        // a negative d[k][k]: the rest of the panel in the classical order
        for s in k..k1 {
            classical_step(d, n, s, &mut panel[..n], &mut counts);
        }
    }
    counts
}

/// One step `k` of the classical loop over all rows in index order. Row
/// `k` may change during its own step, and rows after it see the change.
fn classical_step(d: &mut [Weight], n: usize, k: usize, pivot: &mut [Weight], counts: &mut Counts) {
    pivot.copy_from_slice(&d[k * n..(k + 1) * n]);
    for (i, row) in d.chunks_exact_mut(n).enumerate() {
        let dik = row[k];
        counts.relax(row, dik, pivot);
        if i == k {
            pivot.copy_from_slice(row);
        }
    }
}

/// [`fw_panels`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
// SAFETY: callers establish AVX2 with `is_x86_feature_detected!`; the
// body is safe code, so that is the only obligation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fw_panels_avx2(d: &mut [Weight], n: usize) -> Counts {
    fw_panels(d, n)
}

/// Runs [`fw_panels`] in the widest build this CPU supports.
fn dispatch_fw_panels(d: &mut [Weight], n: usize) -> Counts {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on this CPU just above.
        return unsafe { fw_panels_avx2(d, n) };
    }
    fw_panels(d, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> MinPlusMatrix {
        let mut a = MinPlusMatrix::empty(3, 3);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 2, 2.0);
        a.set(2, 1, 2.0);
        a
    }

    #[test]
    fn gemm_simple_product() {
        // C = A ⊗ B with A = [0 1; ∞ 0], B = [5 ∞; 2 0]
        let a = MinPlusMatrix::from_raw(2, 2, vec![0.0, 1.0, INF, 0.0]);
        let b = MinPlusMatrix::from_raw(2, 2, vec![5.0, INF, 2.0, 0.0]);
        let mut c = MinPlusMatrix::empty(2, 2);
        let ops = gemm(&mut c, &a, &b);
        assert_eq!(c.get(0, 0), 3.0); // min(0+5, 1+2)
        assert_eq!(c.get(0, 1), 1.0); // 1+0
        assert_eq!(c.get(1, 0), 2.0); // 0+2
        assert_eq!(c.get(1, 1), 0.0);
        // row 1 skips k=0 (∞): 3 finite a-entries × 2 cols
        assert_eq!(ops, 6);
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = MinPlusMatrix::from_raw(1, 1, vec![10.0]);
        let b = MinPlusMatrix::from_raw(1, 1, vec![10.0]);
        let mut c = MinPlusMatrix::from_raw(1, 1, vec![3.0]);
        gemm(&mut c, &a, &b);
        assert_eq!(c.get(0, 0), 3.0); // 20 does not beat 3
    }

    #[test]
    fn gemm_empty_operand_is_free() {
        let a = MinPlusMatrix::empty(8, 8);
        let b = MinPlusMatrix::identity(8);
        let mut c = MinPlusMatrix::empty(8, 8);
        assert_eq!(gemm(&mut c, &a, &b), 0);
        assert!(c.is_empty_block());
    }

    #[test]
    fn fw_closes_a_path() {
        let mut a = line3();
        let ops = fw_in_place(&mut a);
        assert!(ops > 0);
        assert_eq!(a.get(0, 2), 3.0);
        assert_eq!(a.get(2, 0), 3.0);
        for i in 0..3 {
            assert_eq!(a.get(i, i), 0.0);
        }
    }

    #[test]
    fn fw_matches_squaring_closure() {
        let mut rng = 123u64;
        let mut rnd = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 33) % 100) as f64 / 10.0
        };
        for trial in 0..10 {
            let n = 2 + trial % 6;
            let mut a = MinPlusMatrix::empty(n, n);
            for i in 0..n {
                for j in 0..n {
                    if i != j && rnd() < 5.0 {
                        let w = rnd();
                        a.set(i, j, w);
                        a.set(j, i, w);
                    }
                }
            }
            let reference = a.closure_by_squaring();
            let mut fast = a.clone();
            fw_in_place(&mut fast);
            assert!(fast.max_diff(&reference) < 1e-9, "trial {trial}");
        }
    }

    #[test]
    fn parallel_gemm_matches_serial() {
        let n = if cfg!(miri) { 64 } else { 96 };
        let a = MinPlusMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 50) as f64);
        let b = MinPlusMatrix::from_fn(n, n, |i, j| ((i * 11 + j * 3) % 50) as f64);
        let mut c1 = MinPlusMatrix::empty(n, n);
        let mut c2 = MinPlusMatrix::empty(n, n);
        let ops1 = gemm(&mut c1, &a, &b);
        let ops2 = gemm_parallel(&mut c2, &a, &b);
        assert_eq!(c1, c2);
        assert_eq!(ops1, ops2);
    }

    #[test]
    fn fw_opcount_is_n_cubed_when_dense() {
        let n = 7;
        let mut a = MinPlusMatrix::from_fn(n, n, |i, j| (i + j) as f64);
        let ops = fw_in_place(&mut a);
        assert_eq!(ops, (n * n * n) as u64);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_shape_mismatch_panics() {
        let a = MinPlusMatrix::empty(2, 3);
        let b = MinPlusMatrix::empty(2, 3);
        let mut c = MinPlusMatrix::empty(2, 3);
        gemm(&mut c, &a, &b);
    }

    #[test]
    #[should_panic(expected = "square block")]
    fn fw_non_square_panics() {
        fw_in_place(&mut MinPlusMatrix::empty(2, 3));
    }

    // ---- bit identity against the scalar loops the kernels replaced ----

    /// The scalar `gemm` loop as it stood before the row kernel, verbatim
    /// apart from returning its counts instead of recording them.
    fn reference_gemm(c: &mut MinPlusMatrix, a: &MinPlusMatrix, b: &MinPlusMatrix) -> Counts {
        let (m, kk, n) = (a.rows(), a.cols(), b.cols());
        let (av, bv) = (a.as_slice(), b.as_slice());
        let cv = c.as_mut_slice();
        let mut ops = 0u64;
        let mut skips = 0u64;
        for i in 0..m {
            let crow = &mut cv[i * n..(i + 1) * n];
            for k in 0..kk {
                let aik = av[i * kk + k];
                if aik == INF {
                    skips += 1;
                    continue;
                }
                let brow = &bv[k * n..(k + 1) * n];
                ops += n as u64;
                for j in 0..n {
                    let via = aik + brow[j];
                    if via < crow[j] {
                        crow[j] = via;
                    }
                }
            }
        }
        Counts { ops, skips }
    }

    /// The classical `k-i-j` `fw_in_place` loop, verbatim apart from
    /// returning its counts instead of recording them.
    fn reference_fw(a: &mut MinPlusMatrix) -> Counts {
        let n = a.rows();
        for i in 0..n {
            a.relax(i, i, 0.0);
        }
        let buf = a.as_mut_slice();
        let mut ops = 0u64;
        let mut skips = 0u64;
        for k in 0..n {
            for i in 0..n {
                let dik = buf[i * n + k];
                if dik == INF {
                    skips += 1;
                    continue;
                }
                ops += n as u64;
                for j in 0..n {
                    let via = dik + buf[k * n + j];
                    if via < buf[i * n + j] {
                        buf[i * n + j] = via;
                    }
                }
            }
        }
        Counts { ops, skips }
    }

    type GemmBody = fn(&mut [Weight], &[Weight], &[Weight], usize, usize, usize) -> Counts;
    type FwBody = fn(&mut [Weight], usize) -> Counts;

    /// The portable body, plus the AVX2 body when this CPU has AVX2.
    fn gemm_bodies() -> Vec<(&'static str, GemmBody)> {
        let mut bodies: Vec<(&'static str, GemmBody)> = vec![("portable", gemm_rows)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on this CPU just above.
            bodies.push(("avx2", |c, a, b, m, kk, n| unsafe { gemm_rows_avx2(c, a, b, m, kk, n) }));
        }
        bodies
    }

    fn fw_bodies() -> Vec<(&'static str, FwBody)> {
        let mut bodies: Vec<(&'static str, FwBody)> = vec![("portable", fw_panels)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on this CPU just above.
            bodies.push(("avx2", |d, n| unsafe { fw_panels_avx2(d, n) }));
        }
        bodies
    }

    const SIZES: &[usize] =
        if cfg!(miri) { &[0, 1, 15, 16, 17] } else { &[0, 1, 15, 16, 17, 33, 257] };
    const INF_SHARES: [f64; 3] = [0.0, 0.5, 0.95];

    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A `rows × cols` block with `inf_share` of its entries `∞`. Without
    /// `potential` the rest are reals in `[0, 5)`, a few of them `±0` to
    /// exercise signed-zero selects. With it they are `w(i, j) = base +
    /// φ(i) − φ(j)` in eighths: arcs go negative, every sum is exact, and
    /// every cycle sums to `Σ base ≥ 0`, so there is no negative cycle.
    fn block(rng: &mut Rng, rows: usize, cols: usize, inf_share: f64, potential: bool) -> Vec<f64> {
        let eighths = |rng: &mut Rng, below: f64| (below * rng.unit()).floor() / 8.0;
        let phi: Vec<f64> = (0..rows.max(cols)).map(|_| eighths(rng, 80.0)).collect();
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                let x = rng.unit();
                data.push(if x < inf_share {
                    INF
                } else if potential {
                    eighths(rng, 40.0) + phi[i] - phi[j]
                } else if x > 0.9975 {
                    0.0
                } else if x > 0.995 {
                    -0.0
                } else {
                    5.0 * rng.unit()
                });
            }
        }
        data
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (at, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {at} is {g}, reference {w}");
        }
    }

    /// `B` and `C` are reals with signed zeros; `A` too, or with negative
    /// entries.
    fn check_gemm(rng: &mut Rng, m: usize, kk: usize, n: usize, inf_share: f64) {
        for negative in [false, true] {
            check_gemm_once(rng, m, kk, n, inf_share, negative);
        }
    }

    fn check_gemm_once(
        rng: &mut Rng,
        m: usize,
        kk: usize,
        n: usize,
        inf_share: f64,
        negative: bool,
    ) {
        let a = MinPlusMatrix::from_raw(m, kk, block(rng, m, kk, inf_share, negative));
        let b = MinPlusMatrix::from_raw(kk, n, block(rng, kk, n, inf_share, false));
        let c0 = MinPlusMatrix::from_raw(m, n, block(rng, m, n, inf_share, false));
        let mut want = c0.clone();
        let want_counts = reference_gemm(&mut want, &a, &b);
        for (name, body) in gemm_bodies() {
            let what =
                format!("{name} gemm {m}x{kk}x{n}, ∞ share {inf_share}, negative A {negative}");
            let mut got = c0.clone();
            let counts = body(got.as_mut_slice(), a.as_slice(), b.as_slice(), m, kk, n);
            assert_same_bits(got.as_slice(), want.as_slice(), &what);
            assert_eq!(counts, want_counts, "{what}");
        }
        for (name, kernel) in
            [("gemm", gemm as fn(&mut _, &_, &_) -> u64), ("gemm_parallel", gemm_parallel)]
        {
            let mut got = c0.clone();
            let ops = kernel(&mut got, &a, &b);
            let what = format!("{name} {m}x{kk}x{n}, ∞ share {inf_share}, negative A {negative}");
            assert_same_bits(got.as_slice(), want.as_slice(), &what);
            assert_eq!(ops, want_counts.ops, "{what}");
        }
    }

    /// Checks every FW body and `fw_in_place` against the classical loop;
    /// returns the reference closure.
    fn check_fw(input: &MinPlusMatrix, what: &str) -> MinPlusMatrix {
        let n = input.rows();
        let mut want = input.clone();
        let want_counts = reference_fw(&mut want);
        for (name, body) in fw_bodies() {
            let what = format!("{name} fw {what}");
            let mut got = input.clone();
            for i in 0..n {
                got.relax(i, i, 0.0);
            }
            let counts = body(got.as_mut_slice(), n);
            assert_same_bits(got.as_slice(), want.as_slice(), &what);
            assert_eq!(counts, want_counts, "{what}");
        }
        let mut got = input.clone();
        assert_eq!(fw_in_place(&mut got), want_counts.ops, "fw_in_place {what}");
        assert_same_bits(got.as_slice(), want.as_slice(), &format!("fw_in_place {what}"));
        want
    }

    #[test]
    fn gemm_bodies_match_the_scalar_loop_bit_for_bit() {
        let mut rng = Rng(7);
        for &s in SIZES {
            for inf_share in INF_SHARES {
                check_gemm(&mut rng, s, s, s, inf_share);
            }
        }
        // rectangular R²–R⁴ shapes: a tall separator against a thin block
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(0, 5, 7), (5, 0, 7), (5, 7, 0), (3, 17, 5), (64, 3, 64)]
        } else {
            &[(0, 5, 7), (5, 0, 7), (5, 7, 0), (17, 868, 48), (48, 868, 17), (96, 33, 80)]
        };
        for &(m, kk, n) in shapes {
            for inf_share in INF_SHARES {
                check_gemm(&mut rng, m, kk, n, inf_share);
            }
        }
    }

    #[test]
    fn fw_bodies_match_the_classical_loop_bit_for_bit() {
        let mut rng = Rng(11);
        for &n in SIZES {
            for inf_share in INF_SHARES {
                for potential in [false, true] {
                    let input =
                        MinPlusMatrix::from_raw(n, n, block(&mut rng, n, n, inf_share, potential));
                    let want = check_fw(
                        &input,
                        &format!("n={n}, ∞ share {inf_share}, negative arcs {potential}"),
                    );
                    // no negative cycle: the panelled path ran throughout
                    assert!((0..n).all(|i| want.get(i, i) >= 0.0));
                }
            }
        }
    }

    #[test]
    fn fw_negative_diagonal_takes_the_classical_path_bit_for_bit() {
        let n = if cfg!(miri) { 20 } else { 33 };
        let mut rng = Rng(13);
        for inf_share in INF_SHARES {
            // an input entry d[5][5] < 0: the very first panel falls back
            let mut input = MinPlusMatrix::from_raw(n, n, block(&mut rng, n, n, inf_share, true));
            input.set(5, 5, -1.0);
            let want = check_fw(&input, &format!("d[5][5] = -1, ∞ share {inf_share}"));
            assert!(want.get(5, 5) < 0.0);
            // a negative 2-cycle 17 ↔ 19: d[19][19] turns negative at step
            // 17, so the second panel falls back mid-panel at step 19
            let mut input = MinPlusMatrix::from_raw(n, n, block(&mut rng, n, n, inf_share, true));
            input.set(17, 19, -3.0);
            input.set(19, 17, 1.0);
            let want = check_fw(&input, &format!("cycle 17↔19, ∞ share {inf_share}"));
            assert!(want.get(19, 19) < 0.0);
        }
    }
}
