//! Kernel perf counters: how much work the min-plus kernels actually did
//! on the host.
//!
//! Counters are recorded **once per kernel call** (never inside an inner
//! loop — a handful of relaxed atomic adds per `gemm`), into the global
//! [`apsp_metrics`] registry. They are completely separate from the §3.1
//! cost ledgers: a `Comm` clock counts critical-path semiring ops on the
//! *simulated machine*, while these counters sum host-side work over
//! every thread. `minplus_ops` and the cost ledgers agree per call by
//! construction (both come from the kernel's return value); the skip and
//! bytes-touched counters exist only here.

use apsp_metrics::{global, Counter, Histogram};
use std::sync::{Arc, OnceLock};

/// The registered kernel counters (see module docs for semantics).
pub struct KernelCounters {
    /// `gemm`/`gemm_parallel` invocations.
    pub gemm_calls: Arc<Counter>,
    /// Scalar `min(c, a + b)` relaxations executed by GEMM kernels.
    pub gemm_ops: Arc<Counter>,
    /// Per-call GEMM op distribution (log2 buckets).
    pub gemm_ops_hist: Arc<Histogram>,
    /// `fw_in_place` invocations.
    pub fw_calls: Arc<Counter>,
    /// Scalar relaxations executed by the FW closure.
    pub fw_ops: Arc<Counter>,
    /// Inner rows skipped through the `∞` fast path (GEMM `A[i][k] = ∞`
    /// and FW `d[i][k] = ∞` skips).
    pub inf_row_skips: Arc<Counter>,
    /// Approximate bytes touched by the kernels: 8 bytes per operand
    /// scan entry plus 16 per relaxation (read + read-modify-write). This
    /// is a model with no cache reuse: the panelled FW and the row-kernel
    /// GEMM stream far less from memory than it books. It is kept as is so
    /// that the counter repeats exactly across kernel rewrites; a
    /// tiling-aware model would be a change of its own.
    pub bytes_touched: Arc<Counter>,
    /// Block-level updates performed by `blocked_fw`.
    pub block_updates: Arc<Counter>,
    /// Block-level updates skipped because an operand block was
    /// structurally empty (§4.1 avoidance, measured).
    pub block_skips: Arc<Counter>,
}

/// The process-wide kernel counters (registered on first use).
pub fn counters() -> &'static KernelCounters {
    static COUNTERS: OnceLock<KernelCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = global();
        KernelCounters {
            gemm_calls: r
                .counter("apsp_minplus_gemm_calls_total", "Min-plus GEMM kernel invocations."),
            gemm_ops: r.counter(
                "apsp_minplus_gemm_ops_total",
                "Scalar min-plus relaxations executed by GEMM kernels.",
            ),
            gemm_ops_hist: r.histogram(
                "apsp_minplus_gemm_ops",
                "Per-call GEMM scalar-op distribution (log2 buckets).",
            ),
            fw_calls: r.counter(
                "apsp_minplus_fw_calls_total",
                "In-place Floyd-Warshall closure invocations.",
            ),
            fw_ops: r.counter(
                "apsp_minplus_fw_ops_total",
                "Scalar relaxations executed by the FW closure.",
            ),
            inf_row_skips: r.counter(
                "apsp_minplus_inf_row_skips_total",
                "Inner rows skipped through the infinity fast path.",
            ),
            bytes_touched: r.counter(
                "apsp_minplus_bytes_touched_total",
                "Approximate bytes touched by min-plus kernels.",
            ),
            block_updates: r.counter(
                "apsp_minplus_block_updates_total",
                "Block-level updates performed by blocked FW.",
            ),
            block_skips: r.counter(
                "apsp_minplus_block_skips_total",
                "Block-level updates skipped as structurally empty.",
            ),
        }
    })
}

/// Records one GEMM call: `ops` relaxations, `skips` ∞-skipped rows,
/// `scanned` operand entries read while scanning.
#[inline]
pub(crate) fn record_gemm(ops: u64, skips: u64, scanned: u64) {
    let c = counters();
    c.gemm_calls.inc();
    c.gemm_ops.add(ops);
    c.gemm_ops_hist.record(ops);
    c.inf_row_skips.add(skips);
    c.bytes_touched.add(8 * scanned + 16 * ops);
}

/// Records one `fw_in_place` call.
#[inline]
pub(crate) fn record_fw(ops: u64, skips: u64, scanned: u64) {
    let c = counters();
    c.fw_calls.inc();
    c.fw_ops.add(ops);
    c.inf_row_skips.add(skips);
    c.bytes_touched.add(8 * scanned + 16 * ops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{fw_in_place, gemm};
    use crate::matrix::MinPlusMatrix;
    use crate::INF;

    // counters are global and other tests in this binary also run
    // kernels concurrently, so assertions are on *deltas being at least*
    // the known contribution of this test's own calls.

    #[test]
    fn gemm_feeds_the_counters() {
        let c = counters();
        let (calls0, ops0, skips0, bytes0) =
            (c.gemm_calls.get(), c.gemm_ops.get(), c.inf_row_skips.get(), c.bytes_touched.get());
        let a = MinPlusMatrix::from_raw(2, 2, vec![0.0, 1.0, INF, 0.0]);
        let b = MinPlusMatrix::from_raw(2, 2, vec![5.0, INF, 2.0, 0.0]);
        let mut out = MinPlusMatrix::empty(2, 2);
        let ops = gemm(&mut out, &a, &b);
        assert_eq!(ops, 6);
        assert!(c.gemm_calls.get() > calls0);
        assert!(c.gemm_ops.get() >= ops0 + 6);
        assert!(c.inf_row_skips.get() > skips0, "one ∞ entry in A");
        // scanned = 4 entries of A; 8*4 + 16*6 = 128
        assert!(c.bytes_touched.get() >= bytes0 + 128);
    }

    #[test]
    fn fw_feeds_the_counters() {
        let c = counters();
        let (calls0, ops0) = (c.fw_calls.get(), c.fw_ops.get());
        let mut a = MinPlusMatrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let ops = fw_in_place(&mut a);
        assert_eq!(ops, 64);
        assert!(c.fw_calls.get() > calls0);
        assert!(c.fw_ops.get() >= ops0 + 64);
    }
}
