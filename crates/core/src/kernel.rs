//! The blocked lane width and the ingest split shared by the build and
//! query kernels.
//!
//! Both kernel enums ([`crate::atomic::BuildKernel`],
//! [`crate::query::QueryKernel`]) offer the same two implementations: the
//! scalar oracle and one blocked kernel, `Wide`, which evaluates the
//! instances of a 512-lane block (`BlockLane`) per bit-sliced pass. The
//! blocked kernel is every schema's default; an explicit
//! `with_kernel`/`set_kernel` picks the oracle. All kernels are
//! bit-identical, so the choice is purely about speed.
//!
//! One width serves every schema size. The workspace builds for baseline
//! x86-64, so the eight-word lane operations compile to SSE2 code whatever
//! the CPU; what a wider block buys is fewer per-block fixed costs. A
//! partly filled block (160 instances occupy 3 of 8 words) folds only its
//! occupied words, in fixed trip counts of 1, 2 or 4 words
//! (`fourwise::lane`), so it costs about what a block of the occupied
//! width would.
//!
//! [`dispatch_report`] exposes the resolved constants for probes and
//! tests.

use fourwise::Lane;
use std::sync::OnceLock;

/// The lane word of the blocked kernels' instance blocks: 512 instances
/// per bit-sliced pass.
pub(crate) type BlockLane = fourwise::WideLane512;

/// Object·instance products below which a blocked slice ingest
/// (`SketchSet::update_slice`) stays on the calling thread: below it a
/// scoped worker's start, its duplicate cover fill and the wake of an idle
/// core outweigh the half of the apply it takes over. Split-over-sequential
/// wall time of one slice at 1015 instances (two 512-lane blocks; join /
/// range words) on a 2-vCPU AVX-512 VM, worker on the second vCPU:
/// 16K obj·inst 1.25 / 1.17, 32K 1.09 / 1.12, 65K 0.99 / 0.85, 97K
/// 0.80 / 0.96, 130K 0.81 / 0.76, 260K 0.67 / 0.78, 520K 0.54 / 0.58. The
/// split breaks even near 2^16; a two-object feed tick at 1015 instances
/// sits 32× below it.
pub const INGEST_SPLIT_FLOOR: usize = 1 << 16;

/// Workers a blocked slice ingest may split its instance blocks across:
/// the machine's available parallelism, resolved once per process.
pub(crate) fn ingest_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The lane width (instances per block) the default kernels run for a
/// schema with `instances` boosting instances: 512 at every size.
pub fn preferred_lane_width(instances: usize) -> usize {
    let _ = instances;
    BlockLane::LANES
}

/// The kernel constants resolved at runtime: what probes record next to
/// every measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchReport {
    /// Workers a blocked slice ingest splits its instance blocks across.
    pub ingest_threads: usize,
}

/// The process-wide ingest worker cap, stable for the process.
pub fn dispatch_report() -> DispatchReport {
    DispatchReport {
        ingest_threads: ingest_threads(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_consistent_with_dispatch() {
        let report = dispatch_report();
        assert_eq!(report.ingest_threads, ingest_threads());
        assert!(report.ingest_threads >= 1);
        for instances in [1, 160, 400, 4100] {
            assert_eq!(preferred_lane_width(instances), 512);
        }
    }
}
