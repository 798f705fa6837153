//! Kernel-width selection shared by the build and query dispatches.
//!
//! Both kernel enums ([`crate::atomic::BuildKernel`],
//! [`crate::query::QueryKernel`]) offer the same three implementations —
//! scalar oracle, 256-lane wide, 512-lane wide — and pick the same default
//! the same way, in dispatch order:
//!
//! 1. the `SKETCH_KERNEL` environment variable, when set to `scalar`,
//!    `wide` or `wide512`, pins every default-kernel code path in the
//!    process (the tests-release CI lane uses this to run the whole suite
//!    under each kernel of the matrix); otherwise
//! 2. the 256-lane kernel, unless the schema has at least
//!    [`WIDE512_MIN_INSTANCES`] instances *and* runtime CPU detection
//!    reports 512-bit vector registers (`avx512f`): then the 512-lane
//!    kernel. An eight-word lane on a 256-bit machine doubles register
//!    pressure for no extra lane-op throughput, and a mostly empty 512-lane
//!    block wastes its fixed per-block costs. Detection runs once per
//!    process via [`std::arch::is_x86_feature_detected`] on x86_64 and
//!    falls back to the portable 256-lane cap elsewhere.
//!
//! One 256-lane block serves every smaller schema: the occupancy-skip folds
//! (`fourwise::batch`) make a partly filled block cost about what its
//! occupied words cost, so narrower blocks have nothing left to win.
//!
//! Explicit kernel choices (`with_kernel`/`set_kernel`) always win over
//! both; all kernels are bit-identical, so selection is purely about speed.
//! [`dispatch_report`] exposes the resolved decision inputs for probes and
//! tests.

use std::sync::OnceLock;

/// Instance count at which schemas default to the 512-lane kernels (where
/// the CPU cap allows them): the point where one 512-lane block is ≥75%
/// occupied.
pub const WIDE512_MIN_INSTANCES: usize = 3 * fourwise::WIDE512_LANES / 4;

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

/// A resolved kernel width (no `Auto`): what the dispatches branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Width {
    Scalar,
    Wide,
    Wide512,
}

impl Width {
    /// Instance lanes per block at this width.
    pub(crate) fn lanes(self) -> usize {
        match self {
            Width::Scalar => 1,
            Width::Wide => fourwise::WIDE_LANES,
            Width::Wide512 => fourwise::WIDE512_LANES,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Width::Scalar => "scalar",
            Width::Wide => "wide",
            Width::Wide512 => "wide512",
        }
    }
}

/// The CPU's vector capability class, detected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuVector {
    /// 512-bit vector registers (`avx512f`): the 512-lane width is native.
    Avx512,
    /// 256-bit vector registers (`avx2`): cap at the 256-lane width.
    Avx2,
    /// No detected wide vectors (or a non-x86_64 target): the 256-lane
    /// width still wins on fixed costs, so the cap stays at 256 lanes.
    Portable,
}

impl CpuVector {
    /// Short name for probe records and logs.
    pub fn name(self) -> &'static str {
        match self {
            CpuVector::Avx512 => "avx512",
            CpuVector::Avx2 => "avx2",
            CpuVector::Portable => "portable",
        }
    }

    /// The widest lane width (in instance lanes) this capability prefers.
    pub fn max_lane_width(self) -> usize {
        match self {
            CpuVector::Avx512 => fourwise::WIDE512_LANES,
            CpuVector::Avx2 | CpuVector::Portable => fourwise::WIDE_LANES,
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_cpu() -> CpuVector {
    if std::arch::is_x86_feature_detected!("avx512f") {
        CpuVector::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        CpuVector::Avx2
    } else {
        CpuVector::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_cpu() -> CpuVector {
    CpuVector::Portable
}

/// The process-wide CPU vector capability, detected on first use.
pub fn cpu_vector() -> CpuVector {
    static CPU: OnceLock<CpuVector> = OnceLock::new();
    *CPU.get_or_init(detect_cpu)
}

/// Parses a `SKETCH_KERNEL` value. Empty strings mean "no override" so CI
/// matrices can pass the variable unconditionally.
pub(crate) fn parse_override(value: &str) -> Result<Option<Width>, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "" => Ok(None),
        "scalar" => Ok(Some(Width::Scalar)),
        "wide" => Ok(Some(Width::Wide)),
        "wide512" => Ok(Some(Width::Wide512)),
        other => Err(format!(
            "SKETCH_KERNEL must be `scalar`, `wide` or `wide512` (got `{other}`)"
        )),
    }
}

/// The process-wide `SKETCH_KERNEL` override, read once.
///
/// # Panics
///
/// Panics on an unrecognized value — a silently ignored override would make
/// a pinned test lane quietly measure the wrong kernel.
pub(crate) fn env_override() -> Option<Width> {
    static OVERRIDE: OnceLock<Option<Width>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| match std::env::var("SKETCH_KERNEL") {
        Ok(value) => parse_override(&value).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => None,
    })
}

/// The default kernel width for a schema with `instances` boosting
/// instances: the env override when present; otherwise the 256-lane width,
/// or the 512-lane one for schemas wide enough to fill it on a CPU with
/// 512-bit vectors.
pub(crate) fn preferred(instances: usize) -> Width {
    if let Some(width) = env_override() {
        return width;
    }
    if instances >= WIDE512_MIN_INSTANCES && cpu_vector() == CpuVector::Avx512 {
        Width::Wide512
    } else {
        Width::Wide
    }
}

/// Workers a blocked slice ingest may split its instance blocks across:
/// the machine's available parallelism, resolved once per process.
pub(crate) fn ingest_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The lane width (instances per block) the default dispatch picks for a
/// schema with `instances` boosting instances — the public, resolved view
/// of the dispatch chain for probes and dispatch-aware tests.
pub fn preferred_lane_width(instances: usize) -> usize {
    preferred(instances).lanes()
}

/// The inputs and caps of the kernel dispatch decision, resolved once at
/// runtime: what probes record next to every measurement and what
/// dispatch-aware tests branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchReport {
    /// The pinned `SKETCH_KERNEL` kernel name, if the variable is set.
    pub env_override: Option<&'static str>,
    /// Detected CPU vector capability class.
    pub cpu: CpuVector,
    /// Widest lane width the capability allows the heuristic to pick.
    pub max_lane_width: usize,
    /// Instance threshold for the 512-lane width (subject to the CPU cap).
    pub wide512_min_instances: usize,
    /// Workers a blocked slice ingest splits its instance blocks across.
    pub ingest_threads: usize,
}

/// The process-wide dispatch decision (env override → CPU capability →
/// instance threshold) and ingest worker cap, stable for the process.
pub fn dispatch_report() -> DispatchReport {
    DispatchReport {
        env_override: env_override().map(Width::name),
        cpu: cpu_vector(),
        max_lane_width: cpu_vector().max_lane_width(),
        wide512_min_instances: WIDE512_MIN_INSTANCES,
        ingest_threads: ingest_threads(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_parsing() {
        assert_eq!(parse_override(""), Ok(None));
        assert_eq!(parse_override("  "), Ok(None));
        assert_eq!(parse_override("scalar"), Ok(Some(Width::Scalar)));
        assert_eq!(parse_override("WIDE"), Ok(Some(Width::Wide)));
        assert_eq!(parse_override("wide512"), Ok(Some(Width::Wide512)));
        assert!(parse_override("simd").is_err());
        // The retired 64-lane width is rejected like any unknown name, and
        // the message lists only the widths that remain.
        let err = parse_override("batched").unwrap_err();
        assert!(err.contains("`scalar`, `wide` or `wide512`"), "{err}");
        assert!(!err.contains("`batched`,"), "{err}");
    }

    #[test]
    fn heuristic_switches_at_threshold() {
        // Dispatch-aware: under a SKETCH_KERNEL override every instance
        // count resolves to the pinned width; without one, every schema
        // runs 256 lanes up to the 512-lane threshold, then the CPU cap.
        if let Some(width) = env_override() {
            for instances in [1, 64, WIDE512_MIN_INSTANCES, 4100] {
                assert_eq!(preferred(instances), width);
            }
            return;
        }
        assert_eq!(preferred(1), Width::Wide);
        assert_eq!(preferred(160), Width::Wide);
        assert_eq!(preferred(WIDE512_MIN_INSTANCES - 1), Width::Wide);
        let top = if cpu_vector() == CpuVector::Avx512 {
            Width::Wide512
        } else {
            Width::Wide
        };
        assert_eq!(preferred(WIDE512_MIN_INSTANCES), top);
        assert_eq!(preferred(4100), top);
    }

    #[test]
    fn report_is_consistent_with_dispatch() {
        let report = dispatch_report();
        assert_eq!(report.cpu, cpu_vector());
        assert_eq!(report.max_lane_width, cpu_vector().max_lane_width());
        assert!(report.max_lane_width >= fourwise::WIDE_LANES);
        assert_eq!(report.wide512_min_instances, WIDE512_MIN_INSTANCES);
        assert!(report.ingest_threads >= 1);
        match report.env_override {
            Some(name) => {
                assert!(["scalar", "wide", "wide512"].contains(&name));
                assert_eq!(
                    preferred_lane_width(WIDE512_MIN_INSTANCES),
                    env_override().unwrap().lanes()
                );
            }
            None => {
                // The resolved lane width never exceeds the CPU cap.
                for instances in [1, 200, 400, 4100] {
                    assert!(preferred_lane_width(instances) <= report.max_lane_width);
                }
            }
        }
    }
}
