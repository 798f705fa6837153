//! Metric tables, percentiles and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`. The timed
/// ones are read at the fast end of their distributions (see
/// [`FAST_Q`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p2_us", "us"),
    ("ingest_p2_us", "us"),
    ("sel_err_p50", "fraction"),
    ("sel_err_p90", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A layer the
/// workload does not exercise reads 0 with a sample count of 0. The
/// whole-window figures and the two tails lead the list: the host's
/// slow stretches move them far past any bound a run-to-run gate could
/// hold, so they are reported here, unbounded, beside the layers that
/// explain them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("window.qps", "queries/s"),
    ("window.query_p50_us", "us"),
    ("window.ingest_p50_us", "us"),
    ("wire.query_p99_us", "us"),
    ("feed.ingest_p99_us", "us"),
    ("net.overhead_p50_us", "us"),
    ("net.coalesce_factor", "ratio"),
    ("net.shed_ratio", "ratio"),
    ("service.answer_batch_p50_us", "us"),
    ("router.batch_p50_us", "us"),
    ("router.single_p50_us", "us"),
    ("context.swaps_per_query", "ratio"),
    ("context.view_merge_us", "us"),
    ("range.batch_ns_per_query_inst", "ns"),
    ("range.single_ns_per_inst", "ns"),
    ("query.plan_hit_ratio", "ratio"),
    ("query.multi_plan_hit_ratio", "ratio"),
    ("boost.p50_ns", "ns"),
    ("join.estimate_p50_us", "us"),
    ("join.frame_p50_us", "us"),
    ("join.rel_err", "fraction"),
    ("store.ingest_p50_us", "us"),
    ("store.ingest_p99_us", "us"),
    ("store.stage_clone_p50_us", "us"),
    ("atomic.apply_ns_per_obj_inst", "ns"),
    ("store.publish_us", "us"),
    ("rebalance.split_ms_p50", "ms"),
    ("rebalance.move_ms_p50", "ms"),
    ("rebalance.merge_us_p50", "us"),
    ("rebalance.topology_op_p50_ms", "ms"),
    ("rebalance.replay_ns_per_rect_inst", "ns"),
    ("rebalance.journal_entries", "count"),
    ("feed.late_p99_us", "us"),
    ("setup.build_s", "s"),
    ("setup.serve_s", "s"),
    ("trace.query_p2_us", "us"),
    ("trace.frame_mean_us", "us"),
    ("trace.net_self_us", "us"),
    ("trace.service_self_us", "us"),
    ("trace.router_self_us", "us"),
    ("trace.estimator_us", "us"),
    ("trace.sampled_frames", "count"),
];

/// The whole-window figures beside the fast end-to-end ones.
const WHOLE_WINDOW: &[(&str, &str)] = &[
    ("window.qps", "queries/s"),
    ("window.query_p50_us", "us"),
    ("window.ingest_p50_us", "us"),
];

/// One measured value with the sample count behind it and, for
/// percentiles, the percentile actually reported.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
    pub pct: Option<f64>,
    /// Sub-windows the value is the median over (1: the whole run).
    pub windows: usize,
}

impl Value {
    pub fn scalar(value: f64, samples: usize) -> Self {
        Self {
            value,
            samples,
            pct: None,
            windows: 1,
        }
    }
}

/// Most sub-windows a tail percentile is split over.
const MAX_WINDOWS: usize = 7;

/// The percentile nearest `q` towards the median with at least ten samples
/// beyond it (nearest rank), so neither end of a distribution is read from
/// a handful of points. Returns `None` for fewer than 20 samples: not even
/// the median is supported then.
pub fn percentile(samples: &[f64], q: f64) -> Option<Value> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let supported = if q < 0.5 {
        q.max(10.0 / n as f64)
    } else {
        q.min(1.0 - 10.0 / n as f64)
    };
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((supported * n as f64).ceil() as usize).clamp(1, n);
    Some(Value {
        value: sorted[rank - 1],
        samples: n,
        pct: Some(supported * 100.0),
        windows: 1,
    })
}

/// A tail percentile that one transient stall cannot move: the median of
/// the percentile over up to `MAX_WINDOWS` consecutive sub-windows of the
/// samples (in arrival order), each large enough to support the
/// percentile on its own. Too few samples for two windows fall back to
/// [`percentile`] over the whole run.
pub fn windowed(samples: &[f64], q: f64) -> Option<Value> {
    let need = (10.0 / (1.0 - q)).round() as usize;
    let k = (samples.len() / need.max(1)).min(MAX_WINDOWS);
    if k <= 1 {
        return percentile(samples, q);
    }
    let chunk = samples.len() / k;
    let mut per_window: Vec<f64> = (0..k)
        .map(|w| {
            percentile(&samples[w * chunk..(w + 1) * chunk], q)
                .expect("each window supports the percentile")
                .value
        })
        .collect();
    per_window.sort_by(f64::total_cmp);
    let median = if k % 2 == 1 {
        per_window[k / 2]
    } else {
        (per_window[k / 2 - 1] + per_window[k / 2]) / 2.0
    };
    Some(Value {
        value: median,
        samples: samples.len(),
        pct: Some(q * 100.0),
        windows: k,
    })
}

/// Where the timed end-to-end figures read their distributions: the
/// fastest 2%. The host is a shared virtual machine whose other tenants
/// slow it by up to half for seconds to minutes at a time, and only ever
/// slow it: a median or a whole-window rate measures how long the slow
/// stretches lasted, while the fast end of the per-operation distribution
/// measures the program at the host's full speed. Over two such stretches
/// the whole-window throughput of optimizer-hot moved by 30%, its p2 round
/// trip by 8%.
pub const FAST_Q: f64 = 0.02;

/// Completed count over the whole window of a completion curve.
pub fn window_rate(curve: &[(f64, u64)]) -> Value {
    let (t, n) = curve.last().copied().unwrap_or((0.0, 0));
    Value::scalar(n as f64 / t, n as usize)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness problems other than failed operations (a non-finite
    /// value, spans that could not be written).
    pub problems: Vec<String>,
    /// Percentiles the schedule could not support, by metric: a problem
    /// when the run prints that metric.
    unsupported: Vec<(&'static str, String)>,
    /// Run description: configuration, seeds, dispatch.
    pub config: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, v: Value) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, v);
    }

    pub fn scalar(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set(name, Value::scalar(value, samples));
    }

    /// Sets a percentile metric; an unsupported one is a correctness
    /// problem, not a silently smaller sample.
    pub fn pct(&mut self, name: &'static str, samples: &[f64], q: f64) {
        self.put(name, percentile(samples, q), samples.len(), q);
    }

    /// Sets a tail metric from time-ordered samples (see [`windowed`]).
    pub fn tail(&mut self, name: &'static str, samples: &[f64], q: f64) {
        self.put(name, windowed(samples, q), samples.len(), q);
    }

    fn put(&mut self, name: &'static str, v: Option<Value>, n: usize, q: f64) {
        match v {
            Some(v) => self.set(name, v),
            None => self.unsupported.push((
                name,
                format!("{name}: {n} samples cannot support p{}", q * 100.0),
            )),
        }
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.config.push((key.to_string(), value.to_string()));
    }

    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what.to_string());
        }
    }

    /// Prints the human-readable table, the run description and, last, the
    /// one-line JSON result.
    pub fn print(mut self, workload: &str, trace: bool) {
        let table = if trace { PER_LAYER } else { END_TO_END };
        for (name, problem) in std::mem::take(&mut self.unsupported) {
            if table.iter().any(|(n, _)| *n == name) {
                self.problems.push(problem);
            }
        }
        let mut metrics = Vec::new();
        println!(
            "== {workload}: {} metrics ==",
            if trace { "per-layer" } else { "end-to-end" }
        );
        for &(name, unit) in table {
            let v = self
                .values
                .get(name)
                .copied()
                .unwrap_or(Value::scalar(0.0, 0));
            if !v.value.is_finite() {
                self.problems.push(format!("{name} is not finite"));
            }
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            let basis = basis(&v);
            println!("  {name:<34} {value:>14.4} {unit:<10} ({basis})");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if !trace {
            // The whole-window figures beside the fast ones, for
            // reading a run; the traced run reports them as metrics.
            for &(name, unit) in WHOLE_WINDOW {
                if let Some(v) = self.values.get(name) {
                    println!("  {name:<34} {:>14.4} {unit:<10} ({})", v.value, basis(v));
                }
            }
        }
        println!("  ops attempted {}, failed {}", self.attempted, self.failed);
        for p in &self.problems {
            println!("  problem: {p}");
        }
        let config: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        println!("config {{{}}}", config.join(", "));
        let correct = self.failed == 0 && self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn basis(v: &Value) -> String {
    match (v.pct, v.windows) {
        (Some(p), 1) => format!("p{p:.1} of n={}", v.samples),
        (Some(p), k) => format!("p{p:.1}, median of {k} windows, n={}", v.samples),
        (None, _) => format!("n={}", v.samples),
    }
}

/// The machine's `(steal, total)` CPU jiffies from `/proc/stat`: time the
/// hypervisor ran someone else on this machine's CPUs, a noise source every
/// wall-clock figure here is exposed to, recorded so a disturbed run shows.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.pct), (990.0, Some(99.0)));
        // 500 samples support only p98: ten beyond it.
        let p = percentile(&samples[..500], 0.99).unwrap();
        assert_eq!(p.value, 490.0);
        assert!(percentile(&samples[..19], 0.5).is_none());
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        let mut samples = vec![1.0; 7000];
        samples[10..40].iter_mut().for_each(|s| *s = 1e6);
        let v = windowed(&samples, 0.99).unwrap();
        assert_eq!((v.value, v.windows), (1.0, 7));
        assert_eq!(percentile(&samples, 0.99).unwrap().value, 1.0);
        assert_eq!(windowed(&samples[..1500], 0.99).unwrap().windows, 1);
        assert_eq!(windowed(&samples[..2500], 0.99).unwrap().windows, 2);
    }

    #[test]
    fn low_percentile_needs_ten_samples_below() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p2 = percentile(&samples, 0.02).unwrap();
        assert_eq!((p2.value, p2.pct), (20.0, Some(2.0)));
        // 250 samples support only p4: ten below it.
        let p = percentile(&samples[..250], 0.02).unwrap();
        assert_eq!(p.value, 10.0);
    }
}
