//! The open-loop ingest feed shared by stream-mix and rebalance-churn.

use crate::stack::sleep_until;
use crate::trace::{IngestTracer, Spans};
use datagen::Update;
use geometry::HyperRect;
use serve::ShardedStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One feed tick: its inserts, applied as one `insert_slice`, then its
/// deletes, applied as one `delete_slice`. Inserting first keeps every
/// delete valid: `churn_stream` only deletes objects live at that point of
/// the stream, and the tick's inserts only add to the live set.
pub struct Tick {
    pub inserts: Vec<HyperRect<2>>,
    pub deletes: Vec<HyperRect<2>>,
}

/// A count-based feed schedule: `ticks` ticks of `ops` churn updates each,
/// cut from `datagen::churn_stream` over `base` (deletes pick a live
/// object, inserts re-draw from the base pool, half and half).
pub fn schedule(base: &[HyperRect<2>], ticks: usize, ops: usize, seed: u64) -> Vec<Tick> {
    let stream = datagen::churn_stream(base, ticks * ops, 0.5, seed);
    stream[base.len()..]
        .chunks(ops)
        .map(|chunk| {
            let mut tick = Tick {
                inserts: Vec::new(),
                deletes: Vec::new(),
            };
            for u in chunk {
                match u {
                    Update::Insert(r) => tick.inserts.push(*r),
                    Update::Delete(r) => tick.deletes.push(*r),
                }
            }
            tick
        })
        .collect()
}

/// The live multiset after `base` and every tick, in a deterministic order.
pub fn live_after(base: &[HyperRect<2>], ticks: &[Tick]) -> Vec<HyperRect<2>> {
    let mut counts: HashMap<HyperRect<2>, i64> = HashMap::new();
    for r in base {
        *counts.entry(*r).or_default() += 1;
    }
    for t in ticks {
        for r in &t.inserts {
            *counts.entry(*r).or_default() += 1;
        }
        for r in &t.deletes {
            *counts.entry(*r).or_default() -= 1;
        }
    }
    let mut live: Vec<HyperRect<2>> = Vec::with_capacity(base.len());
    for (r, c) in counts {
        assert!(c >= 0, "feed deleted an object that was not live");
        live.extend(std::iter::repeat_n(r, c as usize));
    }
    live.sort_by_key(|r| (r.lo(), r.hi()));
    live
}

#[derive(Default)]
pub struct FeedRun {
    /// Tick completion minus its due time, µs: stalls count.
    pub due_us: Vec<f64>,
    /// Each store call from its start, µs.
    pub call_us: Vec<f64>,
    /// The tick each store call belongs to.
    pub call_tick: Vec<usize>,
    /// How late the generator started each tick, µs.
    pub late_us: Vec<f64>,
    pub calls: u64,
}

impl FeedRun {
    /// Ticks applied.
    pub fn ticks(&self) -> usize {
        self.due_us.len()
    }
}

/// Applies `ticks` to `store` on a fixed schedule (tick `i` is due at
/// `start + i * interval`), bumping `progress` after each, until the
/// schedule ends or `stop` is raised. With a tracer, every `stride`-th
/// tick's calls are decomposed layer by layer.
pub fn run(
    store: &ShardedStore<2>,
    ticks: &[Tick],
    start: Instant,
    interval: Duration,
    progress: &AtomicUsize,
    stop: Option<&AtomicBool>,
    mut tracer: Option<(&mut IngestTracer, &mut Spans, usize)>,
) -> FeedRun {
    let mut out = FeedRun::default();
    for (i, tick) in ticks.iter().enumerate() {
        let due = start + interval * i as u32;
        let late = sleep_until(due);
        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            break;
        }
        out.late_us.push(late);
        for (rects, delta, name) in [
            (&tick.inserts, 1, "store.insert_slice"),
            (&tick.deletes, -1, "store.delete_slice"),
        ] {
            if rects.is_empty() {
                continue;
            }
            let t = Instant::now();
            let applied = if delta > 0 {
                store.insert_slice(rects)
            } else {
                store.delete_slice(rects)
            };
            applied.expect("feed objects lie in the domain");
            let end = Instant::now();
            out.call_us.push((end - t).as_secs_f64() * 1e6);
            out.call_tick.push(i);
            out.calls += 1;
            if let Some((tr, spans, stride)) = tracer.as_mut() {
                if i % *stride == 0 {
                    let call = spans.record(i as u64, name, None, t, end);
                    tr.decompose(spans, i as u64, call, store, rects, delta);
                }
            }
        }
        out.due_us
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        progress.store(i + 1, Ordering::Release);
    }
    out
}
