//! End-to-end and per-layer benchmark of the spatial-sketch serving stack.
//!
//! ```text
//! perfbench --workload <optimizer-hot|stream-mix|rebalance-churn>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a table, a `config {...}` line, and as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics untraced, the per-layer metrics traced). See `README.md`.

mod feed;
mod report;
mod stack;
mod trace;
mod workloads;

/// Environment knobs that change the program under test. They are cleared
/// before anything reads them, so a run measures the default kernel
/// dispatch and the explicit `ServeConfig`, whatever the caller's shell
/// exports.
const PINNED_ENV: [&str; 3] = [
    "SKETCH_KERNEL",
    "SKETCH_NET_REACTORS",
    "SKETCH_NET_COALESCE_US",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let mut cleared = Vec::new();
    for key in PINNED_ENV {
        if let Ok(v) = std::env::var(key) {
            cleared.push(format!("{key}={v}"));
        }
        // Single-threaded here: no other thread can observe the change.
        std::env::remove_var(key);
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let run = match args.workload.as_str() {
        "optimizer-hot" => workloads::optimizer_hot,
        "stream-mix" => workloads::stream_mix,
        "rebalance-churn" => workloads::rebalance_churn,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let before = report::cpu_jiffies();
    let mut report = run(&args);
    if let (Some((s0, t0)), Some((s1, t1))) = (before, report::cpu_jiffies()) {
        let pct = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report.note("cpu_steal_pct", format!("{pct:.1}"));
    }
    let dispatch = sketch::kernel::dispatch_report();
    report.note("workload", &args.workload);
    report.note("trace", u8::from(args.trace));
    report.note(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.note("dispatch", format!("{dispatch:?}"));
    report.note("env_cleared", format!("{cleared:?}"));
    report.print(&args.workload, args.trace);
}
