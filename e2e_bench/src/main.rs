//! End-to-end loopback-TCP benchmark of the cyclesteal serving stack,
//! with a traced per-layer replay. See `README.md` in this directory.
//!
//! ```text
//! e2e_bench --workload <warm_batch|sweep_stream|cold_mix> --seed <n> --seconds <s> --trace <0|1>
//! e2e_bench --list
//! ```

mod catalogue;
mod drive;
mod inputs;
mod layers;
mod procstat;
mod rng;
mod stats;

use drive::{Instance, Measured};
use inputs::{Inputs, Workload};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Fresh server instances per run; each measures `seconds / SEGMENTS`.
const SEGMENTS: usize = 12;
/// Set-up-only instances started before the segments (each segment's
/// own set-up is measured too).
const EXTRA_SETUPS: usize = 60;
/// Unrecorded closed-loop traffic at the start of every segment.
const WARMUP: Duration = Duration::from_millis(200);
/// Idle windows after every segment, and their length; as many
/// reference-loop windows follow once the segment's server is stopped.
const IDLE_WINDOWS: usize = 8;
const IDLE_EACH: Duration = Duration::from_millis(50);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            catalogue::print();
            return;
        }
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    match outcome {
        Ok(report) => {
            report.print();
            if !report.correct {
                eprintln!("e2e_bench: wrong or failed answers, see error_rate");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(1);
        }
    }
}

/// One segment's figures (all from its own instance).
struct Segment {
    traced: bool,
    m: Measured,
}

impl Segment {
    fn warm_sorted(&self) -> Vec<u64> {
        let mut w = self.m.tally.warm_ns.clone();
        w.sort_unstable();
        w
    }

    /// The warm round trip at percentile `q`, lowered by the tail rule
    /// when the segment has too few samples: `(µs, percentile used)`.
    fn rtt_tail_us(&self, q: f64) -> Option<(f64, f64)> {
        stats::tail(&self.warm_sorted(), q).map(|(ns, q)| (ns as f64 / 1e3, q))
    }

    fn per_s(&self, n: u64) -> f64 {
        n as f64 / self.m.secs
    }

    fn cpu_us_per_request(&self) -> Option<f64> {
        let server = self.m.server_cpu_ns?;
        (self.m.tally.requests > 0).then(|| server as f64 / 1e3 / self.m.tally.requests as f64)
    }
}

/// The median over segments of their warm round trip at percentile
/// `q` (by the tail rule), in µs.
fn rtt(segments: &[&Segment], q: f64) -> Option<f64> {
    across(segments, |s| s.rtt_tail_us(q).map(|t| t.0))
}

/// Median over segments of a per-segment figure (absent if any
/// segment's is).
fn across(segments: &[&Segment], f: impl Fn(&Segment) -> Option<f64>) -> Option<f64> {
    per_segment(segments, f).map(|v| stats::median(&v))
}

fn per_segment(segments: &[&Segment], f: impl Fn(&Segment) -> Option<f64>) -> Option<Vec<f64>> {
    let v: Option<Vec<f64>> = segments.iter().map(|s| f(s)).collect();
    v.filter(|v| !v.is_empty())
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed above the result.
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value) in &self.metrics {
            println!("  {name:<32} {value:>16.4} {}", catalogue::unit(name));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    catalogue::unit(name)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn copy_corpus(inputs: &Inputs, corpus: &Path) -> io::Result<()> {
    std::fs::create_dir_all(corpus)?;
    for table in &inputs.corpus {
        let path = corpus.join(cyclesteal_store::snapshot_file_name(table));
        cyclesteal_store::save(table, &path)
            .map_err(|e| io::Error::other(format!("corpus: {e}")))?;
    }
    Ok(())
}

fn run(args: &Args, work: &Path) -> io::Result<Report> {
    // Prep (untimed): inputs, references, snapshot corpus.
    let inputs = inputs::prepare(args.workload, args.seed);
    let corpus = work.join("corpus");
    copy_corpus(&inputs, &corpus)?;

    let mut setups = Vec::new();
    for k in 0..EXTRA_SETUPS {
        let (inst, secs) = Instance::start(&inputs, &corpus, work.join(format!("setup-{k}")))?;
        setups.push(secs);
        inst.stop();
    }

    let seg_time = Duration::from_secs_f64(args.seconds as f64 / SEGMENTS as f64);
    let mut segments = Vec::new();
    let mut broker_totals = BrokerTotals::default();
    let mut idle = Vec::new();
    let reference = drive::RefLoop::new()?;
    let mut ref_windows = Vec::new();
    let mut journal = None;
    for k in 0..SEGMENTS {
        // The traced run alternates untraced and traced segments, so the
        // tracing overhead is a within-run ratio.
        let traced = args.trace && k % 2 == 1;
        let (mut inst, setup) = Instance::start(&inputs, &corpus, work.join(format!("seg-{k}")))?;
        setups.push(setup);
        let m = drive::drive(&mut inst, &inputs, WARMUP, seg_time, traced, k as u64);
        broker_totals.add(&inst);
        idle.extend(drive::idle(IDLE_WINDOWS, IDLE_EACH));
        if args.trace && k == SEGMENTS - 1 {
            journal = Some(inst.clients[0].fetch_metrics()?.1);
        }
        inst.stop();
        release_freed_memory();
        ref_windows.extend(reference.windows(IDLE_WINDOWS, IDLE_EACH));
        segments.push(Segment { traced, m });
    }

    let plain: Vec<&Segment> = segments.iter().filter(|s| !s.traced).collect();
    let attempted: u64 = segments.iter().map(|s| s.m.tally.requests).sum();
    let failed: u64 = segments
        .iter()
        .map(|s| s.m.tally.failed + s.m.tally.wrong)
        .sum();
    let mut notes = vec![format!(
        "{} seed={} seconds={} trace={} segments={SEGMENTS}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )];
    let warm_samples: usize = plain.iter().map(|s| s.m.tally.warm_ns.len()).sum();
    let tail_pct = plain
        .iter()
        .filter_map(|s| s.rtt_tail_us(0.99))
        .map(|(_, q)| q)
        .fold(1.0, f64::min);
    notes.push(format!(
        "warm samples {warm_samples} over {} segments (per-segment figures, median across segments); rtt_p99_us read at p{:.1}",
        plain.len(),
        tail_pct * 100.0
    ));
    let error_rate = failed as f64 / attempted.max(1) as f64;

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut put = |name: &'static str, v: Option<f64>| {
        if let Some(v) = v.filter(|v| v.is_finite()) {
            metrics.push((name, v));
        }
    };
    // Every idle figure is the mean over the run's windows (they are
    // all equally long). The host's other tenants change what a wakeup
    // costs, for the server and the reference loop alike, so their
    // ratio is the steady figure.
    let idle_cpu = mean(idle.iter().map(|w| w.cpu_ms_per_s));
    let idle_wakeups = mean(idle.iter().map(|w| w.wakeups_per_s));
    let ref_cpu = mean(ref_windows.iter().copied());
    let idle_ratio = idle_cpu.zip(ref_cpu).map(|(s, r)| s / r);
    let cpu_per_request = across(&plain, Segment::cpu_us_per_request);
    notes.push(format!(
        "idle over {} windows: server {:.2} ms/s at {:.0} wakeups/s; reference loop {:.2} ms/s",
        idle.len(),
        idle_cpu.unwrap_or(f64::NAN),
        idle_wakeups.unwrap_or(f64::NAN),
        ref_cpu.unwrap_or(f64::NAN),
    ));

    let mut cold: Vec<u64> = plain
        .iter()
        .flat_map(|s| s.m.tally.cold_ns.iter().copied())
        .collect();
    cold.sort_unstable();
    let cold_p50 = stats::percentile(&cold, 0.5).map(|ns| ns as f64 / 1e6);
    let cold_tail = stats::tail(&cold, 0.90);
    if let Some((_, q)) = cold_tail {
        notes.push(format!(
            "cold samples {} ; cold tail at p{:.1}",
            cold.len(),
            q * 100.0
        ));
    }

    if !args.trace {
        put("setup_s", Some(stats::median(&setups)));
        put(
            "values_per_s",
            across(&plain, |s| {
                Some(s.per_s(s.m.tally.queries + s.m.tally.ticks))
            }),
        );
        put("rtt_p50_us", rtt(&plain, 0.5));
        put("rtt_p90_us", rtt(&plain, 0.9));
        put("cpu_us_per_request", cpu_per_request);
        put("idle_cpu_vs_ref_loop", idle_ratio);
        put(
            "peak_rss_mb",
            across(&plain, |s| s.m.peak_rss_kb.map(|kb| kb as f64 / 1024.0)),
        );
    } else {
        let traced: Vec<&Segment> = segments.iter().filter(|s| s.traced).collect();
        let plain_p50 = rtt(&plain, 0.5);
        let traced_p50 = rtt(&traced, 0.5);
        put("rtt_p99_us", rtt(&plain, 0.99));
        put(
            "queries_per_s",
            across(&plain, |s| Some(s.per_s(s.m.tally.queries))),
        );
        put(
            "sweep_ticks_per_s",
            across(&plain, |s| Some(s.per_s(s.m.tally.ticks))),
        );
        put("cold_p50_ms", Some(cold_p50.unwrap_or(0.0)));
        put(
            "cold_p90_ms",
            Some(cold_tail.map_or(0.0, |(ns, _)| ns as f64 / 1e6)),
        );
        put("cold_samples", Some(cold.len() as f64));
        put("warm_samples", Some(warm_samples as f64));
        put("error_rate", Some(error_rate));

        let layers = layers::replay(&inputs, &corpus, &work.join("replay"))?;
        let sent: HashSet<u64> = traced
            .iter()
            .flat_map(|s| s.m.tally.traced.iter().map(|t| t.0))
            .collect();
        let (joined, spans) = layers::journal_spans(journal.as_deref().unwrap_or(&[]), &sent);
        let wire_us = (layers["wire.encode_ns"] + layers["wire.decode_ns"]) / 1e3;
        let broker_us = layers["broker.batch_ns"] / 1e3;
        // Client-side expansion is on the round trip only when the
        // clients themselves send sweeps.
        let sweeps_on_wire = inputs
            .plans
            .iter()
            .any(|p| matches!(p, inputs::Plan::Sweeps(_)));
        let client_us = if sweeps_on_wire {
            layers["client.expand_ns"] / 1e3
        } else {
            0.0
        };
        let unattributed = traced_p50.map(|rtt| rtt - wire_us - broker_us - client_us);
        for (name, v) in &layers {
            if catalogue::unit(name).is_empty() {
                continue;
            }
            put(name, Some(*v));
        }
        let b = &broker_totals;
        let lookups = b.hits + b.misses;
        put(
            "cache.hit_ratio",
            Some(if lookups == 0 {
                1.0
            } else {
                b.hits as f64 / lookups as f64
            }),
        );
        put("cache.misses", Some(b.misses as f64));
        put("cache.evictions", Some(b.evictions as f64));
        put("server.unattributed_us", unattributed);
        for (name, v) in spans {
            put(name, Some(v));
        }
        put("server.joined_traces", Some(joined as f64));
        put("broker.shed", Some(b.shed as f64));
        put("broker.tenant_sheds", Some(b.tenant_sheds as f64));
        put("broker.deadline_rejects", Some(b.deadline_rejects as f64));
        put("broker.coalesced", Some(b.coalesced as f64));
        put("idle_cpu_ms_per_s", idle_cpu);
        put("idle.wakeups_per_s", idle_wakeups);
        put(
            "trace.overhead_ratio",
            traced_p50.zip(plain_p50).map(|(t, p)| t / p),
        );

        notes.push(layer_table(args.workload, &layers));
        notes.push(format!(
            "layer sum ({}): wire {wire_us:.1} + broker {broker_us:.1} (cache {:.1} + eval {:.1} + self {:.1}) + client {client_us:.1} = {:.1} us \
             vs traced rtt_p50_us {:.1}; server.unattributed_us = {:.1}",
            args.workload.name(),
            layers["layer.cache_per_req_ns"] / 1e3,
            layers["layer.eval_per_req_ns"] / 1e3,
            layers["broker.self_ns"] / 1e3,
            wire_us + broker_us + client_us,
            traced_p50.unwrap_or(f64::NAN),
            unattributed.unwrap_or(f64::NAN),
        ));
        notes.push(format!(
            "op-4 journal: {joined} of {} traced requests joined on trace id",
            sent.len()
        ));
    }

    Ok(Report {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    })
}

/// Hands the heap pages that a stopped instance freed back to the
/// kernel, so that free memory left in the allocator's arenas by
/// earlier instances does not count in the next segment's `VmRSS`.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers; it only
        // returns free pages of the heap to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Mean of per-window figures (absent if any window's is).
fn mean(values: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    values
        .collect::<Option<Vec<f64>>>()
        .filter(|v| !v.is_empty())
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
}

fn layer_table(workload: Workload, layers: &BTreeMap<&'static str, f64>) -> String {
    let mut out = format!("per-layer table ({}):", workload.name());
    for (name, v) in layers {
        out.push_str(&format!(
            "\n  {name:<32} {v:>16.1} {}",
            catalogue::unit(name)
        ));
    }
    out
}

/// Broker counters summed over every instance of the run.
#[derive(Default)]
struct BrokerTotals {
    hits: u64,
    misses: u64,
    evictions: u64,
    shed: u64,
    tenant_sheds: u64,
    deadline_rejects: u64,
    coalesced: u64,
}

impl BrokerTotals {
    fn add(&mut self, inst: &Instance) {
        let s = inst.broker.stats();
        self.hits += s.cache.hits;
        self.misses += s.cache.misses;
        self.evictions += s.cache.evictions;
        self.shed += s.resilience.shed;
        self.tenant_sheds += s.resilience.tenant_sheds;
        self.deadline_rejects += s.resilience.deadline_rejects;
        self.coalesced += s.endpoints.iter().map(|e| e.coalesced).sum::<u64>();
    }
}
