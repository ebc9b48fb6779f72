//! The traced half: replays a run's seeded requests through each
//! layer's public functions in-process, timing every call with a
//! benchmark-side span, and joins the server's own op-4 span journal
//! on the trace ids the traced TCP segments sent. Nothing inside the
//! program is instrumented for this.

use crate::inputs::{Batch, Inputs, Plan, Sweep};
use crate::stats::median;
use cyclesteal_core::time::Time;
use cyclesteal_dp::{expand_value_runs, CompressedTable, Phase, PhaseRecorder};
use cyclesteal_obs::SpanRecord;
use cyclesteal_serve::{wire, Broker, BrokerConfig, WallClock};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Passes over the request set; each layer reports its median call.
const PASSES: usize = 5;

/// Per-layer figures of one workload, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Times `f` once, returning its result and the elapsed ns.
fn span<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_nanos() as f64)
}

/// Per-request samples of one layer, over every pass.
#[derive(Default)]
struct Samples(HashMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// Replays the warm requests of `inputs` on a broker warmed from a
/// private copy of `corpus`, and the cold contracts on the solver.
pub fn replay(inputs: &Inputs, corpus: &Path, dir: &Path) -> io::Result<Layers> {
    let mut out = Layers::new();
    store_layer(corpus, &mut out)?;

    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(corpus)? {
        let path = entry?.path();
        if let Some(name) = path.file_name() {
            std::fs::copy(&path, dir.join(name))?;
        }
    }
    let broker = Broker::new(BrokerConfig {
        snapshot_dir: Some(dir.to_path_buf()),
        memory_budget: inputs.memory_budget,
        ..BrokerConfig::default()
    })
    .map_err(|e| io::Error::other(format!("warm start: {e}")))?;

    let mut s = Samples::default();
    let mut trace_id = 1u64;
    for _ in 0..PASSES {
        for plan in &inputs.plans {
            match plan {
                Plan::Batches(batches) => {
                    for batch in batches {
                        replay_batch(&broker, batch, trace_id, &mut s)?;
                        trace_id += 1;
                    }
                }
                Plan::Sweeps(sweeps) => {
                    for sweep in sweeps {
                        replay_sweep(&broker, sweep, trace_id, true, &mut s)?;
                        trace_id += 1;
                    }
                }
                Plan::Contracts(_) => {}
            }
        }
        for sweep in &inputs.replay_sweeps {
            replay_sweep(&broker, sweep, trace_id, false, &mut s)?;
            trace_id += 1;
        }
    }
    drop(broker);
    let _ = std::fs::remove_dir_all(dir);

    for name in [
        "wire.encode_ns",
        "wire.decode_ns",
        "wire.bytes_per_req",
        "wire.runs_codec_ns",
        "wire.runs_bytes_per_sweep",
        "broker.batch_ns",
        "cache.hit_ns",
        "eval.query_ns",
        "eval.runs_ns",
        "eval.runs_per_sweep",
        "client.expand_ns",
    ] {
        out.insert(name, s.median(name));
    }
    let cache_ns = s.median("cache.per_req_ns");
    let eval_ns = s.median("eval.per_req_ns");
    out.insert(
        "broker.self_ns",
        out["broker.batch_ns"] - cache_ns - eval_ns,
    );
    out.insert("layer.cache_per_req_ns", cache_ns);
    out.insert("layer.eval_per_req_ns", eval_ns);

    solve_layer(inputs, &mut out);
    Ok(out)
}

/// `store.load_ms`: one full corpus load (median of the passes);
/// `store.bytes`: the corpus on disk.
fn store_layer(corpus: &Path, out: &mut Layers) -> io::Result<()> {
    let files: Vec<_> = std::fs::read_dir(corpus)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    let mut bytes = 0u64;
    for f in &files {
        bytes += std::fs::metadata(f)?.len();
    }
    let mut loads = Vec::new();
    for _ in 0..PASSES {
        let (tables, ns) = span(|| {
            files
                .iter()
                .map(|f| cyclesteal_store::load(f))
                .collect::<Result<Vec<_>, _>>()
        });
        tables.map_err(|e| io::Error::other(format!("corpus load: {e}")))?;
        loads.push(ns / 1e6);
    }
    out.insert("store.load_ms", median(&loads));
    out.insert("store.bytes", bytes as f64);
    Ok(())
}

fn io_err(e: cyclesteal_serve::ServeError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Frames `payload` into a buffer and reads it back: `(frame bytes,
/// write ns, read ns)`.
fn frame(payload: &[u8]) -> io::Result<(usize, f64, f64)> {
    let mut buf = Vec::with_capacity(payload.len() + 8);
    let (w, write_ns) = span(|| wire::write_frame(&mut buf, payload));
    w?;
    let (r, read_ns) = span(|| wire::read_frame(&mut buf.as_slice()));
    r?.ok_or_else(|| io::Error::other("frame vanished"))?;
    Ok((buf.len(), write_ns, read_ns))
}

fn replay_batch(broker: &Broker, batch: &Batch, trace_id: u64, s: &mut Samples) -> io::Result<()> {
    let (req, enc_req) = span(|| wire::encode_query_batch_traced(&batch.queries, 0, trace_id));
    let (req_bytes, wr_req, rd_req) = frame(&req)?;
    let (decoded, dec_req) = span(|| wire::decode_query_batch_traced(&mut &req[1..]));
    let (queries, _, _) = decoded?;
    let (answers, batch_ns) = span(|| broker.query_batch_traced("bench", &queries, None, trace_id));
    let answers = answers.map_err(io_err)?;
    if batch.wrong(&answers) > 0 {
        return Err(io::Error::other("in-process broker answered wrong"));
    }
    let (reply, enc_ans) = span(|| wire::encode_answers(&answers));
    let (reply_bytes, wr_ans, rd_ans) = frame(&reply)?;
    let (back, dec_ans) = span(|| wire::decode_answers(&reply));
    back?;
    s.push("wire.encode_ns", enc_req + wr_req + enc_ans + wr_ans);
    s.push("wire.decode_ns", dec_req + rd_req + dec_ans + rd_ans);
    s.push("wire.bytes_per_req", (req_bytes + reply_bytes) as f64);
    s.push("broker.batch_ns", batch_ns);

    // The broker's cache step: one covering lookup per grid group, at
    // the group's largest (p, L), as the broker resolves them.
    let mut groups: BTreeMap<(u64, u32), (u32, Time)> = BTreeMap::new();
    for q in &queries {
        let g = groups
            .entry((q.setup.get().to_bits(), q.ticks_per_setup))
            .or_insert((q.interrupts, q.lifespan));
        g.0 = g.0.max(q.interrupts);
        g.1 = g.1.max(q.lifespan);
    }
    let mut tables: HashMap<(u64, u32), Arc<CompressedTable>> = HashMap::new();
    let mut cache_ns = 0.0;
    for (&(bits, q), &(p, l)) in &groups {
        let (hit, ns) = span(|| {
            broker
                .cache()
                .try_get_compressed(Time::new(f64::from_bits(bits)), q, l, p)
        });
        let table = hit.ok_or_else(|| io::Error::other("warm replay missed the cache"))?;
        s.push("cache.hit_ns", ns);
        cache_ns += ns;
        tables.insert((bits, q), table);
    }
    s.push("cache.per_req_ns", cache_ns);

    // The evaluation step: value + value_ticks per query.
    let (_, eval_ns) = span(|| {
        queries
            .iter()
            .map(|q| {
                let t = &tables[&(q.setup.get().to_bits(), q.ticks_per_setup)];
                let ticks = t.grid().to_ticks(q.lifespan).clamp(0, t.max_ticks());
                t.value(q.interrupts, q.lifespan).get().to_bits() as i64
                    ^ t.value_ticks(q.interrupts, ticks)
            })
            .fold(0i64, |a, b| a ^ b)
    });
    s.push("eval.per_req_ns", eval_ns);
    s.push("eval.query_ns", eval_ns / queries.len() as f64);
    Ok(())
}

/// Replays one sweep. With `on_wire` unset the workload's clients send
/// no sweeps, so only the op-3-only figures are recorded and the shared
/// per-request figures stay those of the workload's own requests.
fn replay_sweep(
    broker: &Broker,
    sweep: &Sweep,
    trace_id: u64,
    on_wire: bool,
    s: &mut Samples,
) -> io::Result<()> {
    let q = sweep.query;
    let (req, enc_req) = span(|| wire::encode_sweep_traced(&q, 0, trace_id));
    let (req_bytes, wr_req, rd_req) = frame(&req)?;
    let (decoded, dec_req) = span(|| wire::decode_sweep_traced(&mut &req[1..]));
    decoded?;
    let (runs, batch_ns) = span(|| broker.query_sweep_traced("bench", &q, None, trace_id));
    let runs = runs.map_err(io_err)?;
    let (reply, enc_runs) = span(|| wire::encode_runs(&runs));
    let (reply_bytes, wr_ans, rd_ans) = frame(&reply)?;
    let (back, dec_runs) = span(|| wire::decode_runs(&reply));
    let back = back?;
    let (ticks, expand_ns) = span(|| expand_value_runs(&back));
    if !sweep.accepts(&ticks) {
        return Err(io::Error::other("in-process sweep answered wrong"));
    }
    s.push("wire.runs_codec_ns", enc_runs + dec_runs);
    s.push("wire.runs_bytes_per_sweep", reply.len() as f64);
    s.push("client.expand_ns", expand_ns);

    let last = q.first_tick + i64::from(q.count) - 1;
    let grid = cyclesteal_dp::Grid::new(q.setup, q.ticks_per_setup);
    let (hit, cache_ns) = span(|| {
        broker.cache().try_get_compressed(
            q.setup,
            q.ticks_per_setup,
            grid.to_time(last),
            q.interrupts,
        )
    });
    let table = hit.ok_or_else(|| io::Error::other("warm sweep replay missed the cache"))?;
    let (again, runs_ns) =
        span(|| table.value_runs(q.interrupts, q.first_tick, i64::from(q.count)));
    s.push("eval.runs_ns", runs_ns);
    s.push("eval.runs_per_sweep", again.len() as f64);
    if on_wire {
        s.push("wire.encode_ns", enc_req + wr_req + enc_runs + wr_ans);
        s.push("wire.decode_ns", dec_req + rd_req + dec_runs + rd_ans);
        s.push("wire.bytes_per_req", (req_bytes + reply_bytes) as f64);
        s.push("broker.batch_ns", batch_ns);
        s.push("cache.hit_ns", cache_ns);
        s.push("cache.per_req_ns", cache_ns);
        s.push("eval.per_req_ns", runs_ns);
    }
    Ok(())
}

/// Profiled solves of the cold contracts (medians over the pool); zero
/// where the workload sends none.
fn solve_layer(inputs: &Inputs, out: &mut Layers) {
    let mut s = Samples::default();
    let clock = WallClock::new();
    for plan in &inputs.plans {
        let Plan::Contracts(c) = plan else { continue };
        for t in &c.tenants {
            let recorder = PhaseRecorder::new(&clock);
            let (table, ns) = span(|| {
                CompressedTable::solve_profiled(
                    t.setup,
                    t.q,
                    t.max_lifespan(),
                    t.p_max,
                    crate::inputs::production(),
                    &recorder,
                )
            });
            let timings = recorder.timings();
            s.push("solve.ms", ns / 1e6);
            s.push("solve.events", table.events() as f64);
            s.push(
                "solve.stored_runs",
                (0..=t.p_max)
                    .map(|p| table.stored_breakpoints(p))
                    .sum::<usize>() as f64,
            );
            s.push("solve.bytes", table.memory_bytes() as f64);
            for (phase, name) in [
                (Phase::SkeletonBuild, "solve.phase.skeleton_build_ms"),
                (Phase::EventLoop, "solve.phase.event_loop_ms"),
                (Phase::RunCompression, "solve.phase.run_compression_ms"),
            ] {
                s.push(name, timings.ns(phase) as f64 / 1e6);
            }
        }
    }
    for name in [
        "solve.ms",
        "solve.events",
        "solve.stored_runs",
        "solve.bytes",
        "solve.phase.skeleton_build_ms",
        "solve.phase.event_loop_ms",
        "solve.phase.run_compression_ms",
    ] {
        out.insert(name, s.median(name));
    }
}

/// Median span duration (µs) per server stage over the journal
/// records whose trace ids this run sent; 0 for a stage no joined
/// request crossed.
pub fn journal_spans(
    spans: &[SpanRecord],
    sent: &HashSet<u64>,
) -> (usize, BTreeMap<&'static str, f64>) {
    let mut by_stage: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut joined = HashSet::new();
    for span in spans.iter().filter(|s| sent.contains(&s.trace_id)) {
        joined.insert(span.trace_id);
        by_stage
            .entry(span.stage.as_str())
            .or_default()
            .push(span.duration_ns() as f64 / 1e3);
    }
    let stages = [
        ("server.span.recv_us", "server.recv"),
        ("server.span.lane_us", "broker.lane"),
        ("server.span.solve_us", "broker.solve"),
    ];
    let medians = stages
        .into_iter()
        .map(|(name, stage)| (name, by_stage.get(stage).map_or(0.0, |v| median(v))))
        .collect();
    (joined.len(), medians)
}
