//! The end-to-end half: a real `Server` on loopback inside this
//! process, driven through `Client` by two closed-loop client threads
//! (one connection each). Every answer is checked after its round trip
//! is timed.

use crate::inputs::{Batch, Inputs, Plan, Sweep};
use crate::procstat;
use cyclesteal_serve::{Broker, BrokerConfig, Client, ClientConfig, RetryPolicy, Server};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One server instance with its two connected clients.
pub struct Instance {
    pub broker: Arc<Broker>,
    server: Server,
    pub clients: [Client; 2],
    dir: PathBuf,
}

impl Instance {
    /// Starts an instance over a private copy of the snapshot corpus
    /// (the copy is untimed; evictions write into it, so no instance
    /// warm-starts from another's evictions). Returns the instance and
    /// its set-up time: `Broker::new` with `warm_from_dir`, plus
    /// `Server::start`, up to the first answer on every connection.
    pub fn start(inputs: &Inputs, corpus: &Path, dir: PathBuf) -> io::Result<(Instance, f64)> {
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(corpus)? {
            let path = entry?.path();
            if let Some(name) = path.file_name() {
                std::fs::copy(&path, dir.join(name))?;
            }
        }
        let t0 = Instant::now();
        let broker = Arc::new(
            Broker::new(BrokerConfig {
                snapshot_dir: Some(dir.clone()),
                memory_budget: inputs.memory_budget,
                ..BrokerConfig::default()
            })
            .map_err(|e| io::Error::other(format!("warm start: {e}")))?,
        );
        let server = Server::start("127.0.0.1:0", broker.clone())?;
        let connect = |seed| {
            Client::connect_with(
                server.local_addr(),
                ClientConfig {
                    retry: RetryPolicy {
                        seed,
                        ..RetryPolicy::default()
                    },
                    ..ClientConfig::default()
                },
            )
        };
        let mut clients = [connect(1)?, connect(2)?];
        let mut answers = Vec::new();
        for client in &mut clients {
            answers.push(client.query_batch(&inputs.probe.queries)?);
        }
        let setup = t0.elapsed().as_secs_f64();
        if answers.iter().any(|a| inputs.probe.wrong(a) > 0) {
            return Err(io::Error::other("set-up probe answered wrong"));
        }
        Ok((
            Instance {
                broker,
                server,
                clients,
                dir,
            },
            setup,
        ))
    }

    pub fn stop(self) {
        let Instance {
            server,
            clients,
            dir,
            ..
        } = self;
        drop(clients);
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What one client thread saw in the measured window.
#[derive(Default)]
pub struct Tally {
    /// Round trips of requests answered from cache, in ns.
    pub warm_ns: Vec<u64>,
    /// Round trips of requests that needed a solve, in ns.
    pub cold_ns: Vec<u64>,
    pub requests: u64,
    /// Op-1 queries answered.
    pub queries: u64,
    /// Op-3 ticks delivered.
    pub ticks: u64,
    /// Calls that returned an error (after the client's retries).
    pub failed: u64,
    /// Requests with at least one wrong answer.
    pub wrong: u64,
    /// `(trace id, round trip ns)` of traced requests.
    pub traced: Vec<(u64, u64)>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.warm_ns.extend(other.warm_ns);
        self.cold_ns.extend(other.cold_ns);
        self.requests += other.requests;
        self.queries += other.queries;
        self.ticks += other.ticks;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.traced.extend(other.traced);
    }
}

/// The measured window of one client thread.
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    /// Give each request an explicit trace id and record it.
    pub traced: bool,
    /// Trace ids of this thread are `id_base + n`.
    pub id_base: u64,
    /// Which segment of the run this is (varies the cold order).
    pub segment: u64,
}

/// Runs one closed-loop client until `window.end`. Requests before
/// `window.start` warm the path and are checked but not recorded.
pub fn run_client(client: &mut Client, plan: &Plan, broker: &Broker, window: &Window) -> Tally {
    let mut tally = Tally::default();
    let mut n: u64 = 0;
    let mut order = match plan {
        Plan::Contracts(c) => Some(c.order(window.segment)),
        _ => None,
    };
    loop {
        let now = Instant::now();
        if now >= window.end {
            break;
        }
        let recording = now >= window.start;
        let trace_id = if window.traced { window.id_base + n } else { 0 };
        let step = match plan {
            Plan::Batches(batches) => {
                let batch = &batches[(n as usize) % batches.len()];
                call_batch(client, batch, trace_id, None)
            }
            Plan::Sweeps(sweeps) => {
                call_sweep(client, &sweeps[(n as usize) % sweeps.len()], trace_id)
            }
            Plan::Contracts(c) => {
                let k = order
                    .as_mut()
                    .and_then(Iterator::next)
                    .expect("endless order");
                call_batch(client, &c.contracts[k], trace_id, Some(broker))
            }
        };
        n += 1;
        if !recording {
            continue;
        }
        tally.requests += 1;
        if window.traced {
            tally.traced.push((trace_id, step.rtt_ns));
        }
        match step.outcome {
            Outcome::Failed => tally.failed += 1,
            Outcome::Answered {
                wrong,
                queries,
                ticks,
            } => {
                tally.wrong += u64::from(wrong);
                tally.queries += queries;
                tally.ticks += ticks;
                if step.cold {
                    tally.cold_ns.push(step.rtt_ns);
                } else {
                    tally.warm_ns.push(step.rtt_ns);
                }
            }
        }
    }
    tally
}

enum Outcome {
    Failed,
    Answered {
        wrong: bool,
        queries: u64,
        ticks: u64,
    },
}

struct Step {
    rtt_ns: u64,
    cold: bool,
    outcome: Outcome,
}

/// One op-1 round trip. With `solves_from` set, the request counts as
/// cold when the broker's miss counter moved across it (only this
/// client can miss, so the delta is its own).
fn call_batch(
    client: &mut Client,
    batch: &Batch,
    trace_id: u64,
    solves_from: Option<&Broker>,
) -> Step {
    let misses = || solves_from.map(|b| b.cache().stats().misses);
    let before = misses();
    let t0 = Instant::now();
    let reply = if trace_id == 0 {
        client.query_batch(&batch.queries)
    } else {
        client.query_batch_traced(&batch.queries, None, trace_id)
    };
    let rtt_ns = t0.elapsed().as_nanos() as u64;
    let cold = misses() != before;
    let outcome = match reply {
        Ok(answers) => Outcome::Answered {
            wrong: batch.wrong(&answers) > 0,
            queries: batch.queries.len() as u64,
            ticks: 0,
        },
        Err(_) => Outcome::Failed,
    };
    Step {
        rtt_ns,
        cold,
        outcome,
    }
}

/// One op-3 round trip (including the client's run expansion, which
/// is part of what `Client::query_sweep` returns).
fn call_sweep(client: &mut Client, sweep: &Sweep, trace_id: u64) -> Step {
    let t0 = Instant::now();
    let reply = if trace_id == 0 {
        client.query_sweep(&sweep.query)
    } else {
        client.query_sweep_traced(&sweep.query, None, trace_id)
    };
    let rtt_ns = t0.elapsed().as_nanos() as u64;
    let outcome = match reply {
        Ok(ticks) => Outcome::Answered {
            wrong: !sweep.accepts(&ticks),
            queries: 0,
            ticks: ticks.len() as u64,
        },
        Err(_) => Outcome::Failed,
    };
    Step {
        rtt_ns,
        cold: false,
        outcome,
    }
}

/// How often the resident set is sampled during a measured window.
const RSS_POLL: Duration = Duration::from_millis(5);

/// One measured window of both clients.
pub struct Measured {
    pub tally: Tally,
    /// Window length: until the last in-flight request returned.
    pub secs: f64,
    /// CPU of every thread but the harness's (the two clients and the
    /// thread timing them).
    pub server_cpu_ns: Option<u64>,
    /// Largest `VmRSS` sampled in the window.
    pub peak_rss_kb: Option<u64>,
}

/// Drives both clients of `inst` through one measured window.
pub fn drive(
    inst: &mut Instance,
    inputs: &Inputs,
    warmup: Duration,
    measure: Duration,
    traced: bool,
    segment: u64,
) -> Measured {
    let start = Instant::now() + warmup;
    let end = start + measure;
    let broker = inst.broker.clone();
    let [c0, c1] = &mut inst.clients;
    let (tid_tx, tid_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let handles: Vec<_> = [c0, c1]
            .into_iter()
            .zip(&inputs.plans)
            .enumerate()
            .map(|(i, (client, plan))| {
                let broker = &broker;
                let tid_tx = tid_tx.clone();
                let window = Window {
                    start,
                    end,
                    traced,
                    id_base: ((segment << 8) + i as u64 + 1) << 40,
                    segment,
                };
                s.spawn(move || {
                    let _ = tid_tx.send(procstat::thread_id());
                    run_client(client, plan, broker, &window)
                })
            })
            .collect();
        // The harness threads (the clients and this one) are not the
        // server's CPU.
        let harness: Option<Vec<u64>> = (0..handles.len())
            .map(|_| tid_rx.recv().ok().flatten())
            .chain([procstat::thread_id()])
            .collect();
        sleep_until(start);
        let cpu0 = procstat::task_cpu_ns();
        let mut peak_kb = procstat::rss_kb();
        while Instant::now() < end {
            std::thread::sleep(RSS_POLL.min(end - Instant::now()));
            peak_kb = peak_kb.zip(procstat::rss_kb()).map(|(a, b)| a.max(b));
        }
        let cpu1 = procstat::task_cpu_ns();
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        // The window closes when the last in-flight request returns.
        let secs = start.elapsed().as_secs_f64();
        let server_cpu_ns = match (cpu0, cpu1, harness) {
            (Some(a), Some(b), Some(h)) => Some(procstat::cpu_between(&a, &b, &h)),
            _ => None,
        };
        let mut tally = Tally::default();
        for t in tallies {
            tally.merge(t);
        }
        Measured {
            tally,
            secs,
            server_cpu_ns,
            peak_rss_kb: peak_kb,
        }
    })
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One idle window of the server.
pub struct IdleWindow {
    /// CPU ms per wall second of every thread but the harness's.
    pub cpu_ms_per_s: Option<f64>,
    /// Voluntary context switches per wall second, whole process.
    pub wakeups_per_s: Option<f64>,
}

/// `windows` idle windows of `each` while the clients stay connected
/// but silent.
pub fn idle(windows: usize, each: Duration) -> Vec<IdleWindow> {
    // Let the last replies drain and the handlers park first.
    std::thread::sleep(IDLE_DRAIN);
    let me = procstat::thread_id();
    (0..windows)
        .map(|_| {
            let t0 = Instant::now();
            let cpu0 = procstat::task_cpu_ns();
            let sw0 = procstat::voluntary_switches();
            std::thread::sleep(each);
            let cpu1 = procstat::task_cpu_ns();
            let sw1 = procstat::voluntary_switches();
            let wall = t0.elapsed().as_secs_f64();
            let cpu_ms_per_s = match (cpu0, cpu1, me) {
                (Some(a), Some(b), Some(me)) => {
                    Some(procstat::cpu_between(&a, &b, &[me]) as f64 / 1e6 / wall)
                }
                _ => None,
            };
            IdleWindow {
                cpu_ms_per_s,
                wakeups_per_s: sw0.zip(sw1).map(|(a, b)| b.saturating_sub(a) as f64 / wall),
            }
        })
        .collect()
}

const IDLE_DRAIN: Duration = Duration::from_millis(100);

/// The yardstick for idle CPU: a bare poll loop that makes, on each
/// pass, the system calls of the server's idle pass (a nonblocking
/// `accept` and a nonblocking read on each of two connections, all
/// finding nothing) and then sleeps 1 ms. What a pass costs depends on
/// the host's other tenants, and so does what the idle server costs;
/// their ratio, read close together in time, does not.
pub struct RefLoop {
    listener: TcpListener,
    conns: [TcpStream; 2],
    /// The client ends, kept open so the reads find no data, not EOF.
    _peers: [TcpStream; 2],
}

impl RefLoop {
    pub fn new() -> io::Result<RefLoop> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let peers = [TcpStream::connect(addr)?, TcpStream::connect(addr)?];
        let conns = [listener.accept()?.0, listener.accept()?.0];
        listener.set_nonblocking(true)?;
        for conn in &conns {
            conn.set_nonblocking(true)?;
        }
        Ok(RefLoop {
            listener,
            conns,
            _peers: peers,
        })
    }

    /// Runs the loop on the calling thread for `windows` windows of
    /// `each`, returning its CPU ms per wall second in each. Call it with
    /// no server running, so that nothing else in the process competes
    /// with it.
    pub fn windows(&self, windows: usize, each: Duration) -> Vec<Option<f64>> {
        (0..windows).map(|_| self.window(each)).collect()
    }

    fn window(&self, each: Duration) -> Option<f64> {
        let mut scratch = [0u8; 1024];
        let t0 = Instant::now();
        let cpu0 = procstat::thread_cpu_ns();
        while t0.elapsed() < each {
            let _ = self.listener.accept();
            for mut conn in &self.conns {
                let _ = conn.read(&mut scratch);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let cpu1 = procstat::thread_cpu_ns();
        let secs = t0.elapsed().as_secs_f64();
        cpu0.zip(cpu1)
            .map(|(a, b)| b.saturating_sub(a) as f64 / 1e6 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_loop_reports_its_cpu() {
        let reference = RefLoop::new().unwrap();
        let windows = reference.windows(2, Duration::from_millis(20));
        assert_eq!(windows.len(), 2);
        // Absent without /proc; otherwise some CPU, well under a core.
        if std::path::Path::new("/proc/thread-self/schedstat").exists() {
            for ms_per_s in windows {
                assert!(ms_per_s.unwrap() > 0.0 && ms_per_s.unwrap() < 1000.0);
            }
        } else {
            assert!(windows.iter().all(Option::is_none));
        }
    }
}
