//! `serve-tcp`: the deployed socket path.
//!
//! Why: it is the only workload that crosses `server`, `ready` (the
//! worker loop's probe-backoff pacer) and real sockets, so pacer and
//! socket changes show here while compute changes barely move it.
//!
//! Set-up starts `hmd_serve::server::serve` in-process with one worker and
//! the default readiness loop and session config, connects one v2 client
//! and fills every host's window. The timed phase is a closed loop on that
//! one connection: a burst of 8 submits (loadgen's default depth) in one
//! write, then wait for all 8 verdicts, readings round-robin over 1000
//! hosts' pre-generated streams. A closed loop sends less when the server
//! stalls, so it under-reports stalls.
//!
//! Placement is fixed so that runs measure the program, not the host:
//!
//! - The server threads are pinned to one CPU and the client to the other
//!   (`taskset`). Left to the scheduler, the two busy threads sometimes
//!   share a CPU: the client then runs between the worker's reply and its
//!   next probe, the worker never parks, and p50 drops from ≈ 285 µs to
//!   ≈ 19 µs. Which placement a run gets is chance, not the code under
//!   test; pinned, every run measures a worker whose peer sits on another
//!   core.
//! - The client polls its socket, and an idle-class (`SCHED_IDLE`) spinner
//!   shares the server's CPU, taking only cycles nothing else wants. Both
//!   CPUs therefore stay busy, as they would serving a fleet, instead of
//!   halting between bursts: on a shared virtual machine a halted vCPU
//!   wakes when the hypervisor gets to it, and that wake-up latency moved
//!   p99 between 0.4 and 2.6 ms and throughput by ±15 % from run to run.
//!   The worker's own 200 µs park and everything it does stay measured.
//!   The spinner runs only once it is pinned and idle-class; a run whose
//!   threads could not be placed fails its placement check.
//!
//! The traced run measures an untraced half and a traced half (spans
//! around the client's own codec calls), then replays the frames it sent
//! through an in-process `service::pump` in 8-frame bursts: the p50 round
//! trip minus that in-process burst time is the time spent waiting in the
//! server loop and the sockets.

use crate::fleet::{Fleet, FRAME_BYTES};
use crate::pipe::Pipe;
use crate::setup::{timed_setup, train_serving};
use crate::trace::Tracer;
use crate::util::{
    median, peak_rss_mib, percentile, secs, sorted_us, Outcome, RunConfig, Size, Slices, FAILED_NS,
};
use hmd_serve::metrics::Metrics;
use hmd_serve::protocol::{encode, read_frame, Frame, FrameBuffer, WireFormat};
use hmd_serve::server::{serve, ServeConfig, ServerHandle};
use hmd_serve::service::{pump, Conn, Service, ServiceLimits};
use hmd_serve::session::{SessionConfig, SessionEngine};
use hmd_serve::wire2;
use std::collections::{BTreeSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use twosmart::detector::TwoSmartDetector;

/// Submits the client keeps in flight (loadgen's default pipeline depth).
pub const DEPTH: usize = 8;
/// Server worker threads.
pub const WORKERS: usize = 1;
/// OS connections the workload opens.
pub const CONNECTIONS: usize = 1;
/// Time slices of the timed phase; its figures are medians over them.
const SLICES: u32 = 20;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Hosts whose readings the client interleaves.
    pub hosts: usize,
    /// Readings per host stream (replayed cyclically).
    pub stream_len: usize,
}

impl Params {
    /// Sizes for a run.
    pub fn for_size(size: Size) -> Params {
        match size {
            Size::Full => Params {
                hosts: 1000,
                stream_len: 32,
            },
            Size::Smoke => Params {
                hosts: 64,
                stream_len: 16,
            },
        }
    }
}

/// The set-up state: a running server and one negotiated v2 client.
pub struct Rig {
    server: Option<ServerHandle>,
    filler: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
    /// The client thread's CPU list before it was pinned.
    client_cpus: String,
    /// Threads `serve` started.
    server_threads: usize,
    /// Whether the server threads and the client got their own CPUs and
    /// the idle-class spinner runs beside the server.
    pinned: bool,
    client: Client,
    /// The generated traffic and its bookkeeping.
    pub fleet: Fleet,
    /// The served detector, kept for the replay gate.
    pub detector: TwoSmartDetector,
    corpus_s: f64,
    train_s: f64,
    streams_s: f64,
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.stop_server();
    }
}

/// Starts an idle-class spinner on `cpu`: it runs only when nothing else
/// on that CPU is runnable, so the CPU never halts while the worker parks.
/// `None`, with no thread left running, if it could not be pinned to `cpu`
/// or made idle-class: at normal priority it would compete with the
/// worker.
fn start_filler(cpu: usize) -> Option<(Arc<AtomicBool>, JoinHandle<()>)> {
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let flag = Arc::clone(&stop);
    // hmd-analyze: allow(raw-spawn, "benchmark harness: an idle-class spinner that computes nothing, so no result depends on thread count")
    let handle = std::thread::spawn(move || {
        let ok = current_task().is_some_and(|tid| {
            pin(&tid, &cpu.to_string())
                && Command::new("chrt")
                    .args(["--idle", "-p", "0", &tid])
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .status()
                    .is_ok_and(|s| s.success())
        });
        let _ = tx.send(ok);
        while ok && !flag.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
    });
    if rx.recv().unwrap_or(false) {
        Some((stop, handle))
    } else {
        let _ = handle.join();
        None
    }
}

impl Rig {
    /// Trains, starts the server, connects, negotiates v2 and fills every
    /// host's window.
    ///
    /// # Panics
    ///
    /// Panics if the loopback server cannot start or refuses the client.
    pub fn build(cfg: &RunConfig, p: Params) -> Rig {
        let trained = train_serving(cfg.size);
        let t = Instant::now();
        let fleet = Fleet::generate(cfg.seed, p.hosts, p.stream_len);
        let streams_s = secs(t);
        let client_cpus = cpus_allowed();
        let before = task_ids();
        let server = serve(
            trained.detector.clone(),
            ServeConfig {
                workers: WORKERS,
                ..ServeConfig::default()
            },
        )
        .expect("loopback server starts");
        let started = task_ids();
        let started: Vec<&String> = started.difference(&before).collect();
        let placed = started.iter().all(|tid| pin(tid, &SERVER_CPU.to_string()))
            && current_task().is_some_and(|tid| pin(&tid, &CLIENT_CPU.to_string()));
        let filler = if placed {
            start_filler(SERVER_CPU)
        } else {
            None
        };
        let client = Client::connect(&server).expect("loopback client connects");
        let mut rig = Rig {
            server: Some(server),
            pinned: placed && filler.is_some(),
            filler,
            client_cpus,
            server_threads: started.len(),
            client,
            fleet,
            detector: trained.detector,
            corpus_s: trained.corpus_s,
            train_s: trained.train_s,
            streams_s,
        };
        let warmup = (p.hosts * SessionConfig::default().window) as u64;
        let stats = rig.client.drive(&mut rig.fleet, Stop::After(warmup), None);
        assert_eq!(stats.failed, 0, "warm-up replies must all be verdicts");
        rig
    }

    /// Shuts the server down, stops the spinner and gives the client
    /// thread its CPUs back. Idempotent.
    fn stop_server(&mut self) {
        let Some(server) = self.server.take() else {
            return;
        };
        server.shutdown();
        if let Some((stop, filler)) = self.filler.take() {
            stop.store(true, Ordering::Relaxed);
            let _ = filler.join();
        }
        if let Some(tid) = current_task() {
            pin(&tid, &self.client_cpus);
        }
    }
}

/// Longest the client waits for a reply before it counts the connection
/// as broken.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// CPU of the server's threads.
const SERVER_CPU: usize = 0;
/// CPU of the client thread.
const CLIENT_CPU: usize = 1;

/// This process's thread ids.
fn task_ids() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().into_string().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// The calling thread's id.
fn current_task() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str().map(str::to_string)
}

/// The calling thread's allowed CPUs as a `taskset` list, e.g. `0-1`.
fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|list| list.trim().to_string())
        })
        .unwrap_or_else(|| "0-1023".into())
}

/// Restricts thread `tid` to the CPU list `cpus` with `taskset`; `false`
/// if that failed.
fn pin(tid: &str, cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-p", "-c", cpus, tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// When a closed-loop drive stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant.
    At(Instant),
    /// After this many frames.
    After(u64),
}

/// What one drive measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// Replies received.
    pub frames: u64,
    /// Failed ops: error or out-of-order replies, missing replies.
    pub failed: u64,
    /// Wall time from first send to last reply.
    pub elapsed: f64,
    /// Send → verdict time per successful frame.
    pub latency_ns: Vec<u64>,
    /// Socket reads that returned data.
    pub reads: u64,
    /// Time in the client's own encode (refill) and decode calls.
    pub encode_ns: u64,
    /// See `encode_ns`.
    pub decode_ns: u64,
    /// Verdicts per time slice.
    pub slices: Option<Slices>,
}

/// The load generator: one blocking v2 connection.
pub struct Client {
    stream: TcpStream,
    replies: FrameBuffer,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    sent_at: VecDeque<Instant>,
    cursor: usize,
}

impl Client {
    fn connect(server: &ServerHandle) -> std::io::Result<Client> {
        let mut stream = TcpStream::connect(server.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.write_all(&encode(&Frame::Hello { version: 2 }))?;
        match read_frame(&mut stream) {
            Ok(Frame::Hello { version: 2 }) => {}
            other => {
                return Err(std::io::Error::other(format!(
                    "v2 negotiation failed: {other:?}"
                )))
            }
        }
        // The client polls its socket instead of sleeping in `read`, so its
        // own CPU never idles and a verdict's arrival is seen at once.
        stream.set_nonblocking(true)?;
        Ok(Client {
            stream,
            replies: FrameBuffer::with_format(WireFormat::V2Binary),
            rbuf: vec![0; 64 * 1024],
            wbuf: Vec::with_capacity(DEPTH * FRAME_BYTES),
            sent_at: VecDeque::with_capacity(DEPTH),
            cursor: 0,
        })
    }

    /// Spins on a nonblocking read until bytes arrive. `None` when the
    /// peer closed, the socket failed, or nothing came for [`READ_TIMEOUT`].
    fn poll_read(&mut self) -> Option<usize> {
        let mut deadline = None;
        loop {
            match self.stream.read(&mut self.rbuf) {
                Ok(0) => return None,
                Ok(n) => return Some(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let limit = *deadline.get_or_insert_with(|| Instant::now() + READ_TIMEOUT);
                    if Instant::now() > limit {
                        return None;
                    }
                    std::hint::spin_loop();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
    }

    /// Writes the whole send buffer, spinning while the socket is full.
    /// `false` when the socket failed.
    fn poll_write(&mut self) -> bool {
        let mut at = 0;
        while at < self.wbuf.len() {
            match self.stream.write(&self.wbuf[at..]) {
                Ok(0) => return false,
                Ok(n) => at += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    std::hint::spin_loop();
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Closed loop: send a burst of [`DEPTH`] submits in one write, read
    /// until all of its replies are in, repeat until `stop`. With a
    /// tracer, the client's encode and decode calls become spans.
    pub fn drive(&mut self, fleet: &mut Fleet, stop: Stop, mut tr: Option<&mut Tracer>) -> Drive {
        let hosts = fleet.hosts();
        let mut d = Drive::default();
        if let Stop::At(t) = stop {
            d.slices = Some(Slices::new(
                t.saturating_duration_since(Instant::now()),
                SLICES,
            ));
        }
        let mut sent = 0u64;
        let start = Instant::now();
        let mut request = 0u64;
        loop {
            let sending = match stop {
                Stop::At(t) => Instant::now() < t,
                Stop::After(n) => sent < n,
            };
            if sending && fleet.inflight() == 0 {
                let n = match stop {
                    Stop::At(_) => DEPTH,
                    Stop::After(limit) => DEPTH.min((limit - sent) as usize),
                };
                let span = tr.as_deref_mut().map(|t| t.open("client.encode", request));
                let t0 = Instant::now();
                self.wbuf.clear();
                for _ in 0..n {
                    fleet.push_frame(self.cursor % hosts, &mut self.wbuf);
                    self.cursor += 1;
                }
                let now = Instant::now();
                d.encode_ns += now.duration_since(t0).as_nanos() as u64;
                if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
                    t.close(id);
                }
                self.sent_at.extend(std::iter::repeat_n(now, n));
                sent += n as u64;
                request += 1;
                if !self.poll_write() {
                    break;
                }
            }
            if fleet.inflight() == 0 {
                break;
            }
            let Some(n) = self.poll_read() else {
                break;
            };
            let now = Instant::now();
            d.reads += 1;
            let span = tr.as_deref_mut().map(|t| t.open("client.decode", request));
            self.replies.extend(&self.rbuf[..n]);
            loop {
                let ok = match self.replies.next_payload() {
                    Ok(Some(payload)) => match wire2::decode_payload(payload) {
                        Ok(frame) => fleet.on_reply(&frame),
                        Err(_) => false,
                    },
                    Ok(None) => break,
                    Err(_) => false,
                };
                let at = self.sent_at.pop_front().unwrap_or(now);
                d.frames += 1;
                if ok {
                    let ns = now.duration_since(at).as_nanos() as u64;
                    d.latency_ns.push(ns);
                    if let Some(slices) = &mut d.slices {
                        slices.record(now, 1, ns);
                    }
                } else {
                    d.failed += 1;
                    if let Some(slices) = &mut d.slices {
                        slices.record(now, 0, FAILED_NS);
                    }
                }
            }
            d.decode_ns += now.elapsed().as_nanos() as u64;
            if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
                t.close(id);
            }
        }
        // A broken connection leaves replies in flight: they never came.
        let missing = fleet.abandon_inflight();
        d.failed += missing;
        if let Some(slices) = &mut d.slices {
            for _ in 0..missing {
                slices.record(Instant::now(), 0, FAILED_NS);
            }
        }
        self.sent_at.clear();
        d.elapsed = secs(start);
        d
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let p = Params::for_size(cfg.size);
    let mut out = Outcome::default();
    out.note(format!(
        "serve-tcp: closed loop, {CONNECTIONS} v2 connection, bursts of {DEPTH} submits in flight \
         (next burst after the last verdict), busy threads: 1 server worker + 1 polling client, \
         plus an idle-class spinner under the worker; {} hosts; \
         a closed loop sends less while the server stalls, so it under-reports stalls",
        p.hosts
    ));
    let (mut rig, setup_s) = timed_setup("serve-tcp", cfg, &mut out, || Rig::build(cfg, p));
    // Busy at normal priority: the worker and the client. The acceptor
    // blocks in `accept`; the spinner, if it runs, is idle-class.
    out.busy_threads = WORKERS + 1;
    out.connections = CONNECTIONS;
    out.note(format!(
        "serve-tcp: {} server threads ({WORKERS} worker) and an idle-class spinner on CPU \
         {SERVER_CPU}, client on CPU {CLIENT_CPU}: {}",
        rig.server_threads,
        if rig.pinned { "placed" } else { "NOT placed" }
    ));
    out.check(
        "server threads, idle-class spinner and client placed on their CPUs",
        rig.pinned,
        1,
    );
    let phase = if cfg.trace {
        cfg.duration() / 2
    } else {
        cfg.duration()
    };
    let timed = rig
        .client
        .drive(&mut rig.fleet, Stop::At(Instant::now() + phase), None);
    out.attempted = timed.frames;
    out.failed += timed.failed;
    let sorted = sorted_us(&timed.latency_ns);
    let p50 = percentile(&sorted, 50.0);
    let p99 = percentile(&sorted, 99.0);
    out.note(format!(
        "serve-tcp: {} verdicts ({} latency samples) in {:.2} s; pooled p50 {p50:.1} us p99 {p99:.1} us; \
         generator encode {:.1} + decode {:.1} ns/frame",
        timed.frames,
        sorted.len(),
        timed.elapsed,
        timed.encode_ns as f64 / timed.frames as f64,
        timed.decode_ns as f64 / timed.frames as f64,
    ));
    let throughput = timed.slices.as_ref().map_or(0.0, Slices::median_rate);
    if cfg.trace {
        let mut tr = Tracer::new();
        let traced = rig.client.drive(
            &mut rig.fleet,
            Stop::At(Instant::now() + phase),
            Some(&mut tr),
        );
        out.attempted += traced.frames;
        out.failed += traced.failed;
        let burst_us = inprocess_burst_us(&rig);
        let traced_ns = traced.elapsed * 1e9 / traced.frames as f64;
        let untraced_ns = timed.elapsed * 1e9 / timed.frames as f64;
        out.metric("hpc-sim.corpus_s", rig.corpus_s, "s");
        out.metric("core.train_s", rig.train_s, "s");
        out.metric("hpc-sim.streams_s", rig.streams_s, "s");
        out.metric("server.wait_us", p50 - burst_us, "us");
        out.metric("server.pump_burst_us", burst_us, "us");
        out.metric(
            "server.frames_per_read",
            timed.frames as f64 / timed.reads as f64,
            "count",
        );
        out.metric("server.latency_p99_us", p99, "us");
        out.metric(
            "client.encode_ns",
            tr.total("client.encode").total_ns as f64 / traced.frames as f64,
            "ns",
        );
        out.metric(
            "client.decode_ns",
            tr.total("client.decode").total_ns as f64 / traced.frames as f64,
            "ns",
        );
        out.metric(
            "trace.overhead_pct",
            (traced_ns - untraced_ns) / untraced_ns * 100.0,
            "%",
        );
        out.metric("trace.spans", tr.spans() as f64, "count");
        crate::write_trace(&tr, "serve-tcp", cfg.seed, &mut out);
    } else {
        out.metric("setup_s", setup_s, "s");
        out.metric("throughput_per_s", throughput, "1/s");
        let slices = timed.slices.as_ref().expect("timed drives have slices");
        out.metric("latency_p50_us", slices.median_percentile_us(50.0), "us");
    }
    rig.stop_server();
    let window = SessionConfig::default().window;
    let votes = SessionConfig::default().votes;
    let mismatched = rig.fleet.replay_mismatches(&rig.detector, window, votes);
    out.check(
        "verdicts equal an OnlineDetector::push replay",
        mismatched == 0,
        mismatched,
    );
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out
}

/// Replays every frame the client sent, in send order, through an
/// in-process `service::pump` in bursts of [`DEPTH`]; returns the median
/// burst time in µs over the bursts after the warm-up.
fn inprocess_burst_us(rig: &Rig) -> f64 {
    let fleet = &rig.fleet;
    let session = SessionConfig::default();
    let metrics = Arc::new(Metrics::new());
    let engine = SessionEngine::new(rig.detector.clone(), &session, Arc::clone(&metrics))
        .expect("deployable");
    let service = Service::new(engine, metrics, ServiceLimits::default());
    let pipe = Pipe::new();
    let mut conn = Conn::new(pipe.clone());
    let mut chunk = vec![0u8; 16 * 1024];
    pipe.inbound()
        .extend_from_slice(&encode(&Frame::Hello { version: 2 }));
    pump(&mut conn, &service, &mut chunk, false);
    let mut replies = Vec::new();
    pipe.take_outbound(&mut replies);

    let hosts = fleet.hosts();
    let total: u64 = fleet.total_sent();
    let warmup = (hosts * session.window) as u64;
    let mut next = vec![0u64; hosts];
    let mut times = Vec::new();
    let mut k = 0u64;
    while k < total {
        let n = DEPTH.min((total - k) as usize);
        {
            let mut inbound = pipe.inbound();
            for i in 0..n as u64 {
                let h = ((k + i) % hosts as u64) as usize;
                let seq = next[h];
                next[h] += 1;
                wire2::encode_into(
                    &Frame::Submit {
                        host_id: h as u64,
                        seq,
                        counters: fleet.reading(h, seq).to_vec(),
                    },
                    &mut inbound,
                );
            }
        }
        let t = Instant::now();
        pump(&mut conn, &service, &mut chunk, false);
        let ns = t.elapsed().as_nanos() as f64;
        pipe.take_outbound(&mut replies);
        if k >= warmup {
            times.push(ns / 1e3);
        }
        k += n as u64;
    }
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::start_filler;

    #[test]
    fn a_spinner_that_cannot_be_placed_does_not_run() {
        assert!(start_filler(1 << 20).is_none(), "no such CPU");
    }
}
