//! The virtual-time event loop: a simulated fleet against the real
//! service stack.
//!
//! # Determinism rules
//!
//! Everything the loop does is a pure function of `(SimConfig, detector)`:
//!
//! 1. **No wallclock.** Time is a `u64` tick; events live in a binary
//!    heap keyed `(tick, phase, seqno)` where `seqno` is an allocation
//!    counter — total order, no hash maps, no `Instant`.
//! 2. **Phases within a tick.** Arrivals and the overload burst run at
//!    phase 1, agent steps (byte writes) at phase 2, the idle sweep at
//!    phase 3; then the harness pumps every live server connection
//!    (lane-major) and finally drains every agent's replies. A submit
//!    written at phase 2 of a sweep tick is therefore decoded *after* the
//!    sweep — the eviction race, reproduced on schedule.
//! 3. **Virtual time never depends on byte shapes.** Dribbled links cap
//!    bytes per *call*, not per tick, and the pump loops to `WouldBlock`,
//!    so every frame written in a tick is decoded in that same tick —
//!    wire v1's fatter frames take exactly as many ticks as wire v2's.
//! 4. **The engine's clock is external.** [`SessionEngine::set_time`] is
//!    called once per tick, so `last_seen` stamps are identical no matter
//!    how lanes interleave submits inside the tick.
//! 5. **Aggregation is order-independent.** Counters are sums and the
//!    journal hash is an order-independent fold, so lane partitioning
//!    (the `workers` knob) cannot reach the digest.

use crate::digest::{
    Digest, ErrorCounters, FaultCounters, Journal, JournalEntry, RunReport, VerdictCounts,
};
use crate::faults::{FaultPlan, StreamFault};
use crate::transport::{duplex, SimStream};
use crate::workload::StreamGen;
use hmd_hpc_sim::workload::AppClass;
use hmd_serve::metrics::Metrics;
use hmd_serve::protocol::{
    encode_frame_into, ErrorCode, Frame, FrameBuffer, WireFormat, PROTOCOL_VERSION,
    PROTOCOL_VERSION_V2,
};
use hmd_serve::service::{pump, Conn, Service, ServiceLimits};
use hmd_serve::session::{SessionConfig, SessionEngine, StoreKind, TimeSource};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::{Read, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use twosmart::detector::{CascadeMode, TwoSmartDetector, Verdict};
use twosmart::online::OnlineError;

/// Simulation parameters. Everything that can change the digest is here.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Fleet size.
    pub hosts: u64,
    /// Base seed for streams and fault draws.
    pub seed: u64,
    /// Wire protocol every agent negotiates.
    pub protocol: WireFormat,
    /// Logical worker lanes (pump partitioning; must not change the
    /// digest).
    pub workers: usize,
    /// Session-engine shards (must not change the digest).
    pub shards: usize,
    /// Readings each well-behaved host submits.
    pub readings: u64,
    /// Ticks between an agent's verdict and its next submit.
    pub interval: u64,
    /// Hosts arriving per tick until the fleet is exhausted.
    pub arrivals_per_tick: u64,
    /// Connection budget; attempts beyond it are shed.
    pub max_conns: usize,
    /// Idle-eviction threshold in ticks.
    pub idle_after: u64,
    /// Sweep cadence in ticks (sweeps run on active ticks divisible by
    /// this).
    pub sweep_every: u64,
    /// Detector sliding-window length per host.
    pub window: usize,
    /// Vote-smoothing depth per host.
    pub votes: usize,
    /// The fault mix.
    pub faults: FaultPlan,
    /// Stage-2 gating policy of the batched drain. [`CascadeMode::Always`]
    /// is the scalar-identical oracle (digest unchanged); `Gated` trades
    /// specialist work for stage-1 confidence.
    pub cascade: CascadeMode,
    /// Which session store backs the engine. Both stores must produce
    /// byte-identical digests — this knob *is* the slab regression net.
    pub store: StoreKind,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            hosts: 1000,
            seed: 1,
            protocol: WireFormat::V2Binary,
            workers: 1,
            shards: 16,
            readings: 16,
            interval: 2,
            arrivals_per_tick: 64,
            max_conns: 8192,
            idle_after: 64,
            sweep_every: 16,
            window: 8,
            votes: 3,
            faults: FaultPlan::standard(),
            cascade: CascadeMode::Always,
            store: StoreKind::Slab,
        }
    }
}

/// Tick phase of arrivals and the overload burst.
const PHASE_ARRIVE: u8 = 1;
/// Tick phase of agent byte writes.
const PHASE_STEP: u8 = 2;
/// Tick phase of the idle sweep (before the pump, after the writes).
const PHASE_SWEEP: u8 = 3;

#[derive(Debug, PartialEq, Eq)]
struct Event {
    tick: u64,
    phase: u8,
    /// Allocation order; the total-order tiebreak.
    seqno: u64,
    kind: EventKind,
}

#[derive(Debug, PartialEq, Eq)]
enum EventKind {
    /// Admit the next batch of hosts.
    Arrivals,
    /// The overload burst: `max_conns + burst` attempts at once.
    Burst,
    /// One agent acts (submit, inject, reconnect, resume).
    AgentStep { host: u64 },
    /// Idle sweep at the current tick.
    Sweep,
}

impl Ord for Event {
    fn cmp(&self, other: &Event) -> std::cmp::Ordering {
        (self.tick, self.phase, self.seqno).cmp(&(other.tick, other.phase, other.seqno))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What one agent is waiting on (at most one thing in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Awaiting {
    /// Hello acknowledgement.
    Hello,
    /// Verdict or error for the last write.
    Reply,
    /// Nothing — the next action is on the event heap.
    Nothing,
}

/// One simulated telemetry agent: the client side of a host.
struct Agent {
    fault: StreamFault,
    dribble: Option<usize>,
    /// Pre-generated counter readings.
    stream: Vec<Vec<f64>>,
    /// Client endpoint of the live connection (None between reconnects).
    tx: Option<SimStream>,
    /// Client-side reply decoder (format follows negotiation).
    fb: FrameBuffer,
    /// Next stream index to submit (doubles as the wire `seq`).
    next_reading: u64,
    awaiting: Awaiting,
    /// One-shot fault flags.
    injected: bool,
    reconnected: bool,
    raced: bool,
    /// Encode scratch.
    scratch: String,
    out: Vec<u8>,
}

impl Agent {
    /// Encodes `frame` in the agent's current format and writes it to the
    /// connection. Returns bytes written (0 if disconnected).
    fn send(&mut self, frame: &Frame) -> u64 {
        self.out.clear();
        encode_frame_into(self.fb.format(), frame, &mut self.scratch, &mut self.out);
        self.send_raw_buffered()
    }

    /// Writes pre-framed raw bytes (fault injection paths).
    fn send_raw(&mut self, bytes: &[u8]) -> u64 {
        self.out.clear();
        self.out.extend_from_slice(bytes);
        self.send_raw_buffered()
    }

    fn send_raw_buffered(&mut self) -> u64 {
        match &mut self.tx {
            Some(tx) => {
                // The pipe is unbounded, so write_all always completes
                // within the call (quotas only split it across calls).
                tx.write_all(&self.out).expect("sim pipe write");
                self.out.len() as u64
            }
            None => 0,
        }
    }
}

/// One live server-side connection with its lane assignment.
struct SimConn {
    conn: Conn<SimStream>,
    lane: usize,
}

/// Stable numeric ids for journal entries.
fn error_code_id(code: &ErrorCode) -> u64 {
    match code {
        ErrorCode::Overloaded => 1,
        ErrorCode::Malformed => 2,
        ErrorCode::Oversized => 3,
        ErrorCode::BadLength => 4,
        ErrorCode::OutOfOrder => 5,
        ErrorCode::UnsupportedVersion => 6,
        ErrorCode::Unexpected => 7,
        ErrorCode::ShuttingDown => 8,
        ErrorCode::BadValue => 9,
    }
}

/// Stable numeric ids for fault-injection journal entries.
fn fault_kind_id(fault: StreamFault) -> u64 {
    match fault {
        StreamFault::None => 0,
        StreamFault::Reconnect => 1,
        StreamFault::Malformed => 2,
        StreamFault::Truncate => 3,
        StreamFault::SeqRegress => 4,
        StreamFault::IdleRace => 5,
    }
}

/// Reading index at which a host's stream fault fires.
fn fault_reading(fault: StreamFault, readings: u64) -> u64 {
    match fault {
        StreamFault::None => u64::MAX,
        StreamFault::Reconnect => (readings / 2).max(1),
        StreamFault::Malformed => (readings / 3).max(1),
        StreamFault::Truncate => (readings * 2 / 3).max(1),
        StreamFault::SeqRegress => (readings / 2).max(1),
        StreamFault::IdleRace => (readings / 4).max(1),
    }
}

struct Sim {
    config: SimConfig,
    service: Service,
    gen: StreamGen,
    agents: BTreeMap<u64, Agent>,
    conns: BTreeMap<u64, SimConn>,
    events: BinaryHeap<Reverse<Event>>,
    seqno: u64,
    conn_seq: u64,
    tick: u64,
    next_host: u64,
    journal: Journal,
    verdicts: VerdictCounts,
    errors: ErrorCounters,
    fault_counts: FaultCounters,
    wire_in: u64,
    wire_out: u64,
    peak_sessions: u64,
}

/// Runs one simulation to completion and returns its report.
///
/// # Errors
///
/// [`OnlineError`] if the detector is not servable under the configured
/// window/votes.
pub fn run(detector: TwoSmartDetector, config: &SimConfig) -> Result<RunReport, OnlineError> {
    let metrics = Arc::new(Metrics::new());
    let engine = SessionEngine::new(
        detector,
        &SessionConfig {
            shards: config.shards,
            window: config.window,
            votes: config.votes,
            idle_after: config.idle_after,
            time: TimeSource::External,
            cascade: config.cascade,
            store: config.store,
        },
        Arc::clone(&metrics),
    )?;
    let service = Service::new(
        engine,
        metrics,
        ServiceLimits {
            // The simulation owns the sweep schedule (phase 3 events);
            // per-submit sweeps would tie eviction to submit interleaving.
            evict_every: 0,
            ..ServiceLimits::default()
        },
    );
    let mut sim = Sim {
        config: config.clone(),
        service,
        gen: StreamGen::new(),
        agents: BTreeMap::new(),
        conns: BTreeMap::new(),
        events: BinaryHeap::new(),
        seqno: 0,
        conn_seq: 0,
        tick: 0,
        next_host: 0,
        journal: Journal::new(),
        verdicts: VerdictCounts::default(),
        errors: ErrorCounters::default(),
        fault_counts: FaultCounters::default(),
        wire_in: 0,
        wire_out: 0,
        peak_sessions: 0,
    };
    Ok(sim.run())
}

impl Sim {
    fn push(&mut self, tick: u64, phase: u8, kind: EventKind) {
        let seqno = self.seqno;
        self.seqno += 1;
        self.events.push(Reverse(Event {
            tick,
            phase,
            seqno,
            kind,
        }));
    }

    fn run(&mut self) -> RunReport {
        if self.config.hosts > 0 {
            self.push(1, PHASE_ARRIVE, EventKind::Arrivals);
        }
        if self.config.faults.burst > 0 {
            let span = self
                .config
                .hosts
                .div_ceil(self.config.arrivals_per_tick.max(1));
            self.push((span / 2).max(2), PHASE_ARRIVE, EventKind::Burst);
        }

        while let Some(Reverse(head)) = self.events.peek() {
            let tick = head.tick;
            self.tick = tick;
            self.service.engine.set_time(tick);
            if self.config.sweep_every > 0 && tick % self.config.sweep_every == 0 {
                self.push(tick, PHASE_SWEEP, EventKind::Sweep);
            }
            while let Some(Reverse(head)) = self.events.peek() {
                if head.tick != tick {
                    break;
                }
                let Reverse(ev) = self.events.pop().expect("peeked");
                self.handle(ev);
            }
            self.finish_tick();
        }
        // Reap connections closed on the final tick.
        self.pump_conns();

        // Final sweep: advance past the idle threshold so every remaining
        // session is reclaimed — a leak shows up as end_sessions > 0.
        let end = self.tick + self.config.idle_after + 1;
        self.service.engine.set_time(end);
        self.service.engine.evict_idle_at(end);

        let snapshot = self.service.metrics.snapshot();
        let per = self.service.engine.session_bytes_estimate();
        RunReport {
            digest: Digest {
                seed: self.config.seed,
                hosts: self.config.hosts,
                readings: self.config.readings,
                ticks: self.tick,
                submits: snapshot.submits,
                verdicts: self.verdicts,
                errors: self.errors,
                faults: self.fault_counts,
                peak_sessions: self.peak_sessions,
                end_sessions: self.service.engine.sessions() as u64,
                session_bytes_per: per,
                peak_session_bytes: self.peak_sessions * per,
                journal_entries: self.journal.entries,
                journal_hash: self.journal.hash,
            },
            protocol: self.config.protocol.version(),
            workers: self.config.workers,
            shards: self.config.shards,
            store: match self.config.store {
                StoreKind::BTree => "btree",
                StoreKind::Slab => "slab",
            },
            wire_bytes_in: self.wire_in,
            wire_bytes_out: self.wire_out,
            connections: snapshot.connections,
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev.kind {
            EventKind::Arrivals => self.arrivals(ev.tick),
            EventKind::Burst => self.burst(),
            EventKind::AgentStep { host } => self.agent_step(ev.tick, host),
            EventKind::Sweep => {
                self.service.engine.evict_idle_at(ev.tick);
            }
        }
    }

    /// Admits up to `arrivals_per_tick` new hosts; over-budget arrivals
    /// are deferred to the next tick, never dropped.
    fn arrivals(&mut self, tick: u64) {
        for _ in 0..self.config.arrivals_per_tick {
            if self.next_host >= self.config.hosts {
                return;
            }
            if self.conns.len() >= self.config.max_conns {
                break; // budget full — retry the remainder next tick
            }
            let host = self.next_host;
            self.next_host += 1;
            let fault = self.config.faults.fault_for(self.config.seed, host);
            let dribble = self.config.faults.dribble_for(self.config.seed, host);
            if dribble.is_some() {
                self.fault_counts.dribble += 1;
            }
            let stream =
                self.gen
                    .stream(self.config.seed, host, self.config.readings.max(1) as usize);
            let mut agent = Agent {
                fault,
                dribble,
                stream,
                tx: None,
                fb: FrameBuffer::new(),
                next_reading: 0,
                awaiting: Awaiting::Nothing,
                injected: false,
                reconnected: false,
                raced: false,
                scratch: String::new(),
                out: Vec::new(),
            };
            self.wire_in += connect(
                &mut agent,
                &mut self.conns,
                &mut self.conn_seq,
                &self.service,
                self.config.workers,
                self.config.protocol,
            );
            self.agents.insert(host, agent);
        }
        if self.next_host < self.config.hosts {
            self.push(tick + 1, PHASE_ARRIVE, EventKind::Arrivals);
        }
    }

    /// The overload burst: `max_conns + burst` simultaneous connection
    /// attempts. The budget guarantees at least `burst` sheds; accepted
    /// burst connections hang up immediately and are reaped by this
    /// tick's pump.
    fn burst(&mut self) {
        let attempts = self.config.max_conns as u64 + self.config.faults.burst;
        for attempt in 0..attempts {
            self.service.metrics.bump(&self.service.metrics.connections);
            if self.conns.len() >= self.config.max_conns {
                self.service.metrics.bump(&self.service.metrics.shed);
                self.fault_counts.burst_shed += 1;
                self.journal.record(JournalEntry::Shed { attempt });
                continue;
            }
            let (server_end, mut client_end) = duplex();
            client_end.close();
            let id = self.conn_seq;
            self.conn_seq += 1;
            self.conns.insert(
                id,
                SimConn {
                    conn: Conn::new(server_end),
                    lane: (id % self.config.workers.max(1) as u64) as usize,
                },
            );
        }
    }

    /// One agent action: reconnect, inject its fault, or submit the next
    /// reading.
    fn agent_step(&mut self, tick: u64, host: u64) {
        let Some(agent) = self.agents.get_mut(&host) else {
            return;
        };
        if agent.tx.is_none() {
            // Reconnect leg: fresh connection, fresh v1 handshake; the
            // drain schedules the next submit once the ack arrives.
            self.wire_in += connect(
                agent,
                &mut self.conns,
                &mut self.conn_seq,
                &self.service,
                self.config.workers,
                self.config.protocol,
            );
            return;
        }
        let at = fault_reading(agent.fault, self.config.readings);
        if !agent.injected && agent.next_reading == at {
            match agent.fault {
                StreamFault::Malformed => {
                    agent.injected = true;
                    self.fault_counts.malformed += 1;
                    self.journal.record(JournalEntry::Fault {
                        host,
                        reading: at,
                        kind: fault_kind_id(StreamFault::Malformed),
                    });
                    // Junk inside valid framing: 0xEE is not UTF-8 (v1)
                    // and not a known tag (v2) — recoverable either way.
                    self.wire_in += agent.send_raw(&[0, 0, 0, 3, 0xEE, 0xEE, 0xEE]);
                    agent.awaiting = Awaiting::Reply;
                    return;
                }
                StreamFault::SeqRegress => {
                    agent.injected = true;
                    self.fault_counts.seq_regress += 1;
                    self.journal.record(JournalEntry::Fault {
                        host,
                        reading: at,
                        kind: fault_kind_id(StreamFault::SeqRegress),
                    });
                    let seq = agent.next_reading - 1;
                    let frame = Frame::Submit {
                        host_id: host,
                        seq,
                        counters: agent.stream[seq as usize].clone(),
                    };
                    self.wire_in += agent.send(&frame);
                    agent.awaiting = Awaiting::Reply;
                    return;
                }
                StreamFault::Truncate => {
                    agent.injected = true;
                    self.fault_counts.truncate += 1;
                    self.journal.record(JournalEntry::Fault {
                        host,
                        reading: at,
                        kind: fault_kind_id(StreamFault::Truncate),
                    });
                    // A frame promising 64 bytes, delivering 5, then FIN:
                    // the server must discard silently.
                    self.wire_in += agent.send_raw(&[0, 0, 0, 64, 1, 2, 3, 4, 5]);
                    if let Some(tx) = &mut agent.tx {
                        tx.close();
                    }
                    self.agents.remove(&host);
                    return;
                }
                StreamFault::Reconnect if !agent.reconnected => {
                    agent.injected = true;
                    agent.reconnected = true;
                    self.fault_counts.reconnect += 1;
                    self.journal.record(JournalEntry::Fault {
                        host,
                        reading: at,
                        kind: fault_kind_id(StreamFault::Reconnect),
                    });
                    if let Some(tx) = &mut agent.tx {
                        tx.close();
                    }
                    agent.tx = None;
                    self.push(tick + 1, PHASE_STEP, EventKind::AgentStep { host });
                    return;
                }
                _ => {}
            }
        }
        let seq = agent.next_reading;
        let frame = Frame::Submit {
            host_id: host,
            seq,
            counters: agent.stream[seq as usize].clone(),
        };
        agent.next_reading += 1;
        agent.awaiting = Awaiting::Reply;
        self.wire_in += agent.send(&frame);
    }

    /// Lane-major pump of every live connection, then reap the dead.
    fn pump_conns(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        for lane in 0..self.config.workers.max(1) {
            for sc in self.conns.values_mut() {
                if sc.lane != lane {
                    continue;
                }
                // Loop to quiescence: read-side backpressure can pause a
                // pump mid-buffer, and every frame written this tick must
                // be handled this tick (determinism rule 3).
                while !sc.conn.is_dead() && pump(&mut sc.conn, &self.service, &mut chunk, false) {}
            }
        }
        self.conns.retain(|_, sc| !sc.conn.is_dead());
    }

    /// End of tick: pump the service, deliver replies to agents, sample
    /// gauges.
    fn finish_tick(&mut self) {
        self.pump_conns();

        let tick = self.tick;
        let Sim {
            config,
            agents,
            events,
            seqno,
            journal,
            verdicts,
            errors,
            fault_counts,
            wire_out,
            ..
        } = self;
        let mut finished: Vec<u64> = Vec::new();
        let mut chunk = [0u8; 4 * 1024];
        for (&host, agent) in agents.iter_mut() {
            let Some(tx) = &mut agent.tx else { continue };
            loop {
                match tx.read(&mut chunk) {
                    Ok(0) => break, // server hung up (nothing buffered)
                    Ok(n) => {
                        *wire_out += n as u64;
                        agent.fb.extend(&chunk[..n]);
                    }
                    Err(_) => break, // WouldBlock
                }
            }
            while let Ok(Some(frame)) = agent.fb.next_frame() {
                match frame {
                    Frame::Hello { .. } => {
                        if agent.awaiting == Awaiting::Hello {
                            if config.protocol == WireFormat::V2Binary {
                                agent.fb.set_format(WireFormat::V2Binary);
                            }
                            agent.awaiting = Awaiting::Nothing;
                            let s = *seqno;
                            *seqno += 1;
                            events.push(Reverse(Event {
                                tick: tick + 1,
                                phase: PHASE_STEP,
                                seqno: s,
                                kind: EventKind::AgentStep { host },
                            }));
                        }
                    }
                    Frame::Verdict { seq, verdict, .. } => {
                        let (class, confidence_bits) = match verdict {
                            None => (0, 0),
                            Some(Verdict::Benign) => (1, 0),
                            Some(Verdict::Malware { class, confidence }) => {
                                let idx = AppClass::MALWARE
                                    .iter()
                                    .position(|c| *c == class)
                                    .unwrap_or(AppClass::MALWARE.len());
                                (2 + idx as u64, confidence.to_bits())
                            }
                        };
                        match class {
                            0 => verdicts.warmup += 1,
                            1 => verdicts.benign += 1,
                            2 => verdicts.backdoor += 1,
                            3 => verdicts.rootkit += 1,
                            4 => verdicts.virus += 1,
                            _ => verdicts.trojan += 1,
                        }
                        journal.record(JournalEntry::Verdict {
                            host,
                            seq,
                            class,
                            confidence_bits,
                        });
                        agent.awaiting = Awaiting::Nothing;
                        if agent.next_reading >= config.readings {
                            finished.push(host);
                        } else {
                            schedule_next(
                                agent,
                                host,
                                tick,
                                config,
                                fault_counts,
                                journal,
                                events,
                                seqno,
                            );
                        }
                    }
                    Frame::Error { code, .. } => {
                        match code {
                            ErrorCode::Malformed => errors.malformed += 1,
                            ErrorCode::OutOfOrder => errors.out_of_order += 1,
                            _ => errors.other += 1,
                        }
                        journal.record(JournalEntry::Error {
                            host,
                            seq: agent.next_reading,
                            code: error_code_id(&code),
                        });
                        agent.awaiting = Awaiting::Nothing;
                        schedule_next(
                            agent,
                            host,
                            tick,
                            config,
                            fault_counts,
                            journal,
                            events,
                            seqno,
                        );
                    }
                    Frame::Submit { .. } | Frame::Drain { .. } => {
                        // The service never sends these to an agent.
                    }
                }
            }
        }
        for host in finished {
            if let Some(mut agent) = self.agents.remove(&host) {
                if let Some(tx) = &mut agent.tx {
                    tx.close();
                }
            }
        }

        let live = self.service.metrics.sessions.load(Ordering::Relaxed);
        self.peak_sessions = self.peak_sessions.max(live);
    }
}

/// Schedules an agent's next step after a reply at `tick` — normally
/// `tick + interval`, but an idle-race host due to fire instead resumes on
/// the first sweep tick past the idle threshold, landing its submit in
/// the same tick (earlier phase) as the sweep that evicts it.
#[allow(clippy::too_many_arguments)]
fn schedule_next(
    agent: &mut Agent,
    host: u64,
    tick: u64,
    config: &SimConfig,
    fault_counts: &mut FaultCounters,
    journal: &mut Journal,
    events: &mut BinaryHeap<Reverse<Event>>,
    seqno: &mut u64,
) {
    let at = fault_reading(agent.fault, config.readings);
    let next_tick = if agent.fault == StreamFault::IdleRace
        && !agent.raced
        && agent.next_reading == at
        && config.sweep_every > 0
    {
        agent.raced = true;
        agent.injected = true;
        fault_counts.idle_race += 1;
        journal.record(JournalEntry::Fault {
            host,
            reading: at,
            kind: fault_kind_id(StreamFault::IdleRace),
        });
        // First sweep tick strictly past the idle threshold: the session's
        // last_seen is `tick`, so eviction is due from tick + idle_after+1.
        (tick + config.idle_after + 1).div_ceil(config.sweep_every) * config.sweep_every
    } else {
        tick + config.interval.max(1)
    };
    let s = *seqno;
    *seqno += 1;
    events.push(Reverse(Event {
        tick: next_tick,
        phase: PHASE_STEP,
        seqno: s,
        kind: EventKind::AgentStep { host },
    }));
}

/// Opens a connection for `agent`: duplex pipes (dribble quotas on the
/// server side), a real [`Conn`] registered on a lane, and the v1 Hello
/// that starts negotiation. Returns bytes written.
fn connect(
    agent: &mut Agent,
    conns: &mut BTreeMap<u64, SimConn>,
    conn_seq: &mut u64,
    service: &Service,
    workers: usize,
    protocol: WireFormat,
) -> u64 {
    let (mut server_end, client_end) = duplex();
    if let Some(q) = agent.dribble {
        server_end.set_quotas(q, q);
    }
    let id = *conn_seq;
    *conn_seq += 1;
    conns.insert(
        id,
        SimConn {
            conn: Conn::new(server_end),
            lane: (id % workers.max(1) as u64) as usize,
        },
    );
    service.metrics.bump(&service.metrics.connections);
    agent.tx = Some(client_end);
    // Negotiation always starts in v1 JSON, exactly like the TCP client.
    agent.fb = FrameBuffer::new();
    agent.awaiting = Awaiting::Hello;
    let version = match protocol {
        WireFormat::V1Json => PROTOCOL_VERSION,
        WireFormat::V2Binary => PROTOCOL_VERSION_V2,
    };
    agent.send(&Frame::Hello { version })
}
