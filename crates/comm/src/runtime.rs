//! SPMD runtime: ranks as threads, neighbor channels, deterministic
//! collectives, traffic counters.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use qdd_faults::{FaultPlan, RecvFault};
use qdd_field::spinor::{HalfSpinor, HalfSpinorF16};
use qdd_lattice::{Dir, RankGrid};
use qdd_trace::{CommStats, FaultStats, FlightLane, Phase, TraceSink};
use qdd_util::complex::Real;
use std::cell::{Cell, RefCell};
use std::sync::Barrier;

/// Message payload: one face worth of half-spinors, in either compute
/// precision or packed to f16 on the wire.
#[derive(Clone)]
pub enum Payload {
    F16(Vec<HalfSpinorF16>),
    F32(Vec<HalfSpinor<f32>>),
    F64(Vec<HalfSpinor<f64>>),
}

impl Payload {
    fn precision(&self) -> &'static str {
        match self {
            Payload::F16(_) => "f16",
            Payload::F32(_) => "f32",
            Payload::F64(_) => "f64",
        }
    }

    fn try_unwrap_f16(self) -> Result<Vec<HalfSpinorF16>, CommError> {
        match self {
            Payload::F16(d) => Ok(d),
            other => Err(CommError::PrecisionMismatch { expected: "f16", got: other.precision() }),
        }
    }
}

/// Which slice of a face an envelope carries: part `index` of `of`
/// equal-rank slices, in ascending face-index order. Whole faces travel
/// as [`FacePart::FULL`]; the Fig. 4 overlap schedule ships x/y/z faces
/// as two halves so each can leave as soon as its owning domains finish.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FacePart {
    pub index: u8,
    pub of: u8,
}

impl FacePart {
    /// The whole face in one message.
    pub const FULL: FacePart = FacePart { index: 0, of: 1 };
}

/// A delivered face payload with its part header; `None` marks a peer
/// hiccup skip (keep stale halo data).
pub type ReceivedPart<T> = Option<(Vec<HalfSpinor<T>>, FacePart)>;

/// One face message as it travels the (simulated) wire: the payload plus
/// an end-to-end checksum. The checksum is `None` when the sender had no
/// fault plan attached — the clean fast path pays nothing for the fault
/// machinery.
#[derive(Clone)]
pub struct Envelope {
    payload: Payload,
    checksum: Option<u64>,
    part: FacePart,
}

/// What actually goes down a channel.
enum Msg {
    Face(Envelope),
    /// Hiccup marker: the sender skipped this exchange entirely. Sent so
    /// every posted receive still has a matching message (a silent skip
    /// would misalign the channel stream and deadlock the receiver).
    Skip,
}

/// A message the injector withheld or damaged, parked until the bounded
/// retry asks for its "retransmission".
struct Stashed {
    seq: u64,
    attempt: u32,
    env: Envelope,
}

/// FNV-1a over the bit patterns of every real component of the payload.
/// Bit-exact, order-sensitive, and cheap — one multiply per real.
fn checksum_payload(p: &Payload) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    match p {
        Payload::F16(v) => {
            for hs in v {
                for row in &hs.0 {
                    for z in row {
                        h = (h ^ z.re.0 as u64).wrapping_mul(PRIME);
                        h = (h ^ z.im.0 as u64).wrapping_mul(PRIME);
                    }
                }
            }
        }
        Payload::F32(v) => {
            for hs in v {
                for c3 in &hs.0 {
                    for z in &c3.0 {
                        h = (h ^ z.re.to_bits() as u64).wrapping_mul(PRIME);
                        h = (h ^ z.im.to_bits() as u64).wrapping_mul(PRIME);
                    }
                }
            }
        }
        Payload::F64(v) => {
            for hs in v {
                for c3 in &hs.0 {
                    for z in &c3.0 {
                        h = (h ^ z.re.to_bits()).wrapping_mul(PRIME);
                        h = (h ^ z.im.to_bits()).wrapping_mul(PRIME);
                    }
                }
            }
        }
    }
    h
}

/// Payload size on the wire, bytes.
fn payload_bytes(p: &Payload) -> f64 {
    match p {
        Payload::F16(v) => (v.len() * HalfSpinorF16::WIRE_BYTES) as f64,
        Payload::F32(v) => (v.len() * HalfSpinor::<f32>::REALS * std::mem::size_of::<f32>()) as f64,
        Payload::F64(v) => (v.len() * HalfSpinor::<f64>::REALS * std::mem::size_of::<f64>()) as f64,
    }
}

/// Flip 1-3 seeded bits somewhere in the payload (no-op on empty faces).
fn corrupt_payload(p: &mut Payload, rng: &mut qdd_util::rng::Rng64) {
    let flips = 1 + rng.below(3);
    for _ in 0..flips {
        match p {
            Payload::F16(v) => {
                if v.is_empty() {
                    return;
                }
                let i = rng.below(v.len());
                let hs = &mut v[i];
                let c = rng.below(6);
                let z = &mut hs.0[c / 3][c % 3];
                let bit = 1u16 << rng.below(16);
                if rng.below(2) == 0 {
                    z.re.0 ^= bit;
                } else {
                    z.im.0 ^= bit;
                }
            }
            Payload::F32(v) => {
                if v.is_empty() {
                    return;
                }
                let i = rng.below(v.len());
                let hs = &mut v[i];
                let c = rng.below(6);
                let z = &mut hs.0[c / 3].0[c % 3];
                let bit = 1u32 << rng.below(32);
                if rng.below(2) == 0 {
                    z.re = f32::from_bits(z.re.to_bits() ^ bit);
                } else {
                    z.im = f32::from_bits(z.im.to_bits() ^ bit);
                }
            }
            Payload::F64(v) => {
                if v.is_empty() {
                    return;
                }
                let i = rng.below(v.len());
                let hs = &mut v[i];
                let c = rng.below(6);
                let z = &mut hs.0[c / 3].0[c % 3];
                let bit = 1u64 << rng.below(64);
                if rng.below(2) == 0 {
                    z.re = f64::from_bits(z.re.to_bits() ^ bit);
                } else {
                    z.im = f64::from_bits(z.im.to_bits() ^ bit);
                }
            }
        }
    }
}

/// A communication failure a rank can recover from. The service layer
/// maps these to degraded solve results; a malformed exchange must never
/// abort the rank thread.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CommError {
    /// A received payload carried the wrong scalar precision.
    PrecisionMismatch { expected: &'static str, got: &'static str },
    /// The peer rank hung up (channel disconnected).
    Disconnected,
    /// The face from `(dir, forward)` failed its checksum: the payload
    /// was damaged in flight. A retry fetches the retransmission.
    Corrupt { dir: Dir, forward: bool },
    /// The face in `dir` never arrived within the delivery attempt(s):
    /// `attempts` is the total number of attempts made so far.
    Timeout { dir: Dir, attempts: u32 },
    /// The peer rank deliberately skipped its face send for this step
    /// (a scheduling hiccup announced with an explicit skip marker).
    /// Unlike [`CommError::Timeout`] no retry budget was spent and none
    /// would help: the peer will not retransmit what it never packed.
    PeerSkipped { dir: Dir, forward: bool },
}

impl CommError {
    /// True if a retry can plausibly fix this (lost or damaged message);
    /// false for structural errors (wrong precision, dead peer) and for
    /// deliberate peer skips (the peer announced it has nothing to send).
    pub fn is_retryable(&self) -> bool {
        matches!(self, CommError::Corrupt { .. } | CommError::Timeout { .. })
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PrecisionMismatch { expected, got } => {
                write!(f, "payload precision mismatch: expected {expected}, got {got}")
            }
            CommError::Disconnected => write!(f, "peer rank hung up"),
            CommError::Corrupt { dir, forward } => {
                let o = if *forward { "fwd" } else { "bwd" };
                write!(f, "face checksum mismatch ({dir} {o}): payload corrupted in flight")
            }
            CommError::Timeout { dir, attempts } => {
                write!(f, "face receive in {dir} timed out after {attempts} attempt(s)")
            }
            CommError::PeerSkipped { dir, forward } => {
                let o = if *forward { "fwd" } else { "bwd" };
                write!(f, "peer skipped its face send ({dir} {o}): scheduling hiccup")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Retransmission budget and modeled backoff schedule for retrying face
/// receives. The default reproduces the historical hard-coded behavior
/// (4 delivery attempts, 50 µs linear backoff, no cap) bit for bit, so
/// existing baselines are unaffected unless a caller installs a custom
/// policy via [`CommWorld::with_retry_policy`] or
/// [`RankCtx::set_retry_policy`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Delivery attempts per face: the first try plus retransmissions.
    pub max_attempts: u32,
    /// Modeled backoff before retransmission `k` (1-based) is
    /// `base_backoff_us * k`, accounted in the fault ledger's `delay_us`
    /// (never slept — fault timing stays bitwise reproducible).
    pub base_backoff_us: f64,
    /// Ceiling on a single backoff step; `f64::INFINITY` disables it.
    pub cap_backoff_us: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: crate::exchange::MAX_ATTEMPTS,
            base_backoff_us: 50.0,
            cap_backoff_us: f64::INFINITY,
        }
    }
}

impl RetryPolicy {
    /// Modeled backoff in microseconds before retransmitting after
    /// failed attempt `attempt` (0-based).
    pub fn backoff_us(&self, attempt: u32) -> f64 {
        (self.base_backoff_us * (attempt + 1) as f64).min(self.cap_backoff_us)
    }
}

/// Precision dispatch for payloads.
pub trait HaloScalar: Real {
    fn wrap(data: Vec<HalfSpinor<Self>>) -> Payload;
    /// Typed unwrap: a mismatched payload is an error, not a panic.
    fn try_unwrap(p: Payload) -> Result<Vec<HalfSpinor<Self>>, CommError>;
}

impl HaloScalar for f32 {
    fn wrap(data: Vec<HalfSpinor<f32>>) -> Payload {
        Payload::F32(data)
    }
    fn try_unwrap(p: Payload) -> Result<Vec<HalfSpinor<f32>>, CommError> {
        match p {
            Payload::F32(d) => Ok(d),
            other => Err(CommError::PrecisionMismatch { expected: "f32", got: other.precision() }),
        }
    }
}

impl HaloScalar for f64 {
    fn wrap(data: Vec<HalfSpinor<f64>>) -> Payload {
        Payload::F64(data)
    }
    fn try_unwrap(p: Payload) -> Result<Vec<HalfSpinor<f64>>, CommError> {
        match p {
            Payload::F64(d) => Ok(d),
            other => Err(CommError::PrecisionMismatch { expected: "f64", got: other.precision() }),
        }
    }
}

/// Deterministic all-reduce: every rank deposits a partial vector, all
/// ranks reduce in fixed rank order (bit-reproducible independent of
/// thread scheduling).
pub struct Collective {
    slots: Vec<Mutex<Vec<f64>>>,
    barrier: Barrier,
    parties: usize,
}

impl Collective {
    pub fn new(parties: usize) -> Self {
        Self {
            slots: (0..parties).map(|_| Mutex::new(Vec::new())).collect(),
            barrier: Barrier::new(parties),
            parties,
        }
    }

    /// All ranks must call with vectors of identical length.
    pub fn all_sum(&self, rank: usize, vals: &[f64]) -> Vec<f64> {
        *self.slots[rank].lock() = vals.to_vec();
        self.barrier.wait();
        let mut acc = vec![0.0; vals.len()];
        for r in 0..self.parties {
            let slot = self.slots[r].lock();
            assert_eq!(slot.len(), vals.len(), "collective length mismatch");
            for (a, v) in acc.iter_mut().zip(slot.iter()) {
                *a += v;
            }
        }
        // Second barrier: nobody may overwrite a slot before all have read.
        self.barrier.wait();
        acc
    }
}

/// Per-rank fault-handling counters (Cell-based mirror of
/// [`FaultStats`]; each context lives on one thread).
#[derive(Default)]
pub struct FaultCounters {
    pub retries: Cell<u64>,
    pub timeouts: Cell<u64>,
    pub corruptions: Cell<u64>,
    pub delays: Cell<u64>,
    pub delay_us: Cell<f64>,
    pub hiccups: Cell<u64>,
    /// Explicit skip markers received from hiccuping peers. Distinct
    /// from `timeouts`: no retry budget was spent and the face is known
    /// to be deliberately absent rather than lost.
    pub peer_skips: Cell<u64>,
    pub zero_fills: Cell<u64>,
}

impl FaultCounters {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            retries: self.retries.get(),
            timeouts: self.timeouts.get(),
            corruptions: self.corruptions.get(),
            delays: self.delays.get(),
            delay_us: self.delay_us.get(),
            hiccups: self.hiccups.get(),
            peer_skips: self.peer_skips.get(),
            zero_fills: self.zero_fills.get(),
        }
    }

    #[inline]
    fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }
}

/// Per-rank communication counters.
#[derive(Default)]
pub struct CommCounters {
    /// Bytes actually sent over the (simulated) network.
    pub bytes_sent: Cell<f64>,
    /// Bytes successfully *delivered* off the (simulated) network.
    /// Counted exactly once, at delivery — not at physical arrival — so
    /// a message that is stashed and redelivered across retry attempts
    /// is never double-counted, and a message abandoned when the retry
    /// budget runs out is never counted at all (its bytes reached the
    /// NIC but never the solver). A hiccuping rank (which sends nothing)
    /// still accounts what it received and merged.
    pub bytes_received: Cell<f64>,
    /// Bytes per `[dimension][orientation]` (0 = backward, 1 = forward).
    pub bytes_by_dir: [[Cell<f64>; 2]; 4],
    /// Number of point-to-point messages sent.
    pub messages_sent: Cell<u64>,
    /// Number of collective reductions participated in.
    pub reductions: Cell<u64>,
    /// Wall-clock seconds spent blocked in face receives: the measured
    /// *exposed* communication time of this rank.
    pub recv_wait_s: Cell<f64>,
    /// Fault injection and recovery activity.
    pub faults: FaultCounters,
}

impl CommCounters {
    /// Immutable snapshot in the trace crate's exchange format.
    pub fn snapshot(&self) -> CommStats {
        CommStats {
            bytes_sent: self.bytes_sent.get(),
            bytes_received: self.bytes_received.get(),
            bytes_by_dir: std::array::from_fn(|d| {
                std::array::from_fn(|o| self.bytes_by_dir[d][o].get())
            }),
            messages_sent: self.messages_sent.get(),
            reductions: self.reductions.get(),
            recv_wait_s: self.recv_wait_s.get(),
            faults: self.faults.snapshot(),
        }
    }
}

/// One rank's endpoint: channels to/from its eight neighbors plus the
/// collective.
pub struct RankCtx<'w> {
    rank: usize,
    grid: &'w RankGrid,
    /// `rx[d][o]` receives from `neighbor(rank, d, o == 1)`.
    rx: [[Receiver<Msg>; 2]; 4],
    /// `tx[d][o]` sends to `neighbor(rank, d, o == 1)`.
    tx: [[Sender<Msg>; 2]; 4],
    collective: &'w Collective,
    pub counters: CommCounters,
    /// Trace sink for the rank's communication spans (disabled by
    /// default). `RefCell` because contexts are handed to rank bodies by
    /// shared reference; each context lives on exactly one thread.
    trace: RefCell<TraceSink>,
    /// Fault schedule for this rank (`None` = perfect fabric). Attached
    /// by [`CommWorld::with_faults`] or [`RankCtx::attach_faults`].
    faults: RefCell<Option<FaultPlan>>,
    /// Face messages received per channel, the injector's coordinate.
    recv_seq: [[Cell<u64>; 2]; 4],
    /// Collective reductions performed, for collective straggler faults.
    coll_seq: Cell<u64>,
    /// Schwarz exchange rounds, the hiccup decision coordinate.
    hiccup_seq: Cell<u64>,
    /// Per-channel parking spot for a withheld genuine message.
    stash: [[RefCell<Option<Stashed>>; 2]; 4],
    /// Flight-recorder lane for this rank's fault/comm events (disabled
    /// by default; attach via [`RankCtx::attach_flight`]).
    flight: RefCell<FlightLane>,
    /// Retransmission budget and backoff schedule for retrying receives.
    retry: Cell<RetryPolicy>,
}

impl<'w> RankCtx<'w> {
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn grid(&self) -> &RankGrid {
        self.grid
    }

    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.grid.num_ranks()
    }

    /// True if halos in `dir` cross the network (more than one rank).
    #[inline]
    pub fn is_split(&self, dir: Dir) -> bool {
        self.grid.is_split(dir)
    }

    /// Split mask over all four directions, indexed by `Dir::index()`.
    #[inline]
    pub fn split_dirs(&self) -> [bool; 4] {
        std::array::from_fn(|d| self.grid.is_split(Dir::ALL[d]))
    }

    /// Attach a trace sink: subsequent sends, receives and collectives
    /// record `HaloSend` / `HaloRecv` / `GlobalSum` spans into it.
    pub fn attach_trace(&self, sink: TraceSink) {
        *self.trace.borrow_mut() = sink;
    }

    /// The rank's trace sink (disabled unless attached).
    pub fn trace(&self) -> TraceSink {
        self.trace.borrow().clone()
    }

    /// Attach a fault schedule: subsequent sends checksum their payload
    /// and subsequent receives run through the injector. An inert plan
    /// (zero rates, no events) is dropped so the clean path stays
    /// bitwise identical to a context without a plan.
    pub fn attach_faults(&self, plan: FaultPlan) {
        *self.faults.borrow_mut() = if plan.is_inert() { None } else { Some(plan) };
    }

    /// Attach a flight-recorder lane: subsequent fault events (losses,
    /// detected corruptions, retries, exhausted budgets, hiccups) record
    /// into its ring, tagged with the lane's current trace id.
    pub fn attach_flight(&self, lane: FlightLane) {
        *self.flight.borrow_mut() = lane;
    }

    /// Tag subsequent flight events with `id` (a per-solve trace id).
    pub fn set_trace_id(&self, id: qdd_trace::TraceId) {
        self.flight.borrow().set_trace(id);
    }

    /// Install a retransmission policy for subsequent retrying receives.
    /// SPMD discipline: install the same policy on every rank (or via
    /// [`CommWorld::with_retry_policy`]) so peers agree on budgets.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.retry.set(policy);
    }

    /// The active retransmission policy (default unless set).
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry.get()
    }

    /// Send one face to the neighbor in `(dir, forward)`. Traffic is
    /// counted only when the neighbor is a different rank.
    pub fn send_face<T: HaloScalar>(&self, dir: Dir, forward: bool, data: Vec<HalfSpinor<T>>) {
        self.send_face_part(dir, forward, FacePart::FULL, data);
    }

    /// Send one labelled slice of a face (the Fig. 4 split-face path).
    /// The part header travels with the envelope so the receiver can
    /// verify the schedule stayed in step.
    pub fn send_face_part<T: HaloScalar>(
        &self,
        dir: Dir,
        forward: bool,
        part: FacePart,
        data: Vec<HalfSpinor<T>>,
    ) {
        self.send_payload(dir, forward, part, T::wrap(data));
    }

    /// Send one labelled face slice packed to f16 on the wire — half the
    /// bytes of the f32 envelope. The receiver must drain it with
    /// [`recv_face_part_retrying_f16`](Self::recv_face_part_retrying_f16).
    pub fn send_face_part_f16(
        &self,
        dir: Dir,
        forward: bool,
        part: FacePart,
        data: Vec<HalfSpinorF16>,
    ) {
        self.send_payload(dir, forward, part, Payload::F16(data));
    }

    fn send_payload(&self, dir: Dir, forward: bool, part: FacePart, payload: Payload) {
        let mut sent = 0.0;
        if self.is_split(dir) {
            let bytes = payload_bytes(&payload);
            self.counters.bytes_sent.set(self.counters.bytes_sent.get() + bytes);
            let by_dir = &self.counters.bytes_by_dir[dir.index()][forward as usize];
            by_dir.set(by_dir.get() + bytes);
            self.counters.messages_sent.set(self.counters.messages_sent.get() + 1);
            sent = bytes;
        }
        let trace = self.trace.borrow();
        trace.begin(Phase::HaloSend);
        let checksum = self.faults.borrow().as_ref().map(|_| checksum_payload(&payload));
        self.tx[dir.index()][forward as usize]
            .send(Msg::Face(Envelope { payload, checksum, part }))
            .expect("peer rank hung up");
        trace.end_with(Phase::HaloSend, &[("bytes", sent), ("dir", dir.index() as f64)]);
    }

    /// Send a hiccup marker instead of a face: the receiver learns this
    /// exchange was skipped (and keeps its stale halo) without the
    /// channel stream going out of step. No traffic is counted — the
    /// modeled rank sent nothing.
    pub fn send_skip(&self, dir: Dir, forward: bool) {
        self.tx[dir.index()][forward as usize].send(Msg::Skip).expect("peer rank hung up");
    }

    /// One delivery attempt on `(dir, forward)`: take the stashed
    /// withheld message if one is parked, otherwise block on the channel.
    /// Runs the injector when a plan is attached and verifies the
    /// checksum of whatever would be delivered. `Ok(None)` means the
    /// peer skipped this exchange (hiccup marker).
    fn recv_attempt(
        &self,
        dir: Dir,
        forward: bool,
    ) -> Result<Option<(Payload, FacePart)>, CommError> {
        let d = dir.index();
        let o = forward as usize;
        let stashed = self.stash[d][o].borrow_mut().take();
        let (seq, attempt, env) = match stashed {
            Some(s) => (s.seq, s.attempt, s.env),
            None => {
                let trace = self.trace.borrow();
                trace.begin(Phase::HaloRecv);
                let t0 = std::time::Instant::now();
                let msg = self.rx[d][o].recv().map_err(|_| CommError::Disconnected)?;
                let waited = &self.counters.recv_wait_s;
                waited.set(waited.get() + t0.elapsed().as_secs_f64());
                trace.end_with(Phase::HaloRecv, &[("dir", d as f64)]);
                match msg {
                    Msg::Skip => {
                        // Count every skip marker here, at its single
                        // delivery point, so the inner (Schwarz) and
                        // outer (matvec) exchanges share one ledger for
                        // the peer-skip fault class.
                        FaultCounters::bump(&self.counters.faults.peer_skips);
                        self.flight.borrow().record(Phase::Fault, "fault.peer_skip", d as f64, 0.0);
                        return Ok(None);
                    }
                    Msg::Face(env) => {
                        let seq = self.recv_seq[d][o].get();
                        self.recv_seq[d][o].set(seq + 1);
                        (seq, 0, env)
                    }
                }
            }
        };
        // Delivered traffic is accounted at the successful-return points
        // below — exactly once per message, however many delivery
        // attempts the injector forced, and never for a message whose
        // retry budget runs out before it is delivered.
        let delivered = |payload: &Payload| {
            if self.is_split(dir) {
                let got = &self.counters.bytes_received;
                got.set(got.get() + payload_bytes(payload));
            }
        };
        let plan = self.faults.borrow();
        if let Some(plan) = plan.as_ref() {
            match plan.recv_fault(self.rank, dir, forward, seq, attempt) {
                RecvFault::Lose => {
                    // The message "never arrived": park the genuine
                    // envelope as the future retransmission and time out.
                    self.flight.borrow().record(
                        Phase::Fault,
                        "fault.lose",
                        d as f64,
                        attempt as f64,
                    );
                    *self.stash[d][o].borrow_mut() =
                        Some(Stashed { seq, attempt: attempt + 1, env });
                    return Err(CommError::Timeout { dir, attempts: attempt + 1 });
                }
                RecvFault::Corrupt => {
                    let mut damaged = env.payload.clone();
                    let mut rng = plan.corruption_rng(self.rank, dir, forward, seq, attempt);
                    corrupt_payload(&mut damaged, &mut rng);
                    let detected = env.checksum.is_some_and(|ck| checksum_payload(&damaged) != ck);
                    if detected {
                        FaultCounters::bump(&self.counters.faults.corruptions);
                        self.flight.borrow().record(
                            Phase::Fault,
                            "fault.corrupt",
                            d as f64,
                            attempt as f64,
                        );
                        *self.stash[d][o].borrow_mut() =
                            Some(Stashed { seq, attempt: attempt + 1, env });
                        return Err(CommError::Corrupt { dir, forward });
                    }
                    // No checksum on the envelope (or a hash collision):
                    // the damage goes undetected and the damaged payload
                    // is delivered — exactly the silent poisoning the
                    // checksum exists to prevent.
                    delivered(&damaged);
                    return Ok(Some((damaged, env.part)));
                }
                RecvFault::None => {
                    if attempt == 0 {
                        if let Some(us) = plan.delay_fault(self.rank, dir, forward, seq) {
                            FaultCounters::bump(&self.counters.faults.delays);
                            let cell = &self.counters.faults.delay_us;
                            cell.set(cell.get() + us);
                            self.flight.borrow().record(Phase::Fault, "fault.delay", d as f64, us);
                        }
                    }
                }
            }
            // Verify deliveries even when the injector let them pass:
            // detection must come from the checksum, not from knowing
            // the injection decision.
            if let Some(ck) = env.checksum {
                if checksum_payload(&env.payload) != ck {
                    FaultCounters::bump(&self.counters.faults.corruptions);
                    return Err(CommError::Corrupt { dir, forward });
                }
            }
        }
        delivered(&env.payload);
        Ok(Some((env.payload, env.part)))
    }

    /// Receive one face from the neighbor in `(dir, forward)` (blocking).
    /// A payload of the wrong precision, a hung-up peer, or an injected
    /// fault is reported as a [`CommError`], never a panic: callers
    /// retry ([`recv_face_retrying`](Self::recv_face_retrying)) or
    /// degrade the solve. A hiccup marker surfaces as
    /// [`CommError::PeerSkipped`] here (no retry budget was spent);
    /// exchanges that expect skips use
    /// [`recv_face_or_skip`](Self::recv_face_or_skip).
    pub fn recv_face<T: HaloScalar>(
        &self,
        dir: Dir,
        forward: bool,
    ) -> Result<Vec<HalfSpinor<T>>, CommError> {
        match self.recv_attempt(dir, forward)? {
            Some((p, _)) => T::try_unwrap(p),
            None => Err(CommError::PeerSkipped { dir, forward }),
        }
    }

    /// Like [`recv_face`](Self::recv_face) but distinguishing a peer
    /// hiccup (`Ok(None)`: the sender skipped the exchange, keep stale
    /// data) from a delivery fault (`Err`). Returns the part header
    /// alongside the data so split-face schedules can check step.
    pub fn recv_part_or_skip<T: HaloScalar>(
        &self,
        dir: Dir,
        forward: bool,
    ) -> Result<ReceivedPart<T>, CommError> {
        match self.recv_attempt(dir, forward)? {
            Some((p, part)) => T::try_unwrap(p).map(|d| Some((d, part))),
            None => Ok(None),
        }
    }

    /// [`recv_part_or_skip`](Self::recv_part_or_skip) without the header.
    pub fn recv_face_or_skip<T: HaloScalar>(
        &self,
        dir: Dir,
        forward: bool,
    ) -> Result<Option<Vec<HalfSpinor<T>>>, CommError> {
        Ok(self.recv_part_or_skip::<T>(dir, forward)?.map(|(d, _)| d))
    }

    /// Receive with bounded retry: up to `max_attempts` delivery
    /// attempts, counting each repeat as a retry (with modeled backoff
    /// latency) under `fault.*`. On budget exhaustion the withheld
    /// message is abandoned — the channel stream has already advanced
    /// past it, so keeping it would desynchronize later exchanges — a
    /// timeout is counted, and the last error is returned.
    pub fn recv_face_retrying<T: HaloScalar>(
        &self,
        dir: Dir,
        forward: bool,
        max_attempts: u32,
    ) -> Result<Option<Vec<HalfSpinor<T>>>, CommError> {
        self.recv_face_part_retrying(dir, forward, FacePart::FULL, max_attempts)
    }

    /// [`recv_face_retrying`](Self::recv_face_retrying) for one labelled
    /// slice of a face. The delivered part header must equal `expect`: a
    /// mismatch is a schedule bug on our side, not a fabric fault, so it
    /// panics instead of degrading.
    pub fn recv_face_part_retrying<T: HaloScalar>(
        &self,
        dir: Dir,
        forward: bool,
        expect: FacePart,
        max_attempts: u32,
    ) -> Result<Option<Vec<HalfSpinor<T>>>, CommError> {
        match self.recv_payload_part_retrying(dir, forward, expect, max_attempts)? {
            Some(p) => T::try_unwrap(p).map(Some),
            None => Ok(None),
        }
    }

    /// [`recv_face_part_retrying`](Self::recv_face_part_retrying) for an
    /// f16-packed face slice (the wire format of
    /// [`send_face_part_f16`](Self::send_face_part_f16)).
    pub fn recv_face_part_retrying_f16(
        &self,
        dir: Dir,
        forward: bool,
        expect: FacePart,
        max_attempts: u32,
    ) -> Result<Option<Vec<HalfSpinorF16>>, CommError> {
        match self.recv_payload_part_retrying(dir, forward, expect, max_attempts)? {
            Some(p) => p.try_unwrap_f16().map(Some),
            None => Ok(None),
        }
    }

    fn recv_payload_part_retrying(
        &self,
        dir: Dir,
        forward: bool,
        expect: FacePart,
        max_attempts: u32,
    ) -> Result<Option<Payload>, CommError> {
        debug_assert!(max_attempts >= 1);
        let policy = self.retry.get();
        let mut last = CommError::Timeout { dir, attempts: 0 };
        for attempt in 0..max_attempts {
            match self.recv_attempt(dir, forward) {
                Ok(Some((payload, part))) => {
                    assert_eq!(part, expect, "split-face schedule out of step in {dir}");
                    return Ok(Some(payload));
                }
                Ok(None) => return Ok(None),
                Err(e) if e.is_retryable() && attempt + 1 < max_attempts => {
                    let trace = self.trace.borrow();
                    trace.begin(Phase::Fault);
                    FaultCounters::bump(&self.counters.faults.retries);
                    let backoff = policy.backoff_us(attempt);
                    let cell = &self.counters.faults.delay_us;
                    cell.set(cell.get() + backoff);
                    self.flight.borrow().record(
                        Phase::Fault,
                        "fault.retry",
                        dir.index() as f64,
                        (attempt + 1) as f64,
                    );
                    trace.end_with(
                        Phase::Fault,
                        &[("dir", dir.index() as f64), ("attempt", (attempt + 1) as f64)],
                    );
                    last = e;
                }
                Err(e) => {
                    if e.is_retryable() {
                        // Budget exhausted on a retryable fault: the
                        // stashed message is abandoned undelivered (its
                        // bytes were never counted as received).
                        self.stash[dir.index()][forward as usize].borrow_mut().take();
                        FaultCounters::bump(&self.counters.faults.timeouts);
                        self.flight.borrow().record(
                            Phase::Fault,
                            "fault.timeout",
                            dir.index() as f64,
                            max_attempts as f64,
                        );
                    }
                    return Err(e);
                }
            }
        }
        Err(last)
    }

    /// Hiccup decision for the next Schwarz exchange round: true = this
    /// rank skips the round (callers send [`send_skip`](Self::send_skip)
    /// markers instead of faces). Consumes one hiccup sequence number
    /// only when a plan is attached, so clean runs are unaffected.
    pub fn take_hiccup(&self) -> bool {
        let plan = self.faults.borrow();
        match plan.as_ref() {
            Some(plan) => {
                let seq = self.hiccup_seq.get();
                self.hiccup_seq.set(seq + 1);
                let hic = plan.hiccup_fault(self.rank, seq);
                if hic {
                    FaultCounters::bump(&self.counters.faults.hiccups);
                    self.flight.borrow().record(Phase::Fault, "fault.hiccup", seq as f64, 0.0);
                }
                hic
            }
            None => false,
        }
    }

    /// Deterministic global sum of a small vector of reals.
    pub fn all_sum(&self, vals: &[f64]) -> Vec<f64> {
        self.counters.reductions.set(self.counters.reductions.get() + 1);
        if let Some(plan) = self.faults.borrow().as_ref() {
            // Only stragglers are modeled for collectives: the barrier
            // cannot lose a contribution without deadlocking the world.
            let seq = self.coll_seq.get();
            self.coll_seq.set(seq + 1);
            if let Some(us) = plan.collective_delay(self.rank, seq) {
                FaultCounters::bump(&self.counters.faults.delays);
                let cell = &self.counters.faults.delay_us;
                cell.set(cell.get() + us);
            }
        }
        let trace = self.trace.borrow();
        trace.begin(Phase::GlobalSum);
        let out = self.collective.all_sum(self.rank, vals);
        trace.end(Phase::GlobalSum);
        out
    }

    /// Rank coordinate helpers for boundary-phase decisions.
    pub fn at_global_backward_edge(&self, dir: Dir) -> bool {
        self.grid.rank_coord(self.rank)[dir] == 0
    }

    pub fn at_global_forward_edge(&self, dir: Dir) -> bool {
        self.grid.rank_coord(self.rank)[dir] == self.grid.grid()[dir] - 1
    }
}

/// The communication world: construct once, then run an SPMD closure on
/// every rank.
pub struct CommWorld {
    grid: RankGrid,
    /// Fault schedule attached to every rank context at spawn (so senders
    /// and receivers agree on whether envelopes carry checksums).
    faults: Option<FaultPlan>,
    /// Retransmission policy installed on every rank context at spawn.
    retry: RetryPolicy,
}

impl CommWorld {
    pub fn new(grid: RankGrid) -> Self {
        Self { grid, faults: None, retry: RetryPolicy::default() }
    }

    /// A world whose fabric misbehaves according to `plan`. An inert plan
    /// (zero rates, no events) is equivalent to [`CommWorld::new`].
    pub fn with_faults(grid: RankGrid, plan: FaultPlan) -> Self {
        Self { grid, faults: (!plan.is_inert()).then_some(plan), retry: RetryPolicy::default() }
    }

    /// Install a retransmission policy on every rank of this world
    /// (SPMD-consistent by construction).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    #[inline]
    pub fn grid(&self) -> &RankGrid {
        &self.grid
    }

    /// The world's retransmission policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }
}

/// Run `body` on every rank concurrently; returns the per-rank results in
/// rank order. `body` must follow SPMD discipline: all ranks make the same
/// sequence of collective calls.
pub fn run_spmd<R: Send>(world: &CommWorld, body: impl Fn(&RankCtx<'_>) -> R + Sync) -> Vec<R> {
    let grid = &world.grid;
    let n = grid.num_ranks();
    let collective = Collective::new(n);

    // Wire channels: for each (receiver rank, dir, orientation) one channel;
    // the sender is neighbor(receiver, dir, o), who addresses it through
    // its own tx[d][!o].
    let mut rx_slots: Vec<Vec<Option<Receiver<Msg>>>> =
        (0..n).map(|_| (0..8).map(|_| None).collect()).collect();
    let mut tx_slots: Vec<Vec<Option<Sender<Msg>>>> =
        (0..n).map(|_| (0..8).map(|_| None).collect()).collect();
    for r in 0..n {
        for dir in Dir::ALL {
            let d = dir.index();
            for o in 0..2 {
                let (s, rcv) = unbounded();
                rx_slots[r][2 * d + o] = Some(rcv);
                // Sender: the neighbor in (d, o); it sends via tx[d][!o].
                let nb = grid.neighbor_rank(r, dir, o == 1);
                tx_slots[nb][2 * d + (1 - o)] = Some(s);
            }
        }
    }

    let mut ctxs: Vec<RankCtx<'_>> = Vec::with_capacity(n);
    for (r, (rx_row, tx_row)) in rx_slots.into_iter().zip(tx_slots).enumerate() {
        let mut rx_iter = rx_row.into_iter();
        let rx: [[Receiver<Msg>; 2]; 4] =
            std::array::from_fn(|_| std::array::from_fn(|_| rx_iter.next().unwrap().unwrap()));
        let mut tx_iter = tx_row.into_iter();
        let tx: [[Sender<Msg>; 2]; 4] =
            std::array::from_fn(|_| std::array::from_fn(|_| tx_iter.next().unwrap().unwrap()));
        ctxs.push(RankCtx {
            rank: r,
            grid,
            rx,
            tx,
            collective: &collective,
            counters: CommCounters::default(),
            trace: RefCell::new(TraceSink::disabled()),
            faults: RefCell::new(world.faults.clone()),
            recv_seq: std::array::from_fn(|_| std::array::from_fn(|_| Cell::new(0))),
            coll_seq: Cell::new(0),
            hiccup_seq: Cell::new(0),
            stash: std::array::from_fn(|_| std::array::from_fn(|_| RefCell::new(None))),
            flight: RefCell::new(FlightLane::disabled()),
            retry: Cell::new(world.retry),
        });
    }

    let body = &body;
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    crossbeam::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        for ctx in ctxs {
            // Each context is moved into exactly one thread; the cheap
            // Cell-based counters therefore never cross threads.
            handles.push(s.spawn(move |_| body(&ctx)));
        }
        for (r, h) in handles.into_iter().enumerate() {
            results[r] = Some(h.join().expect("rank thread panicked"));
        }
    })
    .expect("spmd scope failed");
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_lattice::Dims;

    fn world_2x1x1x2() -> CommWorld {
        CommWorld::new(RankGrid::new(Dims::new(8, 4, 4, 8), Dims::new(2, 1, 1, 2)))
    }

    #[test]
    fn all_sum_is_deterministic_and_correct() {
        let world = world_2x1x1x2();
        let sums = run_spmd(&world, |ctx| {
            let mine = vec![ctx.rank() as f64 + 1.0, 0.5];
            ctx.all_sum(&mine)
        });
        // 4 ranks: sum of 1+2+3+4 = 10; 4 * 0.5 = 2.
        for s in &sums {
            assert_eq!(s[0], 10.0);
            assert_eq!(s[1], 2.0);
        }
    }

    #[test]
    fn repeated_collectives_do_not_interleave() {
        let world = world_2x1x1x2();
        let results = run_spmd(&world, |ctx| {
            let mut acc = Vec::new();
            for round in 0..20 {
                let s = ctx.all_sum(&[round as f64]);
                acc.push(s[0]);
            }
            acc
        });
        for r in &results {
            for (round, v) in r.iter().enumerate() {
                assert_eq!(*v, 4.0 * round as f64);
            }
        }
    }

    #[test]
    fn face_messages_route_between_neighbors() {
        let world = world_2x1x1x2();
        let grid = world.grid().clone();
        run_spmd(&world, |ctx| {
            // Send my rank id encoded in a half-spinor to my forward-x
            // neighbor; expect to receive from my backward-x neighbor.
            let mut h = HalfSpinor::<f64>::ZERO;
            h.0[0].0[0] = qdd_util::complex::Complex::real(ctx.rank() as f64);
            ctx.send_face(Dir::X, true, vec![h]);
            let got = ctx.recv_face::<f64>(Dir::X, false).unwrap();
            let expect = grid.neighbor_rank(ctx.rank(), Dir::X, false) as f64;
            assert_eq!(got[0].0[0].0[0].re, expect);
        });
    }

    #[test]
    fn traffic_counted_only_for_split_directions() {
        let world = world_2x1x1x2();
        let counters = run_spmd(&world, |ctx| {
            // Y is unsplit: self-message, no bytes. X is split: bytes.
            ctx.send_face(Dir::Y, true, vec![HalfSpinor::<f32>::ZERO; 10]);
            let _ = ctx.recv_face::<f32>(Dir::Y, false).unwrap();
            ctx.send_face(Dir::X, true, vec![HalfSpinor::<f32>::ZERO; 10]);
            let _ = ctx.recv_face::<f32>(Dir::X, false).unwrap();
            (ctx.counters.bytes_sent.get(), ctx.counters.messages_sent.get())
        });
        for (bytes, msgs) in counters {
            assert_eq!(bytes, 10.0 * 12.0 * 4.0);
            assert_eq!(msgs, 1);
        }
    }

    #[test]
    fn split_face_parts_roundtrip_with_receive_accounting() {
        let world = world_2x1x1x2();
        let rows = run_spmd(&world, |ctx| {
            assert_eq!(ctx.split_dirs(), [true, false, false, true]);
            let half = vec![HalfSpinor::<f64>::ZERO; 5];
            ctx.send_face_part(Dir::X, true, FacePart { index: 0, of: 2 }, half.clone());
            ctx.send_face_part(Dir::X, true, FacePart { index: 1, of: 2 }, half);
            let a = ctx
                .recv_face_part_retrying::<f64>(Dir::X, false, FacePart { index: 0, of: 2 }, 1)
                .unwrap()
                .unwrap();
            let b = ctx
                .recv_face_part_retrying::<f64>(Dir::X, false, FacePart { index: 1, of: 2 }, 1)
                .unwrap()
                .unwrap();
            assert_eq!(a.len() + b.len(), 10);
            (
                ctx.counters.bytes_sent.get(),
                ctx.counters.bytes_received.get(),
                ctx.counters.messages_sent.get(),
            )
        });
        for (sent, got, msgs) in rows {
            assert_eq!(sent, 10.0 * 12.0 * 8.0);
            assert_eq!(got, sent, "every sent byte arrives somewhere");
            assert_eq!(msgs, 2);
        }
    }

    #[test]
    fn retried_delivery_counts_received_bytes_once() {
        use qdd_faults::{FaultClass, FaultEvent, FaultRates};
        // Rank 0's backward-x receive loses the first delivery attempt;
        // the retransmission (attempt 1) goes through. The delivered
        // bytes must be counted exactly once, not per attempt.
        let plan = FaultPlan::new(1, FaultRates::NONE).with_event(FaultEvent {
            rank: 0,
            class: FaultClass::Loss,
            dir: Some(Dir::X),
            forward: Some(false),
            at_seq: 0,
            attempts: 1,
        });
        let world = CommWorld::with_faults(
            RankGrid::new(Dims::new(8, 4, 4, 4), Dims::new(2, 1, 1, 1)),
            plan,
        );
        let face_bytes = 6.0 * 12.0 * 8.0;
        let rows = run_spmd(&world, |ctx| {
            ctx.send_face(Dir::X, true, vec![HalfSpinor::<f64>::ZERO; 6]);
            let got = ctx.recv_face_retrying::<f64>(Dir::X, false, 4).unwrap().unwrap();
            assert_eq!(got.len(), 6);
            (ctx.rank(), ctx.counters.bytes_received.get(), ctx.counters.faults.snapshot().retries)
        });
        for (rank, got, retries) in rows {
            assert_eq!(got, face_bytes, "rank {rank}: one delivery, one accounting");
            assert_eq!(retries, u64::from(rank == 0));
        }
    }

    #[test]
    fn abandoned_message_is_never_counted_as_received() {
        use qdd_faults::{FaultClass, FaultEvent, FaultRates};
        // A permanent loss on rank 0's backward-x channel exhausts the
        // retry budget: the message physically reached the rank but was
        // never delivered to the solver, so it must not appear in
        // `bytes_received` (the ledger the model join consumes).
        let plan = FaultPlan::new(1, FaultRates::NONE).with_event(FaultEvent {
            rank: 0,
            class: FaultClass::Loss,
            dir: Some(Dir::X),
            forward: Some(false),
            at_seq: 0,
            attempts: u32::MAX,
        });
        let world = CommWorld::with_faults(
            RankGrid::new(Dims::new(8, 4, 4, 4), Dims::new(2, 1, 1, 1)),
            plan,
        );
        let face_bytes = 6.0 * 12.0 * 8.0;
        let rows = run_spmd(&world, |ctx| {
            ctx.send_face(Dir::X, true, vec![HalfSpinor::<f64>::ZERO; 6]);
            let res = ctx.recv_face_retrying::<f64>(Dir::X, false, 2);
            (ctx.rank(), res.is_err(), ctx.counters.snapshot())
        });
        for (rank, failed, stats) in rows {
            if rank == 0 {
                assert!(failed, "rank 0's receive must exhaust its budget");
                assert_eq!(stats.bytes_received, 0.0, "abandoned bytes must not be counted");
                assert_eq!(stats.faults.timeouts, 1);
            } else {
                assert!(!failed);
                assert_eq!(stats.bytes_received, face_bytes);
            }
            assert_eq!(stats.bytes_sent, face_bytes, "sends are accounted at the sender");
        }
    }

    #[test]
    fn retry_policy_default_matches_historical_constants() {
        // The default policy must reproduce the pre-policy behavior
        // bit for bit: 4 delivery attempts, 50 us linear backoff, no cap.
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, crate::exchange::MAX_ATTEMPTS);
        assert_eq!(p.backoff_us(0), 50.0);
        assert_eq!(p.backoff_us(2), 150.0);
    }

    #[test]
    fn retry_policy_governs_budget_and_caps_backoff() {
        use qdd_faults::{FaultClass, FaultEvent, FaultRates};
        // Permanent loss on rank 0's X-backward channel: with a 3-attempt
        // policy the receive retries twice (backoffs 40 then min(80, 50))
        // and then times out; the modeled delay ledger must show the
        // capped schedule exactly.
        let plan = FaultPlan::new(1, FaultRates::NONE).with_event(FaultEvent {
            rank: 0,
            class: FaultClass::Loss,
            dir: Some(Dir::X),
            forward: Some(false),
            at_seq: 0,
            attempts: u32::MAX,
        });
        let world = CommWorld::with_faults(
            RankGrid::new(Dims::new(8, 4, 4, 4), Dims::new(2, 1, 1, 1)),
            plan,
        )
        .with_retry_policy(RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 40.0,
            cap_backoff_us: 50.0,
        });
        let rows = run_spmd(&world, |ctx| {
            ctx.send_face(Dir::X, true, vec![HalfSpinor::<f64>::ZERO; 6]);
            let attempts = ctx.retry_policy().max_attempts;
            let res = ctx.recv_face_retrying::<f64>(Dir::X, false, attempts);
            (ctx.rank(), res.is_err(), ctx.counters.snapshot())
        });
        for (rank, failed, stats) in rows {
            if rank == 0 {
                assert!(failed, "rank 0 must exhaust the 3-attempt budget");
                assert_eq!(stats.faults.retries, 2);
                assert_eq!(stats.faults.timeouts, 1);
                assert_eq!(stats.faults.delay_us, 40.0 + 50.0, "linear backoff, capped at 50");
            } else {
                assert!(!failed);
            }
        }
    }

    #[test]
    fn flight_lane_records_fault_events_with_trace_ids() {
        use qdd_faults::{FaultClass, FaultEvent, FaultRates};
        use qdd_trace::{FlightRecorder, TraceId};
        let plan = FaultPlan::new(1, FaultRates::NONE).with_event(FaultEvent {
            rank: 0,
            class: FaultClass::Loss,
            dir: Some(Dir::X),
            forward: Some(false),
            at_seq: 0,
            attempts: 1,
        });
        let world = CommWorld::with_faults(
            RankGrid::new(Dims::new(8, 4, 4, 4), Dims::new(2, 1, 1, 1)),
            plan,
        );
        let recorder = FlightRecorder::enabled();
        let rec = &recorder;
        run_spmd(&world, |ctx| {
            ctx.attach_flight(rec.lane(ctx.rank() as u32));
            ctx.set_trace_id(TraceId::derive(9, ctx.rank() as u64));
            ctx.send_face(Dir::X, true, vec![HalfSpinor::<f64>::ZERO; 6]);
            let _ = ctx.recv_face_retrying::<f64>(Dir::X, false, 4).unwrap();
        });
        let events = recorder.snapshot();
        let codes: Vec<&str> = events.iter().map(|e| e.code).collect();
        assert_eq!(codes, ["fault.lose", "fault.retry"], "lose then retry, rank 0 only");
        for e in &events {
            assert_eq!(e.lane, 0);
            assert_eq!(e.trace, TraceId::derive(9, 0).0);
        }
    }

    #[test]
    fn same_seed_chaos_produces_identical_flight_sequences() {
        use qdd_faults::FaultRates;
        use qdd_trace::{FlightRecorder, TraceId};
        // Two runs with the same fault seed must leave bitwise-identical
        // flight recordings: fault decisions are pure hashes, delays are
        // modeled (not slept), and lane seq counters are the only clock.
        let run = || {
            let rates = FaultRates { loss: 0.2, corrupt: 0.1, delay: 0.1, hiccup: 0.0 };
            let world = CommWorld::with_faults(
                RankGrid::new(Dims::new(8, 4, 4, 4), Dims::new(2, 1, 1, 1)),
                FaultPlan::new(42, rates),
            );
            let recorder = FlightRecorder::enabled();
            let rec = &recorder;
            run_spmd(&world, |ctx| {
                ctx.attach_flight(rec.lane(ctx.rank() as u32));
                ctx.set_trace_id(TraceId::derive(42, ctx.rank() as u64));
                for _ in 0..20 {
                    ctx.send_face(Dir::X, true, vec![HalfSpinor::<f64>::ZERO; 6]);
                    let _ = ctx.recv_face_retrying::<f64>(Dir::X, false, 8).unwrap();
                }
            });
            recorder.snapshot()
        };
        let a = run();
        let b = run();
        assert!(
            a.iter().any(|e| e.code.starts_with("fault.")),
            "the fault rates must actually inject something"
        );
        assert_eq!(a, b, "same seed, same flight recording");
    }

    #[test]
    fn precision_mismatch_is_typed_error_not_panic() {
        let world = world_2x1x1x2();
        let errs = run_spmd(&world, |ctx| {
            // Every rank sends f32 but receives as f64: each rank must get
            // a typed error back and keep running (the SPMD scope would
            // fail the test if any rank thread panicked).
            ctx.send_face(Dir::X, true, vec![HalfSpinor::<f32>::ZERO; 4]);
            let err = ctx.recv_face::<f64>(Dir::X, false).unwrap_err();
            // The rank thread is still healthy: a follow-up well-formed
            // exchange goes through.
            ctx.send_face(Dir::X, true, vec![HalfSpinor::<f64>::ZERO; 4]);
            assert!(ctx.recv_face::<f64>(Dir::X, false).is_ok());
            err
        });
        for err in errs {
            assert_eq!(err, CommError::PrecisionMismatch { expected: "f64", got: "f32" });
            assert!(err.to_string().contains("expected f64"));
        }
    }

    #[test]
    fn edge_detection() {
        let world = world_2x1x1x2();
        let flags = run_spmd(&world, |ctx| {
            (
                ctx.at_global_backward_edge(Dir::X),
                ctx.at_global_forward_edge(Dir::X),
                ctx.at_global_backward_edge(Dir::Y),
                ctx.at_global_forward_edge(Dir::Y),
            )
        });
        // Y has a single rank: both edges at once.
        for (_, _, by, fy) in &flags {
            assert!(by & fy);
        }
        // X: exactly half the ranks at each edge.
        assert_eq!(flags.iter().filter(|f| f.0).count(), 2);
        assert_eq!(flags.iter().filter(|f| f.1).count(), 2);
    }
}
