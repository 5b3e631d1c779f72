//! The three workloads and the per-rank SPMD program that drives them.
//!
//! Every workload is a closed loop: each rank starts its next operation
//! only after the previous one returned and a barrier released it, so
//! rank 0's wall time per op is the op's latency and nothing queues.
//! One op is one call of the workload's collective shape:
//!
//! * `ar-large-thr` — one 4 Mi-value Overlap C-Allreduce (ring, SZx) on
//!   two threads: the codec and fused-reduce kernels dominate.
//! * `step-small-thr` — one training step on two threads: sixteen 2 Ki
//!   allreduce buckets through the progress engine, then a polled 32 Ki
//!   bcast: per-op overhead dominates.
//! * `ar-auto-sim` — one 16 Ki-value `Auto` allreduce on a simulated
//!   8 × 8 cluster: algorithm selection, calibration, topology and the
//!   simulator kernel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use c_coll::{
    Algorithm, AllreducePlan, BcastPlan, CCollSession, CodecSpec, PlanOptions, Poll,
    ProgressEngine, ReduceOp, SessionStats,
};
use ccoll_comm::sim::SimComm;
use ccoll_comm::threaded::ThreadComm;
use ccoll_comm::{Category, ClusterNet, Comm, HierNet, SimConfig, SimWorld, ThreadWorld, Topology};
use ccoll_data::Dataset;

use crate::oracle::{self, Bound, Verdict};
use crate::trace::{Span, Tracer};

/// The codec every workload runs: SZx at an absolute bound of 1e-3.
pub const SPEC: CodecSpec = CodecSpec::Szx { error_bound: 1e-3 };
const AR_LARGE_LEN: usize = 4 << 20;
const BUCKETS: usize = 16;
const BUCKET_LEN: usize = 2 << 10;
const BCAST_LEN: usize = 32 << 10;
const SIM_LEN: usize = 16 << 10;
const SIM_NODES: usize = 8;
const SIM_RANKS_PER_NODE: usize = 8;
/// Timed ops per window: p90 then has at least ten samples beyond it.
pub const MIN_OPS: usize = 100;
/// Session + plan + warm-up repetitions whose median is `setup_s`: at
/// least `SETUP_MIN_REPS`, and as many as fit in `SETUP_SECONDS`.
const SETUP_MIN_REPS: usize = 11;
const SETUP_SECONDS: f64 = 1.0;
/// Ops of the deterministic virtual-time replay of a threaded workload.
pub const REPLAY_OPS: usize = 8;
/// Virtual time a polling loop charges between two `Pending` polls, so
/// the simulator's clock advances (a no-op on threads).
const POLL_TICK: Duration = Duration::from_micros(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ArLargeThr,
    StepSmallThr,
    ArAutoSim,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ArLargeThr,
        Workload::StepSmallThr,
        Workload::ArAutoSim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ArLargeThr => "ar-large-thr",
            Workload::StepSmallThr => "step-small-thr",
            Workload::ArAutoSim => "ar-auto-sim",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn ranks(self) -> usize {
        match self {
            Workload::ArLargeThr | Workload::StepSmallThr => 2,
            Workload::ArAutoSim => SIM_NODES * SIM_RANKS_PER_NODE,
        }
    }

    pub fn simulated(self) -> bool {
        self == Workload::ArAutoSim
    }

    /// Values each rank feeds the allreduce(s) of one op.
    pub fn reduce_len(self) -> usize {
        match self {
            Workload::ArLargeThr => AR_LARGE_LEN,
            Workload::StepSmallThr => BUCKETS * BUCKET_LEN,
            Workload::ArAutoSim => SIM_LEN,
        }
    }

    /// Values the bcast root sends per op (0 without a bcast).
    pub fn bcast_len(self) -> usize {
        match self {
            Workload::StepSmallThr => BCAST_LEN,
            _ => 0,
        }
    }

    /// Raw bytes one op reduces or moves: every rank's allreduce input
    /// plus the bcast root's buffer.
    pub fn raw_bytes_per_op(self) -> f64 {
        ((self.ranks() * self.reduce_len() + self.bcast_len()) * 4) as f64
    }

    /// Values per allreduce plan, and how many plans one op runs.
    pub fn buckets(self) -> (usize, usize) {
        match self {
            Workload::StepSmallThr => (BUCKET_LEN, BUCKETS),
            w => (w.reduce_len(), 1),
        }
    }

    /// Codec block sizes the workload's collectives compress: the
    /// pipeline sub-chunk (or a smaller per-rank chunk) for the
    /// allreduce, the whole buffer for the compress-once bcast.
    pub fn kernel_blocks(self) -> (usize, usize) {
        match self {
            Workload::ArLargeThr => (5120, 0),
            Workload::StepSmallThr => (BUCKET_LEN / 2, BCAST_LEN),
            Workload::ArAutoSim => (SIM_LEN / SIM_NODES, 0),
        }
    }

    /// How many values longer than one op consumes each rank's input is.
    /// Op `i` of a phase reads it from offset [`Inputs::offset`]`(i)`, so
    /// successive ops compress differently aligned blocks of different
    /// data, and the worst error is taken over a field large enough for
    /// its maximum to settle: the small workloads get long fields.
    fn shift_span(self) -> usize {
        match self {
            Workload::ArLargeThr => 4 << 10,
            Workload::StepSmallThr => 1 << 20,
            Workload::ArAutoSim => 64 << 10,
        }
    }

    /// Ops per probe phase of the traced run.
    pub fn probe_ops(self) -> usize {
        match self {
            Workload::ArLargeThr => 8,
            Workload::StepSmallThr => 50,
            Workload::ArAutoSim => 16,
        }
    }
}

/// The simulated cluster of `ar-auto-sim`.
pub fn sim_cluster() -> (Topology, HierNet) {
    (
        Topology::uniform(SIM_NODES, SIM_RANKS_PER_NODE),
        HierNet::cluster_default(),
    )
}

/// Inputs and references of one run, shared read-only by every rank.
pub struct Inputs {
    len: usize,
    bcast_len: usize,
    span: usize,
    /// Each rank's allreduce input (`reduce_len + shift_span` values).
    per_rank: Vec<Vec<f32>>,
    /// `f64` rank-order sum of `per_rank`.
    reduce_ref: Vec<f64>,
    /// The bcast root's buffer (empty without a bcast).
    bcast: Vec<f32>,
    bcast_ref: Vec<f64>,
}

impl Inputs {
    /// Regenerate every rank's input from `seed`: Hurricane fields, one
    /// independent stream per rank and one for the bcast root.
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        let span = w.shift_span();
        let per_rank: Vec<Vec<f32>> = (0..w.ranks())
            .map(|r| stream_input(seed, r as u64 + 1, w.reduce_len() + span))
            .collect();
        let refs: Vec<&[f32]> = per_rank.iter().map(Vec::as_slice).collect();
        let reduce_ref = oracle::sum_reference(&refs);
        let bcast_len = w.bcast_len();
        let bcast = stream_input(seed, 1 << 20, bcast_len + span * usize::from(bcast_len > 0));
        let bcast_ref = oracle::copy_reference(&bcast);
        Inputs {
            len: w.reduce_len(),
            bcast_len,
            span,
            per_rank,
            reduce_ref,
            bcast,
            bcast_ref,
        }
    }

    /// The input offset of op `i` of a phase (0 for warm-up ops).
    pub fn offset(&self, i: usize) -> usize {
        (i * 1031) % self.span
    }

    /// `rank`'s allreduce input at offset `at`.
    pub fn reduce_input(&self, rank: usize, at: usize) -> &[f32] {
        &self.per_rank[rank][at..at + self.len]
    }

    fn reduce_ref(&self, at: usize) -> &[f64] {
        &self.reduce_ref[at..at + self.len]
    }

    /// The bcast root's buffer at offset `at` (empty without a bcast).
    pub fn bcast_input(&self, at: usize) -> &[f32] {
        self.bcast.get(at..at + self.bcast_len).unwrap_or(&[])
    }

    fn bcast_ref(&self, at: usize) -> &[f64] {
        self.bcast_ref.get(at..at + self.bcast_len).unwrap_or(&[])
    }
}

/// `n` Hurricane values of input stream `stream` under `seed`.
fn stream_input(seed: u64, stream: u64, n: usize) -> Vec<f32> {
    // splitmix64 finaliser: distinct, well-mixed seeds per stream.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Dataset::Hurricane.generate(n, z ^ (z >> 31))
}

/// Which schedule the allreduce plans run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pick {
    /// The workload's own: the paper's ring on threads, `Auto` on the sim.
    Native,
    /// Cost-model selection.
    Auto,
    /// A fixed algorithm.
    Pinned(Algorithm),
}

/// How an allreduce op is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drive {
    /// `try_execute_into`; an op of several buckets always goes through
    /// the engine.
    Native,
    /// `start`, `progress` until Ready, `try_complete`.
    Polled,
    /// Submitted to a `ProgressEngine`, one pass after each submit, then
    /// driven by passes until no op is live (the engine probe: the
    /// passes counted are the ones the engine needs, not `wait_all`'s
    /// hidden ones).
    Engine,
}

/// One rank's session and plans.
struct State {
    /// Input offset of the last op started.
    at: usize,
    session: CCollSession,
    plans: Vec<AllreducePlan>,
    outs: Vec<Vec<f32>>,
    bcast: Option<(BcastPlan, Vec<f32>)>,
}

impl State {
    fn build(w: Workload, pick: Pick) -> State {
        let session = if w.simulated() {
            let (topo, hier) = sim_cluster();
            CCollSession::new(SPEC, w.ranks()).with_topology(topo, hier)
        } else {
            CCollSession::new(SPEC, w.ranks())
        };
        let (len, count) = w.buckets();
        let plans = (0..count)
            .map(|_| match (pick, w.simulated()) {
                (Pick::Native, false) => session.plan_allreduce(len, ReduceOp::Sum),
                (Pick::Native, true) | (Pick::Auto, _) => {
                    session.plan_allreduce_with(len, ReduceOp::Sum, PlanOptions::new())
                }
                (Pick::Pinned(a), _) => {
                    session.plan_allreduce_with(len, ReduceOp::Sum, PlanOptions::new().algorithm(a))
                }
            })
            .collect();
        let bcast = (w.bcast_len() > 0).then(|| {
            (
                session.plan_bcast(0, w.bcast_len()),
                vec![0.0; w.bcast_len()],
            )
        });
        State {
            at: 0,
            session,
            plans,
            outs: vec![vec![0.0; len]; count],
            bcast,
        }
    }

    /// One op. Spans: the op's calls into the plan/engine layers.
    fn op<C: Comm>(
        &mut self,
        comm: &mut C,
        input: &[f32],
        bcast_in: &[f32],
        tr: &mut Tracer,
        op: u32,
        drive: Drive,
    ) -> Result<(), String> {
        let root = tr.begin("op", 0, op);
        let parent = root.id();
        let err = |e: c_coll::CollectiveError| e.to_string();
        if self.plans.len() > 1 || drive == Drive::Engine {
            let mut engine = ProgressEngine::new();
            let len = self.outs[0].len();
            let pass = if drive == Drive::Engine {
                "engine.pass"
            } else {
                "engine.progress"
            };
            for (b, (plan, out)) in self.plans.iter_mut().zip(self.outs.iter_mut()).enumerate() {
                let s = tr.begin("engine.submit", parent, op);
                engine.submit(plan.start(comm, &input[b * len..(b + 1) * len], out));
                tr.end(s, false);
                let s = tr.begin(pass, parent, op);
                engine.try_progress(comm).map_err(|(_, e)| err(e))?;
                tr.end(s, engine.live_ops() > 0);
            }
            if drive == Drive::Engine {
                while engine.live_ops() > 0 {
                    comm.charge_duration(POLL_TICK, Category::Others);
                    let s = tr.begin(pass, parent, op);
                    engine.try_progress(comm).map_err(|(_, e)| err(e))?;
                    tr.end(s, engine.live_ops() > 0);
                }
            } else {
                let s = tr.begin("engine.wait_all", parent, op);
                engine.try_wait_all(comm).map_err(|(_, e)| err(e))?;
                tr.end(s, false);
            }
        } else if drive == Drive::Polled {
            let mut h = self.plans[0].start(comm, input, &mut self.outs[0]);
            poll_to_ready(comm, tr, parent, op, |c| h.try_progress(c)).map_err(err)?;
            h.try_complete(comm).map_err(err)?;
        } else {
            let s = tr.begin("allreduce.execute", parent, op);
            self.plans[0]
                .try_execute_into(comm, input, &mut self.outs[0])
                .map_err(err)?;
            tr.end(s, false);
        }
        if let Some((plan, out)) = &mut self.bcast {
            let data = if comm.rank() == plan.root() {
                bcast_in
            } else {
                &[]
            };
            let mut h = plan.start(comm, data, out);
            poll_to_ready(comm, tr, parent, op, |c| h.try_progress(c)).map_err(err)?;
            h.try_complete(comm).map_err(err)?;
        }
        tr.end(root, false);
        Ok(())
    }

    fn check(&self, inputs: &Inputs, ranks: usize) -> Verdict {
        let len = self.outs[0].len();
        let reference = inputs.reduce_ref(self.at);
        let bound = Bound::for_codec(SPEC, ranks);
        let mut v = Verdict::PASS;
        for (b, out) in self.outs.iter().enumerate() {
            v = v.and(oracle::check(
                out,
                &reference[b * len..(b + 1) * len],
                bound,
            ));
        }
        if let Some((_, out)) = &self.bcast {
            v = v.and(oracle::check(
                out,
                inputs.bcast_ref(self.at),
                Bound::for_codec(SPEC, 1),
            ));
        }
        v
    }

    /// The oracle self-test on this rank's last outputs.
    fn self_test(&self, inputs: &Inputs, ranks: usize) -> bool {
        let len = self.outs[0].len();
        let reduce = oracle::catches_perturbation(
            &self.outs[0],
            &inputs.reduce_ref(self.at)[..len],
            Bound::for_codec(SPEC, ranks),
        );
        let bcast = self.bcast.as_ref().is_none_or(|(_, out)| {
            oracle::catches_perturbation(out, inputs.bcast_ref(self.at), Bound::for_codec(SPEC, 1))
        });
        reduce && bcast
    }
}

/// Poll a nonblocking handle until it reports Ready, one span per call.
fn poll_to_ready<C: Comm>(
    comm: &mut C,
    tr: &mut Tracer,
    parent: u32,
    op: u32,
    mut progress: impl FnMut(&mut C) -> Result<Poll, c_coll::CollectiveError>,
) -> Result<(), c_coll::CollectiveError> {
    loop {
        let s = tr.begin("nonblocking.progress", parent, op);
        let p = progress(comm)?;
        let pending = p == Poll::Pending;
        tr.end(s, pending);
        if !pending {
            return Ok(());
        }
        comm.charge_duration(POLL_TICK, Category::Others);
    }
}

/// A rank's backend hook for a caught panic: make the peers fail fast
/// instead of waiting forever for this rank's messages.
pub trait Rank: Comm {
    fn die(&mut self) {}
}

impl Rank for ThreadComm {
    fn die(&mut self) {
        self.mark_self_dead();
    }
}

impl Rank for SimComm {}

/// What the program does with the world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Set up repeatedly (see `SETUP_MIN_REPS`), then one untraced window.
    Measure,
    /// Set up once; an untraced half-window, `MIN_OPS` traced ops, probes.
    Trace,
    /// Set up once; `REPLAY_OPS` ops (the virtual-time replay).
    Replay,
}

/// Run parameters shared by every rank.
pub struct Ctx {
    pub w: Workload,
    pub inputs: Arc<Inputs>,
    pub mode: Mode,
    pub seconds: f64,
    pub epoch: Instant,
    stop: AtomicBool,
}

impl Ctx {
    pub fn new(w: Workload, inputs: Arc<Inputs>, mode: Mode, seconds: f64) -> Ctx {
        Ctx {
            w,
            inputs,
            mode,
            seconds,
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
        }
    }
}

/// Per-op measurements of one phase on one rank.
#[derive(Debug, Clone, Default)]
pub struct PhaseLog {
    /// Wall seconds per op on this rank.
    pub wall_s: Vec<f64>,
    /// Backend clock (virtual on the sim) at op start and end, in ns.
    pub clock: Vec<(u64, u64)>,
    /// Messages and bytes this rank sent, per op.
    pub traffic: Vec<(u64, u64)>,
    /// Profiler seconds per category (paper order), summed over ops.
    pub cats: [f64; 6],
}

/// What one op cost on one rank, measured around the op's own calls
/// only: the oracle check runs after the window closes.
struct OpSample {
    wall_s: f64,
    clock: (u64, u64),
    traffic: (u64, u64),
    cats: [f64; 6],
}

impl PhaseLog {
    fn push(&mut self, op: OpSample) {
        self.wall_s.push(op.wall_s);
        self.clock.push(op.clock);
        self.traffic.push(op.traffic);
        for (acc, c) in self.cats.iter_mut().zip(op.cats) {
            *acc += c;
        }
    }
}

/// Everything one rank reports back.
#[derive(Debug, Default)]
pub struct RankReport {
    pub setup_s: Vec<f64>,
    pub main: PhaseLog,
    pub traced: PhaseLog,
    pub auto: PhaseLog,
    pub pinned: PhaseLog,
    pub algorithm: Option<Algorithm>,
    pub verdict: Verdict,
    /// Ops this rank attempted, and the indices of those that failed.
    pub ops: u32,
    pub failed: Vec<u32>,
    pub self_test_ok: bool,
    pub session: SessionStats,
    pub spans: Vec<Span>,
}

/// A caught failure that ends this rank's program.
struct Dead;

struct Runner<'a, C: Rank> {
    comm: &'a mut C,
    cx: &'a Ctx,
    tr: Tracer,
    rep: RankReport,
}

impl<C: Rank> Runner<'_, C> {
    /// One checked op; a panic, an abort or a bound violation counts it
    /// failed. A panic or an abort also ends the rank's program. The
    /// returned sample covers the op's calls only; a barrier then keeps
    /// every rank's oracle check out of every other rank's window.
    fn checked_op(&mut self, st: &mut State, drive: Drive, at: usize) -> Result<OpSample, Dead> {
        let rank = self.comm.rank();
        let idx = self.rep.ops;
        self.rep.ops += 1;
        let cx = self.cx;
        let inputs = &cx.inputs;
        st.at = at;
        let (input, bcast_in) = (inputs.reduce_input(rank, at), inputs.bcast_input(at));
        let cats0 = self.comm.profiler().breakdown().clone();
        let tr0 = self.comm.profiler().traffic();
        let c0 = self.comm.now().as_nanos();
        let t0 = Instant::now();
        let (comm, tr) = (&mut *self.comm, &mut self.tr);
        let run = catch_unwind(AssertUnwindSafe(|| {
            st.op(comm, input, bcast_in, tr, idx, drive)
        }));
        let wall_s = t0.elapsed().as_secs_f64();
        match run {
            Ok(Ok(())) => {
                let c1 = self.comm.now().as_nanos();
                let p = self.comm.profiler();
                let tr1 = p.traffic();
                let mut cats = [0.0; 6];
                for (acc, cat) in cats.iter_mut().zip(Category::ALL) {
                    *acc = (p.breakdown().get(cat) - cats0.get(cat)).as_secs_f64();
                }
                let sample = OpSample {
                    wall_s,
                    clock: (c0, c1),
                    traffic: (
                        tr1.messages_sent - tr0.messages_sent,
                        tr1.bytes_sent - tr0.bytes_sent,
                    ),
                    cats,
                };
                self.comm.barrier();
                let v = self
                    .tr
                    .span("oracle.check", 0, idx, || st.check(inputs, cx.w.ranks()));
                if v.failed {
                    self.rep.failed.push(idx);
                }
                self.rep.verdict = self.rep.verdict.and(v);
                Ok(sample)
            }
            Ok(Err(msg)) => {
                eprintln!("rank {rank}: op {idx} aborted: {msg}");
                self.rep.failed.push(idx);
                self.comm.die();
                Err(Dead)
            }
            Err(_) => {
                self.rep.failed.push(idx);
                self.comm.die();
                Err(Dead)
            }
        }
    }

    /// Build a state and run its warm-up op; returns the setup time:
    /// construction plus the warm-up op's own window, from a barrier.
    fn setup(&mut self, pick: Pick) -> Result<(State, f64), Dead> {
        self.comm.barrier();
        let t0 = Instant::now();
        let mut st = State::build(self.cx.w, pick);
        let build_s = t0.elapsed().as_secs_f64();
        let warm = self.checked_op(&mut st, Drive::Native, 0)?;
        Ok((st, build_s + warm.wall_s))
    }

    /// Whether to stop, as rank 0 decides from `done`. The first barrier
    /// publishes the decision, the second keeps rank 0 from overwriting
    /// it before every rank has read it.
    fn agree(&mut self, done: bool) -> bool {
        if self.comm.rank() == 0 {
            self.cx.stop.store(done, Ordering::SeqCst);
        }
        self.comm.barrier();
        let stop = self.cx.stop.load(Ordering::SeqCst);
        self.comm.barrier();
        stop
    }

    /// Timed ops until at least `min_ops` ran and `seconds` passed.
    fn phase(
        &mut self,
        st: &mut State,
        drive: Drive,
        min_ops: usize,
        seconds: f64,
    ) -> Result<PhaseLog, Dead> {
        let mut log = PhaseLog::default();
        let start = Instant::now();
        while !self.agree(log.wall_s.len() >= min_ops && start.elapsed().as_secs_f64() >= seconds) {
            let at = self.cx.inputs.offset(log.wall_s.len());
            log.push(self.checked_op(st, drive, at)?);
        }
        Ok(log)
    }

    fn program(&mut self) -> Result<(), Dead> {
        let w = self.cx.w;
        match self.cx.mode {
            Mode::Replay => {
                let (mut st, _) = self.setup(Pick::Native)?;
                self.rep.main = self.phase(&mut st, Drive::Native, REPLAY_OPS, 0.0)?;
            }
            Mode::Measure => {
                let mut st = None;
                let start = Instant::now();
                while !self.agree(
                    self.rep.setup_s.len() >= SETUP_MIN_REPS
                        && start.elapsed().as_secs_f64() >= SETUP_SECONDS,
                ) {
                    drop(st.take());
                    let (s, secs) = self.setup(Pick::Native)?;
                    self.rep.setup_s.push(secs);
                    st = Some(s);
                }
                let mut st = st.expect("at least one setup");
                self.rep.main = self.phase(&mut st, Drive::Native, MIN_OPS, self.cx.seconds)?;
                self.finish(&st);
            }
            Mode::Trace => {
                let (mut st, _) = self.setup(Pick::Native)?;
                let half = self.cx.seconds / 2.0;
                self.rep.main = self.phase(&mut st, Drive::Native, MIN_OPS, half)?;
                // Exactly MIN_OPS traced ops keep the span file small.
                self.tr = Tracer::new(true, self.comm.rank(), self.cx.epoch);
                self.rep.traced = self.phase(&mut st, Drive::Native, MIN_OPS, 0.0)?;
                self.finish(&st);
                // Probes: a polled run of a single-plan workload's plan
                // (the bcast of `step-small-thr` is polled in every op),
                // and on every workload an engine driven by passes alone.
                let p = w.probe_ops();
                if w.buckets().1 == 1 {
                    self.phase(&mut st, Drive::Polled, p, 0.0)?;
                }
                self.phase(&mut st, Drive::Engine, p, 0.0)?;
                drop(st);
                // Auto against the pin of what Auto resolved to.
                let (mut auto, _) = self.setup(Pick::Auto)?;
                self.rep.auto = self.phase(&mut auto, Drive::Native, p, 0.0)?;
                let resolved = auto.plans[0].algorithm();
                drop(auto);
                let (mut pinned, _) = self.setup(Pick::Pinned(resolved))?;
                self.rep.pinned = self.phase(&mut pinned, Drive::Native, p, 0.0)?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, st: &State) {
        self.rep.self_test_ok = st.self_test(&self.cx.inputs, self.cx.w.ranks());
        self.rep.session = st.session.stats();
        self.rep.algorithm = Some(st.plans[0].algorithm());
    }
}

/// The SPMD program of one rank.
pub fn rank_main<C: Rank>(comm: &mut C, cx: &Ctx) -> RankReport {
    let rank = comm.rank();
    let mut runner = Runner {
        comm,
        cx,
        tr: Tracer::new(false, rank, cx.epoch),
        rep: RankReport::default(),
    };
    // A failure was recorded in the report before `Dead` came back.
    let _ = runner.program();
    let mut rep = runner.rep;
    rep.spans = runner.tr.into_spans();
    rep
}

/// Run `cx` on its backend; `Err` when a rank could not report (a
/// simulated deadlock after a failure).
pub fn run_world(cx: Arc<Ctx>, simulated: bool) -> Result<Vec<RankReport>, String> {
    let ranks = cx.w.ranks();
    if simulated {
        let cfg = if cx.w.simulated() {
            let (topo, hier) = sim_cluster();
            SimConfig::new(ranks).with_cluster(ClusterNet::new(topo, hier))
        } else {
            SimConfig::new(ranks)
        };
        let out = SimWorld::new(cfg)
            .try_run(move |c| rank_main(c, &cx))
            .map_err(|e| format!("simulated run failed: {e:?}"))?;
        out.results
            .into_iter()
            .map(|r| {
                r.completed()
                    .ok_or_else(|| "a simulated rank died".to_string())
            })
            .collect()
    } else {
        Ok(ThreadWorld::new(ranks)
            .run(move |c| rank_main(c, &cx))
            .results)
    }
}
