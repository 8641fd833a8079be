//! The discrete-event cluster engine.
//!
//! [`crate::ClusterSystem`] composes a data-parallel step *analytically*:
//! one closed-form overlap formula, N identical lockstep replicas. This
//! module rebuilds the same step on the [`tee_sim::des`] component
//! scheduler — NPU compute, ring-collective hops (with their staging
//! re-encryptions as explicit events), the NPU→CPU gradient stream, the
//! CPU optimizer and the weight path are all components exchanging timed
//! messages over a shared [`FabricLink`].
//!
//! Two regimes:
//!
//! * **Lockstep data-parallel** (straggler factor 1.0) must reproduce the
//!   analytic [`ClusterStepBreakdown`] **bit-for-bit** — the analytic
//!   path stays the correctness oracle (`tests/des_cluster.rs` is the
//!   differential harness). This works because both paths consume
//!   identical per-hop prices ([`tee_comm::ring::RingAllReduce::hops`])
//!   and integer picosecond arithmetic, and an uncontended fabric grants
//!   every hop immediately.
//! * **DES-only scenarios** the analytic model cannot express:
//!   heterogeneous NPUs (a straggler rank stretches the backward window
//!   and every barrier), and pipeline-parallel schedules whose
//!   per-microbatch boundary activations contend for the fabric.

use crate::config::{ClusterConfig, SecureMode, SystemConfig};
use crate::memo::Memo;
use crate::system::{backward_window, ClusterStepBreakdown, TrainingSystem};
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;
use tee_comm::des::FabricLink;
use tee_comm::protocol::TransferBreakdown;
use tee_comm::ring::RingAllReduce;
use tee_sim::des::{Component, Ctx, Scheduler};
use tee_sim::probe::SharedProbe;
use tee_sim::Time;
use tee_workloads::StepSchedule;

/// How the model is laid out across the cluster's NPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Parallelism {
    /// Every NPU holds the full model and a `1/N` batch shard; gradients
    /// ring-all-reduce (the analytic model's regime).
    Data,
    /// The model's layers split into N contiguous stages; the batch
    /// streams through as microbatches whose boundary activations cross
    /// the NPU fabric (GPipe-style fill/drain bubbles, no collective).
    Pipeline {
        /// Microbatches in flight per step (≥ 1).
        microbatches: u32,
    },
}

/// Cluster shape plus the DES-only knobs the analytic model cannot
/// express.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DesClusterConfig {
    /// The underlying cluster (replica count + fabric).
    pub cluster: ClusterConfig,
    /// Compute slowdown of the slowest NPU (last rank / last stage);
    /// `1.0` is the homogeneous lockstep case.
    pub straggler_factor: f64,
    /// Data-parallel vs pipeline-parallel layout.
    pub parallelism: Parallelism,
}

impl DesClusterConfig {
    /// The homogeneous data-parallel cluster — the configuration whose
    /// DES run must match the analytic path bit-for-bit.
    pub fn lockstep(cluster: ClusterConfig) -> Self {
        DesClusterConfig {
            cluster,
            straggler_factor: 1.0,
            parallelism: Parallelism::Data,
        }
    }

    /// Returns the config with the given straggler factor.
    pub fn with_straggler(mut self, factor: f64) -> Self {
        self.straggler_factor = factor;
        self
    }

    /// Returns the config switched to pipeline parallelism.
    pub fn with_pipeline(mut self, microbatches: u32) -> Self {
        self.parallelism = Parallelism::Pipeline { microbatches };
        self
    }
}

/// What one DES step run produced beyond the analytic-compatible
/// breakdown: the event-level ledgers only a timed simulation can keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesStepReport {
    /// Per-phase breakdown, extraction-compatible with the analytic
    /// [`ClusterStepBreakdown`] (equal bit-for-bit in lockstep
    /// data-parallel mode).
    pub breakdown: ClusterStepBreakdown,
    /// End-to-end simulated time of the step (always equals
    /// `breakdown.total()` — the breakdown is a partition of the
    /// makespan).
    pub makespan: Time,
    /// Time transfers spent queued behind other occupants of the NPU
    /// fabric (zero in lockstep data-parallel; the pipeline's overlapping
    /// boundary hops make it positive).
    pub fabric_contention: Time,
    /// Total time the NPU fabric spent transferring.
    pub fabric_occupied: Time,
    /// Total staging re-encryption + decryption time across every event
    /// (ring hops, boundary activations, CPU-link streams).
    pub crypto: Time,
    /// Events the scheduler dispatched.
    pub events: u64,
}

/// Everything the component graph stamps while running; the harness
/// extracts the breakdown from these timestamps after the run.
#[derive(Debug, Default)]
struct Ledger {
    /// Per-rank (or per-stage) compute completion time.
    npu_done: Vec<Time>,
    /// When the collective had all ranks ready.
    ring_start: Time,
    /// When the collective finished (== `ring_start` when it has no
    /// hops: N=1, or pipeline mode's empty collective).
    ar_end: Time,
    /// When the reduced gradients finished streaming into the CPU.
    grad_end: Time,
    /// When the CPU optimizer started (gradients arrived and compute
    /// drained).
    cpu_start: Time,
    /// When the weight path (CPU-link stream ∥ ring broadcast) finished.
    weight_end: Time,
    /// When the last of {CPU, weight path} finished.
    step_end: Time,
    /// Accumulated staging conversion time across all events.
    crypto: Time,
    /// Set once the finish component saw both completions.
    finished: bool,
}

type Shared<T> = Rc<RefCell<T>>;

/// Messages exchanged between the cluster's components.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// NPU/stage → ring: this rank's gradient stream is ready.
    RingReady,
    /// NPU/stage → CPU: this rank finished forward+backward.
    NpuDone,
    /// Ring → itself: advance the current hop one phase
    /// (re-encrypt → bus → decrypt).
    HopPhase,
    /// Ring → gradient link: reduced shards may stream to the CPU.
    GradStart,
    /// Gradient link → itself: advance one transfer phase.
    GradPhase,
    /// Gradient link → CPU: gradients resident in CPU memory.
    GradArrived,
    /// CPU → weight path: start (at `cpu_start` when the mode overlaps,
    /// at CPU completion otherwise).
    WeightStart,
    /// Weight path → itself: advance the CPU-link stream one phase.
    WeightPhase,
    /// Weight path → itself: the ring broadcast finished.
    BroadcastDone,
    /// CPU → finish.
    CpuDone,
    /// Weight path → finish.
    WeightDone,
    /// Stage boundary: one microbatch's activations arrived.
    ActArrived,
    /// Stage → itself: advance one in-flight activation transfer
    /// (identified by microbatch index) one phase.
    ActPhase(u32),
}

/// Three-phase progress of a protocol transfer replayed as events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XferPhase {
    ReEncrypted,
    Crossed,
}

/// An NPU replica in data-parallel mode: computes for a fixed duration,
/// announcing gradient-readiness (backward window opening, or completion
/// under a serialized protocol) and completion.
#[derive(Debug)]
struct NpuNode {
    rank: usize,
    ready_at: Time,
    done_at: Time,
    /// 0 = waiting for ready, 1 = waiting for done, 2 = idle.
    phase: u8,
    ring: usize,
    cpu: usize,
    ledger: Shared<Ledger>,
}

impl NpuNode {
    fn next_tick(&self) -> Time {
        match self.phase {
            0 => self.ready_at,
            1 => self.done_at,
            _ => Time::MAX,
        }
    }

    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        if self.phase == 0 {
            ctx.send(self.ring, Msg::RingReady);
            self.phase = 1;
        }
        if self.phase == 1 && self.done_at == now {
            self.ledger.borrow_mut().npu_done[self.rank] = now;
            ctx.send(self.cpu, Msg::NpuDone);
            self.phase = 2;
        }
    }
}

/// The ring collective: waits for every rank, then walks the pre-priced
/// hop sequence as explicit re-encrypt / bus / decrypt events, the bus
/// phase arbitrated by the shared fabric.
#[derive(Debug)]
struct RingNode {
    hops: Vec<TransferBreakdown>,
    waiting: u32,
    idx: usize,
    phase: XferPhase,
    fabric: Shared<FabricLink>,
    grad_link: usize,
    ledger: Shared<Ledger>,
}

impl RingNode {
    fn start_hop(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.phase = XferPhase::ReEncrypted;
        ctx.send_after(
            self.hops[self.idx].re_encryption,
            ctx.self_id(),
            Msg::HopPhase,
        );
    }

    fn finish_collective(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        self.ledger.borrow_mut().ar_end = now;
        ctx.send(self.grad_link, Msg::GradStart);
    }

    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::RingReady => {
                self.waiting -= 1;
                if self.waiting == 0 {
                    self.ledger.borrow_mut().ring_start = now;
                    if self.hops.is_empty() {
                        self.finish_collective(now, ctx);
                    } else {
                        self.start_hop(ctx);
                    }
                }
            }
            Msg::HopPhase => match self.phase {
                XferPhase::ReEncrypted => {
                    let grant = self
                        .fabric
                        .borrow_mut()
                        .occupy(now, self.hops[self.idx].comm);
                    self.phase = XferPhase::Crossed;
                    ctx.send_at(grant.end, ctx.self_id(), Msg::HopPhase);
                }
                XferPhase::Crossed => {
                    let hop = self.hops[self.idx];
                    // Decrypt-on-receive completes the hop.
                    let done = now + hop.decryption;
                    self.ledger.borrow_mut().crypto += hop.re_encryption + hop.decryption;
                    self.idx += 1;
                    if self.idx < self.hops.len() {
                        // The next hop's re-encryption starts when this
                        // hop's chunk is usable.
                        self.phase = XferPhase::ReEncrypted;
                        let re = self.hops[self.idx].re_encryption;
                        ctx.send_at(done + re, ctx.self_id(), Msg::HopPhase);
                    } else if done == now {
                        self.finish_collective(now, ctx);
                    } else {
                        // Defer the completion stamp to the decrypt end.
                        ctx.send_at(done, ctx.self_id(), Msg::GradStart);
                    }
                }
            },
            Msg::GradStart => {
                // Self-deferred completion after the last hop's decrypt.
                self.finish_collective(now, ctx);
            }
            _ => unreachable!("ring received {msg:?}"),
        }
    }
}

/// A protocol transfer on the dedicated CPU↔NPU link, replayed as
/// re-encrypt / bus / decrypt events; notifies `next` on completion.
#[derive(Debug)]
struct LinkNode {
    cost: TransferBreakdown,
    phase: XferPhase,
    /// Message sent to `next` when the transfer completes.
    done_msg: Msg,
    next: usize,
    /// Which self-message advances this node.
    step_msg_is_weight: bool,
    ledger: Shared<Ledger>,
    /// Stamp written at completion.
    stamps_grad_end: bool,
}

impl LinkNode {
    fn step_msg(&self) -> Msg {
        if self.step_msg_is_weight {
            Msg::WeightPhase
        } else {
            Msg::GradPhase
        }
    }

    fn start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.phase = XferPhase::ReEncrypted;
        ctx.send_after(self.cost.re_encryption, ctx.self_id(), self.step_msg());
    }

    fn advance(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        match self.phase {
            XferPhase::ReEncrypted => {
                self.phase = XferPhase::Crossed;
                ctx.send_after(self.cost.comm, ctx.self_id(), self.step_msg());
            }
            XferPhase::Crossed => {
                let done = now + self.cost.decryption;
                let mut ledger = self.ledger.borrow_mut();
                ledger.crypto += self.cost.re_encryption + self.cost.decryption;
                if self.stamps_grad_end {
                    ledger.grad_end = done;
                }
                drop(ledger);
                ctx.send_at(done, self.next, self.done_msg);
            }
        }
    }
}

/// The CPU optimizer: starts once every rank drained *and* the reduced
/// gradients arrived; kicks the weight path per the mode's overlap
/// policy.
#[derive(Debug)]
struct CpuNode {
    duration: Time,
    waiting_npu: u32,
    grad_arrived: bool,
    started: bool,
    done_at: Time,
    overlaps: bool,
    weight: usize,
    finish: usize,
    ledger: Shared<Ledger>,
}

impl CpuNode {
    fn maybe_start(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        if self.started || self.waiting_npu > 0 || !self.grad_arrived {
            return;
        }
        self.started = true;
        self.ledger.borrow_mut().cpu_start = now;
        self.done_at = now + self.duration;
        if self.overlaps {
            // Weights pipeline tensor-by-tensor behind the update (§4.4).
            ctx.send(self.weight, Msg::WeightStart);
        }
    }

    fn next_tick(&self) -> Time {
        if self.started && self.done_at != Time::MAX {
            self.done_at
        } else {
            Time::MAX
        }
    }

    fn tick(&mut self, _now: Time, ctx: &mut Ctx<'_, Msg>) {
        self.done_at = Time::MAX;
        if !self.overlaps {
            ctx.send(self.weight, Msg::WeightStart);
        }
        ctx.send(self.finish, Msg::CpuDone);
    }
}

/// The weight path: the CPU→NPU stream (a [`LinkNode`]-style transfer)
/// in parallel with the ring re-broadcast occupying the fabric; done when
/// the slower of the two finishes.
#[derive(Debug)]
struct WeightNode {
    link: LinkNode,
    broadcast: TransferBreakdown,
    pending: u8,
    fabric: Shared<FabricLink>,
    finish: usize,
    ledger: Shared<Ledger>,
}

impl WeightNode {
    fn path_done(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        self.pending -= 1;
        if self.pending == 0 {
            self.ledger.borrow_mut().weight_end = now;
            ctx.send(self.finish, Msg::WeightDone);
        }
    }

    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::WeightStart => {
                self.pending = 2;
                // Path A: the CPU-link stream.
                self.link.start(ctx);
                // Path B: the pipelined ring broadcast on the fabric
                // (crypto conversions included in its breakdown).
                let grant = self.fabric.borrow_mut().occupy(now, self.broadcast.total());
                self.ledger.borrow_mut().crypto +=
                    self.broadcast.re_encryption + self.broadcast.decryption;
                ctx.send_at(grant.end, ctx.self_id(), Msg::BroadcastDone);
            }
            Msg::WeightPhase => self.link.advance(now, ctx),
            // The link path routes its completion back to this node.
            Msg::WeightDone | Msg::BroadcastDone => self.path_done(now, ctx),
            _ => unreachable!("weight path received {msg:?}"),
        }
    }
}

/// Records the step end once both the CPU and the weight path finished.
#[derive(Debug)]
struct FinishNode {
    pending: u8,
    ledger: Shared<Ledger>,
}

impl FinishNode {
    fn receive(&mut self, now: Time, _msg: Msg) {
        self.pending -= 1;
        if self.pending == 0 {
            let mut ledger = self.ledger.borrow_mut();
            ledger.step_end = now;
            ledger.finished = true;
        }
    }
}

/// One pipeline stage: serially computes queued microbatches and ships
/// each one's boundary activations across the shared fabric (per-hop
/// staging conversion as explicit events).
#[derive(Debug)]
struct StageNode {
    stage: usize,
    /// Per-microbatch compute durations (sum = the stage's share of the
    /// step's NPU time).
    per_mb: Vec<Time>,
    /// Microbatches queued and ready to compute.
    queued: u32,
    /// Next microbatch index to finish computing.
    next_mb: usize,
    /// When the in-progress microbatch completes ([`Time::MAX`] = idle).
    busy_until: Time,
    /// Boundary activation transfer per microbatch (`None` on the last
    /// stage).
    act: Option<TransferBreakdown>,
    /// Phase of each in-flight activation transfer, by microbatch.
    act_phase: Vec<XferPhase>,
    /// Microbatches fully computed.
    finished: u32,
    next_stage: usize,
    ring: usize,
    cpu: usize,
    fabric: Shared<FabricLink>,
    ledger: Shared<Ledger>,
}

impl StageNode {
    fn try_start(&mut self, now: Time) {
        if self.busy_until == Time::MAX && self.queued > 0 && self.next_mb < self.per_mb.len() {
            self.queued -= 1;
            self.busy_until = now + self.per_mb[self.next_mb];
        }
    }

    fn next_tick(&self) -> Time {
        self.busy_until
    }

    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        // Drain every microbatch completing at `now` — zero-duration
        // microbatches (an empty stage on an over-partitioned model)
        // finish immediately, and the strict-advance contract requires
        // handling them all in this tick.
        while self.busy_until == now {
            let mb = self.next_mb as u32;
            self.next_mb += 1;
            self.busy_until = Time::MAX;
            self.finished += 1;
            if let Some(act) = self.act {
                // Ship its activations: re-encrypt, then request the fabric.
                self.act_phase[mb as usize] = XferPhase::ReEncrypted;
                ctx.send_after(act.re_encryption, ctx.self_id(), Msg::ActPhase(mb));
            }
            if self.finished as usize == self.per_mb.len() {
                // Stage drained: gradients for its layer shard are ready.
                self.ledger.borrow_mut().npu_done[self.stage] = now;
                ctx.send(self.ring, Msg::RingReady);
                ctx.send(self.cpu, Msg::NpuDone);
            }
            self.try_start(now);
        }
    }

    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::ActArrived => {
                self.queued += 1;
                self.try_start(now);
            }
            Msg::ActPhase(mb) => {
                let act = self.act.expect("last stage has no boundary");
                match self.act_phase[mb as usize] {
                    XferPhase::ReEncrypted => {
                        let grant = self.fabric.borrow_mut().occupy(now, act.comm);
                        self.act_phase[mb as usize] = XferPhase::Crossed;
                        ctx.send_at(grant.end, ctx.self_id(), Msg::ActPhase(mb));
                    }
                    XferPhase::Crossed => {
                        self.ledger.borrow_mut().crypto += act.re_encryption + act.decryption;
                        ctx.send_after(act.decryption, self.next_stage, Msg::ActArrived);
                    }
                }
            }
            _ => unreachable!("stage received {msg:?}"),
        }
    }
}

/// The component universe of one cluster step.
#[derive(Debug)]
enum Node {
    Npu(NpuNode),
    Stage(StageNode),
    Ring(RingNode),
    GradLink(LinkNode),
    Cpu(CpuNode),
    Weight(WeightNode),
    Finish(FinishNode),
}

impl Component for Node {
    type Msg = Msg;

    fn next_tick(&self) -> Time {
        match self {
            Node::Npu(n) => n.next_tick(),
            Node::Stage(s) => s.next_tick(),
            Node::Cpu(c) => c.next_tick(),
            _ => Time::MAX,
        }
    }

    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        match self {
            Node::Npu(n) => n.tick(now, ctx),
            Node::Stage(s) => s.tick(now, ctx),
            Node::Cpu(c) => c.tick(now, ctx),
            _ => unreachable!("component has no timer"),
        }
    }

    fn label(&self) -> String {
        match self {
            Node::Npu(n) => format!("NPU{}", n.rank),
            Node::Stage(s) => format!("NPU{}", s.stage),
            Node::Ring(_) => "ring".to_string(),
            Node::GradLink(_) => "link".to_string(),
            Node::Cpu(_) => "CPU".to_string(),
            Node::Weight(_) => "weights".to_string(),
            Node::Finish(_) => "finish".to_string(),
        }
    }

    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match self {
            Node::Ring(r) => r.receive(now, msg, ctx),
            Node::GradLink(l) => match msg {
                Msg::GradStart => l.start(ctx),
                Msg::GradPhase => l.advance(now, ctx),
                other => unreachable!("gradient link received {other:?}"),
            },
            Node::Cpu(c) => match msg {
                Msg::NpuDone => {
                    c.waiting_npu -= 1;
                    c.maybe_start(now, ctx);
                }
                Msg::GradArrived => {
                    c.grad_arrived = true;
                    c.maybe_start(now, ctx);
                }
                other => unreachable!("cpu received {other:?}"),
            },
            Node::Weight(w) => w.receive(now, msg, ctx),
            Node::Finish(f) => f.receive(now, msg),
            Node::Stage(s) => s.receive(now, msg, ctx),
            Node::Npu(_) => unreachable!("npu nodes take no messages"),
        }
    }
}

/// Scales a duration by the straggler factor; exact for factor 1.0.
fn scale_duration(t: Time, factor: f64) -> Time {
    if factor == 1.0 {
        t
    } else {
        Time::from_ps((t.as_ps() as f64 * factor).round() as u64)
    }
}

/// The discrete-event counterpart of [`crate::ClusterSystem`].
#[derive(Debug)]
pub struct DesClusterSystem {
    sys: TrainingSystem,
    des: DesClusterConfig,
    probe: SharedProbe,
}

impl DesClusterSystem {
    /// Creates the system.
    ///
    /// # Panics
    ///
    /// Panics on an empty cluster, a straggler factor below 1.0, or a
    /// pipeline with zero microbatches.
    pub fn new(cfg: SystemConfig, des: DesClusterConfig, mode: SecureMode) -> Self {
        assert!(des.cluster.n_npus > 0, "a cluster needs at least one NPU");
        assert!(
            des.straggler_factor >= 1.0,
            "straggler factor is a slowdown (≥ 1.0), got {}",
            des.straggler_factor
        );
        if let Parallelism::Pipeline { microbatches } = des.parallelism {
            assert!(microbatches > 0, "a pipeline needs at least one microbatch");
        }
        DesClusterSystem {
            sys: TrainingSystem::new(cfg, mode),
            des,
            probe: SharedProbe::Null,
        }
    }

    /// Prices through `memo` (builder form; see
    /// [`TrainingSystem::new`]).
    pub(crate) fn with_memo(mut self, memo: &Memo) -> Self {
        self.sys = self.sys.with_memo(memo);
        self
    }

    /// Installs an observability probe (builder form). The scheduler gets
    /// it for tick/send events, and [`Self::simulate_with_cpu_time`] lays
    /// phase spans (per-rank compute, collective, gradient stream,
    /// optimizer) over the finished ledger — emitted *after* the run, so
    /// tracing cannot perturb a single timestamp.
    pub fn with_probe(mut self, probe: SharedProbe) -> Self {
        self.probe = probe;
        self
    }

    /// The active mode.
    pub fn mode(&self) -> SecureMode {
        self.sys.mode()
    }

    /// Simulates one step from an explicit (global-batch) schedule,
    /// pricing the CPU phase itself through the system's memo — the
    /// `des_*` artifacts and explore's des scenario run it on their
    /// context's memo, so each distinct CPU phase is simulated once per
    /// run. `real_cpu_path_stays_in_parity_under_the_fast_config` pins it
    /// against the analytic model.
    pub fn simulate_schedule(&mut self, schedule: &StepSchedule) -> DesStepReport {
        // Adam runs on the reduced full-model gradients in both layouts;
        // data-parallel prices it from the replica schedule exactly like
        // the analytic path (same tensor list either way).
        let cpu = match self.des.parallelism {
            Parallelism::Data => {
                let replica = schedule.data_parallel_replica(self.des.cluster.n_npus);
                self.sys.cpu_time(&replica)
            }
            Parallelism::Pipeline { .. } => self.sys.cpu_time(schedule),
        };
        self.simulate_with_cpu_time(schedule, cpu)
    }

    /// [`Self::simulate_schedule`] with the CPU Adam phase supplied by
    /// the caller: `obs_utilization` lays a synthetic optimizer phase on
    /// its instrumented step, and the differential tests feed the
    /// analytic and DES engines one fixed phase.
    pub fn simulate_with_cpu_time(&mut self, schedule: &StepSchedule, cpu: Time) -> DesStepReport {
        match self.des.parallelism {
            Parallelism::Data => self.run_data_parallel(schedule, cpu),
            Parallelism::Pipeline { microbatches } => {
                self.run_pipeline(schedule, cpu, microbatches)
            }
        }
    }

    /// Builds and runs the data-parallel component graph.
    fn run_data_parallel(&mut self, schedule: &StepSchedule, cpu: Time) -> DesStepReport {
        let n = self.des.cluster.n_npus;
        let replica = schedule.data_parallel_replica(n);
        let npu_base = self.sys.npu_time(&replica);
        let comm = self.sys.comm_costs(&replica);
        let protocol = self.mode().protocol();
        let ring = RingAllReduce::new(n, self.des.cluster.interconnect);
        let hops = ring.hops(protocol, replica.grad_bytes);
        let broadcast = ring.broadcast(protocol, replica.weight_bytes);
        let overlaps = protocol.overlaps_compute();

        let ledger: Shared<Ledger> = Rc::new(RefCell::new(Ledger {
            npu_done: vec![Time::ZERO; n as usize],
            ..Ledger::default()
        }));
        let fabric: Shared<FabricLink> = Rc::new(RefCell::new({
            let mut link = FabricLink::new();
            link.set_probe(self.probe.clone());
            link
        }));

        // Component ids: ranks 0..n, then ring, grad link, cpu, weight,
        // finish — the (time, id) tie-break dispatches ranks first.
        let ring_id = n as usize;
        let grad_id = ring_id + 1;
        let cpu_id = grad_id + 1;
        let weight_id = cpu_id + 1;
        let finish_id = weight_id + 1;

        let mut sched: Scheduler<Node> = Scheduler::new();
        for rank in 0..n as usize {
            // The straggler (if any) is the last rank.
            let factor = if rank == n as usize - 1 {
                self.des.straggler_factor
            } else {
                1.0
            };
            let done_at = scale_duration(npu_base, factor);
            // Under an overlapping protocol the collective may start when
            // the backward window opens; a serialized protocol waits for
            // completion.
            let ready_at = if overlaps {
                done_at.saturating_sub(backward_window(done_at))
            } else {
                done_at
            };
            sched.add(Node::Npu(NpuNode {
                rank,
                ready_at,
                done_at,
                phase: 0,
                ring: ring_id,
                cpu: cpu_id,
                ledger: Rc::clone(&ledger),
            }));
        }
        self.add_tail_nodes(
            &mut sched,
            TailWiring {
                n_compute: n,
                hops,
                comm_grad: comm.grad,
                comm_weight: comm.weight,
                broadcast,
                cpu,
                overlaps,
                grad_id,
                cpu_id,
                weight_id,
                finish_id,
            },
            &ledger,
            &fabric,
        );
        self.finish_run(sched, ledger, fabric, cpu)
    }

    /// Builds and runs the pipeline-parallel component graph.
    fn run_pipeline(
        &mut self,
        schedule: &StepSchedule,
        cpu: Time,
        microbatches: u32,
    ) -> DesStepReport {
        let n = self.des.cluster.n_npus;
        let m = microbatches as usize;
        let comm = self.sys.comm_costs(schedule);
        let protocol = self.mode().protocol();
        let overlaps = protocol.overlaps_compute();

        // Split the layer list into N contiguous stages and price each
        // stage's compute with the same NPU engine the analytic path uses.
        let layers = &schedule.npu_layers;
        let chunk = layers.len().div_ceil(n as usize).max(1);
        let mut stage_times = Vec::with_capacity(n as usize);
        let mut boundary_bytes = Vec::with_capacity(n as usize);
        for s in 0..n as usize {
            let lo = (s * chunk).min(layers.len());
            let hi = ((s + 1) * chunk).min(layers.len());
            let slice = &layers[lo..hi];
            let t = if slice.is_empty() {
                Time::ZERO
            } else {
                let mut sub = schedule.clone();
                sub.npu_layers = slice.to_vec();
                self.sys.npu_time(&sub)
            };
            let factor = if s == n as usize - 1 {
                self.des.straggler_factor
            } else {
                1.0
            };
            stage_times.push(scale_duration(t, factor));
            // Activations crossing the boundary after stage `s`: the last
            // layer's output (64-byte floor, matching schedule scaling).
            boundary_bytes.push(slice.last().map(|l| l.out_bytes).unwrap_or(64).max(64));
        }

        let ledger: Shared<Ledger> = Rc::new(RefCell::new(Ledger {
            npu_done: vec![Time::ZERO; n as usize],
            ..Ledger::default()
        }));
        let fabric: Shared<FabricLink> = Rc::new(RefCell::new({
            let mut link = FabricLink::new();
            link.set_probe(self.probe.clone());
            link
        }));

        let ring_id = n as usize;
        let grad_id = ring_id + 1;
        let cpu_id = grad_id + 1;
        let weight_id = cpu_id + 1;
        let finish_id = weight_id + 1;

        let mut sched: Scheduler<Node> = Scheduler::new();
        for s in 0..n as usize {
            // Conserve each stage's total compute exactly across its
            // microbatches (integer split, remainder spread over the
            // first microbatches).
            let ps = stage_times[s].as_ps();
            let per = ps / m as u64;
            let rem = ps % m as u64;
            let per_mb: Vec<Time> = (0..m as u64)
                .map(|k| Time::from_ps(per + u64::from(k < rem)))
                .collect();
            // Boundary activations cross the NPU fabric point to point
            // under the mode's protocol.
            let act = if s + 1 < n as usize {
                Some(protocol.transfer(
                    self.des.cluster.interconnect.link(),
                    boundary_bytes[s].div_ceil(m as u64),
                ))
            } else {
                None
            };
            // Stage 0 starts its first microbatch at t=0 with the rest
            // of the batch queued; later stages idle until activations
            // arrive.
            let (queued, busy_until) = if s == 0 {
                (microbatches - 1, per_mb[0])
            } else {
                (0, Time::MAX)
            };
            sched.add(Node::Stage(StageNode {
                stage: s,
                per_mb,
                queued,
                next_mb: 0,
                busy_until,
                act,
                act_phase: vec![XferPhase::ReEncrypted; m],
                finished: 0,
                next_stage: s + 1,
                ring: ring_id,
                cpu: cpu_id,
                fabric: Rc::clone(&fabric),
                ledger: Rc::clone(&ledger),
            }));
        }
        self.add_tail_nodes(
            &mut sched,
            TailWiring {
                n_compute: n,
                // No collective: layer shards are disjoint, gradients
                // stream straight to the CPU.
                hops: Vec::new(),
                comm_grad: comm.grad,
                comm_weight: comm.weight,
                // No ring re-broadcast either: each stage receives only
                // its own shard over the CPU link.
                broadcast: TransferBreakdown::default(),
                cpu,
                overlaps,
                grad_id,
                cpu_id,
                weight_id,
                finish_id,
            },
            &ledger,
            &fabric,
        );
        self.finish_run(sched, ledger, fabric, cpu)
    }

    /// Adds the shared back half of the graph: collective, gradient link,
    /// CPU, weight path, finish.
    fn add_tail_nodes(
        &self,
        sched: &mut Scheduler<Node>,
        w: TailWiring,
        ledger: &Shared<Ledger>,
        fabric: &Shared<FabricLink>,
    ) {
        sched.add(Node::Ring(RingNode {
            hops: w.hops,
            waiting: w.n_compute,
            idx: 0,
            phase: XferPhase::ReEncrypted,
            fabric: Rc::clone(fabric),
            grad_link: w.grad_id,
            ledger: Rc::clone(ledger),
        }));
        sched.add(Node::GradLink(LinkNode {
            cost: w.comm_grad,
            phase: XferPhase::ReEncrypted,
            done_msg: Msg::GradArrived,
            next: w.cpu_id,
            step_msg_is_weight: false,
            ledger: Rc::clone(ledger),
            stamps_grad_end: true,
        }));
        sched.add(Node::Cpu(CpuNode {
            duration: w.cpu,
            waiting_npu: w.n_compute,
            grad_arrived: false,
            started: false,
            done_at: Time::MAX,
            overlaps: w.overlaps,
            weight: w.weight_id,
            finish: w.finish_id,
            ledger: Rc::clone(ledger),
        }));
        sched.add(Node::Weight(WeightNode {
            link: LinkNode {
                cost: w.comm_weight,
                phase: XferPhase::ReEncrypted,
                done_msg: Msg::WeightDone,
                // The link path reports back to the weight node itself,
                // which forwards once both paths are done.
                next: w.weight_id,
                step_msg_is_weight: true,
                ledger: Rc::clone(ledger),
                stamps_grad_end: false,
            },
            broadcast: w.broadcast,
            pending: 0,
            fabric: Rc::clone(fabric),
            finish: w.finish_id,
            ledger: Rc::clone(ledger),
        }));
        sched.add(Node::Finish(FinishNode {
            pending: 2,
            ledger: Rc::clone(ledger),
        }));
    }

    /// Runs the scheduler to quiescence and extracts the breakdown.
    fn finish_run(
        &self,
        mut sched: Scheduler<Node>,
        ledger: Shared<Ledger>,
        fabric: Shared<FabricLink>,
        cpu: Time,
    ) -> DesStepReport {
        sched.set_probe(self.probe.clone());
        sched.run();
        let events = sched.events_processed();
        drop(sched);
        let ledger = Rc::try_unwrap(ledger)
            .expect("all components dropped")
            .into_inner();
        assert!(ledger.finished, "step did not run to completion");
        let fabric = fabric.borrow();

        // Extraction: algebraically identical to the analytic
        // composition (see tests/des_cluster.rs for the bit-for-bit
        // differential harness).
        let npu_end = ledger.npu_done.iter().copied().max().unwrap_or(Time::ZERO);
        let comm_ar = ledger.ar_end.saturating_sub(npu_end);
        let comm_g = ledger.grad_end.saturating_sub(npu_end.max(ledger.ar_end));
        let comm_w = ledger.step_end.saturating_sub(ledger.cpu_start + cpu);
        let breakdown = ClusterStepBreakdown {
            npu: npu_end,
            cpu,
            comm_w,
            comm_g,
            comm_ar,
        };
        if self.probe.enabled() {
            // Phase spans are laid over the finished ledger — pure
            // observation of timestamps the run already stamped.
            let mode = self.mode().label();
            for (rank, done) in ledger.npu_done.iter().enumerate() {
                self.probe.span(
                    &format!("NPU{rank}"),
                    &format!("compute [{mode}]"),
                    Time::ZERO,
                    *done,
                );
            }
            if ledger.ar_end > ledger.ring_start {
                self.probe
                    .span("ring", "all_reduce", ledger.ring_start, ledger.ar_end);
            }
            if ledger.grad_end > ledger.ar_end {
                self.probe
                    .span("link", "grad_stream", ledger.ar_end, ledger.grad_end);
            }
            self.probe
                .span("CPU", "optimizer", ledger.cpu_start, ledger.cpu_start + cpu);
            self.probe
                .instant("weights", "weights_ready", ledger.weight_end);
            self.probe.instant("CPU", "step_end", ledger.step_end);
            self.probe.count("cluster.steps", 1);
            self.probe.count("cluster.crypto_ps", ledger.crypto.as_ps());
            self.probe
                .count("link.queued_ps", fabric.contention().as_ps());
            self.probe
                .count("link.occupied_ps", fabric.occupied().as_ps());
        }
        DesStepReport {
            breakdown,
            makespan: ledger.step_end,
            fabric_contention: fabric.contention(),
            fabric_occupied: fabric.occupied(),
            crypto: ledger.crypto,
            events,
        }
    }
}

/// Wiring bundle for the shared tail of the component graph.
#[derive(Debug)]
struct TailWiring {
    n_compute: u32,
    hops: Vec<TransferBreakdown>,
    comm_grad: TransferBreakdown,
    comm_weight: TransferBreakdown,
    broadcast: TransferBreakdown,
    cpu: Time,
    overlaps: bool,
    grad_id: usize,
    cpu_id: usize,
    weight_id: usize,
    finish_id: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterSystem;
    use tee_workloads::zoo::by_name;

    fn fast() -> SystemConfig {
        SystemConfig::fast_sim()
    }

    /// A deterministic synthetic CPU time (the cacheline CPU sim is the
    /// expensive part; parity is independent of the value supplied).
    const CPU: Time = Time::from_ms(25);

    #[test]
    fn lockstep_matches_analytic_bit_for_bit() {
        let model = by_name("GPT").unwrap();
        let schedule = StepSchedule::of(&model);
        for n in [1u32, 2, 4, 8] {
            for mode in SecureMode::all() {
                let analytic = ClusterSystem::new(fast(), ClusterConfig::of(n), mode)
                    .simulate_with_cpu_time(&schedule, CPU);
                let des = DesClusterSystem::new(
                    fast(),
                    DesClusterConfig::lockstep(ClusterConfig::of(n)),
                    mode,
                )
                .simulate_with_cpu_time(&schedule, CPU);
                assert_eq!(des.breakdown, analytic, "N={n} {}", mode.label());
                assert_eq!(des.makespan, analytic.total(), "N={n} {}", mode.label());
                assert_eq!(des.fabric_contention, Time::ZERO);
            }
        }
    }

    #[test]
    fn straggler_stretches_compute_and_shrinks_exposed_collective() {
        let model = by_name("GPT").unwrap();
        let schedule = StepSchedule::of(&model);
        let base = DesClusterSystem::new(
            fast(),
            DesClusterConfig::lockstep(ClusterConfig::of(4)),
            SecureMode::TensorTee,
        )
        .simulate_with_cpu_time(&schedule, CPU);
        let slow = DesClusterSystem::new(
            fast(),
            DesClusterConfig::lockstep(ClusterConfig::of(4)).with_straggler(1.5),
            SecureMode::TensorTee,
        )
        .simulate_with_cpu_time(&schedule, CPU);
        assert!(slow.breakdown.npu > base.breakdown.npu);
        // The longer backward window hides more of the collective.
        assert!(slow.breakdown.comm_ar <= base.breakdown.comm_ar);
        assert!(slow.makespan > base.makespan);
    }

    #[test]
    fn pipeline_contends_on_the_fabric() {
        let model = by_name("GPT").unwrap();
        let schedule = StepSchedule::of(&model);
        let report = DesClusterSystem::new(
            fast(),
            DesClusterConfig::lockstep(ClusterConfig::of(4)).with_pipeline(8),
            SecureMode::SgxMgx,
        )
        .simulate_with_cpu_time(&schedule, CPU);
        assert!(report.fabric_occupied > Time::ZERO);
        assert_eq!(report.breakdown.comm_ar, Time::ZERO, "no collective");
        assert_eq!(report.makespan, report.breakdown.total());
        assert!(report.crypto > Time::ZERO, "staging pays conversions");
    }

    #[test]
    fn reports_are_deterministic() {
        let model = by_name("GPT").unwrap();
        let schedule = StepSchedule::of(&model);
        let run = || {
            DesClusterSystem::new(
                fast(),
                DesClusterConfig::lockstep(ClusterConfig::of(4))
                    .with_straggler(1.25)
                    .with_pipeline(4),
                SecureMode::TensorTee,
            )
            .simulate_with_cpu_time(&schedule, CPU)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracing_does_not_perturb_the_report() {
        let model = by_name("GPT").unwrap();
        let schedule = StepSchedule::of(&model);
        let run = |probe: SharedProbe| {
            DesClusterSystem::new(
                fast(),
                DesClusterConfig::lockstep(ClusterConfig::of(4)).with_straggler(1.25),
                SecureMode::SgxMgx,
            )
            .with_probe(probe)
            .simulate_with_cpu_time(&schedule, CPU)
        };
        let recorder = SharedProbe::recording();
        assert_eq!(run(SharedProbe::Null), run(recorder.clone()));
        let snap = recorder.snapshot().expect("recording probe");
        assert!(snap.metrics().get("cluster.steps") == 1);
        assert!(snap.metrics().get("cluster.crypto_ps") > 0);
        for track in ["NPU0", "NPU3", "ring", "link", "CPU"] {
            assert!(
                snap.events().iter().any(|e| e.track() == track),
                "missing track {track}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "straggler factor")]
    fn sub_unity_straggler_rejected() {
        let _ = DesClusterSystem::new(
            fast(),
            DesClusterConfig::lockstep(ClusterConfig::of(2)).with_straggler(0.5),
            SecureMode::NonSecure,
        );
    }
}
