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
//!
//! # The component graph
//!
//! [`DesClusterSystem::simulate_with_cpu_time`] builds one graph for both
//! layouts: the layout's n compute nodes (ids `0..n`: data-parallel ranks
//! or pipeline stages, the last one the straggler), then the shared tail
//! — ring, gradient link, CPU, weight path, finish. Every transfer (a
//! ring hop, a microbatch's boundary activations, the gradient and weight
//! streams on the CPU link) is one `Transfer` replayed in the three phases
//! of §3.3/§4.4 (Figure 21's bars): re-encryption, the bus (queued on the
//! shared fabric for NPU-fabric traffic), then decryption.
//!
//! The messages:
//!
//! * `RingReady` (compute node → ring) and `NpuDone` (compute node → CPU);
//! * `Advance(i)` (a node → itself): its transfer `i` finished a phase;
//! * `GradStart` (ring → gradient link) and `GradArrived` (gradient link
//!   → CPU);
//! * `WeightStart` (CPU → weight path), `BroadcastDone` and `WeightDone`
//!   (weight path → itself, then `WeightDone` → finish);
//! * `CpuDone` (CPU → finish);
//! * `ActArrived` (stage → next stage).

use crate::config::{ClusterConfig, SecureMode, SystemConfig};
use crate::memo::Memo;
use crate::system::{backward_window, ClusterStepBreakdown, TrainingSystem};
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;
use tee_comm::des::FabricLink;
use tee_comm::protocol::TransferBreakdown;
use tee_comm::ring::RingAllReduce;
use tee_sim::des::{Component, ComponentId, Ctx, Scheduler};
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

/// What every component of one step shares: the ledger it stamps, the
/// NPU fabric its transfers queue on, and the ids of the shared tail.
/// The layout's compute nodes take ids `0..n` and the tail the next five,
/// in field order, so the `(time, id)` tie-break dispatches compute
/// nodes first.
#[derive(Debug)]
struct Graph {
    ledger: RefCell<Ledger>,
    fabric: RefCell<FabricLink>,
    ring: ComponentId,
    grad_link: ComponentId,
    cpu: ComponentId,
    weight: ComponentId,
    finish: ComponentId,
}

/// Messages exchanged between the cluster's components.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Compute node → ring: this node's gradient stream is ready.
    RingReady,
    /// Compute node → CPU: this node finished forward+backward.
    NpuDone,
    /// A node → itself: its transfer `i` (ring hop, microbatch, or 0 on
    /// the CPU links) finished a phase. The ring's `Advance(hops)` is its
    /// completion, deferred to the end of the last hop's decryption.
    Advance(u32),
    /// Ring → gradient link: reduced shards may stream to the CPU.
    GradStart,
    /// Gradient link → CPU: gradients resident in CPU memory.
    GradArrived,
    /// CPU → weight path: start (at `cpu_start` when the mode overlaps,
    /// at CPU completion otherwise).
    WeightStart,
    /// Weight path → itself: the ring broadcast finished.
    BroadcastDone,
    /// CPU → finish.
    CpuDone,
    /// Weight path → itself when its CPU-link stream lands, then →
    /// finish once both paths are done.
    WeightDone,
    /// Stage → next stage: one microbatch's activations arrived.
    ActArrived,
}

/// One protocol transfer replayed as events: re-encryption, the bus
/// phase, then decryption (Figure 21's three bars).
#[derive(Debug, Clone, Copy)]
struct Transfer {
    cost: TransferBreakdown,
    /// Whether the bus phase finished (the next advance decrypts).
    crossed: bool,
}

impl Transfer {
    fn new(cost: TransferBreakdown) -> Self {
        Transfer {
            cost,
            crossed: false,
        }
    }

    /// Starts re-encryption at `at`; `msg` comes back when it finishes.
    fn start_at(&self, at: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        ctx.send_at(at + self.cost.re_encryption, ctx.self_id(), msg);
    }

    /// Runs the phase after the one that just finished at `now`. After
    /// re-encryption that is the bus phase, queued on `fabric` when one is
    /// given; `msg` comes back when it ends. After the bus phase, returns
    /// when decryption completes the transfer.
    fn advance(
        &mut self,
        now: Time,
        fabric: Option<&RefCell<FabricLink>>,
        msg: Msg,
        ctx: &mut Ctx<'_, Msg>,
    ) -> Option<Time> {
        if self.crossed {
            return Some(now + self.cost.decryption);
        }
        self.crossed = true;
        let end = match fabric {
            Some(fabric) => fabric.borrow_mut().occupy(now, self.cost.comm).end,
            None => now + self.cost.comm,
        };
        ctx.send_at(end, ctx.self_id(), msg);
        None
    }

    /// Staging conversion time (re-encryption + decryption).
    fn crypto(&self) -> Time {
        self.cost.re_encryption + self.cost.decryption
    }
}

/// An NPU replica in data-parallel mode: computes for a fixed duration,
/// announcing gradient-readiness (backward window opening, or completion
/// under a serialized protocol) and completion.
#[derive(Debug)]
struct NpuNode {
    rank: usize,
    /// When the collective may start ([`Time::MAX`] once announced).
    ready_at: Time,
    /// When compute completes ([`Time::MAX`] once announced).
    done_at: Time,
}

impl NpuNode {
    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>, g: &Graph) {
        if self.ready_at == now {
            ctx.send(g.ring, Msg::RingReady);
            self.ready_at = Time::MAX;
        }
        if self.done_at == now {
            g.ledger.borrow_mut().npu_done[self.rank] = now;
            ctx.send(g.cpu, Msg::NpuDone);
            self.done_at = Time::MAX;
        }
    }
}

/// One pipeline stage: serially computes queued microbatches and ships
/// each one's boundary activations across the shared fabric.
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
    /// Boundary activation transfer per microbatch (empty on the last
    /// stage).
    acts: Vec<Transfer>,
}

impl StageNode {
    fn new(stage: usize, work: Time, microbatches: u32, acts: Vec<Transfer>) -> Self {
        // Conserve the stage's compute exactly across its microbatches
        // (integer split, remainder spread over the first microbatches).
        let m = u64::from(microbatches);
        let (per, rem) = (work.as_ps() / m, work.as_ps() % m);
        let per_mb: Vec<Time> = (0..m)
            .map(|k| Time::from_ps(per + u64::from(k < rem)))
            .collect();
        // Stage 0 starts its first microbatch at t=0 with the rest of the
        // batch queued; later stages idle until activations arrive.
        let (queued, busy_until) = if stage == 0 {
            (microbatches - 1, per_mb[0])
        } else {
            (0, Time::MAX)
        };
        StageNode {
            stage,
            per_mb,
            queued,
            next_mb: 0,
            busy_until,
            acts,
        }
    }

    fn try_start(&mut self, now: Time) {
        if self.busy_until == Time::MAX && self.queued > 0 && self.next_mb < self.per_mb.len() {
            self.queued -= 1;
            self.busy_until = now + self.per_mb[self.next_mb];
        }
    }

    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>, g: &Graph) {
        // Drain every microbatch completing at `now` — zero-duration
        // microbatches (an empty stage on an over-partitioned model)
        // finish immediately, and the strict-advance contract requires
        // handling them all in this tick.
        while self.busy_until == now {
            let mb = self.next_mb;
            self.next_mb += 1;
            self.busy_until = Time::MAX;
            if let Some(act) = self.acts.get(mb) {
                // Ship its activations: re-encrypt, then request the fabric.
                act.start_at(now, Msg::Advance(mb as u32), ctx);
            }
            if self.next_mb == self.per_mb.len() {
                // Stage drained: gradients for its layer shard are ready.
                g.ledger.borrow_mut().npu_done[self.stage] = now;
                ctx.send(g.ring, Msg::RingReady);
                ctx.send(g.cpu, Msg::NpuDone);
            }
            self.try_start(now);
        }
    }

    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>, g: &Graph) {
        match msg {
            Msg::ActArrived => {
                self.queued += 1;
                self.try_start(now);
            }
            Msg::Advance(mb) => {
                let act = &mut self.acts[mb as usize];
                if let Some(done) = act.advance(now, Some(&g.fabric), msg, ctx) {
                    g.ledger.borrow_mut().crypto += act.crypto();
                    ctx.send_at(done, self.stage + 1, Msg::ActArrived);
                }
            }
            _ => unreachable!("stage received {msg:?}"),
        }
    }
}

/// The ring collective: waits for every compute node, then walks the
/// pre-priced hop sequence, each hop's bus phase arbitrated by the
/// shared fabric.
#[derive(Debug)]
struct RingNode {
    hops: Vec<Transfer>,
    /// Compute nodes not yet ready.
    waiting: u32,
}

impl RingNode {
    fn complete(now: Time, ctx: &mut Ctx<'_, Msg>, g: &Graph) {
        g.ledger.borrow_mut().ar_end = now;
        ctx.send(g.grad_link, Msg::GradStart);
    }

    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>, g: &Graph) {
        let last = self.hops.len() as u32;
        match msg {
            Msg::RingReady => {
                self.waiting -= 1;
                if self.waiting == 0 {
                    g.ledger.borrow_mut().ring_start = now;
                    match self.hops.first() {
                        Some(hop) => hop.start_at(now, Msg::Advance(0), ctx),
                        None => Self::complete(now, ctx, g),
                    }
                }
            }
            Msg::Advance(i) if i == last => Self::complete(now, ctx, g),
            Msg::Advance(i) => {
                let hop = &mut self.hops[i as usize];
                let Some(done) = hop.advance(now, Some(&g.fabric), msg, ctx) else {
                    return;
                };
                g.ledger.borrow_mut().crypto += hop.crypto();
                if let Some(next) = self.hops.get(i as usize + 1) {
                    // The next hop's re-encryption starts when this hop's
                    // chunk is usable.
                    next.start_at(done, Msg::Advance(i + 1), ctx);
                } else if done == now {
                    Self::complete(now, ctx, g);
                } else {
                    ctx.send_at(done, ctx.self_id(), Msg::Advance(last));
                }
            }
            _ => unreachable!("ring received {msg:?}"),
        }
    }
}

/// The CPU optimizer: starts once every compute node drained *and* the
/// reduced gradients arrived; kicks the weight path per the mode's
/// overlap policy.
#[derive(Debug)]
struct CpuNode {
    duration: Time,
    waiting_npu: u32,
    grad_arrived: bool,
    /// When the optimizer finishes ([`Time::MAX`] before it starts and
    /// once done).
    done_at: Time,
    overlaps: bool,
}

impl CpuNode {
    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>, g: &Graph) {
        match msg {
            Msg::NpuDone => self.waiting_npu -= 1,
            Msg::GradArrived => {
                self.grad_arrived = true;
                g.ledger.borrow_mut().grad_end = now;
            }
            _ => unreachable!("cpu received {msg:?}"),
        }
        if self.waiting_npu > 0 || !self.grad_arrived {
            return;
        }
        g.ledger.borrow_mut().cpu_start = now;
        self.done_at = now + self.duration;
        if self.overlaps {
            // Weights pipeline tensor-by-tensor behind the update (§4.4).
            ctx.send(g.weight, Msg::WeightStart);
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Msg>, g: &Graph) {
        self.done_at = Time::MAX;
        if !self.overlaps {
            ctx.send(g.weight, Msg::WeightStart);
        }
        ctx.send(g.finish, Msg::CpuDone);
    }
}

/// The weight path: the CPU→NPU stream on the CPU link in parallel with
/// the ring re-broadcast occupying the fabric; done when the slower of
/// the two finishes.
#[derive(Debug)]
struct WeightNode {
    link: Transfer,
    broadcast: TransferBreakdown,
    /// Paths still running.
    pending: u8,
}

impl WeightNode {
    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>, g: &Graph) {
        match msg {
            Msg::WeightStart => {
                // Path A: the CPU-link stream.
                self.link.start_at(now, Msg::Advance(0), ctx);
                // Path B: the pipelined ring broadcast on the fabric
                // (crypto conversions included in its breakdown).
                let grant = g.fabric.borrow_mut().occupy(now, self.broadcast.total());
                g.ledger.borrow_mut().crypto +=
                    self.broadcast.re_encryption + self.broadcast.decryption;
                ctx.send_at(grant.end, ctx.self_id(), Msg::BroadcastDone);
            }
            Msg::Advance(_) => {
                if let Some(done) = self.link.advance(now, None, msg, ctx) {
                    g.ledger.borrow_mut().crypto += self.link.crypto();
                    ctx.send_at(done, ctx.self_id(), Msg::WeightDone);
                }
            }
            Msg::WeightDone | Msg::BroadcastDone => {
                self.pending -= 1;
                if self.pending == 0 {
                    g.ledger.borrow_mut().weight_end = now;
                    ctx.send(g.finish, Msg::WeightDone);
                }
            }
            _ => unreachable!("weight path received {msg:?}"),
        }
    }
}

/// What a component of the step is.
#[derive(Debug)]
enum Kind {
    Npu(NpuNode),
    Stage(StageNode),
    Ring(RingNode),
    /// The NPU→CPU gradient stream on the CPU link.
    GradLink(Transfer),
    Cpu(CpuNode),
    Weight(WeightNode),
    /// Records the step end once the CPU and the weight path finished.
    Finish {
        pending: u8,
    },
}

/// One component of the step's graph.
#[derive(Debug)]
struct Node {
    graph: Rc<Graph>,
    kind: Kind,
}

impl Component for Node {
    type Msg = Msg;

    fn next_tick(&self) -> Time {
        match &self.kind {
            Kind::Npu(n) => n.ready_at.min(n.done_at),
            Kind::Stage(s) => s.busy_until,
            Kind::Cpu(c) => c.done_at,
            _ => Time::MAX,
        }
    }

    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        let g = &self.graph;
        match &mut self.kind {
            Kind::Npu(n) => n.tick(now, ctx, g),
            Kind::Stage(s) => s.tick(now, ctx, g),
            Kind::Cpu(c) => c.tick(ctx, g),
            _ => unreachable!("component has no timer"),
        }
    }

    fn label(&self) -> String {
        match &self.kind {
            Kind::Npu(NpuNode { rank: i, .. }) | Kind::Stage(StageNode { stage: i, .. }) => {
                format!("NPU{i}")
            }
            Kind::Ring(_) => "ring".to_string(),
            Kind::GradLink(_) => "link".to_string(),
            Kind::Cpu(_) => "CPU".to_string(),
            Kind::Weight(_) => "weights".to_string(),
            Kind::Finish { .. } => "finish".to_string(),
        }
    }

    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let g = &self.graph;
        match &mut self.kind {
            Kind::Ring(r) => r.receive(now, msg, ctx, g),
            Kind::GradLink(link) => match msg {
                Msg::GradStart => link.start_at(now, Msg::Advance(0), ctx),
                Msg::Advance(_) => {
                    if let Some(done) = link.advance(now, None, msg, ctx) {
                        g.ledger.borrow_mut().crypto += link.crypto();
                        ctx.send_at(done, g.cpu, Msg::GradArrived);
                    }
                }
                other => unreachable!("gradient link received {other:?}"),
            },
            Kind::Cpu(c) => c.receive(now, msg, ctx, g),
            Kind::Weight(w) => w.receive(now, msg, ctx, g),
            Kind::Finish { pending } => {
                *pending -= 1;
                if *pending == 0 {
                    let mut ledger = g.ledger.borrow_mut();
                    ledger.step_end = now;
                    ledger.finished = true;
                }
            }
            Kind::Stage(s) => s.receive(now, msg, ctx, g),
            Kind::Npu(_) => unreachable!("npu nodes take no messages"),
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
        // `data_parallel_replica` keeps the Adam tensor list, so this is
        // the analytic path's (replica) price and memo key too.
        let cpu = self.sys.cpu_time(schedule);
        self.simulate_with_cpu_time(schedule, cpu)
    }

    /// [`Self::simulate_schedule`] with the CPU Adam phase supplied by
    /// the caller: `obs_utilization` lays a synthetic optimizer phase on
    /// its instrumented step, and the differential tests feed the
    /// analytic and DES engines one fixed phase.
    ///
    /// Builds the step's component graph — the layout's n compute nodes
    /// (ranks or stages), then the shared tail — and runs it.
    pub fn simulate_with_cpu_time(&mut self, schedule: &StepSchedule, cpu: Time) -> DesStepReport {
        let n = self.des.cluster.n_npus as usize;
        let protocol = self.mode().protocol();
        let interconnect = self.des.cluster.interconnect;
        let graph = Rc::new(Graph {
            ledger: RefCell::new(Ledger {
                npu_done: vec![Time::ZERO; n],
                ..Ledger::default()
            }),
            fabric: RefCell::new({
                let mut link = FabricLink::new();
                link.set_probe(self.probe.clone());
                link
            }),
            ring: n,
            grad_link: n + 1,
            cpu: n + 2,
            weight: n + 3,
            finish: n + 4,
        });
        let mut sched: Scheduler<Node> = Scheduler::new();
        let mut add = |kind| {
            sched.add(Node {
                graph: Rc::clone(&graph),
                kind,
            })
        };
        // The straggler (if any) is the last rank or stage.
        let straggle = |i: usize, t: Time| {
            let factor = if i == n - 1 {
                self.des.straggler_factor
            } else {
                1.0
            };
            scale_duration(t, factor)
        };

        let (hops, broadcast) = match self.des.parallelism {
            Parallelism::Data => {
                let npu = self.sys.npu_time(&schedule.data_parallel_replica(n as u32));
                for rank in 0..n {
                    let done_at = straggle(rank, npu);
                    // Under an overlapping protocol the collective may
                    // start when the backward window opens; a serialized
                    // protocol waits for completion.
                    let ready_at = if protocol.overlaps_compute() {
                        done_at.saturating_sub(backward_window(done_at))
                    } else {
                        done_at
                    };
                    add(Kind::Npu(NpuNode {
                        rank,
                        ready_at,
                        done_at,
                    }));
                }
                // The replica keeps the full-size gradient and weight
                // buffers.
                let ring = RingAllReduce::new(n as u32, interconnect);
                (
                    ring.hops(protocol, schedule.grad_bytes),
                    ring.broadcast(protocol, schedule.weight_bytes),
                )
            }
            Parallelism::Pipeline { microbatches } => {
                // Split the layer list into n contiguous stages and price
                // each stage's compute with the same NPU engine the
                // analytic path uses.
                let layers = &schedule.npu_layers;
                let chunk = layers.len().div_ceil(n).max(1);
                let bound = |s: usize| (s * chunk).min(layers.len());
                for s in 0..n {
                    let slice = &layers[bound(s)..bound(s + 1)];
                    let work = if slice.is_empty() {
                        Time::ZERO
                    } else {
                        let mut sub = schedule.clone();
                        sub.npu_layers = slice.to_vec();
                        self.sys.npu_time(&sub)
                    };
                    // Boundary activations — the last layer's output
                    // (64-byte floor, matching schedule scaling), split
                    // across the microbatches — cross the NPU fabric
                    // point to point under the mode's protocol.
                    let acts = if s + 1 < n {
                        let bytes = slice.last().map_or(64, |l| l.out_bytes).max(64);
                        let act = protocol
                            .transfer(interconnect.link(), bytes.div_ceil(u64::from(microbatches)));
                        vec![Transfer::new(act); microbatches as usize]
                    } else {
                        Vec::new()
                    };
                    add(Kind::Stage(StageNode::new(
                        s,
                        straggle(s, work),
                        microbatches,
                        acts,
                    )));
                }
                // No collective: layer shards are disjoint, so gradients
                // stream straight to the CPU. No ring re-broadcast either:
                // each stage receives only its own shard over the CPU
                // link.
                (Vec::new(), TransferBreakdown::default())
            }
        };

        // The shared tail, in `Graph`'s id order.
        let comm = self.sys.comm_costs(schedule);
        add(Kind::Ring(RingNode {
            hops: hops.into_iter().map(Transfer::new).collect(),
            waiting: n as u32,
        }));
        add(Kind::GradLink(Transfer::new(comm.grad)));
        add(Kind::Cpu(CpuNode {
            duration: cpu,
            waiting_npu: n as u32,
            grad_arrived: false,
            done_at: Time::MAX,
            overlaps: protocol.overlaps_compute(),
        }));
        add(Kind::Weight(WeightNode {
            link: Transfer::new(comm.weight),
            broadcast,
            pending: 2,
        }));
        add(Kind::Finish { pending: 2 });

        sched.set_probe(self.probe.clone());
        sched.run();
        let events = sched.events_processed();
        let ledger = graph.ledger.borrow();
        assert!(ledger.finished, "step did not run to completion");
        let fabric = graph.fabric.borrow();

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
