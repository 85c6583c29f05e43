//! Cross-engine differential fuzzer and invariant audit.
//!
//! The repo's correctness story rests on one claim: the event engine, the
//! sharded parallel engine, the lockstep executor, the frozen classic
//! engine and the unit-delay reference all agree — bit-identically on state,
//! sensibly on time — for *every* scenario the lowering accepts, not just
//! the handful the unit tests pick. This module turns that claim into a
//! machine-checkable property:
//!
//! 1. [`gen_spec`] samples an arbitrary [`ScenarioSpec`] (guest topology
//!    and program, host graph and delay model, assignment shape, compute
//!    costs, multicast, memory budget, fault schedule, link-delay jitter)
//!    from a seeded deterministic PRNG;
//! 2. [`check_spec`] lowers the scenario **once** into an
//!    [`ExecPlan`] and drives every engine the
//!    scenario is legal for through it, auditing the invariant catalogue
//!    below;
//! 3. on a failure, [`shrink`] greedily simplifies the spec (drop faults,
//!    clear costs, drop jitter, flatten delays, halve the guest/host) while the
//!    failure persists — fault- and cost-only simplifications reuse one
//!    lowering via [`ExecPlan::apply_delta`] — and
//!    [`Divergence::repro_test`] prints the minimal scenario as a
//!    paste-able regression test.
//!
//! # Invariant catalogue
//!
//! * **State agreement** — every engine's surviving copies match the
//!   reference trace ([`validate_run`]); event vs lockstep agree on
//!   `(value_fold, db_digest, update_fold)` per `(cell, proc)`.
//! * **Classic oracle** — on fault-free scenarios the classic engine
//!   supports (no task graphs, no memory budget), the event engine equals
//!   the frozen seed engine ([`run_classic`]) bit-for-bit, message counts
//!   included.
//! * **Plan reuse** — running the event engine twice off one `ExecPlan`
//!   is bit-identical (`RunOutcome` equality).
//! * **Sharding is free** — the sharded conservative-parallel engine
//!   ([`run_sharded_with`]) equals the event engine bit-for-bit at every
//!   thread count and under both partition heuristics, on every legal
//!   scenario — faults, multicast, jitter, and costs included.
//! * **Tracing is free** — a traced run equals the untraced run once the
//!   stall report is stripped, and its stall breakdown conserves ticks:
//!   `totals.total() == makespan × surviving copies`.
//! * **Causality** — with `record_timing`, per-copy completion ticks
//!   strictly increase and row `t` never completes before row `t-1`
//!   ([`audit_causality`]).
//! * **Accounting** — `guest_work = cells × steps`; fault-free runs
//!   compute exactly `copies × steps` pebbles and report zeroed
//!   [`FaultStats`]; every derived ratio
//!   (slowdown, efficiency, work overhead, mean link pebbles) is finite.
//! * **Time ordering** — the greedy event engine never loses to the
//!   lockstep bound on the same plan (jitter-free scenarios only: the
//!   lockstep bound is computed from the base delays).

use crate::assignment::Assignment;
use crate::engine::{Engine, EngineConfig, Jitter, MemBudget, RunOutcome};
use crate::engine_classic::run_classic;
use crate::faults::FaultPlan;
use crate::lockstep::run_lockstep;
use crate::plan::{ExecPlan, PlanDelta};
use crate::sharded::{run_sharded_with, Partition};
use crate::stats::FaultStats;
use crate::trace::TraceConfig;
use crate::validate::{audit_causality, validate_run};
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun, TaskGraph};
use overlap_net::topology;
use overlap_net::{DelayModel, HostGraph, NodeId};

// ---------------------------------------------------------------------------
// deterministic PRNG (splitmix64 — same generator the fault module uses)
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `n` must be non-zero.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform draw in `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

// ---------------------------------------------------------------------------
// scenario specification (plain data, shrinkable, printable)
// ---------------------------------------------------------------------------

/// Guest topology of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestKind {
    /// Line of `m` cells.
    Line(u32),
    /// Ring of `m ≥ 3` cells.
    Ring(u32),
    /// `w × h` mesh.
    Mesh(u32, u32),
    /// Complete binary tree of `levels ≥ 1`.
    Tree(u32),
    /// Seeded random layered DAG over `dbs` lanes: each task reads its
    /// own lane plus up to `extra` others at the previous layer with
    /// costs in `1..=max_cost` ([`TaskGraph::layered_random`]); the
    /// spec's `steps` is the layer count. Non-uniform whenever `extra`
    /// or `max_cost` exceed the trivial values, exercising the dynamic
    /// per-`(cell, step)` lowering.
    DagRandom {
        /// Lane (database) count.
        dbs: u32,
        /// Extra cross-lane dependencies per task.
        extra: u32,
        /// Upper bound on per-task compute cost.
        max_cost: u32,
        /// Graph-shape seed.
        seed: u64,
    },
    /// Wavefront (systolic) sweep over `lanes` lanes
    /// ([`TaskGraph::wavefront`]) — an asymmetric stencil no grid
    /// topology expresses, yet uniform (static lowering); the spec's
    /// `steps` is the layer count.
    Wavefront(u32),
    /// Fork-join diamond of `levels` ([`TaskGraph::fork_join`]): relays
    /// off the active frontier make it non-uniform. Its layer count is
    /// fixed at `2·levels − 1`, overriding the spec's `steps`.
    ForkJoin(u32),
}

impl GuestKind {
    /// Number of guest cells this kind produces.
    pub fn num_cells(self) -> u32 {
        match self {
            GuestKind::Line(m) | GuestKind::Ring(m) => m,
            GuestKind::Mesh(w, h) => w * h,
            GuestKind::Tree(levels) => (1u32 << levels) - 1,
            GuestKind::DagRandom { dbs, .. } => dbs,
            GuestKind::Wavefront(lanes) => lanes,
            GuestKind::ForkJoin(levels) => 1u32 << (levels - 1),
        }
    }
}

/// Host topology of a scenario (delays come from the spec's
/// [`DelayModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostKind {
    /// Linear array of `n` processors.
    Line(u32),
    /// Ring of `n ≥ 3` processors.
    Ring(u32),
    /// `w × h` mesh.
    Mesh(u32, u32),
    /// Complete binary tree of `levels ≥ 2`.
    Tree(u32),
}

impl HostKind {
    /// Number of processors this kind produces.
    pub fn num_procs(self) -> u32 {
        match self {
            HostKind::Line(n) | HostKind::Ring(n) => n,
            HostKind::Mesh(w, h) => w * h,
            HostKind::Tree(levels) => (1u32 << levels) - 1,
        }
    }
}

/// Database-assignment shape of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignKind {
    /// Contiguous blocks, one copy per cell ([`Assignment::blocked`]).
    Blocked,
    /// Every database on processor 0 ([`Assignment::all_on_one`]).
    AllOnOne,
    /// Every cell on exactly two distinct random processors — the only
    /// shape under which the generator schedules crashes (one crash is
    /// always survivable).
    Redundant {
        /// Placement seed.
        seed: u64,
    },
}

/// One scheduled fault (plain-data mirror of the [`FaultPlan`] builders,
/// so the shrinker can drop entries one at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Link `(a, b)` down over `[from, until)`.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// First dead tick.
        from: u64,
        /// First live tick again.
        until: u64,
    },
    /// Link `(a, b)` delays multiplied by `factor` over `[from, until)`.
    Spike {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// First slowed tick.
        from: u64,
        /// First normal tick again.
        until: u64,
        /// Delay multiplier.
        factor: u32,
    },
    /// Processor `proc` dies at tick `at`.
    Crash {
        /// The victim.
        proc: NodeId,
        /// Crash tick.
        at: u64,
    },
}

/// A complete, self-contained scenario description. Everything an engine
/// run depends on is spelled out here, so a spec can be regenerated,
/// shrunk, printed, and replayed across sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Guest topology.
    pub guest: GuestKind,
    /// Guest program.
    pub program: ProgramKind,
    /// Guest steps (0 is legal: the degenerate empty run).
    pub steps: u32,
    /// Guest init seed.
    pub guest_seed: u64,
    /// Host topology.
    pub host: HostKind,
    /// Link-delay distribution.
    pub delays: DelayModel,
    /// Host delay-sampling seed.
    pub host_seed: u64,
    /// Assignment shape.
    pub assign: AssignKind,
    /// Per-processor compute costs (ticks per pebble), if any.
    pub costs: Option<Vec<u32>>,
    /// Lower the plan for multicast trees instead of unicast routes.
    pub multicast: bool,
    /// Per-processor memory budget on database copies (red–blue pebbling
    /// mode; event and sharded engines only).
    pub mem: Option<MemBudget>,
    /// Scheduled faults.
    pub faults: Vec<FaultSpec>,
    /// Time-varying link-delay jitter.
    pub jitter: Jitter,
}

impl ScenarioSpec {
    /// The engine configuration this spec describes (timing is always
    /// recorded, for the causality audit).
    pub fn config(&self) -> EngineConfig {
        EngineConfig {
            multicast: self.multicast,
            record_timing: true,
            mem: self.mem,
            jitter: self.jitter,
            ..EngineConfig::default()
        }
    }

    /// Build the guest this spec describes.
    pub fn build_guest(&self) -> GuestSpec {
        let (p, s, t) = (self.program, self.guest_seed, self.steps);
        match self.guest {
            GuestKind::Line(m) => GuestSpec::array(m, p, s, t),
            GuestKind::Ring(m) => GuestSpec::ring(m, p, s, t),
            GuestKind::Mesh(w, h) => GuestSpec::mesh(w, h, p, s, t),
            GuestKind::Tree(levels) => GuestSpec::tree(levels, p, s, t),
            GuestKind::DagRandom {
                dbs,
                extra,
                max_cost,
                seed,
            } => GuestSpec::dag(
                TaskGraph::layered_random(dbs, t, extra, max_cost, seed),
                p,
                s,
            ),
            GuestKind::Wavefront(lanes) => GuestSpec::dag(TaskGraph::wavefront(lanes, t), p, s),
            GuestKind::ForkJoin(levels) => GuestSpec::dag(TaskGraph::fork_join(levels), p, s),
        }
    }

    /// Build the host this spec describes.
    pub fn build_host(&self) -> HostGraph {
        let (d, s) = (self.delays, self.host_seed);
        match self.host {
            HostKind::Line(n) => topology::linear_array(n, d, s),
            HostKind::Ring(n) => topology::ring(n, d, s),
            HostKind::Mesh(w, h) => topology::mesh2d(w, h, d, s),
            HostKind::Tree(levels) => topology::binary_tree(levels, d, s),
        }
    }

    /// Build the assignment this spec describes.
    pub fn build_assignment(&self) -> Assignment {
        let procs = self.host.num_procs();
        let cells = self.guest.num_cells();
        match self.assign {
            AssignKind::Blocked => Assignment::blocked(procs, cells),
            AssignKind::AllOnOne => Assignment::all_on_one(procs, cells),
            AssignKind::Redundant { seed } => {
                let mut rng = Rng::new(seed);
                let holders = (0..cells)
                    .map(|_| {
                        let first = rng.below(procs as u64) as NodeId;
                        let second = (first + 1 + rng.below(procs as u64 - 1) as NodeId) % procs;
                        vec![first, second]
                    })
                    .collect();
                Assignment::from_holders(procs, cells, holders)
            }
        }
    }

    /// Build the fault plan this spec describes.
    pub fn build_faults(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for f in &self.faults {
            plan = match *f {
                FaultSpec::LinkDown { a, b, from, until } => plan.link_down(a, b, from, until),
                FaultSpec::Spike {
                    a,
                    b,
                    from,
                    until,
                    factor,
                } => plan.delay_spike(a, b, from, until, factor),
                FaultSpec::Crash { proc, at } => plan.crash(proc, at),
            };
        }
        plan
    }

    /// Render the spec as a Rust expression that reconstructs it — the
    /// payload of a paste-able regression test.
    pub fn to_code(&self) -> String {
        let guest = match self.guest {
            GuestKind::Line(m) => format!("GuestKind::Line({m})"),
            GuestKind::Ring(m) => format!("GuestKind::Ring({m})"),
            GuestKind::Mesh(w, h) => format!("GuestKind::Mesh({w}, {h})"),
            GuestKind::Tree(l) => format!("GuestKind::Tree({l})"),
            GuestKind::DagRandom {
                dbs,
                extra,
                max_cost,
                seed,
            } => format!(
                "GuestKind::DagRandom {{ dbs: {dbs}, extra: {extra}, \
                 max_cost: {max_cost}, seed: {seed} }}"
            ),
            GuestKind::Wavefront(l) => format!("GuestKind::Wavefront({l})"),
            GuestKind::ForkJoin(l) => format!("GuestKind::ForkJoin({l})"),
        };
        let program = match self.program {
            ProgramKind::StencilSum => "ProgramKind::StencilSum".into(),
            ProgramKind::RuleAutomaton { db_size } => {
                format!("ProgramKind::RuleAutomaton {{ db_size: {db_size} }}")
            }
            ProgramKind::KvWorkload => "ProgramKind::KvWorkload".into(),
            ProgramKind::Relaxation => "ProgramKind::Relaxation".into(),
            ProgramKind::Histogram { buckets } => {
                format!("ProgramKind::Histogram {{ buckets: {buckets} }}")
            }
            ProgramKind::CacheChurn => "ProgramKind::CacheChurn".into(),
        };
        let host = match self.host {
            HostKind::Line(n) => format!("HostKind::Line({n})"),
            HostKind::Ring(n) => format!("HostKind::Ring({n})"),
            HostKind::Mesh(w, h) => format!("HostKind::Mesh({w}, {h})"),
            HostKind::Tree(l) => format!("HostKind::Tree({l})"),
        };
        let delays = match self.delays {
            DelayModel::Constant(d) => format!("DelayModel::Constant({d})"),
            DelayModel::Uniform { lo, hi } => {
                format!("DelayModel::Uniform {{ lo: {lo}, hi: {hi} }}")
            }
            DelayModel::Bimodal { lo, hi, p_hi } => {
                format!("DelayModel::Bimodal {{ lo: {lo}, hi: {hi}, p_hi: {p_hi:?} }}")
            }
            DelayModel::HeavyTail { min, alpha, cap } => {
                format!("DelayModel::HeavyTail {{ min: {min}, alpha: {alpha:?}, cap: {cap} }}")
            }
            DelayModel::Spike {
                base,
                spike,
                period,
            } => format!("DelayModel::Spike {{ base: {base}, spike: {spike}, period: {period} }}"),
        };
        let assign = match self.assign {
            AssignKind::Blocked => "AssignKind::Blocked".into(),
            AssignKind::AllOnOne => "AssignKind::AllOnOne".into(),
            AssignKind::Redundant { seed } => {
                format!("AssignKind::Redundant {{ seed: {seed} }}")
            }
        };
        let costs = match &self.costs {
            None => "None".into(),
            Some(v) => format!("Some(vec!{v:?})"),
        };
        let mem = match self.mem {
            None => "None".into(),
            Some(m) => format!(
                "Some(MemBudget {{ budget: {}, reload_cost: {} }})",
                m.budget, m.reload_cost
            ),
        };
        let faults = if self.faults.is_empty() {
            "vec![]".into()
        } else {
            let items: Vec<String> = self
                .faults
                .iter()
                .map(|f| match *f {
                    FaultSpec::LinkDown { a, b, from, until } => format!(
                        "FaultSpec::LinkDown {{ a: {a}, b: {b}, from: {from}, until: {until} }}"
                    ),
                    FaultSpec::Spike {
                        a,
                        b,
                        from,
                        until,
                        factor,
                    } => format!(
                        "FaultSpec::Spike {{ a: {a}, b: {b}, from: {from}, \
                         until: {until}, factor: {factor} }}"
                    ),
                    FaultSpec::Crash { proc, at } => {
                        format!("FaultSpec::Crash {{ proc: {proc}, at: {at} }}")
                    }
                })
                .collect();
            format!("vec![{}]", items.join(", "))
        };
        let jitter = match self.jitter {
            Jitter::None => "Jitter::None".into(),
            Jitter::Periodic {
                amplitude_pct,
                period,
            } => format!("Jitter::Periodic {{ amplitude_pct: {amplitude_pct}, period: {period} }}"),
        };
        format!(
            "ScenarioSpec {{\n        guest: {guest},\n        program: {program},\n        \
             steps: {steps},\n        guest_seed: {gseed},\n        host: {host},\n        \
             delays: {delays},\n        host_seed: {hseed},\n        assign: {assign},\n        \
             costs: {costs},\n        multicast: {multicast},\n        mem: {mem},\n        \
             faults: {faults},\n        jitter: {jitter},\n    }}",
            steps = self.steps,
            gseed = self.guest_seed,
            hseed = self.host_seed,
            multicast = self.multicast,
        )
    }
}

// ---------------------------------------------------------------------------
// generation
// ---------------------------------------------------------------------------

/// Deterministically sample the `case`-th scenario of fuzzing run `seed`.
/// The same `(seed, case)` always yields the same spec, so any reported
/// case number can be replayed exactly.
pub fn gen_spec(seed: u64, case: u64) -> ScenarioSpec {
    let mut rng = Rng::new(seed ^ case.wrapping_mul(0xd1b54a32d192ed03));

    let host = match rng.below(4) {
        0 => HostKind::Line(rng.range(2, 9) as u32),
        1 => HostKind::Ring(rng.range(3, 9) as u32),
        2 => HostKind::Mesh(rng.range(2, 3) as u32, rng.range(2, 3) as u32),
        _ => HostKind::Tree(rng.range(2, 3) as u32),
    };
    let procs = host.num_procs();

    let guest = match rng.below(6) {
        0 => GuestKind::Line(rng.range(2, 24) as u32),
        1 => GuestKind::Ring(rng.range(3, 24) as u32),
        2 => GuestKind::Mesh(rng.range(2, 5) as u32, rng.range(2, 5) as u32),
        3 => GuestKind::Tree(rng.range(2, 4) as u32),
        4 => GuestKind::DagRandom {
            dbs: rng.range(2, 16) as u32,
            extra: rng.range(0, 2) as u32,
            max_cost: rng.range(1, 3) as u32,
            seed: rng.next(),
        },
        _ => {
            if rng.chance(1, 2) {
                GuestKind::Wavefront(rng.range(2, 16) as u32)
            } else {
                GuestKind::ForkJoin(rng.range(2, 4) as u32)
            }
        }
    };

    // Zero-step guests are legal and historically under-tested; keep them
    // in the mix but rare.
    let steps = if rng.chance(1, 16) {
        0
    } else {
        rng.range(1, 12) as u32
    };

    let assign = match rng.below(8) {
        0 => AssignKind::AllOnOne,
        1..=3 => AssignKind::Redundant { seed: rng.next() },
        _ => AssignKind::Blocked,
    };

    let costs = if rng.chance(1, 4) {
        Some((0..procs).map(|_| rng.range(1, 4) as u32).collect())
    } else {
        None
    };

    let multicast = rng.chance(1, 8);

    // Small budgets relative to the blocked copies-per-processor load, so
    // real eviction churn is common.
    let mem = if rng.chance(1, 5) {
        Some(MemBudget {
            budget: rng.range(1, 5) as u32,
            reload_cost: rng.range(1, 5) as u32,
        })
    } else {
        None
    };

    let mut faults = Vec::new();
    if steps > 0 && rng.chance(1, 3) {
        // Crashes only under the guaranteed-redundant assignment, where a
        // single crash is always survivable; link faults on any shape.
        // A spec is materialized below just to enumerate real links.
        let spec_so_far = ScenarioSpec {
            guest,
            program: ProgramKind::StencilSum,
            steps,
            guest_seed: 0,
            host,
            delays: DelayModel::Constant(1),
            host_seed: 0,
            assign,
            costs: None,
            multicast,
            mem: None,
            faults: vec![],
            jitter: Jitter::None,
        };
        let links = spec_so_far.build_host().links().to_vec();
        for _ in 0..rng.range(1, 2) {
            match rng.below(3) {
                0 if matches!(assign, AssignKind::Redundant { .. })
                    && !faults.iter().any(|f| matches!(f, FaultSpec::Crash { .. })) =>
                {
                    faults.push(FaultSpec::Crash {
                        proc: rng.below(procs as u64) as NodeId,
                        at: rng.range(1, steps as u64 * 4),
                    });
                }
                1 => {
                    let l = links[rng.below(links.len() as u64) as usize];
                    let from = rng.range(0, 30);
                    faults.push(FaultSpec::LinkDown {
                        a: l.a,
                        b: l.b,
                        from,
                        until: from + rng.range(1, 40),
                    });
                }
                _ => {
                    let l = links[rng.below(links.len() as u64) as usize];
                    let from = rng.range(0, 30);
                    faults.push(FaultSpec::Spike {
                        a: l.a,
                        b: l.b,
                        from,
                        until: from + rng.range(1, 40),
                        factor: rng.range(2, 8) as u32,
                    });
                }
            }
        }
    }

    ScenarioSpec {
        guest,
        program: ProgramKind::arbitrary(rng.next()),
        steps,
        guest_seed: rng.below(1 << 20),
        host,
        delays: DelayModel::arbitrary(rng.next()),
        host_seed: rng.below(1 << 20),
        assign,
        costs,
        multicast,
        mem,
        faults,
        // Drawn after every other field, so each case's other fields are
        // the same as before jitter joined the stream.
        jitter: if rng.chance(1, 6) {
            Jitter::Periodic {
                amplitude_pct: rng.range(1, 100) as u8,
                period: rng.range(1, 32) as u32,
            }
        } else {
            Jitter::None
        },
    }
}

/// The DAG-focused scenario stream (`overlap-cli fuzz --dag`, the CI
/// smoke profile): every scenario runs a task-graph guest, and half the
/// budget-free draws gain a memory budget. Scenarios whose mixed-stream
/// draw already picked a DAG kind pass through unchanged, so the stream
/// stays replayable by `(seed, case)` exactly like [`gen_spec`].
pub fn gen_spec_dag(seed: u64, case: u64) -> ScenarioSpec {
    let mut spec = gen_spec(seed, case);
    let mut rng = Rng::new(seed ^ case.wrapping_mul(0xa0761d6478bd642f));
    spec.guest = match spec.guest {
        g @ (GuestKind::DagRandom { .. } | GuestKind::Wavefront(_) | GuestKind::ForkJoin(_)) => g,
        g => match rng.below(3) {
            0 => GuestKind::DagRandom {
                dbs: g.num_cells().max(2),
                extra: rng.range(0, 2) as u32,
                max_cost: rng.range(1, 3) as u32,
                seed: rng.next(),
            },
            1 => GuestKind::Wavefront(g.num_cells().max(2)),
            _ => GuestKind::ForkJoin(rng.range(2, 4) as u32),
        },
    };
    if spec.mem.is_none() && rng.chance(1, 2) {
        spec.mem = Some(MemBudget {
            budget: rng.range(1, 4) as u32,
            reload_cost: rng.range(1, 6) as u32,
        });
    }
    spec
}

// ---------------------------------------------------------------------------
// checking
// ---------------------------------------------------------------------------

fn finite(label: &str, x: f64, problems: &mut Vec<String>) {
    if !x.is_finite() {
        problems.push(format!("{label} is not finite: {x}"));
    }
}

/// Invariants every engine's outcome must satisfy on its own.
fn audit_outcome(
    label: &str,
    spec: &ScenarioSpec,
    guest: &GuestSpec,
    assign: &Assignment,
    out: &RunOutcome,
    problems: &mut Vec<String>,
) {
    let s = &out.stats;
    if s.guest_work != guest.total_work() {
        problems.push(format!(
            "{label}: guest_work {} != cells × steps {}",
            s.guest_work,
            guest.total_work()
        ));
    }
    // Crashed copies may have computed pebbles before dying, so the bound
    // is the assignment's full copy set, not just the survivors. Steps
    // come from the built guest: DAG kinds may fix their own layer count.
    let steps = guest.steps;
    if s.total_compute > assign.total_copies() as u64 * steps as u64 {
        problems.push(format!(
            "{label}: total_compute {} exceeds total copies × steps {}",
            s.total_compute,
            assign.total_copies() as u64 * steps as u64
        ));
    }
    // The surviving set is a function of the fault plan alone: no copy of
    // a crashed processor may appear, and every planned crash of a
    // distinct live processor counts exactly once.
    let crashed: std::collections::BTreeSet<NodeId> = spec
        .faults
        .iter()
        .filter_map(|f| match f {
            FaultSpec::Crash { proc, .. } => Some(*proc),
            _ => None,
        })
        .collect();
    if let Some(c) = out.copies.iter().find(|c| crashed.contains(&c.proc)) {
        problems.push(format!(
            "{label}: copy (cell {}, proc {}) survived a planned crash",
            c.cell, c.proc
        ));
    }
    if s.faults.crashed_procs as usize != crashed.len() {
        problems.push(format!(
            "{label}: crashed_procs {} != {} planned crash victims",
            s.faults.crashed_procs,
            crashed.len()
        ));
    }
    if spec.faults.is_empty() {
        if s.total_compute != out.copies.len() as u64 * steps as u64 {
            problems.push(format!(
                "{label}: fault-free total_compute {} != copies × steps {}",
                s.total_compute,
                out.copies.len() as u64 * steps as u64
            ));
        }
        if s.faults != FaultStats::default() {
            problems.push(format!(
                "{label}: fault-free run reports fault work: {:?}",
                s.faults
            ));
        }
    }
    if steps == 0 && s.makespan != 0 {
        problems.push(format!(
            "{label}: zero-step run has makespan {}",
            s.makespan
        ));
    }
    // Memory-budget accounting: no budget ⇒ no churn; with one, every
    // eviction is matched by a reload priced at exactly `reload_cost`.
    match spec.mem {
        None => {
            if s.mem != crate::stats::MemStats::default() {
                problems.push(format!(
                    "{label}: budget-free run reports memory churn: {:?}",
                    s.mem
                ));
            }
        }
        Some(m) => {
            if s.mem.evictions != s.mem.reloads {
                problems.push(format!(
                    "{label}: evictions {} != reloads {}",
                    s.mem.evictions, s.mem.reloads
                ));
            }
            if s.mem.reload_ticks != s.mem.reloads * m.reload_cost as u64 {
                problems.push(format!(
                    "{label}: reload_ticks {} != reloads {} × cost {}",
                    s.mem.reload_ticks, s.mem.reloads, m.reload_cost
                ));
            }
        }
    }
    finite(&format!("{label}: slowdown"), s.slowdown, problems);
    finite(&format!("{label}: efficiency"), s.efficiency(), problems);
    finite(
        &format!("{label}: work_overhead"),
        s.work_overhead(),
        problems,
    );
    finite(
        &format!("{label}: mean_link_pebbles"),
        s.mean_link_pebbles,
        problems,
    );
    finite(&format!("{label}: redundancy"), s.redundancy, problems);
}

/// Copy-state agreement between two engines' outcomes (completion times
/// legitimately differ; folds and digests must not).
fn audit_same_state(label: &str, a: &RunOutcome, b: &RunOutcome, problems: &mut Vec<String>) {
    let mut xs = a.copies.clone();
    let mut ys = b.copies.clone();
    xs.sort_by_key(|c| (c.cell, c.proc));
    ys.sort_by_key(|c| (c.cell, c.proc));
    if xs.len() != ys.len() {
        problems.push(format!("{label}: copy count {} vs {}", xs.len(), ys.len()));
        return;
    }
    for (x, y) in xs.iter().zip(&ys) {
        if (x.cell, x.proc) != (y.cell, y.proc) {
            problems.push(format!(
                "{label}: copy sets differ ({},{}) vs ({},{})",
                x.cell, x.proc, y.cell, y.proc
            ));
            return;
        }
        if (x.value_fold, x.db_digest, x.update_fold) != (y.value_fold, y.db_digest, y.update_fold)
        {
            problems.push(format!(
                "{label}: state of copy (cell {}, proc {}) differs: \
                 ({:#x},{:#x},{:#x}) vs ({:#x},{:#x},{:#x})",
                x.cell,
                x.proc,
                x.value_fold,
                x.db_digest,
                x.update_fold,
                y.value_fold,
                y.db_digest,
                y.update_fold
            ));
            return;
        }
    }
}

/// Lower the scenario once and drive every engine it is legal for through
/// the shared plan, auditing the full invariant catalogue. `Ok(())` means
/// no divergence; `Err` carries a human-readable list of everything that
/// broke.
pub fn check_spec(spec: &ScenarioSpec) -> Result<(), String> {
    let guest = spec.build_guest();
    let host = spec.build_host();
    let assign = spec.build_assignment();

    // One lowering feeds everything below.
    let mut plan = match ExecPlan::build(&guest, &host, &assign, spec.config()) {
        Ok(p) => p,
        Err(e) => return Err(format!("plan lowering failed: {e}")),
    };
    if let Some(costs) = &spec.costs {
        plan = plan.with_compute_costs(costs.clone());
    }
    if !spec.faults.is_empty() {
        plan = match plan.with_faults(spec.build_faults()) {
            Ok(p) => p,
            Err(e) => return Err(format!("fault plan rejected: {e}")),
        };
    }
    check_plan(spec, &plan)
}

/// Drive every engine an already-lowered plan is legal for, auditing the
/// full invariant catalogue — the body of [`check_spec`], factored out so
/// the shrinker can re-check fault- and cost-only candidates through
/// [`ExecPlan::apply_delta`] on a shared plan instead of re-lowering per
/// candidate. `spec` must describe the plan (it is consulted for audit
/// expectations and engine legality).
pub fn check_plan(spec: &ScenarioSpec, plan: &ExecPlan) -> Result<(), String> {
    let guest = plan.guest();
    let assign = plan.assignment();
    let mut problems: Vec<String> = Vec::new();

    let reference = ReferenceRun::execute(guest);

    // Event engine: the ground truth the others are compared against.
    let ev = match Engine::from_plan(plan).run() {
        Ok(out) => out,
        Err(e) => return Err(format!("event engine failed: {e}")),
    };
    for err in validate_run(&reference, &ev) {
        problems.push(format!("event vs reference: {err:?}"));
    }
    audit_outcome("event", spec, guest, assign, &ev, &mut problems);
    for p in audit_causality(&ev) {
        problems.push(format!("event causality: {p}"));
    }

    // Plan reuse: a second run off the same plan is bit-identical.
    match Engine::from_plan(plan).run() {
        Ok(again) if again != ev => {
            problems.push("rerun from the same plan diverged (plan reuse broken)".into());
        }
        Ok(_) => {}
        Err(e) => problems.push(format!("rerun from the same plan failed: {e}")),
    }

    // Traced run: identical modulo the stall report, which must conserve
    // every tick of every surviving copy. The tracer's conservation law
    // assumes uniform per-processor pebble costs, so memory budgets and
    // non-uniform task graphs are out of scope (rejected at build()).
    let traceable = spec.mem.is_none() && guest.is_static() && !guest.has_nonunit_task_costs();
    if traceable {
        match Engine::from_plan(plan).run_traced(TraceConfig::default()) {
            Ok(traced) => {
                let report = traced.trace.clone().expect("tracing was enabled");
                if report.totals.total() != traced.stats.makespan * traced.copies.len() as u64 {
                    problems.push(format!(
                        "stall conservation broken: totals {} != makespan {} × copies {}",
                        report.totals.total(),
                        traced.stats.makespan,
                        traced.copies.len()
                    ));
                }
                for (i, b) in report.per_copy.iter().enumerate() {
                    if b.total() != traced.stats.makespan {
                        problems.push(format!(
                            "copy {i} stall breakdown leaks ticks: {} != makespan {}",
                            b.total(),
                            traced.stats.makespan
                        ));
                        break;
                    }
                }
                let mut stripped = traced;
                stripped.trace = None;
                stripped.stats.stalls = None;
                if stripped != ev {
                    problems.push("traced run differs from untraced run".into());
                }
            }
            Err(e) => problems.push(format!("traced event run failed: {e}")),
        }
    }

    // Sharded engine: legal for every scenario; must be bit-identical to
    // the event engine on the full RunOutcome, peak_queue_depth included.
    for (threads, how) in [
        (1, Partition::DelayCut),
        (3, Partition::DelayCut),
        (3, Partition::RoundRobin),
    ] {
        match run_sharded_with(plan, threads, how) {
            Ok(sh) => {
                if sh != ev {
                    problems.push(format!(
                        "sharded({threads}, {how:?}) diverged from the event engine"
                    ));
                }
            }
            Err(e) => problems.push(format!(
                "sharded({threads}, {how:?}) failed where the event engine succeeded: {e}"
            )),
        }
    }

    // Classic oracle: the frozen seed engine has no fault, task-graph or
    // memory-budget support; everywhere else the event engine must equal
    // it bit-for-bit, message count included.
    if spec.faults.is_empty() && spec.mem.is_none() && guest.graph.is_none() {
        let config = plan.config();
        match run_classic(guest, plan.host(), assign, config, plan.compute_costs()) {
            Ok(cl) if cl != ev => problems.push(format!(
                "event engine diverged from the classic oracle (messages: event {} vs classic {})",
                ev.stats.messages, cl.stats.messages
            )),
            Ok(_) => {}
            Err(e) => problems.push(format!("classic engine failed: {e}")),
        }
    }

    // Lockstep: legal without faults, costs, multicast, memory budgets,
    // and non-unit task costs (its closed-form makespan assumes unit-cost
    // pebbles on always-resident copies).
    if !spec.multicast
        && spec.faults.is_empty()
        && spec.costs.is_none()
        && spec.mem.is_none()
        && !guest.has_nonunit_task_costs()
    {
        match run_lockstep(plan) {
            Ok(lk) => {
                for err in validate_run(&reference, &lk) {
                    problems.push(format!("lockstep vs reference: {err:?}"));
                }
                audit_same_state("event vs lockstep", &ev, &lk, &mut problems);
                // The lockstep makespan is a closed form over the base
                // delays; jitter stretches some of the event engine's
                // transfers beyond them, so the bound only holds without
                // jitter.
                if spec.jitter == Jitter::None && ev.stats.makespan > lk.stats.makespan {
                    problems.push(format!(
                        "greedy event makespan {} lost to lockstep bound {}",
                        ev.stats.makespan, lk.stats.makespan
                    ));
                }
            }
            Err(e) => problems.push(format!("lockstep engine failed: {e}")),
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n  "))
    }
}

// ---------------------------------------------------------------------------
// shrinking
// ---------------------------------------------------------------------------

/// Candidate one-step simplifications of `spec`, most aggressive first.
/// Each candidate is self-consistent: mutations that could invalidate
/// faults (smaller host, non-redundant assignment) drop the faults too.
fn candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    let mut push = |s: ScenarioSpec| {
        if s != *spec {
            out.push(s);
        }
    };

    if !spec.faults.is_empty() {
        push(ScenarioSpec {
            faults: vec![],
            ..spec.clone()
        });
        for i in 0..spec.faults.len() {
            let mut s = spec.clone();
            s.faults.remove(i);
            push(s);
        }
    }
    if spec.multicast {
        push(ScenarioSpec {
            multicast: false,
            ..spec.clone()
        });
    }
    if spec.costs.is_some() {
        push(ScenarioSpec {
            costs: None,
            ..spec.clone()
        });
    }
    if spec.mem.is_some() {
        push(ScenarioSpec {
            mem: None,
            ..spec.clone()
        });
    }
    if spec.jitter != Jitter::None {
        push(ScenarioSpec {
            jitter: Jitter::None,
            ..spec.clone()
        });
    }
    if spec.delays != DelayModel::Constant(1) {
        // Flattening delays keeps links valid, so faults can stay.
        push(ScenarioSpec {
            delays: DelayModel::Constant(1),
            ..spec.clone()
        });
    }
    if spec.steps > 1 {
        push(ScenarioSpec {
            steps: spec.steps / 2,
            ..spec.clone()
        });
        push(ScenarioSpec {
            steps: 1,
            ..spec.clone()
        });
    }
    // Smaller guest: halve the leading dimension.
    let smaller_guest = match spec.guest {
        GuestKind::Line(m) if m > 2 => Some(GuestKind::Line((m / 2).max(2))),
        GuestKind::Ring(m) if m > 3 => Some(GuestKind::Ring((m / 2).max(3))),
        GuestKind::Mesh(w, h) if w * h > 4 => Some(GuestKind::Mesh((w / 2).max(2), h.min(2))),
        GuestKind::Tree(l) if l > 2 => Some(GuestKind::Tree(l - 1)),
        GuestKind::DagRandom {
            dbs,
            extra,
            max_cost,
            seed,
        } if dbs > 2 => Some(GuestKind::DagRandom {
            dbs: (dbs / 2).max(2),
            extra,
            max_cost,
            seed,
        }),
        GuestKind::Wavefront(l) if l > 2 => Some(GuestKind::Wavefront((l / 2).max(2))),
        GuestKind::ForkJoin(l) if l > 2 => Some(GuestKind::ForkJoin(l - 1)),
        _ => None,
    };
    if let Some(g) = smaller_guest {
        push(ScenarioSpec {
            guest: g,
            ..spec.clone()
        });
    }
    // Simpler DAG shape: drop the cross-lane edges, then the costs — each
    // alone can already flip the graph back to the uniform fast path.
    if let GuestKind::DagRandom {
        dbs,
        extra,
        max_cost,
        seed,
    } = spec.guest
    {
        if extra > 0 {
            push(ScenarioSpec {
                guest: GuestKind::DagRandom {
                    dbs,
                    extra: 0,
                    max_cost,
                    seed,
                },
                ..spec.clone()
            });
        }
        if max_cost > 1 {
            push(ScenarioSpec {
                guest: GuestKind::DagRandom {
                    dbs,
                    extra,
                    max_cost: 1,
                    seed,
                },
                ..spec.clone()
            });
        }
    }
    if spec.guest != GuestKind::Line(4) {
        push(ScenarioSpec {
            guest: GuestKind::Line(4),
            ..spec.clone()
        });
    }
    // Smaller host: link faults may name vanished links, so drop faults.
    let smaller_host = match spec.host {
        HostKind::Line(n) if n > 2 => Some(HostKind::Line((n / 2).max(2))),
        HostKind::Ring(n) if n > 3 => Some(HostKind::Ring((n / 2).max(3))),
        HostKind::Mesh(..) | HostKind::Tree(..) => Some(HostKind::Line(2)),
        _ => None,
    };
    if let Some(h) = smaller_host {
        push(ScenarioSpec {
            host: h,
            faults: vec![],
            ..spec.clone()
        });
    }
    if spec.assign != AssignKind::Blocked {
        // Blocked is single-copy: crashes would legitimately lose columns.
        push(ScenarioSpec {
            assign: AssignKind::Blocked,
            faults: spec
                .faults
                .iter()
                .copied()
                .filter(|f| !matches!(f, FaultSpec::Crash { .. }))
                .collect(),
            ..spec.clone()
        });
    }
    out
}

/// If `cand` differs from `cur` **only** in its fault list or **only**
/// in its compute costs, the [`PlanDelta`] that turns `cur`'s lowered
/// plan into `cand`'s — such candidates share `cur`'s lowering.
fn fault_or_cost_delta(cur: &ScenarioSpec, cand: &ScenarioSpec) -> Option<PlanDelta> {
    let same_but_faults = ScenarioSpec {
        faults: cur.faults.clone(),
        ..cand.clone()
    } == *cur;
    if same_but_faults {
        return Some(PlanDelta::Faults(if cand.faults.is_empty() {
            None
        } else {
            Some(cand.build_faults())
        }));
    }
    let same_but_costs = ScenarioSpec {
        costs: cur.costs.clone(),
        ..cand.clone()
    } == *cur;
    if same_but_costs {
        return Some(PlanDelta::ComputeCosts(cand.costs.clone()));
    }
    None
}

/// Greedily shrink a failing spec: repeatedly adopt the first candidate
/// simplification that still fails, until none does. The result is the
/// minimal failing scenario this strategy can reach, together with its
/// failure detail.
///
/// Candidates that differ from the current spec only in faults or only
/// in compute costs are checked through [`ExecPlan::apply_delta`] on a
/// plan lowered once per round (the delta's inverse restores it), so the
/// most common shrink steps — dropping fault entries, clearing costs —
/// never re-lower. Everything else goes through [`check_spec`].
pub fn shrink(spec: &ScenarioSpec) -> (ScenarioSpec, String) {
    let mut cur = spec.clone();
    let mut detail = match check_spec(&cur) {
        Err(d) => d,
        Ok(()) => return (cur, String::new()),
    };
    // The candidate set is finite and strictly simplifying, so this
    // terminates; the iteration cap is a pure backstop.
    for _ in 0..200 {
        let mut improved = false;
        // One lowering per round serves every fault/cost-only candidate.
        let guest = cur.build_guest();
        let host = cur.build_host();
        let assign = cur.build_assignment();
        let mut base = ExecPlan::build(&guest, &host, &assign, cur.config())
            .ok()
            .map(|p| match &cur.costs {
                Some(c) => p.with_compute_costs(c.clone()),
                None => p,
            })
            .and_then(|p| {
                if cur.faults.is_empty() {
                    Some(p)
                } else {
                    p.with_faults(cur.build_faults()).ok()
                }
            });
        for cand in candidates(&cur) {
            let res = match (&mut base, fault_or_cost_delta(&cur, &cand)) {
                (Some(plan), Some(delta)) => match plan.apply_delta(delta) {
                    Ok(receipt) => {
                        let r = check_plan(&cand, plan);
                        plan.apply_delta(receipt.inverse)
                            .expect("inverse delta must apply");
                        r
                    }
                    Err(_) => check_spec(&cand),
                },
                _ => check_spec(&cand),
            };
            if let Err(d) = res {
                cur = cand;
                detail = d;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (cur, detail)
}

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

/// One confirmed cross-engine divergence, already shrunk.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The case number (replay with `gen_spec(seed, case)`).
    pub case: u64,
    /// The minimal failing scenario.
    pub spec: ScenarioSpec,
    /// What broke, one problem per line.
    pub detail: String,
}

impl Divergence {
    /// Render a paste-able regression test pinning this divergence.
    pub fn repro_test(&self, name: &str) -> String {
        format!(
            "#[test]\nfn {name}() {{\n    let spec = {};\n    \
             overlap::sim::fuzz::check_spec(&spec).expect(\"engines must agree\");\n}}\n",
            self.spec.to_code()
        )
    }
}

/// Fuzzing-run parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// PRNG seed; the same seed replays the same scenario stream.
    pub seed: u64,
    /// Number of scenarios to generate and check.
    pub cases: u64,
}

/// What a fuzzing run found.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Scenarios checked.
    pub cases: u64,
    /// Confirmed, shrunk divergences (empty on a clean run).
    pub divergences: Vec<Divergence>,
}

/// Generate and check `cfg.cases` scenarios; shrink every failure. Purely
/// deterministic in `cfg.seed`.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut divergences = Vec::new();
    for case in 0..cfg.cases {
        let spec = gen_spec(cfg.seed, case);
        if check_spec(&spec).is_err() {
            let (min, detail) = shrink(&spec);
            divergences.push(Divergence {
                case,
                spec: min,
                detail,
            });
        }
    }
    FuzzReport {
        cases: cfg.cases,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for case in 0..50 {
            assert_eq!(gen_spec(7, case), gen_spec(7, case));
        }
        assert_ne!(gen_spec(7, 0), gen_spec(8, 0));
    }

    #[test]
    fn generated_scenarios_materialize() {
        for case in 0..100 {
            let spec = gen_spec(1, case);
            let guest = spec.build_guest();
            let host = spec.build_host();
            let assign = spec.build_assignment();
            assert!(guest.num_cells() >= 2);
            assert!(host.num_nodes() >= 2);
            assert!(assign.uncovered_cells().is_empty(), "case {case}");
            spec.build_faults()
                .validate(&host)
                .unwrap_or_else(|e| panic!("case {case}: generated bad faults: {e}"));
        }
    }

    #[test]
    fn smoke_fuzz_is_clean() {
        let report = run_fuzz(&FuzzConfig { seed: 0, cases: 40 });
        assert_eq!(report.cases, 40);
        for d in &report.divergences {
            eprintln!(
                "case {}:\n  {}\n{}",
                d.case,
                d.detail,
                d.repro_test("repro")
            );
        }
        assert!(report.divergences.is_empty());
    }

    #[test]
    fn jittered_scenarios_are_drawn_and_checked() {
        let jittered = (0..300)
            .map(|c| gen_spec(0, c))
            .filter(|s| s.jitter != Jitter::None)
            .count();
        assert!(jittered > 20, "only {jittered} of 300 cases drew jitter");
        // Jitter can push the greedy makespan past the lockstep bound
        // (which uses base delays); check_spec must not report that.
        let spec = ScenarioSpec {
            guest: GuestKind::Line(3),
            program: ProgramKind::StencilSum,
            steps: 8,
            guest_seed: 1,
            host: HostKind::Line(3),
            delays: DelayModel::Constant(2),
            host_seed: 1,
            assign: AssignKind::Blocked,
            costs: None,
            multicast: false,
            mem: None,
            faults: vec![],
            jitter: Jitter::Periodic {
                amplitude_pct: 50,
                period: 1,
            },
        };
        let (guest, host, assign) = (
            spec.build_guest(),
            spec.build_host(),
            spec.build_assignment(),
        );
        let plan = ExecPlan::build(&guest, &host, &assign, spec.config()).unwrap();
        let ev = Engine::from_plan(&plan).run().unwrap();
        let lk = run_lockstep(&plan).unwrap();
        assert!(ev.stats.makespan > lk.stats.makespan);
        check_spec(&spec).expect("lockstep time bound is skipped under jitter");
        assert!(spec.to_code().contains("jitter: Jitter::Periodic"));
    }

    #[test]
    fn spec_to_code_is_paste_able() {
        let code = gen_spec(3, 17).to_code();
        assert!(code.contains("ScenarioSpec {"));
        assert!(code.contains("guest:"));
        assert!(code.contains("delays:"));
    }

    #[test]
    fn shrinker_reaches_a_fixpoint_on_a_forced_failure() {
        // A spec whose fault names a missing link fails check_spec at
        // with_faults; the shrinker must strictly simplify it while the
        // failure persists (dropping the fault makes it pass, so the
        // minimal repro keeps exactly one fault).
        let spec = ScenarioSpec {
            guest: GuestKind::Line(8),
            program: ProgramKind::KvWorkload,
            steps: 6,
            guest_seed: 1,
            host: HostKind::Line(4),
            delays: DelayModel::Uniform { lo: 1, hi: 9 },
            host_seed: 2,
            assign: AssignKind::Blocked,
            costs: Some(vec![1, 2, 1, 2]),
            multicast: false,
            mem: None,
            faults: vec![FaultSpec::LinkDown {
                a: 0,
                b: 3,
                from: 0,
                until: 10,
            }],
            jitter: Jitter::Periodic {
                amplitude_pct: 30,
                period: 4,
            },
        };
        assert!(check_spec(&spec).is_err());
        let (min, detail) = shrink(&spec);
        assert!(!detail.is_empty());
        assert!(check_spec(&min).is_err());
        assert_eq!(min.faults.len(), 1, "the fault is the failure");
        assert!(min.costs.is_none(), "costs must shrink away");
        assert_eq!(min.steps, 1, "steps must shrink away");
        assert_eq!(min.jitter, Jitter::None, "jitter must shrink away");
    }
}
