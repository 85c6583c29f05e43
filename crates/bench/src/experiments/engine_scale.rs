//! Engine-scale benchmark: events/sec of the calendar-queue engine vs the
//! frozen classic heap engine, plus a thread-count sweep of the sharded
//! conservative-parallel engine, across growing scenario sizes. The
//! full sweep adds one `KvWorkload` tier in the end-to-end benchmark's
//! `kv_large` shape (65,536 cells × 16 steps on a 1024-processor
//! heavy-tail line, OVERLAP c = 4), so the engines are also measured on
//! the paper's motivating program, not only the cheapest one.
//!
//! The outcomes are asserted bit-identical before timing, so every
//! speedup is a pure implementation delta. Results land in the usual
//! markdown table **and** in `BENCH_engine.json` at the workspace root:
//! per scale, events/sec for the sequential engines and for the sharded
//! engine at each thread count, the makespan, and the peak event-queue
//! depth. The JSON also records the host's core count — sharded scaling
//! numbers are meaningless without it.
//!
//! [`gate`] is the CI smoke perf gate (first slice of the regression-gate
//! roadmap item): it re-measures one mid-size tier plus a task-graph
//! tier (a non-uniform DAG guest through the dynamic-table event path)
//! and fails if the sequential, sharded, or task-graph throughput drops
//! more than 30% below the checked-in floor in `BENCH_engine_floor.json`.
//! It also re-measures the plan-reuse and delta-sweep speedups against
//! the ratio floors in `BENCH_plan_floor.json`, replays the quick
//! task-graph grid against the deterministic makespan ceilings in
//! `BENCH_taskgraph_floor.json`, and re-times a micro-smoke subset of
//! the criterion benches (`crates/bench/benches/`) against the floors
//! in `BENCH_micro_floor.json` — those benches are write-only in CI, so
//! without the mirror here a regression in embedding, overlap planning,
//! or the mesh/Theorem-4 pipelines would land silently.

use crate::Scale;
use crate::Table;
use overlap_core::pipeline::Strategy;
use overlap_core::Simulation;
use overlap_model::{GuestSpec, ProgramKind, TaskGraph};
use overlap_net::topology::linear_array;
use overlap_net::{DelayModel, HostGraph};
use overlap_sim::engine::{Engine, EngineConfig, RunOutcome};
use overlap_sim::engine_classic::run_classic;
use overlap_sim::{run_sharded, Assignment, ExecPlan};
use std::time::Instant;

/// Thread counts swept for the sharded engine at every scale.
pub const THREAD_SWEEP: &[usize] = &[1, 2, 4, 8];

/// Sharded-engine throughput at one thread count.
pub struct ShardedPoint {
    /// Worker threads (= shards).
    pub threads: usize,
    /// Events per second.
    pub events_per_sec: f64,
}

/// One measured scale.
pub struct ScaleResult {
    /// Guest program of the tier.
    pub program: ProgramKind,
    /// Host processors.
    pub procs: u32,
    /// Guest cells.
    pub cells: u32,
    /// Guest steps.
    pub steps: u32,
    /// Events dispatched per run (identical for all engines).
    pub events: u64,
    /// Simulated makespan in ticks.
    pub makespan: u64,
    /// Peak pending events (memory-footprint proxy).
    pub peak_queue_depth: u64,
    /// Calendar-queue engine throughput, events per second.
    pub events_per_sec: f64,
    /// Classic heap engine throughput, events per second (the baseline).
    pub classic_events_per_sec: f64,
    /// Sharded-engine throughput per swept thread count.
    pub sharded: Vec<ShardedPoint>,
}

impl ScaleResult {
    /// Calendar throughput over classic throughput.
    pub fn speedup(&self) -> f64 {
        self.events_per_sec / self.classic_events_per_sec
    }

    /// Sharded throughput at `threads` over the sequential calendar
    /// engine — the parallel-scaling curve.
    pub fn sharded_speedup(&self, threads: usize) -> Option<f64> {
        self.sharded
            .iter()
            .find(|p| p.threads == threads)
            .map(|p| p.events_per_sec / self.events_per_sec)
    }
}

/// A `Relaxation` tier: blocked placement on a uniform-delay line.
fn measure_relaxation_tier(procs: u32, cells: u32, steps: u32, reps: u32) -> ScaleResult {
    let guest = GuestSpec::array(cells, ProgramKind::Relaxation, 3, steps);
    let host = linear_array(procs, DelayModel::uniform(1, 7), 5);
    let assign = Assignment::blocked(procs, cells);
    measure_tier(&guest, &host, &assign, reps)
}

/// The `KvWorkload` tier in the end-to-end benchmark's `kv_large` shape:
/// 65,536 cells × 16 steps on a 1024-processor heavy-tail line, placed by
/// OVERLAP with c = 4.
fn measure_kv_tier(reps: u32) -> ScaleResult {
    let guest = GuestSpec::array(65_536, ProgramKind::KvWorkload, 11, 16);
    let delays = DelayModel::HeavyTail {
        min: 1,
        alpha: 1.2,
        cap: 64,
    };
    let host = linear_array(1024, delays, 13);
    let sim = Simulation::of(&guest)
        .on(&host)
        .strategy(Strategy::Overlap { c: 4.0 })
        .build()
        .expect("OVERLAP placement");
    measure_tier(&guest, &host, sim.assignment(), reps)
}

/// Best-of-`reps` wall time of `f` in seconds.
fn time_best<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Run the sweep and return per-scale results.
pub fn measure(scale: Scale) -> Vec<ScaleResult> {
    let scales: &[(u32, u32, u32)] = match scale {
        Scale::Quick => &[(16, 64, 32), (32, 128, 32), (64, 256, 32)],
        Scale::Full => &[
            (16, 64, 64),
            (64, 256, 128),
            (128, 1024, 128),
            (256, 2048, 128),
            (512, 8192, 64),
            // The million-cell tier: ~8.4M events per run.
            (1024, 1 << 20, 8),
        ],
    };
    let reps = scale.pick(3, 5);
    let mut results: Vec<ScaleResult> = scales
        .iter()
        .map(|&(procs, cells, steps)| measure_relaxation_tier(procs, cells, steps, reps))
        .collect();
    if scale == Scale::Full {
        results.push(measure_kv_tier(reps));
    }
    results
}

fn measure_tier(
    guest: &GuestSpec,
    host: &HostGraph,
    assign: &Assignment,
    reps: u32,
) -> ScaleResult {
    let (procs, cells, steps) = (host.num_nodes(), guest.num_cells(), guest.steps);
    let cfg = EngineConfig::default();
    // Lower once; every engine consumes the shared plan (classic excepted —
    // it predates the plan and rebuilds internally, part of its baseline).
    let plan = ExecPlan::build(guest, host, assign, cfg).expect("lower");
    let run_new = || -> RunOutcome { Engine::from_plan(&plan).run().expect("run") };
    let run_old = || -> RunOutcome { run_classic(guest, host, assign, cfg, None).expect("run") };
    let out = run_new();
    assert_eq!(out, run_old(), "engines diverge at {procs}x{cells}x{steps}");
    // Identity first, timing after: the sharded engine must match bit for
    // bit at every thread count, peak_queue_depth included.
    for &t in THREAD_SWEEP {
        let sh = run_sharded(&plan, t).expect("sharded run");
        assert_eq!(sh, out, "sharded({t}) diverges at {procs}x{cells}x{steps}");
    }
    // Keep the giant tiers affordable: above a million events per run the
    // best-of window shrinks to 2.
    let reps = if out.stats.events_processed > 1_000_000 {
        reps.min(2)
    } else {
        reps
    };
    let events = out.stats.events_processed;
    let t_new = time_best(reps, run_new);
    let t_old = time_best(reps, run_old);
    let sharded = THREAD_SWEEP
        .iter()
        .map(|&t| {
            let dt = time_best(reps, || run_sharded(&plan, t).expect("sharded run"));
            ShardedPoint {
                threads: t,
                events_per_sec: events as f64 / dt,
            }
        })
        .collect();
    ScaleResult {
        program: guest.program,
        procs,
        cells,
        steps,
        events,
        makespan: out.stats.makespan,
        peak_queue_depth: out.stats.peak_queue_depth,
        events_per_sec: events as f64 / t_new,
        classic_events_per_sec: events as f64 / t_old,
        sharded,
    }
}

/// Physical parallelism of the machine the numbers were taken on.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Render the results as `BENCH_engine.json` (hand-rolled; the bench crate
/// carries no JSON dependency).
pub fn to_json(results: &[ScaleResult]) -> String {
    let mut out = format!(
        "{{\n  \"benchmark\": \"engine_scale\",\n  \"baseline\": \"classic heap engine (engine_classic)\",\n  \"host_cores\": {},\n  \"scales\": [\n",
        host_cores()
    );
    for (i, r) in results.iter().enumerate() {
        let sharded: Vec<String> = r
            .sharded
            .iter()
            .map(|p| {
                format!(
                    "{{\"threads\": {}, \"events_per_sec\": {:.0}, \"speedup_vs_event\": {:.2}}}",
                    p.threads,
                    p.events_per_sec,
                    p.events_per_sec / r.events_per_sec
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{\"program\": \"{:?}\", \"procs\": {}, \"cells\": {}, \"steps\": {}, \"events\": {}, \"makespan\": {}, \"peak_queue_depth\": {}, \"events_per_sec\": {:.0}, \"classic_events_per_sec\": {:.0}, \"speedup\": {:.2}, \"sharded\": [{}]}}{}\n",
            r.program,
            r.procs,
            r.cells,
            r.steps,
            r.events,
            r.makespan,
            r.peak_queue_depth,
            r.events_per_sec,
            r.classic_events_per_sec,
            r.speedup(),
            sharded.join(", "),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The experiment: measure, write `BENCH_engine.json`, return the table.
pub fn run(scale: Scale) -> Table {
    let results = measure(scale);
    let json = to_json(&results);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    std::fs::write(&path, &json).expect("write BENCH_engine.json");

    let mut t = Table::new(
        "ENGINE · calendar-queue vs classic heap vs sharded parallel",
        &[
            "program",
            "procs",
            "cells",
            "steps",
            "events",
            "peak queue",
            "events/s (event)",
            "events/s (classic)",
            "events/s sharded 1/2/4/8",
            "speedup@8",
        ],
    );
    for r in &results {
        let sweep: Vec<String> = r
            .sharded
            .iter()
            .map(|p| format!("{:.2}M", p.events_per_sec / 1e6))
            .collect();
        t.row(vec![
            format!("{:?}", r.program),
            r.procs.to_string(),
            r.cells.to_string(),
            r.steps.to_string(),
            r.events.to_string(),
            r.peak_queue_depth.to_string(),
            format!("{:.0}", r.events_per_sec),
            format!("{:.0}", r.classic_events_per_sec),
            sweep.join("/"),
            format!("{:.2}x", r.sharded_speedup(8).unwrap_or(0.0)),
        ]);
    }
    t.note(format!(
        "outcomes are asserted bit-identical before timing, peak_queue_depth included; \
         speedup@8 is sharded-at-8-threads over the sequential \
         calendar engine, measured on a {}-core host — expect ~1x or below on a single core, \
         where only the window batching can help. JSON copy written to BENCH_engine.json.",
        host_cores()
    ));
    t
}

/// Extract `"key": <number>` from the hand-rolled floor JSON.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The gate's task-graph tier: a non-uniform layered-random DAG guest,
/// which forces the event engine down the dynamic per-(cell,step) table
/// path instead of the static uniform tables the grid tier exercises.
/// Asserts event/sharded bit-agreement first, then returns events/sec of
/// the sequential event engine.
fn measure_taskgraph_tier(reps: u32) -> f64 {
    let guest = GuestSpec::dag(
        TaskGraph::layered_random(256, 32, 2, 3, 7),
        ProgramKind::KvWorkload,
        3,
    );
    let host = linear_array(64, DelayModel::uniform(1, 7), 5);
    let assign = Assignment::blocked(64, guest.topology.num_cells());
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).expect("lower");
    let run = || -> RunOutcome { Engine::from_plan(&plan).run().expect("run") };
    let out = run();
    let sh = run_sharded(&plan, 2).expect("sharded run");
    assert_eq!(sh, out, "sharded diverges on the task-graph gate tier");
    out.stats.events_processed as f64 / time_best(reps, run)
}

/// The gate's mirror of the criterion micro-benches: one representative
/// workload per bench file in `crates/bench/benches/`, measured as
/// operations per second. The criterion harness itself never runs in CI
/// (it is write-only tuning tooling), so this subset is what actually
/// guards the embedding, overlap-planning, Theorem-4, and mesh-emulation
/// hot paths against regressions.
fn measure_micro(reps: u32) -> Vec<(&'static str, f64)> {
    use overlap_core::mesh::simulate_mesh_with_trace;
    use overlap_core::overlap::plan_overlap;
    use overlap_core::pipeline::Strategy;
    use overlap_core::Simulation;
    use overlap_model::ReferenceRun;
    use overlap_net::embed::embed_linear_array;
    use overlap_net::topology::mesh2d;

    let mut out = Vec::new();
    // bench_embed: Fact 3 embedding on the 32x32 mesh host. Fast per
    // call, so batch enough iterations for a stable sample.
    let embed_host = mesh2d(32, 32, DelayModel::uniform(1, 9), 1);
    let iters = 64u32;
    let t = time_best(reps, || {
        for _ in 0..iters {
            std::hint::black_box(embed_linear_array(&embed_host));
        }
    });
    out.push(("embed_mesh32x32", iters as f64 / t));
    // bench_overlap: interval-tree kill/label + recursive database
    // assignment over 4096 heavy-tail delays.
    let overlap_host = linear_array(
        4096,
        DelayModel::HeavyTail {
            min: 1,
            alpha: 0.8,
            cap: 1 << 20,
        },
        7,
    );
    let delays: Vec<u64> = overlap_host.links().iter().map(|l| l.delay).collect();
    let iters = 8u32;
    let t = time_best(reps, || {
        for _ in 0..iters {
            std::hint::black_box(plan_overlap(&delays, 4.0, 1).expect("plan"));
        }
    });
    out.push(("overlap_plan_4096", iters as f64 / t));
    // bench_uniform: the Theorem 4 halo-1 scenario (n=16, d=64),
    // builder included — this is the whole user-facing pipeline.
    let d = 64u64;
    let n = 16u32;
    let r = (d as f64).sqrt() as u32;
    let t4_guest = GuestSpec::array(n * r, ProgramKind::Relaxation, 9, 4 * r);
    let t4_trace = ReferenceRun::execute(&t4_guest);
    let t4_host = linear_array(n, DelayModel::constant(d), 0);
    let t = time_best(reps, || {
        Simulation::of(&t4_guest)
            .on(&t4_host)
            .strategy(Strategy::Halo { halo: 1 })
            .build()
            .and_then(|sim| sim.run_with_trace(&t4_trace))
            .expect("theorem4 run")
    });
    out.push(("theorem4_halo1", 1.0 / t));
    // bench_mesh: Theorem 7/8 emulation of an 8x8 guest mesh on the
    // 8-processor linear host.
    let mesh_guest = GuestSpec::mesh(8, 8, ProgramKind::Relaxation, 3, 12);
    let mesh_trace = ReferenceRun::execute(&mesh_guest);
    let mesh_host = linear_array(8, DelayModel::uniform(1, 5), 3);
    let t = time_best(reps, || {
        simulate_mesh_with_trace(&mesh_guest, &mesh_host, 4.0, 2, &mesh_trace).expect("mesh run")
    });
    out.push(("mesh_trace_8x8", 1.0 / t));
    out
}

/// Read and parse one numeric field from a checked-in floor file at the
/// workspace root.
fn floor_field(file: &str, key: &str) -> Result<f64, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../{file}"));
    let json = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json_number(&json, key).ok_or_else(|| format!("{file} missing {key}"))
}

/// CI smoke perf gate: re-measure the mid Quick tier plus the task-graph
/// tier and fail if the sequential, sharded, or task-graph throughput
/// regresses more than 30% below the floor checked in at
/// `BENCH_engine_floor.json`. Also enforces the machine-independent
/// floors in `BENCH_plan_floor.json` (plan-reuse and delta-sweep speedup
/// ratios — both arms are measured in the same process, so no tolerance
/// is needed), the deterministic ceilings in
/// `BENCH_taskgraph_floor.json` (the quick task-graph grid's makespans
/// are exact, so any increase is a real scheduling regression), and the
/// criterion micro-smoke mirror (`measure_micro`) against the
/// throughput floors in `BENCH_micro_floor.json`. Returns a
/// human-readable summary on pass, the violations on fail.
pub fn gate() -> Result<String, String> {
    let floor_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine_floor.json");
    let floor = std::fs::read_to_string(&floor_path)
        .map_err(|e| format!("cannot read {}: {e}", floor_path.display()))?;
    let f_event = json_number(&floor, "event_events_per_sec")
        .ok_or("floor file missing event_events_per_sec")?;
    let f_sharded = json_number(&floor, "sharded_events_per_sec")
        .ok_or("floor file missing sharded_events_per_sec")?;
    let f_taskgraph = json_number(&floor, "taskgraph_events_per_sec")
        .ok_or("floor file missing taskgraph_events_per_sec")?;

    let r = measure_relaxation_tier(64, 256, 32, 3);
    let taskgraph = measure_taskgraph_tier(3);
    let sharded = r
        .sharded
        .iter()
        .find(|p| p.threads == 2)
        .map(|p| p.events_per_sec)
        .ok_or("no sharded@2 measurement")?;

    let mut violations = Vec::new();
    for (name, got, floor) in [
        ("event", r.events_per_sec, f_event),
        ("sharded@2", sharded, f_sharded),
        ("task-graph", taskgraph, f_taskgraph),
    ] {
        if got < floor * 0.70 {
            violations.push(format!(
                "{name} engine: {got:.0} events/s is more than 30% below the floor {floor:.0}"
            ));
        }
    }
    // Plan-reuse / delta-sweep ratio floors: both arms of each ratio are
    // timed in the same process, so the speedups are machine-independent
    // and checked without tolerance.
    let f_reuse = floor_field("BENCH_plan_floor.json", "reuse_min_speedup")?;
    let f_delta = floor_field("BENCH_plan_floor.json", "delta_min_speedup")?;
    let reuse = super::plan_reuse::measure(Scale::Quick);
    let best_reuse = reuse.iter().map(|p| p.speedup()).fold(0.0, f64::max);
    if best_reuse < f_reuse {
        violations.push(format!(
            "plan reuse: best speedup {best_reuse:.2}x is below the floor {f_reuse:.2}x"
        ));
    }
    let delta = super::plan_reuse::measure_delta(Scale::Quick);
    if delta.speedup() < f_delta {
        violations.push(format!(
            "delta sweep: speedup {:.2}x is below the floor {f_delta:.2}x",
            delta.speedup()
        ));
    }

    // Task-graph makespan ceilings: the quick grid is deterministic, so
    // the checked-in totals must be reproduced exactly (improvements —
    // lower makespans — pass).
    let f_cases = floor_field("BENCH_taskgraph_floor.json", "cases")?;
    let f_span = floor_field("BENCH_taskgraph_floor.json", "total_makespan_ceiling")?;
    let grid = super::task_graphs::measure(Scale::Quick);
    let total_span: u64 = grid.iter().map(|c| c.makespan).sum();
    if grid.len() != f_cases as usize {
        violations.push(format!(
            "task-graph grid: {} cases measured, floor expects {}",
            grid.len(),
            f_cases as usize
        ));
    }
    if let Some(bad) = grid.iter().find(|c| !c.validated) {
        violations.push(format!(
            "task-graph grid: {}/{}/{}/{} failed reference validation",
            bad.graph, bad.regime, bad.budget, bad.strategy
        ));
    }
    if total_span > f_span as u64 {
        violations.push(format!(
            "task-graph grid: total makespan {total_span} exceeds the deterministic ceiling {}",
            f_span as u64
        ));
    }

    // Criterion micro-smoke mirror: same 30% tolerance as the engine
    // tiers, floors in BENCH_micro_floor.json keyed `<name>_ops_per_sec`.
    let micro = measure_micro(3);
    let mut micro_summary = Vec::new();
    for (name, ops) in &micro {
        let key = format!("{name}_ops_per_sec");
        let floor = floor_field("BENCH_micro_floor.json", &key)?;
        if *ops < floor * 0.70 {
            violations.push(format!(
                "micro {name}: {ops:.1} ops/s is more than 30% below the floor {floor:.1}"
            ));
        }
        micro_summary.push(format!("{name} {ops:.0}/s (floor {floor:.0})"));
    }

    if violations.is_empty() {
        Ok(format!(
            "perf gate OK: event {:.0} events/s (floor {:.0}), sharded@2 {:.0} events/s (floor {:.0}), task-graph {:.0} events/s (floor {:.0}), tolerance 30%; \
             plan reuse {best_reuse:.2}x (floor {f_reuse:.2}x), delta sweep {:.2}x (floor {f_delta:.2}x); \
             task-graph grid {} cases all validated, total makespan {total_span} (ceiling {}); \
             micro {}",
            r.events_per_sec,
            f_event,
            sharded,
            f_sharded,
            taskgraph,
            f_taskgraph,
            delta.speedup(),
            grid.len(),
            f_span as u64,
            micro_summary.join(", ")
        ))
    } else {
        Err(violations.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_engines_agree() {
        let results = measure(Scale::Quick);
        assert!(results.len() >= 3);
        let json = to_json(&results);
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"host_cores\""));
        assert!(json.contains("\"sharded\""));
        assert_eq!(json.matches("{\"program\"").count(), results.len());
        for r in &results {
            assert!(r.events > 0 && r.events_per_sec > 0.0);
            assert_eq!(r.sharded.len(), THREAD_SWEEP.len());
            for p in &r.sharded {
                assert!(p.events_per_sec > 0.0);
            }
        }
    }

    #[test]
    fn micro_smoke_covers_every_criterion_bench_file() {
        // One workload per bench file in crates/bench/benches/ (the
        // engine bench is covered by measure_tier itself).
        let micro = measure_micro(1);
        let names: Vec<&str> = micro.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "embed_mesh32x32",
                "overlap_plan_4096",
                "theorem4_halo1",
                "mesh_trace_8x8"
            ]
        );
        for (name, ops) in &micro {
            assert!(*ops > 0.0, "{name} measured no throughput");
        }
    }

    #[test]
    fn json_number_parses_hand_rolled_floor() {
        let j = "{\"event_events_per_sec\": 123456, \"sharded_events_per_sec\": 7.5}";
        assert_eq!(json_number(j, "event_events_per_sec"), Some(123456.0));
        assert_eq!(json_number(j, "sharded_events_per_sec"), Some(7.5));
        assert_eq!(json_number(j, "missing"), None);
    }
}
