//! Plan-reuse benchmark: sweep wall-clock with a shared `ExecPlan` vs a
//! fresh lowering per run, for the event and lockstep engines.
//!
//! A sweep repeats the same `(guest, host, assignment, config)` point —
//! across repeats, engines, and fault variants — so the lowering work
//! (per-consumer Dijkstra routing, interned dependency tables, multicast
//! trees) can be paid once and amortised. This experiment measures
//! exactly that amortisation: `repeats` back-to-back runs, once lowering
//! fresh every run (`Engine::new` style) and once sharing a single plan
//! (`Engine::from_plan`). Outcomes are asserted bit-identical before
//! timing, so the speedup is pure lowering cost. Results land in the
//! usual markdown table **and** in `BENCH_plan.json` at the workspace
//! root.
//!
//! A second section measures the *delta* sweep: varying a single link
//! delay across the sweep, which plan reuse alone cannot amortise (the
//! host changes, so every point needs its own lowering) but
//! [`ExecPlan::apply_delta`] patches in place on tree hosts. The
//! baseline is the best a reuse-only sweep can do — one fresh lowering
//! per point — against a single shared plan stepped through
//! delta/run/inverse.

use crate::Scale;
use crate::Table;
use overlap_model::{GuestSpec, ProgramKind};
use overlap_net::topology::{linear_array, mesh2d};
use overlap_net::{DelayModel, HostGraph};
use overlap_sim::engine::{Engine, EngineConfig, RunOutcome};
use overlap_sim::lockstep::run_lockstep;
use overlap_sim::{Assignment, ExecPlan, PlanDelta};
use std::time::Instant;

/// One engine's measured sweep, with and without plan reuse.
pub struct ReuseResult {
    /// Engine label (`"event"`, `"lockstep"`).
    pub engine: &'static str,
    /// Runs per sweep.
    pub repeats: u32,
    /// Sweep wall-clock with one fresh lowering per run, seconds.
    pub fresh_secs: f64,
    /// Sweep wall-clock sharing a single lowered plan, seconds.
    pub shared_secs: f64,
}

impl ReuseResult {
    /// Fresh-lowering sweep time over shared-plan sweep time.
    pub fn speedup(&self) -> f64 {
        self.fresh_secs / self.shared_secs
    }
}

/// The delta-sweep measurement: a single-link delay sweep, fresh
/// lowering per point vs one shared plan varied with `apply_delta`.
pub struct DeltaResult {
    /// Sweep points (distinct delays of the varied link).
    pub points: u32,
    /// Sweep wall-clock with one fresh lowering per point, seconds.
    pub fresh_secs: f64,
    /// Sweep wall-clock applying/undoing a delta per point, seconds.
    pub delta_secs: f64,
}

impl DeltaResult {
    /// Fresh-lowering sweep time over delta-applied sweep time.
    pub fn speedup(&self) -> f64 {
        self.fresh_secs / self.delta_secs
    }
}

/// A lowering-heavy, run-light scenario: many processors (the routing
/// pass runs one Dijkstra per consumer) and few guest steps.
fn scenario(scale: Scale) -> (GuestSpec, HostGraph, Assignment) {
    let side = scale.pick(16u32, 24);
    let procs = side * side;
    let cells = procs * 2;
    let steps = 2;
    let guest = GuestSpec::array(cells, ProgramKind::Relaxation, 3, steps);
    let host = mesh2d(side, side, DelayModel::uniform(1, 5), 7);
    let assign = Assignment::blocked(procs, cells);
    (guest, host, assign)
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

/// Measure every engine's sweep with and without plan reuse.
pub fn measure(scale: Scale) -> Vec<ReuseResult> {
    let (guest, host, assign) = scenario(scale);
    let cfg = EngineConfig::default();
    let repeats = scale.pick(6u32, 10);
    let reps = scale.pick(3, 5);

    type Runner = fn(&ExecPlan) -> RunOutcome;
    let engines: &[(&'static str, Runner)] = &[
        ("event", |p| Engine::from_plan(p).run().expect("event")),
        ("lockstep", |p| run_lockstep(p).expect("lockstep")),
    ];

    engines
        .iter()
        .map(|&(name, run)| {
            // Reused and fresh lowerings must be indistinguishable.
            let shared_plan = ExecPlan::build(&guest, &host, &assign, cfg).expect("plan");
            let a = run(&shared_plan);
            let fresh_plan = ExecPlan::build(&guest, &host, &assign, cfg).expect("plan");
            let b = run(&fresh_plan);
            assert_eq!(a, b, "{name}: shared vs fresh lowering diverge");

            let fresh_secs = time_best(reps, || {
                for _ in 0..repeats {
                    let plan = ExecPlan::build(&guest, &host, &assign, cfg).expect("plan");
                    std::hint::black_box(run(&plan));
                }
            });
            let shared_secs = time_best(reps, || {
                let plan = ExecPlan::build(&guest, &host, &assign, cfg).expect("plan");
                for _ in 0..repeats {
                    std::hint::black_box(run(&plan));
                }
            });
            ReuseResult {
                engine: name,
                repeats,
                fresh_secs,
                shared_secs,
            }
        })
        .collect()
}

/// Measure the single-link delay sweep: fresh lowering per point vs one
/// shared plan varied in place with [`ExecPlan::apply_delta`].
///
/// The host is a linear array — a tree, so routes are forced and every
/// delay edit takes the patch-in-place fast path. That is the honest
/// comparison: a reuse-only sweep *must* re-lower per point here (the
/// host differs at every point), while the delta sweep pays one
/// lowering for the whole sweep. Outcomes are asserted bit-identical to
/// fresh lowerings, point by point, before anything is timed.
pub fn measure_delta(scale: Scale) -> DeltaResult {
    let procs = scale.pick(256u32, 576);
    let cells = procs * 2;
    let guest = GuestSpec::array(cells, ProgramKind::Relaxation, 3, 2);
    let host = linear_array(procs, DelayModel::uniform(1, 5), 7);
    let assign = Assignment::blocked(procs, cells);
    let cfg = EngineConfig::default();
    let reps = scale.pick(3, 5);

    // Sweep the middle link over `points` distinct delays.
    let (a, b) = (procs / 2 - 1, procs / 2);
    let points = scale.pick(8u32, 16);
    let delays: Vec<u64> = (1..=u64::from(points)).collect();
    let fresh_point = |d: u64| -> RunOutcome {
        let mut h = host.clone();
        h.set_link_delay(a, b, d);
        let plan = ExecPlan::build(&guest, &h, &assign, cfg).expect("fresh plan");
        Engine::from_plan(&plan).run().expect("fresh run")
    };

    // Untimed: every delta-applied point must match its fresh lowering.
    let mut plan = ExecPlan::build(&guest, &host, &assign, cfg).expect("base plan");
    for &d in &delays {
        let receipt = plan
            .apply_delta(PlanDelta::LinkDelay { a, b, delay: d })
            .expect("delta");
        let got = Engine::from_plan(&plan).run().expect("delta run");
        assert_eq!(got, fresh_point(d), "delta sweep diverges at delay {d}");
        plan.apply_delta(receipt.inverse).expect("inverse");
    }

    let fresh_secs = time_best(reps, || {
        for &d in &delays {
            std::hint::black_box(fresh_point(d));
        }
    });
    let delta_secs = time_best(reps, || {
        let mut plan = ExecPlan::build(&guest, &host, &assign, cfg).expect("base plan");
        for &d in &delays {
            let receipt = plan
                .apply_delta(PlanDelta::LinkDelay { a, b, delay: d })
                .expect("delta");
            std::hint::black_box(Engine::from_plan(&plan).run().expect("delta run"));
            plan.apply_delta(receipt.inverse).expect("inverse");
        }
    });
    DeltaResult {
        points,
        fresh_secs,
        delta_secs,
    }
}

/// Render the results as `BENCH_plan.json` (hand-rolled; the bench crate
/// carries no JSON dependency).
pub fn to_json(results: &[ReuseResult], delta: &DeltaResult) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"plan_reuse\",\n  \"baseline\": \"fresh ExecPlan lowering per run\",\n  \"engines\": [\n",
    );
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"repeats\": {}, \"fresh_secs\": {:.6}, \"shared_secs\": {:.6}, \"speedup\": {:.2}}}{}\n",
            r.engine,
            r.repeats,
            r.fresh_secs,
            r.shared_secs,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"delta\": {{\"host\": \"linear-array\", \"points\": {}, \"fresh_secs\": {:.6}, \"delta_secs\": {:.6}, \"delta_speedup\": {:.2}}}\n",
        delta.points,
        delta.fresh_secs,
        delta.delta_secs,
        delta.speedup()
    ));
    out.push_str("}\n");
    out
}

/// The experiment: measure, write `BENCH_plan.json`, return the table.
pub fn run(scale: Scale) -> Table {
    let results = measure(scale);
    let delta = measure_delta(scale);
    let json = to_json(&results, &delta);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_plan.json");
    std::fs::write(&path, &json).expect("write BENCH_plan.json");

    let mut t = Table::new(
        "PLAN · sweep wall-clock, shared ExecPlan vs per-run lowering",
        &["engine", "runs", "fresh (s)", "shared (s)", "speedup"],
    );
    for r in &results {
        t.row(vec![
            r.engine.to_string(),
            r.repeats.to_string(),
            format!("{:.4}", r.fresh_secs),
            format!("{:.4}", r.shared_secs),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    t.row(vec![
        "delta-sweep".to_string(),
        delta.points.to_string(),
        format!("{:.4}", delta.fresh_secs),
        format!("{:.4}", delta.delta_secs),
        format!("{:.2}x", delta.speedup()),
    ]);
    t.note(
        "outcomes are asserted bit-identical before timing; the speedup is purely the \
         amortised lowering (per-consumer Dijkstra routing + interned tables), paid once \
         per sweep point instead of once per run. The delta-sweep row varies one link \
         delay per point: the fresh column re-lowers every point (all plan reuse can do \
         when the host changes), the shared column patches one plan with \
         ExecPlan::apply_delta. JSON copy written to BENCH_plan.json.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_reuse_pays() {
        let results = measure(Scale::Quick);
        let delta = measure_delta(Scale::Quick);
        assert_eq!(results.len(), 2);
        let json = to_json(&results, &delta);
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"delta_speedup\""));
        assert_eq!(json.matches("{\"engine\"").count(), results.len());
        for r in &results {
            assert!(r.fresh_secs > 0.0 && r.shared_secs > 0.0);
            assert!(
                r.speedup() > 1.0,
                "{}: reuse should never lose ({:.2}x)",
                r.engine,
                r.speedup()
            );
        }
        assert!(
            results.iter().any(|r| r.speedup() >= 1.3),
            "at least one engine must show the 1.3x amortisation: {:?}",
            results.iter().map(|r| r.speedup()).collect::<Vec<_>>()
        );
        // The ISSUE acceptance bar: delta application buys at least 1.5x
        // over the best a reuse-only delay sweep can do.
        assert!(
            delta.speedup() >= 1.5,
            "delta sweep must beat per-point re-lowering by 1.5x, got {:.2}x",
            delta.speedup()
        );
    }
}
