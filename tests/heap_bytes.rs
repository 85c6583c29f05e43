//! `ExecPlan::heap_bytes` and `ReferenceTrace::heap_bytes` must agree
//! with the allocator. The daemon's plan cache evicts by these numbers,
//! so a table they miss would let the cache outgrow its budget.
//!
//! A counting global allocator tracks live bytes. For each scenario
//! shape, the bytes still live after the daemon's miss path (lower the
//! admitted placement with `build_owned`, run the reference) must be
//! within 10% of what the two `heap_bytes` report. Shapes: every host ×
//! strategy pair of the benchmark's cold scenario mix, its warm sweep
//! scenario, its large KvWorkload scenario, and a multicast and a
//! task-graph guest for the tables those alone own.
//!
//! This binary holds a single test, so no other test thread allocates
//! while one is measured.

use overlap::model::TaskGraph;
use overlap::topology::{binary_tree, linear_array, mesh2d, random_regular, ring};
use overlap::{DelayModel, ExecPlan, GuestSpec, ProgramKind, ReferenceRun, ScenarioSpec, Strategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes, as requested by callers (not the allocator's rounding).
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the
// counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn heavy_tail() -> DelayModel {
    DelayModel::HeavyTail {
        min: 1,
        alpha: 1.2,
        cap: 64,
    }
}

fn with_strategy(strategy: Strategy, guest: GuestSpec, host: overlap::HostGraph) -> ScenarioSpec {
    ScenarioSpec {
        strategy,
        ..ScenarioSpec::new(guest, host)
    }
}

/// The benchmark's scenario shapes, each with a name for failures.
fn shapes() -> Vec<(String, ScenarioSpec)> {
    let strategies = [
        Strategy::Overlap { c: 4.0 },
        Strategy::Combined {
            c: 4.0,
            expansion: 4,
        },
        Strategy::Halo { halo: 1 },
        Strategy::Blocked,
        Strategy::WorkStealing { chunk: 0 },
        Strategy::Auto,
    ];
    let mut out = Vec::new();
    for host_kind in 0..5 {
        for (k, &strategy) in strategies.iter().enumerate() {
            let seed = (host_kind * 6 + k) as u64;
            let host = match host_kind {
                0 => linear_array(128, heavy_tail(), seed),
                1 => ring(128, heavy_tail(), seed),
                2 => mesh2d(12, 12, heavy_tail(), seed),
                3 => random_regular(128, 4, heavy_tail(), seed),
                _ => binary_tree(7, heavy_tail(), seed),
            };
            let guest = if k % 2 == 0 {
                GuestSpec::array(2300, ProgramKind::KvWorkload, seed, 5)
            } else {
                GuestSpec::ring(2300, ProgramKind::Relaxation, seed, 5)
            };
            let name = format!("cold {} {}", host.name(), strategy.label());
            out.push((name, with_strategy(strategy, guest, host)));
        }
    }
    let overlap = Strategy::Overlap { c: 4.0 };
    out.push((
        "sweep base".into(),
        with_strategy(
            overlap,
            GuestSpec::array(768, ProgramKind::KvWorkload, 11, 12),
            linear_array(192, heavy_tail(), 12),
        ),
    ));
    out.push((
        "kv large".into(),
        with_strategy(
            overlap,
            GuestSpec::array(65_536, ProgramKind::KvWorkload, 13, 16),
            linear_array(1024, heavy_tail(), 14),
        ),
    ));
    let mut multicast = with_strategy(
        overlap,
        GuestSpec::array(512, ProgramKind::StencilSum, 15, 6),
        mesh2d(6, 6, heavy_tail(), 16),
    );
    multicast.config.multicast = true;
    out.push(("multicast".into(), multicast));
    out.push((
        "task graph".into(),
        ScenarioSpec::new(
            GuestSpec::dag(
                TaskGraph::layered_random(256, 8, 2, 3, 17),
                ProgramKind::KvWorkload,
                18,
            ),
            ring(16, heavy_tail(), 19),
        ),
    ));
    out
}

#[test]
fn heap_bytes_match_the_allocator() {
    for (name, spec) in shapes() {
        let (_key, assignment) = spec.admit().unwrap();
        let before = LIVE.load(Ordering::Relaxed);
        // The daemon's miss path: lower owned copies, run the reference.
        let plan = ExecPlan::build_owned(
            spec.guest.clone(),
            spec.host.clone(),
            assignment.clone(),
            spec.config,
        )
        .unwrap();
        let reference = ReferenceRun::execute(&spec.guest);
        let live = (LIVE.load(Ordering::Relaxed) - before) as f64;
        let counted = (plan.heap_bytes() + reference.heap_bytes()) as f64;
        let error = (counted - live).abs() / live;
        assert!(
            error <= 0.10,
            "{name}: heap_bytes {counted} vs {live} live bytes ({:.1}% off)",
            error * 100.0
        );
        // A view owns none of its parent's tables.
        assert_eq!(plan.view().heap_bytes(), 0, "{name}");
        drop((plan, reference));
    }
}
