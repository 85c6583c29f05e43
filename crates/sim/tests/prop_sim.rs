//! Property-based tests for the simulator.

use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;
use overlap_sim::engine::{Engine, EngineConfig};
use overlap_sim::lockstep::run_lockstep;
use overlap_sim::validate::validate_run;
use overlap_sim::{Assignment, BandwidthMode, ExecPlan};
use proptest::prelude::*;

proptest! {
    #[test]
    fn bandwidth_law_matches_paper_formula(
        d in 1u64..1000,
        p in 1u64..1000,
        bw in 1u32..64,
    ) {
        let m = BandwidthMode::Fixed(bw);
        let t = m.batch_transit(0, d, p);
        prop_assert_eq!(t, d + p.div_ceil(bw as u64) - 1);
        // Monotonicity in every argument.
        prop_assert!(m.batch_transit(0, d + 1, p) > t || p == 0);
        prop_assert!(m.batch_transit(0, d, p + 1) >= t);
        prop_assert!(BandwidthMode::Fixed(bw + 1).batch_transit(0, d, p) <= t);
    }

    #[test]
    fn blocked_assignments_cover_everything(procs in 1u32..40, cells in 1u32..200) {
        let a = Assignment::blocked(procs, cells);
        prop_assert!(a.is_complete());
        prop_assert_eq!(a.total_copies() as u32, cells);
        // Load is balanced to within one.
        let max = a.load();
        let min = (0..procs)
            .map(|p| a.cells_of(p).len())
            .filter(|&l| l > 0)
            .min()
            .unwrap();
        prop_assert!(max - min <= 1, "load {max} vs {min}");
    }

    #[test]
    fn assignment_representations_roundtrip(
        procs in 1u32..10,
        cells in 1u32..30,
        seed in any::<u64>(),
    ) {
        // random-ish complete assignment
        let mut cells_of = vec![Vec::new(); procs as usize];
        let mut x = seed | 1;
        for c in 0..cells {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let p = ((x >> 33) % procs as u64) as usize;
            cells_of[p].push(c);
            // sometimes a second copy
            if x % 3 == 0 {
                let q = ((x >> 17) % procs as u64) as usize;
                if q != p {
                    cells_of[q].push(c);
                }
            }
        }
        let a = Assignment::from_cells_of(procs, cells, cells_of);
        let holders: Vec<Vec<u32>> = (0..cells).map(|c| a.holders(c).to_vec()).collect();
        let b = Assignment::from_holders(procs, cells, holders);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn engine_agrees_with_reference_on_random_scenarios(
        procs in 1u32..8,
        cells_per in 1u32..4,
        steps in 0u32..14,
        d in 1u64..60,
        seed in any::<u64>(),
    ) {
        let cells = procs * cells_per;
        let guest = GuestSpec::array(cells, ProgramKind::RuleAutomaton { db_size: 8 }, seed, steps);
        let host = linear_array(procs, DelayModel::uniform(1, d), seed);
        let assign = Assignment::blocked(procs, cells);
        let out = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .expect("complete");
        let trace = ReferenceRun::execute(&guest);
        prop_assert!(validate_run(&trace, &out).is_empty());
        prop_assert_eq!(out.stats.total_compute, cells as u64 * steps as u64);
    }

    #[test]
    fn event_and_lockstep_engines_agree_on_all_state(
        procs in 2u32..7,
        cells_per in 1u32..4,
        steps in 1u32..12,
        d in 1u64..50,
        seed in any::<u64>(),
    ) {
        let cells = procs * cells_per;
        let guest = GuestSpec::array(cells, ProgramKind::KvWorkload, seed, steps);
        let host = linear_array(procs, DelayModel::uniform(1, d), seed);
        let assign = Assignment::blocked(procs, cells);
        let cfg = EngineConfig::default();
        let plan = ExecPlan::build(&guest, &host, &assign, cfg).expect("plan");
        let ev = Engine::from_plan(&plan).run().expect("event");
        let lk = run_lockstep(&plan).expect("lockstep");
        let trace = ReferenceRun::execute(&guest);
        prop_assert!(validate_run(&trace, &ev).is_empty());
        prop_assert!(validate_run(&trace, &lk).is_empty());
        let mut a = ev.copies.clone();
        let mut b = lk.copies.clone();
        a.sort_by_key(|c| (c.cell, c.proc));
        b.sort_by_key(|c| (c.cell, c.proc));
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!((x.cell, x.proc), (y.cell, y.proc));
            prop_assert_eq!(x.value_fold, y.value_fold);
            prop_assert_eq!(x.db_digest, y.db_digest);
            prop_assert_eq!(x.update_fold, y.update_fold);
        }
        prop_assert_eq!(ev.stats.messages, lk.stats.messages);
        prop_assert!(ev.stats.makespan <= lk.stats.makespan);
    }

    #[test]
    fn multicast_agrees_with_unicast_and_never_adds_traffic(
        procs in 2u32..7,
        cells_per in 1u32..4,
        steps in 1u32..10,
        d in 1u64..40,
        seed in any::<u64>(),
        extra_copies in 0u32..6,
    ) {
        let cells = procs * cells_per;
        let guest = GuestSpec::array(cells, ProgramKind::Relaxation, seed, steps);
        let host = linear_array(procs, DelayModel::uniform(1, d), seed);
        // blocked + a few deterministic extra copies for fan-out
        let base = Assignment::blocked(procs, cells);
        let mut cells_of: Vec<Vec<u32>> =
            (0..procs).map(|p| base.cells_of(p).to_vec()).collect();
        let mut x = seed | 1;
        for _ in 0..extra_copies {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let p = ((x >> 33) % procs as u64) as usize;
            let c = ((x >> 13) % cells as u64) as u32;
            if !cells_of[p].contains(&c) {
                cells_of[p].push(c);
            }
        }
        let assign = Assignment::from_cells_of(procs, cells, cells_of);
        let uni = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .expect("unicast");
        let mc_cfg = EngineConfig { multicast: true, ..Default::default() };
        let mc = Engine::new(&guest, &host, &assign, mc_cfg).run().expect("multicast");
        let mut a = uni.copies.clone();
        let mut b = mc.copies.clone();
        a.sort_by_key(|c| (c.cell, c.proc));
        b.sort_by_key(|c| (c.cell, c.proc));
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.value_fold, y.value_fold);
            prop_assert_eq!(x.db_digest, y.db_digest);
        }
        prop_assert!(mc.stats.pebble_hops <= uni.stats.pebble_hops);
    }

    #[test]
    fn lockstep_agrees_on_state_and_never_beats_greedy(
        procs in 2u32..6,
        cells_per in 1u32..4,
        steps in 1u32..10,
        d in 1u64..40,
        seed in any::<u64>(),
    ) {
        let cells = procs * cells_per;
        let guest = GuestSpec::array(cells, ProgramKind::KvWorkload, seed, steps);
        let host = linear_array(procs, DelayModel::uniform(1, d), seed);
        let assign = Assignment::blocked(procs, cells);
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).expect("plan");
        let greedy = Engine::from_plan(&plan).run().expect("greedy");
        let lock = run_lockstep(&plan).expect("lockstep");
        prop_assert!(lock.stats.makespan >= greedy.stats.makespan);
        let trace = ReferenceRun::execute(&guest);
        prop_assert!(validate_run(&trace, &lock).is_empty());
    }

    #[test]
    fn makespan_monotone_in_steps(
        procs in 2u32..6,
        d in 1u64..40,
        seed in any::<u64>(),
    ) {
        let host = linear_array(procs, DelayModel::constant(d), 0);
        let assign = Assignment::blocked(procs, procs * 2);
        let mut last = 0;
        for steps in [2u32, 4, 8] {
            let guest = GuestSpec::array(procs * 2, ProgramKind::Relaxation, seed, steps);
            let out = Engine::new(&guest, &host, &assign, EngineConfig::default())
                .run()
                .unwrap();
            prop_assert!(out.stats.makespan >= last);
            last = out.stats.makespan;
        }
    }
}
