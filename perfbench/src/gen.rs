//! Seeded request streams, one per workload.
//!
//! Request `i` of a stream is a pure function of `(workload, seed, i)`,
//! so the timed run, the replay that checks it, and a later run with the
//! same seed all see the same inputs. The program under test only ever
//! receives the generated `ScenarioSpec`s.
//!
//! Sizes are fixed per workload (within the ranges the workload is meant
//! to cover) and the seed varies delays, placements, variants and the
//! scenario mix: a seed that also drew the problem size would move
//! host time per request by several times between seeds, far beyond the
//! run-to-run bounds the benchmark promises.

use overlap_core::{ScenarioSpec, Strategy};
use overlap_model::{GuestSpec, ProgramKind};
use overlap_net::topology::{binary_tree, linear_array, mesh2d, random_regular, ring};
use overlap_net::{DelayModel, HostGraph};
use overlap_sim::FaultPlan;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Daemon: a fault / compute-cost sweep over one base scenario, so
    /// every request after set-up is a plan-cache hit.
    SweepHit,
    /// Daemon: every request has a distinct plan key (the miss path).
    ColdMix,
    /// In process: large KvWorkload scenarios, one caller, no daemon.
    KvLarge,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sweep_hit" => Some(Self::SweepHit),
            "cold_mix" => Some(Self::ColdMix),
            "kv_large" => Some(Self::KvLarge),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::SweepHit => "sweep_hit",
            Self::ColdMix => "cold_mix",
            Self::KvLarge => "kv_large",
        }
    }

    /// Whether the workload goes through the daemon over loopback HTTP.
    pub fn uses_daemon(self) -> bool {
        self != Self::KvLarge
    }
}

/// One request of a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a scenario.
    Scenario(Box<ScenarioSpec>),
    /// Read the persisted runs of the sweep's base plan
    /// (`GET /v1/runs?hash=`).
    Query,
}

/// `cold_mix` draws from 5 hosts × 6 strategies × 6 programs.
const COLD_COMBOS: u64 = 180;

/// One in this many `sweep_hit` requests is a run-history read.
pub const QUERY_EVERY: u64 = 20;

/// `sweep_hit` base scenario: KvWorkload line guest on a heavy-tail line.
const SWEEP_CELLS: u32 = 768;
const SWEEP_STEPS: u32 = 12;
const SWEEP_PROCS: u32 = 192;

/// `kv_large` scenario: far beyond the CPU caches.
const KV_CELLS: u32 = 65_536;
const KV_STEPS: u32 = 16;
const KV_PROCS: u32 = 1024;

fn heavy_tail() -> DelayModel {
    DelayModel::HeavyTail {
        min: 1,
        alpha: 1.2,
        cap: 64,
    }
}

/// SplitMix64: a small, well-mixed generator that needs no dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next();
        r
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.next() as usize % items.len()]
    }
}

/// A workload's request stream under one seed.
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// `sweep_hit`'s base scenario (every request varies it).
    base: Option<ScenarioSpec>,
}

impl Stream {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let base = (workload == Workload::SweepHit).then(|| {
            let mut r = Rng::new(seed, u64::MAX);
            let spec = ScenarioSpec::new(
                GuestSpec::array(SWEEP_CELLS, ProgramKind::KvWorkload, r.next(), SWEEP_STEPS),
                linear_array(SWEEP_PROCS, heavy_tail(), r.next()),
            );
            ScenarioSpec {
                strategy: Strategy::Overlap { c: 4.0 },
                ..spec
            }
        });
        Self {
            workload,
            seed,
            base,
        }
    }

    /// The workload this stream belongs to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The scenario set-up runs before timing starts. For `sweep_hit`
    /// it is the base scenario — its one cold lowering is paid once per
    /// sweep. For the other workloads it is a scenario outside the
    /// stream, so no timed request reuses its work.
    pub fn warmup(&self) -> ScenarioSpec {
        match self.workload {
            Workload::SweepHit => self.base.clone().expect("sweep_hit has a base"),
            Workload::ColdMix => {
                // A fixed shape, so set-up time does not depend on which
                // combination and size the seed would have drawn.
                let mut r = Rng::new(self.seed, u64::MAX);
                let spec = ScenarioSpec::new(
                    GuestSpec::array(2048, ProgramKind::KvWorkload, r.next(), 4),
                    linear_array(128, heavy_tail(), r.next()),
                );
                ScenarioSpec {
                    strategy: Strategy::Overlap { c: 4.0 },
                    ..spec
                }
            }
            Workload::KvLarge => self.kv(u64::MAX),
        }
    }

    /// Request `i` of the stream.
    pub fn request(&self, i: u64) -> Request {
        match self.workload {
            Workload::SweepHit if i % QUERY_EVERY == QUERY_EVERY - 1 => Request::Query,
            Workload::SweepHit => Request::Scenario(Box::new(self.sweep_variant(i))),
            Workload::ColdMix => Request::Scenario(Box::new(self.cold(i))),
            Workload::KvLarge => Request::Scenario(Box::new(self.kv(i))),
        }
    }

    /// The base scenario plus a seeded compute-cost or link-outage
    /// variant. Variants never change the plan key.
    fn sweep_variant(&self, i: u64) -> ScenarioSpec {
        let mut spec = self.base.clone().expect("sweep_hit has a base");
        let mut r = Rng::new(self.seed, i);
        let procs = spec.host.num_nodes() as u64;
        if r.next().is_multiple_of(2) {
            // A few slow workstations: 1 in 8 processors computes at half speed.
            let costs = (0..procs)
                .map(|_| if r.next().is_multiple_of(8) { 2 } else { 1 })
                .collect();
            spec.compute_costs = Some(costs);
        } else {
            // One link goes down for a while early in the run.
            let link = spec.host.links()[r.range(0, procs - 2) as usize];
            let from = r.range(0, 40);
            let until = from + r.range(8, 64);
            spec.faults = Some(FaultPlan::new().link_down(link.a, link.b, from, until));
        }
        spec
    }

    /// A scenario from the cold mix. Each block of [`COLD_COMBOS`]
    /// consecutive requests holds every (host, strategy, program)
    /// combination once, in a seeded order, so runs of any seed see the
    /// same mix; the seed draws the order, delays and sizes. The guest
    /// seed embeds `(seed, i)`, so every index of one stream has its own
    /// plan key.
    fn cold(&self, i: u64) -> ScenarioSpec {
        let mut order: Vec<u64> = (0..COLD_COMBOS).collect();
        let mut shuffle = Rng::new(self.seed, u64::MAX - 1 - i / COLD_COMBOS);
        for k in (1..order.len()).rev() {
            order.swap(k, shuffle.range(0, k as u64) as usize);
        }
        let combo = order[(i % COLD_COMBOS) as usize];
        let (host_kind, strategy_kind, program_kind) = (combo % 5, combo / 5 % 6, combo / 30);
        let mut r = Rng::new(self.seed, i);
        let delays = r.pick(&[
            heavy_tail(),
            DelayModel::Bimodal {
                lo: 1,
                hi: 40,
                p_hi: 0.1,
            },
            DelayModel::uniform(1, 16),
        ]);
        let host_seed = r.next();
        let host: HostGraph = match host_kind {
            0 => linear_array(128, delays, host_seed),
            1 => ring(128, delays, host_seed),
            2 => mesh2d(12, 12, delays, host_seed),
            3 => random_regular(128, 4, delays, host_seed),
            _ => binary_tree(7, delays, host_seed),
        };
        let strategy = [
            Strategy::Overlap { c: 4.0 },
            Strategy::Combined {
                c: 4.0,
                expansion: 4,
            },
            Strategy::Halo { halo: 1 },
            Strategy::Blocked,
            Strategy::WorkStealing { chunk: 0 },
            Strategy::Auto,
        ][strategy_kind as usize];
        let program = [
            ProgramKind::StencilSum,
            ProgramKind::RuleAutomaton { db_size: 8 },
            ProgramKind::KvWorkload,
            ProgramKind::Relaxation,
            ProgramKind::Histogram { buckets: 16 },
            ProgramKind::CacheChurn,
        ][program_kind as usize];
        let cells = r.range(512, 4096) as u32;
        let steps = r.range(2, 8) as u32;
        let guest_seed = (self.seed << 32) ^ i;
        let guest = if r.next().is_multiple_of(2) {
            GuestSpec::array(cells, program, guest_seed, steps)
        } else {
            GuestSpec::ring(cells, program, guest_seed, steps)
        };
        ScenarioSpec {
            strategy,
            ..ScenarioSpec::new(guest, host)
        }
    }

    /// A large KvWorkload scenario with a fresh guest and host seed.
    fn kv(&self, i: u64) -> ScenarioSpec {
        let mut r = Rng::new(self.seed, i);
        let spec = ScenarioSpec::new(
            GuestSpec::array(KV_CELLS, ProgramKind::KvWorkload, r.next(), KV_STEPS),
            linear_array(KV_PROCS, heavy_tail(), r.next()),
        );
        ScenarioSpec {
            strategy: Strategy::Overlap { c: 4.0 },
            ..spec
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn scenarios(w: Workload, seed: u64, n: u64) -> Vec<ScenarioSpec> {
        let s = Stream::new(w, seed);
        (0..n)
            .filter_map(|i| match s.request(i) {
                Request::Scenario(spec) => Some(*spec),
                Request::Query => None,
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_same_specs() {
        for w in [Workload::SweepHit, Workload::ColdMix, Workload::KvLarge] {
            assert_eq!(scenarios(w, 7, 24), scenarios(w, 7, 24), "{}", w.name());
            assert_ne!(scenarios(w, 7, 24), scenarios(w, 8, 24), "{}", w.name());
            let (a, b) = (Stream::new(w, 7), Stream::new(w, 7));
            assert_eq!(a.warmup(), b.warmup());
        }
    }

    #[test]
    fn every_spec_validates() {
        // One full cold_mix block holds every combination.
        for (w, n) in [(Workload::SweepHit, 60), (Workload::ColdMix, COLD_COMBOS)] {
            for seed in [1, 2] {
                let stream = Stream::new(w, seed);
                for spec in scenarios(w, seed, n) {
                    spec.validate()
                        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                }
                stream.warmup().validate().unwrap();
            }
        }
        // kv_large placement is costly; a few requests cover its one shape.
        for spec in scenarios(Workload::KvLarge, 1, 2) {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn cold_mix_keys_are_distinct() {
        let stream = Stream::new(Workload::ColdMix, 3);
        let mut keys = HashSet::new();
        keys.insert(stream.warmup().plan_key().unwrap());
        for spec in scenarios(Workload::ColdMix, 3, 60) {
            assert!(keys.insert(spec.plan_key().unwrap()), "repeated key");
        }
    }

    #[test]
    fn cold_mix_blocks_hold_every_combination_once() {
        for block in 0..2 {
            let combos: HashSet<String> = scenarios(Workload::ColdMix, 6, 2 * COLD_COMBOS)
                .iter()
                .skip((block * COLD_COMBOS) as usize)
                .take(COLD_COMBOS as usize)
                .map(|s| {
                    let host = (s.host.num_nodes(), s.host.links().len());
                    format!("{host:?} {} {:?}", s.strategy.label(), s.guest.program)
                })
                .collect();
            assert_eq!(combos.len() as u64, COLD_COMBOS);
        }
    }

    #[test]
    fn sweep_hit_keys_are_equal() {
        let stream = Stream::new(Workload::SweepHit, 4);
        let base = stream.warmup().plan_key().unwrap();
        let specs = scenarios(Workload::SweepHit, 4, 60);
        assert!(specs.iter().any(|s| s.faults.is_some()));
        assert!(specs.iter().any(|s| s.compute_costs.is_some()));
        for spec in specs {
            assert_eq!(spec.plan_key().unwrap(), base);
        }
    }

    #[test]
    fn sweep_hit_reads_one_request_in_twenty() {
        let stream = Stream::new(Workload::SweepHit, 5);
        let reads = (0..200)
            .filter(|&i| stream.request(i) == Request::Query)
            .count();
        assert_eq!(reads, 10);
    }
}
