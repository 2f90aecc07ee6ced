//! Captured-lane replay: rebuilds a cell's access stream from its
//! public generators, then feeds each layer, in its own tight timed
//! loop, the input that layer sees inside the engine.
//!
//! The passes run in pipeline order, each on fresh layer state, and
//! each records the lane the next pass consumes:
//!
//! | pass | layer call | input lane | output lane |
//! |---|---|---|---|
//! | `workloads.fill` | `Workload::fill_events` | — | accesses |
//! | `cache.tlb` | `Tlb::access` | pages | TLB hit bits |
//! | `kernel.first_touch` | `Kernel::touch_alloc_preferring` | first touches | mappings |
//! | `kernel.translate` | `Kernel::translate` (+ walk bookkeeping) | pages, hit bits | frames |
//! | `cache.hierarchy` | `CacheHierarchy::access` | lines | levels, fills, victims |
//! | `mem.service` | `TieredMemory::service` | fills, victims, clock | request clocks |
//! | `policies.on_access` / `policies.tick` | `TieringPolicy::on_access` / `maybe_tick` | access events, tick instants | — |
//!
//! The policy pass interleaves the access hook (chunks between tick
//! instants), PEBS on the same chunks, and ticks; it is one span
//! (`policies.pass`) and records each layer's total time.
//!
//! Then the profiler mechanisms alone, on the same lanes:
//! `profilers.pebs` (`PebsSampler::on_access`), `neoprof.snoop`
//! (`NeoProf::snoop` + `tick`, NeoMem cells), `sketch.histogram`
//! (`CmSketch::lane_histogram`, NeoMem cells) and `profilers.pte_scan`
//! (`PteScanner::scan_epoch`). These are parts of the policy layer, so
//! they are not added into the layer sum.
//!
//! For a single-tenant first-touch cell nothing migrates, unmaps or
//! shoots down a TLB entry, so the replay is exact: [`check_fidelity`]
//! requires its counters to equal the cell's `RunReport`. Elsewhere the
//! replay approximates: the policy's migrations do not feed back into
//! the earlier passes, co-run streams are rebuilt as a static weighted
//! round robin of the mix (a scenario's timeline and phases are not
//! replayed), and the replay clock leaves out policy and tick charges.

use std::hint::black_box;
use std::time::{Duration, Instant};

use neomem::cache::{CacheHierarchy, HitLevel, Tlb};
use neomem::kernel::{Kernel, KernelConfig};
use neomem::mem::TieredMemory;
use neomem::neoprof::{NeoProf, NeoProfConfig};
use neomem::policies::TieringPolicy;
use neomem::prelude::*;
use neomem::profilers::{
    AccessEvent, NeoProfDriverConfig, PebsConfig, PebsSampler, PteScanConfig, PteScanner,
};
use neomem::sketch::{CmSketch, SketchParams};
use neomem::types::{Access, AccessKind, CacheLine, DevicePage, MemRequest, PageNum, VirtPage};
use neomem::workloads::WorkloadEvent;

use crate::cells::{Cell, TIME_SCALE};

/// Histogram sweeps per sketch lane.
const SWEEPS_PER_LANE: usize = 4;

/// One timed pass: the layer name and its interval.
pub type Interval = (&'static str, Instant, Instant);

/// Work counts of one replayed cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub events: u64,
    pub accesses: u64,
    pub tlb_misses: u64,
    pub minor_faults: u64,
    pub llc_misses: u64,
    pub mem_requests: u64,
    pub slow_requests: u64,
    pub policy_events: u64,
    pub ticks: u64,
    pub snoops: u64,
    pub sweeps: u64,
    pub scanned_pages: u64,
}

/// The result of replaying one cell.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Work counts.
    pub counts: Counts,
    /// Timed passes.
    pub passes: Passes,
    /// Counters compared by [`check_fidelity`].
    pub observed: Observed,
}

/// Layers whose time sums to the engine's per-access work; the
/// profiler passes are parts of the policy layer and are left out.
pub const SUMMED_LAYERS: [&str; 8] = [
    "workloads.fill",
    "cache.tlb",
    "kernel.first_touch",
    "kernel.translate",
    "cache.hierarchy",
    "mem.service",
    "policies.on_access",
    "policies.tick",
];

impl Replay {
    /// Total time of the layer `name`.
    pub fn time(&self, name: &str) -> Duration {
        self.passes
            .totals
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .sum()
    }
}

/// The timed passes of one replay: one span per pass, and the time of
/// each layer. A pass is usually one layer; the policy pass interleaves
/// the access hook, PEBS and ticks, and records each one's total.
#[derive(Debug, Clone, Default)]
pub struct Passes {
    /// One interval per pass, in order.
    pub intervals: Vec<Interval>,
    /// Time per layer.
    pub totals: Vec<(&'static str, Duration)>,
}

impl Passes {
    /// Times `body` as the single-layer pass `name`.
    fn timed<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = body();
        let end = Instant::now();
        self.intervals.push((name, start, end));
        self.totals.push((name, end - start));
        out
    }
}

/// Runs `body`, adding its time to `total`.
fn add_time<T>(total: &mut Duration, body: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = body();
    *total += start.elapsed();
    out
}

/// Rebuilds the cell's access stream: single-tenant cells pull
/// batches exactly as the engine does; co-run cells interleave their
/// tenants' slices by weight, relocated to each tenant's page base.
fn access_stream(
    cell: &Cell,
    config: &SimConfig,
    counts: &mut Counts,
    passes: &mut Passes,
) -> Vec<Access> {
    let mix = cell.mix();
    let mut generators = mix.build_workloads();
    let bases = mix.bases();
    let budget = cell.grid_cell.accesses;
    let slices: Vec<usize> = if cell.is_corun() {
        mix.weights()
            .iter()
            .map(|&w| cell.quantum() * w as usize)
            .collect()
    } else {
        vec![config.batch_size.max(1)]
    };
    let mut accesses = Vec::with_capacity(budget as usize);
    let mut buf = Vec::new();
    let start = Instant::now();
    while (accesses.len() as u64) < budget {
        for (t, generator) in generators.iter_mut().enumerate() {
            let n = (budget - accesses.len() as u64).min(slices[t] as u64) as usize;
            if n == 0 {
                break;
            }
            buf.clear();
            generator.fill_events(&mut buf, n);
            counts.events += buf.len() as u64;
            for event in &buf {
                if let WorkloadEvent::Access(a) = event {
                    accesses.push(Access {
                        vpage: VirtPage::new(a.vpage.index() + bases[t]),
                        ..*a
                    });
                }
            }
        }
    }
    let end = Instant::now();
    passes.intervals.push(("workloads.fill", start, end));
    passes.totals.push(("workloads.fill", end - start));
    counts.accesses = accesses.len() as u64;
    accesses
}

/// Replays `cell` layer by layer.
///
/// # Panics
///
/// Panics when a layer rejects its captured input (for example the
/// replayed machine runs out of frames) — the caller counts the cell
/// as failed.
pub fn replay(cell: &Cell) -> Replay {
    let config = cell.sim_config();
    let overrides = cell.overrides();
    let mut counts = Counts::default();
    let mut passes = Passes::default();
    let accesses = access_stream(cell, &config, &mut counts, &mut passes);
    let n = accesses.len();

    // TLB.
    let mut tlb = Tlb::new(config.tlb);
    let mut hit = vec![false; n];
    passes.timed("cache.tlb", || {
        for (h, a) in hit.iter_mut().zip(&accesses) {
            *h = tlb.access(a.vpage);
        }
    });
    counts.tlb_misses = tlb.stats().misses;

    // First touches: the first access to each page misses the TLB and
    // maps it (nothing in the replay unmaps).
    let mut seen = vec![false; config.rss_pages as usize];
    let mut faulted = vec![false; n];
    let mut first_touches = Vec::new();
    for (i, a) in accesses.iter().enumerate() {
        let page = a.vpage.index() as usize;
        if !seen[page] {
            seen[page] = true;
            faulted[i] = true;
            first_touches.push(a.vpage);
        }
    }
    drop(seen);
    let mut policy = build_policy(cell.grid_cell.policy, &config, TIME_SCALE, overrides)
        .expect("policy built for the cell already");
    let preference = policy.alloc_preference();
    let mut kernel = Kernel::new(KernelConfig {
        memory: config.memory_config(),
        rss_pages: config.rss_pages,
        costs: config.costs,
    });
    passes.timed("kernel.first_touch", || {
        for &vpage in &first_touches {
            kernel
                .touch_alloc_preferring(vpage, preference, Nanos::ZERO)
                .expect("replayed machine out of physical memory");
        }
    });
    counts.minor_faults = kernel.stats().minor_faults;

    // Translation on the populated page table, with the walk's
    // bookkeeping on TLB misses.
    let mut frames = Vec::with_capacity(n);
    passes.timed("kernel.translate", || {
        for (a, &h) in accesses.iter().zip(&hit) {
            if !h {
                kernel
                    .touch_alloc_preferring(a.vpage, preference, Nanos::ZERO)
                    .expect("page mapped by the first-touch pass");
                let _ = kernel.page_table_mut().mark_accessed(a.vpage);
            }
            frames.push(
                kernel
                    .translate(a.vpage)
                    .expect("page mapped by the first-touch pass"),
            );
        }
    });

    // Cache hierarchy (virtually indexed, as in the engine).
    let mut caches = CacheHierarchy::new(config.caches);
    let mut levels = Vec::with_capacity(n);
    let mut fills = Vec::with_capacity(n);
    let mut victim_lines: Vec<(usize, CacheLine)> = Vec::new();
    passes.timed("cache.hierarchy", || {
        for (i, a) in accesses.iter().enumerate() {
            let line = CacheLine::of_page(PageNum::new(a.vpage.index()), u64::from(a.line_in_page));
            let outcome = caches.access(line, a.kind);
            levels.push(outcome.level);
            fills.push(outcome.traffic.fill.is_some());
            if let Some(victim) = outcome.traffic.writeback {
                victim_lines.push((i, victim));
            }
        }
    });
    counts.llc_misses = caches.stats().llc_misses;
    let victims: Vec<(usize, VirtPage, PageNum)> = victim_lines
        .iter()
        .filter_map(|&(i, line)| {
            let vpage = VirtPage::new(line.page().index());
            kernel.translate(vpage).ok().map(|frame| (i, vpage, frame))
        })
        .collect();

    // Clock-independent per-access time, as the engine charges it.
    let fixed: Vec<Nanos> = (0..n)
        .map(|i| {
            let mut t = config.cpu_per_access;
            if !hit[i] {
                t += config.tlb_walk;
            }
            if faulted[i] {
                t += kernel.minor_fault_cost();
            }
            t + match levels[i] {
                HitLevel::L1 => config.cache_latencies.l1,
                HitLevel::L2 => config.cache_latencies.l2,
                HitLevel::Llc => config.cache_latencies.llc,
                HitLevel::Memory => Nanos::ZERO,
            }
        })
        .collect();

    // Memory nodes: demand fills and writebacks on the replay clock.
    let mut memory = TieredMemory::new(config.memory_config());
    let mut now = Vec::with_capacity(n + 1);
    passes.timed("mem.service", || {
        let mut clock = Nanos::ZERO;
        let mut w = 0;
        for i in 0..n {
            now.push(clock);
            let mut elapsed = fixed[i];
            if fills[i] {
                elapsed += memory.service(frames[i], AccessKind::Read, clock);
            }
            while w < victims.len() && victims[w].0 == i {
                let _ = memory.service(victims[w].2, AccessKind::Write, clock);
                w += 1;
            }
            clock += elapsed;
        }
        now.push(clock);
    });
    let fast = memory.node(Tier::Fast).stats();
    let slow = memory.node(Tier::Slow).stats();
    counts.mem_requests = fast.reads + fast.writes + slow.reads + slow.writes;
    counts.slow_requests = slow.reads + slow.writes;

    // Policy: access hook over the event lane, a tick whenever the
    // replay clock passes the tick deadline (the engine's cadence).
    let mut pebs = PebsSampler::new(PebsConfig::default());
    let mut slow_reqs = Vec::new();
    let mut chunk: Vec<AccessEvent> = Vec::new();
    let mut shootdowns = Vec::new();
    let mut next_tick = Nanos::ZERO;
    let (mut i, mut w) = (0, 0);
    let (mut on_access, mut pebs_time, mut ticks) = Default::default();
    let policy_start = Instant::now();
    while i < n {
        chunk.clear();
        while i < n {
            while w < victims.len() && victims[w].0 == i {
                let (_, vpage, frame) = victims[w];
                let tier = kernel.memory().tier_of(frame);
                chunk.push(AccessEvent {
                    vpage,
                    frame,
                    tier,
                    kind: AccessKind::Write,
                    tlb_hit: true,
                    llc_miss: true,
                    now: now[i],
                });
                w += 1;
            }
            let a = accesses[i];
            chunk.push(AccessEvent {
                vpage: a.vpage,
                frame: frames[i],
                tier: kernel.memory().tier_of(frames[i]),
                kind: a.kind,
                tlb_hit: hit[i],
                llc_miss: levels[i].is_llc_miss(),
                now: now[i],
            });
            i += 1;
            if now[i] >= next_tick {
                break;
            }
        }
        add_time(&mut on_access, || {
            for ev in &chunk {
                let _ = policy.on_access(ev, &mut kernel);
            }
        });
        add_time(&mut pebs_time, || {
            for ev in &chunk {
                let _ = pebs.on_access(ev);
            }
        });
        counts.policy_events += chunk.len() as u64;
        slow_reqs.extend(
            chunk
                .iter()
                .filter(|ev| ev.llc_miss && ev.tier == Tier::Slow)
                .map(|ev| MemRequest::new(ev.frame, 0, ev.kind)),
        );
        if now[i] >= next_tick {
            add_time(&mut ticks, || {
                let _ = policy.maybe_tick(&mut kernel, now[i]);
                policy.drain_shootdowns_into(&mut shootdowns);
            });
            shootdowns.clear();
            counts.ticks += 1;
            next_tick = now[i] + config.tick_quantum;
        }
    }

    passes
        .intervals
        .push(("policies.pass", policy_start, Instant::now()));
    passes.totals.extend([
        ("policies.on_access", on_access),
        ("profilers.pebs", pebs_time),
        ("policies.tick", ticks),
    ]);

    // NeoProf device and its sketch, fed the slow-tier misses.
    if matches!(
        cell.grid_cell.policy,
        PolicyKind::NeoMem | PolicyKind::NeoMemFixed(_) | PolicyKind::NeoMemContentionAware
    ) {
        let slow_base = PageNum::new(config.memory_config().fast.capacity_frames);
        let sketch_params = overrides.sketch.unwrap_or_else(SketchParams::paper_default);
        let mut device_config = NeoProfConfig::paper_default(slow_base);
        device_config.sketch = sketch_params;
        let mut device = NeoProf::new(device_config).expect("policy accepted these parameters");
        let occupancy = NeoProfDriverConfig::scaled(TIME_SCALE).snoop_occupancy;
        passes.timed("neoprof.snoop", || {
            for &req in &slow_reqs {
                device.snoop(req, occupancy);
                device.tick();
            }
        });
        counts.snoops = slow_reqs.len() as u64;

        let mut sketch = CmSketch::new(sketch_params).expect("policy accepted these parameters");
        for req in &slow_reqs {
            sketch.update(DevicePage::new(req.frame.index() - slow_base.index()));
        }
        passes.timed("sketch.histogram", || {
            for _ in 0..SWEEPS_PER_LANE {
                for lane in 0..sketch_params.depth {
                    black_box(sketch.lane_histogram(lane));
                }
            }
        });
        counts.sweeps = (SWEEPS_PER_LANE * sketch_params.depth) as u64;
    }

    // One PTE-scan epoch over the replayed page table.
    let mut scanner = PteScanner::new(PteScanConfig::default(), config.rss_pages);
    passes.timed("profilers.pte_scan", || {
        black_box(scanner.scan_epoch(&mut kernel))
    });
    counts.scanned_pages = config.rss_pages;

    let cache = caches.stats();
    let observed = [
        ("tlb_hits", tlb.stats().hits),
        ("tlb_misses", counts.tlb_misses),
        ("minor_faults", counts.minor_faults),
        ("l1_hits", cache.l1.hits),
        ("l2_hits", cache.l2.hits),
        ("llc_hits", cache.llc.hits),
        ("fast_reads", fast.reads),
        ("fast_writes", fast.writes),
        ("slow_reads", slow.reads),
        ("slow_writes", slow.writes),
    ];
    Replay {
        counts,
        passes,
        observed,
    }
}

/// The replay's counters, named as in [`check_fidelity`].
pub type Observed = [(&'static str, u64); 10];

/// Requires the replayed counters to equal the engine's report — the
/// proof that each layer was timed on the input it really sees. Holds
/// for single-tenant first-touch cells, where the replay is exact.
pub fn check_fidelity(replay: &Replay, report: &RunReport) -> Result<(), String> {
    let expected = [
        report.tlb.hits,
        report.tlb.misses,
        report.kernel.minor_faults,
        report.cache.l1.hits,
        report.cache.l2.hits,
        report.cache.llc.hits,
        report.fast_reads,
        report.fast_writes,
        report.slow_reads,
        report.slow_writes,
    ];
    let mismatches: Vec<String> = replay
        .observed
        .iter()
        .zip(expected)
        .filter(|((_, got), want)| got != want)
        .map(|((name, got), want)| format!("{name}: replay {got}, engine {want}"))
        .collect();
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!("replay fidelity: {}", mismatches.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Shell;
    use neomem_runner::ExperimentGrid;

    fn cell(workload: WorkloadKind, policy: PolicyKind) -> Cell {
        let grid = ExperimentGrid::new("replay")
            .rss_pages(2048)
            .ratios([2])
            .seeds([5])
            .budgets([60_000])
            .time_scale(TIME_SCALE)
            .workloads([workload])
            .policies([policy]);
        let shell = Shell {
            name: "replay".into(),
            rss_pages: 2048,
            large_machine: false,
            machine: None,
        };
        Cell {
            shell,
            grid_cell: grid.cells().remove(0),
            restart: false,
        }
    }

    #[test]
    fn first_touch_replay_matches_the_engine() {
        for workload in [WorkloadKind::Gups, WorkloadKind::Silo, WorkloadKind::Btree] {
            let cell = cell(workload, PolicyKind::FirstTouch);
            let report = cell.run(cell.build().expect("builds")).report;
            let replayed = replay(&cell);
            assert_eq!(replayed.counts.accesses, 60_000);
            check_fidelity(&replayed, &report).expect("replay is exact");
        }
    }

    #[test]
    fn fidelity_reports_mismatches_by_name() {
        let cell = cell(WorkloadKind::Gups, PolicyKind::FirstTouch);
        let mut report = cell.run(cell.build().expect("builds")).report;
        report.tlb.misses += 1;
        let err = check_fidelity(&replay(&cell), &report).expect_err("counter differs");
        assert!(err.contains("tlb_misses"), "{err}");
    }

    #[test]
    fn every_layer_is_timed() {
        let replayed = replay(&cell(WorkloadKind::Silo, PolicyKind::NeoMem));
        for layer in SUMMED_LAYERS
            .iter()
            .chain(&["neoprof.snoop", "sketch.histogram"])
        {
            assert!(
                replayed.passes.totals.iter().any(|(n, _)| n == layer),
                "{layer}"
            );
        }
        assert!(replayed.counts.ticks > 0 && replayed.counts.snoops > 0);
    }
}
