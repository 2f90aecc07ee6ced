//! The traced run: per-layer metrics.
//!
//! The run first times one untraced pass over the campaign, the
//! reference for `bench.trace_overhead_share`. Then every cell is
//! built, run and rendered once with a span around each call, then replayed layer by layer
//! ([`crate::replay`]); restart-set cells are also snapshotted and
//! restored. If time is left, cells are run and replayed again, in
//! order, until `--seconds` is up. Spans (name, start, end, parent,
//! cell) stay in memory and are written, with each cell's per-layer
//! totals, to `.bench_build/perfbench/trace-<workload>-<seed>.json` at
//! the end.
//!
//! When a workload has cells of only one engine, the run adds a *twin*:
//! one cell of the campaign run through the other engine on the same
//! input (a single-tenant cell as a one-tenant co-run, or a one-tenant
//! scenario without timeline as a plain `Simulation`), so both engines'
//! metrics exist on every workload. Twins feed only the per-engine
//! metrics.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use neomem::prelude::*;
use neomem_runner::{CorunCellSpec, Json};

use crate::campaign::{guarded, run_cold, RunResult};
use crate::cells::{self, Cell, Shell, Workload};
use crate::replay::{self, Replay, SUMMED_LAYERS};
use crate::stats::Metric;

/// Interleave quantum of a one-tenant co-run twin (the engine default).
const TWIN_QUANTUM: usize = 64;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    cell: Option<usize>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn record(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends, so children can name
    /// it as their parent while it runs.
    fn open(&mut self, name: &'static str, cell: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, cell, None, now, now)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.at(Instant::now());
    }

    /// Times `body` as a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        parent: Option<usize>,
        body: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = body();
        let end = Instant::now();
        self.record(name, cell, parent, start, end);
        (out, end - start)
    }

    fn to_json(&self, cells: &[TracedCell]) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::U64(v as u64));
                Json::obj([
                    ("id", Json::U64(id as u64)),
                    ("name", Json::from(s.name)),
                    ("cell", opt(s.cell)),
                    ("parent", opt(s.parent)),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                ])
            })
            .collect();
        let cells = cells
            .iter()
            .map(|c| {
                Json::obj([
                    ("label", Json::Str(c.cell.label())),
                    (
                        "engine",
                        Json::from(if c.cell.is_corun() { "corun" } else { "single" }),
                    ),
                    ("twin", Json::Bool(c.twin)),
                    ("run_ns_per_access", Json::F64(c.run_ns_per_access())),
                    (
                        "engine_self_ns_per_access",
                        Json::F64(c.self_ns_per_access()),
                    ),
                    ("layers_ns", c.layer_totals()),
                ])
            })
            .collect();
        Json::obj([("cells", Json::Arr(cells)), ("spans", Json::Arr(spans))])
    }
}

/// What the traced run learned about one cell.
struct TracedCell {
    cell: Cell,
    twin: bool,
    build: Vec<Duration>,
    run: Duration,
    accesses: u64,
    report_json: Vec<Duration>,
    replays: Vec<Replay>,
    migrations: u64,
    snapshot: Option<(usize, Duration, Duration)>,
    failure: Option<String>,
}

impl TracedCell {
    fn new(cell: Cell, twin: bool) -> Self {
        Self {
            cell,
            twin,
            build: Vec::new(),
            run: Duration::ZERO,
            accesses: 0,
            report_json: Vec::new(),
            replays: Vec::new(),
            migrations: 0,
            snapshot: None,
            failure: None,
        }
    }

    fn run_ns_per_access(&self) -> f64 {
        self.run.as_nanos() as f64 / self.accesses.max(1) as f64
    }

    /// Replayed time of the summed layers per replayed access.
    fn layers_ns_per_access(&self) -> f64 {
        let time: Duration = self
            .replays
            .iter()
            .flat_map(|r| SUMMED_LAYERS.map(|l| r.time(l)))
            .sum();
        let accesses: u64 = self.replays.iter().map(|r| r.counts.accesses).sum();
        time.as_nanos() as f64 / accesses.max(1) as f64
    }

    /// Replayed time per layer over all of this cell's replays, in ns.
    fn layer_totals(&self) -> Json {
        let mut totals: Vec<(&'static str, Duration)> = Vec::new();
        for &(name, time) in self.replays.iter().flat_map(|r| &r.passes.totals) {
            match totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += time,
                None => totals.push((name, time)),
            }
        }
        Json::Obj(
            totals
                .into_iter()
                .map(|(name, time)| (name.to_string(), Json::U64(time.as_nanos() as u64)))
                .collect(),
        )
    }

    /// `sim.run` minus the replayed layers: the engine's own time.
    fn self_ns_per_access(&self) -> f64 {
        self.run_ns_per_access() - self.layers_ns_per_access()
    }
}

/// The other-engine twin of `cell`, if it has one.
fn twin_of(cell: &Cell) -> Option<Cell> {
    let mut grid_cell = cell.grid_cell.clone();
    if !cell.is_corun() {
        let mix = TenantMix::builder()
            .tenant(grid_cell.workload, cell.shell.rss_pages, 0)
            .build()
            .expect("one tenant");
        grid_cell.corun = Some(CorunCellSpec {
            label: format!("{}-corun-twin", grid_cell.workload.label()),
            mix,
            interleave_quantum: TWIN_QUANTUM,
        });
        return Some(Cell {
            shell: cell.shell.clone(),
            grid_cell,
            restart: false,
        });
    }
    let spec = grid_cell.scenario.take()?;
    let plain = spec.scenario.events().is_empty()
        && spec.scenario.faults().is_empty()
        && spec.scenario.phases().iter().all(Option::is_none);
    let tenants = spec.scenario.mix().tenants();
    if !plain || tenants.len() != 1 {
        return None;
    }
    grid_cell.workload = tenants[0].kind;
    let shell = Shell {
        rss_pages: tenants[0].rss_pages,
        ..cell.shell.clone()
    };
    Some(Cell {
        shell,
        grid_cell,
        restart: false,
    })
}

/// Builds, runs, renders and replays one cell, adding to `traced`.
fn trace_cell(tracer: &mut Tracer, index: usize, traced: &mut TracedCell, first_pass: bool) {
    let cell = traced.cell.clone();
    let root = tracer.open("cell", Some(index));
    let result = guarded(|| {
        let (built, build) = tracer.span("core.build", Some(index), Some(root), || cell.build());
        let built = built.map_err(|e| format!("build failed: {e}"))?;
        let (outcome, run) = tracer.span("sim.run", Some(index), Some(root), || cell.run(built));
        let accesses = outcome.report.accesses;
        if accesses != cell.grid_cell.accesses {
            return Err(format!(
                "simulated {accesses} accesses, budget is {}",
                cell.grid_cell.accesses
            ));
        }
        let first_touch = cell.grid_cell.policy == PolicyKind::FirstTouch && !cell.is_corun();
        let report = first_touch.then(|| outcome.report.clone());
        let migrations = outcome.report.kernel.promotions + outcome.report.kernel.demotions;
        let (json, render) = tracer.span("runner.report_json", Some(index), Some(root), || {
            cell.result_json(outcome)
        });
        let replay_start = Instant::now();
        let replayed = replay::replay(&cell);
        let replay_id = tracer.record(
            "replay",
            Some(index),
            Some(root),
            replay_start,
            Instant::now(),
        );
        for &(name, start, end) in &replayed.passes.intervals {
            tracer.record(name, Some(index), Some(replay_id), start, end);
        }
        if let Some(report) = &report {
            replay::check_fidelity(&replayed, report)?;
        }
        let snapshot = if first_pass && cell.restart {
            let built = cell.build().map_err(|e| format!("build failed: {e}"))?;
            let (snap, _) = tracer.span("sim.snapshot_run", Some(index), Some(root), || {
                cell.snapshot(built)
            });
            let (text, encode) =
                tracer.span("sim.snapshot_encode", Some(index), Some(root), || {
                    snap.render_pretty()
                });
            drop(snap);
            let (warm, decode) =
                tracer.span("sim.snapshot_decode", Some(index), Some(root), || {
                    let snap =
                        Json::parse(&text).map_err(|e| format!("snapshot does not parse: {e}"))?;
                    let built = cell.build().map_err(|e| format!("build failed: {e}"))?;
                    cell.run_from(built, &snap)
                        .map_err(|e| format!("restore failed: {e}"))
                });
            if cell.result_json(warm?) != json {
                return Err("warm result differs from the cold result".into());
            }
            Some((text.len(), encode, decode))
        } else {
            None
        };
        Ok((build, run, accesses, render, replayed, migrations, snapshot))
    });
    tracer.close(root);
    match result {
        Ok((build, run, accesses, render, replayed, migrations, snapshot)) => {
            traced.build.push(build);
            traced.run += run;
            traced.accesses += accesses;
            traced.report_json.push(render);
            traced.replays.push(replayed);
            if first_pass {
                traced.migrations = migrations;
            }
            if snapshot.is_some() {
                traced.snapshot = snapshot;
            }
        }
        Err(reason) => traced.failure = Some(reason),
    }
}

/// Runs the traced benchmark and derives the per-layer metrics.
///
/// # Errors
///
/// Fails when the campaign cannot be loaded.
pub fn run(workload: Workload, seed: u64, seconds: u64, root: &Path) -> Result<RunResult, String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let mut tracer = Tracer::new();
    let (campaign, registry) = tracer.span("runner.registry_load", None, None, || {
        cells::load(workload, seed, root)
    });
    let campaign = campaign?;
    let mut traced: Vec<TracedCell> = campaign
        .cells
        .into_iter()
        .map(|c| TracedCell::new(c, false))
        .collect();
    let has = |corun: bool| traced.iter().any(|t| t.cell.is_corun() == corun);
    let (has_single, has_corun) = (has(false), has(true));
    if !(has_single && has_corun) {
        let twin = traced
            .iter()
            .filter(|t| t.cell.grid_cell.policy == PolicyKind::NeoMem || t.cell.is_corun())
            .find_map(|t| twin_of(&t.cell));
        traced.extend(twin.map(|c| TracedCell::new(c, true)));
    }

    let (bare, _) = tracer.span("bench.untraced_pass", None, None, || {
        bare_ns_per_access(&traced)
    });
    for (index, t) in traced.iter_mut().enumerate() {
        trace_cell(&mut tracer, index, t, true);
    }
    'passes: while traced.iter().any(|t| t.failure.is_none()) {
        for (index, t) in traced.iter_mut().enumerate() {
            if Instant::now() >= deadline {
                break 'passes;
            }
            if t.failure.is_none() && !t.twin {
                trace_cell(&mut tracer, index, t, false);
            }
        }
    }
    let wall = started.elapsed();

    for t in &traced {
        if let Some(reason) = &t.failure {
            println!("FAILED cell {}: {reason}", t.cell.label());
        }
    }
    print_cells(&traced);

    let dir = root.join(".bench_build").join("perfbench");
    let path = dir.join(format!("trace-{}-{seed}.json", workload.name()));
    let spans = tracer.spans.len();
    fs::create_dir_all(&dir)
        .and_then(|()| fs::write(&path, tracer.to_json(&traced).render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace: {spans} spans -> {}", path.display());

    println!(
        "span recording: {:.5} of the traced wall time",
        span_cost().as_secs_f64() * spans as f64 / wall.as_secs_f64()
    );
    let main: Vec<&TracedCell> = traced
        .iter()
        .filter(|t| t.failure.is_none() && !t.twin)
        .collect();
    let overhead = if bare > 0.0 {
        engine_mean(&main, TracedCell::run_ns_per_access) / bare - 1.0
    } else {
        0.0
    };
    let attempted = traced.len();
    let failed = traced.iter().filter(|t| t.failure.is_some()).count();
    let metrics = layer_metrics(&traced, registry, overhead);
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}

/// One untraced pass over the campaign's cells (twins excluded): the
/// reference the traced runs' `sim.run` is compared with. Failures
/// are left for the traced pass to report.
fn bare_ns_per_access(traced: &[TracedCell]) -> f64 {
    let (mut wall, mut accesses) = (0.0, 0u64);
    for t in traced.iter().filter(|t| !t.twin) {
        if let Ok((run, _, _)) = run_cold(&t.cell) {
            wall += run;
            accesses += t.cell.grid_cell.accesses;
        }
    }
    wall * 1e9 / accesses.max(1) as f64
}

/// Cost of recording one span, calibrated on a scratch recorder.
fn span_cost() -> Duration {
    const N: u32 = 10_000;
    let mut scratch = Tracer::new();
    let start = Instant::now();
    for _ in 0..N {
        let t = Instant::now();
        scratch.record("calibration", None, None, t, Instant::now());
    }
    start.elapsed() / N
}

fn print_cells(traced: &[TracedCell]) {
    println!(
        "{:<44} {:>7} {:>14} {:>16}",
        "cell", "engine", "run ns/access", "self ns/access"
    );
    for t in traced.iter().filter(|t| t.failure.is_none()) {
        let engine = if t.cell.is_corun() { "corun" } else { "single" };
        let label = if t.twin {
            format!("{} (twin)", t.cell.label())
        } else {
            t.cell.label()
        };
        println!(
            "{label:<44} {engine:>7} {:>14.1} {:>16.1}",
            t.run_ns_per_access(),
            t.self_ns_per_access()
        );
    }
    let engine_self = |corun: bool| {
        let cells: Vec<&TracedCell> = traced
            .iter()
            .filter(|t| t.failure.is_none() && t.cell.is_corun() == corun && !t.twin)
            .collect();
        (!cells.is_empty()).then(|| engine_mean(&cells, TracedCell::self_ns_per_access))
    };
    if let (Some(single), Some(corun)) = (engine_self(false), engine_self(true)) {
        println!(
            "engine self time, co-run / single-tenant: {:.1}x",
            corun / single
        );
    }
}

/// Access-weighted mean of a per-cell ns/access figure.
fn engine_mean(cells: &[&TracedCell], per_access: fn(&TracedCell) -> f64) -> f64 {
    let accesses: u64 = cells.iter().map(|t| t.accesses).sum();
    cells
        .iter()
        .map(|t| per_access(t) * t.accesses as f64)
        .sum::<f64>()
        / accesses.max(1) as f64
}

fn layer_metrics(traced: &[TracedCell], registry: Duration, overhead: f64) -> Vec<Metric> {
    let ok: Vec<&TracedCell> = traced.iter().filter(|t| t.failure.is_none()).collect();
    let main: Vec<&TracedCell> = ok.iter().copied().filter(|t| !t.twin).collect();
    let replays = || main.iter().flat_map(|t| &t.replays);
    let total = |name: &str| replays().map(|r| r.time(name)).sum::<Duration>().as_nanos() as f64;
    let count = |f: fn(&Replay) -> u64| replays().map(f).sum::<u64>() as f64;
    // A layer that saw no work on this workload reads 0.
    let per = |name: &str, f: fn(&Replay) -> u64| {
        let n = count(f);
        if n == 0.0 {
            0.0
        } else {
            total(name) / n
        }
    };
    let accesses = count(|r| r.counts.accesses).max(1.0);
    let engine = |corun: bool, f: fn(&TracedCell) -> f64| {
        let cells: Vec<&TracedCell> = ok
            .iter()
            .copied()
            .filter(|t| t.cell.is_corun() == corun)
            .collect();
        engine_mean(&cells, f)
    };
    let ms =
        |d: &[Duration]| d.iter().sum::<Duration>().as_secs_f64() * 1e3 / d.len().max(1) as f64;
    let builds: Vec<Duration> = main.iter().flat_map(|t| t.build.iter().copied()).collect();
    let renders: Vec<Duration> = main
        .iter()
        .flat_map(|t| t.report_json.iter().copied())
        .collect();
    let snaps: Vec<(usize, Duration, Duration)> = main.iter().filter_map(|t| t.snapshot).collect();
    let snap_cells = snaps.len().max(1) as f64;
    vec![
        Metric::new(
            "workloads.fill_ns_per_event",
            per("workloads.fill", |r| r.counts.events),
            "ns",
        ),
        Metric::new(
            "cache.tlb_ns_per_access",
            total("cache.tlb") / accesses,
            "ns",
        ),
        Metric::new(
            "cache.tlb_miss_ratio",
            count(|r| r.counts.tlb_misses) / accesses,
            "ratio",
        ),
        Metric::new(
            "cache.hierarchy_ns_per_access",
            total("cache.hierarchy") / accesses,
            "ns",
        ),
        Metric::new(
            "cache.llc_miss_ratio",
            count(|r| r.counts.llc_misses) / accesses,
            "ratio",
        ),
        Metric::new(
            "kernel.translate_ns_per_access",
            total("kernel.translate") / accesses,
            "ns",
        ),
        Metric::new(
            "kernel.first_touch_ns_per_fault",
            per("kernel.first_touch", |r| r.counts.minor_faults),
            "ns",
        ),
        Metric::new(
            "kernel.minor_faults",
            count(|r| r.counts.minor_faults),
            "count",
        ),
        Metric::new(
            "kernel.migrations",
            main.iter().map(|t| t.migrations).sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "mem.service_ns_per_request",
            per("mem.service", |r| r.counts.mem_requests),
            "ns",
        ),
        Metric::new(
            "mem.slow_tier_share",
            count(|r| r.counts.slow_requests) / count(|r| r.counts.mem_requests).max(1.0),
            "share",
        ),
        Metric::new(
            "neoprof.snoop_ns_per_request",
            per("neoprof.snoop", |r| r.counts.snoops),
            "ns",
        ),
        Metric::new(
            "sketch.histogram_ns_per_sweep",
            per("sketch.histogram", |r| r.counts.sweeps),
            "ns",
        ),
        Metric::new(
            "profilers.pebs_ns_per_access",
            per("profilers.pebs", |r| r.counts.policy_events),
            "ns",
        ),
        Metric::new(
            "profilers.pte_scan_ns_per_page",
            per("profilers.pte_scan", |r| r.counts.scanned_pages),
            "ns",
        ),
        Metric::new(
            "policies.on_access_ns_per_event",
            per("policies.on_access", |r| r.counts.policy_events),
            "ns",
        ),
        Metric::new(
            "policies.tick_us_per_tick",
            per("policies.tick", |r| r.counts.ticks) / 1e3,
            "us",
        ),
        Metric::new("policies.ticks", count(|r| r.counts.ticks), "count"),
        Metric::new(
            "sim.run_ns_per_access",
            engine_mean(&main, TracedCell::run_ns_per_access),
            "ns",
        ),
        Metric::new(
            "sim.single_run_ns_per_access",
            engine(false, TracedCell::run_ns_per_access),
            "ns",
        ),
        Metric::new(
            "sim.corun_run_ns_per_access",
            engine(true, TracedCell::run_ns_per_access),
            "ns",
        ),
        Metric::new(
            "sim.engine_self_ns_per_access",
            engine_mean(&main, TracedCell::self_ns_per_access),
            "ns",
        ),
        Metric::new(
            "sim.single_engine_self_ns_per_access",
            engine(false, TracedCell::self_ns_per_access),
            "ns",
        ),
        Metric::new(
            "sim.corun_engine_self_ns_per_access",
            engine(true, TracedCell::self_ns_per_access),
            "ns",
        ),
        Metric::new(
            "sim.snapshot_bytes_per_cell",
            snaps.iter().map(|s| s.0 as f64).sum::<f64>() / snap_cells,
            "bytes",
        ),
        Metric::new(
            "sim.snapshot_encode_ms_per_cell",
            snaps.iter().map(|s| s.1.as_secs_f64()).sum::<f64>() * 1e3 / snap_cells,
            "ms",
        ),
        Metric::new(
            "sim.snapshot_decode_ms_per_cell",
            snaps.iter().map(|s| s.2.as_secs_f64()).sum::<f64>() * 1e3 / snap_cells,
            "ms",
        ),
        Metric::new("core.build_ms_per_cell", ms(&builds), "ms"),
        Metric::new(
            "runner.registry_load_ms",
            registry.as_secs_f64() * 1e3,
            "ms",
        ),
        Metric::new("runner.report_json_ms_per_cell", ms(&renders), "ms"),
        Metric::new("bench.trace_overhead_share", overhead, "share"),
    ]
}
