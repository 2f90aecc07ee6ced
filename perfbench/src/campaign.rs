//! The untraced run: executes a workload's campaign back to back on
//! one thread for the requested time, checks every cell, and derives
//! the end-to-end metrics.
//!
//! A run has three phases:
//!
//! 1. **Set-up**, 5 to 25 times: load the campaign (registry
//!    load and parse, grid expansion) and build every cell, timing only
//!    the builds; the built cells are dropped unrun.
//! 2. **Round 1**: every cell runs cold, then each cell of the restart
//!    set is snapshotted to a file and restored once from it.
//! 3. **Later rounds**: the cells run again, in order, until the time
//!    is up; every rerun must reproduce its round-1 result exactly.
//!    Between cold runs, the restart-set cells are restored again in
//!    rotation, whenever restores have so far taken less than
//!    [`WARM_SHARE`] of the time cold runs took. The restores are thus
//!    spread over the whole run, like the cold runs. Every restore is
//!    checked byte for byte against the cell's cold result.
//!
//! Snapshot files live under `.bench_build/perfbench/` and are removed
//! at the end of the run.
//!
//! Simulated statistics start from cold caches and an empty page table
//! in every cell; no warm-up is discarded.

use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use neomem::prelude::*;
use neomem_runner::Json;

use crate::cells::{self, Campaign, Cell, Workload};
use crate::stats::{geomean, median, Metric};

/// Set-up repetitions: at least `SETUP_MIN_REPS`, more while the
/// repetitions so far took under `SETUP_MIN_SECONDS`, at most
/// `SETUP_MAX_REPS`. `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Restores run while their time so far is under this share of the
/// time spent on cold runs.
const WARM_SHARE: f64 = 0.5;

/// Runs `f`, turning a panic or an `Err` into a failure message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(msg) => format!("panicked: {msg}"),
            None => match payload.downcast_ref::<String>() {
                Some(msg) => format!("panicked: {msg}"),
                None => "panicked".to_string(),
            },
        }),
    }
}

/// Builds, runs and checks one cell cold: it must simulate exactly its
/// budget. Returns the run's wall seconds, its result JSON and the
/// simulated facts the metrics need.
pub fn run_cold(cell: &Cell) -> Result<(f64, String, SimFacts), String> {
    guarded(|| {
        let built = cell.build().map_err(|e| format!("build failed: {e}"))?;
        let start = Instant::now();
        let outcome = cell.run(built);
        let wall = start.elapsed().as_secs_f64();
        let budget = cell.grid_cell.accesses;
        if outcome.report.accesses != budget {
            return Err(format!(
                "simulated {} accesses, budget is {budget}",
                outcome.report.accesses
            ));
        }
        let facts = SimFacts {
            runtime_ns: outcome.report.runtime.as_nanos(),
            fairness: outcome.corun.as_ref().map(|c| c.occupancy_fairness),
        };
        Ok((wall, cell.result_json(outcome), facts))
    })
}

/// The simulated quantities of one finished cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFacts {
    /// Virtual-clock runtime.
    pub runtime_ns: u64,
    /// Occupancy fairness of co-run cells.
    pub fairness: Option<f64>,
}

/// Everything recorded about one cell over a run.
#[derive(Debug, Default)]
struct CellRecord {
    walls: Vec<f64>,
    first: Option<(String, SimFacts)>,
    snapshot: Option<PathBuf>,
    warm: Vec<f64>,
    failure: Option<String>,
}

impl CellRecord {
    fn fail(&mut self, reason: String) {
        if self.failure.is_none() {
            self.failure = Some(reason);
        }
    }

    fn record_cold(&mut self, result: Result<(f64, String, SimFacts), String>) {
        match result {
            Err(reason) => self.fail(reason),
            Ok((wall, json, facts)) => {
                self.walls.push(wall);
                match &self.first {
                    None => self.first = Some((json, facts)),
                    Some((first, _)) if *first != json => {
                        self.fail("rerun result differs from round 1".into())
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// The outcome of an untraced run.
pub struct RunResult {
    /// Cells attempted.
    pub attempted: usize,
    /// Cells that failed a check, panicked or returned `Err`.
    pub failed: usize,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Times repeated loads + builds of the campaign; returns the last
/// load and the per-repetition set-up seconds.
fn measure_setup(
    workload: Workload,
    seed: u64,
    root: &Path,
) -> Result<(Campaign, Vec<f64>), String> {
    let mut samples = Vec::new();
    let mut campaign = None;
    let start = Instant::now();
    while samples.len() < SETUP_MIN_REPS
        || (samples.len() < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        let start = Instant::now();
        let loaded = cells::load(workload, seed, root)?;
        let mut total = start.elapsed();
        for cell in &loaded.cells {
            let start = Instant::now();
            let built = cell.build();
            total += start.elapsed();
            drop(built);
        }
        samples.push(total.as_secs_f64());
        campaign = Some(loaded);
    }
    Ok((campaign.expect("at least one set-up repetition"), samples))
}

/// Runs one cell to its end and writes its snapshot to `path`.
fn write_snapshot(cell: &Cell, path: &Path) -> Result<(), String> {
    guarded(|| {
        let built = cell.build().map_err(|e| format!("build failed: {e}"))?;
        let text = cell.snapshot(built).render_pretty();
        fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    })
}

/// Restores one cell from its snapshot file and finishes the run; the
/// result must reproduce `cold` byte for byte. Returns the wall seconds
/// of read, parse, build, restore and result JSON.
fn warm_restart(cell: &Cell, path: &Path, cold: &str) -> Result<f64, String> {
    guarded(|| {
        let start = Instant::now();
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let snap = Json::parse(&text).map_err(|e| format!("snapshot does not parse: {e}"))?;
        let built = cell.build().map_err(|e| format!("build failed: {e}"))?;
        let outcome = cell
            .run_from(built, &snap)
            .map_err(|e| format!("restore failed: {e}"))?;
        let json = cell.result_json(outcome);
        let wall = start.elapsed().as_secs_f64();
        if json != cold {
            return Err("warm result differs from the cold result".into());
        }
        Ok(wall)
    })
}

/// Restores `record`'s cell once, if it has a snapshot and has not
/// failed; returns whether it did.
fn restore_once(cell: &Cell, record: &mut CellRecord) -> bool {
    let (Some(path), Some((cold, _)), None) = (&record.snapshot, &record.first, &record.failure)
    else {
        return false;
    };
    match warm_restart(cell, path, cold) {
        Ok(wall) => record.warm.push(wall),
        Err(reason) => record.fail(reason),
    }
    true
}

/// What [`execute`] collected.
struct Executed {
    records: Vec<CellRecord>,
    /// Peak resident MiB at the end of round 1, which runs every cell
    /// cold, writes every snapshot and restores each once. Later rounds
    /// repeat that work; read after them, the peak would depend on how
    /// the run's time happened to interleave cold runs and restores.
    round1_peak_rss_mib: f64,
}

/// Runs `campaign`'s cells for about `seconds` and collects records.
/// Snapshot files go to a directory under `root` that is removed
/// before returning.
fn execute(campaign: &Campaign, seconds: u64, root: &Path) -> Result<Executed, String> {
    let dir = root
        .join(".bench_build")
        .join("perfbench")
        .join(format!("snapshots-{}", std::process::id()));
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let executed = execute_in(campaign, seconds, &dir);
    fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(executed)
}

fn execute_in(campaign: &Campaign, seconds: u64, dir: &Path) -> Executed {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut records: Vec<CellRecord> = campaign
        .cells
        .iter()
        .map(|_| CellRecord::default())
        .collect();
    for (cell, record) in campaign.cells.iter().zip(&mut records) {
        record.record_cold(run_cold(cell));
    }
    for (index, (cell, record)) in campaign.cells.iter().zip(&mut records).enumerate() {
        if !cell.restart || record.first.is_none() {
            continue;
        }
        let path = dir.join(format!("cell-{index}.json"));
        match write_snapshot(cell, &path) {
            Ok(()) => record.snapshot = Some(path),
            Err(reason) => record.fail(reason),
        }
        restore_once(cell, record);
    }
    let round1_peak_rss_mib = peak_rss_mib();
    let (mut cold_time, mut warm_time) = (Duration::ZERO, Duration::ZERO);
    let mut next_restore = 0;
    'rounds: while records.iter().any(|r| r.failure.is_none()) {
        for index in 0..campaign.cells.len() {
            if Instant::now() >= deadline {
                break 'rounds;
            }
            if records[index].failure.is_some() {
                continue;
            }
            let start = Instant::now();
            records[index].record_cold(run_cold(&campaign.cells[index]));
            cold_time += start.elapsed();
            if warm_time.as_secs_f64() >= WARM_SHARE * cold_time.as_secs_f64() {
                continue;
            }
            // One restore of the next cell in rotation that can still
            // be restored.
            let start = Instant::now();
            for _ in 0..campaign.cells.len() {
                let cell = next_restore;
                next_restore = (next_restore + 1) % campaign.cells.len();
                if restore_once(&campaign.cells[cell], &mut records[cell]) {
                    break;
                }
            }
            warm_time += start.elapsed();
        }
    }
    Executed {
        records,
        round1_peak_rss_mib,
    }
}

/// Geomean over benchmarks of runtime(`baseline`) ÷ runtime(NeoMem),
/// over the single-tenant cells that have both; 1 (the empty geomean)
/// when the workload has no such pair.
fn speedup_vs(campaign: &Campaign, records: &[CellRecord], baseline: PolicyKind) -> f64 {
    let mut runtimes: BTreeMap<(String, String), u64> = BTreeMap::new();
    for (cell, record) in campaign.cells.iter().zip(records) {
        if let (Some((_, facts)), None, false) = (&record.first, &record.failure, cell.is_corun()) {
            let key = (
                cell.grid_cell.workload.label().to_string(),
                cell.grid_cell.policy.label().to_string(),
            );
            runtimes.insert(key, facts.runtime_ns);
        }
    }
    let ratios: Vec<f64> = runtimes
        .iter()
        .filter(|((_, policy), _)| policy == PolicyKind::NeoMem.label())
        .filter_map(|((workload, _), &neomem)| {
            let base = runtimes.get(&(workload.clone(), baseline.label().to_string()))?;
            Some(*base as f64 / neomem as f64)
        })
        .collect();
    if ratios.is_empty() {
        1.0
    } else {
        geomean(&ratios)
    }
}

/// Runs the untraced benchmark and derives the end-to-end metrics.
///
/// # Errors
///
/// Fails when the campaign itself cannot be loaded (for example a
/// pinned corpus scenario is missing).
pub fn run(workload: Workload, seed: u64, seconds: u64, root: &Path) -> Result<RunResult, String> {
    let (campaign, setup) = measure_setup(workload, seed, root)?;
    let executed = execute(&campaign, seconds, root)?;
    Ok(summarise(
        workload,
        &campaign,
        &executed.records,
        &setup,
        executed.round1_peak_rss_mib,
    ))
}

fn summarise(
    workload: Workload,
    campaign: &Campaign,
    records: &[CellRecord],
    setup: &[f64],
    peak_rss_mib: f64,
) -> RunResult {
    let ok: Vec<(&Cell, &CellRecord)> = campaign
        .cells
        .iter()
        .zip(records)
        .filter(|(_, r)| r.failure.is_none())
        .collect();
    for (cell, record) in campaign.cells.iter().zip(records) {
        if let Some(reason) = &record.failure {
            println!("FAILED cell {}: {reason}", cell.label());
        }
    }
    let attempted = campaign.cells.len();
    let failed = attempted - ok.len();

    let accesses: u64 = ok.iter().map(|(c, _)| c.grid_cell.accesses).sum();
    let wall: f64 = ok.iter().map(|(_, r)| median(&r.walls)).sum();
    let samples: usize = ok.iter().map(|(_, r)| r.walls.len()).sum();
    let warm: f64 = ok
        .iter()
        .filter(|(_, r)| !r.warm.is_empty())
        .map(|(_, r)| median(&r.warm))
        .sum();
    let restarted = ok.iter().filter(|(_, r)| !r.warm.is_empty()).count();
    let restores: usize = ok.iter().map(|(_, r)| r.warm.len()).sum();
    let runtime_ns: u64 = ok
        .iter()
        .filter_map(|(_, r)| r.first.as_ref())
        .map(|(_, f)| f.runtime_ns)
        .sum();
    let fairness: Vec<f64> = ok
        .iter()
        .filter_map(|(_, r)| r.first.as_ref().and_then(|(_, f)| f.fairness))
        .collect();
    // Single-tenant cells are trivially fair: Jain's index of one
    // tenant is 1.
    let fairness = if fairness.is_empty() {
        1.0
    } else {
        fairness.iter().sum::<f64>() / fairness.len() as f64
    };

    println!(
        "{}: {attempted} cells, {failed} failed (failed_cell_share {:.4}); {samples} cold cell runs; \
         {restores} restores of {restarted} restart-set cells",
        workload.name(),
        failed as f64 / attempted.max(1) as f64,
    );
    println!("load: closed loop, 1 worker thread, cells back to back; every cell starts from cold caches and an empty page table");

    let metrics = vec![
        Metric::new(
            "accesses_per_s",
            accesses as f64 / wall.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        Metric::new("setup_s", median(setup), "s"),
        Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
        Metric::new(
            "completed_cell_share",
            ok.len() as f64 / attempted.max(1) as f64,
            "share",
        ),
        Metric::new("warm_restart_s", warm, "s"),
        Metric::new("sim_runtime_s", runtime_ns as f64 / 1e9, "s"),
        Metric::new(
            "sim_speedup_vs_pebs",
            speedup_vs(campaign, records, PolicyKind::Pebs),
            "x",
        ),
        Metric::new(
            "sim_speedup_vs_first_touch",
            speedup_vs(campaign, records, PolicyKind::FirstTouch),
            "x",
        ),
        Metric::new("sim_occupancy_fairness", fairness, "index"),
    ];
    RunResult {
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neomem::workloads::ScenarioConfig;

    /// A capacity-loss fault larger than the machine: the simulator
    /// panics ("out of physical memory") instead of degrading.
    const HOTREMOVE_ALL: &str = "\
schema = 1
kind = scenario
name = hotremove-everything
[tenant]
workload = gups
rss_pages = 2048
seed = 5
[fault]
kind = capacity-loss
at = 1ms
duration = 4ms
frames = 100000000
";

    const HEALTHY: &str = "\
schema = 1
kind = scenario
name = healthy
[tenant]
workload = silo
rss_pages = 1024
seed = 6
";

    fn campaign_of(texts: &[&str]) -> Campaign {
        let cells = texts
            .iter()
            .flat_map(|text| {
                let config = ScenarioConfig::parse(text).expect("scenario parses");
                cells::corpus_scenario_cells(&config, None, 2024)
            })
            .collect();
        Campaign { cells }
    }

    #[test]
    fn a_panicking_cell_is_counted_and_the_campaign_carries_on() {
        let campaign = campaign_of(&[HOTREMOVE_ALL, HEALTHY]);
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let Executed {
            records,
            round1_peak_rss_mib,
        } = execute(&campaign, 0, &dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert!(records[0]
            .failure
            .as_deref()
            .is_some_and(|r| r.contains("panicked")));
        assert!(records[1].failure.is_none(), "{:?}", records[1].failure);
        assert_eq!(records[1].warm.len(), 1);
        let result = summarise(
            Workload::CorpusCampaign,
            &campaign,
            &records,
            &[0.1],
            round1_peak_rss_mib,
        );
        assert_eq!((result.attempted, result.failed), (2, 1));
        let share = result
            .metrics
            .iter()
            .find(|m| m.name == "completed_cell_share")
            .unwrap();
        assert_eq!(share.value, 0.5);
    }

    #[test]
    fn a_changed_rerun_fails_its_cell() {
        let mut record = CellRecord::default();
        let facts = SimFacts {
            runtime_ns: 1,
            fairness: None,
        };
        record.record_cold(Ok((0.1, "a".into(), facts)));
        record.record_cold(Ok((0.1, "a".into(), facts)));
        assert!(record.failure.is_none());
        record.record_cold(Ok((0.1, "b".into(), facts)));
        assert!(record.failure.is_some());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
