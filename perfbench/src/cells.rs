//! The three workloads as lists of grid cells, and how one cell is
//! built, run, snapshotted and restored through the simulator's public
//! API.
//!
//! Cells come from [`ExperimentGrid::cells`], so their seeds and
//! coordinates follow the campaign runner's rules. The benchmark builds
//! each cell's simulation itself (the runner keeps its builders
//! private) so that build, run and restore can be timed one by one; the
//! `cell_builds_match_the_grid_runner` test pins that this yields the
//! runner's own results byte for byte.

use std::path::Path;

use neomem::prelude::*;
use neomem::workloads::ScenarioConfig;
use neomem_runner::{
    CellRun, CorunSections, ExperimentGrid, GridCell, GridRun, Json, Registry, ScenarioSections,
};

/// Fig. 11 campaign settings: the figures' `paper_grid` shell
/// (6144 pages, ratio 1:2, 1.2 M accesses per cell, time scale 1000).
const FIG11_RSS_PAGES: u64 = 6144;
const FIG11_BUDGET: u64 = 1_200_000;
/// The daemon-cadence divisor every campaign here uses.
pub const TIME_SCALE: u64 = 1000;

/// `large_state`: footprint of both cells and the shared access budget.
const LARGE_RSS_PAGES: u64 = 2 * 1024 * 1024;
const LARGE_BUDGET: u64 = 20_000;
/// `large_state` co-run: NeoMem's fast-tier fairness cap (× the
/// weighted fair share), so the fairness gate reads occupancy.
const LARGE_FAST_SHARE_CAP: f64 = 1.5;

/// `corpus_campaign`: the `registry` figure's per-scenario budget.
const CORPUS_BUDGET: u64 = 150_000;
/// Where the scenario corpus lives, relative to the repository root.
const CORPUS_DIR: &str = "scenarios";
/// The corpus scenarios this workload runs. Pinned so that a scenario
/// file added later cannot silently change the workload; a name that
/// no longer resolves fails the run.
const CORPUS_SCENARIOS: [&str; 24] = [
    "analytics-burst",
    "analytics-scan-heavy",
    "analytics-shift-nightly",
    "batch-etl-pipeline",
    "cloud-cache-eviction-storm",
    "cloud-cache-failover",
    "cloud-cache-steady",
    "cxl-brownout",
    "diurnal-web",
    "diurnal-web-cache",
    "fast-tier-hotremove",
    "llm-kv-cache-burst",
    "llm-kv-cache-serving",
    "llm-kv-phase-decode",
    "memcached-sidecar",
    "neoprof-outage-flap",
    "noisy-neighbor-duel",
    "noisy-neighbor-throttled",
    "noisy-neighbor-trio",
    "pagerank-ping-pong",
    "scientific-corun",
    "single-tenant-baseline",
    "tenant-churn-wave",
    "weight-shift-ladder",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 11: 8 benchmarks × 6 policies at 6144 pages.
    Fig11Grid,
    /// Single-tenant GUPS vs a 3-tenant co-run, both at 2 Mi pages.
    LargeState,
    /// The pinned scenario corpus, each on its declared machine.
    CorpusCampaign,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig11Grid,
        Workload::LargeState,
        Workload::CorpusCampaign,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11Grid => "fig11_grid",
            Workload::LargeState => "large_state",
            Workload::CorpusCampaign => "corpus_campaign",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The grid-level settings a cell is built under (what the runner
/// keeps on its `ExperimentGrid`).
#[derive(Debug, Clone)]
pub struct Shell {
    /// Grid name, carried into the cell's result JSON.
    pub name: String,
    /// Single-tenant footprint.
    pub rss_pages: u64,
    /// Use the full-size cache/TLB presets.
    pub large_machine: bool,
    /// Declared machine of a corpus scenario.
    pub machine: Option<MachineDescription>,
}

/// One cell of a campaign.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Grid-level settings.
    pub shell: Shell,
    /// The runner's cell coordinates (seed, budget, policy, mix...).
    pub grid_cell: GridCell,
    /// Whether the warm-restart pass snapshots and restores this cell.
    pub restart: bool,
}

/// A workload's cells, as loaded before any simulation.
#[derive(Debug)]
pub struct Campaign {
    /// The cells, in campaign order.
    pub cells: Vec<Cell>,
}

/// Loads a workload's cells for `seed`: the registry load and parse
/// (corpus) or grid expansion (the others).
///
/// # Errors
///
/// Fails when the corpus cannot be loaded or a pinned scenario name
/// does not resolve.
pub fn load(workload: Workload, seed: u64, root: &Path) -> Result<Campaign, String> {
    let cells = match workload {
        Workload::Fig11Grid => fig11_cells(seed),
        Workload::LargeState => large_state_cells(seed),
        Workload::CorpusCampaign => corpus_cells(seed, root)?,
    };
    Ok(Campaign { cells })
}

fn fig11_cells(seed: u64) -> Vec<Cell> {
    let grid = ExperimentGrid::new("fig11/main")
        .rss_pages(FIG11_RSS_PAGES)
        .ratios([2])
        .seeds([seed])
        .budgets([FIG11_BUDGET])
        .time_scale(TIME_SCALE)
        .workloads(WorkloadKind::FIG11)
        .policies(PolicyKind::FIG11);
    let shell = Shell {
        name: "fig11/main".into(),
        rss_pages: FIG11_RSS_PAGES,
        large_machine: false,
        machine: None,
    };
    grid.cells()
        .into_iter()
        .map(|grid_cell| {
            // Restarting every Fig. 11 cell would double the campaign;
            // the NeoMem column carries the heaviest policy state.
            let restart = grid_cell.policy == PolicyKind::NeoMem;
            Cell {
                shell: shell.clone(),
                grid_cell,
                restart,
            }
        })
        .collect()
}

/// The `large_state` co-run mix: GUPS (weight 2) at half the
/// footprint, Silo and Btree at a quarter each.
fn large_state_mix() -> TenantMix {
    TenantMix::builder()
        .weighted_tenant(WorkloadKind::Gups, LARGE_RSS_PAGES / 2, 2, 0)
        .tenant(WorkloadKind::Silo, LARGE_RSS_PAGES / 4, 0)
        .tenant(WorkloadKind::Btree, LARGE_RSS_PAGES / 4, 0)
        .build()
        .expect("non-empty mix")
}

fn large_state_cells(seed: u64) -> Vec<Cell> {
    let overrides = PolicyOverrides {
        corun_fast_share_cap: Some(LARGE_FAST_SHARE_CAP),
        ..Default::default()
    };
    let grid = ExperimentGrid::new("large_state")
        .rss_pages(LARGE_RSS_PAGES)
        .large_machine(true)
        .ratios([2])
        .seeds([seed])
        .budgets([LARGE_BUDGET])
        .time_scale(TIME_SCALE)
        .workloads([WorkloadKind::Gups])
        .corun("gups2+silo+btree", large_state_mix())
        .policies([PolicyKind::NeoMem])
        .overrides_axis([("cap1.5".to_string(), overrides)]);
    let shell = Shell {
        name: "large_state".into(),
        rss_pages: LARGE_RSS_PAGES,
        large_machine: true,
        machine: None,
    };
    grid.cells()
        .into_iter()
        .map(|grid_cell| Cell {
            shell: shell.clone(),
            grid_cell,
            restart: true,
        })
        .collect()
}

fn corpus_cells(seed: u64, root: &Path) -> Result<Vec<Cell>, String> {
    let registry = Registry::load(root.join(CORPUS_DIR)).map_err(|e| e.to_string())?;
    let mut cells = Vec::new();
    for name in CORPUS_SCENARIOS {
        let config = registry
            .scenario(name)
            .map_err(|e| format!("pinned corpus scenario {name:?} is missing: {e}"))?;
        let machine = registry
            .machine_for(name)
            .map_err(|e| e.to_string())?
            .cloned();
        cells.extend(corpus_scenario_cells(config, machine, seed));
    }
    Ok(cells)
}

/// The `registry` figure's grid for one scenario: its declared machine
/// and quantum, NeoMem, ratio 1:2, the breadth budget.
pub fn corpus_scenario_cells(
    config: &ScenarioConfig,
    machine: Option<MachineDescription>,
    seed: u64,
) -> Vec<Cell> {
    let name = format!("registry/{}", config.name);
    let mut grid = ExperimentGrid::new(name.clone())
        .workloads([])
        .scenario(config.name.clone(), config.scenario.clone())
        .policies([PolicyKind::NeoMem])
        .ratios([2])
        .seeds([seed])
        .budgets([CORPUS_BUDGET])
        .time_scale(TIME_SCALE);
    if let Some(quantum) = config.quantum {
        grid = grid.corun_quantum(quantum);
    }
    // The grid header's footprint is the runner's default; scenario
    // cells size their machine from the mix.
    let shell = Shell {
        name,
        rss_pages: 4096,
        large_machine: false,
        machine,
    };
    grid.cells()
        .into_iter()
        .map(|grid_cell| Cell {
            shell: shell.clone(),
            grid_cell,
            restart: true,
        })
        .collect()
}

/// A built, not yet run, cell.
pub enum Built {
    /// A single-tenant [`Simulation`].
    Single(Box<Simulation>),
    /// A static co-run or a scenario on [`CoRunSimulation`].
    CoRun(Box<CoRunSimulation>),
}

/// What a finished cell produced, in the runner's result shape.
pub struct Outcome {
    /// The (machine-wide) run report.
    pub report: RunReport,
    /// Co-run sections, for co-run and scenario cells.
    pub corun: Option<CorunSections>,
    /// Scenario sections, for scenario cells.
    pub scenario: Option<ScenarioSections>,
}

impl Cell {
    /// `true` for cells on the co-run engine.
    pub fn is_corun(&self) -> bool {
        self.grid_cell.corun.is_some() || self.grid_cell.scenario.is_some()
    }

    /// A short label: `workload/policy`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            self.grid_cell.workload_label(),
            self.grid_cell.policy.label()
        )
    }

    /// The simulation configuration this cell runs under.
    pub fn sim_config(&self) -> SimConfig {
        let cell = &self.grid_cell;
        let rss = match (&cell.corun, &cell.scenario) {
            (_, Some(spec)) => spec.scenario.mix().total_rss_pages(),
            (Some(spec), None) => spec.mix.total_rss_pages(),
            (None, None) => self.shell.rss_pages,
        };
        let mut config = match &self.shell.machine {
            Some(machine) => machine.sim_config(rss, cell.ratio),
            None if self.shell.large_machine => SimConfig::large(rss, cell.ratio),
            None => SimConfig::quick(rss, cell.ratio),
        };
        config.max_accesses = cell.accesses;
        if let Some(spec) = &cell.scenario {
            config.faults = spec.scenario.faults().clone();
        }
        config
    }

    /// The policy overrides in force, machine knobs folded in.
    pub fn overrides(&self) -> PolicyOverrides {
        match &self.shell.machine {
            Some(machine) => self.grid_cell.overrides.with_machine(machine),
            None => self.grid_cell.overrides,
        }
    }

    /// The tenant mix the cell's generators come from (one tenant for
    /// single-tenant cells), reseeded like the runner does.
    pub fn mix(&self) -> TenantMix {
        let cell = &self.grid_cell;
        match (&cell.corun, &cell.scenario) {
            (_, Some(spec)) => spec.scenario.reseeded(cell.seed).mix().clone(),
            (Some(spec), None) => spec.mix.reseeded(cell.seed),
            (None, None) => TenantMix::builder()
                .tenant(cell.workload, self.shell.rss_pages, cell.seed)
                .build()
                .expect("one tenant"),
        }
    }

    /// Interleave quantum of co-run cells.
    pub fn quantum(&self) -> usize {
        let cell = &self.grid_cell;
        match (&cell.corun, &cell.scenario) {
            (_, Some(spec)) => spec.interleave_quantum,
            (Some(spec), None) => spec.interleave_quantum,
            (None, None) => 1,
        }
    }

    /// Builds the cell's simulation: config, policy and generators.
    ///
    /// # Errors
    ///
    /// Propagates configuration and policy-construction errors.
    pub fn build(&self) -> Result<Built, neomem::Error> {
        let cell = &self.grid_cell;
        if !self.is_corun() {
            let mut builder = Experiment::builder()
                .workload(cell.workload)
                .policy(cell.policy)
                .rss_pages(self.shell.rss_pages)
                .ratio(cell.ratio)
                .accesses(cell.accesses)
                .seed(cell.seed)
                .time_scale(TIME_SCALE)
                .large_machine(self.shell.large_machine)
                .overrides(cell.overrides);
            if let Some(machine) = &self.shell.machine {
                builder = builder.machine(machine.clone());
            }
            return Ok(Built::Single(Box::new(builder.build()?.into_simulation())));
        }
        let config = self.sim_config();
        let overrides = self.overrides();
        let policy = build_policy(cell.policy, &config, TIME_SCALE, overrides)?;
        let corun_config = CoRunConfig {
            sim: config,
            interleave_quantum: self.quantum(),
            fast_share_cap: overrides.corun_fast_share_cap,
        };
        let sim = match (&cell.corun, &cell.scenario) {
            (_, Some(spec)) => CoRunSimulation::with_scenario(
                corun_config,
                &spec.scenario.reseeded(cell.seed),
                policy,
            )?,
            (Some(spec), None) => {
                CoRunSimulation::new(corun_config, &spec.mix.reseeded(cell.seed), policy)?
            }
            (None, None) => unreachable!("single-tenant cells returned above"),
        };
        Ok(Built::CoRun(Box::new(sim)))
    }

    fn outcome(&self, report: CoRunReport) -> Outcome {
        let occupancy_fairness = report.occupancy_fairness();
        let scenario = self
            .grid_cell
            .scenario
            .as_ref()
            .map(|spec| ScenarioSections {
                events: spec.scenario.events().to_vec(),
                epochs: report.epochs.clone(),
            });
        Outcome {
            report: report.combined,
            corun: Some(CorunSections {
                tenants: report.tenants,
                contention: report.contention,
                occupancy_fairness,
            }),
            scenario,
        }
    }

    /// Runs a built cell to completion.
    pub fn run(&self, built: Built) -> Outcome {
        match built {
            Built::Single(sim) => Outcome {
                report: (*sim).run(),
                corun: None,
                scenario: None,
            },
            Built::CoRun(sim) => self.outcome((*sim).run()),
        }
    }

    /// Runs a built cell to completion and returns its end-of-run
    /// snapshot envelope.
    pub fn snapshot(&self, built: Built) -> Json {
        let horizon = Nanos::new(u64::MAX);
        match built {
            Built::Single(sim) => (*sim).snapshot_at(horizon),
            Built::CoRun(sim) => (*sim).snapshot_at(horizon),
        }
    }

    /// Restores a built cell from a snapshot and finishes the run.
    ///
    /// # Errors
    ///
    /// Propagates snapshot validation errors.
    pub fn run_from(&self, built: Built, snap: &Json) -> Result<Outcome, neomem::Error> {
        Ok(match built {
            Built::Single(sim) => Outcome {
                report: (*sim).run_from(snap)?,
                corun: None,
                scenario: None,
            },
            Built::CoRun(sim) => self.outcome((*sim).run_from(snap)?),
        })
    }

    /// The cell's result JSON exactly as the campaign runner writes it:
    /// a one-cell grid document, rendered.
    pub fn result_json(&self, outcome: Outcome) -> String {
        GridRun {
            name: self.shell.name.clone(),
            rss_pages: self.shell.rss_pages,
            time_scale: TIME_SCALE,
            cells: vec![CellRun {
                cell: self.grid_cell.clone(),
                report: outcome.report,
                corun: outcome.corun,
                scenario: outcome.scenario,
            }],
        }
        .to_json()
        .render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig11"), None);
    }

    #[test]
    fn campaigns_have_the_documented_shape() {
        let fig11 = fig11_cells(2024);
        assert_eq!(fig11.len(), 48);
        assert_eq!(fig11.iter().filter(|c| c.restart).count(), 8);
        assert!(fig11
            .iter()
            .all(|c| c.grid_cell.seed == 2024 && !c.is_corun()));
        let large = large_state_cells(2024);
        assert_eq!(large.len(), 2);
        assert_eq!(large.iter().filter(|c| c.is_corun()).count(), 1);
        assert!(large
            .iter()
            .all(|c| c.sim_config().rss_pages == LARGE_RSS_PAGES));
        assert_eq!(large_state_mix().weights(), vec![2, 1, 1]);
    }

    #[test]
    fn the_corpus_is_pinned_by_name() {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let cells = corpus_cells(2024, &repo).expect("checked-in corpus loads");
        assert_eq!(cells.len(), CORPUS_SCENARIOS.len());

        // A corpus without the pinned names fails, naming the first.
        let root = std::env::temp_dir().join(format!("perfbench-pin-{}", std::process::id()));
        let dir = root.join(CORPUS_DIR);
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(
            dir.join("lonely.cfg"),
            "schema = 1\nkind = scenario\nname = lonely\n[tenant]\nworkload = gups\nrss_pages = 64\nseed = 1\n",
        )
        .expect("write scenario");
        let err = corpus_cells(2024, &root).expect_err("pinned names are missing");
        std::fs::remove_dir_all(&root).expect("clean up");
        assert!(err.contains("\"analytics-burst\" is missing"), "{err}");
    }

    fn small_scenario() -> ScenarioConfig {
        ScenarioConfig::parse(
            "schema = 1\nkind = scenario\nname = duel\nquantum = 128\n\
             [tenant]\nworkload = gups\nrss_pages = 1024\nweight = 3\nseed = 1\n\
             [tenant]\nworkload = silo\nrss_pages = 1024\nseed = 2\n\
             [event]\nat = 1ms\ntenant = 1\naction = depart\n",
        )
        .expect("valid scenario")
    }

    #[test]
    fn cell_builds_match_the_grid_runner() {
        // Single-tenant: a shrunken Fig. 11 cell.
        let grid = ExperimentGrid::new("g")
            .rss_pages(1024)
            .ratios([2])
            .seeds([7])
            .budgets([30_000])
            .time_scale(TIME_SCALE)
            .workloads([WorkloadKind::Silo])
            .policies([PolicyKind::NeoMem]);
        let shell = Shell {
            name: "g".into(),
            rss_pages: 1024,
            large_machine: false,
            machine: None,
        };
        let cell = Cell {
            shell,
            grid_cell: grid.cells().remove(0),
            restart: true,
        };
        let ours = cell.result_json(cell.run(cell.build().expect("builds")));
        let runner = grid.run(1).expect("runs").to_json().render_pretty();
        assert_eq!(ours, runner);

        // Scenario on a declared machine.
        let machine = MachineDescription::parse(
            "schema = 1\nkind = machine\nname = m\n[memory]\nratio = 4\n",
        )
        .expect("valid machine");
        let config = small_scenario();
        let cell = corpus_scenario_cells(&config, Some(machine.clone()), 9).remove(0);
        let ours = cell.result_json(cell.run(cell.build().expect("builds")));
        let runner = ExperimentGrid::new("registry/duel")
            .workloads([])
            .scenario("duel", config.scenario.clone())
            .policies([PolicyKind::NeoMem])
            .ratios([2])
            .seeds([9])
            .budgets([CORPUS_BUDGET])
            .time_scale(TIME_SCALE)
            .corun_quantum(128)
            .machine(machine)
            .run(1)
            .expect("runs")
            .to_json()
            .render_pretty();
        assert_eq!(ours, runner);
    }

    #[test]
    fn restore_reproduces_the_cold_result() {
        let cell = corpus_scenario_cells(&small_scenario(), None, 3).remove(0);
        let cold = cell.result_json(cell.run(cell.build().expect("builds")));
        let snap = cell.snapshot(cell.build().expect("builds"));
        let text = snap.render_pretty();
        let parsed = Json::parse(&text).expect("snapshot parses");
        let warm = cell
            .run_from(cell.build().expect("builds"), &parsed)
            .expect("restores");
        assert_eq!(cell.result_json(warm), cold);
    }
}
