//! The golden corpus: a breadth check that the engine's simulated
//! results never drift.
//!
//! The corpus crosses every workload kind (Fig. 11 set plus Redis)
//! with every [`PolicyBox`] dispatch class and four run shapes. Each
//! case hashes the full `Debug` rendering of its report — every
//! scalar, timeline point, marker, degradation metric and per-tenant
//! section, floats included — into one FNV-1a digest. The engine's
//! `differential` test pins every digest against a checked-in file
//! with one `label digest` line per case, so any change to simulated
//! behaviour anywhere in the corpus fails with the first case it
//! touched. Every `BENCH_*.json` baseline was recorded against the
//! same semantics.
//!
//! [`PolicyBox`]: neomem::policies::PolicyBox

use neomem::prelude::*;
use neomem::sim::snapshot::fingerprint_str;
use neomem::sketch::SketchParams;

/// Cadence divisor matching the figure-harness convention: Table V's
/// minute-scale daemon intervals shrink so millisecond runs still
/// exercise many policy decisions.
const TIME_SCALE: u64 = 1000;

/// Per-tenant footprint in pages. Small on purpose: the corpus is a
/// breadth check over the whole (workload × policy × shape) space,
/// not a convergence study.
const RSS_PAGES: u64 = 1024;

const SEED: u64 = 2024;

/// The run shapes the corpus crosses every workload and policy with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffShape {
    /// One tenant, healthy machine — the plain `Simulation` path.
    SingleTenant,
    /// Two tenants contending for the fast tier (`CoRunSimulation`).
    CoRun,
    /// One tenant with a fault plan whose edges land mid-run: an
    /// outage, a link brownout and a capacity loss.
    MidFault,
    /// Two tenants where one switches generator kind and working set
    /// mid-run (a [`PhaseSpec`] schedule).
    MidPhase,
}

impl DiffShape {
    /// Every shape, in corpus order.
    pub const ALL: [DiffShape; 4] =
        [DiffShape::SingleTenant, DiffShape::CoRun, DiffShape::MidFault, DiffShape::MidPhase];

    /// Short label for case names.
    pub fn label(self) -> &'static str {
        match self {
            DiffShape::SingleTenant => "single",
            DiffShape::CoRun => "corun",
            DiffShape::MidFault => "mid-fault",
            DiffShape::MidPhase => "mid-phase",
        }
    }
}

/// The policies the corpus exercises: one per [`PolicyBox`] dispatch
/// class, hint-fault policies included.
///
/// [`PolicyBox`]: neomem::policies::PolicyBox
pub fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::NeoMem,
        PolicyKind::Pebs,
        PolicyKind::Memtis,
        PolicyKind::PteScan,
        PolicyKind::AutoNuma,
        PolicyKind::Tpp,
        PolicyKind::FirstTouch,
    ]
}

/// The full corpus: every workload kind (Fig. 11 set plus Redis) ×
/// every dispatch-class policy × every run shape.
pub fn corpus() -> Vec<(WorkloadKind, PolicyKind, DiffShape)> {
    let mut kinds = WorkloadKind::FIG11.to_vec();
    kinds.push(WorkloadKind::Redis);
    let mut cases = Vec::new();
    for &kind in &kinds {
        for &policy in &policies() {
            for shape in DiffShape::ALL {
                cases.push((kind, policy, shape));
            }
        }
    }
    cases
}

/// The `workload/policy/shape` name of one corpus case.
pub fn case_label(kind: WorkloadKind, policy: PolicyKind, shape: DiffShape) -> String {
    format!("{}/{}/{}", kind.label(), policy.label(), shape.label())
}

/// Runs one corpus case and returns the FNV-1a digest of its report's
/// `Debug` rendering.
///
/// `budget` is the access count of a single-tenant run; co-run shapes
/// double it so each tenant still gets the full budget. `batch_size`
/// overrides the config's workload batch size (`None` keeps the
/// default); any value must give the same digest.
///
/// # Panics
///
/// Panics when the case itself cannot be built — a corpus bug, not an
/// engine finding.
pub fn digest_case(
    kind: WorkloadKind,
    policy: PolicyKind,
    shape: DiffShape,
    budget: u64,
    batch_size: Option<usize>,
) -> u64 {
    let report = match shape {
        DiffShape::SingleTenant => run_single(kind, policy, budget, None, batch_size),
        DiffShape::MidFault => {
            run_single(kind, policy, budget, Some(mid_run_faults()), batch_size)
        }
        DiffShape::CoRun => run_corun(kind, policy, budget, false, batch_size),
        DiffShape::MidPhase => run_corun(kind, policy, budget, true, batch_size),
    };
    fingerprint_str(&report)
}

/// Runs the corpus cases of one run shape on the deterministic worker
/// pool and returns `(label, digest)` pairs in corpus order.
pub fn run_shape(threads: usize, budget: u64, shape: DiffShape) -> Vec<(String, u64)> {
    let cases: Vec<_> = corpus().into_iter().filter(|&(_, _, s)| s == shape).collect();
    neomem_runner::run_labeled(
        &cases,
        threads,
        |_, &(kind, policy, shape)| case_label(kind, policy, shape),
        |_, &(kind, policy, shape)| {
            (case_label(kind, policy, shape), digest_case(kind, policy, shape, budget, None))
        },
    )
}

/// Renders digests in the golden-file format: one `label digest` line
/// per case, the digest as 16 hex digits.
fn render(digests: &[(String, u64)]) -> String {
    digests.iter().map(|(label, digest)| format!("{label} {digest:016x}\n")).collect()
}

/// The lines of the golden file text that record `shape`'s cases, in
/// file order.
pub fn golden_shape(golden: &str, shape: DiffShape) -> String {
    golden
        .lines()
        .filter(|line| {
            let label = line.rsplit_once(' ').map_or(*line, |(label, _)| label);
            label.rsplit('/').next() == Some(shape.label())
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The digest the golden file text records for `label`, if any.
pub fn golden_digest(golden: &str, label: &str) -> Option<u64> {
    golden.lines().find_map(|line| {
        let (l, hex) = line.rsplit_once(' ')?;
        if l == label {
            u64::from_str_radix(hex, 16).ok()
        } else {
            None
        }
    })
}

/// Panics unless `digests` match the `golden` file text line for line.
///
/// # Panics
///
/// Panics on any difference, naming the first differing case and
/// printing the regenerated lines, which replace the matching lines of
/// the golden file when a change to simulated results is intended.
pub fn assert_identical(golden: &str, digests: &[(String, u64)]) {
    let current = render(digests);
    if current.lines().eq(golden.lines()) {
        return;
    }
    let (mut now, mut was) = (current.lines(), golden.lines());
    let label = loop {
        let (a, b) = (now.next(), was.next());
        if a != b {
            let line = a.or(b).unwrap_or_default();
            break line.rsplit_once(' ').map_or(line, |(label, _)| label);
        }
    };
    panic!(
        "corpus digests differ from the golden file, first at case {label:?}\n\
         regenerated golden lines:\n{current}"
    );
}

/// Policy construction shared by all shapes. The sketch override keeps
/// NeoMem's NeoProf device at test scale.
fn case_policy(policy: PolicyKind, config: &SimConfig) -> neomem::policies::PolicyBox {
    let overrides = PolicyOverrides { sketch: Some(SketchParams::small()), ..Default::default() };
    build_policy(policy, config, TIME_SCALE, overrides).expect("corpus policy builds")
}

/// A fault plan whose edges all land inside even the smallest corpus
/// run (a `budget`-access run covers ≳400 µs of virtual time).
fn mid_run_faults() -> FaultPlan {
    FaultPlan::builder()
        .outage(Nanos::from_micros(100), Nanos::from_micros(80))
        .link_degraded(Nanos::from_micros(220), Nanos::from_micros(60), 4, 2)
        .capacity_loss(Nanos::from_micros(320), Nanos::from_micros(60), 32)
        .build()
        .expect("valid mid-run plan")
}

fn run_single(
    kind: WorkloadKind,
    policy: PolicyKind,
    budget: u64,
    faults: Option<FaultPlan>,
    batch_size: Option<usize>,
) -> String {
    let mut config = SimConfig { max_accesses: budget, ..SimConfig::quick(RSS_PAGES, 2) };
    if let Some(batch) = batch_size {
        config.batch_size = batch;
    }
    if let Some(plan) = faults {
        config.faults = plan;
    }
    let policy = case_policy(policy, &config);
    let workload = kind.build(RSS_PAGES, SEED);
    let report = Simulation::new(config, workload, policy).expect("corpus case builds").run();
    format!("{report:?}")
}

fn run_corun(
    kind: WorkloadKind,
    policy: PolicyKind,
    budget: u64,
    phased: bool,
    batch_size: Option<usize>,
) -> String {
    let mix = TenantMix::builder()
        .tenant(WorkloadKind::Gups, RSS_PAGES, SEED)
        .weighted_tenant(kind, RSS_PAGES, 2, SEED + 1)
        .build()
        .expect("corpus mix builds");
    let mut config = CoRunConfig::quick(&mix, 2);
    config.sim.max_accesses = budget * 2;
    if let Some(batch) = batch_size {
        config.sim.batch_size = batch;
    }
    let policy = case_policy(policy, &config.sim);
    let report = if phased {
        // Tenant 1 halves its working set under `kind`, then goes full
        // footprint under GUPS — both a generator and an RSS change.
        let phases = vec![
            PhaseSpec { kind, rss_pages: RSS_PAGES / 2, events: budget / 4 },
            PhaseSpec { kind: WorkloadKind::Gups, rss_pages: RSS_PAGES, events: budget / 4 },
        ];
        let scenario =
            Scenario::builder(mix).phased(1, phases).build().expect("corpus scenario builds");
        CoRunSimulation::with_scenario(config, &scenario, policy)
            .expect("corpus case builds")
            .run()
    } else {
        CoRunSimulation::new(config, &mix, policy).expect("corpus case builds").run()
    };
    format!("{report:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_crosses_every_axis() {
        let cases = corpus();
        assert_eq!(cases.len(), 9 * policies().len() * DiffShape::ALL.len());
        assert!(cases.iter().any(|&(k, _, _)| k == WorkloadKind::Redis));
    }

    #[test]
    fn assert_identical_names_the_divergence() {
        let golden = "gups/NeoMem/single 0000000000000001\ngups/PEBS/single 0000000000000002\n";
        let mut digests =
            vec![("gups/NeoMem/single".to_string(), 1), ("gups/PEBS/single".to_string(), 2)];
        assert_identical(golden, &digests);
        assert_eq!(golden_digest(golden, "gups/PEBS/single"), Some(2));

        let failure = |digests: &[(String, u64)]| {
            let err = std::panic::catch_unwind(|| assert_identical(golden, digests))
                .expect_err("a divergent corpus must panic");
            err.downcast_ref::<String>().expect("string payload").clone()
        };
        let msg = failure(&digests[..1]);
        assert!(msg.contains("first at case \"gups/PEBS/single\""), "{msg}");
        digests[1].1 = 3;
        let msg = failure(&digests);
        assert!(msg.contains("first at case \"gups/PEBS/single\""), "{msg}");
        assert!(msg.contains("gups/PEBS/single 0000000000000003"), "{msg}");
    }

    #[test]
    fn golden_shape_keeps_only_that_shapes_lines() {
        let golden = "gups/NeoMem/single 01\ngups/NeoMem/corun 02\nbtree/PEBS/single 03\n";
        assert_eq!(
            golden_shape(golden, DiffShape::SingleTenant),
            "gups/NeoMem/single 01\nbtree/PEBS/single 03\n"
        );
        assert_eq!(golden_shape(golden, DiffShape::CoRun), "gups/NeoMem/corun 02\n");
        assert_eq!(golden_shape(golden, DiffShape::MidFault), "");
    }

    #[test]
    fn one_case_runs_identically() {
        let (kind, policy, shape) =
            (WorkloadKind::Gups, PolicyKind::FirstTouch, DiffShape::SingleTenant);
        let run = || digest_case(kind, policy, shape, 4_000, None);
        assert_eq!(run(), run());
    }
}
