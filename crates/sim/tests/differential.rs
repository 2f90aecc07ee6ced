//! Differential testing of the engine against the golden corpus digest.
//!
//! Runs the [`neomem_bench::diffcheck`] corpus — every workload kind ×
//! every dispatch-class policy × {single-tenant, co-run, mid-fault,
//! mid-phase} — and requires each case's report digest to equal the
//! line recorded for it in `corpus_digests.txt`. That file was
//! recorded when the engine still had two execution pipelines (staged
//! chunks and event-at-a-time), which gave byte-identical files; a
//! match therefore means the one remaining path reproduces both, so the
//! per-shape tests keep their `pipeline_invariant` names. Every
//! `BENCH_*.json` baseline was recorded against the same semantics, so
//! a mismatch means a change moved simulated results. If that move is
//! intended, the failure message prints the regenerated lines: paste
//! them over the matching lines of `corpus_digests.txt` and say why in
//! the change.
//!
//! The batch-size tests hold the engine's batch contract against the
//! same oracle: any workload batch size, including the degenerate 1
//! and 2 and the default 256 ± 1, must give the default-batch digest.

use neomem_bench::diffcheck::{self, DiffShape};
use neomem_policies::PolicyKind;
use neomem_workloads::WorkloadKind;

/// Per-case access budget the golden file was recorded at. The
/// mid-fault plan's last edge clears by ~400 µs of virtual time, well
/// inside a run of this size.
const BUDGET: u64 = 6_000;

/// The default workload batch size (`SimConfig::quick`), which the
/// golden file was recorded at.
const BATCH_CAP: usize = 256;

const GOLDEN: &str = include_str!("corpus_digests.txt");

fn assert_shape(shape: DiffShape) {
    let golden = diffcheck::golden_shape(GOLDEN, shape);
    diffcheck::assert_identical(&golden, &diffcheck::run_shape(0, BUDGET, shape));
}

#[test]
fn single_tenant_runs_are_pipeline_invariant() {
    assert_shape(DiffShape::SingleTenant);
}

#[test]
fn corun_runs_are_pipeline_invariant() {
    assert_shape(DiffShape::CoRun);
}

#[test]
fn mid_fault_runs_are_pipeline_invariant() {
    assert_shape(DiffShape::MidFault);
}

#[test]
fn mid_phase_runs_are_pipeline_invariant() {
    assert_shape(DiffShape::MidPhase);
}

#[test]
fn a_divergent_pair_is_actually_caught() {
    // Confidence in the oracle itself: distinct experiments must not
    // share a digest anywhere in the corpus.
    let mut digests: Vec<&str> = GOLDEN.lines().filter_map(|l| l.rsplit(' ').next()).collect();
    assert_eq!(digests.len(), diffcheck::corpus().len());
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), diffcheck::corpus().len(), "two cases share a digest");
}

#[test]
fn adversarial_batch_sizes_match_the_golden_digests() {
    for batch in [1, 2, BATCH_CAP - 1, BATCH_CAP + 1] {
        for policy in [PolicyKind::NeoMem, PolicyKind::Pebs, PolicyKind::FirstTouch] {
            for shape in [DiffShape::SingleTenant, DiffShape::CoRun] {
                let label = diffcheck::case_label(WorkloadKind::Gups, policy, shape);
                let golden = diffcheck::golden_digest(GOLDEN, &label).expect("case is recorded");
                let digest =
                    diffcheck::digest_case(WorkloadKind::Gups, policy, shape, BUDGET, Some(batch));
                assert_eq!(digest, golden, "{label} at batch size {batch}");
            }
        }
    }
}

mod random_batch_sizes {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 12,
            failure_persistence: None,
            ..ProptestConfig::default()
        })]

        /// Any (event count, batch size) pair gives the default-batch
        /// digest: random totals and batch sizes land batch tails at
        /// arbitrary offsets against tick, sample and stop deadlines.
        #[test]
        fn random_batch_sizes_match_the_default_batch(
            budget in 1u64..3_000,
            batch in 1usize..300,
            policy in prop::sample::select(vec![
                PolicyKind::NeoMem,
                PolicyKind::Memtis,
                PolicyKind::FirstTouch,
            ]),
        ) {
            let digest = |batch| {
                diffcheck::digest_case(
                    WorkloadKind::Gups,
                    policy,
                    DiffShape::SingleTenant,
                    budget,
                    Some(batch),
                )
            };
            prop_assert_eq!(digest(batch), digest(BATCH_CAP));
        }
    }
}
