//! Oracle test for the kernel's per-tenant fast-page counters: under any
//! sequence of allocations, migrations and snapshot/restore cycles,
//! `fast_pages_per_tenant()` must equal a full sweep of the fast tier's
//! reverse map.

use neomem_kernel::{Kernel, KernelConfig};
use neomem_types::{Nanos, Tier, VirtPage};
use proptest::prelude::*;

const FAST: u64 = 12;
const SLOW: u64 = 60;
const PAGES: u64 = 64;
/// Three tenants of uneven size: pages 0..20, 20..44 and 44..64.
const BASES: [u64; 3] = [0, 20, 44];

#[derive(Debug, Clone)]
enum Op {
    Touch(u64),
    TouchSlow(u64),
    Promote(u64),
    Demote(u64),
    Access(u64),
    DemoteColdest(usize),
    DemoteArbitrary(usize),
    SnapshotRestore,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PAGES).prop_map(Op::Touch),
        (0..PAGES).prop_map(Op::TouchSlow),
        (0..PAGES).prop_map(Op::Promote),
        (0..PAGES).prop_map(Op::Demote),
        (0..PAGES).prop_map(Op::Access),
        (1usize..5).prop_map(Op::DemoteColdest),
        (1usize..5).prop_map(Op::DemoteArbitrary),
        Just(Op::SnapshotRestore),
    ]
}

fn fresh_kernel() -> Kernel {
    let mut kernel = Kernel::new(KernelConfig::with_frames(FAST, SLOW));
    kernel.set_tenant_bases(BASES.to_vec()).unwrap();
    kernel
}

fn apply(kernel: &mut Kernel, op: &Op) {
    let now = Nanos::ZERO;
    match *op {
        Op::Touch(p) => {
            let _ = kernel.touch_alloc(VirtPage::new(p), now);
        }
        Op::TouchSlow(p) => {
            let _ = kernel.touch_alloc_preferring(VirtPage::new(p), Tier::Slow, now);
        }
        Op::Promote(p) => {
            let _ = kernel.promote(VirtPage::new(p), now);
        }
        Op::Demote(p) => {
            let _ = kernel.demote(VirtPage::new(p), now);
        }
        Op::Access(p) => kernel.record_fast_access(VirtPage::new(p)),
        Op::DemoteColdest(n) => {
            let _ = kernel.demote_coldest(n, now);
        }
        Op::DemoteArbitrary(n) => {
            let _ = kernel.demote_arbitrary(n, now);
        }
        Op::SnapshotRestore => {
            let snap = kernel.snapshot();
            let mut restored = fresh_kernel();
            restored.restore(&snap).unwrap();
            *kernel = restored;
        }
    }
}

/// The oracle: one sweep of the fast tier's reverse map.
fn swept(kernel: &Kernel) -> Vec<u64> {
    let mut counts = vec![0u64; BASES.len()];
    for vpage in kernel.fast_rmap().iter().flatten() {
        counts[BASES.partition_point(|&b| b <= vpage.index()) - 1] += 1;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]
    #[test]
    fn fast_page_counters_match_rmap_sweep(
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        let mut kernel = fresh_kernel();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut kernel, op);
            let oracle = swept(&kernel);
            prop_assert_eq!(
                kernel.fast_pages_per_tenant(),
                oracle.as_slice(),
                "counters diverged after op {} ({:?})",
                i,
                op
            );
        }
    }
}

#[test]
fn rebasing_recounts_existing_pages() {
    let mut kernel = Kernel::new(KernelConfig::with_frames(FAST, SLOW));
    for p in 0..PAGES {
        kernel.touch_alloc(VirtPage::new(p), Nanos::ZERO).unwrap();
    }
    assert_eq!(kernel.fast_pages_per_tenant(), &[FAST], "one tenant by default");
    kernel.set_tenant_bases(vec![0, 5, 40]).unwrap();
    assert_eq!(kernel.fast_pages_per_tenant(), &[5, 7, 0]);
    assert_eq!(kernel.tenant_bases(), &[0, 5, 40]);
}
