//! The checked-in campaign sweep: 96 seeds through the full
//! `site × kernel × threads` matrix, each seed one deterministic case.
//!
//! Reproduce any reported failure standalone with
//! `FPM_CHAOS_SEED=<n> cargo test -p chaos --features chaos` — the seed
//! alone re-derives the case and the fault schedule.
#![cfg(feature = "chaos")]

use chaos::campaign::{self, Case, CAMPAIGN_SEEDS};
use std::collections::BTreeSet;

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[test]
fn deterministic_campaign_covers_the_fault_matrix() {
    let _serialize = campaign::lock().lock().unwrap_or_else(|e| e.into_inner());

    // Single-case reproduction: the whole point of seed-derived plans.
    if let Ok(seed) = std::env::var("FPM_CHAOS_SEED") {
        let seed: u64 = seed.parse().expect("FPM_CHAOS_SEED must be a u64");
        eprintln!("replaying campaign case {}", Case::from_seed(seed).label());
        campaign::run_case(seed);
        return;
    }

    // The sweep must exercise every cell of the matrix.
    let covered: BTreeSet<(&str, &str, usize)> = (0..CAMPAIGN_SEEDS)
        .map(|seed| {
            let c = Case::from_seed(seed);
            (c.site.label(), c.kernel.label(), c.threads)
        })
        .collect();
    assert_eq!(
        covered.len(),
        63,
        "the {CAMPAIGN_SEEDS}-seed sweep must cover all 7 sites x 3 kernels x 3 thread counts"
    );

    // The remix seeds extend the matrix with a query dimension: every
    // query variant (identity, closed filter, top-k) must appear,
    // and non-identity queries must meet more than one fault site.
    let queries: BTreeSet<String> = (0..CAMPAIGN_SEEDS)
        .map(|seed| Case::from_seed(seed).query.label())
        .collect();
    assert_eq!(
        queries.len(),
        campaign::campaign_queries().len(),
        "the sweep must cover every query variant (got {queries:?})"
    );
    let query_sites: BTreeSet<&str> = (0..CAMPAIGN_SEEDS)
        .map(Case::from_seed)
        .filter(|c| !c.query.is_all())
        .map(|c| c.site.label())
        .collect();
    assert!(
        query_sites.len() >= 3,
        "non-identity queries must sweep several fault sites (got {query_sites:?})"
    );

    // Drive the cases under a quiet hook (an injected worker panic is
    // expected noise); a real invariant violation re-panics with the
    // reproduction command attached.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failure = None;
    for seed in 0..CAMPAIGN_SEEDS {
        if let Err(payload) = std::panic::catch_unwind(|| campaign::run_case(seed)) {
            failure = Some((seed, panic_text(payload.as_ref())));
            break;
        }
    }
    std::panic::set_hook(default_hook);
    if let Some((seed, message)) = failure {
        panic!(
            "campaign case failed — reproduce with \
             `FPM_CHAOS_SEED={seed} cargo test -p chaos --features chaos`:\n{message}"
        );
    }
}
