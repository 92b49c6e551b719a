//! Property-based tests of the SUU/PUU schedulers and the Theorem 3 greedy
//! guarantee on random request sets.

use proptest::prelude::*;
use vcs_algorithms::request::tasks_intersect;
use vcs_algorithms::{optimal_selection, puu, suu, theorem3_bound, UpdateRequest};
use vcs_core::ids::{RouteId, TaskId, UserId};

fn arb_requests() -> impl Strategy<Value = Vec<UpdateRequest>> {
    prop::collection::vec(
        (0.001f64..10.0, prop::collection::btree_set(0u32..12, 0..5)),
        1..10,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (tau, tasks))| UpdateRequest {
                user: UserId(i as u32),
                new_route: RouteId(0),
                gain: tau * 0.5,
                tau,
                affected_tasks: tasks.into_iter().map(TaskId).collect(),
            })
            .collect()
    })
}

/// Request sets built to stress the admission scan rather than Theorem 3:
/// τ and |B_i| from small grids so δ ties are common (user ids are handed
/// out in reverse so the id tie-break disagrees with input order), empty
/// `B_i`, up to 60 requests crowding a few shared tasks, and task ids drawn
/// sparsely from a large range.
fn arb_adversarial_requests() -> impl Strategy<Value = Vec<UpdateRequest>> {
    const SPARSE: [u32; 4] = [7, 1_000, 65_535, 199_999];
    const TAUS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];
    let task = prop_oneof![0u32..4, (0usize..4).prop_map(|i| SPARSE[i])];
    prop::collection::vec(
        (
            (0usize..4).prop_map(|i| TAUS[i]),
            prop::collection::btree_set(task, 0..4),
        ),
        1..60,
    )
    .prop_map(|raw| {
        let n = raw.len() as u32;
        raw.into_iter()
            .enumerate()
            .map(|(i, (tau, tasks))| UpdateRequest {
                user: UserId(n - i as u32),
                new_route: RouteId(0),
                gain: tau * 0.5,
                tau,
                affected_tasks: tasks.into_iter().map(TaskId).collect(),
            })
            .collect()
    })
}

/// The pairwise PUU greedy `puu` used before claimed-task marks: the same
/// sort, then each candidate is tested against every admitted request.
/// Kept here as the oracle for the claimed-mark scan.
fn pairwise_puu(requests: &[UpdateRequest]) -> Vec<usize> {
    let delta = |r: &UpdateRequest| {
        if r.affected_tasks.is_empty() {
            f64::INFINITY
        } else {
            r.tau / r.affected_tasks.len() as f64
        }
    };
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        delta(&requests[b])
            .total_cmp(&delta(&requests[a]))
            .then_with(|| requests[a].user.cmp(&requests[b].user))
    });
    let mut admitted: Vec<usize> = Vec::new();
    for idx in order {
        let candidate = &requests[idx];
        if admitted
            .iter()
            .all(|&a| !tasks_intersect(&requests[a].affected_tasks, &candidate.affected_tasks))
        {
            admitted.push(idx);
        }
    }
    admitted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// PUU always admits a non-empty, conflict-free set.
    #[test]
    fn puu_admits_conflict_free_nonempty(requests in arb_requests()) {
        let admitted = puu(&requests);
        prop_assert!(!admitted.is_empty());
        for (i, &a) in admitted.iter().enumerate() {
            for &b in &admitted[i + 1..] {
                prop_assert!(!requests[a].conflicts_with(&requests[b]));
            }
        }
    }

    /// PUU's admitted set is maximal: no rejected request is conflict-free
    /// with everything admitted (the greedy scan would have taken it).
    #[test]
    fn puu_is_maximal(requests in arb_requests()) {
        let admitted = puu(&requests);
        for idx in 0..requests.len() {
            if admitted.contains(&idx) {
                continue;
            }
            let conflict = admitted
                .iter()
                .any(|&a| requests[a].conflicts_with(&requests[idx]));
            prop_assert!(conflict, "request {idx} was rejected without a conflict");
        }
    }

    /// Theorem 3: `τ/τ̂ ≥ |B_{i'}|/(|µ̂|·B_max)` against the brute-force
    /// optimal selection.
    #[test]
    fn theorem3_guarantee(requests in arb_requests()) {
        let admitted = puu(&requests);
        let (optimal, tau_hat) = optimal_selection(&requests);
        prop_assume!(tau_hat > 0.0);
        let tau: f64 = admitted.iter().map(|&i| requests[i].tau).sum();
        if let Some(bound) = theorem3_bound(&requests, &admitted, &optimal) {
            prop_assert!(
                tau / tau_hat >= bound - 1e-9,
                "τ/τ̂ = {} below bound {bound}",
                tau / tau_hat
            );
        }
        // Greedy can never beat the optimum.
        prop_assert!(tau <= tau_hat + 1e-9);
    }

    /// Claimed-task admission returns exactly the pairwise greedy's
    /// indices, in the same order, on Theorem 3-sized inputs.
    #[test]
    fn puu_matches_pairwise_greedy(requests in arb_requests()) {
        prop_assert_eq!(puu(&requests), pairwise_puu(&requests));
    }

    /// The same identity on δ ties, empty `B_i`, crowded shared tasks and
    /// sparse large task ids.
    #[test]
    fn puu_matches_pairwise_greedy_adversarial(requests in arb_adversarial_requests()) {
        prop_assert_eq!(puu(&requests), pairwise_puu(&requests));
    }

    /// SUU picks exactly one valid index, uniformly seeded.
    #[test]
    fn suu_picks_one(requests in arb_requests(), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let sel = suu(&requests, &mut rng);
        prop_assert_eq!(sel.len(), 1);
        prop_assert!(sel[0] < requests.len());
    }

    /// The Theorem 3 premise: the first user PUU admits has the globally
    /// largest δ among all requests.
    #[test]
    fn puu_first_has_max_delta(requests in arb_requests()) {
        let admitted = puu(&requests);
        let delta = |r: &UpdateRequest| {
            if r.affected_tasks.is_empty() {
                f64::INFINITY
            } else {
                r.tau / r.affected_tasks.len() as f64
            }
        };
        let first = delta(&requests[admitted[0]]);
        for r in &requests {
            prop_assert!(first >= delta(r) - 1e-12);
        }
    }
}
