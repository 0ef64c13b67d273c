//! Workspace-level fleet property tests: request conservation and
//! exactly-once resolution under randomized fleet shapes, routing
//! policies, queue imbalance, work stealing and injected whole-card
//! resets. Failures replay from the proptest-printed case like every
//! other property file; the threaded cases derive all randomness from
//! proptest-drawn seeds, so a failing shape reproduces deterministically.

use phi_faults::{FaultInjector, FaultRates, FaultSource};
use phi_rt::service::{Collector, ServiceConfig};
use phi_rt::{
    CardSetup, FleetConfig, FleetRouter, FleetScheduler, ResilienceConfig, RoutingPolicy,
};
use proptest::prelude::*;
use std::sync::Arc;

fn policy_from(tag: u8) -> RoutingPolicy {
    match tag % 3 {
        0 => RoutingPolicy::Affinity,
        1 => RoutingPolicy::RoundRobin,
        _ => RoutingPolicy::Random,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The router never routes off the fleet, never picks an offline
    /// card while any card is online, and under affinity a key keeps its
    /// home for as long as that home stays online.
    #[test]
    fn router_stays_in_range_and_affinity_is_sticky(
        cards in 1usize..=4,
        policy_tag in any::<u8>(),
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 1..40),
        offline_card in any::<usize>(),
    ) {
        let mut router = FleetRouter::new(FleetConfig {
            cards,
            routing: policy_from(policy_tag),
            seed,
            ..FleetConfig::default()
        });
        let mut online = vec![true; cards];
        // At most one card down, and only on fleets that can spare it.
        if cards > 1 && offline_card % 2 == 0 {
            online[offline_card % cards] = false;
        }
        let depths = vec![0usize; cards];
        for &key in &keys {
            let card = router.route(Some(key), &depths, &online);
            prop_assert!(card < cards, "routed to card {card} of {cards}");
            prop_assert!(online[card], "routed to an offline card");
            if router.config().routing == RoutingPolicy::Affinity {
                prop_assert_eq!(router.home_of(key), Some(card));
                // Re-routing the same key immediately must stay home.
                prop_assert_eq!(router.route(Some(key), &depths, &online), card);
            }
        }
    }

    /// `steal_back` + `adopt` conserve requests exactly: every ticket
    /// submitted to the victim ends up exactly once in either the
    /// victim's queue or the thief's, in arrival order within each.
    #[test]
    fn stealing_conserves_every_ticket(
        submitted in 1usize..40,
        steal in any::<usize>(),
    ) {
        let config = ServiceConfig { width: 16, queue_cap: 64 };
        let mut victim = Collector::<u64>::new(config);
        let mut thief = Collector::<u64>::new(config);
        let mut all = Vec::new();
        for i in 0..submitted {
            let ticket = victim.submit(i as u64, 0.0).unwrap();
            all.push(ticket);
        }
        let stolen = victim.steal_back(steal % (submitted + 1));
        let stolen_tickets: Vec<_> = stolen.iter().map(|p| p.ticket).collect();
        thief.adopt(stolen);
        prop_assert_eq!(victim.depth() + thief.depth(), submitted);
        // The thief got the newest entries; the victim kept the oldest.
        let survivors = victim.steal_back(victim.depth());
        let kept: Vec<_> = survivors.iter().map(|p| p.ticket).collect();
        let mut recombined = kept.clone();
        recombined.extend(stolen_tickets.iter().copied());
        prop_assert_eq!(recombined, all, "oldest-first order must survive a steal");
    }

    /// Whole-fleet exactly-once: every submission resolves exactly once
    /// with the right answer, whatever the fleet shape, routing policy or
    /// fault pressure (including whole-card resets) — and the fleet's
    /// resolution ledger conserves the request count.
    #[test]
    fn every_request_resolves_exactly_once(
        cards in 1usize..=3,
        policy_tag in any::<u8>(),
        seed in any::<u64>(),
        fault_milli in 0u32..=400,
        ops in 8usize..=48,
    ) {
        let fleet = FleetConfig {
            cards,
            routing: policy_from(policy_tag),
            seed,
            ..FleetConfig::default()
        };
        let resilience = ResilienceConfig {
            service: ServiceConfig { width: 4, queue_cap: 64 },
            ..ResilienceConfig::default()
        };
        let setups = (0..cards)
            .map(|card| {
                let mut setup =
                    CardSetup::new(|xs: &[u64]| xs.iter().map(|x| x * 2).collect());
                setup.host_fn = Some(Box::new(|x: &u64| x * 2));
                if fault_milli > 0 {
                    let injector: Arc<dyn FaultSource> = Arc::new(FaultInjector::new(
                        seed ^ (card as u64),
                        FaultRates::uniform(fault_milli as f64 / 1000.0),
                    ));
                    setup.faults = Some(injector);
                }
                setup
            })
            .collect();
        let scheduler = FleetScheduler::new(fleet, resilience, setups);
        let handles: Vec<_> = (0..ops)
            .map(|i| {
                let key = if i % 3 == 0 { None } else { Some(i as u64 % 5) };
                scheduler.submit_keyed(key, i as u64).unwrap()
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let got = handle.wait().expect("faults degrade, never error");
            prop_assert_eq!(got, i as u64 * 2, "request {i}");
        }
        let report = scheduler.shutdown();
        prop_assert_eq!(report.resolved_ops(), ops as u64);
        prop_assert_eq!(report.merged().errored_ops, 0);
    }
}
