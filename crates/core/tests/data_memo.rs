//! The dataset memo behind `phases::scenario_data`.
//!
//! The memo is one process-wide slot, so these checks live in their own
//! test binary as a single test: no other test can generate into the slot
//! between two of its calls.

use std::sync::Arc;

use ncl_data::generator;
use replay4ncl::{phases, scenario, MethodSpec, ScenarioConfig};

fn with_data_seed(seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::smoke();
    c.data.seed = seed;
    c
}

#[test]
fn one_slot_shared_by_every_caller_of_one_config() {
    let first = with_data_seed(0xDA7A_0001);
    let second = with_data_seed(0xDA7A_0002);
    let fresh_first = generator::generate_pair(&first.data).unwrap();
    let fresh_second = generator::generate_pair(&second.data).unwrap();

    // Equal configs share one Arc, equal to a fresh generation.
    let a = phases::scenario_data(&first).unwrap();
    let b = phases::scenario_data(&first.clone()).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "equal configs must share the Arc");
    assert_eq!(*a, fresh_first);
    drop(b);

    // A second config evicts the first; the old Arc stays valid.
    let new = phases::scenario_data(&second).unwrap();
    assert!(!Arc::ptr_eq(&a, &new));
    assert_eq!(Arc::strong_count(&a), 1, "the slot released the old data");
    assert_eq!(*a, fresh_first);
    assert_eq!(*new, fresh_second);
    assert!(Arc::ptr_eq(&new, &phases::scenario_data(&second).unwrap()));
    let again = phases::scenario_data(&first).unwrap();
    assert!(
        !Arc::ptr_eq(&a, &again),
        "an evicted config is generated anew"
    );
    assert_eq!(*again, fresh_first);
    drop((a, new));

    // Pre-training and two method runs read the held dataset: had any of
    // them generated, the slot would hold another Arc.
    let mut config = first.clone();
    config.cl_epochs = 1;
    let outcome = phases::pretrain(&config).unwrap();
    for method in [
        MethodSpec::spiking_lr(2),
        MethodSpec::replay4ncl(2, config.data.steps / 2),
    ] {
        scenario::run_method(&config, &method, &outcome.network, outcome.test_acc).unwrap();
    }
    assert!(Arc::ptr_eq(
        &again,
        &phases::scenario_data(&config).unwrap()
    ));
    drop(again);

    // Threads racing on one config, then on two alternating configs, all
    // read data equal to a fresh generation.
    for alternate in [false, true] {
        std::thread::scope(|scope| {
            let racers: Vec<_> = (0..6)
                .map(|i| {
                    let (config, want) = if alternate && i % 2 == 1 {
                        (&second, &fresh_second)
                    } else {
                        (&first, &fresh_first)
                    };
                    scope.spawn(move || {
                        for _ in 0..3 {
                            assert_eq!(*phases::scenario_data(config).unwrap(), *want);
                        }
                    })
                })
                .collect();
            for racer in racers {
                racer.join().expect("racer panicked");
            }
        });
    }
}
