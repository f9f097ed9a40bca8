//! Class-incremental comparison: the no-replay baseline forgets, SpikingLR
//! remembers at full cost, Replay4NCL remembers at a fraction of the
//! latency/energy/memory.
//!
//! ```sh
//! cargo run --release --example class_incremental
//! ```

use replay4ncl::{cache, methods::MethodSpec, report, scenario, NclError, ScenarioConfig};

fn main() -> Result<(), NclError> {
    let mut config = ScenarioConfig::smoke();
    config.cl_epochs = 20;
    config.insertion_layer = 1;

    let (network, pretrain_acc) = cache::pretrained_network(&config)?;
    println!(
        "pre-trained on classes 0..{} -> old-class accuracy {}",
        config.data.classes - 2,
        report::pct(pretrain_acc)
    );
    println!("now learning class {} ...\n", config.data.classes - 1);

    let t_star = config.data.steps * 2 / 5;
    let methods = [
        MethodSpec::baseline(),
        MethodSpec::spiking_lr(6),
        MethodSpec::replay4ncl(6, t_star).with_lr_divisor(2.0),
    ];

    let mut results = Vec::new();
    for method in &methods {
        results.push(scenario::run_method(
            &config,
            method,
            &network,
            pretrain_acc,
        )?);
    }

    let sota_cost = results[1].total_cost();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let cost = r.total_cost();
            vec![
                r.method.name.clone(),
                report::pct(r.final_old_acc()),
                report::pct(r.final_new_acc()),
                report::pct(r.forgetting()),
                format!("{}", cost.latency),
                format!("{}", cost.energy),
                format!("{:.2} KiB", r.memory.kib()),
                format!("{:.2}x", cost.speedup_vs(&sota_cost)),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            &[
                "method",
                "old acc",
                "new acc",
                "forgetting",
                "latency",
                "energy",
                "memory",
                "vs SOTA"
            ],
            &rows
        )
    );

    println!();
    println!("baseline forgets; both replay methods preserve the old classes;");
    println!("Replay4NCL does so at reduced timesteps — faster, smaller, cheaper.");
    Ok(())
}
