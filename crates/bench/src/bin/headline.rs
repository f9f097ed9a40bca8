//! Headline numbers (the paper's abstract): old/new Top-1 accuracy,
//! latency speed-up, latent-memory saving and energy saving of Replay4NCL
//! vs SpikingLR at the headline configuration (insertion layer 3,
//! T* = 2/5 T).
//!
//! Paper reference values: old-task Top-1 90.43 % (vs 86.22 % SpikingLR),
//! 4.88x latency speed-up, 20 % latent-memory saving, 36.43 % energy
//! saving.

use ncl_bench::{print_header, replay4ncl_spec, spiking_lr_spec, RunArgs};
use replay4ncl::{cache, methods::MethodSpec, report, scenario};

fn main() {
    let args = RunArgs::from_env();
    let config = args.config();
    print_header("Headline", "abstract numbers of the paper", &args, &config);

    let (network, pretrain_acc) = cache::pretrained_network(&config).expect("pre-training failed");
    println!(
        "pre-training done: old-class test accuracy {}",
        report::pct(pretrain_acc)
    );

    let methods = [
        MethodSpec::baseline(),
        spiking_lr_spec(&config),
        replay4ncl_spec(&config, args.scale),
    ];

    let mut results = Vec::new();
    for method in &methods {
        let result =
            scenario::run_method(&config, method, &network, pretrain_acc).expect("scenario failed");
        println!("{}", report::summarize(&result));
        results.push(result);
    }

    let sota = &results[1];
    let ours = &results[2];
    let rows = vec![
        report::comparison_row(sota, sota),
        report::comparison_row(ours, sota),
    ];
    println!();
    println!(
        "{}",
        report::render_table(
            &[
                "method",
                "old top-1",
                "new top-1",
                "speed-up vs SOTA",
                "energy saving",
                "memory saving"
            ],
            &rows,
        )
    );
    println!();
    println!(
        "paper reports: old 90.43% vs 86.22%, 4.88x latency, 20% memory, 36.43% energy \
         (absolute values differ on synthetic data)"
    );
}
