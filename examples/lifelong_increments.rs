//! Lifelong operation (extension beyond the paper): learn several new
//! classes one after another. The latent store grows with each increment,
//! and — because the frozen stages never change — entries captured in
//! earlier increments stay valid.
//!
//! ```sh
//! cargo run --release --example lifelong_increments
//! ```

use replay4ncl::{methods::MethodSpec, report, sequence, NclError, ScenarioConfig};

fn main() -> Result<(), NclError> {
    let mut config = ScenarioConfig::smoke();
    config.cl_epochs = 12;
    config.insertion_layer = 1;
    let increments = 2usize;
    let t_star = config.data.steps * 2 / 5;

    println!(
        "pre-train on {} classes, then learn {} more, one at a time",
        config.data.classes as usize - increments,
        increments
    );

    for method in [
        MethodSpec::baseline(),
        MethodSpec::replay4ncl(6, t_star).with_lr_divisor(2.0),
    ] {
        let result = sequence::run_sequence(&config, &method, increments)?;
        println!();
        println!(
            "== {} (pre-train accuracy {}) ==",
            result.method.name,
            report::pct(result.pretrain_acc)
        );
        let rows: Vec<Vec<String>> = result
            .increments
            .iter()
            .map(|r| {
                vec![
                    format!("class {}", r.class),
                    report::pct(r.old_acc),
                    report::pct(r.new_acc),
                    report::pct(r.seen_acc),
                    format!("{:.2} KiB", r.memory_bits as f64 / 8192.0),
                ]
            })
            .collect();
        println!(
            "{}",
            report::render_table(
                &[
                    "increment",
                    "old-classes acc",
                    "new-class acc",
                    "all-seen acc",
                    "latent store"
                ],
                &rows
            )
        );
    }

    println!();
    println!("the replayed run retains earlier increments; the baseline loses them.");
    Ok(())
}
