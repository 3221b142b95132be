//! Runs every experiment in sequence.
fn main() {
    println!("==== Fig. 4 ====");
    println!(
        "{}",
        lifl_experiments::fig4::format(&lifl_experiments::fig4::run())
    );
    println!("==== Fig. 7 ====");
    println!(
        "{}",
        lifl_experiments::fig7::format(&lifl_experiments::fig7::run())
    );
    println!("==== Fig. 8 ====");
    println!(
        "{}",
        lifl_experiments::fig8::format(&lifl_experiments::fig8::run())
    );
    println!("==== Ablations (EWMA alpha, leaf fan-in, placement policy) ====");
    println!(
        "{}",
        lifl_experiments::ablation::format(&lifl_experiments::ablation::run())
    );
    println!("==== Fig. 11 / future work: asynchronous FL ====");
    println!(
        "{}",
        lifl_experiments::fig11_async::format(&lifl_experiments::fig11_async::run())
    );
    println!("==== Fig. 9 / Fig. 10 (ResNet-18, 20 rounds) ====");
    let c18 = lifl_experiments::fig9_fig10::run_workload(lifl_types::ModelKind::ResNet18, 20, 50.0);
    println!("{}", lifl_experiments::fig9_fig10::format(&c18));
    println!("{}", lifl_experiments::fig9_fig10::format_timeseries(&c18));
    println!("==== Fig. 9 / Fig. 10 (ResNet-152, 20 rounds) ====");
    let c152 =
        lifl_experiments::fig9_fig10::run_workload(lifl_types::ModelKind::ResNet152, 20, 50.0);
    println!("{}", lifl_experiments::fig9_fig10::format(&c152));
    println!("{}", lifl_experiments::fig9_fig10::format_timeseries(&c152));
    println!("==== Fig. 13 ====");
    println!(
        "{}",
        lifl_experiments::fig13::format(&lifl_experiments::fig13::run())
    );
    println!("==== Codec ablation (bytes-on-wire x time-to-accuracy) ====");
    println!(
        "{}",
        lifl_experiments::fig_codec::format(&lifl_experiments::fig_codec::run())
    );
    println!("==== Orchestration overhead ====");
    println!(
        "{}",
        lifl_experiments::orchestration_overhead::format(
            &lifl_experiments::orchestration_overhead::run()
        )
    );
}
