//! Tuning the pipeline depth for a custom convolution layer: lower the
//! layer to a GEMM, sweep every supported collapsing depth, and compare the
//! discrete optimum with the closed-form estimate of Equation (7).
//!
//! Run with `cargo run --example layer_tuning -- [out_channels] [in_channels] [kernel] [input_size]`
//! (defaults reproduce a late-network 3x3 convolution at 14x14).

use arrayflex::ArrayFlexModel;
use cnn::Layer;
use gemm::ConvShape;

fn arg(index: usize, default: usize) -> usize {
    std::env::args()
        .nth(index)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_channels = arg(1, 512);
    let in_channels = arg(2, 256);
    let kernel = arg(3, 3);
    let input_size = arg(4, 14);

    let shape = ConvShape::dense(in_channels, out_channels, kernel, 2, kernel / 2, input_size);
    let layer = Layer::conv(1, "custom", shape);
    let dims = layer.gemm_dims();
    println!(
        "convolution {in_channels} -> {out_channels}, {kernel}x{kernel}, input {input_size}x{input_size}"
    );
    println!("lowered GEMM dimensions: {dims}\n");

    for size in [128u32, 256] {
        let model = ArrayFlexModel::new(size, size)?;
        let conventional = model.execute_conventional(dims)?;
        println!(
            "--- {size}x{size} PEs (conventional: {:.2} us) ---",
            conventional.time.value()
        );
        println!("  k   cycles      f (GHz)   time (us)   vs conventional");
        for execution in model.depth_sweep(dims)? {
            println!(
                "  {}   {:>9}   {:>6.2}    {:>8.2}     {:>6.3}",
                execution.collapse_depth,
                execution.cycles,
                execution.frequency.value(),
                execution.time.value(),
                execution.time.value() / conventional.time.value()
            );
        }
        let choice = model.optimal_depth(dims)?;
        println!(
            "  best supported mode: k = {} ({:.2} us); Equation (7) estimate k_hat = {:.2}\n",
            choice.collapse_depth,
            choice.execution.time.value(),
            choice.continuous_estimate
        );
    }
    Ok(())
}
