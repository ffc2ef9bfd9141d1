//! `perfbench` — the end-to-end and per-layer benchmark of the qnn
//! workspace.
//!
//! ```text
//! perfbench --workload <serve-mix|eval-paper|qat-train>
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! The process pins itself to one CPU before anything else runs. An
//! untraced run (`--trace 0`) sets the workload up several times, reports
//! the median set-up time, then runs the workload's timed loop with every
//! outcome verified, and prints the end-to-end metrics. A traced run
//! (`--trace 1`) sets up each of the three workloads once, runs each loop
//! untraced and then with the benchmark's own spans on, and prints the
//! per-layer metrics of serve, nn, quant and tensor. The last line of
//! standard output is the result object; the exit code is non-zero when
//! any outcome failed its check. See `README.md` next to this file.

mod eval_paper;
mod host;
mod load;
mod qat_train;
mod report;
mod serve_mix;
mod stats;

use std::process::ExitCode;

use load::Load;
use report::{Metrics, END_TO_END, WORKLOADS};
use stats::timed;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// A second seed, kept out of tuning, for re-checking a claimed gain.
const RECHECK_SEED: u64 = 2017;
/// Seconds a timed loop runs when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 40.0;

/// One benchmark workload: a set-up, a verified timed loop, and the
/// per-layer figures a traced loop leaves behind.
pub trait Workload: Sized {
    /// Set-ups per untraced run; `setup_s` is their median, and the timed
    /// loop is shared equally among them.
    const SETUPS: usize;
    /// Builds every input from `seed` and warms the program up.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Runs the timed loop for about `seconds`, checking every outcome;
    /// with `traced`, records the benchmark's spans for [`per_layer`].
    ///
    /// [`per_layer`]: Workload::per_layer
    fn run(&mut self, seconds: f64, traced: bool) -> Result<Load, String>;
    /// Adds this workload's per-layer metrics, after a traced loop.
    fn per_layer(self, m: &mut Metrics) -> Result<(), String>;
    /// Releases what the set-up started.
    fn close(self) -> Result<(), String>;
}

/// Whether two float slices are equal in length and bit for bit — the
/// check every verified outcome passes.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Share of forward flops that ran on native kernels in a counted trace.
pub fn native_share(trace: &qnn_trace::Trace) -> f64 {
    let native = trace.counter("nn.fwd.flops.native") as f64;
    let simulated = trace.counter("nn.fwd.flops.simulated") as f64;
    native / (native + simulated).max(1.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Sets `W` up `W::SETUPS` times and runs an equal share of the timed
/// loop on each set-up, so that the run spans several memory layouts.
fn untraced<W: Workload>(seed: u64, seconds: f64) -> Result<(Metrics, Load), String> {
    let mut setup_s = Vec::with_capacity(W::SETUPS);
    let mut load = Load::default();
    for _ in 0..W::SETUPS {
        let (w, dt) = timed(|| W::setup(seed));
        let mut w = w?;
        setup_s.push(dt);
        load.absorb(w.run(seconds / W::SETUPS as f64, false)?);
        w.close()?;
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "run {{\"setup_s\": [{}], \"images\": {}, \"elapsed_s\": {:.3}, \"wall_img_s\": {:.2}, \
         \"units\": {}, \"latency_windows\": {}}}",
        list(&setup_s),
        load.images,
        load.elapsed_s,
        load.images as f64 / load.elapsed_s,
        load.units(),
        load.windows()
    );
    let m = load::end_to_end(&setup_s, &load)?;
    Ok((m, load))
}

/// Runs `W`'s loop untraced and then traced for `seconds` each, adding its
/// per-layer metrics and trace overhead. Returns the loops' tally.
fn traced<W: Workload>(
    name: &str,
    seed: u64,
    seconds: f64,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let mut w = W::setup(seed)?;
    let plain = w.run(seconds, false)?;
    let spanned = w.run(seconds, true)?;
    w.per_layer(m)?;
    m.put(
        format!("bench.trace_overhead_pct.{}", name.replace('-', "_")),
        (plain.throughput() / spanned.throughput() - 1.0) * 100.0,
        "%",
    );
    Ok((
        plain.attempted + spanned.attempted,
        plain.failed + spanned.failed,
    ))
}

fn run(args: &Args) -> Result<(Metrics, u64, u64), String> {
    if args.trace {
        // Every layer of every workload: six loops share the time.
        let secs = args.seconds / 6.0;
        let mut m = Metrics::default();
        let mut tally = (0, 0);
        for (name, r) in [
            (
                "serve-mix",
                traced::<serve_mix::ServeMix>("serve-mix", args.seed, secs, &mut m),
            ),
            (
                "eval-paper",
                traced::<eval_paper::EvalPaper>("eval-paper", args.seed, secs, &mut m),
            ),
            (
                "qat-train",
                traced::<qat_train::QatTrain>("qat-train", args.seed, secs, &mut m),
            ),
        ] {
            let (a, f) = r.map_err(|e| format!("{name}: {e}"))?;
            tally = (tally.0 + a, tally.1 + f);
        }
        m.check(&report::per_layer())?;
        return Ok((m, tally.0, tally.1));
    }
    let (mut m, load) = match args.workload.as_str() {
        "serve-mix" => untraced::<serve_mix::ServeMix>(args.seed, args.seconds),
        "eval-paper" => untraced::<eval_paper::EvalPaper>(args.seed, args.seconds),
        _ => untraced::<qat_train::QatTrain>(args.seed, args.seconds),
    }?;
    m.put("peak_rss_mb", host::peak_rss_mb()?, "MiB");
    let expected: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    m.check(&expected)?;
    Ok((m, load.attempted, load.failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Either variable changes which program is measured.
    for var in ["QNN_THREADS", "QNN_NATIVE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: {var} is set; unset it to measure the default program");
            return ExitCode::from(2);
        }
    }
    let place = match host::pin_to_one_cpu() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host {{\"nproc\": {}, \"pinned_cpu\": {}, \"par_threads\": {}, \"native_enabled\": {}, \
         \"workload\": \"{}\", \"seed\": {}, \"recheck_seed\": {RECHECK_SEED}, \"seconds\": {}, \"trace\": {}}}",
        place.nproc,
        place.cpu,
        qnn_tensor::par::threads(),
        qnn_nn::native_enabled(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&args) {
        Ok((m, attempted, failed)) => {
            println!("{}", m.result_line(attempted, failed));
            if failed == 0 && attempted > 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {failed} of {attempted} outcomes failed their check");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::same_bits;

    #[test]
    fn same_bits_compares_bit_patterns_and_lengths() {
        assert!(same_bits(&[1.0, -2.5], &[1.0, -2.5]));
        assert!(!same_bits(&[0.0], &[-0.0]), "signed zeros differ in bits");
        assert!(same_bits(&[f32::NAN], &[f32::NAN]));
        assert!(!same_bits(&[1.0], &[1.0, 1.0]));
        assert!(!same_bits(&[1.0], &[f32::from_bits(1.0f32.to_bits() + 1)]));
    }
}
