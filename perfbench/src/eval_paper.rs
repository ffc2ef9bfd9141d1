//! `eval-paper`: Eval forwards at batch 32 through the Table I LeNet,
//! ConvNet and ALEX, each calibrated at all seven Table III precisions
//! (21 cells).
//!
//! Every forward is checked bit for bit against a reference computed at
//! set-up with native dispatch off. The traced run adds the per-cell
//! forward time and a stage split of every convolution on its exact
//! shapes: activation quantize, im2col, native kernel, fused epilogue,
//! per-sample fallback GEMM and the simulated batched conv.

use std::time::Instant;

use qnn_data::{Dataset, DatasetKind};
use qnn_nn::arch::{LayerSpec, NetworkSpec};
use qnn_nn::{set_native, zoo, ActivationCalibration, Mode, Network};
use qnn_quant::calibrate::{scheme_for, Method};
use qnn_quant::packed::{matmul_on_grid_fused, Epilogue, PackedWeights};
use qnn_quant::{quantize_inplace_par, Precision, Quantizer};
use qnn_tensor::conv::{conv2d_with, im2col_into, ConvScratch, Geometry};
use qnn_tensor::gemm::gemm_nn;
use qnn_tensor::rng::derive_seed;
use qnn_tensor::{Shape, Tensor};

use crate::load::Load;
use crate::report::{Metrics, KERNEL_PRECISIONS, NETS, PRECISIONS};
use crate::stats::{median, timed};
use crate::Workload;

/// Images per forward: the batch `Trainer::evaluate` uses.
const BATCH: usize = 32;
/// Repeats of each stage-split pass; the median is reported.
const SPLIT_REPEATS: usize = 3;
/// Seed of the networks' weights and calibration batches. Fixed, so that
/// which cells certify for the native kernels does not change with the
/// workload seed.
const MODEL_SEED: u64 = 0xDA7E;

type Q = Box<dyn Quantizer + Send + Sync>;

fn spec_of(net: usize) -> (NetworkSpec, DatasetKind) {
    match net {
        0 => (zoo::lenet(), DatasetKind::Glyphs28),
        1 => (zoo::convnet(), DatasetKind::HouseDigits32),
        _ => (zoo::alex(), DatasetKind::TexturedObjects32),
    }
}

/// One calibrated (network, precision) pair and its reference logits.
struct Cell {
    net: usize,
    prec: usize,
    model: Network,
    /// Native-off logits of the eval batch.
    reference: Tensor,
    /// Forward seconds per traced sweep.
    fwd_s: Vec<f64>,
}

/// The set-up state of `eval-paper`.
pub struct EvalPaper {
    cells: Vec<Cell>,
    /// Per network: the calibration batch.
    calib: Vec<Tensor>,
    /// Per network: the eval batch.
    eval: Vec<Tensor>,
    calibrate_s: f64,
}

fn batch_of(ds: &Dataset) -> Tensor {
    let (c, h, w) = ds.kind().input_shape();
    Tensor::from_vec(Shape::d4(BATCH, c, h, w), ds.images().as_slice().to_vec())
        .expect("batch shape")
}

fn build(net: usize) -> Result<Network, String> {
    let (spec, _) = spec_of(net);
    Network::build(&spec, derive_seed(MODEL_SEED, 100 + net as u64))
        .map_err(|e| format!("{}: {e}", NETS[net]))
}

fn quantizer(scheme: qnn_quant::Scheme, sample: &Tensor) -> Result<Q, String> {
    scheme_for(scheme, &[sample], Method::MaxAbs).map_err(|e| format!("calibrate: {e}"))
}

/// Stage seconds of one pass over a network's convolutions at one row.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    act_quantize: f64,
    im2col: f64,
    kernel: f64,
    fused: f64,
    gemm_fallback: f64,
    sim_conv: f64,
}

impl EvalPaper {
    /// Times every stage of every convolution of `net` at row `prec` on
    /// the layer's exact inputs (batch 0), `SPLIT_REPEATS` times; returns
    /// the per-stage median in seconds per batch.
    fn stage_split(&mut self, net: usize, prec: usize) -> Result<Stages, String> {
        let precision = Precision::paper_sweep()[prec];
        let (spec, _) = spec_of(net);
        // The activation quantizers are calibrated, as `set_precision`
        // does, from an unquantized trace of the calibration batch.
        let fp_trace = build(net)?
            .forward_trace(&self.calib[net])
            .map_err(|e| format!("trace: {e}"))?;
        let cell = self
            .cells
            .iter_mut()
            .find(|c| c.net == net && c.prec == prec)
            .expect("every cell is built");
        let q_trace = cell
            .model
            .forward_trace(&self.eval[net])
            .map_err(|e| format!("trace: {e}"))?;
        let descs = cell.model.weight_quantizer_descriptions();
        let params = cell.model.params();
        let packs = KERNEL_PRECISIONS.contains(&PRECISIONS[prec]);
        let mut passes = Vec::with_capacity(SPLIT_REPEATS);
        for _ in 0..SPLIT_REPEATS {
            let mut t = Stages::default();
            let mut weighted = 0;
            for (li, layer) in spec.layers().iter().enumerate() {
                let LayerSpec::Conv {
                    out_channels: o,
                    kernel,
                    stride,
                    pad,
                } = *layer
                else {
                    weighted += usize::from(layer.has_params());
                    continue;
                };
                let (weight, bias) = (&params[2 * weighted].value, &params[2 * weighted + 1].value);
                weighted += 1;
                let wq = quantizer(precision.weights(), weight)?;
                if descs[li].as_deref() != Some(wq.describe().as_str()) {
                    return Err(format!(
                        "{} layer {li}: rebuilt weight quantizer {} differs from the network's {:?}",
                        NETS[net],
                        wq.describe(),
                        descs[li]
                    ));
                }
                let iq = quantizer(precision.activations(), &fp_trace[li])?;
                let oq = quantizer(precision.activations(), &fp_trace[li + 1])?;
                let qw = wq.quantize(weight);
                let input = &q_trace[li];
                let d = input.shape().dims().to_vec();
                let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
                let geom = Geometry::square(kernel, stride, pad);
                let (oh, ow) = geom.output_hw(h, w).map_err(|e| e.to_string())?;
                let (px, kdim) = (oh * ow, c * kernel * kernel);

                let mut x = input.clone();
                t.act_quantize += timed(|| quantize_inplace_par(iq.as_ref(), &mut x)).1;

                let mut cols = vec![0.0f32; n * kdim * px];
                let img = c * h * w;
                let (r, dt) = timed(|| {
                    cols.chunks_exact_mut(kdim * px)
                        .zip(input.as_slice().chunks_exact(img))
                        .try_for_each(|(dst, src)| im2col_into(src, c, h, w, geom, dst).map(drop))
                });
                r.map_err(|e| e.to_string())?;
                t.im2col += dt;

                let mut out = vec![0.0f32; o * px];
                t.gemm_fallback += timed(|| {
                    for s in cols.chunks_exact(kdim * px) {
                        gemm_nn(o, kdim, px, qw.as_slice(), s, &mut out);
                    }
                })
                .1;
                std::hint::black_box(&out);

                let mut scratch = ConvScratch::new();
                let (r, dt) = timed(|| conv2d_with(&mut scratch, input, &qw, bias, geom));
                std::hint::black_box(r.map_err(|e| e.to_string())?);
                t.sim_conv += dt;

                if !packs {
                    continue;
                }
                let (Some(wc), Some(ac)) = (wq.bit_codec(), iq.bit_codec()) else {
                    return Err(format!("{} {}: no codec", NETS[net], PRECISIONS[prec]));
                };
                let plan = PackedWeights::pack(&wc, o, kdim, qw.as_slice()).ok_or_else(|| {
                    format!("{} {}: weights did not pack", NETS[net], PRECISIONS[prec])
                })?;
                let epi = Epilogue {
                    bias: Some(bias.as_slice()),
                    out_quant: Some(oq.as_ref()),
                };
                for (epilogue, slot) in [(Epilogue::none(), &mut t.kernel), (epi, &mut t.fused)] {
                    *slot += timed(|| {
                        for s in cols.chunks_exact(kdim * px) {
                            // The certificate may refuse a sample; the time
                            // of the attempt is what the layer pays either way.
                            matmul_on_grid_fused(
                                &ac, s, px, kdim, true, &plan, &epilogue, &mut out,
                            );
                        }
                    })
                    .1;
                }
                std::hint::black_box(&out);
            }
            passes.push(t);
        }
        let med = |f: fn(&Stages) -> f64| {
            median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        Ok(Stages {
            act_quantize: med(|t| t.act_quantize),
            im2col: med(|t| t.im2col),
            kernel: med(|t| t.kernel),
            fused: med(|t| t.fused),
            gemm_fallback: med(|t| t.gemm_fallback),
            sim_conv: med(|t| t.sim_conv),
        })
    }

    /// Seconds to pack every weighted layer of the three networks at row
    /// `prec` (median of `SPLIT_REPEATS`).
    fn pack_time(&self, prec: usize) -> Result<f64, String> {
        let mut passes = Vec::with_capacity(SPLIT_REPEATS);
        for _ in 0..SPLIT_REPEATS {
            let mut total = 0.0;
            for cell in self.cells.iter().filter(|c| c.prec == prec) {
                for w in cell
                    .model
                    .params()
                    .iter()
                    .filter(|p| p.value.shape().rank() >= 2)
                {
                    let wq = quantizer(Precision::paper_sweep()[prec].weights(), &w.value)?;
                    let codec = wq.bit_codec().ok_or("no weight codec")?;
                    let qw = wq.quantize(&w.value);
                    let rows = qw.shape().dim(0);
                    let cols = qw.len() / rows;
                    let (plan, dt) =
                        timed(|| PackedWeights::pack(&codec, rows, cols, qw.as_slice()));
                    plan.ok_or("weights did not pack")?;
                    total += dt;
                }
            }
            passes.push(total);
        }
        Ok(median(&passes).unwrap_or(0.0))
    }
}

impl Workload for EvalPaper {
    const SETUPS: usize = 3;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut calib = Vec::with_capacity(NETS.len());
        let mut eval = Vec::with_capacity(NETS.len());
        for net in 0..NETS.len() {
            let (_, kind) = spec_of(net);
            // The models and their calibration are fixed; the seed picks
            // the images they are evaluated on.
            let batch = |seed| {
                batch_of(&Dataset::generate(
                    kind,
                    BATCH,
                    derive_seed(seed, net as u64),
                ))
            };
            calib.push(batch(MODEL_SEED));
            eval.push(batch(seed));
        }
        let mut cells = Vec::with_capacity(NETS.len() * PRECISIONS.len());
        let mut calibrate_s = 0.0;
        for (net, calib) in calib.iter().enumerate() {
            for (prec, precision) in Precision::paper_sweep().into_iter().enumerate() {
                let mut model = build(net)?;
                let (r, dt) = timed(|| {
                    model.set_precision(
                        precision,
                        Method::MaxAbs,
                        calib,
                        ActivationCalibration::PerLayer,
                    )
                });
                r.map_err(|e| format!("calibrate {} {}: {e}", NETS[net], PRECISIONS[prec]))?;
                calibrate_s += dt;
                set_native(Some(false));
                let reference = model.forward(&eval[net], Mode::Eval);
                set_native(None);
                cells.push(Cell {
                    net,
                    prec,
                    model,
                    reference: reference.map_err(|e| format!("reference: {e}"))?,
                    fwd_s: Vec::new(),
                });
            }
        }
        let mut s = EvalPaper {
            cells,
            calib,
            eval,
            calibrate_s,
        };
        // Warm-up: one native sweep builds the weight plans and scratch
        // buffers.
        s.sweep_into(&mut Load::default(), false);
        Ok(s)
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Result<Load, String> {
        let mut load = Load::default();
        let t0 = Instant::now();
        // Whole sweeps only, so every run covers the same mix of cells: as
        // many as come nearest to `seconds`, and at least one.
        let mut sweeps = 0.0;
        loop {
            let t = t0.elapsed().as_secs_f64();
            if sweeps > 0.0 && t + t / sweeps / 2.0 >= seconds {
                break;
            }
            self.sweep_into(&mut load, traced);
            sweeps += 1.0;
        }
        load.elapsed_s = t0.elapsed().as_secs_f64();
        Ok(load)
    }

    fn per_layer(mut self, m: &mut Metrics) -> Result<(), String> {
        for cell in &self.cells {
            let s = median(&cell.fwd_s).ok_or("per-layer metrics need a traced loop")?;
            m.put(
                format!("nn.fwd_us_img.{}.{}", NETS[cell.net], PRECISIONS[cell.prec]),
                s * 1e6 / BATCH as f64,
                "us",
            );
        }
        let per_img = |s: f64| s * 1e6 / BATCH as f64;
        for (net, name) in NETS.iter().enumerate() {
            // Counted in a pass of its own: engine tracing changes which
            // epilogue runs, so it stays off while timing.
            qnn_trace::start();
            let counted: Result<(), String> = self
                .cells
                .iter_mut()
                .filter(|c| c.net == net)
                .try_for_each(|c| {
                    c.model
                        .forward(&self.eval[net], Mode::Eval)
                        .map(drop)
                        .map_err(|e| e.to_string())
                });
            let trace = qnn_trace::stop();
            counted?;
            m.put(
                format!("nn.native_flop_share.{name}"),
                crate::native_share(&trace),
                "ratio",
            );

            for (prec, p) in PRECISIONS.iter().enumerate().skip(1) {
                let st = self.stage_split(net, prec)?;
                m.put(
                    format!("quant.act_quantize_us_img.{name}.{p}"),
                    per_img(st.act_quantize),
                    "us",
                );
                if KERNEL_PRECISIONS.contains(p) {
                    m.put(
                        format!("quant.kernel_us_img.{name}.{p}"),
                        per_img(st.kernel),
                        "us",
                    );
                    m.put(
                        format!("quant.epilogue_us_img.{name}.{p}"),
                        per_img(st.fused - st.kernel),
                        "us",
                    );
                }
                // Precision-independent f32 stages: reported once, from
                // the fixed8 row.
                if *p == "fixed8" {
                    m.put(
                        format!("tensor.im2col_us_img.{name}"),
                        per_img(st.im2col),
                        "us",
                    );
                    m.put(
                        format!("tensor.gemm_fallback_us_img.{name}"),
                        per_img(st.gemm_fallback),
                        "us",
                    );
                    m.put(
                        format!("tensor.sim_conv_us_img.{name}"),
                        per_img(st.sim_conv),
                        "us",
                    );
                }
            }
        }
        for p in KERNEL_PRECISIONS {
            let prec = PRECISIONS
                .iter()
                .position(|q| *q == p)
                .expect("kernel rows are rows");
            m.put(
                format!("quant.pack_us.{p}"),
                self.pack_time(prec)? * 1e6,
                "us",
            );
        }
        m.put("nn.calibrate_s", self.calibrate_s, "s");
        Ok(())
    }

    fn close(self) -> Result<(), String> {
        Ok(())
    }
}

impl EvalPaper {
    /// One forward of every cell on its network's eval batch, verified.
    fn sweep_into(&mut self, load: &mut Load, traced: bool) {
        for (i, cell) in self.cells.iter_mut().enumerate() {
            let input = &self.eval[cell.net];
            let t = Instant::now();
            let out = cell.model.forward(input, Mode::Eval);
            let dt = t.elapsed().as_secs_f64();
            load.attempted += 1;
            match out {
                Ok(out) if crate::same_bits(out.as_slice(), cell.reference.as_slice()) => {
                    load.images += BATCH as u64;
                    load.unit_done(i, BATCH as u64, dt);
                }
                _ => load.failed += 1,
            }
            if traced {
                cell.fwd_s.push(dt);
            }
        }
    }
}
