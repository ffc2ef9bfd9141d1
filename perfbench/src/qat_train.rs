//! `qat-train`: quantization-aware fine-tuning of an FP-pretrained
//! `lenet_small` on Glyphs28, one step at each of the six quantized Table
//! III rows per sweep.
//!
//! The step is the one `Trainer` runs: zero grads, Train forward, softmax
//! cross-entropy, backward, clipped straight-through estimator, SGD.
//! Every loss must be finite, and after the timed loop every row's Eval
//! output on the test split must be the same with native dispatch on and
//! off.

use std::time::Instant;

use qnn_data::{standard_splits, DatasetKind, Splits};
use qnn_nn::arch::LayerSpec;
use qnn_nn::loss::softmax_cross_entropy;
use qnn_nn::{set_native, zoo, ActivationCalibration, Mode, Network, Sgd, Trainer, TrainerConfig};
use qnn_quant::calibrate::{scheme_for, Method};
use qnn_quant::{Precision, Quantizer};
use qnn_tensor::conv::{conv2d_backward_with, conv2d_with, ConvScratch, Geometry};
use qnn_tensor::rng::{derive_seed, seeded};
use qnn_tensor::{Shape, Tensor};

use crate::load::Load;
use crate::report::Metrics;
use crate::stats::{median, timed};
use crate::Workload;

/// Training samples.
const N_TRAIN: usize = 1024;
/// Test pool (10 % of it becomes the validation split).
const N_TEST: usize = 256;
/// Samples per step.
const BATCH: usize = 32;
/// Full-precision pre-training epochs.
const PRETRAIN_EPOCHS: usize = 2;

type Q = Box<dyn Quantizer + Send + Sync>;

/// One quantized row under fine-tuning.
struct Row {
    model: Network,
    opt: Sgd,
    /// The row's weight quantizer per weighted layer, rebuilt as
    /// `set_precision` calibrated it.
    weight_q: Vec<Q>,
}

/// Per-phase seconds of a traced loop, summed over its steps.
#[derive(Debug, Default)]
struct StepSpans {
    forward: f64,
    backward: f64,
    optim: f64,
    weight_quantize: f64,
    samples: u64,
}

/// The set-up state of `qat-train`.
pub struct QatTrain {
    splits: Splits,
    rows: Vec<Row>,
    /// Shuffled training minibatches `(images, labels)`, cycled.
    batches: Vec<(Tensor, Vec<usize>)>,
    steps: usize,
    generate_s: f64,
    pretrain_s: f64,
    spans: Option<StepSpans>,
}

fn gather(images: &Tensor, labels: &[usize], idx: &[usize]) -> (Tensor, Vec<usize>) {
    let d = images.shape().dims();
    let per = d[1] * d[2] * d[3];
    let mut data = Vec::with_capacity(idx.len() * per);
    for &i in idx {
        data.extend_from_slice(&images.as_slice()[i * per..(i + 1) * per]);
    }
    let t = Tensor::from_vec(Shape::d4(idx.len(), d[1], d[2], d[3]), data).expect("batch shape");
    (t, idx.iter().map(|&i| labels[i]).collect())
}

fn err(what: &str) -> impl Fn(qnn_nn::NnError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl QatTrain {
    /// One training step of `row` on minibatch `b`, returning its seconds;
    /// `None` when the loss is not finite (the update is then skipped, as
    /// `Trainer` stops).
    fn step(&mut self, row: usize, b: usize) -> Result<Option<f64>, String> {
        let (x, y) = &self.batches[b];
        let r = &mut self.rows[row];
        let spans = self.spans.as_mut();
        let t0 = Instant::now();
        r.model.zero_grads();
        let logits = r.model.forward(x, Mode::Train).map_err(err("forward"))?;
        let out = softmax_cross_entropy(&logits, y).map_err(err("loss"))?;
        let t1 = Instant::now();
        if !out.loss.is_finite() {
            return Ok(None);
        }
        r.model.backward(&out.grad).map_err(err("backward"))?;
        let t2 = Instant::now();
        r.model.apply_ste_clip().map_err(err("ste clip"))?;
        r.opt.step(&mut r.model);
        let t3 = Instant::now();
        if let Some(s) = spans {
            s.forward += (t1 - t0).as_secs_f64();
            s.backward += (t2 - t1).as_secs_f64();
            s.optim += (t3 - t2).as_secs_f64();
            s.samples += x.shape().dim(0) as u64;
            // What the Train forward pays to re-quantize the shadow weights.
            let weights = r.model.params();
            let weights = weights.iter().filter(|p| p.value.shape().rank() >= 2);
            for (q, w) in r.weight_q.iter().zip(weights) {
                let (qw, dt) = timed(|| q.quantize(&w.value));
                std::hint::black_box(qw);
                s.weight_quantize += dt;
            }
        }
        Ok(Some((t3 - t0).as_secs_f64()))
    }

    /// Eval logits of `row` over the test split, in batches of `BATCH`.
    fn eval_test(&mut self, row: usize) -> Result<Vec<Tensor>, String> {
        let test = &self.splits.test;
        let idx: Vec<usize> = (0..test.len()).collect();
        idx.chunks(BATCH)
            .map(|c| {
                let (x, _) = gather(test.images(), test.labels(), c);
                self.rows[row]
                    .model
                    .forward(&x, Mode::Eval)
                    .map_err(err("eval"))
            })
            .collect()
    }

    /// Times the simulated conv forward and backward on every conv layer
    /// of the fixed8 row at its Train-mode inputs, seconds per batch.
    fn conv_times(&mut self) -> Result<(f64, f64), String> {
        let spec = zoo::lenet_small();
        let row = &mut self.rows[2];
        let trace = row
            .model
            .forward_trace(&self.batches[0].0)
            .map_err(err("trace"))?;
        let params = row.model.params();
        let mut r = seeded(7);
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let (mut f, mut b) = (0.0, 0.0);
            let mut weighted = 0;
            for (li, layer) in spec.layers().iter().enumerate() {
                let LayerSpec::Conv {
                    kernel,
                    stride,
                    pad,
                    ..
                } = *layer
                else {
                    weighted += usize::from(layer.has_params());
                    continue;
                };
                let qw = row.weight_q[weighted].quantize(&params[2 * weighted].value);
                let bias = &params[2 * weighted + 1].value;
                weighted += 1;
                let geom = Geometry::square(kernel, stride, pad);
                let mut scratch = ConvScratch::new();
                let input = &trace[li];
                let (out, dt) = timed(|| conv2d_with(&mut scratch, input, &qw, bias, geom));
                let out = out.map_err(|e| e.to_string())?;
                f += dt;
                let g: Vec<f32> = (0..out.len()).map(|_| r.gen_range(-1.0f32..1.0)).collect();
                let grad = Tensor::from_vec(out.shape().clone(), g).map_err(|e| e.to_string())?;
                let (grads, dt) =
                    timed(|| conv2d_backward_with(&mut scratch, input, &qw, &grad, geom));
                std::hint::black_box(grads.map_err(|e| e.to_string())?);
                b += dt;
            }
            fwd.push(f);
            bwd.push(b);
        }
        Ok((median(&fwd).unwrap_or(0.0), median(&bwd).unwrap_or(0.0)))
    }
}

impl Workload for QatTrain {
    const SETUPS: usize = 5;

    fn setup(seed: u64) -> Result<Self, String> {
        let (splits, generate_s) =
            timed(|| standard_splits(DatasetKind::Glyphs28, N_TRAIN, N_TEST, seed));
        let spec = zoo::lenet_small();
        let mut base = Network::build(&spec, derive_seed(seed, 3)).map_err(err("build"))?;
        let cfg = TrainerConfig {
            epochs: PRETRAIN_EPOCHS,
            seed: derive_seed(seed, 4),
            ..TrainerConfig::default()
        };
        let trainer = Trainer::new(cfg).map_err(err("trainer"))?;
        let (report, pretrain_s) =
            timed(|| trainer.train(&mut base, splits.train.images(), splits.train.labels()));
        report.map_err(err("pretrain"))?;
        let state = base.state_dict();
        let n = splits.train.len();
        let (calib, _) = gather(
            splits.train.images(),
            splits.train.labels(),
            &(0..BATCH.min(n)).collect::<Vec<_>>(),
        );
        let mut rows = Vec::new();
        for precision in Precision::paper_sweep().into_iter().skip(1) {
            let mut model = Network::build(&spec, derive_seed(seed, 3)).map_err(err("build"))?;
            model.load_state(&state).map_err(err("load state"))?;
            let weight_q = model
                .params()
                .iter()
                .filter(|p| p.value.shape().rank() >= 2)
                .map(|p| scheme_for(precision.weights(), &[&p.value], Method::MaxAbs))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("calibrate: {e}"))?;
            model
                .set_precision(
                    precision,
                    Method::MaxAbs,
                    &calib,
                    ActivationCalibration::PerLayer,
                )
                .map_err(err("calibrate"))?;
            let opt = Sgd::new(cfg.lr * cfg.qat_lr_factor)
                .momentum(cfg.momentum)
                .weight_decay(cfg.weight_decay);
            rows.push(Row {
                model,
                opt,
                weight_q,
            });
        }
        let mut order: Vec<usize> = (0..n).collect();
        seeded(derive_seed(seed, 5)).shuffle(&mut order);
        let batches = order
            .chunks_exact(BATCH)
            .map(|c| gather(splits.train.images(), splits.train.labels(), c))
            .collect();
        let mut s = QatTrain {
            splits,
            rows,
            batches,
            steps: 0,
            generate_s,
            pretrain_s,
            spans: None,
        };
        // Warm-up: one step per row sizes every layer's buffers.
        s.run_sweep(&mut Load::default())?;
        Ok(s)
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Result<Load, String> {
        self.spans = traced.then(StepSpans::default);
        let mut load = Load::default();
        let t0 = Instant::now();
        // Whole sweeps only, so every run covers the same mix of rows.
        while t0.elapsed().as_secs_f64() < seconds {
            self.run_sweep(&mut load)?;
        }
        load.elapsed_s = t0.elapsed().as_secs_f64();
        // Native on and off must agree on every row's test-split output.
        for row in 0..self.rows.len() {
            set_native(Some(true));
            let on = self.eval_test(row);
            set_native(Some(false));
            let off = self.eval_test(row);
            set_native(None);
            load.attempted += 1;
            let (on, off) = (on?, off?);
            let same = on.len() == off.len()
                && on
                    .iter()
                    .zip(&off)
                    .all(|(a, b)| crate::same_bits(a.as_slice(), b.as_slice()));
            if !same {
                load.failed += 1;
            }
        }
        Ok(load)
    }

    fn per_layer(mut self, m: &mut Metrics) -> Result<(), String> {
        let s = self
            .spans
            .take()
            .ok_or("per-layer metrics need a traced loop")?;
        let per = |secs: f64| secs * 1e6 / s.samples.max(1) as f64;
        m.put("nn.train.forward_us_img", per(s.forward), "us");
        m.put("nn.train.backward_us_img", per(s.backward), "us");
        m.put("nn.train.optim_us_img", per(s.optim), "us");
        m.put("quant.weight_quantize_us_img", per(s.weight_quantize), "us");
        let (fwd, bwd) = self.conv_times()?;
        m.put("tensor.conv_fwd_us_img", fwd * 1e6 / BATCH as f64, "us");
        m.put("tensor.conv_bwd_us_img", bwd * 1e6 / BATCH as f64, "us");
        m.put("data.generate_s", self.generate_s, "s");
        m.put("nn.pretrain_s", self.pretrain_s, "s");
        Ok(())
    }

    fn close(self) -> Result<(), String> {
        Ok(())
    }
}

impl QatTrain {
    /// One verified step at every row.
    fn run_sweep(&mut self, load: &mut Load) -> Result<(), String> {
        for row in 0..self.rows.len() {
            let b = self.steps % self.batches.len();
            self.steps += 1;
            load.attempted += 1;
            match self.step(row, b)? {
                Some(dt) => {
                    load.images += BATCH as u64;
                    load.unit_done(row, BATCH as u64, dt);
                }
                None => load.failed += 1,
            }
        }
        Ok(())
    }
}
