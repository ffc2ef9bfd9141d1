//! `serve-mix`: an in-process server under one closed-loop pipelined
//! connection, with a seeded uniform mix over the seven Table III tags.
//!
//! Every response is checked bit for bit against single-shot logits
//! computed at set-up from a local [`ModelBank`] built from the same seed
//! as the server's.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qnn_serve::model::test_image;
use qnn_serve::server::{ServeConfig, ServeStats};
use qnn_serve::{FrameKind, ModelBank, ServeClient, Server, NUM_PRECISIONS};
use qnn_tensor::rng::{derive_seed, seeded};

use crate::load::Load;
use crate::report::{Metrics, PRECISIONS};
use crate::stats::{median, percentile, timed};
use crate::Workload;

/// Requests in flight on the connection.
const WINDOW: usize = 32;
/// Distinct request images; the stream draws from them.
const POOL: usize = 256;
/// Length of the seeded request stream, cycled by the loop.
const STREAM: usize = 8192;
/// Requests sent through the server at set-up, before timing.
const WARMUP: usize = 2048;
/// Slots of the in-flight request table.
const RING: usize = 1024;
/// Consecutive verified responses per throughput unit and latency window.
const UNIT_RESPONSES: usize = 1024;
/// Requests replayed with engine tracing on to count native flops.
const COUNT_REPLAY: usize = 2048;

/// Client-side call timings of a traced loop.
#[derive(Debug, Default)]
struct ClientSpans {
    send_us: Vec<f64>,
    recv_us: Vec<f64>,
    /// Stream positions sent, in order.
    sent: Vec<usize>,
    elapsed_s: f64,
}

/// The set-up state of `serve-mix`.
pub struct ServeMix {
    cfg: ServeConfig,
    server: Server,
    client: ServeClient,
    bank: ModelBank,
    images: Vec<Vec<f32>>,
    /// `(tag, image)` per stream position.
    stream: Vec<(u8, usize)>,
    /// Single-shot logits per `tag * POOL + image`.
    expected: Vec<Vec<f32>>,
    cursor: usize,
    spans: Option<ClientSpans>,
}

fn start(cfg: &ServeConfig) -> Result<(Server, ServeClient), String> {
    let server = Server::start(cfg.clone()).map_err(|e| format!("server start: {e}"))?;
    let client = ServeClient::connect(&server.local_addr().to_string())
        .map_err(|e| format!("connect: {e}"))?;
    Ok((server, client))
}

fn stop(server: Server, mut client: ServeClient) -> Result<ServeStats, String> {
    client
        .shutdown_server()
        .map_err(|e| format!("shutdown: {e}"))?;
    Ok(server.join())
}

impl ServeMix {
    fn warm_up(&mut self) -> Result<(), String> {
        let warm = self.drive(Instant::now(), Some(WARMUP), None)?;
        if warm.failed > 0 {
            return Err(format!(
                "{} of {WARMUP} warm-up responses failed",
                warm.failed
            ));
        }
        Ok(())
    }

    /// The closed loop: keeps `WINDOW` requests in flight until `deadline`
    /// passes (or `limit` requests were sent), then drains. Each response
    /// is verified; a `Busy` or any other error frame is a failed attempt.
    fn drive(
        &mut self,
        deadline: Instant,
        limit: Option<usize>,
        mut spans: Option<&mut ClientSpans>,
    ) -> Result<Load, String> {
        let mut load = Load::default();
        // Id, send time and stream position of each request in flight, in
        // slot `id % RING`: the engine reorders responses only within a
        // batch, far less than `RING` apart.
        let mut slots: Vec<Option<(u64, Instant, usize)>> = vec![None; RING];
        let mut sent = 0usize;
        let mut in_flight = 0usize;
        let t0 = Instant::now();
        // Start and verified request latencies of the current window.
        let mut window = (t0, Vec::with_capacity(UNIT_RESPONSES));
        loop {
            while in_flight < WINDOW && limit.map_or(Instant::now() < deadline, |l| sent < l) {
                let pos = self.cursor % STREAM;
                self.cursor += 1;
                let (tag, img) = self.stream[pos];
                let ts = Instant::now();
                let id = self
                    .client
                    .send_infer(tag, &self.images[img])
                    .map_err(|e| format!("send: {e}"))?;
                if let Some(s) = spans.as_deref_mut() {
                    s.send_us.push(ts.elapsed().as_secs_f64() * 1e6);
                    s.sent.push(pos);
                }
                let slot = &mut slots[id as usize % RING];
                if slot.is_some() {
                    return Err(format!("request {id} overtaken by {RING} later ones"));
                }
                *slot = Some((id, ts, pos));
                sent += 1;
                in_flight += 1;
            }
            if in_flight == 0 {
                break;
            }
            let tr = Instant::now();
            let frame = self.client.recv_frame().map_err(|e| format!("recv: {e}"))?;
            let done = Instant::now();
            if let Some(s) = spans.as_deref_mut() {
                s.recv_us.push((done - tr).as_secs_f64() * 1e6);
            }
            let (ts, pos) = match slots[frame.req_id as usize % RING].take() {
                Some((id, ts, pos)) if id == frame.req_id => (ts, pos),
                _ => return Err(format!("response to unknown request {}", frame.req_id)),
            };
            in_flight -= 1;
            load.attempted += 1;
            let (tag, img) = self.stream[pos];
            let want = &self.expected[tag as usize * POOL + img];
            let ok = frame.kind == FrameKind::InferOk
                && frame
                    .payload_f32s()
                    .is_ok_and(|got| crate::same_bits(&got, want));
            if ok {
                load.images += 1;
                window.1.push((done - ts).as_secs_f64() * 1e6);
                if window.1.len() == UNIT_RESPONSES {
                    load.unit_done(0, UNIT_RESPONSES as u64, (done - window.0).as_secs_f64());
                    load.window_done(&mut window.1)
                        .ok_or("a window too small for a p99 with ten beyond it")?;
                    window.0 = done;
                    window.1.clear();
                }
            } else {
                load.failed += 1;
            }
        }
        load.elapsed_s = t0.elapsed().as_secs_f64();
        if let Some(s) = spans {
            s.elapsed_s = load.elapsed_s;
        }
        Ok(load)
    }
}

/// Replays the stream positions `sent` through `bank`, in batches of the
/// engine's mean batch size grouped by tag in tag order, as the engine
/// groups them. Returns the forward seconds and images per tag.
fn replay(
    bank: &mut ModelBank,
    stream: &[(u8, usize)],
    images: &[Vec<f32>],
    sent: &[usize],
    batch: usize,
) -> Result<Vec<(f64, u64)>, String> {
    let mut per_tag = vec![(0.0f64, 0u64); NUM_PRECISIONS as usize];
    for chunk in sent.chunks(batch) {
        let mut groups: BTreeMap<u8, Vec<&[f32]>> = BTreeMap::new();
        for &pos in chunk {
            let (tag, img) = stream[pos];
            groups.entry(tag).or_default().push(&images[img]);
        }
        for (tag, imgs) in groups {
            let (r, dt) = timed(|| bank.forward_batch_flat(tag, &imgs).map(drop));
            r.map_err(|e| format!("replay forward: {e}"))?;
            per_tag[tag as usize].0 += dt;
            per_tag[tag as usize].1 += imgs.len() as u64;
        }
    }
    Ok(per_tag)
}

impl Workload for ServeMix {
    const SETUPS: usize = 5;

    fn setup(seed: u64) -> Result<Self, String> {
        let cfg = ServeConfig::default();
        let (server, client) = start(&cfg)?;
        let mut bank = ModelBank::build(cfg.seed).map_err(|e| format!("model bank: {e}"))?;
        let len = bank.input_len();
        let img_seed = derive_seed(seed, 1);
        let images: Vec<Vec<f32>> = (0..POOL as u64)
            .map(|i| test_image(img_seed, i, len))
            .collect();
        let mut r = seeded(derive_seed(seed, 2));
        let stream = (0..STREAM)
            .map(|_| (r.gen_range(0..NUM_PRECISIONS), r.gen_range(0..POOL)))
            .collect();
        let mut expected = Vec::with_capacity(POOL * NUM_PRECISIONS as usize);
        for tag in 0..NUM_PRECISIONS {
            for img in &images {
                let logits = bank
                    .forward_single(tag, img)
                    .map_err(|e| format!("reference forward: {e}"))?;
                expected.push(logits);
            }
        }
        let mut s = ServeMix {
            cfg,
            server,
            client,
            bank,
            images,
            stream,
            expected,
            cursor: 0,
            spans: None,
        };
        s.warm_up()?;
        Ok(s)
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Result<Load, String> {
        if !traced {
            return self.drive(
                Instant::now() + Duration::from_secs_f64(seconds),
                None,
                None,
            );
        }
        // A fresh server, so its stats cover this loop and its warm-up only.
        let (server, client) = start(&self.cfg)?;
        let old_server = std::mem::replace(&mut self.server, server);
        let old_client = std::mem::replace(&mut self.client, client);
        stop(old_server, old_client)?;
        self.warm_up()?;
        let mut spans = ClientSpans::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let load = self.drive(deadline, None, Some(&mut spans))?;
        self.spans = Some(spans);
        Ok(load)
    }

    fn per_layer(self, m: &mut Metrics) -> Result<(), String> {
        let ServeMix {
            cfg,
            server,
            client,
            mut bank,
            images,
            stream,
            spans,
            ..
        } = self;
        let spans = spans.ok_or("per-layer metrics need a traced loop")?;
        let stats = stop(server, client)?;
        let mut send = spans.send_us;
        let mut recv = spans.recv_us;
        send.sort_by(f64::total_cmp);
        recv.sort_by(f64::total_cmp);
        let p50 = |v: &[f64], what: &str| {
            percentile(v, 50.0).ok_or_else(|| format!("too few {what} samples"))
        };
        m.put("serve.client.send_us_p50", p50(&send, "send")?, "us");
        m.put("serve.client.recv_us_p50", p50(&recv, "recv")?, "us");
        let mean_batch = stats.batch_size.mean();
        m.put("serve.queue.batch_size_mean", mean_batch, "count");
        m.put(
            "serve.server.latency_p50_us",
            stats.latency_us.quantile(0.5),
            "us",
        );

        let batch = (mean_batch.round() as usize).clamp(1, cfg.max_batch);
        let per_tag = replay(&mut bank, &stream, &images, &spans.sent, batch)?;
        for (p, (secs, n)) in PRECISIONS.iter().zip(&per_tag) {
            m.put(
                format!("serve.model.fwd_us_img.{p}"),
                secs * 1e6 / (*n).max(1) as f64,
                "us",
            );
        }
        let fwd_s: f64 = per_tag.iter().map(|(s, _)| s).sum();
        m.put(
            "serve.model.forward_share",
            fwd_s / spans.elapsed_s,
            "ratio",
        );

        // Counted separately: engine tracing changes which epilogue runs.
        let head = &spans.sent[..spans.sent.len().min(COUNT_REPLAY)];
        qnn_trace::start();
        let counted = replay(&mut bank, &stream, &images, head, batch);
        let trace = qnn_trace::stop();
        counted?;
        m.put("nn.native_flop_share", crate::native_share(&trace), "ratio");

        let builds: Vec<f64> = (0..3)
            .map(|_| timed(|| ModelBank::build(cfg.seed).map(drop)))
            .map(|(r, dt)| r.map(|()| dt))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("model bank: {e}"))?;
        m.put("serve.bank_build_s", median(&builds).unwrap_or(0.0), "s");
        Ok(())
    }

    fn close(self) -> Result<(), String> {
        stop(self.server, self.client).map(drop)
    }
}
