//! The metric registry and the result line.
//!
//! Every metric a run may emit is declared here, once; a run whose
//! metrics differ from the declared set for its mode is refused before
//! anything is printed, and `BENCHMARK.json` is tested against the same
//! lists.

use std::collections::BTreeMap;

/// The Table III rows, in tag order, as they appear in metric names.
pub const PRECISIONS: [&str; 7] = [
    "f32", "fixed32", "fixed16", "fixed8", "fixed4", "pow2", "binary",
];

/// Rows whose weights pack for the native integer kernels: float32 has no
/// codec, fixed32 is wider than the 16-bit kernels, and binary weights
/// carry a mean-|w| scale that is not a power of two.
pub const KERNEL_PRECISIONS: [&str; 4] = ["fixed16", "fixed8", "fixed4", "pow2"];

/// The Table I networks of `eval-paper`, as they appear in metric names.
pub const NETS: [&str; 3] = ["lenet", "convnet", "alex"];

/// The workloads, as `--workload` names them.
pub const WORKLOADS: [&str; 3] = ["serve-mix", "eval-paper", "qat-train"];

/// End-to-end metrics: emitted by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_img_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: emitted by every traced run, whatever its workload.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| m.push((name, unit));
    // serve-mix
    add("serve.client.send_us_p50".into(), "us");
    add("serve.client.recv_us_p50".into(), "us");
    add("serve.queue.batch_size_mean".into(), "count");
    add("serve.server.latency_p50_us".into(), "us");
    for p in PRECISIONS {
        add(format!("serve.model.fwd_us_img.{p}"), "us");
    }
    add("serve.model.forward_share".into(), "ratio");
    add("nn.native_flop_share".into(), "ratio");
    add("serve.bank_build_s".into(), "s");
    // eval-paper
    for net in NETS {
        for p in PRECISIONS {
            add(format!("nn.fwd_us_img.{net}.{p}"), "us");
        }
        add(format!("nn.native_flop_share.{net}"), "ratio");
        for p in &PRECISIONS[1..] {
            add(format!("quant.act_quantize_us_img.{net}.{p}"), "us");
        }
        for p in KERNEL_PRECISIONS {
            add(format!("quant.kernel_us_img.{net}.{p}"), "us");
            add(format!("quant.epilogue_us_img.{net}.{p}"), "us");
        }
        add(format!("tensor.im2col_us_img.{net}"), "us");
        add(format!("tensor.gemm_fallback_us_img.{net}"), "us");
        add(format!("tensor.sim_conv_us_img.{net}"), "us");
    }
    for p in KERNEL_PRECISIONS {
        add(format!("quant.pack_us.{p}"), "us");
    }
    add("nn.calibrate_s".into(), "s");
    // qat-train
    add("nn.train.forward_us_img".into(), "us");
    add("nn.train.backward_us_img".into(), "us");
    add("nn.train.optim_us_img".into(), "us");
    add("quant.weight_quantize_us_img".into(), "us");
    add("tensor.conv_fwd_us_img".into(), "us");
    add("tensor.conv_bwd_us_img".into(), "us");
    add("data.generate_s".into(), "s");
    add("nn.pretrain_s".into(), "s");
    // every workload
    for w in WORKLOADS {
        add(
            format!("bench.trace_overhead_pct.{}", w.replace('-', "_")),
            "%",
        );
    }
    m
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Metrics collected by one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    ///
    /// # Panics
    ///
    /// On an invalid or repeated name — both are bugs in this program.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        let prev = self.0.insert(name.clone(), (value, unit));
        assert!(prev.is_none(), "metric {name} recorded twice");
    }

    /// Checks the recorded set against `expected` (names and units) and
    /// that every value is finite.
    ///
    /// # Errors
    ///
    /// A message naming the first difference.
    pub fn check(&self, expected: &[(String, &'static str)]) -> Result<(), String> {
        for (name, unit) in expected {
            match self.0.get(name) {
                None => return Err(format!("metric {name} was not measured")),
                Some((_, u)) if u != unit => {
                    return Err(format!("metric {name} has unit {u}, expected {unit}"))
                }
                Some((v, _)) if !v.is_finite() => {
                    return Err(format!("metric {name} is not finite: {v}"))
                }
                Some(_) => {}
            }
        }
        if let Some(extra) = self
            .0
            .keys()
            .find(|k| !expected.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        Ok(())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && attempted > 0,
            body.join(", ")
        )
    }
}

/// A finite float as a JSON number with all its digits.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end() -> Vec<(String, &'static str)> {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }

    #[test]
    fn metric_name_validator() {
        for ok in ["setup_s", "nn.fwd_us_img.lenet.f32", "a", "9x", "a-b_c.d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_a",
            ".a",
            "-a",
            "a b",
            "a/b",
            "μs",
            "a\"b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &all {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        assert!(per_layer().len() <= 128);
    }

    /// Names and units of one metric list of `BENCHMARK.json`.
    fn benchmark_json_list(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
        let open = start + text[start..].find('[').expect("list opens");
        let close = open + text[open..].find(']').expect("list closes");
        let field = |obj: &str, k: &str| -> String {
            let at = obj
                .find(&format!("\"{k}\""))
                .unwrap_or_else(|| panic!("{k} in {obj}"));
            let rest = &obj[at + k.len() + 2..];
            let q = rest.find('"').expect("value opens") + 1;
            let end = q + rest[q..].find('"').expect("value closes");
            rest[q..end].to_string()
        };
        text[open + 1..close]
            .split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_metric_a_run_emits() {
        let owned = |v: Vec<(String, &'static str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(benchmark_json_list("end_to_end"), owned(end_to_end()));
        assert_eq!(benchmark_json_list("per_layer"), owned(per_layer()));
    }

    #[test]
    fn check_catches_missing_extra_and_non_finite() {
        let expected = end_to_end();
        let mut m = Metrics::default();
        for (n, u) in &expected {
            m.put(n.clone(), 1.5, u);
        }
        assert_eq!(m.check(&expected), Ok(()));
        m.put("extra", 1.0, "s");
        assert!(m.check(&expected).unwrap_err().contains("extra"));
        let mut m = Metrics::default();
        m.put("setup_s", f64::NAN, "s");
        assert!(m.check(&expected[..1]).unwrap_err().contains("finite"));
        assert!(Metrics::default().check(&expected[..1]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127, "s");
        m.put("throughput_img_s", 21000.0, "1/s");
        assert_eq!(
            m.result_line(10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"throughput_img_s\": {\"value\": 21000.0, \"unit\": \"1/s\"}}}"
        );
        assert!(m.result_line(10, 1).starts_with("{\"correct\": false"));
    }
}
