//! What a timed loop produced, and the end-to-end metrics derived from it.

use std::collections::BTreeMap;

use crate::report::Metrics;
use crate::stats::{low_quantile, median, percentile};

/// Share of a run's units, fastest first, whose slowest one gives a
/// timing: every timed figure is read at the quiet end of the run.
pub const QUIET: f64 = 0.01;

/// The timed units of one kind.
#[derive(Debug)]
struct Units {
    /// Images one unit completes.
    images: u64,
    /// Seconds each unit took.
    secs: Vec<f64>,
}

impl Units {
    /// The kind's unit time at the [`QUIET`] quantile: the host slows
    /// every unit of a stretch of seconds at once, so a median moves with
    /// the share of the run the host was busy, the quiet end does not.
    fn quiet_s(&self) -> f64 {
        low_quantile(&self.secs, QUIET).unwrap_or(f64::NAN)
    }
}

/// Outcome of one timed loop of a workload.
#[derive(Debug, Default)]
pub struct Load {
    /// Images (requests, forwarded images or training samples) whose
    /// result was verified.
    pub images: u64,
    /// Wall time of the loop, seconds.
    pub elapsed_s: f64,
    /// Per window of serve responses, where requests overlap: the p50 and
    /// p99 of its requests' latencies, microseconds.
    windows: Vec<[f64; 2]>,
    /// Outcomes checked.
    pub attempted: u64,
    /// Outcomes that failed their check.
    pub failed: u64,
    /// Fixed units of work by kind: an eval cell's forward, a training
    /// row's step, a window of serve responses.
    units: BTreeMap<usize, Units>,
}

impl Load {
    /// Verified images per second at each kind's quiet unit time:
    /// `Σ images / Σ unit seconds`; not a number when no unit passed.
    pub fn throughput(&self) -> f64 {
        let (images, secs) = self.units.values().fold((0.0, 0.0), |(i, s), u| {
            (i + u.images as f64, s + u.quiet_s())
        });
        images / secs
    }

    /// Records one verified unit of kind `kind`, completing `images`, that
    /// took `secs`. Every unit of a kind must complete the same images.
    pub fn unit_done(&mut self, kind: usize, images: u64, secs: f64) {
        let entry = self.units.entry(kind).or_insert(Units {
            images,
            secs: Vec::new(),
        });
        debug_assert_eq!(entry.images, images, "units of one kind differ in size");
        entry.secs.push(secs);
    }

    /// Records the request latencies, microseconds, of one window of
    /// overlapping requests; `None` when the window is too small for a p99
    /// with ten samples beyond it.
    pub fn window_done(&mut self, lat_us: &mut [f64]) -> Option<()> {
        lat_us.sort_by(f64::total_cmp);
        let p50 = percentile(lat_us, 50.0)?;
        let p99 = percentile(lat_us, 99.0)?;
        self.windows.push([p50, p99]);
        Some(())
    }

    /// Units timed, over every kind.
    pub fn units(&self) -> usize {
        self.units.values().map(|u| u.secs.len()).sum()
    }

    /// Windows of request latencies recorded.
    pub fn windows(&self) -> usize {
        self.windows.len()
    }

    /// Adds the outcomes, windows and units of `other`, a later loop.
    pub fn absorb(&mut self, other: Load) {
        self.images += other.images;
        self.elapsed_s += other.elapsed_s;
        self.windows.extend(other.windows);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (kind, u) in other.units {
            for s in u.secs {
                self.unit_done(kind, u.images, s);
            }
        }
    }

    /// The p50 and p99 per-image latency, microseconds, read at the quiet
    /// end of the run. Where requests overlap, each window's measured p50
    /// and p99 at the [`QUIET`] quantile over windows. Where the loop runs
    /// one unit at a time and every unit of a kind does identical work,
    /// each image of a unit is given its kind's quiet unit time and the
    /// nearest-rank p50 and p99 are taken over those: the spread within a
    /// kind is the host's, the spread across kinds is the workload's.
    ///
    /// # Errors
    ///
    /// A message when there are too few samples for a p99 with ten beyond.
    pub fn latency_p50_p99(&self) -> Result<[f64; 2], String> {
        if !self.windows.is_empty() {
            let at = |i: usize| {
                let v: Vec<f64> = self.windows.iter().map(|w| w[i]).collect();
                low_quantile(&v, QUIET).unwrap_or(f64::NAN)
            };
            return Ok([at(0), at(1)]);
        }
        let mut lat: Vec<f64> = self
            .units
            .values()
            .flat_map(|u| {
                let t = u.quiet_s() * 1e6;
                std::iter::repeat_n(t, u.images as usize * u.secs.len())
            })
            .collect();
        lat.sort_by(f64::total_cmp);
        let pct = |p: f64| {
            percentile(&lat, p).ok_or_else(|| {
                format!(
                    "only {} latency samples: no p{p} with ten beyond it",
                    lat.len()
                )
            })
        };
        Ok([pct(50.0)?, pct(99.0)?])
    }
}

/// The end-to-end metrics of a run: set-up time (median of the repeats),
/// throughput, latency and the verified share. `peak_rss_mb` is added by
/// the caller once the run is over.
///
/// # Errors
///
/// A message when a figure cannot be formed — too few latency samples for
/// a p99 with ten beyond it, or no set-up repeat.
pub fn end_to_end(setup_s: &[f64], load: &Load) -> Result<Metrics, String> {
    let [p50, p99] = load.latency_p50_p99()?;
    let mut m = Metrics::default();
    m.put("setup_s", median(setup_s).ok_or("no set-up repeats")?, "s");
    m.put("throughput_img_s", load.throughput(), "1/s");
    m.put("latency_p50_us", p50, "us");
    m.put("latency_p99_us", p99, "us");
    let ok = load.attempted - load.failed;
    m.put(
        "ok_share",
        ok as f64 / load.attempted.max(1) as f64,
        "ratio",
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_uses_each_kinds_quiet_unit() {
        let mut l = Load::default();
        // Kind 0: 32 images in 1 s at best, slowed for a stretch to 2 s.
        for i in 0..40 {
            l.unit_done(0, 32, if i % 4 == 0 { 1.0 } else { 2.0 });
        }
        // Kind 1: 32 images in 3 s.
        for _ in 0..40 {
            l.unit_done(1, 32, 3.0);
        }
        assert_eq!(l.throughput(), 64.0 / 4.0);
    }

    #[test]
    fn throughput_without_units_is_not_a_number() {
        assert!(Load::default().throughput().is_nan());
    }

    #[test]
    fn unit_latencies_take_each_kinds_quiet_unit() {
        let mut l = Load::default();
        for s in [1.0, 5.0, 0.5] {
            l.unit_done(0, 10, s);
        }
        // 30 images: no p99 with ten beyond it.
        assert!(l.latency_p50_p99().is_err());
        let mut l = Load::default();
        for s in [1.0, 5.0, 0.5] {
            l.unit_done(0, 400, s);
        }
        l.unit_done(1, 100, 3.0);
        // 1200 images at 0.5 s, 100 at 3 s: p50 rank 650, p99 rank 1287.
        assert_eq!(l.latency_p50_p99(), Ok([0.5e6, 3e6]));
    }

    #[test]
    fn window_latencies_are_read_at_the_quiet_end() {
        let mut l = Load::default();
        let mut small: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(l.window_done(&mut small), None, "no p99 in 100 samples");
        for w in 0..20 {
            // Window w: latencies w+1 ..= w+1024 in reverse.
            let mut lat: Vec<f64> = (1..=1024).rev().map(|i| f64::from(i + w)).collect();
            assert_eq!(l.window_done(&mut lat), Some(()));
        }
        assert_eq!(l.windows(), 20);
        // The quietest window (w = 0): p50 rank 512, p99 rank 1014.
        assert_eq!(l.latency_p50_p99(), Ok([512.0, 1014.0]));
    }
}
