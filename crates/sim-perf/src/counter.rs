//! Monotonic named counters with time-series sampling.

use sim_obs::ChromeTrace;

/// Opaque index of a registered counter (cheap to copy, valid only for the
/// [`PerfMonitor`] that issued it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// One counter: a monotonically non-decreasing value plus the samples taken
/// along simulated time.
#[derive(Clone, Debug)]
pub struct CounterSeries {
    pub name: String,
    /// Unit label for reports ("bytes", "cycles", "ops", ...).
    pub unit: &'static str,
    value: f64,
    /// `(simulated seconds, cumulative value)` in sampling order.
    samples: Vec<(f64, f64)>,
}

impl CounterSeries {
    /// Current cumulative value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Samples taken so far, as `(simulated seconds, cumulative value)`.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }
}

/// A registry of monotonic counters, updated by a device model as it runs.
///
/// The monitor is a passive observer: it holds no clock and charges no
/// simulated time. Devices thread an `Option<&mut PerfMonitor>` through their
/// run loops and call [`add`] at
/// the points where costs are charged; the arithmetic of the run itself is
/// untouched, which is what keeps counters-on runs bitwise-identical to
/// counters-off runs.
///
/// [`add`]: PerfMonitor::add
#[derive(Clone, Debug, Default)]
pub struct PerfMonitor {
    counters: Vec<CounterSeries>,
}

impl PerfMonitor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter by name. Registration is idempotent:
    /// re-registering an existing name returns the original handle, so a
    /// device loop may register inside its hot path without bookkeeping.
    pub fn register(&mut self, name: impl Into<String>, unit: &'static str) -> CounterHandle {
        let name = name.into();
        if let Some(i) = self.counters.iter().position(|c| c.name == name) {
            assert_eq!(
                self.counters[i].unit, unit,
                "counter {name:?} re-registered with a different unit"
            );
            return CounterHandle(i);
        }
        self.counters.push(CounterSeries {
            name,
            unit,
            value: 0.0,
            samples: Vec::new(),
        });
        CounterHandle(self.counters.len() - 1)
    }

    /// Increment a counter. Deltas must be finite and non-negative — counters
    /// model hardware event counts, which only ever accumulate.
    pub fn add(&mut self, handle: CounterHandle, delta: f64) {
        assert!(
            delta.is_finite() && delta >= 0.0,
            "counter delta must be finite and non-negative, got {delta}"
        );
        self.counters[handle.0].value += delta;
    }

    /// Increment a counter by an integer event count.
    pub fn add_u64(&mut self, handle: CounterHandle, delta: u64) {
        // Lossless for any event count a run can realistically produce; the
        // paper workloads stay far below 2^53 events per counter.
        self.add(handle, delta as f64);
    }

    /// Raise a counter to a new cumulative total. Convenient when the device
    /// already keeps a running total (cache stats, cycle accumulators): the
    /// monitor mirrors it instead of tracking deltas. The total must not be
    /// below the counter's current value — counters never run backwards.
    pub fn record_total(&mut self, handle: CounterHandle, total: f64) {
        let current = self.counters[handle.0].value;
        assert!(
            total.is_finite() && total >= current,
            "counter total must be finite and non-decreasing ({current} -> {total})"
        );
        self.counters[handle.0].value = total;
    }

    /// Current cumulative value of a counter.
    pub fn value(&self, handle: CounterHandle) -> f64 {
        self.counters[handle.0].value
    }

    /// Record one sample of *every* counter at simulated time `t_s`.
    /// Sample times must be non-decreasing within a run.
    pub fn sample_all(&mut self, t_s: f64) {
        assert!(
            t_s.is_finite() && t_s >= 0.0,
            "sample time must be finite and non-negative, got {t_s}"
        );
        for c in &mut self.counters {
            if let Some(&(last, _)) = c.samples.last() {
                assert!(t_s >= last, "sample times must be non-decreasing");
            }
            c.samples.push((t_s, c.value));
        }
    }

    /// All registered counters, in registration order.
    pub fn counters(&self) -> &[CounterSeries] {
        &self.counters
    }

    /// Look up a counter by name.
    pub fn find(&self, name: &str) -> Option<&CounterSeries> {
        self.counters.iter().find(|c| c.name == name)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Export every sampled point as a Chrome `"C"` counter event on `track`
    /// ([`ChromeTrace::counter_series`]: unsampled counters become one t = 0
    /// point carrying their final value).
    pub fn export_to_chrome(&self, trace: &mut ChromeTrace, track: u32) {
        for c in &self.counters {
            trace.counter_series(track, &c.name, "perf", &c.samples, c.value);
        }
    }

    /// Export every counter into a run ledger under `source`: all sampled
    /// points, plus one final-value event at `end_rel_s` (relative to the
    /// ledger's sim offset) so the running total is always recoverable from
    /// the last event. The final event is left out when the last sample
    /// already holds that time and value, bit for bit.
    pub fn export_to_ledger(&self, ledger: &mut sim_obs::RunLedger, source: &str, end_rel_s: f64) {
        for c in &self.counters {
            for &(t_s, value) in &c.samples {
                ledger.counter(source, &c.name, t_s, value, c.unit);
            }
            let sampled_at_end = c.samples.last().is_some_and(|&(t_s, value)| {
                t_s.to_bits() == end_rel_s.to_bits() && value.to_bits() == c.value.to_bits()
            });
            if !sampled_at_end {
                ledger.counter(source, &c.name, end_rel_s, c.value, c.unit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let mut m = PerfMonitor::new();
        let a = m.register("dma.bytes", "bytes");
        let b = m.register("dma.bytes", "bytes");
        assert_eq!(a, b);
        assert_eq!(m.counters().len(), 1);
        let c = m.register("mailbox.round_trips", "events");
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "different unit")]
    fn unit_mismatch_rejected() {
        let mut m = PerfMonitor::new();
        m.register("x", "bytes");
        m.register("x", "cycles");
    }

    #[test]
    fn accumulates_and_samples() {
        let mut m = PerfMonitor::new();
        let h = m.register("fetches", "ops");
        m.add_u64(h, 10);
        m.sample_all(1e-6);
        m.add(h, 5.0);
        m.sample_all(2e-6);
        assert_eq!(m.value(h), 15.0);
        let series = m.find("fetches").expect("registered");
        assert_eq!(series.samples(), &[(1e-6, 10.0), (2e-6, 15.0)]);
    }

    #[test]
    fn record_total_mirrors_running_accumulators() {
        let mut m = PerfMonitor::new();
        let h = m.register("cycles", "cycles");
        m.record_total(h, 100.0);
        m.record_total(h, 100.0); // no progress is fine
        m.record_total(h, 250.0);
        assert_eq!(m.value(h), 250.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn record_total_rejects_regression() {
        let mut m = PerfMonitor::new();
        let h = m.register("cycles", "cycles");
        m.record_total(h, 100.0);
        m.record_total(h, 99.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delta_rejected() {
        let mut m = PerfMonitor::new();
        let h = m.register("x", "ops");
        m.add(h, -1.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_going_backwards_rejected() {
        let mut m = PerfMonitor::new();
        m.register("x", "ops");
        m.sample_all(2e-6);
        m.sample_all(1e-6);
    }

    #[test]
    fn exports_counter_events() {
        let mut m = PerfMonitor::new();
        let h = m.register("pcie.bytes", "bytes");
        m.add(h, 4096.0);
        m.sample_all(1e-3);
        m.register("unsampled", "ops");
        let mut t = ChromeTrace::new();
        // Export after registering the second counter so it takes the
        // no-samples path.
        m.export_to_chrome(&mut t, 90);
        let json = t.render();
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("pcie.bytes"), "{json}");
        assert!(json.contains("unsampled"), "{json}");
    }

    #[test]
    fn ledger_export_writes_the_final_value_once() {
        let mut m = PerfMonitor::new();
        let at_end = m.register("sampled.at.end", "ops");
        let later = m.register("grew.after.sample", "ops");
        m.add(at_end, 3.0);
        m.add(later, 1.0);
        m.sample_all(2e-6);
        m.add(later, 4.0);
        let mut ledger = sim_obs::RunLedger::new("test", "none");
        m.export_to_ledger(&mut ledger, "dev", 2e-6);
        let points = |name: &str| -> Vec<(f64, Option<f64>)> {
            ledger
                .events()
                .iter()
                .filter(|e| e.kind == sim_obs::EventKind::Counter && e.name == name)
                .map(|e| (e.t_s, e.value))
                .collect()
        };
        // Last sampled at the end with its final value: one event.
        assert_eq!(points("sampled.at.end"), [(2e-6, Some(3.0))]);
        // The final value was never sampled: it still gets its event.
        assert_eq!(
            points("grew.after.sample"),
            [(2e-6, Some(1.0)), (2e-6, Some(5.0))]
        );
    }
}
