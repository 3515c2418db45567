//! Metrics, per-phase query accounting and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// A work count that must repeat exactly for the same seed (as opposed
    /// to a wall-clock measurement).
    pub exact: bool,
}

/// Queries sent, answered and failed in one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Queries sent.
    pub sent: u64,
    /// Queries answered and passing every check.
    pub succeeded: u64,
    /// Queries rejected or failing a check, plus failed whole-run checks.
    pub failed: u64,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in listing order.
    pub metrics: Vec<Metric>,
    /// Per-phase accounting.
    pub phases: Vec<Phase>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
}

impl Report {
    /// Records a timing metric.
    pub fn timing(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            exact: false,
        });
    }

    /// Records a work count that repeats exactly for the same seed.
    pub fn count(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            exact: true,
        });
    }

    /// The phase named `name`, created on first use.
    pub fn phase(&mut self, name: &'static str) -> &mut Phase {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            return &mut self.phases[i];
        }
        self.phases.push(Phase {
            name,
            ..Phase::default()
        });
        self.phases.last_mut().expect("just pushed")
    }

    /// Counts one query in phase `name`: sent, and succeeded when `ok`.
    pub fn query(&mut self, name: &'static str, ok: bool) {
        let p = self.phase(name);
        p.sent += 1;
        if ok {
            p.succeeded += 1;
        } else {
            p.failed += 1;
        }
    }

    /// Records the outcome of a whole-run check in phase `name`.
    pub fn check(&mut self, name: &'static str, ok: bool, what: impl Into<String>) {
        if !ok {
            self.phase(name).failed += 1;
            self.failures.push(what.into());
        }
    }

    /// Queries sent over all phases.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    /// Failed queries and checks over all phases.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Every query answered and every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.failures.is_empty() && self.attempted() > 0
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted(),
            self.failed()
        )
    }

    /// The human-readable summary: notes, phases, failures and metrics.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>10} {:>7}",
            "phase", "sent", "succeeded", "failed"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>10} {:>7}",
                p.name, p.sent, p.succeeded, p.failed
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<42} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// Nearest-rank quantile `q` of `samples` (sorted in place).
#[must_use]
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorted in place).
#[must_use]
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}
