//! Per-run fault session: bounded retries, outcome queries, and statistics.

use crate::clock::FaultClock;
use crate::plan::{FaultPlan, FaultSite};

/// Aggregate fault statistics for one simulated run. Devices expose this on
/// their run-result structs so the harness supervisor (and tests) can see
/// what recovery cost without re-deriving the schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Faults injected (each failed attempt counts once).
    pub injected: u64,
    /// Successful retries after a fault (a site that failed twice then
    /// succeeded contributes 2 to `injected` and 2 to `retries`).
    pub retries: u64,
    /// Sites that kept faulting past the retry budget.
    pub exhausted: u64,
    /// Extra simulated seconds spent on fault recovery.
    pub extra_seconds: f64,
}

impl FaultStats {
    /// Did anything at all fire?
    pub fn any(&self) -> bool {
        self.injected > 0 || self.exhausted > 0
    }

    /// Fold another run's stats in (e.g. across supervisor segments).
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.retries += other.retries;
        self.exhausted += other.exhausted;
        self.extra_seconds += other.extra_seconds;
    }
}

/// What happened at one injection site after the session applied its retry
/// budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteOutcome {
    /// Consecutive failures before success (0 = clean first attempt).
    pub failures: u32,
    /// True when the site failed on every attempt up to and including the
    /// retry budget; the caller must take its exhaustion path (typed error
    /// or modeled degradation).
    pub exhausted: bool,
}

impl SiteOutcome {
    pub fn clean() -> Self {
        Self {
            failures: 0,
            exhausted: false,
        }
    }
}

/// Drives a [`FaultPlan`] through one simulated run: answers "what happens
/// at this site", applies the retry budget, and keeps the ledger of injected
/// faults and their simulated-time cost.
#[derive(Clone, Debug)]
pub struct FaultSession {
    plan: FaultPlan,
    max_retries: u32,
    stats: FaultStats,
    clock: FaultClock,
}

/// Default retry budget: matches the "try a handful of times then escalate"
/// policy the porting reports describe for transient DMA/transfer errors.
pub const DEFAULT_MAX_RETRIES: u32 = 3;

impl FaultSession {
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_budget(plan, DEFAULT_MAX_RETRIES)
    }

    /// A session with an explicit retry budget (attempts = budget + 1).
    pub fn with_budget(plan: FaultPlan, max_retries: u32) -> Self {
        Self {
            plan,
            max_retries,
            stats: FaultStats::default(),
            clock: FaultClock::new(),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Resolve `site`: walk the plan's per-retry decisions until the site
    /// succeeds or the retry budget is exhausted, recording every injected
    /// failure. Callers charge the per-attempt recovery cost themselves via
    /// [`FaultSession::charge`] (the cost model is device-specific).
    pub fn outcome(&mut self, site: FaultSite) -> SiteOutcome {
        let out = self.peek(site);
        self.commit(out);
        out
    }

    /// Resolve `site` WITHOUT touching the ledger: the pure walk of the
    /// plan's per-retry decisions. Host-parallel device lanes use this to
    /// evaluate their injection sites concurrently (the plan is order
    /// independent), then replay the outcomes into the ledger in lane order
    /// via [`FaultSession::commit`], so stats and charges end up identical
    /// to a serial walk.
    pub fn peek(&self, site: FaultSite) -> SiteOutcome {
        let mut failures = 0u32;
        while failures <= self.max_retries {
            if !self.plan.faults_at(site, failures) {
                break;
            }
            failures += 1;
        }
        SiteOutcome {
            failures,
            exhausted: failures > self.max_retries,
        }
    }

    /// Record a peeked outcome in the ledger, exactly as
    /// [`FaultSession::outcome`] would have.
    pub fn commit(&mut self, out: SiteOutcome) {
        self.stats.injected += u64::from(out.failures);
        if out.exhausted {
            self.stats.exhausted += 1;
        } else {
            self.stats.retries += u64::from(out.failures);
        }
    }

    /// Charge `seconds` of simulated recovery time to this session.
    pub fn charge(&mut self, seconds: f64) {
        self.clock.advance(seconds);
        if seconds.is_finite() && seconds > 0.0 {
            self.stats.extra_seconds += seconds;
        }
    }

    /// Charge a device-native cycle count at `clock_hz`.
    pub fn charge_cycles(&mut self, cycles: u64, clock_hz: f64) {
        if clock_hz > 0.0 {
            self.charge(cycles as f64 / clock_hz);
        }
    }

    /// Simulated seconds charged so far.
    pub fn elapsed(&self) -> f64 {
        self.clock.now()
    }

    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// Resolve one site in the degradation style used by the devices whose run
/// functions cannot fail (GPU, MTA-2, Opteron). Each failed attempt costs one
/// `unit` of recovery work; a site that exhausts the retry budget also pays
/// a modeled slow path of 4 more units (a reset or scrub plus one
/// conservative re-issue) and is counted in [`FaultStats::exhausted`], which
/// the harness supervisor treats as a failed segment. The extra work is
/// booked on the session as `extra / units_per_second` simulated seconds
/// (`units_per_second` is the clock for cycle units, `1.0` for seconds).
/// Returns the extra work in the caller's unit; `0.0` when no plan is armed.
pub fn resolve_degradable(
    session: Option<&mut FaultSession>,
    site: FaultSite,
    unit: f64,
    units_per_second: f64,
) -> f64 {
    let Some(sess) = session else {
        return 0.0;
    };
    let out = sess.outcome(site);
    let mut extra = unit * f64::from(out.failures);
    if out.exhausted {
        extra += 4.0 * unit;
    }
    if extra > 0.0 {
        sess.charge(extra / units_per_second);
    }
    extra
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;

    #[test]
    fn disabled_plan_is_always_clean() {
        let mut session = FaultSession::new(FaultPlan::disabled());
        for eval in 0..100 {
            let site = FaultSite::new(FaultKind::DmaTransfer, eval, 0, 0);
            assert_eq!(session.outcome(site), SiteOutcome::clean());
        }
        assert!(!session.stats().any());
        assert_eq!(session.elapsed(), 0.0);
    }

    #[test]
    fn always_faulting_plan_exhausts_at_budget() {
        let mut session = FaultSession::with_budget(FaultPlan::new(0, 1.0), 2);
        let out = session.outcome(FaultSite::new(FaultKind::ShaderNan, 0, 0, 0));
        assert!(out.exhausted);
        assert_eq!(out.failures, 3); // budget 2 → 3 failed attempts
        let stats = session.stats();
        assert_eq!(stats.injected, 3);
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn recovered_site_counts_retries() {
        // Find a site that faults once then recovers under this seed.
        let plan = FaultPlan::new(1234, 0.4);
        let mut found = None;
        for eval in 0..5000 {
            let site = FaultSite::new(FaultKind::EccReload, eval, 0, 0);
            if plan.faults_at(site, 0) && !plan.faults_at(site, 1) {
                found = Some(site);
                break;
            }
        }
        let site = found.expect("a recover-after-one-failure site exists");
        let mut session = FaultSession::new(plan);
        let out = session.outcome(site);
        assert_eq!(out.failures, 1);
        assert!(!out.exhausted);
        let stats = session.stats();
        assert_eq!(stats.injected, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.exhausted, 0);
    }

    #[test]
    fn identical_sessions_replay_identically() {
        let mk = || FaultSession::new(FaultPlan::new(77, 0.3));
        let (mut a, mut b) = (mk(), mk());
        for eval in 0..200 {
            for kind in [FaultKind::DmaTransfer, FaultKind::StreamStarvation] {
                let site = FaultSite::new(kind, eval, 1, 2);
                assert_eq!(a.outcome(site), b.outcome(site));
            }
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn peek_then_commit_matches_outcome() {
        let mk = || FaultSession::with_budget(FaultPlan::new(42, 0.35), 2);
        let (mut direct, mut replayed) = (mk(), mk());
        for eval in 0..300 {
            let site = FaultSite::new(FaultKind::DmaTransfer, eval, 3, 1);
            let a = direct.outcome(site);
            let b = replayed.peek(site);
            replayed.commit(b);
            assert_eq!(a, b);
        }
        assert_eq!(direct.stats(), replayed.stats());
    }

    #[test]
    fn peek_is_pure() {
        let session = FaultSession::new(FaultPlan::new(9, 0.5));
        let site = FaultSite::new(FaultKind::EccReload, 0, 0, 0);
        let first = session.peek(site);
        assert_eq!(session.peek(site), first);
        assert!(!session.stats().any(), "peek must not touch the ledger");
    }

    #[test]
    fn degradable_sites_charge_retries_and_the_exhaustion_penalty() {
        let clean_site = FaultSite::new(FaultKind::EccReload, 0, 0, 0);
        assert_eq!(resolve_degradable(None, clean_site, 10.0, 1.0), 0.0);
        let mut clean = FaultSession::new(FaultPlan::disabled());
        assert_eq!(
            resolve_degradable(Some(&mut clean), clean_site, 10.0, 1.0),
            0.0
        );
        assert_eq!(clean.stats(), FaultStats::default());

        // Retries: one unit per failed attempt, booked in seconds at the
        // caller's unit rate.
        let plan = FaultPlan::new(1234, 0.4);
        let site = (0..5000)
            .map(|eval| FaultSite::new(FaultKind::StreamStarvation, eval, 0, 0))
            .find(|&s| plan.faults_at(s, 0) && plan.faults_at(s, 1) && !plan.faults_at(s, 2))
            .expect("a recover-after-two-failures site exists");
        let mut retried = FaultSession::new(plan);
        let extra = resolve_degradable(Some(&mut retried), site, 300.0, 2.0e9);
        assert_eq!(extra, 600.0);
        let stats = retried.stats();
        assert_eq!((stats.injected, stats.retries, stats.exhausted), (2, 2, 0));
        assert_eq!(stats.extra_seconds, 600.0 / 2.0e9);

        // Exhaustion: every attempt fails, then the 4-unit slow path.
        let mut hopeless = FaultSession::with_budget(FaultPlan::new(0, 1.0), 2);
        let extra = resolve_degradable(Some(&mut hopeless), clean_site, 0.5, 1.0);
        assert_eq!(extra, 0.5 * 3.0 + 4.0 * 0.5);
        let stats = hopeless.stats();
        assert_eq!((stats.injected, stats.retries, stats.exhausted), (3, 0, 1));
        assert_eq!(stats.extra_seconds, extra);
    }

    #[test]
    fn charges_accumulate_into_stats_and_clock() {
        let mut session = FaultSession::new(FaultPlan::disabled());
        session.charge(2.0e-6);
        session.charge_cycles(200, 2.0e9); // 100 ns
        session.charge(-5.0); // rejected
        assert!((session.elapsed() - 2.1e-6).abs() < 1e-15);
        assert!((session.stats().extra_seconds - 2.1e-6).abs() < 1e-15);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = FaultStats {
            injected: 2,
            retries: 1,
            exhausted: 0,
            extra_seconds: 1.0e-6,
        };
        let b = FaultStats {
            injected: 3,
            retries: 3,
            exhausted: 1,
            extra_seconds: 2.0e-6,
        };
        a.merge(&b);
        assert_eq!(a.injected, 5);
        assert_eq!(a.retries, 4);
        assert_eq!(a.exhausted, 1);
        assert!((a.extra_seconds - 3.0e-6).abs() < 1e-15);
        assert!(a.any());
    }
}
