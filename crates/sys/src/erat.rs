//! The NX ERAT (effective-to-real address translation) and the page-fault
//! protocol.
//!
//! The NX unit translates user effective addresses through its own ERAT.
//! When a source or target page is not resident, the unit cannot wait: it
//! terminates the job early, reporting in the CSB how many bytes were
//! processed. The library then *touches* the faulting page (forcing the
//! OS to resolve it) and resubmits a CRB for the remainder. The paper
//! highlights this retry protocol as a key enabler of user-mode access;
//! experiment E14 measures its cost and the touch-first mitigation.

use nx_sim::{SimRng, SimTime};

/// Kernel/page-resolution latency charged when a fault is reported and
/// the page is touched (fault interrupt + `do_page_fault` + resubmission
/// path).
pub const FAULT_RESOLUTION: SimTime = SimTime::from_us(25);

/// Cost for software to pre-touch one resident page (a load per page).
pub const TOUCH_PER_PAGE: SimTime = SimTime::from_ns(150);

/// Page size the fault model uses: the functional fault model's 64 KiB
/// page, the common POWER configuration.
pub use nx_core::fault::PAGE_BYTES;

/// First retry backoff after an error CSB (doubles per attempt).
pub const CSB_RETRY_BACKOFF_BASE: SimTime = SimTime::from_us(2);

/// Backoff ceiling for error-CSB retries (capped exponential).
pub const CSB_RETRY_BACKOFF_CAP: SimTime = SimTime::from_us(128);

/// The capped exponential backoff before resubmitting after the
/// `attempt`-th failed try (0-based).
pub fn csb_retry_backoff(attempt: u32) -> SimTime {
    let mult = 1u64 << attempt.min(16);
    SimTime::from_ps(CSB_RETRY_BACKOFF_BASE.as_ps().saturating_mul(mult)).min(CSB_RETRY_BACKOFF_CAP)
}

/// Fault-handling strategy of the submitting library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPolicy {
    /// Submit immediately; on a fault CSB, touch and resubmit the
    /// remainder. `fault_probability` is the chance any given page is
    /// non-resident.
    RetryOnFault {
        /// Probability one page faults.
        fault_probability: f64,
    },
    /// Touch every source page before submitting (paying
    /// [`TOUCH_PER_PAGE`] each), eliminating faults.
    TouchFirst {
        /// Probability a page *would have* faulted (determines how much
        /// touching actually resolves vs. wasted loads — the touch cost
        /// is paid for every page regardless).
        fault_probability: f64,
    },
    /// Submit immediately like `RetryOnFault`, but on a fault touch the
    /// faulting page *plus the next `window_pages` pages* before
    /// resubmitting — amortizing one fault resolution across a window of
    /// residency instead of paying a round trip per page.
    TouchAhead {
        /// Probability one page faults.
        fault_probability: f64,
        /// Extra pages touched beyond the faulting one on each fault.
        window_pages: u64,
    },
}

impl FaultPolicy {
    /// Pages made resident by resolving one fault under this policy (the
    /// faulting page itself plus any touch-ahead window).
    pub fn pages_touched_per_fault(&self) -> u64 {
        match self {
            FaultPolicy::TouchAhead { window_pages, .. } => 1 + window_pages,
            _ => 1,
        }
    }

    /// Short stable identifier for metric labels and experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            FaultPolicy::RetryOnFault { .. } => "retry_on_fault",
            FaultPolicy::TouchFirst { .. } => "touch_first",
            FaultPolicy::TouchAhead { .. } => "touch_ahead",
        }
    }
}

/// Outcome of planning translations for one submission attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Pre-submission delay (touching pages under `TouchFirst`).
    pub pre_submit: SimTime,
    /// Byte offsets (within this attempt's remaining range) at which the
    /// engine will fault; empty for a clean run. Offsets are page-aligned
    /// and strictly increasing; the engine stops at the *first* one, so
    /// only `faults.first()` shapes the attempt.
    pub fault_at: Option<u64>,
}

/// Samples the fault behaviour for one submission attempt over `bytes`
/// with no pages resident. See [`plan_resident`].
pub fn plan(policy: FaultPolicy, bytes: u64, rng: &mut SimRng) -> FaultPlan {
    plan_resident(policy, bytes, 0, rng)
}

/// Samples the fault behaviour for one submission attempt over `bytes`,
/// where the first `resident_pages` pages of the range were already
/// touched (by fault resolution or touch-ahead) and cannot fault.
pub fn plan_resident(
    policy: FaultPolicy,
    bytes: u64,
    resident_pages: u64,
    rng: &mut SimRng,
) -> FaultPlan {
    match policy {
        FaultPolicy::TouchFirst { .. } => {
            let pages = bytes.div_ceil(PAGE_BYTES).max(1);
            FaultPlan {
                pre_submit: SimTime::from_ps(
                    TOUCH_PER_PAGE.as_ps() * pages.saturating_sub(resident_pages),
                ),
                fault_at: None,
            }
        }
        FaultPolicy::RetryOnFault { fault_probability }
        | FaultPolicy::TouchAhead {
            fault_probability, ..
        } => {
            debug_assert!((0.0..=1.0).contains(&fault_probability));
            if fault_probability <= 0.0 {
                return FaultPlan {
                    pre_submit: SimTime::ZERO,
                    fault_at: None,
                };
            }
            let pages = bytes.div_ceil(PAGE_BYTES).max(1);
            // The engine stops at the first non-resident page.
            for p in resident_pages..pages {
                if rng.coin(fault_probability) {
                    return FaultPlan {
                        pre_submit: SimTime::ZERO,
                        fault_at: Some(p * PAGE_BYTES),
                    };
                }
            }
            FaultPlan {
                pre_submit: SimTime::ZERO,
                fault_at: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_first_never_faults_but_pays_per_page() {
        let mut rng = SimRng::new(1, "erat");
        let p = plan(
            FaultPolicy::TouchFirst {
                fault_probability: 1.0,
            },
            10 * PAGE_BYTES,
            &mut rng,
        );
        assert_eq!(p.fault_at, None);
        assert_eq!(p.pre_submit, SimTime::from_ps(TOUCH_PER_PAGE.as_ps() * 10));
    }

    #[test]
    fn zero_probability_never_faults() {
        let mut rng = SimRng::new(2, "erat");
        for _ in 0..100 {
            let p = plan(
                FaultPolicy::RetryOnFault {
                    fault_probability: 0.0,
                },
                1 << 20,
                &mut rng,
            );
            assert_eq!(
                p,
                FaultPlan {
                    pre_submit: SimTime::ZERO,
                    fault_at: None
                }
            );
        }
    }

    #[test]
    fn certain_fault_stops_at_first_page() {
        let mut rng = SimRng::new(3, "erat");
        let p = plan(
            FaultPolicy::RetryOnFault {
                fault_probability: 1.0,
            },
            1 << 20,
            &mut rng,
        );
        assert_eq!(p.fault_at, Some(0));
    }

    #[test]
    fn fault_offsets_are_page_aligned_and_in_range() {
        let mut rng = SimRng::new(4, "erat");
        let bytes = 37 * PAGE_BYTES + 123;
        for _ in 0..500 {
            let p = plan(
                FaultPolicy::RetryOnFault {
                    fault_probability: 0.05,
                },
                bytes,
                &mut rng,
            );
            if let Some(at) = p.fault_at {
                assert_eq!(at % PAGE_BYTES, 0);
                assert!(at < bytes);
            }
        }
    }

    #[test]
    fn resident_prefix_cannot_fault() {
        let mut rng = SimRng::new(8, "erat");
        let bytes = 10 * PAGE_BYTES;
        // All 10 pages resident: even certain faults are suppressed.
        for _ in 0..50 {
            let p = plan_resident(
                FaultPolicy::RetryOnFault {
                    fault_probability: 1.0,
                },
                bytes,
                10,
                &mut rng,
            );
            assert_eq!(p.fault_at, None);
        }
        // Only 4 resident: the first possible fault is page 4.
        let p = plan_resident(
            FaultPolicy::TouchAhead {
                fault_probability: 1.0,
                window_pages: 8,
            },
            bytes,
            4,
            &mut rng,
        );
        assert_eq!(p.fault_at, Some(4 * PAGE_BYTES));
    }

    #[test]
    fn touch_ahead_window_sizes_fault_resolution() {
        assert_eq!(
            FaultPolicy::TouchAhead {
                fault_probability: 0.1,
                window_pages: 16
            }
            .pages_touched_per_fault(),
            17
        );
        assert_eq!(
            FaultPolicy::RetryOnFault {
                fault_probability: 0.1
            }
            .pages_touched_per_fault(),
            1
        );
    }

    #[test]
    fn csb_backoff_is_capped_exponential() {
        assert_eq!(csb_retry_backoff(0), CSB_RETRY_BACKOFF_BASE);
        assert_eq!(
            csb_retry_backoff(1).as_ps(),
            CSB_RETRY_BACKOFF_BASE.as_ps() * 2
        );
        assert_eq!(csb_retry_backoff(30), CSB_RETRY_BACKOFF_CAP);
    }

    #[test]
    fn fault_frequency_tracks_probability() {
        let mut rng = SimRng::new(5, "erat");
        let trials = 2000;
        let faulted = (0..trials)
            .filter(|_| {
                plan(
                    FaultPolicy::RetryOnFault {
                        fault_probability: 0.01,
                    },
                    10 * PAGE_BYTES,
                    &mut rng,
                )
                .fault_at
                .is_some()
            })
            .count();
        // P(any of 10 pages faults) ≈ 9.6%.
        let rate = faulted as f64 / trials as f64;
        assert!((0.06..0.14).contains(&rate), "observed fault rate {rate}");
    }
}
