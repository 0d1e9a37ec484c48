//! The Virtual Accelerator Switchboard (VAS) submission path.
//!
//! On POWER9 a user thread submits work with the `copy`/`paste`
//! instruction pair: the CRB cache line is pasted into a *receive window*
//! mapped into the process. Paste completes with a CR code indicating
//! acceptance; a full window (no credits) fails the paste and the library
//! backs off and retries. This module holds the prices of that path —
//! the paste round trip and the CPU cost of building a CRB — which
//! [`crate::runner`] charges; window credits themselves are accounted in
//! one place, `nx_core::service::sched`.

use nx_sim::SimTime;

/// Cost of one `copy`+`paste` round trip through the nest (cache-line
/// injection and CR response), per the POWER9 user-mode submission design.
pub const PASTE_LATENCY: SimTime = SimTime::from_ns(250);

/// CPU cycles a core spends building a CRB and issuing the paste (the E11
/// "cycles offloaded" accounting charges these to the accelerated path).
pub const SUBMIT_CPU_CYCLES: u64 = 600;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_sane() {
        assert!(PASTE_LATENCY < SimTime::from_us(1));
    }
}
