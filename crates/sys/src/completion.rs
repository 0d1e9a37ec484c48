//! Completion notification: CSB polling versus interrupts.
//!
//! The engine posts the CSB with ordinary stores; the submitting thread
//! either spins on the CSB valid bit (lowest latency, burns a hardware
//! thread) or blocks and takes an interrupt (frees the core, adds
//! kernel-path latency). The paper's small-request latency discussion
//! turns on exactly this trade-off (experiment E6).

use nx_sim::SimTime;

/// How the submitter learns a job finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionMode {
    /// Spin-poll the CSB; notification adds only the poll granularity.
    Poll,
    /// Sleep until the NX interrupt; adds kernel wake-up latency.
    Interrupt,
}

/// CSB poll granularity: cache-line re-read loop period.
pub const POLL_GRANULARITY: SimTime = SimTime::from_ns(100);

/// Interrupt delivery + kernel wake-up + context switch back to the
/// submitting thread.
pub const INTERRUPT_LATENCY: SimTime = SimTime::from_us(8);

impl CompletionMode {
    /// Latency from CSB post to the submitter observing completion.
    pub fn notification_latency(self) -> SimTime {
        match self {
            // Expected value of a uniform phase in the poll loop.
            CompletionMode::Poll => SimTime::from_ps(POLL_GRANULARITY.as_ps() / 2),
            CompletionMode::Interrupt => INTERRUPT_LATENCY,
        }
    }

    /// CPU cycles the submitting core burns waiting, given the job's
    /// residency `wait` and a core clock in GHz. Polling burns the whole
    /// wait; interrupts burn only entry/exit paths (~2k cycles).
    pub fn cpu_wait_cycles(self, wait: SimTime, core_ghz: f64) -> u64 {
        match self {
            CompletionMode::Poll => (wait.as_secs_f64() * core_ghz * 1e9) as u64,
            CompletionMode::Interrupt => 2_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_is_much_faster_than_interrupt() {
        let p = CompletionMode::Poll.notification_latency();
        let i = CompletionMode::Interrupt.notification_latency();
        assert!(i.as_ps() > 50 * p.as_ps());
    }

    #[test]
    fn poll_burns_cpu_proportional_to_wait() {
        let w = SimTime::from_us(10);
        let poll = CompletionMode::Poll.cpu_wait_cycles(w, 2.0);
        assert_eq!(poll, 20_000);
        let intr = CompletionMode::Interrupt.cpu_wait_cycles(w, 2.0);
        assert!(intr < poll);
    }

    #[test]
    fn interrupt_cpu_cost_is_wait_independent() {
        let a = CompletionMode::Interrupt.cpu_wait_cycles(SimTime::from_us(1), 2.0);
        let b = CompletionMode::Interrupt.cpu_wait_cycles(SimTime::from_ms(10), 2.0);
        assert_eq!(a, b);
    }
}
