//! Network traffic accounting.

/// Counters for simulated network activity.
///
/// Updated automatically by the engine; protocols read them through
/// [`crate::Simulation::stats`] to report bandwidth and message overheads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    sent: u64,
    delivered: u64,
    dropped: u64,
    bytes: u64,
    cross_site_sent: u64,
    cross_site_bytes: u64,
    events: u64,
    cancelled_timers: u64,
}

impl NetStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        NetStats::default()
    }

    pub(crate) fn record_send(&mut self, bytes: usize, cross_site: bool) {
        self.sent += 1;
        self.bytes += bytes as u64;
        if cross_site {
            self.cross_site_sent += 1;
            self.cross_site_bytes += bytes as u64;
        }
    }

    pub(crate) fn record_delivery(&mut self) {
        self.delivered += 1;
    }

    pub(crate) fn record_drop(&mut self) {
        self.dropped += 1;
    }

    pub(crate) fn record_event(&mut self) {
        self.events += 1;
    }

    /// Total messages sent.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Total messages delivered to a live destination.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped because an endpoint was failed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total bytes sent (per [`crate::MessageSize`]).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Messages whose endpoints were in different sites.
    pub fn cross_site_sent(&self) -> u64 {
        self.cross_site_sent
    }

    /// Bytes whose endpoints were in different sites.
    pub fn cross_site_bytes(&self) -> u64 {
        self.cross_site_bytes
    }

    /// Simulation events executed (deliveries, timer fires, scheduled calls).
    ///
    /// Deterministic: participates in snapshot equality, so two same-seed
    /// runs must agree on it. Divide by a wall-clock measurement (see
    /// [`crate::Simulation::wall_time`]) to get engine throughput.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Always zero: timers cannot be cancelled (see
    /// [`crate::Transport::set_timer`]). Kept, with its field, for the one
    /// benchmark probe that reads it.
    pub fn cancelled_timers(&self) -> u64 {
        self.cancelled_timers
    }

    /// Difference of two snapshots (`self` must be the later one).
    pub fn since(&self, earlier: &NetStats) -> NetStats {
        NetStats {
            sent: self.sent - earlier.sent,
            delivered: self.delivered - earlier.delivered,
            dropped: self.dropped - earlier.dropped,
            bytes: self.bytes - earlier.bytes,
            cross_site_sent: self.cross_site_sent - earlier.cross_site_sent,
            cross_site_bytes: self.cross_site_bytes - earlier.cross_site_bytes,
            events: self.events - earlier.events,
            cancelled_timers: self.cancelled_timers - earlier.cancelled_timers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::new();
        s.record_send(100, false);
        s.record_send(50, true);
        s.record_delivery();
        s.record_drop();
        assert_eq!(s.sent(), 2);
        assert_eq!(s.bytes(), 150);
        assert_eq!(s.cross_site_sent(), 1);
        assert_eq!(s.cross_site_bytes(), 50);
        assert_eq!(s.delivered(), 1);
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn since_subtracts() {
        let mut s = NetStats::new();
        s.record_send(10, true);
        s.record_event();
        let snap = s.clone();
        s.record_send(20, false);
        s.record_event();
        s.record_event();
        let d = s.since(&snap);
        assert_eq!(d.sent(), 1);
        assert_eq!(d.bytes(), 20);
        assert_eq!(d.cross_site_sent(), 0);
        assert_eq!(d.events(), 2);
    }

    #[test]
    fn event_and_cancellation_counters() {
        let mut s = NetStats::new();
        s.record_event();
        s.record_event();
        assert_eq!(s.events(), 2);
        assert_eq!(s.cancelled_timers(), 0);
    }
}
