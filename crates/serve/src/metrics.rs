//! The serving metrics registry.
//!
//! Each endpoint accumulates counters (served, approximated, precise,
//! rejected), a fixed-bucket latency histogram in simulated cycles, and
//! the watchdog's lifetime transition counts. Workers batch their updates
//! — one registry lock per sub-batch, not per invocation — and the whole
//! registry exports as a serializable [`MetricsSnapshot`] (the payload a
//! scrape endpoint or the throughput benchmark serializes to JSON).

use mithra_core::watchdog::GuardState;
use serde::Serialize;

/// Cap on the exported guard transition log per endpoint. Mirrors the
/// core watchdog's own log cap: a healthy system transitions a handful of
/// times, and a flapping one is fully described by its first few dozen
/// transitions plus the drop counter.
pub const GUARD_LOG_CAP: usize = 64;

/// The export name of a [`GuardState`] rung (lowercase, stable across
/// releases — the JSON contract of the snapshot).
pub fn guard_state_name(state: GuardState) -> &'static str {
    match state {
        GuardState::Monitoring => "monitoring",
        GuardState::Throttled => "throttled",
        GuardState::Fallback => "fallback",
        GuardState::Probing => "probing",
    }
}

/// One rung change of an endpoint's guard ladder, as exported in the
/// snapshot. `at_sample` is the *shard-local* lifetime shadow-sample
/// count at which the transition fired; entries from different worker
/// shards are appended in fold order, so ordering is exact within a
/// shard and approximate across shards.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GuardLogEntry {
    /// Shard-local lifetime sample count at the transition.
    pub at_sample: u64,
    /// Rung left (see [`guard_state_name`]).
    pub from: String,
    /// Rung entered.
    pub to: String,
}

/// Upper bounds (inclusive) of the latency histogram buckets, in cycles.
/// Powers of two from 64 to 2^21, spanning sub-microsecond NPU invocations
/// through multi-kilocycle precise kernels with shadow samples; a final
/// implicit overflow bucket catches everything beyond.
pub const LATENCY_BUCKET_BOUNDS: [u64; 16] = [
    64,
    128,
    256,
    512,
    1024,
    2048,
    4096,
    8192,
    16384,
    32768,
    65536,
    131072,
    262144,
    524288,
    1 << 20,
    1 << 21,
];

/// A fixed-bucket histogram of per-invocation latency in simulated cycles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LatencyHistogram {
    /// `counts[i]` holds invocations with latency ≤ `LATENCY_BUCKET_BOUNDS[i]`
    /// (and above the previous bound); the last slot is the overflow
    /// bucket.
    pub counts: Vec<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; LATENCY_BUCKET_BOUNDS.len() + 1],
        }
    }
}

impl LatencyHistogram {
    /// Records one invocation's latency.
    pub fn record(&mut self, cycles: f64) {
        let idx = LATENCY_BUCKET_BOUNDS
            .iter()
            .position(|&bound| cycles <= bound as f64)
            .unwrap_or(LATENCY_BUCKET_BOUNDS.len());
        self.counts[idx] += 1;
    }

    /// Total recorded invocations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The latency quantile `q` (e.g. `0.99`), conservatively reported as
    /// the **upper bound** of the bucket holding the rank-`⌈q·total⌉`
    /// invocation — a fixed-bucket histogram cannot resolve finer, and
    /// rounding up keeps the figure a true "no more than" bound. An empty
    /// histogram reports 0; a quantile landing in the overflow bucket
    /// saturates to `u64::MAX` (the histogram only knows "beyond the last
    /// bound").
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return LATENCY_BUCKET_BOUNDS.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        unreachable!("rank is clamped to the histogram total")
    }
}

/// Watchdog activity aggregated across an endpoint's worker shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct WatchdogStats {
    /// Shadow quality samples taken.
    pub samples: u64,
    /// Sampled threshold violations.
    pub violations: u64,
    /// Ladder step-downs (into Throttled or Fallback).
    pub breaches: u64,
    /// Full-admission restorations (back to Monitoring).
    pub recoveries: u64,
    /// Shadow samples spent in `Monitoring` — the watchdog's clock is its
    /// sample stream, so these four are the time-in-state measure.
    pub time_in_monitoring: u64,
    /// Shadow samples spent in `Throttled`.
    pub time_in_throttled: u64,
    /// Shadow samples spent in `Fallback`.
    pub time_in_fallback: u64,
    /// Shadow samples spent in `Probing`.
    pub time_in_probing: u64,
    /// Total guard-ladder transitions across shards (including any beyond
    /// the per-shard log caps).
    pub transitions: u64,
    /// Times this endpoint's shared re-certification trigger was freshly
    /// raised. Per-worker forked watchdogs share **one** trigger per
    /// epoch, so concurrent shards entering `Fallback` together count
    /// once, not once per shard.
    pub recert_triggers: u64,
}

/// One endpoint's counters — the mutable registry entry workers update.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct EndpointCounters {
    /// Requests completed by a worker (admitted through the queue).
    pub served: u64,
    /// Served requests the classifier sent to the accelerator.
    pub approx: u64,
    /// Served requests that ran the precise function (classifier reject
    /// or watchdog fallback).
    pub fallback: u64,
    /// Requests refused at admission because the queue was full.
    pub rejected_queue_full: u64,
    /// Requests refused at admission for an out-of-range invocation.
    pub rejected_invalid: u64,
    /// Requests that named an already-served invocation; detected at the
    /// slot table, never double-charged.
    pub duplicates: u64,
    /// Config-FIFO refill bursts: a member's image streams when the
    /// served member differs from the one configured, fresh per
    /// sub-batch.
    pub config_bursts: u64,
    /// Host wall time spent inside the batched accelerator forward
    /// (`approx_batch_with`), in nanoseconds, summed across sub-batches
    /// and shards. This isolates the kernel-backend-sensitive segment of
    /// serving from queue/scheduling overhead, which dwarfs it at the
    /// suite's topology sizes.
    pub approx_wall_nanos: u64,
    /// Served requests per pool member, cheapest first (one entry on a
    /// binary endpoint, the pool of one). When non-empty its sum must
    /// equal `approx`: every accelerated request was served by exactly
    /// one member.
    pub route_served: Vec<u64>,
    /// Served requests attributed to the operating-point epoch that
    /// served them: `epoch_served[e]` is the number of requests completed
    /// under swap epoch `e`. When non-empty its sum must equal `served`.
    pub epoch_served: Vec<u64>,
    /// Operating-point swaps installed on this endpoint (each bumps the
    /// epoch by one, so the current epoch equals this count).
    pub swaps: u64,
    /// Guard-ladder transition log merged across worker shards, capped at
    /// [`GUARD_LOG_CAP`]; overflow lands in `guard_log_dropped`.
    pub guard_log: Vec<GuardLogEntry>,
    /// Transitions beyond the log cap.
    pub guard_log_dropped: u64,
    /// Per-invocation latency distribution in cycles.
    pub latency: LatencyHistogram,
    /// Aggregated watchdog activity across this endpoint's shards.
    pub watchdog: WatchdogStats,
}

impl EndpointCounters {
    /// Audits the counter set's internal invariants, returning one message
    /// per violation (empty means consistent).
    ///
    /// The invariants are structural, not statistical: the latency
    /// histogram records exactly the served invocations, so its bucket sum
    /// must equal `served`; and every served request ran exactly one of
    /// the two paths, so `approx + fallback` must equal `served`. Both
    /// survive [`absorb`](Self::absorb), which is how the conformance
    /// harness and the serve tests catch a shard whose delta was dropped
    /// or double-counted.
    pub fn consistency_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let latency_total = self.latency.total();
        if latency_total != self.served {
            errors.push(format!(
                "latency histogram sums to {latency_total} but served = {}",
                self.served
            ));
        }
        if self.approx + self.fallback != self.served {
            errors.push(format!(
                "approx {} + fallback {} != served {}",
                self.approx, self.fallback, self.served
            ));
        }
        if self.watchdog.violations > self.watchdog.samples {
            errors.push(format!(
                "watchdog violations {} exceed samples {}",
                self.watchdog.violations, self.watchdog.samples
            ));
        }
        if !self.route_served.is_empty() {
            let routed_sum: u64 = self.route_served.iter().sum();
            if routed_sum != self.approx {
                errors.push(format!(
                    "route_served sums to {routed_sum} but approx = {}",
                    self.approx
                ));
            }
        }
        if !self.epoch_served.is_empty() {
            let epoch_sum: u64 = self.epoch_served.iter().sum();
            if epoch_sum != self.served {
                errors.push(format!(
                    "epoch_served sums to {epoch_sum} but served = {}",
                    self.served
                ));
            }
        }
        let time_in = self.watchdog.time_in_monitoring
            + self.watchdog.time_in_throttled
            + self.watchdog.time_in_fallback
            + self.watchdog.time_in_probing;
        if time_in != self.watchdog.samples {
            errors.push(format!(
                "time-in-state sums to {time_in} but watchdog samples = {}",
                self.watchdog.samples
            ));
        }
        if self.watchdog.transitions != self.guard_log.len() as u64 + self.guard_log_dropped {
            errors.push(format!(
                "watchdog transitions = {} but guard log holds {} (+{} dropped)",
                self.watchdog.transitions,
                self.guard_log.len(),
                self.guard_log_dropped
            ));
        }
        errors
    }

    /// Appends guard-ladder transitions (already rendered as log entries)
    /// up to [`GUARD_LOG_CAP`], counting overflow — plus `dropped`
    /// transitions the producing shard itself never logged — into
    /// `guard_log_dropped`. The transition total is kept in lockstep so
    /// the log/counter invariant audited by
    /// [`consistency_errors`](Self::consistency_errors) holds.
    pub fn record_guard_transitions<I>(&mut self, entries: I, dropped: u64)
    where
        I: IntoIterator<Item = GuardLogEntry>,
    {
        for entry in entries {
            self.watchdog.transitions += 1;
            if self.guard_log.len() < GUARD_LOG_CAP {
                self.guard_log.push(entry);
            } else {
                self.guard_log_dropped += 1;
            }
        }
        self.watchdog.transitions += dropped;
        self.guard_log_dropped += dropped;
    }

    /// Zeroes every counter in place, keeping the buffers: vectors keep
    /// their length (their entries read 0) and capacity, and the guard log
    /// empties. A worker reuses one delta per endpoint across sub-batches
    /// this way instead of allocating a fresh one each time.
    pub fn reset(&mut self) {
        self.served = 0;
        self.approx = 0;
        self.fallback = 0;
        self.rejected_queue_full = 0;
        self.rejected_invalid = 0;
        self.duplicates = 0;
        self.config_bursts = 0;
        self.approx_wall_nanos = 0;
        self.swaps = 0;
        self.guard_log_dropped = 0;
        self.route_served.fill(0);
        self.epoch_served.fill(0);
        self.guard_log.clear();
        self.latency.counts.fill(0);
        self.watchdog = WatchdogStats::default();
    }

    /// Folds a worker's sub-batch delta into the registry entry — the
    /// single locked update a worker makes per sub-batch.
    pub fn absorb(&mut self, delta: &EndpointCounters) {
        self.served += delta.served;
        self.approx += delta.approx;
        self.fallback += delta.fallback;
        self.rejected_queue_full += delta.rejected_queue_full;
        self.rejected_invalid += delta.rejected_invalid;
        self.duplicates += delta.duplicates;
        self.config_bursts += delta.config_bursts;
        self.approx_wall_nanos += delta.approx_wall_nanos;
        if self.route_served.len() < delta.route_served.len() {
            self.route_served.resize(delta.route_served.len(), 0);
        }
        for (a, b) in self.route_served.iter_mut().zip(&delta.route_served) {
            *a += b;
        }
        if self.epoch_served.len() < delta.epoch_served.len() {
            self.epoch_served.resize(delta.epoch_served.len(), 0);
        }
        for (a, b) in self.epoch_served.iter_mut().zip(&delta.epoch_served) {
            *a += b;
        }
        self.swaps += delta.swaps;
        self.record_guard_transitions(delta.guard_log.iter().cloned(), delta.guard_log_dropped);
        self.latency.merge(&delta.latency);
        self.watchdog.samples += delta.watchdog.samples;
        self.watchdog.violations += delta.watchdog.violations;
        self.watchdog.breaches += delta.watchdog.breaches;
        self.watchdog.recoveries += delta.watchdog.recoveries;
        self.watchdog.time_in_monitoring += delta.watchdog.time_in_monitoring;
        self.watchdog.time_in_throttled += delta.watchdog.time_in_throttled;
        self.watchdog.time_in_fallback += delta.watchdog.time_in_fallback;
        self.watchdog.time_in_probing += delta.watchdog.time_in_probing;
        self.watchdog.recert_triggers += delta.watchdog.recert_triggers;
    }
}

/// One endpoint's metrics, frozen for export.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EndpointMetrics {
    /// The endpoint (benchmark) name.
    pub name: String,
    /// Invocations the endpoint was asked to cover.
    pub invocations: u64,
    /// Median per-invocation latency, as the histogram bucket bound
    /// (see [`LatencyHistogram::percentile`]).
    pub p50_cycles: u64,
    /// 99th-percentile per-invocation latency bucket bound.
    pub p99_cycles: u64,
    /// 99.9th-percentile per-invocation latency bucket bound.
    pub p999_cycles: u64,
    /// The frozen counters.
    pub counters: EndpointCounters,
}

impl EndpointMetrics {
    /// Freezes one endpoint's counters for export, deriving the latency
    /// percentiles from the histogram at freeze time.
    pub fn freeze(name: String, invocations: u64, counters: EndpointCounters) -> Self {
        Self {
            name,
            invocations,
            p50_cycles: counters.latency.percentile(0.50),
            p99_cycles: counters.latency.percentile(0.99),
            p999_cycles: counters.latency.percentile(0.999),
            counters,
        }
    }
}

/// The whole registry, frozen for export; serializes to JSON for
/// machine-readable reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Per-endpoint metrics, in endpoint registration order.
    pub endpoints: Vec<EndpointMetrics>,
}

impl MetricsSnapshot {
    /// Audits every endpoint's counters (see
    /// [`EndpointCounters::consistency_errors`]); messages are prefixed
    /// with the endpoint name. Empty means the whole snapshot is
    /// internally consistent.
    pub fn consistency_errors(&self) -> Vec<String> {
        self.endpoints
            .iter()
            .flat_map(|e| {
                let mut errors = e.counters.consistency_errors();
                for (label, frozen, q) in [
                    ("p50_cycles", e.p50_cycles, 0.50),
                    ("p99_cycles", e.p99_cycles, 0.99),
                    ("p999_cycles", e.p999_cycles, 0.999),
                ] {
                    let recomputed = e.counters.latency.percentile(q);
                    if frozen != recomputed {
                        errors.push(format!(
                            "{label} = {frozen} but the histogram says {recomputed}"
                        ));
                    }
                }
                errors
                    .into_iter()
                    .map(move |msg| format!("{}: {msg}", e.name))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeroes_every_counter_and_keeps_the_buffers() {
        // Every field set, with no `..Default::default()`: a field added
        // later must be named here, and stays nonzero unless `reset`
        // clears it too.
        let mut c = EndpointCounters {
            served: 1,
            approx: 2,
            fallback: 3,
            rejected_queue_full: 4,
            rejected_invalid: 5,
            duplicates: 6,
            config_bursts: 7,
            approx_wall_nanos: 8,
            route_served: vec![9, 10],
            epoch_served: vec![11, 12, 13],
            swaps: 14,
            guard_log: vec![GuardLogEntry {
                at_sample: 15,
                from: "monitoring".into(),
                to: "throttled".into(),
            }],
            guard_log_dropped: 16,
            latency: LatencyHistogram {
                counts: vec![17; LATENCY_BUCKET_BOUNDS.len() + 1],
            },
            watchdog: WatchdogStats {
                samples: 18,
                violations: 19,
                breaches: 20,
                recoveries: 21,
                time_in_monitoring: 22,
                time_in_throttled: 23,
                time_in_fallback: 24,
                time_in_probing: 25,
                transitions: 26,
                recert_triggers: 27,
            },
        };
        let buffers = (c.route_served.as_ptr(), c.epoch_served.as_ptr());
        c.reset();
        let zeroed = EndpointCounters {
            route_served: vec![0; 2],
            epoch_served: vec![0; 3],
            ..EndpointCounters::default()
        };
        assert_eq!(c, zeroed);
        assert_eq!((c.route_served.as_ptr(), c.epoch_served.as_ptr()), buffers);
        assert!(c.guard_log.capacity() > 0, "the guard log keeps its buffer");
    }

    #[test]
    fn histogram_buckets_by_bound() {
        let mut h = LatencyHistogram::default();
        h.record(1.0); // ≤ 64 → bucket 0
        h.record(64.0); // ≤ 64 → bucket 0
        h.record(65.0); // ≤ 128 → bucket 1
        h.record(1e12); // overflow bucket
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(*h.counts.last().unwrap(), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn absorb_accumulates_everything() {
        let mut a = EndpointCounters::default();
        let mut d = EndpointCounters {
            served: 3,
            approx: 2,
            fallback: 1,
            rejected_queue_full: 4,
            duplicates: 1,
            config_bursts: 2,
            ..EndpointCounters::default()
        };
        d.latency.record(100.0);
        d.watchdog.samples = 5;
        a.absorb(&d);
        a.absorb(&d);
        assert_eq!(a.served, 6);
        assert_eq!(a.approx, 4);
        assert_eq!(a.fallback, 2);
        assert_eq!(a.rejected_queue_full, 8);
        assert_eq!(a.duplicates, 2);
        assert_eq!(a.config_bursts, 4);
        assert_eq!(a.latency.total(), 2);
        assert_eq!(a.watchdog.samples, 10);
    }

    #[test]
    fn snapshot_serializes() {
        let snap = MetricsSnapshot {
            endpoints: vec![EndpointMetrics::freeze(
                "sobel".into(),
                10,
                EndpointCounters::default(),
            )],
        };
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"sobel\""));
        assert!(json.contains("\"latency\""));
        assert!(json.contains("\"watchdog\""));
        assert!(json.contains("\"p50_cycles\""));
        assert!(json.contains("\"p99_cycles\""));
        assert!(json.contains("\"p999_cycles\""));
        assert!(json.contains("\"route_served\""));
    }

    #[test]
    fn percentile_reports_bucket_upper_bounds() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.percentile(0.5), 0, "empty histogram reports 0");
        // 99 fast invocations, 1 slow one: p50 sits in the first bucket,
        // p99 still in the first, p999 lands on the straggler.
        for _ in 0..99 {
            h.record(10.0);
        }
        h.record(5000.0); // ≤ 8192 → bucket 7
        assert_eq!(h.percentile(0.50), 64);
        assert_eq!(h.percentile(0.99), 64);
        assert_eq!(h.percentile(0.999), 8192);
        assert_eq!(h.percentile(1.0), 8192);
        // A single overflow sample saturates the top quantile.
        h.record(1e12);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::default();
        for cycles in [3.0, 70.0, 300.0, 1500.0, 40_000.0, 900_000.0] {
            h.record(cycles);
        }
        let (p50, p99, p999) = (h.percentile(0.5), h.percentile(0.99), h.percentile(0.999));
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
    }

    #[test]
    fn route_served_absorbs_and_audits() {
        let mut a = EndpointCounters::default();
        let mut d = EndpointCounters {
            served: 3,
            approx: 2,
            fallback: 1,
            route_served: vec![1, 1],
            ..EndpointCounters::default()
        };
        d.latency.record(10.0);
        d.latency.record(10.0);
        d.latency.record(10.0);
        assert!(
            d.consistency_errors().is_empty(),
            "{:?}",
            d.consistency_errors()
        );
        a.absorb(&d);
        a.absorb(&d);
        assert_eq!(a.route_served, vec![2, 2]);
        assert!(a.consistency_errors().is_empty());
        // A member count that drifts from `approx` must be flagged.
        a.route_served[0] += 1;
        assert_eq!(a.consistency_errors().len(), 1);
    }

    #[test]
    fn snapshot_flags_stale_percentiles() {
        let mut counters = EndpointCounters {
            served: 1,
            approx: 1,
            ..EndpointCounters::default()
        };
        counters.latency.record(100.0);
        let mut frozen = EndpointMetrics::freeze("sobel".into(), 1, counters);
        let snap = MetricsSnapshot {
            endpoints: vec![frozen.clone()],
        };
        assert!(snap.consistency_errors().is_empty());
        frozen.p99_cycles += 1;
        let stale = MetricsSnapshot {
            endpoints: vec![frozen],
        };
        assert_eq!(stale.consistency_errors().len(), 1);
    }
}
