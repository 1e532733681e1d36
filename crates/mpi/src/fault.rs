//! Deterministic fault injection for the message-passing substrate.
//!
//! A [`FaultPlan`] describes *which* transient faults a world injects
//! into its data messages — drops, delivery delays, duplications,
//! payload bit-flips, and sender stalls — and with what probability.
//! Every decision is a pure hash of `(seed, src, dest, seq, attempt)`,
//! so a faulted run is exactly reproducible regardless of thread
//! interleaving, and two runs with the same seed inject the same faults.
//!
//! The plan also carries the recovery parameters the transport uses to
//! *survive* those faults: the acknowledgement timeout (exponentially
//! backed off per attempt) and the retry budget. The final attempt of a
//! bounded retry sequence is always fault-free ("the network heals"), so
//! a plan can never make a correct program fail — it can only make it
//! slower, which is the whole point of measuring resilience overhead.
//!
//! A plan is always passed explicitly, to [`crate::World::run_faulted`]:
//! built in code, from [`FaultPlan::default_intensity`], or parsed by
//! [`FaultPlan::parse`] (the CLI's `--faults`). The spec grammar is a
//! comma-separated list:
//!
//! ```text
//! drop=0.02,dup=0.02,flip=0.02,delay=0.05:1ms,stall=0.01:2ms,timeout=25ms,retries=6
//! ```
//!
//! Probabilities are in `[0, 1]`; durations take `ns`/`us`/`ms`/`s`
//! suffixes. Unlisted keys keep their defaults (zero probability).

use std::time::Duration;

/// Default acknowledgement timeout before a retransmission (base of the
/// exponential backoff).
pub const DEFAULT_ACK_TIMEOUT: Duration = Duration::from_millis(25);

/// Default retry budget: a message is transmitted at most `1 + retries`
/// times before the sender gives up.
pub const DEFAULT_MAX_RETRIES: u32 = 6;

/// A seeded, deterministic fault-injection plan for one world.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root of every per-message hash draw.
    pub seed: u64,
    /// Probability a data transmission is silently dropped.
    pub drop_p: f64,
    /// Probability a data transmission is delivered twice.
    pub dup_p: f64,
    /// Probability one payload bit is flipped in flight.
    pub flip_p: f64,
    /// Probability delivery is delayed by [`FaultPlan::delay`].
    pub delay_p: f64,
    /// Delivery delay applied when the delay fault fires.
    pub delay: Duration,
    /// Probability the *sender* stalls before transmitting (models a
    /// descheduled / slow rank rather than a network fault).
    pub stall_p: f64,
    /// Stall length when the stall fault fires.
    pub stall: Duration,
    /// Base acknowledgement timeout; attempt `k` waits `2^k` times this.
    pub ack_timeout: Duration,
    /// Maximum retransmissions after the first attempt.
    pub max_retries: u32,
}

impl Default for FaultPlan {
    /// A fault-free plan: reliable transport machinery (checksums, ACKs,
    /// sequence numbers) active, zero injected faults.
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
            flip_p: 0.0,
            delay_p: 0.0,
            delay: Duration::ZERO,
            stall_p: 0.0,
            stall: Duration::ZERO,
            ack_timeout: DEFAULT_ACK_TIMEOUT,
            max_retries: DEFAULT_MAX_RETRIES,
        }
    }
}

/// The faults drawn for one transmission attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultDraw {
    /// Drop the transmission entirely.
    pub drop: bool,
    /// Deliver a second copy.
    pub duplicate: bool,
    /// Flip this bit offset (mod payload length) in the delivered copy.
    pub flip_bit: Option<u64>,
    /// Hold delivery back by this long.
    pub delay: Option<Duration>,
    /// Sender sleeps this long before transmitting.
    pub stall: Option<Duration>,
}

impl FaultDraw {
    /// Whether any fault fires in this draw.
    pub fn any(&self) -> bool {
        self.drop
            || self.duplicate
            || self.flip_bit.is_some()
            || self.delay.is_some()
            || self.stall.is_some()
    }
}

/// Errors from parsing a fault spec string ([`FaultPlan::parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultPlan {
    /// The default transient-fault intensity (the CLI's
    /// `--faults default`): 2% drops, duplications, and bit-flips, 5%
    /// deliveries delayed by 1 ms.
    pub fn default_intensity(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p: 0.02,
            dup_p: 0.02,
            flip_p: 0.02,
            delay_p: 0.05,
            delay: Duration::from_millis(1),
            ..FaultPlan::default()
        }
    }

    /// Parse the comma-separated spec grammar (see module docs).
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan { seed, ..FaultPlan::default() };
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("`{item}` is not key=value")))?;
            match key.trim() {
                "drop" => plan.drop_p = parse_prob(key, value)?,
                "dup" => plan.dup_p = parse_prob(key, value)?,
                "flip" => plan.flip_p = parse_prob(key, value)?,
                "delay" => (plan.delay_p, plan.delay) = parse_prob_duration(key, value)?,
                "stall" => (plan.stall_p, plan.stall) = parse_prob_duration(key, value)?,
                "timeout" => plan.ack_timeout = parse_duration(key, value)?,
                "retries" => {
                    plan.max_retries =
                        value.trim().parse().map_err(|e| FaultSpecError(format!("{key}: {e}")))?;
                }
                other => {
                    return Err(FaultSpecError(format!(
                        "unknown key `{other}` (valid: drop dup flip delay stall timeout retries)"
                    )))
                }
            }
        }
        if plan.ack_timeout.is_zero() {
            return Err(FaultSpecError("timeout must be positive".to_string()));
        }
        Ok(plan)
    }

    /// Whether this plan can inject any fault at all.
    pub fn injects_faults(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.flip_p > 0.0
            || self.delay_p > 0.0
            || self.stall_p > 0.0
    }

    /// The acknowledgement deadline for transmission attempt `attempt`
    /// (exponential backoff, capped to avoid overflow).
    pub fn timeout_for_attempt(&self, attempt: u32) -> Duration {
        self.ack_timeout * (1u32 << attempt.min(6))
    }

    /// Draw the faults for one transmission attempt of the message
    /// `(src → dest, seq)`. Pure in its arguments: the same plan draws
    /// the same faults for the same message on every run.
    ///
    /// `final_attempt` heals the network: the last transmission of a
    /// bounded retry sequence is never dropped, corrupted, or delayed,
    /// so retries always terminate.
    pub fn draw(
        &self,
        src: usize,
        dest: usize,
        seq: u64,
        attempt: u32,
        final_attempt: bool,
    ) -> FaultDraw {
        if final_attempt || !self.injects_faults() {
            return FaultDraw::default();
        }
        let u = |salt: u64| self.unit(src, dest, seq, attempt, salt);
        let mut draw = FaultDraw::default();
        if u(1) < self.drop_p {
            draw.drop = true;
        }
        if u(2) < self.dup_p {
            draw.duplicate = true;
        }
        if u(3) < self.flip_p {
            draw.flip_bit = Some(self.hash(src, dest, seq, attempt, 4));
        }
        if u(5) < self.delay_p && !self.delay.is_zero() {
            draw.delay = Some(self.delay);
        }
        // A stall models the rank being slow, not the message being
        // lost; one per logical message is enough.
        if attempt == 0 && u(6) < self.stall_p && !self.stall.is_zero() {
            draw.stall = Some(self.stall);
        }
        draw
    }

    fn hash(&self, src: usize, dest: usize, seq: u64, attempt: u32, salt: u64) -> u64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for v in [src as u64, dest as u64, seq, attempt as u64, salt] {
            h = splitmix64(h ^ v);
        }
        h
    }

    fn unit(&self, src: usize, dest: usize, seq: u64, attempt: u32, salt: u64) -> f64 {
        (self.hash(src, dest, seq, attempt, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit over a byte slice: the per-message payload checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn parse_prob(key: &str, value: &str) -> Result<f64, FaultSpecError> {
    let p: f64 = value.trim().parse().map_err(|e| FaultSpecError(format!("{key}: {e}")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultSpecError(format!("{key}: probability {p} outside [0, 1]")));
    }
    Ok(p)
}

fn parse_prob_duration(key: &str, value: &str) -> Result<(f64, Duration), FaultSpecError> {
    let (p, d) = value
        .split_once(':')
        .ok_or_else(|| FaultSpecError(format!("{key} takes prob:duration, got `{value}`")))?;
    Ok((parse_prob(key, p)?, parse_duration(key, d)?))
}

fn parse_duration(key: &str, value: &str) -> Result<Duration, FaultSpecError> {
    let v = value.trim();
    let (digits, unit): (&str, fn(u64) -> Duration) = if let Some(d) = v.strip_suffix("ms") {
        (d, Duration::from_millis)
    } else if let Some(d) = v.strip_suffix("us") {
        (d, Duration::from_micros)
    } else if let Some(d) = v.strip_suffix("ns") {
        (d, Duration::from_nanos)
    } else if let Some(d) = v.strip_suffix('s') {
        (d, Duration::from_secs)
    } else {
        return Err(FaultSpecError(format!("{key}: duration `{v}` needs a ns/us/ms/s suffix")));
    };
    let n: u64 = digits.trim().parse().map_err(|e| FaultSpecError(format!("{key}: {e}")))?;
    Ok(unit(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_fault_free() {
        let p = FaultPlan::default();
        assert!(!p.injects_faults());
        for seq in 0..100 {
            assert!(!p.draw(0, 1, seq, 0, false).any());
        }
    }

    #[test]
    fn default_intensity_injects_something() {
        let p = FaultPlan::default_intensity(42);
        assert!(p.injects_faults());
        let fired = (0..1000).filter(|&s| p.draw(0, 1, s, 0, false).any()).count();
        // ~11% of messages should see at least one fault at 2/2/2/5%.
        assert!(fired > 40 && fired < 400, "{fired} of 1000 messages faulted");
    }

    #[test]
    fn draws_are_deterministic() {
        let a = FaultPlan::default_intensity(7);
        let b = FaultPlan::default_intensity(7);
        for seq in 0..200 {
            for attempt in 0..3 {
                assert_eq!(a.draw(2, 5, seq, attempt, false), b.draw(2, 5, seq, attempt, false));
            }
        }
    }

    #[test]
    fn different_seeds_draw_differently() {
        let a = FaultPlan::default_intensity(1);
        let b = FaultPlan::default_intensity(2);
        let differs = (0..500).any(|s| a.draw(0, 1, s, 0, false) != b.draw(0, 1, s, 0, false));
        assert!(differs, "seeds 1 and 2 drew identical fault sequences");
    }

    #[test]
    fn final_attempt_always_heals() {
        let p = FaultPlan { drop_p: 1.0, flip_p: 1.0, ..FaultPlan::default_intensity(3) };
        for seq in 0..100 {
            assert!(!p.draw(0, 1, seq, p.max_retries, true).any());
        }
    }

    #[test]
    fn spec_round_trip() {
        let p =
            FaultPlan::parse("drop=0.1,dup=0.05,flip=0.2,delay=0.3:2ms,stall=0.01:5us", 9).unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.drop_p, 0.1);
        assert_eq!(p.dup_p, 0.05);
        assert_eq!(p.flip_p, 0.2);
        assert_eq!(p.delay_p, 0.3);
        assert_eq!(p.delay, Duration::from_millis(2));
        assert_eq!(p.stall_p, 0.01);
        assert_eq!(p.stall, Duration::from_micros(5));
    }

    #[test]
    fn spec_recovery_knobs() {
        let p = FaultPlan::parse("timeout=100ms,retries=3", 0).unwrap();
        assert_eq!(p.ack_timeout, Duration::from_millis(100));
        assert_eq!(p.max_retries, 3);
        assert!(!p.injects_faults());
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultPlan::parse("drop", 0).is_err());
        assert!(FaultPlan::parse("drop=2.0", 0).is_err());
        assert!(FaultPlan::parse("drop=-0.1", 0).is_err());
        assert!(FaultPlan::parse("warp=0.5", 0).is_err());
        assert!(FaultPlan::parse("delay=0.5", 0).is_err(), "delay needs prob:duration");
        assert!(FaultPlan::parse("delay=0.5:10", 0).is_err(), "duration needs a unit");
        assert!(FaultPlan::parse("timeout=0ms", 0).is_err());
    }

    #[test]
    fn empty_spec_is_fault_free() {
        let p = FaultPlan::parse("", 5).unwrap();
        assert!(!p.injects_faults());
        assert_eq!(p.seed, 5);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = FaultPlan::default();
        assert_eq!(p.timeout_for_attempt(0), DEFAULT_ACK_TIMEOUT);
        assert_eq!(p.timeout_for_attempt(1), DEFAULT_ACK_TIMEOUT * 2);
        assert_eq!(p.timeout_for_attempt(3), DEFAULT_ACK_TIMEOUT * 8);
        assert_eq!(p.timeout_for_attempt(40), DEFAULT_ACK_TIMEOUT * 64);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn flip_bit_varies_with_message() {
        let p = FaultPlan { flip_p: 1.0, ..FaultPlan::default_intensity(11) };
        let bits: std::collections::HashSet<u64> =
            (0..50).filter_map(|s| p.draw(0, 1, s, 0, false).flip_bit).collect();
        assert!(bits.len() > 10, "flip positions should spread: {}", bits.len());
    }
}
