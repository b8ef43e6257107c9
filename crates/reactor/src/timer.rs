//! A two-level hashed timer wheel: 50 µs fine slots + 1 ms coarse slots.
//!
//! The reactor's timers used to be few and coarse — credit-stall ticks,
//! parked connection re-checks — so a single-level wheel of millisecond
//! slots was enough. Latency-aware batching changed that: cork deadlines
//! and priority-lane stall ticks are in the tens-of-microseconds range,
//! and rounding them up to 1 ms would defeat the whole point. The wheel
//! is therefore split in two:
//!
//! * a **fine wheel** of [`FINE_SLOTS`] × [`FINE_RESOLUTION`] (50 µs)
//!   slots covering the next ~6.4 ms — sub-millisecond deadlines land
//!   here and fire with ~50 µs granularity;
//! * the original **coarse wheel** of 1024 × 1 ms slots for everything
//!   longer; a deadline past its horizon simply stays in its slot until
//!   its lap comes around (each entry stores the absolute deadline;
//!   firing a slot only releases the entries that are actually due).
//!
//! Supported resolution: delays shorter than one fine slot round **up**
//! to a full fine slot (50 µs), never down to zero — a 1 µs timer still
//! waits ~50 µs rather than spinning the poll loop hot. This is asserted
//! by `schedule` in debug builds producing a deadline strictly in the
//! future. `next_timeout` is µs-precise so the poller (via
//! `epoll_pwait2`) can honour sub-millisecond sleeps.
//!
//! Scheduling and expiry stay O(1) amortised. Not thread-safe by design:
//! each reactor shard owns one wheel.

use crate::poller::Token;
use std::time::{Duration, Instant};

/// Granularity of the fine wheel: the finest delay the reactor honours.
/// Sub-`FINE_RESOLUTION` delays round up to exactly one fine slot.
pub const FINE_RESOLUTION: Duration = Duration::from_micros(FINE_SLOT_US);

const FINE_SLOT_US: u64 = 50;
const FINE_SLOTS: usize = 128; // 6.4 ms horizon

const COARSE_SLOT_US: u64 = 1_000;
const COARSE_SLOTS: usize = 1024;

/// Delays strictly below this go to the fine wheel (one fine lap).
const FINE_HORIZON_US: u64 = FINE_SLOT_US * FINE_SLOTS as u64;

struct Entry {
    /// Absolute deadline in µs since `base`.
    deadline_us: u64,
    token: Token,
}

/// The wheel. Not thread-safe by design: each reactor shard owns one.
pub struct TimerWheel {
    base: Instant,
    /// Next fine tick to sweep (everything before it has fired).
    fine_cursor: u64,
    fine: Vec<Vec<Entry>>,
    /// Next coarse tick to sweep.
    coarse_cursor: u64,
    coarse: Vec<Vec<Entry>>,
    armed: usize,
    /// The nearest armed deadline (µs since `base`) while `armed > 0`:
    /// lowered by `schedule`, recomputed by `expired` when timers fired —
    /// so `next_timeout`, which runs every reactor lap, scans nothing.
    earliest_us: u64,
}

impl TimerWheel {
    /// An empty wheel anchored at `now`.
    pub fn new() -> TimerWheel {
        TimerWheel {
            base: Instant::now(),
            fine_cursor: 0,
            fine: (0..FINE_SLOTS).map(|_| Vec::new()).collect(),
            coarse_cursor: 0,
            coarse: (0..COARSE_SLOTS).map(|_| Vec::new()).collect(),
            armed: 0,
            earliest_us: u64::MAX,
        }
    }

    fn now_us(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.base)
            .as_micros() as u64
    }

    /// Arms a timer: `token` fires once `delay` has elapsed. Sub-50 µs
    /// delays round up to one fine slot ([`FINE_RESOLUTION`]), so a tiny
    /// delay still waits a full slot rather than firing immediately in a
    /// hot loop; delays of 6.4 ms and beyond use millisecond granularity.
    pub fn schedule(&mut self, token: Token, delay: Duration) {
        let now_us = self.now_us();
        let delay_us = (delay.as_micros() as u64).max(1);
        // Round up to the wheel's next slot boundary; `max(1)` slot keeps
        // the deadline strictly in the future.
        let (wheel, slot_us) = if delay_us < FINE_HORIZON_US {
            (&mut self.fine, FINE_SLOT_US)
        } else {
            (&mut self.coarse, COARSE_SLOT_US)
        };
        let deadline_tick = now_us / slot_us + delay_us.div_ceil(slot_us).max(1);
        let deadline_us = deadline_tick * slot_us;
        debug_assert!(deadline_us > now_us);
        let slot = (deadline_tick % wheel.len() as u64) as usize;
        wheel[slot].push(Entry { deadline_us, token });
        self.earliest_us = self.earliest_us.min(deadline_us);
        self.armed += 1;
    }

    /// Number of armed timers.
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// How long the owning poller may sleep before the next timer is due,
    /// with microsecond precision. `None` when nothing is armed. Never
    /// returns a zero duration (an already-due deadline reports one fine
    /// slot so a caller that polls before sweeping cannot spin hot).
    pub fn next_timeout(&self) -> Option<Duration> {
        if self.armed == 0 {
            return None;
        }
        let deadline = self.earliest_us;
        let now_us = self.now_us();
        Some(Duration::from_micros(
            deadline.saturating_sub(now_us).max(FINE_SLOT_US),
        ))
    }

    /// Collects every timer due by now, nearest deadline first.
    pub fn expired(&mut self) -> Vec<Token> {
        let now_us = self.now_us();
        let mut due: Vec<Entry> = Vec::new();
        sweep(
            &mut self.fine,
            &mut self.fine_cursor,
            now_us / FINE_SLOT_US,
            now_us,
            &mut due,
        );
        sweep(
            &mut self.coarse,
            &mut self.coarse_cursor,
            now_us / COARSE_SLOT_US,
            now_us,
            &mut due,
        );
        if !due.is_empty() {
            self.armed -= due.len();
            self.earliest_us = (self.fine.iter().chain(&self.coarse).flatten())
                .map(|entry| entry.deadline_us)
                .min()
                .unwrap_or(u64::MAX);
        }
        due.sort_by_key(|e| e.deadline_us);
        due.into_iter().map(|e| e.token).collect()
    }
}

/// Sweeps one wheel level from its cursor to `now_tick` (at most one full
/// lap — visiting every slot once suffices because entries carry absolute
/// deadlines), moving due entries into `due`.
fn sweep(
    slots: &mut [Vec<Entry>],
    cursor: &mut u64,
    now_tick: u64,
    now_us: u64,
    due: &mut Vec<Entry>,
) {
    let lap_end = now_tick.min(*cursor + slots.len() as u64);
    while *cursor <= lap_end {
        let slot = &mut slots[(*cursor % slots.len() as u64) as usize];
        let mut i = 0;
        while i < slot.len() {
            if slot[i].deadline_us <= now_us {
                due.push(slot.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if *cursor == lap_end {
            break;
        }
        *cursor += 1;
    }
    *cursor = now_tick;
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}
