//! Warp schedulers: Greedy-Then-Oldest (GTO) and loose round-robin (LRR).
//!
//! Each SM has two schedulers (Table II); the warp pool is split evenly
//! between them. The scheduler also measures the two quantities LATTE-CC's
//! latency-tolerance estimator needs (Eq. 4): the mean number of ready
//! warps per cycle and the mean greedy run length per schedule.

use crate::config::SchedulerKind;
use latte_compress::Cycles;

/// One warp scheduler: owns a fixed slice of the SM's warps (by index) and
/// picks at most one to issue per cycle.
///
/// The scheduler never looks at `Warp` structs. Its caller keeps, for the
/// owned warps in [`WarpScheduler::warp_ids`] order, one contiguous slice
/// of first-issue cycles (`WarpState::ready_at`) and a count of available
/// warps, and passes both to [`WarpScheduler::pick`].
#[derive(Debug, Clone)]
pub struct WarpScheduler {
    kind: SchedulerKind,
    /// Indices (into the SM's warp vector) this scheduler arbitrates, in
    /// ascending order.
    warp_ids: Vec<usize>,
    /// Position (in `warp_ids`) of the warp currently favoured by GTO
    /// greed (or the LRR rotor).
    current: Option<usize>,
    /// Length of the current greedy run, in issues.
    run_length: u64,
    /// Probe accumulators (reset each EP).
    ready_samples: u64,
    ready_sum: u64,
    runs_completed: u64,
    run_length_sum: u64,
}

/// Probe counters extracted at an EP boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerProbe {
    /// Number of cycles sampled.
    pub samples: u64,
    /// Sum of ready-warp counts over those cycles.
    pub ready_sum: u64,
    /// Number of completed greedy runs.
    pub runs: u64,
    /// Sum of greedy run lengths.
    pub run_length_sum: u64,
}

impl WarpScheduler {
    /// Creates a scheduler arbitrating `warp_ids` (ascending).
    #[must_use]
    pub fn new(kind: SchedulerKind, warp_ids: Vec<usize>) -> WarpScheduler {
        debug_assert!(warp_ids.windows(2).all(|w| w[0] < w[1]));
        WarpScheduler {
            kind,
            warp_ids,
            current: None,
            run_length: 0,
            ready_samples: 0,
            ready_sum: 0,
            runs_completed: 0,
            run_length_sum: 0,
        }
    }

    /// The warp indices this scheduler owns.
    #[must_use]
    pub fn warp_ids(&self) -> &[usize] {
        &self.warp_ids
    }

    /// Picks the warp to issue at `cycle`, or `None` if no owned warp is
    /// ready. `ready_at[i]` is the first cycle `warp_ids()[i]` can issue
    /// (`Cycles::MAX` while it cannot), and `available` is the number of
    /// owned warps holding execution work — ready or computing rather
    /// than stalled on memory — since those are the warps whose work can
    /// hide a decompression stall. `available` is this cycle's sample for
    /// the tolerance probe.
    pub fn pick(&mut self, ready_at: &[Cycles], available: u64, cycle: Cycles) -> Option<usize> {
        debug_assert_eq!(ready_at.len(), self.warp_ids.len());
        self.ready_samples += 1;
        self.ready_sum += available;
        let next = match self.kind {
            SchedulerKind::Gto => {
                if let Some(cur) = self.current {
                    if ready_at[cur] <= cycle {
                        self.run_length += 1;
                        return Some(self.warp_ids[cur]);
                    }
                    // An unready current warp ends its greedy run.
                    self.end_run();
                }
                // Oldest = lowest warp id = first position (warps are
                // launched in id order).
                let oldest = first_ready(ready_at, cycle)?;
                self.run_length = 1;
                oldest
            }
            SchedulerKind::Lrr => {
                // Rotate: next ready warp after the last issued one. LRR
                // never grows `run_length`, so with nothing ready there is
                // no run to end.
                let start = self.current.map_or(0, |c| c + 1);
                let next = first_ready(&ready_at[start..], cycle)
                    .map(|i| start + i)
                    .or_else(|| first_ready(&ready_at[..start], cycle))?;
                self.runs_completed += 1;
                self.run_length_sum += 1;
                next
            }
        };
        self.current = Some(next);
        Some(self.warp_ids[next])
    }

    /// Accounts `n` skipped (no-issue) cycles into the probe. Warps may
    /// still hold compute work during skipped cycles, and availability
    /// does not change across them, so each skipped cycle samples the
    /// same `available` count.
    pub fn account_idle_cycles(&mut self, n: u64, available: u64) {
        self.ready_samples += n;
        self.ready_sum += available * n;
        self.end_run();
    }

    /// Reads and resets the probe accumulators.
    pub fn take_probe(&mut self) -> SchedulerProbe {
        // Count the in-flight greedy run so long runs are not invisible.
        let probe = SchedulerProbe {
            samples: self.ready_samples,
            ready_sum: self.ready_sum,
            runs: self.runs_completed + u64::from(self.run_length > 0),
            run_length_sum: self.run_length_sum + self.run_length,
        };
        self.ready_samples = 0;
        self.ready_sum = 0;
        self.runs_completed = 0;
        self.run_length_sum = 0;
        // The greedy run itself continues (the current warp stays
        // favoured), but the issues seen so far were attributed to this
        // probe window; start counting afresh for the next one.
        self.run_length = 0;
        probe
    }

    fn end_run(&mut self) {
        if self.run_length > 0 {
            self.runs_completed += 1;
            self.run_length_sum += self.run_length;
            self.run_length = 0;
        }
        if self.kind == SchedulerKind::Gto {
            self.current = None;
        }
    }
}

/// Position of the first entry of `ready_at` that can issue at `cycle`.
fn first_ready(ready_at: &[Cycles], cycle: Cycles) -> Option<usize> {
    ready_at.iter().position(|&r| r <= cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, VecStream};
    use crate::warp::{Warp, WarpState};
    use proptest::prelude::*;

    /// Picks with the readiness slice and available count an `Sm` keeps
    /// for `states`.
    fn pick(s: &mut WarpScheduler, states: &[WarpState], cycle: Cycles) -> Option<usize> {
        let ready_at: Vec<Cycles> = s.warp_ids().iter().map(|&w| states[w].ready_at()).collect();
        s.pick(&ready_at, available(s, states), cycle)
    }

    fn available(s: &WarpScheduler, states: &[WarpState]) -> u64 {
        s.warp_ids()
            .iter()
            .filter(|&&w| states[w].is_available())
            .count() as u64
    }

    #[test]
    fn gto_sticks_with_current_warp() {
        let ws = [WarpState::Ready; 4];
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1, 2, 3]);
        assert_eq!(pick(&mut s, &ws, 0), Some(0));
        assert_eq!(pick(&mut s, &ws, 1), Some(0));
        assert_eq!(pick(&mut s, &ws, 2), Some(0));
    }

    #[test]
    fn gto_switches_to_oldest_on_stall() {
        let mut ws = [WarpState::Ready; 4];
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1, 2, 3]);
        assert_eq!(pick(&mut s, &ws, 0), Some(0));
        ws[0] = WarpState::BusyUntil(100);
        ws[1] = WarpState::BusyUntil(100);
        assert_eq!(pick(&mut s, &ws, 1), Some(2), "oldest ready warp");
        // Warp 0 becoming ready again does not preempt the greedy run.
        ws[0] = WarpState::Ready;
        assert_eq!(pick(&mut s, &ws, 2), Some(2));
    }

    #[test]
    fn lrr_rotates() {
        let ws = [WarpState::Ready; 3];
        let mut s = WarpScheduler::new(SchedulerKind::Lrr, vec![0, 1, 2]);
        assert_eq!(pick(&mut s, &ws, 0), Some(0));
        assert_eq!(pick(&mut s, &ws, 1), Some(1));
        assert_eq!(pick(&mut s, &ws, 2), Some(2));
        assert_eq!(pick(&mut s, &ws, 3), Some(0));
    }

    #[test]
    fn probe_measures_runs_and_ready_counts() {
        let mut ws = [WarpState::Ready; 2];
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1]);
        pick(&mut s, &ws, 0);
        pick(&mut s, &ws, 1);
        ws[0] = WarpState::WaitingData {
            until: 0,
            pending_misses: 1,
        };
        pick(&mut s, &ws, 2); // switches to warp 1, ending a run of 2
        let probe = s.take_probe();
        assert_eq!(probe.samples, 3);
        assert_eq!(probe.ready_sum, 2 + 2 + 1);
        assert_eq!(probe.runs, 2); // completed run of 2 + in-flight run of 1
        assert_eq!(probe.run_length_sum, 3);
    }

    #[test]
    fn no_ready_warps_returns_none() {
        let ws = [WarpState::Finished];
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0]);
        assert_eq!(pick(&mut s, &ws, 0), None);
        let probe = s.take_probe();
        assert_eq!(probe.ready_sum, 0);
        assert_eq!(probe.samples, 1);
    }

    #[test]
    fn probe_resets_after_take() {
        let ws = [WarpState::Ready; 2];
        let mut s = WarpScheduler::new(SchedulerKind::Gto, vec![0, 1]);
        pick(&mut s, &ws, 0);
        let _ = s.take_probe();
        let probe = s.take_probe();
        assert_eq!(probe, SchedulerProbe::default());
    }

    /// The scheduler as it was before the SM kept readiness caches: every
    /// pick walks the owned `Warp`s up to three times (availability,
    /// readiness, oldest ready warp). Kept as the reference the
    /// incremental [`WarpScheduler::pick`] must match.
    struct ReferenceScheduler {
        kind: SchedulerKind,
        warp_ids: Vec<usize>,
        current: Option<usize>,
        run_length: u64,
        ready_samples: u64,
        ready_sum: u64,
        runs_completed: u64,
        run_length_sum: u64,
    }

    impl ReferenceScheduler {
        fn new(kind: SchedulerKind, warp_ids: Vec<usize>) -> ReferenceScheduler {
            ReferenceScheduler {
                kind,
                warp_ids,
                current: None,
                run_length: 0,
                ready_samples: 0,
                ready_sum: 0,
                runs_completed: 0,
                run_length_sum: 0,
            }
        }

        fn pick(&mut self, warps: &[Warp], cycle: Cycles) -> Option<usize> {
            let available = self
                .warp_ids
                .iter()
                .filter(|&&w| warps[w].is_available())
                .count() as u64;
            self.ready_samples += 1;
            self.ready_sum += available;
            let ready = self
                .warp_ids
                .iter()
                .filter(|&&w| warps[w].is_ready(cycle))
                .count() as u64;
            if ready == 0 {
                self.end_run();
                return None;
            }
            match self.kind {
                SchedulerKind::Gto => {
                    if let Some(cur) = self.current {
                        if warps[cur].is_ready(cycle) {
                            self.run_length += 1;
                            return Some(cur);
                        }
                        self.end_run();
                    }
                    let oldest = self
                        .warp_ids
                        .iter()
                        .copied()
                        .filter(|&w| warps[w].is_ready(cycle))
                        .min()?;
                    self.current = Some(oldest);
                    self.run_length = 1;
                    Some(oldest)
                }
                SchedulerKind::Lrr => {
                    let start = self
                        .current
                        .and_then(|c| self.warp_ids.iter().position(|&w| w == c))
                        .map(|p| p + 1)
                        .unwrap_or(0);
                    let n = self.warp_ids.len();
                    let next = (0..n)
                        .map(|i| self.warp_ids[(start + i) % n])
                        .find(|&w| warps[w].is_ready(cycle))?;
                    self.current = Some(next);
                    self.runs_completed += 1;
                    self.run_length_sum += 1;
                    Some(next)
                }
            }
        }

        fn account_idle_cycles(&mut self, n: u64, warps: &[Warp]) {
            let available = self
                .warp_ids
                .iter()
                .filter(|&&w| warps[w].is_available())
                .count() as u64;
            self.ready_samples += n;
            self.ready_sum += available * n;
            self.end_run();
        }

        fn take_probe(&mut self) -> SchedulerProbe {
            let probe = SchedulerProbe {
                samples: self.ready_samples,
                ready_sum: self.ready_sum,
                runs: self.runs_completed + u64::from(self.run_length > 0),
                run_length_sum: self.run_length_sum + self.run_length,
            };
            self.ready_samples = 0;
            self.ready_sum = 0;
            self.runs_completed = 0;
            self.run_length_sum = 0;
            self.run_length = 0;
            probe
        }

        fn end_run(&mut self) {
            if self.run_length > 0 {
                self.runs_completed += 1;
                self.run_length_sum += self.run_length;
                self.run_length = 0;
            }
            if self.kind == SchedulerKind::Gto {
                self.current = None;
            }
        }
    }

    const WARPS: usize = 8;

    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Moves one warp (possibly one the scheduler does not own) to a
        /// new state.
        Set(usize, WarpState),
        Pick(Cycles),
        Idle(u64),
    }

    fn state_strategy() -> impl Strategy<Value = WarpState> {
        prop_oneof![
            Just(WarpState::Ready),
            (0u64..48).prop_map(WarpState::BusyUntil),
            (0u64..48).prop_map(|until| WarpState::WaitingData {
                until,
                pending_misses: 0
            }),
            (0u64..48, 1u32..4).prop_map(|(until, pending_misses)| WarpState::WaitingData {
                until,
                pending_misses
            }),
            (0u64..48).prop_map(WarpState::AtBarrier),
            Just(WarpState::Finished),
        ]
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => (0..WARPS, state_strategy()).prop_map(|(w, state)| Step::Set(w, state)),
            4 => (0u64..48).prop_map(Step::Pick),
            1 => (1u64..6).prop_map(Step::Idle),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random warp-state sequences at random cycles: the incremental
        /// pick and the three-scan reference agree on every pick and on
        /// the probe, for GTO and LRR, whether the probe is taken after
        /// every step (as at back-to-back EP boundaries) or only at the
        /// end (so long greedy runs accumulate).
        #[test]
        fn pick_matches_three_scan_reference(
            gto in any::<bool>(),
            stride in 1usize..4,
            offset in 0usize..4,
            steps in prop::collection::vec(step_strategy(), 1..160),
            probe_every_step in any::<bool>(),
        ) {
            let kind = if gto { SchedulerKind::Gto } else { SchedulerKind::Lrr };
            let owned: Vec<usize> = (0..WARPS).filter(|w| w % stride == offset % stride).collect();
            let mut fast = WarpScheduler::new(kind, owned.clone());
            let mut reference = ReferenceScheduler::new(kind, owned);
            let mut warps: Vec<Warp> = (0..WARPS)
                .map(|i| Warp::new(i, 0, Box::new(VecStream::new(vec![Op::Exit]))))
                .collect();
            let mut states = [WarpState::Ready; WARPS];
            for step in steps {
                match step {
                    Step::Set(w, state) => {
                        states[w] = state;
                        warps[w].state = state;
                    }
                    Step::Pick(cycle) => {
                        prop_assert_eq!(pick(&mut fast, &states, cycle), reference.pick(&warps, cycle));
                    }
                    Step::Idle(n) => {
                        fast.account_idle_cycles(n, available(&fast, &states));
                        reference.account_idle_cycles(n, &warps);
                    }
                }
                if probe_every_step {
                    prop_assert_eq!(fast.take_probe(), reference.take_probe());
                }
            }
            prop_assert_eq!(fast.take_probe(), reference.take_probe());
        }
    }
}
