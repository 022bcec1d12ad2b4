//! Task-set power profiles (the paper's Fig. 2 workload: tasks with random
//! power in the 10–130 W range, after the Montecito per-task power spread).

use relia_core::seal::Xoshiro256;
use relia_core::units::Seconds;

/// A constant-power phase of a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerPhase {
    /// Power in watts.
    pub watts: f64,
    /// Phase duration.
    pub duration: Seconds,
}

/// A sequence of tasks with random power draws.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    phases: Vec<PowerPhase>,
}

impl TaskSet {
    /// Power range of generated tasks, in watts (the paper's Fig. 2 range).
    pub const POWER_RANGE: (f64, f64) = (10.0, 130.0);

    /// Task duration range in seconds.
    pub const DURATION_RANGE: (f64, f64) = (0.05, 0.5);

    /// Generates `tasks` random tasks from a seeded generator.
    ///
    /// ```
    /// use relia_thermal::TaskSet;
    ///
    /// let a = TaskSet::random(5, 1);
    /// let b = TaskSet::random(5, 1);
    /// assert_eq!(a, b); // deterministic per seed
    /// ```
    pub fn random(tasks: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let phases = (0..tasks)
            .map(|_| PowerPhase {
                watts: rng.uniform(Self::POWER_RANGE.0, Self::POWER_RANGE.1),
                duration: Seconds(rng.uniform(Self::DURATION_RANGE.0, Self::DURATION_RANGE.1)),
            })
            .collect();
        TaskSet { phases }
    }

    /// Builds a task set from explicit phases.
    pub fn from_phases(phases: Vec<PowerPhase>) -> Self {
        TaskSet { phases }
    }

    /// The power profile, one phase per task.
    pub fn profile(&self) -> &[PowerPhase] {
        &self.phases
    }

    /// Total duration across all phases.
    pub fn total_duration(&self) -> Seconds {
        Seconds(self.phases.iter().map(|p| p.duration.0).sum())
    }

    /// An alternating active/standby duty profile: `cycles` repetitions of
    /// (active power for `t_active`, standby power for `t_standby`) — the
    /// mode pattern the NBTI schedule abstracts.
    pub fn duty_cycle(
        active_watts: f64,
        standby_watts: f64,
        t_active: Seconds,
        t_standby: Seconds,
        cycles: usize,
    ) -> Self {
        let mut phases = Vec::with_capacity(cycles * 2);
        for _ in 0..cycles {
            phases.push(PowerPhase {
                watts: active_watts,
                duration: t_active,
            });
            phases.push(PowerPhase {
                watts: standby_watts,
                duration: t_standby,
            });
        }
        TaskSet { phases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_tasks_stay_in_range() {
        let set = TaskSet::random(50, 7);
        for p in set.profile() {
            assert!(p.watts >= 10.0 && p.watts <= 130.0);
            assert!(p.duration.0 >= 0.05 && p.duration.0 <= 0.5);
        }
    }

    #[test]
    fn seeds_differ() {
        assert_ne!(TaskSet::random(5, 1), TaskSet::random(5, 2));
    }

    #[test]
    fn duty_cycle_shape() {
        let set = TaskSet::duty_cycle(110.0, 15.0, Seconds(0.1), Seconds(0.9), 3);
        assert_eq!(set.profile().len(), 6);
        assert!((set.total_duration().0 - 3.0).abs() < 1e-12);
        assert_eq!(set.profile()[0].watts, 110.0);
        assert_eq!(set.profile()[1].watts, 15.0);
    }

    #[test]
    fn total_duration_sums() {
        let set = TaskSet::from_phases(vec![
            PowerPhase {
                watts: 50.0,
                duration: Seconds(0.25),
            },
            PowerPhase {
                watts: 70.0,
                duration: Seconds(0.75),
            },
        ]);
        assert!((set.total_duration().0 - 1.0).abs() < 1e-12);
    }
}
