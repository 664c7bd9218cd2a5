//! Experiment scale profiles, selected via the `A3CS_SCALE` env var.

/// Step/episode budgets for one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Human name of the profile.
    pub name: &'static str,
    /// Environment steps for training an agent.
    pub train_steps: u64,
    /// Environment steps for a co-search.
    pub search_steps: u64,
    /// Environment steps for training a teacher.
    pub teacher_steps: u64,
    /// Evaluation points along a training curve.
    pub curve_points: u64,
    /// Episodes per evaluation (paper: 30).
    pub eval_episodes: usize,
    /// Step cap per evaluation episode.
    pub eval_max_steps: usize,
    /// DAS iterations for the final accelerator refinement.
    pub das_iters: usize,
}

/// CI-speed profile: everything tiny, only exercises the machinery.
pub const SMOKE: Scale = Scale {
    name: "smoke",
    train_steps: 400,
    search_steps: 400,
    teacher_steps: 400,
    curve_points: 2,
    eval_episodes: 2,
    eval_max_steps: 60,
    das_iters: 120,
};

/// Default profile: minutes per experiment, trends visible.
pub const SHORT: Scale = Scale {
    name: "short",
    train_steps: 4_000,
    search_steps: 4_000,
    teacher_steps: 12_000,
    curve_points: 6,
    eval_episodes: 8,
    eval_max_steps: 150,
    das_iters: 500,
};

/// Report-quality profile (tens of minutes for the big tables).
pub const FULL: Scale = Scale {
    name: "full",
    train_steps: 30_000,
    search_steps: 20_000,
    teacher_steps: 60_000,
    curve_points: 12,
    eval_episodes: 30,
    eval_max_steps: 400,
    das_iters: 2_000,
};

/// An `A3CS_SCALE` value naming no known profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScale(pub String);

impl std::fmt::Display for UnknownScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown A3CS_SCALE {:?}; use smoke|short|full", self.0)
    }
}

impl std::error::Error for UnknownScale {}

impl Scale {
    /// Resolve the profile from `A3CS_SCALE` (default: `short`).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScale`] on an unrecognised profile name so typos
    /// fail loudly at the call site instead of silently running the
    /// default budget.
    pub fn try_from_env() -> Result<Scale, UnknownScale> {
        match std::env::var("A3CS_SCALE").as_deref() {
            Ok("smoke") => Ok(SMOKE),
            Ok("full") => Ok(FULL),
            Ok("short") | Err(_) => Ok(SHORT),
            Ok(other) => Err(UnknownScale(other.to_string())),
        }
    }

    /// Evaluation cadence producing `curve_points` points over
    /// `total_steps`.
    #[must_use]
    pub fn eval_every(&self, total_steps: u64) -> u64 {
        (total_steps / self.curve_points.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered() {
        const { assert!(SMOKE.train_steps < SHORT.train_steps) };
        const { assert!(SHORT.train_steps < FULL.train_steps) };
    }

    #[test]
    fn eval_every_divides_curve() {
        assert_eq!(SHORT.eval_every(6_000), 1_000);
        assert!(SMOKE.eval_every(1) >= 1);
    }
}
