//! The environment trait and step outcome type.

use crate::state::{EnvState, RestoreError};

/// Result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// The next observation, row-major `[planes, height, width]`.
    pub observation: Vec<f32>,
    /// Reward earned by the step (environment-native scale).
    pub reward: f32,
    /// `true` when the episode ended with this step; the caller must
    /// [`Environment::reset`] before stepping again.
    pub done: bool,
}

/// A Markov decision process with image-like observations and a discrete
/// action space.
///
/// Action `0` is always a no-op, which the evaluation protocol's null-op
/// starts rely on. Implementations are deterministic given their
/// construction seed.
///
/// Environments must be [`Send`] so rollout and evaluation lanes can step
/// them on worker threads (implementations are plain data plus a seeded
/// PRNG, so this costs nothing).
pub trait Environment: Send {
    /// Display name, matching the Atari game this environment stands in
    /// for (e.g. `"Breakout"`).
    fn name(&self) -> &str;

    /// Observation shape as `(planes, height, width)`.
    fn observation_shape(&self) -> (usize, usize, usize);

    /// Number of discrete actions (`>= 1`; action `0` is a no-op).
    fn action_count(&self) -> usize;

    /// Start a new episode and return the initial observation.
    fn reset(&mut self) -> Vec<f32>;

    /// Advance one step with `action`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `action >= self.action_count()` or if the
    /// previous step ended the episode and `reset` has not been called.
    fn step(&mut self, action: usize) -> StepOutcome;

    /// Total observation length (`planes * height * width`).
    fn observation_len(&self) -> usize {
        let (p, h, w) = self.observation_shape();
        p * h * w
    }

    /// Capture the complete dynamic state of the environment — RNG words,
    /// entity positions, counters, episode flags — so that
    /// [`Environment::restore`] resumes the episode bit-exactly: after a
    /// snapshot/restore pair, identical action sequences must yield
    /// identical observations, rewards, and `done` flags.
    fn snapshot(&self) -> EnvState;

    /// Restore a state captured by [`Environment::snapshot`] on an
    /// environment of the same type and configuration.
    ///
    /// On error the environment's state is unspecified (call
    /// [`Environment::reset`] before stepping again); no implementation
    /// panics on a foreign or truncated snapshot.
    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError>;
}

impl Environment for Box<dyn Environment> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        self.as_ref().observation_shape()
    }

    fn action_count(&self) -> usize {
        self.as_ref().action_count()
    }

    fn reset(&mut self) -> Vec<f32> {
        self.as_mut().reset()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        self.as_mut().step(action)
    }

    fn snapshot(&self) -> EnvState {
        self.as_ref().snapshot()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        self.as_mut().restore(state)
    }
}

/// Plane-indexed observation canvas shared by the game implementations.
///
/// Games draw entities into named planes; `finish` yields the flat
/// `[planes, h, w]` observation vector.
#[derive(Debug, Clone)]
pub(crate) struct Canvas {
    planes: usize,
    h: usize,
    w: usize,
    data: Vec<f32>,
}

impl Canvas {
    pub(crate) fn new(planes: usize, h: usize, w: usize) -> Self {
        Canvas {
            planes,
            h,
            w,
            data: vec![0.0; planes * h * w],
        }
    }

    /// Paint intensity `v` at `(row, col)` of `plane`; out-of-bounds paints
    /// are ignored so callers can draw partially visible entities.
    pub(crate) fn paint(&mut self, plane: usize, row: isize, col: isize, v: f32) {
        debug_assert!(plane < self.planes, "plane {plane} out of range");
        if row < 0 || col < 0 {
            return;
        }
        let (row, col) = (row as usize, col as usize);
        if row >= self.h || col >= self.w {
            return;
        }
        self.data[(plane * self.h + row) * self.w + col] = v;
    }

    pub(crate) fn into_observation(self) -> Vec<f32> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canvas_paint_and_layout() {
        let mut c = Canvas::new(2, 3, 4);
        c.paint(1, 2, 3, 0.5);
        let obs = c.into_observation();
        assert_eq!(obs.len(), 24);
        // Plane 1 of a 3x4 canvas, row 2, column 3.
        assert_eq!(obs[3 * 4 + 2 * 4 + 3], 0.5);
        assert_eq!(obs.iter().filter(|&&v| v != 0.0).count(), 1);
    }

    #[test]
    fn canvas_ignores_out_of_bounds() {
        let mut c = Canvas::new(1, 2, 2);
        c.paint(0, -1, 0, 1.0);
        c.paint(0, 0, 5, 1.0);
        c.paint(0, 2, 0, 1.0);
        assert!(c.into_observation().iter().all(|&v| v == 0.0));
    }
}
