//! Crazy Climber: scale the building while dodging falling objects.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::games::clamp;
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const BUILDING_LEFT: isize = 2;
const BUILDING_RIGHT: isize = 9;

/// Crazy Climber stand-in: climb a building face. Each upward move pays
/// `+1`; topping out pays `+25` and restarts the climb (so scores grow
/// with skill). Pots fall down the building columns; getting hit, or
/// grabbing a closed window, costs the climber (three grips = lives).
///
/// Actions: `0` no-op, `1` up, `2` left, `3` right.
#[derive(Debug, Clone)]
pub struct CrazyClimber {
    rng: StdRng,
    player: (isize, isize),
    /// Closed windows (cannot be climbed through).
    closed: Vec<(isize, isize)>,
    pots: Vec<(isize, isize)>,
    grips: u32,
    clock: u32,
    done: bool,
}

impl CrazyClimber {
    /// Create a seeded Crazy Climber game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        CrazyClimber {
            rng: StdRng::seed_from_u64(seed),
            player: (GRID as isize - 1, GRID as isize / 2),
            closed: Vec::new(),
            pots: Vec::new(),
            grips: 3,
            clock: 0,
            done: true,
        }
    }

    fn reshuffle_windows(&mut self) {
        self.closed.clear();
        for _ in 0..8 {
            let r = self.rng.gen_range(1..GRID as isize - 1);
            let c = self.rng.gen_range(BUILDING_LEFT..=BUILDING_RIGHT);
            self.closed.push((r, c));
        }
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(4, GRID, GRID);
        canvas.paint(0, self.player.0, self.player.1, 1.0);
        for &(r, c) in &self.closed {
            canvas.paint(1, r, c, 1.0);
        }
        for &(r, c) in &self.pots {
            canvas.paint(2, r, c, 1.0);
        }
        // Building edges as static context.
        for r in 0..GRID as isize {
            canvas.paint(3, r, BUILDING_LEFT - 1, 0.5);
            canvas.paint(3, r, BUILDING_RIGHT + 1, 0.5);
        }
        canvas.into_observation()
    }

    fn lose_grip(&mut self) {
        self.grips -= 1;
        if self.grips == 0 {
            self.done = true;
        } else {
            // Slide back down a few rows.
            self.player.0 = clamp(self.player.0 + 3, 0, GRID as isize - 1);
        }
    }
}

impl Environment for CrazyClimber {
    fn name(&self) -> &str {
        "CrazyClimber"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (4, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        4
    }

    fn reset(&mut self) -> Vec<f32> {
        self.player = (GRID as isize - 1, GRID as isize / 2);
        self.reshuffle_windows();
        self.pots.clear();
        self.grips = 3;
        self.clock = 0;
        self.done = false;
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        let mut reward = 0.0f32;

        match action {
            1 => {
                let next = (self.player.0 - 1, self.player.1);
                if self.closed.contains(&next) {
                    self.lose_grip();
                } else if next.0 >= 0 {
                    self.player = next;
                    reward += 1.0;
                }
            }
            2 => self.player.1 = clamp(self.player.1 - 1, BUILDING_LEFT, BUILDING_RIGHT),
            3 => self.player.1 = clamp(self.player.1 + 1, BUILDING_LEFT, BUILDING_RIGHT),
            _ => {}
        }

        if !self.done {
            // Topping out: bonus, restart at the bottom with new windows.
            if self.player.0 == 0 {
                reward += 25.0;
                self.player = (GRID as isize - 1, self.player.1);
                self.reshuffle_windows();
            }

            // Pots fall.
            let player = self.player;
            let mut hit = false;
            self.pots.retain_mut(|(r, c)| {
                *r += 1;
                if (*r, *c) == player {
                    hit = true;
                }
                *r < GRID as isize
            });
            if hit {
                self.lose_grip();
            }
            if self.clock.is_multiple_of(4) && self.pots.len() < 3 {
                let c = self.rng.gen_range(BUILDING_LEFT..=BUILDING_RIGHT);
                self.pots.push((0, c));
            }
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("CrazyClimber");
        w.rng(&self.rng);
        w.isize(self.player.0);
        w.isize(self.player.1);
        w.usize(self.closed.len());
        for item in &self.closed {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.usize(self.pots.len());
        for item in &self.pots {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.u32(self.grips);
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "CrazyClimber")?;
        self.rng = r.rng()?;
        self.player = (r.isize()?, r.isize()?);
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((r.isize()?, r.isize()?));
        }
        self.closed = items;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((r.isize()?, r.isize()?));
        }
        self.pots = items;
        self.grips = r.u32()?;
        self.clock = r.u32()?;
        self.done = r.bool()?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::testkit::{assert_deterministic, random_rollout};

    #[test]
    fn deterministic_given_seed() {
        assert_deterministic(CrazyClimber::new(141), CrazyClimber::new(141), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = CrazyClimber::new(1);
        let total = random_rollout(&mut env, 1000, 18);
        assert!(total >= 0.0);
    }

    #[test]
    fn climbing_pays_per_row() {
        let mut env = CrazyClimber::new(2);
        let _ = env.reset();
        // Find a column without a closed window directly above.
        let mut total = 0.0;
        for _ in 0..40 {
            let above = (env.player.0 - 1, env.player.1);
            let action = if env.closed.contains(&above) { 3 } else { 1 };
            let out = env.step(action);
            total += out.reward;
            if out.done {
                break;
            }
        }
        assert!(total > 0.0, "climbing must earn row rewards");
    }

    #[test]
    fn grabbing_closed_window_costs_grip() {
        let mut env = CrazyClimber::new(3);
        let _ = env.reset();
        let above = (env.player.0 - 1, env.player.1);
        env.closed.push(above);
        let grips = env.grips;
        let _ = env.step(1);
        assert_eq!(env.grips, grips - 1);
    }
}
