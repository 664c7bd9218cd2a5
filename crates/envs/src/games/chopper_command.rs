//! Chopper Command: protect a truck convoy from raiding jets.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::games::clamp;
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const TRUCKS: usize = 3;
const TRUCK_ROW: isize = GRID as isize - 1;

#[derive(Debug, Clone, Copy)]
struct Jet {
    row: isize,
    col: isize,
    dir: isize,
    diving: bool,
}

/// Chopper Command stand-in: jets cross the sky and occasionally dive at
/// the truck convoy crawling along the bottom row. Shoot jets (`+1`) with
/// horizontal rockets; the episode ends when the chopper is rammed or the
/// whole convoy is destroyed.
///
/// Actions: `0` no-op, `1` up, `2` down, `3` left, `4` right, `5` fire.
#[derive(Debug, Clone)]
pub struct ChopperCommand {
    rng: StdRng,
    chopper: (isize, isize),
    facing: isize,
    jets: Vec<Jet>,
    rocket: Option<(isize, isize, isize)>,
    trucks: Vec<isize>,
    clock: u32,
    done: bool,
}

impl ChopperCommand {
    /// Create a seeded Chopper Command game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChopperCommand {
            rng: StdRng::seed_from_u64(seed),
            chopper: (3, GRID as isize / 2),
            facing: 1,
            jets: Vec::new(),
            rocket: None,
            trucks: Vec::new(),
            clock: 0,
            done: true,
        }
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(4, GRID, GRID);
        canvas.paint(0, self.chopper.0, self.chopper.1, 1.0);
        for j in &self.jets {
            canvas.paint(1, j.row, j.col, 1.0);
        }
        for &c in &self.trucks {
            canvas.paint(2, TRUCK_ROW, c, 1.0);
        }
        if let Some((r, c, _)) = self.rocket {
            canvas.paint(3, r, c, 1.0);
        }
        canvas.into_observation()
    }
}

impl Environment for ChopperCommand {
    fn name(&self) -> &str {
        "ChopperCommand"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (4, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        6
    }

    fn reset(&mut self) -> Vec<f32> {
        self.chopper = (3, GRID as isize / 2);
        self.facing = 1;
        self.jets.clear();
        self.rocket = None;
        self.trucks = (0..TRUCKS).map(|i| 2 + 3 * i as isize).collect();
        self.clock = 0;
        self.done = false;
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        match action {
            1 => self.chopper.0 = clamp(self.chopper.0 - 1, 0, TRUCK_ROW - 1),
            2 => self.chopper.0 = clamp(self.chopper.0 + 1, 0, TRUCK_ROW - 1),
            3 => {
                self.chopper.1 = clamp(self.chopper.1 - 1, 0, GRID as isize - 1);
                self.facing = -1;
            }
            4 => {
                self.chopper.1 = clamp(self.chopper.1 + 1, 0, GRID as isize - 1);
                self.facing = 1;
            }
            5 if self.rocket.is_none() => {
                self.rocket =
                    Some((self.chopper.0, self.chopper.1 + self.facing, self.facing));
            }
            _ => {}
        }

        let mut reward = 0.0f32;

        // Rocket travel: 2 cells/step.
        if let Some((r, mut c, dir)) = self.rocket.take() {
            let mut live = true;
            for _ in 0..2 {
                c += dir;
                if !(0..GRID as isize).contains(&c) {
                    live = false;
                    break;
                }
                if let Some(i) = self.jets.iter().position(|j| j.row == r && j.col == c) {
                    self.jets.swap_remove(i);
                    reward += 1.0;
                    live = false;
                    break;
                }
            }
            if live {
                self.rocket = Some((r, c, dir));
            }
        }

        // Jet behaviour: cross horizontally; sometimes dive at the convoy.
        let trucks = self.trucks.clone();
        for j in &mut self.jets {
            if j.diving {
                // Home toward the nearest truck.
                if let Some(&target) = trucks.iter().min_by_key(|&&t| (t - j.col).abs()) {
                    j.row += 1;
                    j.col += (target - j.col).signum();
                }
            } else {
                j.col += j.dir;
            }
        }
        if self.clock.is_multiple_of(9) {
            if let Some(j) = self.jets.iter_mut().find(|j| !j.diving) {
                if !trucks.is_empty() {
                    j.diving = true;
                }
            }
        }

        // Jets hitting trucks destroy them; jets exiting the grid despawn.
        let mut destroyed_trucks = Vec::new();
        self.jets.retain(|j| {
            if j.row >= TRUCK_ROW {
                if let Some(i) = self.trucks.iter().position(|&t| t == j.col) {
                    destroyed_trucks.push(i);
                }
                return false;
            }
            (0..GRID as isize).contains(&j.col)
        });
        destroyed_trucks.sort_unstable_by(|a, b| b.cmp(a));
        for i in destroyed_trucks {
            self.trucks.remove(i);
        }

        // Convoy crawls right, wrapping.
        if self.clock.is_multiple_of(6) {
            for t in &mut self.trucks {
                *t = (*t + 1) % GRID as isize;
            }
        }

        // Spawns.
        if self.clock.is_multiple_of(4) && self.jets.len() < 5 {
            let dir = if self.rng.gen_bool(0.5) { 1 } else { -1 };
            self.jets.push(Jet {
                row: self.rng.gen_range(1..7),
                col: if dir > 0 { 0 } else { GRID as isize - 1 },
                dir,
                diving: false,
            });
        }

        // Death: rammed by a jet, or convoy wiped out.
        if self
            .jets
            .iter()
            .any(|j| (j.row, j.col) == self.chopper)
            || self.trucks.is_empty()
        {
            self.done = true;
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("ChopperCommand");
        w.rng(&self.rng);
        w.isize(self.chopper.0);
        w.isize(self.chopper.1);
        w.isize(self.facing);
        w.usize(self.jets.len());
        for item in &self.jets {
            w.isize(item.row);
            w.isize(item.col);
            w.isize(item.dir);
            w.bool(item.diving);
        }
        w.bool(self.rocket.is_some());
        if let Some(item) = &self.rocket {
            w.isize(item.0);
            w.isize(item.1);
            w.isize(item.2);
        }
        w.usize(self.trucks.len());
        for item in &self.trucks {
            w.isize(*item);
        }
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "ChopperCommand")?;
        self.rng = r.rng()?;
        self.chopper = (r.isize()?, r.isize()?);
        self.facing = r.isize()?;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Jet { row: r.isize()?, col: r.isize()?, dir: r.isize()?, diving: r.bool()? });
        }
        self.jets = items;
        self.rocket = if r.bool()? {
            Some((r.isize()?, r.isize()?, r.isize()?))
        } else {
            None
        };
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(r.isize()?);
        }
        self.trucks = items;
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
        assert_deterministic(ChopperCommand::new(91), ChopperCommand::new(91), 400);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = ChopperCommand::new(1);
        let total = random_rollout(&mut env, 1000, 13);
        assert!(total >= 0.0);
    }

    #[test]
    fn firing_across_jet_rows_scores() {
        let mut env = ChopperCommand::new(2);
        let _ = env.reset();
        let mut total = 0.0;
        for i in 0..500 {
            // Patrol vertically while firing.
            let action = match i % 3 {
                0 => 5,
                1 => 1,
                _ => 2,
            };
            let out = env.step(action);
            total += out.reward;
            if out.done {
                let _ = env.reset();
            }
        }
        assert!(total > 0.0);
    }

    #[test]
    fn convoy_destruction_ends_episode() {
        let mut env = ChopperCommand::new(3);
        let _ = env.reset();
        // Remove the convoy directly and step: the episode must end.
        env.trucks.clear();
        let out = env.step(0);
        assert!(out.done);
    }
}
