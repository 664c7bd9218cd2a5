//! Asteroids: drift-and-shoot among splitting rocks.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::games::clamp;
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;

#[derive(Debug, Clone, Copy)]
struct Rock {
    row: isize,
    col: isize,
    dr: isize,
    dc: isize,
    big: bool,
    phase: u32,
}

/// Asteroids stand-in: rocks drift across a wrapping field; shooting a big
/// rock (`+1`) splits it into two small rocks, shooting a small rock pays
/// `+2`. Colliding with any rock ends the episode. The ship fires along
/// its last movement direction.
///
/// Actions: `0` no-op, `1` up, `2` down, `3` left, `4` right, `5` fire.
#[derive(Debug, Clone)]
pub struct Asteroids {
    rng: StdRng,
    ship: (isize, isize),
    facing: (isize, isize),
    rocks: Vec<Rock>,
    bullet: Option<(isize, isize, isize, isize)>,
    clock: u32,
    done: bool,
}

impl Asteroids {
    /// Create a seeded Asteroids game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Asteroids {
            rng: StdRng::seed_from_u64(seed),
            ship: (GRID as isize / 2, GRID as isize / 2),
            facing: (-1, 0),
            rocks: Vec::new(),
            bullet: None,
            clock: 0,
            done: true,
        }
    }

    fn spawn_rock(&mut self, big: bool) -> Rock {
        // Spawn on an edge, drifting inward-ish.
        let edge = self.rng.gen_range(0..4);
        let along = self.rng.gen_range(0..GRID as isize);
        let (row, col) = match edge {
            0 => (0, along),
            1 => (GRID as isize - 1, along),
            2 => (along, 0),
            _ => (along, GRID as isize - 1),
        };
        let mut dr = self.rng.gen_range(-1..=1);
        let mut dc = self.rng.gen_range(-1..=1);
        if dr == 0 && dc == 0 {
            dr = 1;
            dc = 0;
        }
        Rock {
            row,
            col,
            dr,
            dc,
            big,
            phase: self.rng.gen_range(0..2),
        }
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(4, GRID, GRID);
        canvas.paint(0, self.ship.0, self.ship.1, 1.0);
        for r in &self.rocks {
            canvas.paint(if r.big { 1 } else { 2 }, r.row, r.col, 1.0);
        }
        if let Some((r, c, _, _)) = self.bullet {
            canvas.paint(3, r, c, 1.0);
        }
        canvas.into_observation()
    }

    fn rock_hit(&mut self, idx: usize) -> f32 {
        let rock = self.rocks.swap_remove(idx);
        if rock.big {
            for _ in 0..2 {
                let mut dr = self.rng.gen_range(-1..=1);
                let dc = self.rng.gen_range(-1..=1);
                if dr == 0 && dc == 0 {
                    dr = -1;
                }
                self.rocks.push(Rock {
                    row: rock.row,
                    col: rock.col,
                    dr,
                    dc,
                    big: false,
                    phase: self.rng.gen_range(0..2),
                });
            }
            1.0
        } else {
            2.0
        }
    }
}

fn wrap(v: isize) -> isize {
    (v + GRID as isize) % GRID as isize
}

impl Environment for Asteroids {
    fn name(&self) -> &str {
        "Asteroids"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (4, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        6
    }

    fn reset(&mut self) -> Vec<f32> {
        self.ship = (GRID as isize / 2, GRID as isize / 2);
        self.facing = (-1, 0);
        self.bullet = None;
        self.clock = 0;
        self.rocks.clear();
        for _ in 0..3 {
            let r = self.spawn_rock(true);
            self.rocks.push(r);
        }
        self.done = false;
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        match action {
            1 => {
                self.ship.0 = clamp(self.ship.0 - 1, 0, GRID as isize - 1);
                self.facing = (-1, 0);
            }
            2 => {
                self.ship.0 = clamp(self.ship.0 + 1, 0, GRID as isize - 1);
                self.facing = (1, 0);
            }
            3 => {
                self.ship.1 = clamp(self.ship.1 - 1, 0, GRID as isize - 1);
                self.facing = (0, -1);
            }
            4 => {
                self.ship.1 = clamp(self.ship.1 + 1, 0, GRID as isize - 1);
                self.facing = (0, 1);
            }
            5 if self.bullet.is_none() => {
                self.bullet = Some((
                    self.ship.0 + self.facing.0,
                    self.ship.1 + self.facing.1,
                    self.facing.0,
                    self.facing.1,
                ));
            }
            _ => {}
        }

        let mut reward = 0.0f32;

        // Bullet: 2 cells/step, no wrap.
        if let Some((mut r, mut c, dr, dc)) = self.bullet.take() {
            let mut live = true;
            for _ in 0..2 {
                if !(0..GRID as isize).contains(&r) || !(0..GRID as isize).contains(&c) {
                    live = false;
                    break;
                }
                if let Some(i) = self.rocks.iter().position(|k| (k.row, k.col) == (r, c)) {
                    reward += self.rock_hit(i);
                    live = false;
                    break;
                }
                r += dr;
                c += dc;
            }
            if live && (0..GRID as isize).contains(&r) && (0..GRID as isize).contains(&c) {
                self.bullet = Some((r, c, dr, dc));
            }
        }

        // Rocks drift (big rocks every other step), wrapping at edges.
        for rock in &mut self.rocks {
            let moves = if rock.big {
                u32::from((self.clock + rock.phase).is_multiple_of(2))
            } else {
                1
            };
            for _ in 0..moves {
                rock.row = wrap(rock.row + rock.dr);
                rock.col = wrap(rock.col + rock.dc);
            }
        }

        // Keep the field populated.
        if self.clock.is_multiple_of(10) && self.rocks.len() < 6 {
            let r = self.spawn_rock(true);
            self.rocks.push(r);
        }

        if self.rocks.iter().any(|r| (r.row, r.col) == self.ship) {
            self.done = true;
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("Asteroids");
        w.rng(&self.rng);
        w.isize(self.ship.0);
        w.isize(self.ship.1);
        w.isize(self.facing.0);
        w.isize(self.facing.1);
        w.usize(self.rocks.len());
        for item in &self.rocks {
            w.isize(item.row);
            w.isize(item.col);
            w.isize(item.dr);
            w.isize(item.dc);
            w.bool(item.big);
            w.u32(item.phase);
        }
        w.bool(self.bullet.is_some());
        if let Some(item) = &self.bullet {
            w.isize(item.0);
            w.isize(item.1);
            w.isize(item.2);
            w.isize(item.3);
        }
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "Asteroids")?;
        self.rng = r.rng()?;
        self.ship = (r.isize()?, r.isize()?);
        self.facing = (r.isize()?, r.isize()?);
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Rock { row: r.isize()?, col: r.isize()?, dr: r.isize()?, dc: r.isize()?, big: r.bool()?, phase: r.u32()? });
        }
        self.rocks = items;
        self.bullet = if r.bool()? {
            Some((r.isize()?, r.isize()?, r.isize()?, r.isize()?))
        } else {
            None
        };
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
        assert_deterministic(Asteroids::new(101), Asteroids::new(101), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = Asteroids::new(1);
        let total = random_rollout(&mut env, 1000, 14);
        assert!(total >= 0.0);
    }

    #[test]
    fn big_rock_splits_into_two_small() {
        let mut env = Asteroids::new(2);
        let _ = env.reset();
        let before_small = env.rocks.iter().filter(|r| !r.big).count();
        let big_idx = env.rocks.iter().position(|r| r.big).expect("big rocks exist");
        let reward = env.rock_hit(big_idx);
        assert_eq!(reward, 1.0);
        assert_eq!(
            env.rocks.iter().filter(|r| !r.big).count(),
            before_small + 2
        );
    }

    #[test]
    fn wrapping_keeps_rocks_in_bounds() {
        let mut env = Asteroids::new(3);
        let _ = env.reset();
        for _ in 0..200 {
            if env.done {
                let _ = env.reset();
            }
            let _ = env.step(0);
            for r in &env.rocks {
                assert!((0..GRID as isize).contains(&r.row));
                assert!((0..GRID as isize).contains(&r.col));
            }
        }
    }
}
