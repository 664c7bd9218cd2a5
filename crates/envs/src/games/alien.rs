//! Alien: maze dot-collection while evading chasers.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 11;
const CHASERS: usize = 2;

/// Alien stand-in: a Pac-Man-style maze. Collect dots (`+1` each) while two
/// chasers pursue with imperfect greed; clearing the maze refills it with a
/// bonus, contact ends the episode.
///
/// Actions: `0` no-op, `1` up, `2` down, `3` left, `4` right.
#[derive(Debug, Clone)]
pub struct Alien {
    rng: StdRng,
    walls: [[bool; GRID]; GRID],
    dots: [[bool; GRID]; GRID],
    player: (isize, isize),
    chasers: [(isize, isize); CHASERS],
    done: bool,
}

fn maze_walls() -> [[bool; GRID]; GRID] {
    let mut walls = [[false; GRID]; GRID];
    walls[0] = [true; GRID];
    walls[GRID - 1] = [true; GRID];
    for row in &mut walls {
        row[0] = true;
        row[GRID - 1] = true;
    }
    // Interior pillars at even/even coordinates form a lattice of corridors.
    for r in (2..GRID - 1).step_by(2) {
        for c in (2..GRID - 1).step_by(2) {
            walls[r][c] = true;
        }
    }
    walls
}

impl Alien {
    /// Create a seeded Alien game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Alien {
            rng: StdRng::seed_from_u64(seed),
            walls: maze_walls(),
            dots: [[false; GRID]; GRID],
            player: (1, 1),
            chasers: [(0, 0); CHASERS],
            done: true,
        }
    }

    fn free(&self, r: isize, c: isize) -> bool {
        (0..GRID as isize).contains(&r)
            && (0..GRID as isize).contains(&c)
            && !self.walls[r as usize][c as usize]
    }

    fn refill_dots(&mut self) {
        for r in 0..GRID {
            for c in 0..GRID {
                self.dots[r][c] = !self.walls[r][c];
            }
        }
        let (pr, pc) = self.player;
        self.dots[pr as usize][pc as usize] = false;
    }

    fn dots_remaining(&self) -> usize {
        self.dots.iter().flatten().filter(|&&d| d).count()
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(4, GRID, GRID);
        for r in 0..GRID {
            for c in 0..GRID {
                if self.walls[r][c] {
                    canvas.paint(0, r as isize, c as isize, 1.0);
                }
                if self.dots[r][c] {
                    canvas.paint(1, r as isize, c as isize, 1.0);
                }
            }
        }
        canvas.paint(2, self.player.0, self.player.1, 1.0);
        for &(r, c) in &self.chasers {
            canvas.paint(3, r, c, 1.0);
        }
        canvas.into_observation()
    }

    fn chaser_step(&mut self, idx: usize) {
        let (cr, cc) = self.chasers[idx];
        let (pr, pc) = self.player;
        let moves = [(-1, 0), (1, 0), (0, -1), (0, 1)];
        let candidates: Vec<(isize, isize)> = moves
            .iter()
            .map(|&(dr, dc)| (cr + dr, cc + dc))
            .filter(|&(r, c)| self.free(r, c))
            .collect();
        if candidates.is_empty() {
            return;
        }
        let target = if self.rng.gen_bool(0.7) {
            // Greedy: minimise Manhattan distance to the player.
            match candidates
                .iter()
                .min_by_key(|&&(r, c)| (r - pr).abs() + (c - pc).abs())
            {
                Some(&best) => best,
                None => unreachable!("guarded by the is_empty check above"),
            }
        } else {
            candidates[self.rng.gen_range(0..candidates.len())]
        };
        self.chasers[idx] = target;
    }

    fn caught(&self) -> bool {
        self.chasers.contains(&self.player)
    }
}

impl Environment for Alien {
    fn name(&self) -> &str {
        "Alien"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (4, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        5
    }

    fn reset(&mut self) -> Vec<f32> {
        self.player = (1, 1);
        self.chasers = [
            (GRID as isize - 2, GRID as isize - 2),
            (1, GRID as isize - 2),
        ];
        self.refill_dots();
        self.done = false;
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        let (dr, dc) = match action {
            1 => (-1, 0),
            2 => (1, 0),
            3 => (0, -1),
            4 => (0, 1),
            _ => (0, 0),
        };
        let (nr, nc) = (self.player.0 + dr, self.player.1 + dc);
        if self.free(nr, nc) {
            self.player = (nr, nc);
        }

        let mut reward = 0.0f32;
        let (pr, pc) = (self.player.0 as usize, self.player.1 as usize);
        if self.dots[pr][pc] {
            self.dots[pr][pc] = false;
            reward += 1.0;
        }

        // Chasers move after the player; contact at any interleaving ends it.
        for i in 0..CHASERS {
            self.chaser_step(i);
        }
        if self.caught() {
            self.done = true;
        }

        if self.dots_remaining() == 0 {
            reward += 10.0;
            self.refill_dots();
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("Alien");
        w.rng(&self.rng);
        for row in &self.walls {
            for &cell in row {
                w.bool(cell);
            }
        }
        for row in &self.dots {
            for &cell in row {
                w.bool(cell);
            }
        }
        w.isize(self.player.0);
        w.isize(self.player.1);
        for item in &self.chasers {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "Alien")?;
        self.rng = r.rng()?;
        for row in &mut self.walls {
            for cell in row.iter_mut() {
                *cell = r.bool()?;
            }
        }
        for row in &mut self.dots {
            for cell in row.iter_mut() {
                *cell = r.bool()?;
            }
        }
        self.player = (r.isize()?, r.isize()?);
        for item in &mut self.chasers {
            *item = (r.isize()?, r.isize()?);
        }
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
        assert_deterministic(Alien::new(21), Alien::new(21), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = Alien::new(3);
        let total = random_rollout(&mut env, 1000, 4);
        assert!(total >= 0.0);
    }

    #[test]
    fn maze_has_connected_free_cells() {
        let env = Alien::new(0);
        // Flood fill from the start position; every non-wall cell must be
        // reachable, otherwise dots could be impossible to clear.
        let mut seen = [[false; GRID]; GRID];
        let mut stack = vec![(1isize, 1isize)];
        while let Some((r, c)) = stack.pop() {
            if seen[r as usize][c as usize] {
                continue;
            }
            seen[r as usize][c as usize] = true;
            for (dr, dc) in [(-1, 0), (1, 0), (0, -1), (0, 1)] {
                if env.free(r + dr, c + dc) && !seen[(r + dr) as usize][(c + dc) as usize] {
                    stack.push((r + dr, c + dc));
                }
            }
        }
        for (r, (seen_row, wall_row)) in seen.iter().zip(&env.walls).enumerate() {
            for (c, (&seen, &wall)) in seen_row.iter().zip(wall_row).enumerate() {
                assert_eq!(seen, !wall, "cell ({r},{c}) reachability mismatch");
            }
        }
    }

    #[test]
    fn moving_collects_dots() {
        let mut env = Alien::new(5);
        let _ = env.reset();
        let out = env.step(4); // step right onto a dot
        assert_eq!(out.reward, 1.0);
    }

    #[test]
    fn walls_block_movement() {
        let mut env = Alien::new(5);
        let _ = env.reset();
        let before = env.player;
        let _ = env.step(1); // up into the border wall
        assert_eq!(env.player, before);
    }
}
