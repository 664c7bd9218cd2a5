//! Wizard of Wor: corridor-shooting monsters in a maze.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 11;

/// Wizard of Wor stand-in: hunt monsters through a maze. Shots travel
/// along corridors until a wall; kills pay `+1` (`+5` for the blue
/// Worluk that appears after a cleared dungeon). Monster contact ends
/// the episode.
///
/// Actions: `0` no-op, `1` up, `2` down, `3` left, `4` right,
/// `5` fire (along the last movement direction).
#[derive(Debug, Clone)]
pub struct WizardOfWor {
    rng: StdRng,
    walls: [[bool; GRID]; GRID],
    player: (isize, isize),
    facing: (isize, isize),
    monsters: Vec<(isize, isize)>,
    worluk: Option<(isize, isize)>,
    shot: Option<(isize, isize, isize, isize)>,
    dungeon: u32,
    clock: u32,
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
    for r in (2..GRID - 1).step_by(2) {
        for c in (2..GRID - 1).step_by(2) {
            walls[r][c] = true;
        }
    }
    walls
}

impl WizardOfWor {
    /// Create a seeded Wizard of Wor game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        WizardOfWor {
            rng: StdRng::seed_from_u64(seed),
            walls: maze_walls(),
            player: (1, 1),
            facing: (0, 1),
            monsters: Vec::new(),
            worluk: None,
            shot: None,
            dungeon: 1,
            clock: 0,
            done: true,
        }
    }

    fn free(&self, r: isize, c: isize) -> bool {
        (0..GRID as isize).contains(&r)
            && (0..GRID as isize).contains(&c)
            && !self.walls[r as usize][c as usize]
    }

    fn spawn_monsters(&mut self) {
        self.monsters = vec![
            (GRID as isize - 2, GRID as isize - 2),
            (1, GRID as isize - 2),
            (GRID as isize - 2, 1),
        ];
        self.worluk = None;
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(5, GRID, GRID);
        for r in 0..GRID {
            for c in 0..GRID {
                if self.walls[r][c] {
                    canvas.paint(0, r as isize, c as isize, 1.0);
                }
            }
        }
        canvas.paint(1, self.player.0, self.player.1, 1.0);
        for &(r, c) in &self.monsters {
            canvas.paint(2, r, c, 1.0);
        }
        if let Some((r, c)) = self.worluk {
            canvas.paint(3, r, c, 1.0);
        }
        if let Some((r, c, _, _)) = self.shot {
            canvas.paint(4, r, c, 1.0);
        }
        canvas.into_observation()
    }

    fn monster_step(&mut self, idx: usize) {
        let (mr, mc) = self.monsters[idx];
        let (pr, pc) = self.player;
        let moves = [(-1, 0), (1, 0), (0, -1), (0, 1)];
        let options: Vec<(isize, isize)> = moves
            .iter()
            .map(|&(dr, dc)| (mr + dr, mc + dc))
            .filter(|&(r, c)| self.free(r, c))
            .collect();
        if options.is_empty() {
            return;
        }
        self.monsters[idx] = if self.rng.gen_bool(0.6) {
            match options
                .iter()
                .min_by_key(|&&(r, c)| (r - pr).abs() + (c - pc).abs())
            {
                Some(&best) => best,
                None => unreachable!("guarded by the is_empty check above"),
            }
        } else {
            options[self.rng.gen_range(0..options.len())]
        };
    }
}

impl Environment for WizardOfWor {
    fn name(&self) -> &str {
        "WizardOfWor"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (5, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        6
    }

    fn reset(&mut self) -> Vec<f32> {
        self.player = (1, 1);
        self.facing = (0, 1);
        self.shot = None;
        self.dungeon = 1;
        self.clock = 0;
        self.done = false;
        self.spawn_monsters();
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        match action {
            1..=4 => {
                let (dr, dc) = [(-1, 0), (1, 0), (0, -1), (0, 1)][action - 1];
                self.facing = (dr, dc);
                let (nr, nc) = (self.player.0 + dr, self.player.1 + dc);
                if self.free(nr, nc) {
                    self.player = (nr, nc);
                }
            }
            5 if self.shot.is_none() => {
                self.shot = Some((
                    self.player.0 + self.facing.0,
                    self.player.1 + self.facing.1,
                    self.facing.0,
                    self.facing.1,
                ));
            }
            _ => {}
        }

        let mut reward = 0.0f32;

        // Shot: 2 cells/step, stopped by walls.
        if let Some((mut r, mut c, dr, dc)) = self.shot.take() {
            let mut live = true;
            for _ in 0..2 {
                if !self.free(r, c) {
                    live = false;
                    break;
                }
                if let Some(i) = self.monsters.iter().position(|&m| m == (r, c)) {
                    self.monsters.swap_remove(i);
                    reward += 1.0;
                    live = false;
                    break;
                }
                if self.worluk == Some((r, c)) {
                    self.worluk = None;
                    reward += 5.0;
                    live = false;
                    break;
                }
                r += dr;
                c += dc;
            }
            if live && self.free(r, c) {
                self.shot = Some((r, c, dr, dc));
            }
        }

        // Monsters move every other step; the Worluk every step.
        if self.clock.is_multiple_of(2) {
            for i in 0..self.monsters.len() {
                self.monster_step(i);
            }
        }
        if let Some((wr, wc)) = self.worluk {
            let moves = [(-1, 0), (1, 0), (0, -1), (0, 1)];
            let options: Vec<(isize, isize)> = moves
                .iter()
                .map(|&(dr, dc)| (wr + dr, wc + dc))
                .filter(|&(r, c)| self.free(r, c))
                .collect();
            if !options.is_empty() {
                self.worluk = Some(options[self.rng.gen_range(0..options.len())]);
            }
        }

        // Cleared dungeon: the Worluk appears; killing it (handled above)
        // advances to the next dungeon with fresh monsters.
        if self.monsters.is_empty() && self.worluk.is_none() {
            if reward >= 5.0 {
                // Worluk just died: next dungeon.
                self.dungeon += 1;
                self.spawn_monsters();
            } else {
                self.worluk = Some((GRID as isize / 2, GRID as isize / 2));
            }
        }

        let touched = self.monsters.contains(&self.player)
            || self.worluk == Some(self.player);
        if touched {
            self.done = true;
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("WizardOfWor");
        w.rng(&self.rng);
        for row in &self.walls {
            for &cell in row {
                w.bool(cell);
            }
        }
        w.isize(self.player.0);
        w.isize(self.player.1);
        w.isize(self.facing.0);
        w.isize(self.facing.1);
        w.usize(self.monsters.len());
        for item in &self.monsters {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.bool(self.worluk.is_some());
        if let Some(item) = &self.worluk {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.bool(self.shot.is_some());
        if let Some(item) = &self.shot {
            w.isize(item.0);
            w.isize(item.1);
            w.isize(item.2);
            w.isize(item.3);
        }
        w.u32(self.dungeon);
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "WizardOfWor")?;
        self.rng = r.rng()?;
        for row in &mut self.walls {
            for cell in row.iter_mut() {
                *cell = r.bool()?;
            }
        }
        self.player = (r.isize()?, r.isize()?);
        self.facing = (r.isize()?, r.isize()?);
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((r.isize()?, r.isize()?));
        }
        self.monsters = items;
        self.worluk = if r.bool()? {
            Some((r.isize()?, r.isize()?))
        } else {
            None
        };
        self.shot = if r.bool()? {
            Some((r.isize()?, r.isize()?, r.isize()?, r.isize()?))
        } else {
            None
        };
        self.dungeon = r.u32()?;
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
        assert_deterministic(WizardOfWor::new(181), WizardOfWor::new(181), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = WizardOfWor::new(1);
        let total = random_rollout(&mut env, 1000, 22);
        assert!(total >= 0.0);
    }

    #[test]
    fn walls_stop_shots() {
        let mut env = WizardOfWor::new(2);
        let _ = env.reset();
        // Fire into the wall directly above the start corner.
        let _ = env.step(1); // face up (blocked by wall, stays put or moves)
        env.player = (1, 1);
        env.facing = (-1, 0);
        let _ = env.step(5);
        // Shot at (0,1) is inside the border wall: must be dead by now.
        assert!(env.shot.is_none());
    }

    #[test]
    fn worluk_appears_after_clearing_monsters() {
        let mut env = WizardOfWor::new(3);
        let _ = env.reset();
        env.monsters.clear();
        let _ = env.step(0);
        assert!(env.worluk.is_some());
    }

    #[test]
    fn killing_worluk_starts_next_dungeon() {
        let mut env = WizardOfWor::new(4);
        let _ = env.reset();
        env.monsters.clear();
        let _ = env.step(0); // worluk spawns at centre
        let (wr, wc) = env.worluk.expect("worluk present");
        env.shot = Some((wr, wc, 0, 1));
        let out = env.step(0);
        assert!(out.reward >= 5.0);
        assert_eq!(env.dungeon, 2);
        assert!(!env.monsters.is_empty());
    }
}
