//! Assault: drone waves with a weapon-heat mechanic.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::games::clamp;
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const PLAYER_ROW: isize = GRID as isize - 1;
const HEAT_LIMIT: u32 = 6;

#[derive(Debug, Clone, Copy)]
struct Drone {
    row: isize,
    col: isize,
    dir: isize,
}

/// Assault stand-in: a mothership deploys drones that strafe and descend,
/// dropping bombs. Shooting pays `+1`, but the cannon heats up: each shot
/// adds heat, idle steps cool it, and an overheated cannon cannot fire
/// (the game's signature mechanic — reckless firing throttles itself).
///
/// Actions: `0` no-op, `1` left, `2` right, `3` fire.
#[derive(Debug, Clone)]
pub struct Assault {
    rng: StdRng,
    player: isize,
    drones: Vec<Drone>,
    bombs: Vec<(isize, isize)>,
    shots: Vec<(isize, isize)>,
    heat: u32,
    clock: u32,
    done: bool,
}

impl Assault {
    /// Create a seeded Assault game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Assault {
            rng: StdRng::seed_from_u64(seed),
            player: GRID as isize / 2,
            drones: Vec::new(),
            bombs: Vec::new(),
            shots: Vec::new(),
            heat: 0,
            clock: 0,
            done: true,
        }
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(5, GRID, GRID);
        canvas.paint(0, PLAYER_ROW, self.player, 1.0);
        for d in &self.drones {
            canvas.paint(1, d.row, d.col, 1.0);
        }
        for &(r, c) in &self.bombs {
            canvas.paint(2, r, c, 1.0);
        }
        for &(r, c) in &self.shots {
            canvas.paint(3, r, c, 1.0);
        }
        // Heat gauge along the top row.
        for h in 0..self.heat.min(GRID as u32) {
            canvas.paint(4, 0, h as isize, 1.0);
        }
        canvas.into_observation()
    }
}

impl Environment for Assault {
    fn name(&self) -> &str {
        "Assault"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (5, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        4
    }

    fn reset(&mut self) -> Vec<f32> {
        self.player = GRID as isize / 2;
        self.drones.clear();
        self.bombs.clear();
        self.shots.clear();
        self.heat = 0;
        self.clock = 0;
        self.done = false;
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        match action {
            1 => self.player = clamp(self.player - 1, 0, GRID as isize - 1),
            2 => self.player = clamp(self.player + 1, 0, GRID as isize - 1),
            3 if self.heat < HEAT_LIMIT => {
                self.shots.push((PLAYER_ROW - 1, self.player));
                self.heat += 2;
            }
            _ => {}
        }
        self.heat = self.heat.saturating_sub(1);

        let mut reward = 0.0f32;

        // Shots travel up 2 cells/step.
        let mut surviving = Vec::with_capacity(self.shots.len());
        for (mut r, c) in std::mem::take(&mut self.shots) {
            let mut live = true;
            for _ in 0..2 {
                if r < 0 {
                    live = false;
                    break;
                }
                if let Some(i) = self
                    .drones
                    .iter()
                    .position(|d| d.row == r && d.col == c)
                {
                    self.drones.swap_remove(i);
                    reward += 1.0;
                    live = false;
                    break;
                }
                r -= 1;
            }
            if live && r >= 0 {
                surviving.push((r, c));
            }
        }
        self.shots = surviving;

        // Drones strafe; occasionally descend and bomb.
        for d in &mut self.drones {
            d.col += d.dir;
            if d.col <= 0 || d.col >= GRID as isize - 1 {
                d.dir = -d.dir;
                d.row += 1;
            }
        }
        if self.clock.is_multiple_of(5) {
            if let Some(d) = self.drones.first() {
                self.bombs.push((d.row + 1, d.col));
            }
        }
        let player = self.player;
        let mut hit = false;
        self.bombs.retain_mut(|(r, c)| {
            *r += 1;
            if *r == PLAYER_ROW && *c == player {
                hit = true;
            }
            *r < GRID as isize
        });

        if self.clock.is_multiple_of(4) && self.drones.len() < 5 {
            let dir = if self.rng.gen_bool(0.5) { 1 } else { -1 };
            self.drones.push(Drone {
                row: self.rng.gen_range(1..4),
                col: self.rng.gen_range(1..GRID as isize - 1),
                dir,
            });
        }

        if hit || self.drones.iter().any(|d| d.row >= PLAYER_ROW) {
            self.done = true;
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("Assault");
        w.rng(&self.rng);
        w.isize(self.player);
        w.usize(self.drones.len());
        for item in &self.drones {
            w.isize(item.row);
            w.isize(item.col);
            w.isize(item.dir);
        }
        w.usize(self.bombs.len());
        for item in &self.bombs {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.usize(self.shots.len());
        for item in &self.shots {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.u32(self.heat);
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "Assault")?;
        self.rng = r.rng()?;
        self.player = r.isize()?;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Drone { row: r.isize()?, col: r.isize()?, dir: r.isize()? });
        }
        self.drones = items;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((r.isize()?, r.isize()?));
        }
        self.bombs = items;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((r.isize()?, r.isize()?));
        }
        self.shots = items;
        self.heat = r.u32()?;
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
        assert_deterministic(Assault::new(111), Assault::new(111), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = Assault::new(1);
        let total = random_rollout(&mut env, 1000, 15);
        assert!(total >= 0.0);
    }

    #[test]
    fn overheating_blocks_fire() {
        let mut env = Assault::new(2);
        let _ = env.reset();
        // Sustained fire builds heat (+2 per shot, -1 per step).
        for _ in 0..12 {
            let _ = env.step(3);
            if env.done {
                let _ = env.reset();
            }
        }
        assert!(env.heat > 0, "sustained fire must accumulate heat");
        let heat_before = env.heat;
        let _ = env.step(0);
        assert!(env.heat < heat_before, "idling must cool the cannon");
    }

    #[test]
    fn spray_fire_eventually_scores() {
        let mut env = Assault::new(3);
        let _ = env.reset();
        let mut total = 0.0;
        for i in 0..500 {
            let a = match i % 4 {
                0 => 3,
                1 => 1,
                2 => 3,
                _ => 2,
            };
            let out = env.step(a);
            total += out.reward;
            if out.done {
                let _ = env.reset();
            }
        }
        assert!(total > 0.0);
    }
}
