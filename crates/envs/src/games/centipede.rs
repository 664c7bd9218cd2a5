//! Centipede: a segmented chain snakes down through a mushroom field.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::games::clamp;
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const PLAYER_ROW: isize = GRID as isize - 1;
const SEGMENTS: usize = 6;

/// Centipede stand-in: a multi-segment centipede marches horizontally,
/// dropping a row and reversing at walls and mushrooms. Shooting a
/// segment (`+1`, `+5` for the head) leaves a mushroom behind; the
/// episode ends when the centipede reaches the player's row. A cleared
/// centipede respawns (with more mushrooms making descent faster).
///
/// Actions: `0` no-op, `1` left, `2` right, `3` fire.
#[derive(Debug, Clone)]
pub struct Centipede {
    rng: StdRng,
    player: isize,
    mushrooms: [[bool; GRID]; GRID],
    /// Head first; each segment is a grid cell.
    body: Vec<(isize, isize)>,
    dir: isize,
    shot: Option<(isize, isize)>,
    clock: u32,
    done: bool,
}

impl Centipede {
    /// Create a seeded Centipede game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Centipede {
            rng: StdRng::seed_from_u64(seed),
            player: GRID as isize / 2,
            mushrooms: [[false; GRID]; GRID],
            body: Vec::new(),
            dir: 1,
            shot: None,
            clock: 0,
            done: true,
        }
    }

    fn spawn_centipede(&mut self) {
        self.body = (0..SEGMENTS as isize).map(|i| (0, i)).collect();
        self.dir = 1;
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(4, GRID, GRID);
        canvas.paint(0, PLAYER_ROW, self.player, 1.0);
        for (i, &(r, c)) in self.body.iter().enumerate() {
            canvas.paint(1, r, c, if i == 0 { 1.0 } else { 0.6 });
        }
        for (r, row) in self.mushrooms.iter().enumerate() {
            for (c, &m) in row.iter().enumerate() {
                if m {
                    canvas.paint(2, r as isize, c as isize, 1.0);
                }
            }
        }
        if let Some((r, c)) = self.shot {
            canvas.paint(3, r, c, 1.0);
        }
        canvas.into_observation()
    }

    fn mushroom_at(&self, r: isize, c: isize) -> bool {
        (0..GRID as isize).contains(&r)
            && (0..GRID as isize).contains(&c)
            && self.mushrooms[r as usize][c as usize]
    }

    fn advance_centipede(&mut self) {
        if self.body.is_empty() {
            return;
        }
        let (hr, hc) = self.body[0];
        let next_c = hc + self.dir;
        let blocked =
            next_c < 0 || next_c >= GRID as isize || self.mushroom_at(hr, next_c);
        let new_head = if blocked {
            self.dir = -self.dir;
            (hr + 1, hc)
        } else {
            (hr, next_c)
        };
        // Segments follow the head like a snake.
        self.body.insert(0, new_head);
        self.body.pop();
    }
}

impl Environment for Centipede {
    fn name(&self) -> &str {
        "Centipede"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (4, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        4
    }

    fn reset(&mut self) -> Vec<f32> {
        self.player = GRID as isize / 2;
        self.mushrooms = [[false; GRID]; GRID];
        // Sparse seeded mushroom field in the upper two thirds.
        for _ in 0..10 {
            let r = self.rng.gen_range(1..GRID - 3);
            let c = self.rng.gen_range(0..GRID);
            self.mushrooms[r][c] = true;
        }
        self.shot = None;
        self.clock = 0;
        self.done = false;
        self.spawn_centipede();
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        match action {
            1 => self.player = clamp(self.player - 1, 0, GRID as isize - 1),
            2 => self.player = clamp(self.player + 1, 0, GRID as isize - 1),
            3 if self.shot.is_none() => {
                self.shot = Some((PLAYER_ROW - 1, self.player));
            }
            _ => {}
        }

        let mut reward = 0.0f32;

        // Shot travels up 2 cells/step; hits segments or mushrooms.
        if let Some((mut r, c)) = self.shot.take() {
            let mut live = true;
            for _ in 0..2 {
                if r < 0 {
                    live = false;
                    break;
                }
                if let Some(i) = self.body.iter().position(|&s| s == (r, c)) {
                    reward += if i == 0 { 5.0 } else { 1.0 };
                    self.body.remove(i);
                    // A mushroom grows where the segment died.
                    self.mushrooms[r as usize][c as usize] = true;
                    live = false;
                    break;
                }
                if self.mushroom_at(r, c) {
                    self.mushrooms[r as usize][c as usize] = false;
                    live = false;
                    break;
                }
                r -= 1;
            }
            if live && r >= 0 {
                self.shot = Some((r, c));
            }
        }

        // Centipede marches every other step.
        if self.clock.is_multiple_of(2) {
            self.advance_centipede();
        }

        if self.body.is_empty() {
            reward += 10.0;
            self.spawn_centipede();
        }

        if self.body.iter().any(|&(r, _)| r >= PLAYER_ROW) {
            self.done = true;
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("Centipede");
        w.rng(&self.rng);
        w.isize(self.player);
        for row in &self.mushrooms {
            for &cell in row {
                w.bool(cell);
            }
        }
        w.usize(self.body.len());
        for item in &self.body {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.isize(self.dir);
        w.bool(self.shot.is_some());
        if let Some(item) = &self.shot {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "Centipede")?;
        self.rng = r.rng()?;
        self.player = r.isize()?;
        for row in &mut self.mushrooms {
            for cell in row.iter_mut() {
                *cell = r.bool()?;
            }
        }
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((r.isize()?, r.isize()?));
        }
        self.body = items;
        self.dir = r.isize()?;
        self.shot = if r.bool()? {
            Some((r.isize()?, r.isize()?))
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
        assert_deterministic(Centipede::new(131), Centipede::new(131), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = Centipede::new(1);
        let total = random_rollout(&mut env, 1000, 17);
        assert!(total >= 0.0);
    }

    #[test]
    fn centipede_descends_at_walls() {
        let mut env = Centipede::new(2);
        let _ = env.reset();
        let start_row = env.body[0].0;
        for _ in 0..GRID * 4 {
            env.advance_centipede();
        }
        assert!(env.body[0].0 > start_row, "head must have descended");
    }

    #[test]
    fn shooting_head_pays_bonus_and_grows_mushroom() {
        let mut env = Centipede::new(3);
        let _ = env.reset();
        let (hr, hc) = env.body[0];
        env.shot = Some((hr, hc));
        let before = env.body.len();
        let out = env.step(0);
        assert_eq!(out.reward, 5.0);
        assert_eq!(env.body.len(), before - 1);
        assert!(env.mushrooms[hr as usize][hc as usize]);
    }

    #[test]
    fn idle_player_eventually_loses() {
        let mut env = Centipede::new(4);
        let _ = env.reset();
        let mut steps = 0;
        loop {
            steps += 1;
            if env.step(0).done {
                break;
            }
            assert!(steps < 3000);
        }
    }
}
