//! Space Invaders: descending alien waves, one player cannon.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::games::clamp;
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const WAVE_ROWS: usize = 3;
const WAVE_COLS: usize = 6;
const PLAYER_ROW: isize = GRID as isize - 1;

/// Space Invaders stand-in: a 3×6 alien wave marches sideways and descends;
/// the cannon fires single shots while dodging bombs. Aliens in higher rows
/// pay more; cleared waves respawn faster, so scores are unbounded for
/// strong play.
///
/// Actions: `0` no-op, `1` left, `2` right, `3` fire.
#[derive(Debug, Clone)]
pub struct SpaceInvaders {
    rng: StdRng,
    player: isize,
    aliens: [[bool; WAVE_COLS]; WAVE_ROWS],
    wave_row: isize,
    wave_col: isize,
    wave_dir: isize,
    move_period: u32,
    clock: u32,
    bullet: Option<(isize, isize)>,
    bombs: Vec<(isize, isize)>,
    wave: u32,
    done: bool,
}

impl SpaceInvaders {
    /// Create a seeded Space Invaders game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SpaceInvaders {
            rng: StdRng::seed_from_u64(seed),
            player: GRID as isize / 2,
            aliens: [[true; WAVE_COLS]; WAVE_ROWS],
            wave_row: 1,
            wave_col: 1,
            wave_dir: 1,
            move_period: 4,
            clock: 0,
            bullet: None,
            bombs: Vec::new(),
            wave: 0,
            done: true,
        }
    }

    fn alien_cells(&self) -> Vec<(isize, isize, usize)> {
        let mut cells = Vec::new();
        for (r, row) in self.aliens.iter().enumerate() {
            for (c, &alive) in row.iter().enumerate() {
                if alive {
                    cells.push((self.wave_row + r as isize, self.wave_col + c as isize, r));
                }
            }
        }
        cells
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(4, GRID, GRID);
        canvas.paint(0, PLAYER_ROW, self.player, 1.0);
        for (r, c, _) in self.alien_cells() {
            canvas.paint(1, r, c, 1.0);
        }
        if let Some((r, c)) = self.bullet {
            canvas.paint(2, r, c, 1.0);
        }
        for &(r, c) in &self.bombs {
            canvas.paint(3, r, c, 1.0);
        }
        canvas.into_observation()
    }

    fn alive_count(&self) -> usize {
        self.aliens.iter().flatten().filter(|&&a| a).count()
    }

    fn respawn_wave(&mut self) {
        self.aliens = [[true; WAVE_COLS]; WAVE_ROWS];
        self.wave_row = 1;
        self.wave_col = 1;
        self.wave_dir = 1;
        self.wave += 1;
        self.move_period = (4 - self.wave.min(3)).max(1);
    }
}

impl Environment for SpaceInvaders {
    fn name(&self) -> &str {
        "SpaceInvaders"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (4, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        4
    }

    fn reset(&mut self) -> Vec<f32> {
        self.player = GRID as isize / 2;
        self.bullet = None;
        self.bombs.clear();
        self.clock = 0;
        self.wave = 0;
        self.move_period = 4;
        self.done = false;
        self.respawn_wave();
        self.wave = 0;
        self.move_period = 4;
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        match action {
            1 => self.player = clamp(self.player - 1, 0, GRID as isize - 1),
            2 => self.player = clamp(self.player + 1, 0, GRID as isize - 1),
            3 if self.bullet.is_none() => {
                self.bullet = Some((PLAYER_ROW - 1, self.player));
            }
            _ => {}
        }

        let mut reward = 0.0f32;

        // Bullet travels up two cells per step, checking both.
        if let Some((mut br, bc)) = self.bullet.take() {
            let mut alive = true;
            for _ in 0..2 {
                br -= 1;
                if br < 0 {
                    alive = false;
                    break;
                }
                let rr = br - self.wave_row;
                let cc = bc - self.wave_col;
                if (0..WAVE_ROWS as isize).contains(&rr)
                    && (0..WAVE_COLS as isize).contains(&cc)
                    && self.aliens[rr as usize][cc as usize]
                {
                    self.aliens[rr as usize][cc as usize] = false;
                    // Higher (harder to reach) rows pay more.
                    reward += (WAVE_ROWS as isize - rr) as f32;
                    alive = false;
                    break;
                }
            }
            if alive {
                self.bullet = Some((br, bc));
            }
        }

        // Wave marches on its cadence.
        if self.clock.is_multiple_of(self.move_period) && self.alive_count() > 0 {
            // alive_count() > 0 above guarantees the wave is non-empty.
            let occupied: Vec<isize> = self.alien_cells().iter().map(|&(_, c, _)| c).collect();
            let min_c = occupied.iter().copied().fold(isize::MAX, isize::min);
            let max_c = occupied.iter().copied().fold(isize::MIN, isize::max);
            if (self.wave_dir > 0 && max_c + 1 >= GRID as isize)
                || (self.wave_dir < 0 && min_c - 1 < 0)
            {
                self.wave_dir = -self.wave_dir;
                self.wave_row += 1;
            } else {
                self.wave_col += self.wave_dir;
            }
        }

        // Random alien drops a bomb.
        if self.clock.is_multiple_of(6) {
            let cells = self.alien_cells();
            if !cells.is_empty() {
                let (r, c, _) = cells[self.rng.gen_range(0..cells.len())];
                self.bombs.push((r + 1, c));
            }
        }

        // Bombs fall.
        let player = self.player;
        let mut hit = false;
        self.bombs.retain_mut(|(r, c)| {
            *r += 1;
            if *r == PLAYER_ROW && *c == player {
                hit = true;
            }
            *r < GRID as isize
        });

        // Aliens reaching the cannon row is game over.
        let landed = self
            .alien_cells()
            .iter()
            .any(|&(r, _, _)| r >= PLAYER_ROW);
        if hit || landed {
            self.done = true;
        }

        if self.alive_count() == 0 {
            reward += 10.0;
            self.respawn_wave();
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("SpaceInvaders");
        w.rng(&self.rng);
        w.isize(self.player);
        for row in &self.aliens {
            for &cell in row {
                w.bool(cell);
            }
        }
        w.isize(self.wave_row);
        w.isize(self.wave_col);
        w.isize(self.wave_dir);
        w.u32(self.move_period);
        w.u32(self.clock);
        w.bool(self.bullet.is_some());
        if let Some(item) = &self.bullet {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.usize(self.bombs.len());
        for item in &self.bombs {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.u32(self.wave);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "SpaceInvaders")?;
        self.rng = r.rng()?;
        self.player = r.isize()?;
        for row in &mut self.aliens {
            for cell in row.iter_mut() {
                *cell = r.bool()?;
            }
        }
        self.wave_row = r.isize()?;
        self.wave_col = r.isize()?;
        self.wave_dir = r.isize()?;
        self.move_period = r.u32()?;
        self.clock = r.u32()?;
        self.bullet = if r.bool()? {
            Some((r.isize()?, r.isize()?))
        } else {
            None
        };
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((r.isize()?, r.isize()?));
        }
        self.bombs = items;
        self.wave = r.u32()?;
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
        assert_deterministic(SpaceInvaders::new(2), SpaceInvaders::new(2), 400);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = SpaceInvaders::new(4);
        let total = random_rollout(&mut env, 1200, 5);
        assert!(total >= 0.0);
    }

    #[test]
    fn constant_fire_scores() {
        let mut env = SpaceInvaders::new(6);
        let _ = env.reset();
        let mut total = 0.0;
        for i in 0..300 {
            let action = if i % 3 == 0 { 3 } else { (i % 2) + 1 };
            let out = env.step(action);
            total += out.reward;
            if out.done {
                let _ = env.reset();
            }
        }
        assert!(total > 0.0, "spraying shots should hit aliens");
    }

    #[test]
    fn idle_player_eventually_loses_to_descending_wave() {
        let mut env = SpaceInvaders::new(8);
        let _ = env.reset();
        let mut steps = 0;
        loop {
            steps += 1;
            if env.step(0).done {
                break;
            }
            assert!(steps < 5000, "wave must reach the bottom eventually");
        }
    }

    #[test]
    fn wave_respawns_faster() {
        let mut env = SpaceInvaders::new(1);
        let _ = env.reset();
        let initial_period = env.move_period;
        env.respawn_wave();
        assert!(env.move_period < initial_period);
    }
}
