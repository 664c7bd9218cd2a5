//! Demon Attack: hovering demons that swoop at the cannon.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::games::clamp;
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const PLAYER_ROW: isize = GRID as isize - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DemonState {
    Hover,
    Swoop,
}

#[derive(Debug, Clone, Copy)]
struct Demon {
    row: isize,
    col: isize,
    dir: isize,
    state: DemonState,
}

/// Demon Attack stand-in: demons materialise in the upper field, hover in
/// jittery strafes, and periodically swoop at the cannon. Hovering demons
/// pay `+1`, swooping demons `+3` (they are the threat). Waves respawn
/// endlessly; a swooping demon reaching the cannon row on its column ends
/// the episode.
///
/// Actions: `0` no-op, `1` left, `2` right, `3` fire.
#[derive(Debug, Clone)]
pub struct DemonAttack {
    rng: StdRng,
    player: isize,
    demons: Vec<Demon>,
    shot: Option<(isize, isize)>,
    wave: u32,
    clock: u32,
    done: bool,
}

impl DemonAttack {
    /// Create a seeded Demon Attack game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        DemonAttack {
            rng: StdRng::seed_from_u64(seed),
            player: GRID as isize / 2,
            demons: Vec::new(),
            shot: None,
            wave: 0,
            clock: 0,
            done: true,
        }
    }

    fn spawn_wave(&mut self) {
        self.wave += 1;
        for _ in 0..4 {
            let dir = if self.rng.gen_bool(0.5) { 1 } else { -1 };
            self.demons.push(Demon {
                row: self.rng.gen_range(1..4),
                col: self.rng.gen_range(1..GRID as isize - 1),
                dir,
                state: DemonState::Hover,
            });
        }
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(4, GRID, GRID);
        canvas.paint(0, PLAYER_ROW, self.player, 1.0);
        for d in &self.demons {
            let plane = match d.state {
                DemonState::Hover => 1,
                DemonState::Swoop => 2,
            };
            canvas.paint(plane, d.row, d.col, 1.0);
        }
        if let Some((r, c)) = self.shot {
            canvas.paint(3, r, c, 1.0);
        }
        canvas.into_observation()
    }
}

impl Environment for DemonAttack {
    fn name(&self) -> &str {
        "DemonAttack"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (4, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        4
    }

    fn reset(&mut self) -> Vec<f32> {
        self.player = GRID as isize / 2;
        self.demons.clear();
        self.shot = None;
        self.wave = 0;
        self.clock = 0;
        self.done = false;
        self.spawn_wave();
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

        // Shot travels up 2 cells/step.
        if let Some((mut r, c)) = self.shot.take() {
            let mut live = true;
            for _ in 0..2 {
                if r < 0 {
                    live = false;
                    break;
                }
                if let Some(i) = self
                    .demons
                    .iter()
                    .position(|d| d.row == r && d.col == c)
                {
                    let demon = self.demons.swap_remove(i);
                    reward += match demon.state {
                        DemonState::Hover => 1.0,
                        DemonState::Swoop => 3.0,
                    };
                    live = false;
                    break;
                }
                r -= 1;
            }
            if live && r >= 0 {
                self.shot = Some((r, c));
            }
        }

        // Demon behaviour.
        let player = self.player;
        for d in &mut self.demons {
            match d.state {
                DemonState::Hover => {
                    d.col += d.dir;
                    if d.col <= 0 || d.col >= GRID as isize - 1 {
                        d.dir = -d.dir;
                    }
                }
                DemonState::Swoop => {
                    d.row += 1;
                    d.col += (player - d.col).signum();
                }
            }
        }
        // Periodically one hovering demon begins a swoop.
        if self.clock.is_multiple_of(6) {
            if let Some(d) = self
                .demons
                .iter_mut()
                .find(|d| d.state == DemonState::Hover)
            {
                d.state = DemonState::Swoop;
            }
        }

        // A swooping demon reaching the bottom: fatal on the player's
        // column, otherwise it warps back up to hover.
        let mut fatal = false;
        for d in &mut self.demons {
            if d.row >= PLAYER_ROW {
                if d.col == player {
                    fatal = true;
                } else {
                    d.row = 1;
                    d.state = DemonState::Hover;
                }
            }
        }
        if fatal {
            self.done = true;
        }

        if self.demons.is_empty() {
            reward += 10.0;
            self.spawn_wave();
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("DemonAttack");
        w.rng(&self.rng);
        w.isize(self.player);
        w.usize(self.demons.len());
        for item in &self.demons {
            w.isize(item.row);
            w.isize(item.col);
            w.isize(item.dir);
            w.int(match item.state { DemonState::Hover => 0, DemonState::Swoop => 1 });
        }
        w.bool(self.shot.is_some());
        if let Some(item) = &self.shot {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.u32(self.wave);
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "DemonAttack")?;
        self.rng = r.rng()?;
        self.player = r.isize()?;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Demon { row: r.isize()?, col: r.isize()?, dir: r.isize()?, state: match r.int()? {
                0 => DemonState::Hover,
                1 => DemonState::Swoop,
                v => return Err(r.out_of_range(format!("unknown DemonState {v}"))),
            } });
        }
        self.demons = items;
        self.shot = if r.bool()? {
            Some((r.isize()?, r.isize()?))
        } else {
            None
        };
        self.wave = r.u32()?;
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
        assert_deterministic(DemonAttack::new(151), DemonAttack::new(151), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = DemonAttack::new(1);
        let total = random_rollout(&mut env, 1000, 19);
        assert!(total >= 0.0);
    }

    #[test]
    fn swooping_demons_pay_more() {
        let mut env = DemonAttack::new(2);
        let _ = env.reset();
        // Force a swoop directly above the shot path.
        env.demons[0].state = DemonState::Swoop;
        env.demons[0].row = PLAYER_ROW - 2;
        env.demons[0].col = env.player;
        env.shot = Some((PLAYER_ROW - 1, env.player));
        let out = env.step(0);
        assert!(out.reward >= 3.0, "swoop kill must pay 3, got {}", out.reward);
    }

    #[test]
    fn cleared_wave_respawns() {
        let mut env = DemonAttack::new(3);
        let _ = env.reset();
        env.demons.clear();
        let out = env.step(0);
        assert!(out.reward >= 10.0);
        assert!(!env.demons.is_empty());
    }
}
