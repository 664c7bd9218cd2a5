//! Time Pilot: a pivoting centre gunship against converging raiders.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const CENTRE: (isize, isize) = (GRID as isize / 2, GRID as isize / 2);

const DIRS: [(isize, isize); 4] = [(-1, 0), (1, 0), (0, -1), (0, 1)];

/// Time Pilot stand-in: the plane holds the screen centre and pivots
/// between four headings while enemies converge from the edges; each era
/// (wave of 8 kills) pays a `+10` bonus and speeds spawns up. Contact
/// ends the episode.
///
/// Actions: `0` no-op, `1` face up, `2` face down, `3` face left,
/// `4` face right, `5` fire (along the current heading).
#[derive(Debug, Clone)]
pub struct TimePilot {
    rng: StdRng,
    facing: usize,
    enemies: Vec<(isize, isize)>,
    shot: Option<(isize, isize, usize)>,
    kills: u32,
    clock: u32,
    done: bool,
}

impl TimePilot {
    /// Create a seeded Time Pilot game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        TimePilot {
            rng: StdRng::seed_from_u64(seed),
            facing: 0,
            enemies: Vec::new(),
            shot: None,
            kills: 0,
            clock: 0,
            done: true,
        }
    }

    fn spawn_period(&self) -> u32 {
        6 - (self.kills / 8).min(4)
    }

    fn spawn_enemy(&mut self) {
        let edge = self.rng.gen_range(0..4);
        let along = self.rng.gen_range(0..GRID as isize);
        let pos = match edge {
            0 => (0, along),
            1 => (GRID as isize - 1, along),
            2 => (along, 0),
            _ => (along, GRID as isize - 1),
        };
        self.enemies.push(pos);
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(4, GRID, GRID);
        canvas.paint(0, CENTRE.0, CENTRE.1, 1.0);
        let (dr, dc) = DIRS[self.facing];
        canvas.paint(1, CENTRE.0 + dr, CENTRE.1 + dc, 1.0);
        for &(r, c) in &self.enemies {
            canvas.paint(2, r, c, 1.0);
        }
        if let Some((r, c, _)) = self.shot {
            canvas.paint(3, r, c, 1.0);
        }
        canvas.into_observation()
    }
}

impl Environment for TimePilot {
    fn name(&self) -> &str {
        "TimePilot"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (4, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        6
    }

    fn reset(&mut self) -> Vec<f32> {
        self.facing = 0;
        self.enemies.clear();
        self.shot = None;
        self.kills = 0;
        self.clock = 0;
        self.done = false;
        for _ in 0..2 {
            self.spawn_enemy();
        }
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        match action {
            1..=4 => self.facing = action - 1,
            5 if self.shot.is_none() => {
                let (dr, dc) = DIRS[self.facing];
                self.shot = Some((CENTRE.0 + dr, CENTRE.1 + dc, self.facing));
            }
            _ => {}
        }

        let mut reward = 0.0f32;

        // Shot: 2 cells/step along its heading.
        if let Some((mut r, mut c, heading)) = self.shot.take() {
            let (dr, dc) = DIRS[heading];
            let mut live = true;
            for _ in 0..2 {
                if !(0..GRID as isize).contains(&r) || !(0..GRID as isize).contains(&c) {
                    live = false;
                    break;
                }
                if let Some(i) = self.enemies.iter().position(|&e| e == (r, c)) {
                    self.enemies.swap_remove(i);
                    self.kills += 1;
                    reward += 1.0;
                    if self.kills.is_multiple_of(8) {
                        reward += 10.0; // era cleared
                    }
                    live = false;
                    break;
                }
                r += dr;
                c += dc;
            }
            if live && (0..GRID as isize).contains(&r) && (0..GRID as isize).contains(&c) {
                self.shot = Some((r, c, heading));
            }
        }

        // Enemies converge on the centre every other step, with jitter.
        if self.clock.is_multiple_of(2) {
            for e in &mut self.enemies {
                if self.rng.gen_bool(0.85) {
                    if (e.0 - CENTRE.0).abs() > (e.1 - CENTRE.1).abs() {
                        e.0 += (CENTRE.0 - e.0).signum();
                    } else {
                        e.1 += (CENTRE.1 - e.1).signum();
                    }
                }
            }
        }

        if self.clock.is_multiple_of(self.spawn_period().max(1)) && self.enemies.len() < 5 {
            self.spawn_enemy();
        }

        if self.enemies.contains(&CENTRE) {
            self.done = true;
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("TimePilot");
        w.rng(&self.rng);
        w.usize(self.facing);
        w.usize(self.enemies.len());
        for item in &self.enemies {
            w.isize(item.0);
            w.isize(item.1);
        }
        w.bool(self.shot.is_some());
        if let Some(item) = &self.shot {
            w.isize(item.0);
            w.isize(item.1);
            w.usize(item.2);
        }
        w.u32(self.kills);
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "TimePilot")?;
        self.rng = r.rng()?;
        self.facing = r.usize()?;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((r.isize()?, r.isize()?));
        }
        self.enemies = items;
        self.shot = if r.bool()? {
            Some((r.isize()?, r.isize()?, r.usize()?))
        } else {
            None
        };
        self.kills = r.u32()?;
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
        assert_deterministic(TimePilot::new(171), TimePilot::new(171), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = TimePilot::new(1);
        let total = random_rollout(&mut env, 1000, 21);
        assert!(total >= 0.0);
    }

    #[test]
    fn spawn_rate_increases_with_kills() {
        let mut env = TimePilot::new(2);
        let _ = env.reset();
        let early = env.spawn_period();
        env.kills = 16;
        assert!(env.spawn_period() < early);
    }

    #[test]
    fn idle_pilot_is_rammed() {
        let mut env = TimePilot::new(3);
        let _ = env.reset();
        let mut steps = 0;
        loop {
            steps += 1;
            if env.step(0).done {
                break;
            }
            assert!(steps < 2000);
        }
    }

    #[test]
    fn rotating_fire_scores() {
        let mut env = TimePilot::new(4);
        let _ = env.reset();
        let mut total = 0.0;
        for i in 0..600 {
            let a = if i % 2 == 0 { 5 } else { 1 + (i / 2) % 4 };
            let out = env.step(a);
            total += out.reward;
            if out.done {
                let _ = env.reset();
            }
        }
        assert!(total > 0.0);
    }
}
