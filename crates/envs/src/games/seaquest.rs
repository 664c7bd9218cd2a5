//! Seaquest: submarine combat with an oxygen budget.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::games::clamp;
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const MAX_OXYGEN: i32 = 60;
const SURFACE_ROW: isize = 1;

#[derive(Debug, Clone, Copy)]
struct Mover {
    row: isize,
    col: isize,
    dir: isize,
}

/// Seaquest stand-in: pilot a submarine, torpedo fish (`+1`), rescue divers
/// (`+5` each when surfacing), and manage a depleting oxygen supply that
/// only refills at the surface. Running dry or touching a fish ends the
/// episode. The oxygen level is rendered as a bar in the observation.
///
/// Actions: `0` no-op, `1` up, `2` down, `3` left, `4` right, `5` fire.
#[derive(Debug, Clone)]
pub struct Seaquest {
    rng: StdRng,
    sub: (isize, isize),
    facing: isize,
    enemies: Vec<Mover>,
    divers: Vec<Mover>,
    torpedo: Option<Mover>,
    oxygen: i32,
    held_divers: u32,
    clock: u32,
    done: bool,
}

impl Seaquest {
    /// Create a seeded Seaquest game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Seaquest {
            rng: StdRng::seed_from_u64(seed),
            sub: (GRID as isize / 2, GRID as isize / 2),
            facing: 1,
            enemies: Vec::new(),
            divers: Vec::new(),
            torpedo: None,
            oxygen: MAX_OXYGEN,
            held_divers: 0,
            clock: 0,
            done: true,
        }
    }

    fn spawn_mover(&mut self, row_lo: isize, row_hi: isize) -> Mover {
        let dir = if self.rng.gen_bool(0.5) { 1 } else { -1 };
        Mover {
            row: self.rng.gen_range(row_lo..row_hi),
            col: if dir > 0 { 0 } else { GRID as isize - 1 },
            dir,
        }
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(5, GRID, GRID);
        canvas.paint(0, self.sub.0, self.sub.1, 1.0);
        for e in &self.enemies {
            canvas.paint(1, e.row, e.col, 1.0);
        }
        for d in &self.divers {
            canvas.paint(2, d.row, d.col, 1.0);
        }
        if let Some(t) = &self.torpedo {
            canvas.paint(3, t.row, t.col, 1.0);
        }
        // Oxygen bar on the top row of plane 4.
        let bar = (self.oxygen.max(0) as usize * GRID) / MAX_OXYGEN as usize;
        for c in 0..bar {
            canvas.paint(4, 0, c as isize, 1.0);
        }
        canvas.into_observation()
    }
}

impl Environment for Seaquest {
    fn name(&self) -> &str {
        "Seaquest"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (5, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        6
    }

    fn reset(&mut self) -> Vec<f32> {
        self.sub = (GRID as isize / 2, GRID as isize / 2);
        self.facing = 1;
        self.enemies.clear();
        self.divers.clear();
        self.torpedo = None;
        self.oxygen = MAX_OXYGEN;
        self.held_divers = 0;
        self.clock = 0;
        self.done = false;
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        match action {
            1 => self.sub.0 = clamp(self.sub.0 - 1, SURFACE_ROW, GRID as isize - 1),
            2 => self.sub.0 = clamp(self.sub.0 + 1, SURFACE_ROW, GRID as isize - 1),
            3 => {
                self.sub.1 = clamp(self.sub.1 - 1, 0, GRID as isize - 1);
                self.facing = -1;
            }
            4 => {
                self.sub.1 = clamp(self.sub.1 + 1, 0, GRID as isize - 1);
                self.facing = 1;
            }
            5 if self.torpedo.is_none() => {
                self.torpedo = Some(Mover {
                    row: self.sub.0,
                    col: self.sub.1 + self.facing,
                    dir: self.facing,
                });
            }
            _ => {}
        }

        let mut reward = 0.0f32;

        // Torpedo travel (2 cells/step) with hit detection.
        if let Some(mut t) = self.torpedo.take() {
            let mut live = true;
            for _ in 0..2 {
                t.col += t.dir;
                if !(0..GRID as isize).contains(&t.col) {
                    live = false;
                    break;
                }
                if let Some(i) = self
                    .enemies
                    .iter()
                    .position(|e| e.row == t.row && e.col == t.col)
                {
                    self.enemies.swap_remove(i);
                    reward += 1.0;
                    live = false;
                    break;
                }
            }
            if live {
                self.torpedo = Some(t);
            }
        }

        // Spawns.
        if self.clock.is_multiple_of(4) && self.enemies.len() < 6 {
            let m = self.spawn_mover(3, GRID as isize - 1);
            self.enemies.push(m);
        }
        if self.clock.is_multiple_of(17) && self.divers.len() < 2 {
            let m = self.spawn_mover(4, GRID as isize - 2);
            self.divers.push(m);
        }

        // Movement: enemies every step, divers every other step.
        for e in &mut self.enemies {
            e.col += e.dir;
        }
        self.enemies.retain(|e| (0..GRID as isize).contains(&e.col));
        if self.clock.is_multiple_of(2) {
            for d in &mut self.divers {
                d.col += d.dir;
            }
            self.divers.retain(|d| (0..GRID as isize).contains(&d.col));
        }

        // Pick up divers.
        let sub = self.sub;
        let before = self.divers.len();
        self.divers.retain(|d| (d.row, d.col) != sub);
        self.held_divers += (before - self.divers.len()) as u32;

        // Oxygen economy.
        if self.sub.0 <= SURFACE_ROW {
            if self.oxygen < MAX_OXYGEN {
                self.oxygen = MAX_OXYGEN;
                reward += 5.0 * self.held_divers as f32;
                self.held_divers = 0;
            }
        } else {
            self.oxygen -= 1;
        }

        // Death conditions.
        if self.oxygen <= 0 || self.enemies.iter().any(|e| (e.row, e.col) == self.sub) {
            self.done = true;
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("Seaquest");
        w.rng(&self.rng);
        w.isize(self.sub.0);
        w.isize(self.sub.1);
        w.isize(self.facing);
        w.usize(self.enemies.len());
        for item in &self.enemies {
            w.isize(item.row);
            w.isize(item.col);
            w.isize(item.dir);
        }
        w.usize(self.divers.len());
        for item in &self.divers {
            w.isize(item.row);
            w.isize(item.col);
            w.isize(item.dir);
        }
        w.bool(self.torpedo.is_some());
        if let Some(item) = &self.torpedo {
            w.isize(item.row);
            w.isize(item.col);
            w.isize(item.dir);
        }
        w.int(i64::from(self.oxygen));
        w.u32(self.held_divers);
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "Seaquest")?;
        self.rng = r.rng()?;
        self.sub = (r.isize()?, r.isize()?);
        self.facing = r.isize()?;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Mover { row: r.isize()?, col: r.isize()?, dir: r.isize()? });
        }
        self.enemies = items;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Mover { row: r.isize()?, col: r.isize()?, dir: r.isize()? });
        }
        self.divers = items;
        self.torpedo = if r.bool()? {
            Some(Mover { row: r.isize()?, col: r.isize()?, dir: r.isize()? })
        } else {
            None
        };
        self.oxygen = r.i32()?;
        self.held_divers = r.u32()?;
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
        assert_deterministic(Seaquest::new(31), Seaquest::new(31), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = Seaquest::new(1);
        let total = random_rollout(&mut env, 1000, 7);
        assert!(total >= 0.0);
    }

    #[test]
    fn oxygen_runs_out_for_idle_submarine() {
        let mut env = Seaquest::new(2);
        let _ = env.reset();
        let mut steps = 0;
        loop {
            steps += 1;
            if env.step(0).done {
                break;
            }
            assert!(steps <= MAX_OXYGEN as usize + 5);
        }
        // Dies either from oxygen or an enemy, but within the O2 budget.
        assert!(steps <= MAX_OXYGEN as usize + 5);
    }

    #[test]
    fn surfacing_refills_oxygen() {
        let mut env = Seaquest::new(3);
        let _ = env.reset();
        for _ in 0..10 {
            let _ = env.step(0);
        }
        assert!(env.oxygen < MAX_OXYGEN);
        for _ in 0..GRID {
            if env.done {
                break;
            }
            let _ = env.step(1); // swim up
        }
        if !env.done {
            assert_eq!(env.oxygen, MAX_OXYGEN);
        }
    }

    #[test]
    fn oxygen_bar_shrinks_in_observation() {
        let mut env = Seaquest::new(4);
        let obs0 = env.reset();
        let bar = |obs: &[f32]| -> f32 { obs[4 * GRID * GRID..4 * GRID * GRID + GRID].iter().sum() };
        let full = bar(&obs0);
        let mut last = obs0;
        for _ in 0..30 {
            let out = env.step(2); // stay deep
            if out.done {
                return; // killed by a fish first; bar check not applicable
            }
            last = out.observation;
        }
        assert!(bar(&last) < full);
    }
}
