//! Beam Rider: lane-locked ship shooting descending enemies.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const BEAMS: [isize; 5] = [2, 4, 6, 8, 10];
const SHIP_ROW: isize = GRID as isize - 1;

#[derive(Debug, Clone, Copy)]
struct Enemy {
    row: isize,
    beam: usize,
}

/// Beam Rider stand-in: the ship slides between five beams; enemies descend
/// along beams and must be shot (`+1`, sector bonus every 15 kills).
/// An enemy reaching the ship's row on its beam ends the episode.
///
/// Actions: `0` no-op, `1` beam-left, `2` beam-right, `3` fire.
#[derive(Debug, Clone)]
pub struct BeamRider {
    rng: StdRng,
    ship_beam: usize,
    enemies: Vec<Enemy>,
    shots: Vec<(isize, usize)>,
    kills: u32,
    sector: u32,
    clock: u32,
    done: bool,
}

impl BeamRider {
    /// Create a seeded Beam Rider game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        BeamRider {
            rng: StdRng::seed_from_u64(seed),
            ship_beam: 2,
            enemies: Vec::new(),
            shots: Vec::new(),
            kills: 0,
            sector: 1,
            clock: 0,
            done: true,
        }
    }

    fn spawn_period(&self) -> u32 {
        5 - self.sector.min(3)
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(4, GRID, GRID);
        // Beams are faint static guides on plane 0.
        for &b in &BEAMS {
            for r in 0..GRID as isize {
                canvas.paint(0, r, b, 0.3);
            }
        }
        canvas.paint(1, SHIP_ROW, BEAMS[self.ship_beam], 1.0);
        for e in &self.enemies {
            canvas.paint(2, e.row, BEAMS[e.beam], 1.0);
        }
        for &(r, b) in &self.shots {
            canvas.paint(3, r, BEAMS[b], 1.0);
        }
        canvas.into_observation()
    }
}

impl Environment for BeamRider {
    fn name(&self) -> &str {
        "BeamRider"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (4, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        4
    }

    fn reset(&mut self) -> Vec<f32> {
        self.ship_beam = 2;
        self.enemies.clear();
        self.shots.clear();
        self.kills = 0;
        self.sector = 1;
        self.clock = 0;
        self.done = false;
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        match action {
            1 => self.ship_beam = self.ship_beam.saturating_sub(1),
            2 => self.ship_beam = (self.ship_beam + 1).min(BEAMS.len() - 1),
            3 if self.shots.len() < 2 => {
                self.shots.push((SHIP_ROW - 1, self.ship_beam));
            }
            _ => {}
        }

        let mut reward = 0.0f32;

        // Shots travel up two cells per step; check hits cell-by-cell.
        let mut surviving_shots = Vec::with_capacity(self.shots.len());
        for (mut r, b) in std::mem::take(&mut self.shots) {
            let mut live = true;
            for _ in 0..2 {
                r -= 1;
                if r < 0 {
                    live = false;
                    break;
                }
                if let Some(i) = self
                    .enemies
                    .iter()
                    .position(|e| e.beam == b && e.row == r)
                {
                    self.enemies.swap_remove(i);
                    self.kills += 1;
                    reward += 1.0;
                    if self.kills.is_multiple_of(15) {
                        reward += 10.0;
                        self.sector += 1;
                    }
                    live = false;
                    break;
                }
            }
            if live {
                surviving_shots.push((r, b));
            }
        }
        self.shots = surviving_shots;

        // Enemies descend every other step.
        if self.clock.is_multiple_of(2) {
            for e in &mut self.enemies {
                e.row += 1;
            }
        }

        // Spawn cadence tightens with the sector.
        if self.clock.is_multiple_of(self.spawn_period().max(1)) && self.enemies.len() < 6 {
            let beam = self.rng.gen_range(0..BEAMS.len());
            self.enemies.push(Enemy { row: 0, beam });
        }

        // Enemy reaching the ship row: fatal on the ship's beam, despawns
        // otherwise.
        let ship_beam = self.ship_beam;
        let mut fatal = false;
        self.enemies.retain(|e| {
            if e.row >= SHIP_ROW {
                if e.beam == ship_beam {
                    fatal = true;
                }
                false
            } else {
                true
            }
        });
        if fatal {
            self.done = true;
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("BeamRider");
        w.rng(&self.rng);
        w.usize(self.ship_beam);
        w.usize(self.enemies.len());
        for item in &self.enemies {
            w.isize(item.row);
            w.usize(item.beam);
        }
        w.usize(self.shots.len());
        for item in &self.shots {
            w.isize(item.0);
            w.usize(item.1);
        }
        w.u32(self.kills);
        w.u32(self.sector);
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "BeamRider")?;
        self.rng = r.rng()?;
        self.ship_beam = r.usize()?;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Enemy { row: r.isize()?, beam: r.usize()? });
        }
        self.enemies = items;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((r.isize()?, r.usize()?));
        }
        self.shots = items;
        self.kills = r.u32()?;
        self.sector = r.u32()?;
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
        assert_deterministic(BeamRider::new(51), BeamRider::new(51), 400);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = BeamRider::new(1);
        let total = random_rollout(&mut env, 1200, 9);
        assert!(total >= 0.0);
    }

    #[test]
    fn firing_down_the_spawn_beam_scores() {
        let mut env = BeamRider::new(2);
        let _ = env.reset();
        let mut total = 0.0;
        for i in 0..400 {
            // Sweep beams while firing constantly.
            let action = match i % 4 {
                0 | 2 => 3,
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
    fn beam_index_clamps_at_edges() {
        let mut env = BeamRider::new(3);
        let _ = env.reset();
        for _ in 0..10 {
            let _ = env.step(1);
            if env.done {
                let _ = env.reset();
            }
        }
        assert_eq!(env.ship_beam, 0);
        for _ in 0..10 {
            let _ = env.step(2);
            if env.done {
                let _ = env.reset();
            }
        }
        assert_eq!(env.ship_beam, BEAMS.len() - 1);
    }
}
