//! Atlantis: three fixed cannons defend a city against crossing raiders.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const CITY_HP: u32 = 10;
/// Column bands covered by the left/centre/right cannons.
const BANDS: [(isize, isize); 3] = [(0, 3), (4, 7), (8, 11)];
const COOLDOWN: u32 = 2;

#[derive(Debug, Clone, Copy)]
struct Raider {
    row: isize,
    col: isize,
    dir: isize,
}

/// Atlantis stand-in: raiders cross the upper rows; three cannons each
/// cover a column band and, when fired, destroy the lowest raider in their
/// band (`+1`). Raiders that exit untouched damage the city; ten hits end
/// the episode. Deliberately easy — matching the paper's observation that
/// even the Vanilla network scores millions on Atlantis.
///
/// Actions: `0` no-op, `1` fire-left, `2` fire-centre, `3` fire-right.
#[derive(Debug, Clone)]
pub struct Atlantis {
    rng: StdRng,
    raiders: Vec<Raider>,
    cooldowns: [u32; 3],
    city_hp: u32,
    clock: u32,
    done: bool,
}

impl Atlantis {
    /// Create a seeded Atlantis game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Atlantis {
            rng: StdRng::seed_from_u64(seed),
            raiders: Vec::new(),
            cooldowns: [0; 3],
            city_hp: CITY_HP,
            clock: 0,
            done: true,
        }
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(3, GRID, GRID);
        for r in &self.raiders {
            canvas.paint(0, r.row, r.col, 1.0);
        }
        // Cannons at the bottom of plane 1 (static, with cooldown dimming).
        for (i, &(lo, hi)) in BANDS.iter().enumerate() {
            let col = (lo + hi) / 2;
            let v = if self.cooldowns[i] == 0 { 1.0 } else { 0.4 };
            canvas.paint(1, GRID as isize - 1, col, v);
        }
        // City HP bar.
        for c in 0..self.city_hp as usize {
            canvas.paint(2, GRID as isize - 1, c as isize, 1.0);
        }
        canvas.into_observation()
    }
}

impl Environment for Atlantis {
    fn name(&self) -> &str {
        "Atlantis"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (3, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        4
    }

    fn reset(&mut self) -> Vec<f32> {
        self.raiders.clear();
        self.cooldowns = [0; 3];
        self.city_hp = CITY_HP;
        self.clock = 0;
        self.done = false;
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        let mut reward = 0.0f32;

        for cd in &mut self.cooldowns {
            *cd = cd.saturating_sub(1);
        }

        if (1..=3).contains(&action) {
            let cannon = action - 1;
            if self.cooldowns[cannon] == 0 {
                self.cooldowns[cannon] = COOLDOWN;
                let (lo, hi) = BANDS[cannon];
                // Destroy the lowest (most threatening) raider in the band.
                if let Some(i) = self
                    .raiders
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.col >= lo && r.col <= hi)
                    .max_by_key(|(_, r)| r.row)
                    .map(|(i, _)| i)
                {
                    self.raiders.swap_remove(i);
                    reward += 1.0;
                }
            }
        }

        // Raiders cross; untouched exits damage the city.
        let mut escaped = 0;
        self.raiders.retain_mut(|r| {
            r.col += r.dir;
            if (0..GRID as isize).contains(&r.col) {
                true
            } else {
                escaped += 1;
                false
            }
        });
        if escaped > 0 {
            self.city_hp = self.city_hp.saturating_sub(escaped);
            if self.city_hp == 0 {
                self.done = true;
            }
        }

        // Spawns.
        if self.clock.is_multiple_of(3) && self.raiders.len() < 5 {
            let dir = if self.rng.gen_bool(0.5) { 1 } else { -1 };
            self.raiders.push(Raider {
                row: self.rng.gen_range(1..5),
                col: if dir > 0 { 0 } else { GRID as isize - 1 },
                dir,
            });
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("Atlantis");
        w.rng(&self.rng);
        w.usize(self.raiders.len());
        for item in &self.raiders {
            w.isize(item.row);
            w.isize(item.col);
            w.isize(item.dir);
        }
        for item in &self.cooldowns {
            w.u32(*item);
        }
        w.u32(self.city_hp);
        w.u32(self.clock);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "Atlantis")?;
        self.rng = r.rng()?;
        let n = r.len(4096)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Raider { row: r.isize()?, col: r.isize()?, dir: r.isize()? });
        }
        self.raiders = items;
        for item in &mut self.cooldowns {
            *item = r.u32()?;
        }
        self.city_hp = r.u32()?;
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
        assert_deterministic(Atlantis::new(81), Atlantis::new(81), 400);
    }

    #[test]
    fn random_play_scores_easily() {
        let mut env = Atlantis::new(1);
        let total = random_rollout(&mut env, 800, 12);
        assert!(total > 0.0, "Atlantis is easy; random fire should score");
    }

    #[test]
    fn idle_city_falls() {
        let mut env = Atlantis::new(2);
        let _ = env.reset();
        let mut steps = 0;
        loop {
            steps += 1;
            if env.step(0).done {
                break;
            }
            assert!(steps < 5000);
        }
    }

    #[test]
    fn cooldown_limits_fire_rate() {
        let mut env = Atlantis::new(3);
        let _ = env.reset();
        // Let raiders accumulate.
        for _ in 0..6 {
            let _ = env.step(0);
        }
        let r1 = env.step(2).reward;
        let r2 = env.step(2).reward; // still cooling down
        assert!(r1 >= r2, "second immediate shot cannot outscore the first");
    }

    #[test]
    fn rotating_fire_sustains_defense_longer_than_idle() {
        let lifetime = |fire: bool, seed: u64| {
            let mut env = Atlantis::new(seed);
            let _ = env.reset();
            let mut steps = 0u32;
            loop {
                steps += 1;
                let a = if fire { 1 + (steps as usize % 3) } else { 0 };
                if env.step(a).done || steps > 3000 {
                    return steps;
                }
            }
        };
        assert!(lifetime(true, 5) > lifetime(false, 5));
    }
}
