//! Asterix: lane-crossing item collection with hazards.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::games::clamp;
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 12;
const FIRST_LANE: isize = 2;
const LANES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObjectKind {
    Reward,
    Hazard,
}

#[derive(Debug, Clone, Copy)]
struct LaneObject {
    col: isize,
    dir: isize,
    kind: ObjectKind,
}

/// Asterix stand-in: eight horizontal lanes each carry one moving object —
/// a reward (`+1`, respawns) or a hazard (instant death). The agent weaves
/// through lanes to collect and dodge.
///
/// Actions: `0` no-op, `1` up, `2` down, `3` left, `4` right.
#[derive(Debug, Clone)]
pub struct Asterix {
    rng: StdRng,
    player: (isize, isize),
    lanes: [LaneObject; LANES],
    done: bool,
}

impl Asterix {
    /// Create a seeded Asterix game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Asterix {
            rng: StdRng::seed_from_u64(seed),
            player: (GRID as isize - 1, GRID as isize / 2),
            lanes: [LaneObject {
                col: 0,
                dir: 1,
                kind: ObjectKind::Reward,
            }; LANES],
            done: true,
        }
    }

    fn respawn_lane(&mut self, lane: usize) {
        let dir = if lane.is_multiple_of(2) { 1 } else { -1 };
        self.lanes[lane] = LaneObject {
            col: if dir > 0 { 0 } else { GRID as isize - 1 },
            dir,
            kind: if self.rng.gen_bool(0.6) {
                ObjectKind::Reward
            } else {
                ObjectKind::Hazard
            },
        };
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(3, GRID, GRID);
        canvas.paint(0, self.player.0, self.player.1, 1.0);
        for (lane, obj) in self.lanes.iter().enumerate() {
            let row = FIRST_LANE + lane as isize;
            let plane = match obj.kind {
                ObjectKind::Reward => 1,
                ObjectKind::Hazard => 2,
            };
            canvas.paint(plane, row, obj.col, 1.0);
        }
        canvas.into_observation()
    }

    fn collision(&self) -> Option<ObjectKind> {
        let (pr, pc) = self.player;
        let lane = pr - FIRST_LANE;
        if (0..LANES as isize).contains(&lane) {
            let obj = self.lanes[lane as usize];
            if obj.col == pc {
                return Some(obj.kind);
            }
        }
        None
    }
}

impl Environment for Asterix {
    fn name(&self) -> &str {
        "Asterix"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (3, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        5
    }

    fn reset(&mut self) -> Vec<f32> {
        self.player = (GRID as isize - 1, GRID as isize / 2);
        for lane in 0..LANES {
            self.respawn_lane(lane);
            // Stagger starting columns so the board is not synchronised.
            self.lanes[lane].col = self.rng.gen_range(0..GRID as isize);
        }
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
        self.player.0 = clamp(self.player.0 + dr, 0, GRID as isize - 1);
        self.player.1 = clamp(self.player.1 + dc, 0, GRID as isize - 1);

        let mut reward = 0.0f32;
        // Check collision both before and after objects move (crossing paths).
        let mut hits = Vec::new();
        if let Some(kind) = self.collision() {
            hits.push(kind);
        }
        for lane in 0..LANES {
            let obj = &mut self.lanes[lane];
            obj.col += obj.dir;
            if obj.col < 0 || obj.col >= GRID as isize {
                self.respawn_lane(lane);
            }
        }
        if let Some(kind) = self.collision() {
            hits.push(kind);
        }
        for (i, kind) in hits.iter().enumerate() {
            match kind {
                ObjectKind::Reward => {
                    reward += 1.0;
                    let lane = (self.player.0 - FIRST_LANE) as usize;
                    self.respawn_lane(lane);
                    // A respawned object cannot be re-collected this step.
                    let _ = i;
                }
                ObjectKind::Hazard => {
                    self.done = true;
                    break;
                }
            }
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("Asterix");
        w.rng(&self.rng);
        w.isize(self.player.0);
        w.isize(self.player.1);
        for item in &self.lanes {
            w.isize(item.col);
            w.isize(item.dir);
            w.int(match item.kind { ObjectKind::Reward => 0, ObjectKind::Hazard => 1 });
        }
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "Asterix")?;
        self.rng = r.rng()?;
        self.player = (r.isize()?, r.isize()?);
        for item in &mut self.lanes {
            *item = LaneObject { col: r.isize()?, dir: r.isize()?, kind: match r.int()? {
                0 => ObjectKind::Reward,
                1 => ObjectKind::Hazard,
                v => return Err(r.out_of_range(format!("unknown ObjectKind {v}"))),
            } };
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
        assert_deterministic(Asterix::new(13), Asterix::new(13), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = Asterix::new(2);
        let total = random_rollout(&mut env, 1000, 6);
        assert!(total >= 0.0);
    }

    #[test]
    fn staying_outside_lanes_is_safe() {
        let mut env = Asterix::new(3);
        let _ = env.reset();
        // Bottom row (row 11) has no lane; idling there never dies.
        for _ in 0..300 {
            let out = env.step(0);
            assert!(!out.done);
            assert_eq!(out.reward, 0.0);
        }
    }

    #[test]
    fn lane_objects_wrap_by_respawning() {
        let mut env = Asterix::new(4);
        let _ = env.reset();
        for _ in 0..GRID * 3 {
            let _ = env.step(0);
        }
        for obj in &env.lanes {
            assert!((0..GRID as isize).contains(&obj.col));
        }
    }
}
