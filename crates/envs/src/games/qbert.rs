//! Q*bert: hop across a pyramid, recolouring cells, dodging the ball.

use crate::env::{Canvas, Environment, StepOutcome};
use crate::state::{EnvState, RestoreError, StateReader, StateWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 7;
const GRID: usize = 12;
const LIVES: u32 = 3;

/// Q*bert stand-in: hop diagonally on a 7-row pyramid. First visit to a
/// cell pays `+1`; completing the pyramid pays `+10` and resets it. A ball
/// spawned at the top bounces down; contact (or hopping off the pyramid)
/// costs a life. Three lives per episode.
///
/// Actions: `0` no-op, `1` up-left, `2` up-right, `3` down-left,
/// `4` down-right (in pyramid coordinates).
#[derive(Debug, Clone)]
pub struct Qbert {
    rng: StdRng,
    /// `visited[r][i]` for pyramid cell `i` of row `r` (row r has r+1 cells).
    visited: Vec<Vec<bool>>,
    player: (usize, usize),
    ball: Option<(usize, usize)>,
    lives: u32,
    clock: u32,
    ball_period: u32,
    done: bool,
}

impl Qbert {
    /// Create a seeded Q*bert game.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Qbert {
            rng: StdRng::seed_from_u64(seed),
            visited: (0..ROWS).map(|r| vec![false; r + 1]).collect(),
            player: (0, 0),
            ball: None,
            lives: LIVES,
            clock: 0,
            ball_period: 10,
            done: true,
        }
    }

    fn cell_to_grid(row: usize, idx: usize) -> (isize, isize) {
        // Centre the pyramid horizontally: row r spans r+1 cells.
        let r = row as isize + 2;
        let c = (GRID as isize - row as isize) / 2 + idx as isize;
        (r, c)
    }

    fn observe(&self) -> Vec<f32> {
        let mut canvas = Canvas::new(4, GRID, GRID);
        for (r, row) in self.visited.iter().enumerate() {
            for (i, &v) in row.iter().enumerate() {
                let (gr, gc) = Self::cell_to_grid(r, i);
                canvas.paint(usize::from(v), gr, gc, 1.0);
            }
        }
        let (pr, pi) = self.player;
        let (gr, gc) = Self::cell_to_grid(pr, pi);
        canvas.paint(2, gr, gc, 1.0);
        if let Some((br, bi)) = self.ball {
            let (gr, gc) = Self::cell_to_grid(br, bi);
            canvas.paint(3, gr, gc, 1.0);
        }
        canvas.into_observation()
    }

    fn all_visited(&self) -> bool {
        self.visited.iter().flatten().all(|&v| v)
    }

    fn respawn_player(&mut self) {
        self.player = (0, 0);
        self.ball = None;
    }

    /// Hop from `(row, idx)` in one of four diagonal directions; `None`
    /// means off the pyramid.
    fn hop(row: usize, idx: usize, action: usize) -> Option<(usize, usize)> {
        let (r, i) = (row as isize, idx as isize);
        let (nr, ni) = match action {
            1 => (r - 1, i - 1), // up-left
            2 => (r - 1, i),     // up-right
            3 => (r + 1, i),     // down-left
            4 => (r + 1, i + 1), // down-right
            _ => (r, i),
        };
        if nr < 0 || nr >= ROWS as isize || ni < 0 || ni > nr {
            None
        } else {
            Some((nr as usize, ni as usize))
        }
    }
}

impl Environment for Qbert {
    fn name(&self) -> &str {
        "Qbert"
    }

    fn observation_shape(&self) -> (usize, usize, usize) {
        (4, GRID, GRID)
    }

    fn action_count(&self) -> usize {
        5
    }

    fn reset(&mut self) -> Vec<f32> {
        self.visited = (0..ROWS).map(|r| vec![false; r + 1]).collect();
        self.respawn_player();
        self.lives = LIVES;
        self.clock = 0;
        self.ball_period = 10;
        self.done = false;
        self.visited[0][0] = true;
        self.observe()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode is over; call reset()");
        assert!(action < self.action_count(), "invalid action {action}");
        self.clock += 1;
        let mut reward = 0.0f32;

        if action != 0 {
            match Self::hop(self.player.0, self.player.1, action) {
                Some((nr, ni)) => {
                    self.player = (nr, ni);
                    if !self.visited[nr][ni] {
                        self.visited[nr][ni] = true;
                        reward += 1.0;
                    }
                }
                None => {
                    // Hopped off the pyramid.
                    self.lives -= 1;
                    if self.lives == 0 {
                        self.done = true;
                    } else {
                        self.respawn_player();
                    }
                }
            }
        }

        if !self.done {
            // Ball lifecycle: spawn at the top, bounce down-randomly, exit
            // at the bottom.
            match self.ball {
                None => {
                    if self.clock.is_multiple_of(self.ball_period) {
                        self.ball = Some((0, 0));
                    }
                }
                Some((br, bi)) => {
                    if br + 1 >= ROWS {
                        self.ball = None;
                    } else {
                        let ni = if self.rng.gen_bool(0.5) { bi } else { bi + 1 };
                        self.ball = Some((br + 1, ni));
                    }
                }
            }
            if self.ball == Some(self.player) {
                self.lives -= 1;
                if self.lives == 0 {
                    self.done = true;
                } else {
                    self.respawn_player();
                }
            }
        }

        if !self.done && self.all_visited() {
            reward += 10.0;
            self.visited = (0..ROWS).map(|r| vec![false; r + 1]).collect();
            self.visited[self.player.0][self.player.1] = true;
            self.ball_period = (self.ball_period - 1).max(4);
        }

        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.done,
        }
    }

    fn snapshot(&self) -> EnvState {
        let mut w = StateWriter::new("Qbert");
        w.rng(&self.rng);
        w.usize(self.visited.len());
        for row in &self.visited {
            w.usize(row.len());
            for &cell in row {
                w.bool(cell);
            }
        }
        w.usize(self.player.0);
        w.usize(self.player.1);
        w.bool(self.ball.is_some());
        if let Some(item) = &self.ball {
            w.usize(item.0);
            w.usize(item.1);
        }
        w.u32(self.lives);
        w.u32(self.clock);
        w.u32(self.ball_period);
        w.bool(self.done);
        w.finish()
    }

    fn restore(&mut self, state: &EnvState) -> Result<(), RestoreError> {
        let mut r = StateReader::new(state, "Qbert")?;
        self.rng = r.rng()?;
        let rows = r.len(4096)?;
        let mut visited = Vec::with_capacity(rows);
        for _ in 0..rows {
            let cols = r.len(4096)?;
            let mut row = Vec::with_capacity(cols);
            for _ in 0..cols {
                row.push(r.bool()?);
            }
            visited.push(row);
        }
        self.visited = visited;
        self.player = (r.usize()?, r.usize()?);
        self.ball = if r.bool()? {
            Some((r.usize()?, r.usize()?))
        } else {
            None
        };
        self.lives = r.u32()?;
        self.clock = r.u32()?;
        self.ball_period = r.u32()?;
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
        assert_deterministic(Qbert::new(41), Qbert::new(41), 300);
    }

    #[test]
    fn smoke_random_rollout() {
        let mut env = Qbert::new(1);
        let total = random_rollout(&mut env, 1000, 8);
        assert!(total >= 0.0);
    }

    #[test]
    fn first_visits_pay_once() {
        let mut env = Qbert::new(2);
        let _ = env.reset();
        let down = env.step(4);
        assert_eq!(down.reward, 1.0);
        let up = env.step(2);
        // Back to (0,0), already visited at reset.
        assert_eq!(up.reward, 0.0);
        assert_eq!(env.player, (0, 0));
    }

    #[test]
    fn hopping_off_pyramid_costs_life() {
        let mut env = Qbert::new(3);
        let _ = env.reset();
        let lives = env.lives;
        let _ = env.step(1); // up-left from the apex is off-pyramid
        assert_eq!(env.lives, lives - 1);
        assert_eq!(env.player, (0, 0));
    }

    #[test]
    fn hop_geometry() {
        assert_eq!(Qbert::hop(3, 1, 1), Some((2, 0)));
        assert_eq!(Qbert::hop(3, 1, 2), Some((2, 1)));
        assert_eq!(Qbert::hop(3, 1, 3), Some((4, 1)));
        assert_eq!(Qbert::hop(3, 1, 4), Some((4, 2)));
        assert_eq!(Qbert::hop(0, 0, 1), None);
        assert_eq!(Qbert::hop(6, 0, 3), None);
        assert_eq!(Qbert::hop(2, 2, 2), Some((1, 2)).filter(|&(r, i)| i <= r));
    }

    #[test]
    fn pyramid_cells_fit_on_canvas() {
        for r in 0..ROWS {
            for i in 0..=r {
                let (gr, gc) = Qbert::cell_to_grid(r, i);
                assert!((0..GRID as isize).contains(&gr));
                assert!((0..GRID as isize).contains(&gc), "row {r} idx {i} -> col {gc}");
            }
        }
    }
}
