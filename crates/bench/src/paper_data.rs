//! Reference numbers quoted from the paper, used for side-by-side
//! paper-vs-measured reporting. Absolute values are not comparable (the
//! paper runs 3×10⁷-step ALE training and a physical ZC706); only the
//! *shape* — orderings, ratios, crossovers — is the reproduction target.

/// Table I: highest test scores on ALE for the five hand-designed
/// backbones, for the games this reproduction also implements.
/// Order: (game, Vanilla, ResNet-14, ResNet-20, ResNet-38, ResNet-74).
pub const TABLE1: &[(&str, [f64; 5])] = &[
    ("Breakout", [523.7, 776.5, 811.0, 818.5, 2.2]),
    ("Alien", [1724.0, 9007.0, 9323.0, 8829.0, 4456.0]),
    ("Asterix", [4850.0, 708_500.0, 856_800.0, 756_120.0, 539_060.0]),
    ("Atlantis", [3_064_320.0, 3_127_390.0, 3_156_130.0, 3_181_090.0, 3_046_490.0]),
    ("TimePilot", [4780.0, 9070.0, 9680.0, 9500.0, 9040.0]),
    ("SpaceInvaders", [1171.0, 9848.0, 46_870.0, 17_962.0, 15_111.0]),
    ("WizardOfWor", [1320.0, 2690.0, 3580.0, 3160.0, 1850.0]),
    ("Tennis", [-23.7, 13.8, 11.5, 19.6, 19.3]),
    ("Asteroids", [2095.0, 5690.0, 5744.0, 1947.0, 4792.0]),
    ("Assault", [10_164.0, 14_470.0, 17_314.0, 12_406.5, 9849.0]),
    ("BattleZone", [7600.0, 5800.0, 13_100.0, 13_300.0, 4100.0]),
    ("BeamRider", [5530.0, 23_984.0, 25_961.0, 29_498.0, 30_048.0]),
    ("Bowling", [28.1, 53.0, 59.2, 33.2, 50.8]),
    ("Boxing", [4.2, 100.0, 100.0, 99.3, 87.1]),
    ("Centipede", [5025.0, 6690.0, 6410.0, 6384.6, 6899.0]),
    ("ChopperCommand", [1320.0, 11_170.0, 14_910.0, 4370.0, 8240.0]),
];

/// Table II: `(game, vanilla [none, policy-only, AC], resnet14 [same])` for
/// the games this reproduction implements.
pub const TABLE2: &[(&str, [f64; 3], [f64; 3])] = &[
    ("Alien", [1724.0, 3096.0, 3419.0], [9007.0, 14_682.0, 15_723.0]),
    (
        "SpaceInvaders",
        [1171.0, 26_821.0, 30_124.0],
        [9848.0, 76_246.0, 111_189.0],
    ),
    ("Asterix", [4850.0, 59_020.0, 64_510.0], [708_500.0, 749_870.0, 849_400.0]),
    ("Asteroids", [2095.0, 4131.0, 4647.0], [5690.0, 15_371.0, 15_947.0]),
    ("Assault", [10_164.0, 8088.4, 9628.5], [14_470.0, 11_697.0, 14_052.0]),
    ("BattleZone", [7600.0, 14_200.0, 14_400.0], [5800.0, 16_300.0, 17_500.0]),
    ("BeamRider", [5530.0, 14_417.0, 21_519.0], [23_984.0, 38_311.0, 39_604.0]),
    ("Boxing", [4.2, 2.8, 100.0], [100.0, 100.0, 100.0]),
    ("Centipede", [5025.0, 5800.0, 6575.5], [6690.0, 7744.3, 8056.9]),
    (
        "ChopperCommand",
        [1320.0, 15_900.0, 19_120.0],
        [11_170.0, 26_320.0, 31_190.0],
    ),
    (
        "CrazyClimber",
        [118_300.0, 138_610.0, 145_700.0],
        [128_710.0, 135_290.0, 138_470.0],
    ),
    (
        "DemonAttack",
        [318_349.0, 463_823.0, 483_490.0],
        [481_818.0, 517_801.0, 521_051.0],
    ),
];

/// A `(score, FPS)` pair as the paper reports it.
pub type ScoreFps = (f64, f64);

/// Table III: FA3C vs A3C-S `(score, FPS)` per game as reported by the
/// paper; FA3C runs everything at 260 FPS.
pub const TABLE3: &[(&str, ScoreFps, ScoreFps)] = &[
    ("BeamRider", (3100.0, 260.0), (36_745.0, 617.7)),
    ("Breakout", (340.0, 260.0), (670.0, 1596.3)),
    ("Pong", (0.0, 260.0), (20.9, 787.4)),
    ("Qbert", (6100.0, 260.0), (15_194.0, 1222.9)),
    ("Seaquest", (170.0, 260.0), (478_940.0, 778.1)),
    ("SpaceInvaders", (830.0, 260.0), (109_417.0, 535.6)),
];

/// Games shown in the paper's Fig. 1 / Fig. 2 style curve plots that this
/// reproduction implements.
pub const CURVE_GAMES: &[&str] = &["Breakout", "Atlantis", "SpaceInvaders", "Pong"];

/// Games used for the Fig. 3 trade-off comparison.
pub const FIG3_GAMES: &[&str] = &["Breakout", "Pong", "SpaceInvaders", "Qbert"];

#[cfg(test)]
mod tests {
    use super::*;
    use a3cs_envs::game_names;

    #[test]
    fn quoted_games_exist_in_the_simulator() {
        let known = game_names();
        for (game, _) in TABLE1 {
            assert!(known.contains(game), "{game} missing from simulator");
        }
        for (game, _, _) in TABLE2 {
            assert!(known.contains(game), "{game} missing from simulator");
        }
        for (game, _, _) in TABLE3 {
            assert!(known.contains(game), "{game} missing from simulator");
        }
        for game in CURVE_GAMES.iter().chain(FIG3_GAMES) {
            assert!(known.contains(game), "{game} missing from simulator");
        }
    }

    #[test]
    fn table3_fa3c_runs_at_260_fps() {
        for (_, (_, fps), _) in TABLE3 {
            assert_eq!(*fps, 260.0);
        }
    }

    #[test]
    fn table2_ac_distillation_wins_on_most_rows() {
        // The paper's observation: AC-distillation is best on most tasks.
        let mut wins = 0;
        for (_, v, r) in TABLE2 {
            if v[2] >= v[0] && v[2] >= v[1] {
                wins += 1;
            }
            if r[2] >= r[0] && r[2] >= r[1] {
                wins += 1;
            }
        }
        assert!(wins >= TABLE2.len(), "paper data itself shows AC wins");
    }
}
