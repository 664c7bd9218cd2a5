//! Resumable search-state checkpoints for the co-search loop.
//!
//! A [`SearchCheckpoint`] captures *everything* the loop in
//! [`crate::CoSearch`] mutates — supernet weights `θ` and architecture
//! logits `α`, both optimiser states, the DAS `φ` distribution and RNG,
//! every rollout lane's environment state and action RNG stream, the
//! step/iteration counters and the diagnostic curves — so a run killed at
//! any iteration boundary resumes **bit-identically** to one that never
//! stopped (the contract established in `DESIGN.md` §9 makes this provable
//! by equality).
//!
//! The snapshot holds the crates' own export types ([`OptimizerState`],
//! [`DasState`], [`RunnerState`], [`SupernetSearchState`]) plus named
//! tensors. At capture the tensors, optimiser buffers and fingerprint are
//! borrowed from the live search and encoded in place, so the iteration's
//! snapshot is its encoded payload; restore decodes that payload into an
//! owned checkpoint and moves its tensors into the model. The one
//! encoding is the binary frame in [`crate::binfmt`], which writes every
//! float as its raw bits: NaN payloads and negative zeros survive exactly.

use crate::config::CoSearchConfig;
use crate::robustness::RobustnessEvent;
use a3cs_accel::DasState;
use a3cs_drl::{sum64, OptimizerState, RunnerState};
use a3cs_nas::SupernetSearchState;
use a3cs_nn::Param;
use a3cs_tensor::Tensor;
use std::borrow::Cow;
use std::cell::Ref;
use std::fmt;

/// Format version of [`SearchCheckpoint`]. Bumped on any layout change;
/// older versions are rejected (never mis-read).
pub const SEARCH_CHECKPOINT_VERSION: u32 = 3;

/// Why a [`SearchCheckpoint`] could not be parsed or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The payload is not a parsable checkpoint of the current version.
    Parse(String),
    /// The checkpoint was produced by a run with a different configuration
    /// or seed, so resuming from it would silently change the experiment.
    Fingerprint {
        /// Fingerprint of the running configuration.
        expected: String,
        /// Fingerprint recorded in the checkpoint.
        found: String,
    },
    /// The checkpoint's shapes do not match the constructed search state.
    Incompatible(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Parse(m) => write!(f, "checkpoint parse error: {m}"),
            CheckpointError::Fingerprint { expected, found } => write!(
                f,
                "checkpoint belongs to a different run: config/seed fingerprint \
                 {found} vs this run's {expected}"
            ),
            CheckpointError::Incompatible(m) => write!(f, "checkpoint incompatible: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One named tensor (parameter or non-learnable state buffer), borrowed
/// from the model at capture and owned after decode.
#[derive(Debug, Clone)]
pub(crate) struct NamedTensor<'a> {
    pub(crate) name: Cow<'a, str>,
    pub(crate) value: Cow<'a, Tensor>,
}

/// A complete snapshot of the co-search loop state, taken at an iteration
/// boundary. See the module docs for what it covers.
#[derive(Debug, Clone)]
pub struct SearchCheckpoint<'a> {
    /// [`config_fingerprint`] of the producing configuration (fault plan
    /// and thread count excluded — neither changes the trajectory).
    pub(crate) fingerprint: Cow<'a, str>,
    pub(crate) seed: u64,
    pub(crate) steps: u64,
    pub(crate) iteration: u64,
    pub(crate) next_eval: u64,
    pub(crate) score_curve: Vec<(u64, f32)>,
    pub(crate) entropy_curve: Vec<(u64, f32)>,
    /// Learnable parameters of the agent (supernet weights + heads).
    pub(crate) weight_params: Vec<NamedTensor<'a>>,
    /// Non-learnable state tensors (e.g. batch-norm running statistics).
    pub(crate) state_tensors: Vec<NamedTensor<'a>>,
    pub(crate) supernet: SupernetSearchState,
    pub(crate) weight_opt: OptimizerState<'a>,
    pub(crate) alpha_opt: OptimizerState<'a>,
    pub(crate) das: DasState,
    pub(crate) train_runner: RunnerState,
    pub(crate) val_runner: Option<RunnerState>,
    pub(crate) lr_scale: f32,
    pub(crate) rollbacks_left: u32,
    pub(crate) events: Vec<RobustnessEvent>,
}

impl SearchCheckpoint<'_> {
    /// Serialise to the binary payload the checkpoint store frames.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::binfmt::encode(self, 0)
    }

    /// Parse a payload written by [`SearchCheckpoint::to_bytes`] into a
    /// checkpoint that owns all of its data.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] on a malformed payload or a version
    /// mismatch.
    pub fn decode(payload: &[u8]) -> Result<SearchCheckpoint<'static>, CheckpointError> {
        crate::binfmt::decode(payload)
    }

    /// Environment steps consumed at capture time.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Co-search iteration at capture time.
    #[must_use]
    pub fn iteration(&self) -> u64 {
        self.iteration
    }
}

/// Identity of a run for resume-compatibility checks: a [`sum64`] over
/// the configuration with the fault plan and thread count normalised out
/// (neither affects the search trajectory).
#[must_use]
pub fn config_fingerprint(config: &CoSearchConfig) -> String {
    let mut normalized = config.clone();
    normalized.threads = None;
    normalized.fault = crate::fault::FaultConfig::default();
    format!("{:016x}", sum64(format!("{normalized:?}").as_bytes()))
}

/// Name each of `params` with the value borrowed in `values` (one
/// [`Param::value_ref`] per parameter, in order), for in-place encoding.
pub(crate) fn named_tensors<'a>(
    params: &'a [Param],
    values: &'a [Ref<'a, Tensor>],
) -> Vec<NamedTensor<'a>> {
    params
        .iter()
        .zip(values)
        .map(|(p, value)| NamedTensor {
            name: Cow::Borrowed(p.name()),
            value: Cow::Borrowed(&**value),
        })
        .collect()
}

pub(crate) fn apply_tensors(
    tensors: Vec<NamedTensor<'_>>,
    params: &[Param],
    what: &str,
) -> Result<(), CheckpointError> {
    if tensors.len() != params.len() {
        return Err(CheckpointError::Incompatible(format!(
            "{what}: checkpoint has {} tensors, model has {}",
            tensors.len(),
            params.len()
        )));
    }
    // Validate the whole list before mutating anything.
    for (t, p) in tensors.iter().zip(params) {
        if t.name != p.name() || t.value.shape() != p.shape() {
            return Err(CheckpointError::Incompatible(format!(
                "{what}: checkpoint tensor {:?} {:?} vs model {:?} {:?}",
                t.name,
                t.value.shape(),
                p.name(),
                p.shape()
            )));
        }
    }
    for (t, p) in tensors.into_iter().zip(params) {
        p.set_value(t.value.into_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robustness::RobustnessEventKind;
    use a3cs_envs::EnvState;
    use proptest::prelude::*;

    fn tensor_strategy() -> impl Strategy<Value = NamedTensor<'static>> {
        (1usize..5, prop::collection::vec(any::<u32>(), 1..6)).prop_map(|(d, bits)| {
            let n = bits.len();
            let data = bits.into_iter().map(f32::from_bits).collect();
            NamedTensor {
                name: Cow::Owned(format!("t{d}")),
                value: Cow::Owned(Tensor::from_vec(data, &[n]).expect("length matches shape")),
            }
        })
    }

    fn env_strategy() -> impl Strategy<Value = EnvState> {
        (
            prop::collection::vec(any::<i64>(), 0..6),
            prop::collection::vec(any::<u32>(), 0..6),
        )
            .prop_map(|(ints, floats)| {
                let floats = floats.into_iter().map(f32::from_bits).collect();
                let leaf = EnvState::from_parts("Env".to_string(), ints, floats, Vec::new());
                EnvState::from_parts("Wrapper".to_string(), vec![-1], Vec::new(), vec![leaf])
            })
    }

    /// A checkpoint exercising every field: tensors, nested env states,
    /// optimizer slots, RNG words, f64 scalars, curves, events. Scalar
    /// fields hold fixed values; the strategy below randomises them.
    fn build_checkpoint(
        tensors: Vec<NamedTensor<'static>>,
        envs: Vec<EnvState>,
        scalar_bits: Vec<u64>,
    ) -> SearchCheckpoint<'static> {
        let rng = [1, u64::MAX, 3, 1 << 63];
        let scalars: Vec<f64> = scalar_bits.into_iter().map(f64::from_bits).collect();
        let n_envs = envs.len();
        SearchCheckpoint {
            fingerprint: Cow::Borrowed("deadbeefdeadbeef"),
            seed: 7,
            steps: 300,
            iteration: 15,
            next_eval: 800,
            score_curve: vec![(100, 0.5), (200, -0.0)],
            entropy_curve: vec![(100, f32::from_bits(7))],
            weight_params: tensors.clone(),
            state_tensors: tensors,
            supernet: SupernetSearchState {
                alpha: vec![vec![1.0, -0.0, f32::NAN], vec![4.0, 5.0, 6.0]],
                gumbel_rng: rng,
                step: 300,
            },
            weight_opt: OptimizerState {
                kind: Cow::Borrowed("rmsprop"),
                lr: 0.01,
                keys: vec![(Cow::Borrowed("w"), Cow::Owned(vec![2]))],
                slots: vec![vec![Cow::Owned(vec![9.0, 10.0])]],
                scalars: Vec::new(),
            },
            alpha_opt: OptimizerState {
                kind: Cow::Borrowed("adam"),
                lr: 0.01,
                keys: Vec::new(),
                slots: vec![Vec::new(), Vec::new()],
                scalars: scalars.clone(),
            },
            das: DasState {
                logits: vec![scalars],
                rng,
                baseline: Some(f64::from_bits((11 << 32) | 12)),
                temperature: f64::from_bits((13 << 32) | 14),
            },
            train_runner: RunnerState {
                envs,
                lane_rngs: vec![rng; n_envs],
                current_obs: vec![vec![15.0, f32::NEG_INFINITY]; n_envs],
            },
            val_runner: None,
            lr_scale: 1.0,
            rollbacks_left: 1,
            events: vec![RobustnessEvent {
                iteration: 3,
                kind: RobustnessEventKind::FaultInjected,
                detail: "nan loss".to_string(),
            }],
        }
    }

    fn checkpoint_strategy() -> impl Strategy<Value = SearchCheckpoint<'static>> {
        (
            (any::<u64>(), any::<u64>()),
            prop::collection::vec(tensor_strategy(), 0..4),
            prop::collection::vec(env_strategy(), 1..4),
            prop::collection::vec(any::<u64>(), 0..4),
            (any::<u32>(), any::<u32>(), 0u32..10),
        )
            .prop_map(|((seed, steps), tensors, envs, scalars, (lr, scale, rb))| {
                let mut ck = build_checkpoint(tensors, envs, scalars);
                ck.seed = seed;
                ck.steps = steps;
                ck.weight_opt.lr = f32::from_bits(lr);
                ck.score_curve.push((steps, f32::from_bits(lr)));
                ck.lr_scale = f32::from_bits(scale);
                ck.rollbacks_left = rb;
                ck
            })
    }

    fn one_env(tag: &str) -> Vec<EnvState> {
        vec![EnvState::from_parts(tag.to_string(), Vec::new(), Vec::new(), Vec::new())]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The binary payload round-trips the full checkpoint exactly —
        /// arbitrary bit patterns cover NaN payloads, infinities and
        /// negative zeros in every float-carrying field, and 64-bit words
        /// above 2^53. The encoding writes every bit, so re-encoding the
        /// decoded checkpoint reproduces the payload byte for byte.
        #[test]
        fn search_checkpoint_binary_round_trip(ck in checkpoint_strategy()) {
            let bytes = ck.to_bytes();
            let back = SearchCheckpoint::decode(&bytes);
            prop_assert!(back.is_ok(), "{:?}", back.err());
            let is_equal = back.ok().map(|b| b.to_bytes()) == Some(bytes);
            prop_assert!(is_equal, "checkpoint changed across the binary round trip");
        }

        /// Truncating a binary payload at any point yields a parse error,
        /// never a panic.
        #[test]
        fn truncated_binary_checkpoint_is_a_parse_error(
            ck in checkpoint_strategy(),
            cut in 0usize..4096,
        ) {
            let bytes = ck.to_bytes();
            let cut = cut.min(bytes.len().saturating_sub(1));
            let err = SearchCheckpoint::decode(&bytes[..cut]);
            prop_assert!(matches!(err, Err(CheckpointError::Parse(_))), "{err:?}");
        }
    }

    #[test]
    fn decode_keeps_nan_bits_and_wide_words() {
        let nan_bits = f32::NAN.to_bits() | 0xdead; // a NaN with a payload
        let env = EnvState::from_parts(
            "Env".to_string(),
            vec![i64::MIN, -7],
            vec![f32::from_bits(nan_bits)],
            Vec::new(),
        );
        let tensor = NamedTensor {
            name: Cow::Borrowed("w"),
            value: Cow::Owned(
                Tensor::from_vec(vec![f32::from_bits(nan_bits), f32::NEG_INFINITY], &[2])
                    .expect("shape"),
            ),
        };
        let mut ck = build_checkpoint(vec![tensor], vec![env], vec![u64::MAX]);
        ck.seed = u64::MAX - 1;
        ck.weight_opt.lr = f32::from_bits(nan_bits);
        let back = SearchCheckpoint::decode(&ck.to_bytes()).expect("binary decodes");
        assert_eq!(back.seed, u64::MAX - 1);
        assert_eq!(back.weight_params[0].value.data()[0].to_bits(), nan_bits);
        assert_eq!(back.train_runner.envs[0].ints(), &[i64::MIN, -7]);
        assert_eq!(back.train_runner.envs[0].floats()[0].to_bits(), nan_bits);
        assert_eq!(back.das.logits[0][0].to_bits(), u64::MAX);
        assert_eq!(back.weight_opt.lr.to_bits(), nan_bits);
        assert_eq!(back.to_bytes(), ck.to_bytes());
    }

    #[test]
    fn decode_rejects_other_versions() {
        let mut bytes = build_checkpoint(Vec::new(), one_env("Env"), Vec::new()).to_bytes();
        // The version word follows the 8-byte magic.
        bytes[8..12].copy_from_slice(&(SEARCH_CHECKPOINT_VERSION + 1).to_le_bytes());
        let err = SearchCheckpoint::decode(&bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
    }

    #[test]
    fn decode_rejects_garbage() {
        for garbage in [&b"not a checkpoint"[..], b"{\"version\": 2}", b""] {
            assert!(matches!(
                SearchCheckpoint::decode(garbage),
                Err(CheckpointError::Parse(_))
            ));
        }
    }

    #[test]
    fn deeply_nested_env_states_are_a_parse_error_not_a_stack_overflow() {
        // Splice 200,000 wrapper levels around the one leaf env state of a
        // valid payload (~3.4 MB). Real states nest one level per wrapper.
        let bytes = build_checkpoint(Vec::new(), one_env("X"), Vec::new()).to_bytes();
        // tag "X", no ints, no floats, then the inner-list length.
        let leaf_bytes = [1, 0, 0, 0, b'X', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let at = bytes
            .windows(leaf_bytes.len())
            .position(|w| w == leaf_bytes)
            .expect("the leaf env state is in the payload");
        let mut wrapper = leaf_bytes;
        wrapper[13] = 1; // one inner state
        let mut nested = bytes[..at].to_vec();
        for _ in 0..200_000 {
            nested.extend_from_slice(&wrapper);
        }
        nested.extend_from_slice(&bytes[at..]);
        assert!(nested.len() > 3_000_000);
        let err = SearchCheckpoint::decode(&nested).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
    }

    #[test]
    fn fingerprint_ignores_threads_and_fault_plan() {
        let base = CoSearchConfig::tiny(3, 12, 12, 3);
        let mut threaded = base.clone();
        threaded.threads = Some(2);
        let mut faulted = base.clone();
        faulted.fault.plan = crate::fault::FaultPlan::none().abort_at(3);
        faulted.fault.sentinel = true;
        let mut different = base.clone();
        different.total_steps += 1;

        assert_eq!(config_fingerprint(&base), config_fingerprint(&threaded));
        assert_eq!(config_fingerprint(&base), config_fingerprint(&faulted));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&different));
    }
}
