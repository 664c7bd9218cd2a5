//! Length-prefixed binary encoding of [`SearchCheckpoint`] — the payload
//! every checkpoint frame carries.
//!
//! Fields are little-endian words behind an 8-byte magic and the
//! [`SEARCH_CHECKPOINT_VERSION`] word. Floats travel as their raw bits and
//! 64-bit values (RNG words, `f64`s, counters) as whole `u64` words, so NaN
//! payloads, negative zeros and values above 2⁵³ survive exactly.
//!
//! Everything that grows per iteration — the score/entropy curves and the
//! robustness event log — sits at the *tail*, after the fixed-size tensor
//! region, so consecutive checkpoints stay byte-aligned and their XOR delta
//! (the durability layer's diff primitive) is sparse instead of shifted
//! garbage.
//!
//! The codec is hand-rolled (no new dependencies) and total: every read is
//! bounds-checked, list lengths are checked against the bytes left before
//! anything is allocated, and environment-state nesting is bounded, so
//! crafted input surfaces [`CheckpointError::Parse`], never a panic.
//! Float lists — nearly all of a payload — are written and read in bulk,
//! straight between the tensors and a buffer sized by the caller.

use crate::checkpoint::{
    CheckpointError, NamedTensor, SearchCheckpoint, SEARCH_CHECKPOINT_VERSION,
};
use crate::robustness::{RobustnessEvent, RobustnessEventKind};
use a3cs_accel::DasState;
use a3cs_drl::{OptimizerState, RunnerState};
use a3cs_envs::EnvState;
use a3cs_nas::SupernetSearchState;
use a3cs_tensor::Tensor;
use std::borrow::Cow;

/// Leading bytes of every binary search checkpoint.
const MAGIC: &[u8; 8] = b"A3CSSRCH";

/// Deepest environment-state nesting the decoder accepts. Real states
/// nest one level per wrapper (`a3cs-envs` has four wrapper types), so
/// anything deeper is corrupt — and unbounded recursion would overflow
/// the stack on a crafted payload.
const MAX_ENV_DEPTH: usize = 16;

// --- writer --------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn f32(&mut self, x: f32) {
        self.u32(x.to_bits());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Length prefix for any repeated element. `u32` bounds a single field
    /// at 4 billion elements — far above any real checkpoint.
    fn len(&mut self, n: usize) {
        debug_assert!(
            u32::try_from(n).is_ok(),
            "field length {n} overflows the u32 prefix"
        );
        // a3cs::allow(lossy-cast): guarded above — a field with more than
        // u32::MAX elements cannot exist in memory.
        self.u32(n as u32);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.len(xs.len());
        let start = self.buf.len();
        self.buf.resize(start + 4 * xs.len(), 0);
        for (out, x) in self.buf[start..].as_chunks_mut::<4>().0.iter_mut().zip(xs) {
            *out = x.to_bits().to_le_bytes();
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.len(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }

    fn usizes(&mut self, xs: &[usize]) {
        self.len(xs.len());
        for &x in xs {
            // a3cs::allow(lossy-cast): usize→u64 widens losslessly on
            // every supported platform (usize ≤ 64 bits).
            self.u64(x as u64);
        }
    }

    fn rng(&mut self, words: [u64; 4]) {
        for w in words {
            self.u64(w);
        }
    }

    fn list<T>(&mut self, xs: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.len(xs.len());
        for x in xs {
            put(self, x);
        }
    }
}

// --- reader --------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn parse_error(what: impl std::fmt::Display) -> CheckpointError {
    CheckpointError::Parse(format!("binary checkpoint: {what}"))
}

impl<'a> Reader<'a> {
    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take<const N: usize>(&mut self, what: &str) -> Result<[u8; N], CheckpointError> {
        let bytes = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.get(..N))
            .ok_or_else(|| parse_error(format_args!("truncated reading {what}")))?;
        self.pos += N;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CheckpointError> {
        Ok(self.take::<1>(what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(what)?))
    }

    fn f32(&mut self, what: &str) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    fn f64(&mut self, what: &str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a length prefix for elements of at least `min_bytes` each,
    /// bounded by the bytes actually left: a longer claim is corrupt, not
    /// huge, and is rejected before anything is allocated.
    fn len(&mut self, min_bytes: usize, what: &str) -> Result<usize, CheckpointError> {
        // a3cs::allow(lossy-cast): u32→usize widens losslessly.
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_bytes) > self.left() {
            return Err(parse_error(format_args!(
                "claims {n} elements of {what} with only {} bytes left",
                self.left()
            )));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> Result<String, CheckpointError> {
        let n = self.len(1, what)?;
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| parse_error(format_args!("{what} is not UTF-8")))
    }

    fn f32s(&mut self, what: &str) -> Result<Vec<f32>, CheckpointError> {
        // `len` bounds `n` by the bytes left, so the slice is in range.
        let n = self.len(4, what)?;
        let bytes = &self.buf[self.pos..self.pos + 4 * n];
        self.pos += 4 * n;
        Ok(bytes
            .as_chunks::<4>()
            .0
            .iter()
            .map(|b| f32::from_bits(u32::from_le_bytes(*b)))
            .collect())
    }

    fn f64s(&mut self, what: &str) -> Result<Vec<f64>, CheckpointError> {
        let n = self.len(8, what)?;
        (0..n).map(|_| self.f64(what)).collect()
    }

    fn usizes(&mut self, what: &str) -> Result<Vec<usize>, CheckpointError> {
        let n = self.len(8, what)?;
        (0..n)
            .map(|_| {
                usize::try_from(self.u64(what)?)
                    .map_err(|_| parse_error(format_args!("{what} exceeds the address space")))
            })
            .collect()
    }

    fn rng(&mut self, what: &str) -> Result<[u64; 4], CheckpointError> {
        Ok([
            self.u64(what)?,
            self.u64(what)?,
            self.u64(what)?,
            self.u64(what)?,
        ])
    }

    fn flag(&mut self, what: &str) -> Result<bool, CheckpointError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(parse_error(format_args!(
                "{what} flag must be 0 or 1, got {other}"
            ))),
        }
    }

    /// Read a list whose elements are each at least 4 bytes (every element
    /// starts with a word or a length prefix).
    fn list<T>(
        &mut self,
        what: &str,
        mut get: impl FnMut(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Vec<T>, CheckpointError> {
        let n = self.len(4, what)?;
        (0..n).map(|_| get(self)).collect()
    }
}

// --- per-field framing ---------------------------------------------------

fn put_tensor(w: &mut Writer, t: &NamedTensor<'_>) {
    w.str(&t.name);
    w.usizes(t.value.shape());
    w.f32s(t.value.data());
}

fn get_tensor(r: &mut Reader<'_>) -> Result<NamedTensor<'static>, CheckpointError> {
    let name = r.str("tensor name")?;
    let shape = r.usizes("tensor shape")?;
    let data = r.f32s("tensor data")?;
    let value = Tensor::from_vec(data, &shape)
        .map_err(|e| parse_error(format_args!("tensor {name:?}: {e}")))?;
    Ok(NamedTensor {
        name: Cow::Owned(name),
        value: Cow::Owned(value),
    })
}

fn put_env(w: &mut Writer, e: &EnvState) {
    w.str(e.tag());
    w.list(e.ints(), |w, &i| {
        // a3cs::allow(lossy-cast): i64→u64 keeps the two's-complement bits;
        // `get_env` inverts it exactly.
        w.u64(i as u64);
    });
    w.f32s(e.floats());
    w.list(e.inner(), put_env);
}

fn get_env(r: &mut Reader<'_>, depth: usize) -> Result<EnvState, CheckpointError> {
    if depth > MAX_ENV_DEPTH {
        return Err(parse_error(format_args!(
            "environment state nests deeper than {MAX_ENV_DEPTH} levels"
        )));
    }
    let tag = r.str("env tag")?;
    // a3cs::allow(lossy-cast): u64→i64 is the exact inverse of the
    // two's-complement cast in `put_env`.
    let ints = r.list("env ints", |r| Ok(r.u64("env int")? as i64))?;
    let floats = r.f32s("env floats")?;
    let inner = r.list("env inner list", |r| get_env(r, depth + 1))?;
    Ok(EnvState::from_parts(tag, ints, floats, inner))
}

fn put_runner(w: &mut Writer, s: &RunnerState) {
    w.list(&s.envs, put_env);
    w.list(&s.lane_rngs, |w, &rng| w.rng(rng));
    w.list(&s.current_obs, |w, obs| w.f32s(obs));
}

fn get_runner(r: &mut Reader<'_>) -> Result<RunnerState, CheckpointError> {
    Ok(RunnerState {
        envs: r.list("runner envs", |r| get_env(r, 0))?,
        lane_rngs: r.list("runner lane rngs", |r| r.rng("lane rng"))?,
        current_obs: r.list("runner observations", |r| r.f32s("observation"))?,
    })
}

fn put_optim(w: &mut Writer, o: &OptimizerState<'_>) {
    w.str(&o.kind);
    w.f32(o.lr);
    w.list(&o.keys, |w, (name, shape)| {
        w.str(name);
        w.usizes(shape);
    });
    w.list(&o.slots, |w, slot| w.list(slot, |w, buf| w.f32s(buf)));
    w.f64s(&o.scalars);
}

fn get_optim(r: &mut Reader<'_>) -> Result<OptimizerState<'static>, CheckpointError> {
    Ok(OptimizerState {
        kind: Cow::Owned(r.str("optimizer kind")?),
        lr: r.f32("optimizer lr")?,
        keys: r.list("optimizer keys", |r| {
            Ok((
                Cow::Owned(r.str("optimizer key name")?),
                Cow::Owned(r.usizes("optimizer key shape")?),
            ))
        })?,
        slots: r.list("optimizer slots", |r| {
            r.list("optimizer slot buffers", |r| {
                Ok(Cow::Owned(r.f32s("optimizer slot buffer")?))
            })
        })?,
        scalars: r.f64s("optimizer scalars")?,
    })
}

fn put_das(w: &mut Writer, d: &DasState) {
    w.list(&d.logits, |w, row| w.f64s(row));
    w.rng(d.rng);
    match d.baseline {
        Some(b) => {
            w.u8(1);
            w.f64(b);
        }
        None => w.u8(0),
    }
    w.f64(d.temperature);
}

fn get_das(r: &mut Reader<'_>) -> Result<DasState, CheckpointError> {
    Ok(DasState {
        logits: r.list("das logits", |r| r.f64s("das logit row"))?,
        rng: r.rng("das rng")?,
        baseline: if r.flag("das baseline")? {
            Some(r.f64("das baseline")?)
        } else {
            None
        },
        temperature: r.f64("das temperature")?,
    })
}

fn put_supernet(w: &mut Writer, s: &SupernetSearchState) {
    w.list(&s.alpha, |w, row| w.f32s(row));
    w.rng(s.gumbel_rng);
    w.u64(s.step);
}

fn get_supernet(r: &mut Reader<'_>) -> Result<SupernetSearchState, CheckpointError> {
    Ok(SupernetSearchState {
        alpha: r.list("alpha rows", |r| r.f32s("alpha row"))?,
        gumbel_rng: r.rng("gumbel rng")?,
        step: r.u64("supernet step")?,
    })
}

fn put_curve(w: &mut Writer, c: &[(u64, f32)]) {
    w.list(c, |w, &(step, v)| {
        w.u64(step);
        w.f32(v);
    });
}

fn get_curve(r: &mut Reader<'_>) -> Result<Vec<(u64, f32)>, CheckpointError> {
    r.list("curve", |r| {
        Ok((r.u64("curve step")?, r.f32("curve value")?))
    })
}

fn put_event(w: &mut Writer, e: &RobustnessEvent) {
    w.u64(e.iteration);
    // A kind travels as its index in the stable `all()` order, so
    // appending new kinds keeps old payloads readable.
    let index = RobustnessEventKind::all()
        .iter()
        .position(|k| *k == e.kind)
        .unwrap_or_default();
    // a3cs::allow(lossy-cast): `index` is a position within the fixed
    // RobustnessEventKind::all() table (single digits).
    w.u32(index as u32);
    w.str(&e.detail);
}

fn get_event(r: &mut Reader<'_>) -> Result<RobustnessEvent, CheckpointError> {
    let iteration = r.u64("event iteration")?;
    // a3cs::allow(lossy-cast): u32→usize widens losslessly.
    let index = r.u32("event kind")? as usize;
    let kind = *RobustnessEventKind::all()
        .get(index)
        .ok_or_else(|| parse_error(format_args!("unknown robustness event kind index {index}")))?;
    Ok(RobustnessEvent {
        iteration,
        kind,
        detail: r.str("event detail")?,
    })
}

// --- whole-checkpoint framing --------------------------------------------

/// Encode `ck` into a buffer reserved for `capacity` bytes (the caller's
/// estimate of the payload length; the buffer grows past it if needed).
pub(crate) fn encode(ck: &SearchCheckpoint<'_>, capacity: usize) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::with_capacity(capacity),
    };
    w.buf.extend_from_slice(MAGIC);
    w.u32(SEARCH_CHECKPOINT_VERSION);
    w.str(&ck.fingerprint);
    w.u64(ck.seed);
    w.u64(ck.steps);
    w.u64(ck.iteration);
    w.u64(ck.next_eval);
    w.list(&ck.weight_params, put_tensor);
    w.list(&ck.state_tensors, put_tensor);
    put_supernet(&mut w, &ck.supernet);
    put_optim(&mut w, &ck.weight_opt);
    put_optim(&mut w, &ck.alpha_opt);
    put_das(&mut w, &ck.das);
    put_runner(&mut w, &ck.train_runner);
    match &ck.val_runner {
        Some(runner) => {
            w.u8(1);
            put_runner(&mut w, runner);
        }
        None => w.u8(0),
    }
    w.f32(ck.lr_scale);
    w.u32(ck.rollbacks_left);
    // Tail region: per-iteration growth lives last (see the module docs).
    put_curve(&mut w, &ck.score_curve);
    put_curve(&mut w, &ck.entropy_curve);
    w.list(&ck.events, put_event);
    w.buf
}

pub(crate) fn decode(payload: &[u8]) -> Result<SearchCheckpoint<'static>, CheckpointError> {
    if !payload.starts_with(MAGIC) {
        return Err(parse_error(
            "payload does not start with the checkpoint magic",
        ));
    }
    let mut r = Reader {
        buf: payload,
        pos: MAGIC.len(),
    };
    let version = r.u32("version")?;
    if version != SEARCH_CHECKPOINT_VERSION {
        return Err(CheckpointError::Parse(format!(
            "checkpoint version {version} (this build reads {SEARCH_CHECKPOINT_VERSION})"
        )));
    }
    // Struct literal fields evaluate in the order written, which is what
    // keeps these reads in encode order.
    let ck = SearchCheckpoint {
        fingerprint: Cow::Owned(r.str("fingerprint")?),
        seed: r.u64("seed")?,
        steps: r.u64("steps")?,
        iteration: r.u64("iteration")?,
        next_eval: r.u64("next eval")?,
        weight_params: r.list("weight params", get_tensor)?,
        state_tensors: r.list("state tensors", get_tensor)?,
        supernet: get_supernet(&mut r)?,
        weight_opt: get_optim(&mut r)?,
        alpha_opt: get_optim(&mut r)?,
        das: get_das(&mut r)?,
        train_runner: get_runner(&mut r)?,
        val_runner: if r.flag("val runner")? {
            Some(get_runner(&mut r)?)
        } else {
            None
        },
        lr_scale: r.f32("lr scale")?,
        rollbacks_left: r.u32("rollbacks left")?,
        score_curve: get_curve(&mut r)?,
        entropy_curve: get_curve(&mut r)?,
        events: r.list("robustness events", get_event)?,
    };
    if r.left() != 0 {
        return Err(parse_error(format_args!("{} trailing bytes", r.left())));
    }
    Ok(ck)
}
