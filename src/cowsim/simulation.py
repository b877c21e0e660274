"""Monte Carlo simulation of the pulse train through channel, tap beam-splitter,
data detector and monitoring delay interferometer.

Time is discrete at the pulse period: a logical symbol occupies two consecutive
slots, the interferometer adds one trailing slot. Randomness comes from
counter-based Philox streams keyed by (seed, stage), so every draw layout is a
fixed function of the stream length. There is no intra-slot jitter.

One optical chain serves both the i.i.d. stream and the framed mode of
cowsim.experiment: a stream is a single frame, and a framed run repeats one
short frame many times. The chain returns click positions, which feed the one
QBER estimator and the one monitoring tally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rates import ProtocolParams

__all__ = [
    "SymbolStream",
    "OpticsConfig",
    "DetectionRecord",
    "MonitoringStats",
    "QberEstimate",
    "SimResult",
    "UndefinedEstimateError",
    "generate_symbols",
    "propagate",
    "interferometer_outputs",
    "detect",
    "run_simulation",
    "simulate_stream",
    "estimate_visibility",
    "estimate_qber",
]

BIT0, BIT1, DECOY = 0, 1, 2

# Philox stage ids; each pipeline stage owns an independent substream.
_STAGE_SYMBOLS = 1
_STAGE_ATTACK = 2
_STAGE_DATA = 3
_STAGE_M1 = 4
_STAGE_M2 = 5


class UndefinedEstimateError(ValueError):
    """An estimator denominator is empty."""


def stage_rng(seed: int, stage: int) -> np.random.Generator:
    """Counter-based substream: independent per (seed, stage)."""
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(stage)])
    return np.random.Generator(bitgen)


@dataclass
class SymbolStream:
    """Alice's emitted pulse train.

    kinds holds the logical truth (one entry per symbol); amplitudes and phases
    describe the optical field per pulse, two pulses per symbol. An attack may
    rewrite amplitudes and phases while kinds keeps what Alice actually sent.
    """

    kinds: np.ndarray
    mu: float
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        if len(self.amplitudes) != 2 * len(self.kinds):
            raise ValueError("pulse count must be twice the symbol count")
        if len(self.phases) != len(self.amplitudes):
            raise ValueError("phases must be present for every pulse")

    @property
    def n_symbols(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class OpticsConfig:
    """Bob-side optics and detector behavior.

    The default insertion loss of 0.5 models the monitoring interferometer
    returning half of the light toward its input, which reproduces the average
    monitoring detection rate mu t (1-t_B) eta / 2 per pulse. Set it to 0 for
    a lossless physics check. background is an extra constant per-slot click
    probability.
    """

    params: ProtocolParams
    insertion_loss: float = 0.5
    gate_ns: float = 25.0
    deadtime_ns: float = 0.0
    background: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.insertion_loss < 1.0:
            raise ValueError("insertion_loss must be in [0, 1)")
        if not (0.0 < self.gate_ns < math.inf and 0.0 <= self.deadtime_ns < math.inf):
            raise ValueError("gate_ns must be finite and > 0, deadtime_ns finite and >= 0")
        if not 0.0 <= self.background < 1.0:
            raise ValueError("background must be in [0, 1)")


@dataclass
class DetectionRecord:
    """Per-detector click lists as (sequence_index, slot_index) pairs.

    Data-line entries index the two pulse slots of a symbol. Monitoring
    entries index interferometer output slots, of which there is one more
    than pulses; the trailing slot maps to (n_symbols, 0).
    """

    d_b_seq: np.ndarray
    d_b_slot: np.ndarray
    d_m1_seq: np.ndarray
    d_m1_slot: np.ndarray
    d_m2_seq: np.ndarray
    d_m2_slot: np.ndarray


@dataclass(frozen=True)
class MonitoringStats:
    """Click counts at slots where, for ideal coherence, only D_M1 may fire."""

    n_m1_10: int
    n_m2_10: int
    n_m1_d: int
    n_m2_d: int

    @property
    def v_10(self) -> float:
        """Bit1 -> bit0 boundary visibility; nan when the class has no clicks."""
        return _visibility_or_nan(self.n_m1_10, self.n_m2_10)

    @property
    def v_d(self) -> float:
        """Decoy visibility; nan when the class has no clicks."""
        return _visibility_or_nan(self.n_m1_d, self.n_m2_d)


@dataclass(frozen=True)
class QberEstimate:
    value: float
    lo: float
    hi: float
    n_errors: int
    n_sifted: int


@dataclass
class SimResult:
    stream: SymbolStream
    record: DetectionRecord
    stats: MonitoringStats
    n_bits: int
    empirical_r: float
    monitoring_rate_per_pulse: float
    qber: QberEstimate | None
    attack_log: object | None = None


def generate_symbols(n: int, f: float, mu: float, seed: int) -> SymbolStream:
    """Draw n i.i.d. symbols: bit 0 and bit 1 with probability (1-f)/2 each,
    decoy with probability f. Deterministic under the seed."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= f < 1.0:
        raise ValueError("f must be in [0, 1)")
    u = stage_rng(seed, _STAGE_SYMBOLS).random(n)
    kinds = np.full(n, DECOY, dtype=np.int8)
    kinds[u < (1.0 - f) / 2.0] = BIT0
    kinds[(u >= (1.0 - f) / 2.0) & (u < 1.0 - f)] = BIT1
    return _pulse_train(kinds, mu)


def _pulse_train(kinds: np.ndarray, mu: float) -> SymbolStream:
    """Alice's in-phase pulses for the given symbols: the arrival slot of a
    bit, both slots of a decoy."""
    amplitudes = np.zeros(2 * len(kinds))
    a = math.sqrt(mu)
    amplitudes[0::2][kinds != BIT1] = a
    amplitudes[1::2][kinds != BIT0] = a
    return SymbolStream(kinds=kinds, mu=mu, amplitudes=amplitudes,
                        phases=np.zeros(2 * len(kinds)))


def propagate(amplitudes: np.ndarray, params: ProtocolParams):
    """Attenuate through the channel and split at Bob's tap beam-splitter.

    Returns (data-line intensity, monitoring-line amplitude) per pulse.
    """
    intensity = amplitudes ** 2 * params.t
    return intensity * params.t_b, np.sqrt(intensity * (1.0 - params.t_b))


def interferometer_outputs(amplitudes: np.ndarray, phases: np.ndarray,
                           v: float, insertion_loss: float):
    """Per-slot intensities at both output ports for a whole pulse train.

    Output slot j mixes the delayed pulse j-1 with pulse j; slots 0 and
    n_pulses carry the unpaired edge halves. The visibility v scales only the
    interference cross term. Summed over slots and ports the
    output equals (1 - insertion_loss) times the input energy exactly.
    """
    left = np.concatenate(([0.0], amplitudes))
    right = np.concatenate((amplitudes, [0.0]))
    dphi = np.concatenate(([0.0], phases)) - np.concatenate((phases, [0.0]))
    base = left * left + right * right
    cross = 2.0 * v * left * right * np.cos(dphi)
    scale = (1.0 - insertion_loss) / 4.0
    return scale * (base + cross), scale * (base - cross)


def detect(intensity: np.ndarray, eta: float, p_d: float,
           rng: np.random.Generator, background: float = 0.0,
           n_frames: int = 1) -> np.ndarray:
    """Threshold detector: click probability 1 - (1-p_d)(1-bg) exp(-eta I).
    The slots repeat over n_frames frames, with one uniform per (frame, slot)
    drawn in row-major order; returns the (n_frames, n_slots) click mask."""
    intensity = np.asarray(intensity, dtype=float)
    p = 1.0 - (1.0 - p_d) * (1.0 - background) * np.exp(-eta * intensity)
    return rng.random((n_frames,) + intensity.shape) < p


def _suppress_deadtime(times: np.ndarray, deadtime: float) -> np.ndarray:
    """Non-paralyzable deadtime: keep a click only if it is at least deadtime
    after the previously kept one. times must be ascending."""
    keep = np.zeros(len(times), dtype=bool)
    last = -math.inf
    for i, t in enumerate(times):
        if t - last >= deadtime:
            keep[i] = True
            last = t
    return keep


def _wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for k successes in n trials, within [0, 1]. The
    closed form rounds past its exact edges, so k = 0 gives lo = 0 and k = n
    gives hi = 1 exactly; lo <= center <= hi holds with center in (0, 1)."""
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = 0.0 if k == 0 else max(center - half, 0.0)
    hi = 1.0 if k == n else min(center + half, 1.0)
    return lo, hi


def _run_chain(config: OpticsConfig, stream: SymbolStream, seed: int,
              stages: tuple[int, int, int], n_frames: int = 1, n_slots: int = 0,
              frame_period_ns: float = 0.0) -> list:
    """Clicks of D_B, D_M1 and D_M2 over n_frames repetitions of the pulse
    train, each as (frame, slot) arrays in ascending time. Every detector sees
    at least n_slots slots per frame (dark counts only past the light); stages
    are the detectors' Philox stage ids. Deadtime acts on the absolute times
    frame * frame_period_ns + slot * pulse_period_ns, so it spans frames."""
    params = config.params
    data, monitor = propagate(stream.amplitudes, params)
    m1, m2 = interferometer_outputs(monitor, stream.phases, params.v,
                                    config.insertion_loss)
    clicks = []
    for intensity, stage in zip((data, m1, m2), stages):
        if n_slots > len(intensity):
            intensity = np.pad(intensity, (0, n_slots - len(intensity)))
        # row-major order: ascending absolute time
        ff, ss = np.nonzero(detect(intensity, params.eta, params.p_d,
                                   stage_rng(seed, stage), config.background,
                                   n_frames))
        if config.deadtime_ns > 0.0:
            times = ff * frame_period_ns + ss * params.pulse_period_ns
            keep = _suppress_deadtime(times, config.deadtime_ns)
            ff, ss = ff[keep], ss[keep]
        clicks.append((ff, ss))
    return clicks


def _visibility_or_nan(n_m1: int, n_m2: int) -> float:
    return estimate_visibility(n_m1, n_m2) if n_m1 + n_m2 > 0 else math.nan


def estimate_visibility(n_m1: int, n_m2: int) -> float:
    """Count-based visibility (n1 - n2) / (n1 + n2)."""
    total = n_m1 + n_m2
    if total <= 0:
        raise UndefinedEstimateError("no monitoring clicks in this class")
    return (n_m1 - n_m2) / total


def visibility_stderr(n_m1: int, n_m2: int) -> float:
    """Binomial standard error of the count-based visibility estimate."""
    total = n_m1 + n_m2
    p = n_m1 / total
    return 2.0 * math.sqrt(p * (1.0 - p) / total)


def estimate_qber(seq: np.ndarray, slot: np.ndarray,
                  kind: np.ndarray) -> QberEstimate:
    """Fraction of wrong-slot clicks among single-click bit symbols.

    Takes the data-line click list, one entry per click: the symbol index,
    the arrival slot (0 or 1) and the kind Alice sent. Decoys and symbols with
    clicks in both slots are dropped, exactly as sifting drops them. Clicks
    are already window-aligned because the model is slot-discrete. The
    interval is a Wilson 95% interval.
    """
    _, inverse, counts = np.unique(seq, return_inverse=True, return_counts=True)
    sifted = (counts[inverse] == 1) & (kind != DECOY)
    n_sifted = int(np.count_nonzero(sifted))
    if n_sifted == 0:
        raise UndefinedEstimateError("no sifted detections")
    # the arrival slot is the bit: a click in the empty slot is an error
    n_err = int(np.count_nonzero(sifted & (slot != (kind == BIT1))))
    lo, hi = _wilson(n_err, n_sifted)
    return QberEstimate(value=n_err / n_sifted, lo=lo, hi=hi,
                        n_errors=n_err, n_sifted=n_sifted)


def _monitoring_tally(kinds: np.ndarray, m1_slots: np.ndarray,
                      m2_slots: np.ndarray) -> MonitoringStats:
    """Count monitoring clicks in the two interference classes.

    kinds are the symbols of one frame, and each click is given by its output
    slot within its frame. Slot 2k+1 lies inside symbol k and slot 2k+2 on the
    boundary of symbols k and k+1; only decoy insides and bit1 -> bit0
    boundaries hold two pulses. Slots past the frame's light are in no class.
    """
    def classify(slots):
        sym = slots // 2
        inside = sym[(slots % 2 == 1) & (sym < len(kinds))]
        after = sym[(slots % 2 == 0) & (sym >= 1) & (sym < len(kinds))]
        n_10 = np.count_nonzero((kinds[after - 1] == BIT1) & (kinds[after] == BIT0))
        return int(n_10), int(np.count_nonzero(kinds[inside] == DECOY))

    n_m1_10, n_m1_d = classify(m1_slots)
    n_m2_10, n_m2_d = classify(m2_slots)
    return MonitoringStats(n_m1_10=n_m1_10, n_m2_10=n_m2_10,
                           n_m1_d=n_m1_d, n_m2_d=n_m2_d)


def simulate_stream(config: OpticsConfig, stream: SymbolStream, seed: int) -> SimResult:
    """Run the optical chain for an existing pulse train.

    Deterministic for a fixed (seed, n_symbols): the draw layout per stage is
    one array shaped by the train length.
    """
    (_, gb), (_, g1), (_, g2) = _run_chain(config, stream, seed,
                                          (_STAGE_DATA, _STAGE_M1, _STAGE_M2))
    record = DetectionRecord(
        d_b_seq=gb // 2, d_b_slot=gb % 2,
        d_m1_seq=g1 // 2, d_m1_slot=g1 % 2,
        d_m2_seq=g2 // 2, d_m2_slot=g2 % 2,
    )
    stats = _monitoring_tally(stream.kinds, g1, g2)

    kind = stream.kinds[record.d_b_seq]
    n_bits = int(np.count_nonzero(stream.kinds != DECOY))
    # bit symbols whose arrival slot clicked, double clicks included
    n_signal = int(np.count_nonzero((kind != DECOY) & (record.d_b_slot == (kind == BIT1))))
    empirical_r = n_signal / n_bits if n_bits else 0.0
    # per non-empty pulse: with insertion loss L this converges to
    # (1-L) mu t (1-t_B) eta, i.e. half the lossless rate at the default L=0.5
    n_nonempty = int(np.count_nonzero(stream.amplitudes > 0.0))
    monitoring_rate = (len(g1) + len(g2)) / n_nonempty if n_nonempty else 0.0
    try:
        qber_est = estimate_qber(record.d_b_seq, record.d_b_slot, kind)
    except UndefinedEstimateError:
        qber_est = None

    return SimResult(stream=stream, record=record, stats=stats, n_bits=n_bits,
                     empirical_r=empirical_r,
                     monitoring_rate_per_pulse=monitoring_rate, qber=qber_est)


def run_simulation(config: OpticsConfig, n_symbols: int, seed: int,
                   attack=None) -> SimResult:
    """Generate a fresh symbol stream, optionally attack it, and simulate."""
    stream = generate_symbols(n_symbols, config.params.f, config.params.mu, seed)
    attack_log = None
    if attack is not None and getattr(attack, "is_active", lambda: False)():
        from .attacks import apply_intercept_resend
        stream, attack_log = apply_intercept_resend(
            stream, attack, config.params, stage_rng(seed, _STAGE_ATTACK))
    result = simulate_stream(config, stream, seed)
    result.attack_log = attack_log
    return result
