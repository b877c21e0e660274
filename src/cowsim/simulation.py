"""Monte Carlo simulation of the pulse train through channel, tap beam-splitter,
data detector and monitoring delay interferometer.

Time is discrete at the pulse period: a logical symbol occupies two consecutive
slots, the interferometer adds one trailing slot. Randomness comes from
counter-based Philox streams keyed by (seed, stage), so every draw layout is a
fixed function of the pulse train. Each detector draws candidate slots by
geometric gaps at a bound on its click probability and thins them to the exact
one, so detection costs O(clicks), not O(slots). A candidate looks its click
probability up: the optics and the detector are evaluated once per run and pulse
code, not per candidate. Only the monitors read pulse phases, and only at
boundary slots. No intra-slot jitter.

The chain here samples an i.i.d. stream. The framed mode of cowsim.experiment
repeats one short frame, so it draws each slot class of the frame exactly from
the same per-code tables, without candidates. Both modes' click slots feed the
one monitoring tally and the one QBER estimator here, and the one sift of
cowsim.protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rates import ProtocolParams

__all__ = [
    "SymbolStream",
    "OpticsConfig",
    "DetectionRecord",
    "MonitoringStats",
    "QberEstimate",
    "SimResult",
    "generate_symbols",
    "propagate",
    "interferometer_outputs",
    "detect",
    "run_simulation",
    "simulate_stream",
    "estimate_qber",
]

BIT0, BIT1, DECOY = 0, 1, 2

# Philox stage ids; each pipeline stage owns an independent substream.
_STAGE_SYMBOLS = 1
_STAGE_ATTACK = 2
_STAGE_STREAM = (3, 4, 5)  # D_B, D_M1 and D_M2 of a stream
_STAGE_FRAMED = (10, 11, 12)  # D_B, D_M1 and D_M2 of a framed run

# trials per chunk of a Bernoulli draw (a multiple of 8); bounds its byte scratch
_CHUNK = 1 << 16


def stage_rng(seed: int, stage: int) -> np.random.Generator:
    """Counter-based substream: independent per (seed, stage). The seed is
    one uint64 Philox key."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(stage)])
    return np.random.Generator(bitgen)


@dataclass
class SymbolStream:
    """Alice's emitted pulse train, held per two-pulse symbol window.

    kinds holds the logical truth (one entry per symbol). Window w carries the
    pulse amplitudes table[shapes[w]]; a clean stream's shapes are its kinds
    and its table Alice's pulses per kind. Every window is at phase 0 but the
    ascending windows `resent`, which Eve resent at one phase each (`phases`);
    only those may be brighter than Alice's pulses. A clean stream has none.
    An attack rewrites shapes, appends rows to the table (Alice's three stay
    first) and sets resent and phases only. The chain reads phases only at
    monitor boundary slots (phase_steps).
    """

    kinds: np.ndarray
    mu: float
    shapes: np.ndarray | None = None
    table: np.ndarray | None = None
    resent: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    phases: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        if self.shapes is None:
            a = math.sqrt(self.mu)
            self.shapes, self.table = self.kinds, np.array([[a, 0.0], [0.0, a], [a, a]])
        if self.table is None or len(self.shapes) != len(self.kinds) or (
                len(self.phases) != len(self.resent)):
            raise ValueError("need a table, a shape per window and a phase per resent window")

    @property
    def n_symbols(self) -> int:
        return len(self.kinds)

    def codes(self, idx: np.ndarray) -> np.ndarray:
        """Pulse code of each pulse index idx: entry 2 * shapes[idx >> 1] + (idx & 1)
        of the flat table, or table.size (no pulse) outside the train."""
        code = idx & 1
        code += 2 * self.shapes.take(idx >> 1, mode="clip")
        # integer indices: a boolean mask this irregular stores several times slower
        code[np.flatnonzero((idx < 0) | (idx >= 2 * len(self.kinds)))] = self.table.size
        return code

    def pulses(self, idx: np.ndarray) -> tuple:
        """(amplitude, phase) of the pulses at indices idx, from a dense phase table."""
        phase = np.zeros(len(self.kinds) + 2)  # a window outside the train is at 0
        phase[self.resent + 1] = self.phases
        return (np.append(self.table, 0.0).take(self.codes(idx)),
                phase.take((idx >> 1) + 1, mode="clip"))

    def phase_steps(self, slots: np.ndarray) -> tuple:
        """(indices into slots, steps) where the phase of pulse j - 1 less that of
        pulse j is nonzero, for monitor output slots j of a stream with resent
        windows: 0 inside a window, so only boundary slots are looked up."""
        edge = np.flatnonzero((slots & 1) == 0)
        k = (slots[edge] >> 1) - np.arange(2)[:, None]  # slot 2k pairs windows k and k - 1
        at = np.searchsorted(self.resent, k[0]) - np.arange(2)[:, None]  # k - 1 precedes k
        phase = self.phases.take(at, mode="clip") * (self.resent.take(at, mode="clip") == k)
        dphi = phase[1] - phase[0]
        return edge[dphi != 0], dphi[dphi != 0]


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
    deadtime_ns: float = 0.0
    background: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.insertion_loss < 1.0:
            raise ValueError("insertion_loss must be in [0, 1)")
        if not 0.0 <= self.deadtime_ns < math.inf:
            raise ValueError("deadtime_ns must be finite and >= 0")
        if not 0.0 <= self.background < 1.0:
            raise ValueError("background must be in [0, 1)")


@dataclass
class DetectionRecord:
    """Each detector's clicks as one ascending array of slot indices.

    A d_b entry is a pulse index, 2k + bit for symbol k: the arrival slot is
    the bit. A monitor entry j is the interferometer output slot that pairs
    pulses j - 1 and j; there is one more output slot than pulses. A framed
    run's entry is frame * n_slots + slot, for n_slots slots per frame.
    """

    d_b: np.ndarray
    d_m1: np.ndarray
    d_m2: np.ndarray


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
        return _visibility(self.n_m1_10, self.n_m2_10)

    @property
    def v_d(self) -> float:
        """Decoy visibility; nan when the class has no clicks."""
        return _visibility(self.n_m1_d, self.n_m2_d)


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


def generate_symbols(n: int, f: float, mu: float, seed: int) -> SymbolStream:
    """Draw n i.i.d. symbols: bit 0 and bit 1 with probability (1-f)/2 each,
    decoy with probability f. Deterministic under the seed: a fair bit per
    symbol from n/8 raw bytes, then an exact Bernoulli(f) decoy flag each."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= f < 1.0:
        raise ValueError("f must be in [0, 1)")
    rng = stage_rng(seed, _STAGE_SYMBOLS)
    kinds = np.unpackbits(rng.bit_generator.random_raw(-(-n // 64)).view(np.uint8),
                          count=n).view(np.int8)  # a fair bit each: BIT0 or BIT1
    _bernoulli(rng, f, kinds, DECOY)
    return SymbolStream(kinds=kinds, mu=mu)


def _bernoulli(rng: np.random.Generator, p: float, out: np.ndarray, value: int):
    """Set out[i] = value where trial i of len(out) exact Bernoulli(p) trials
    succeeds; out holds one-byte codes below value. A float p is a dyadic
    rational, so its binary expansion has finitely many bytes (1.0 has one,
    256). A trial compares raw Philox bytes, as those of a uniform U, with p's:
    the first that differs decides U < p, and a tie on all of p's bytes means
    U >= p. All trials draw a first byte in index order, _CHUNK at a time; then
    the tied ones draw the next, round by round, so the bytes drawn do not
    depend on _CHUNK."""
    num, den = float(p).as_integer_ratio()
    digits = []
    while num:
        digit, num = divmod(num * 256, den)
        digits.append(digit)
    raw, ties = rng.bit_generator.random_raw, []
    for start in range(0, len(out), _CHUNK) if digits else ():
        rows = out[start:start + _CHUNK]
        u = raw(-(-len(rows) // 8)).view(np.uint8)[:len(rows)]
        # branch-free: a masked store is several times slower on random masks
        np.maximum(rows, (u < digits[0]).view(out.dtype) * value, out=rows)
        if len(digits) > 1:
            ties.append(np.flatnonzero(u == digits[0]) + start)
    tied = np.concatenate(ties) if ties else ()
    for digit in digits[1:]:
        if not len(tied):
            break
        u = raw(-(-len(tied) // 8)).view(np.uint8)[:len(tied)]
        out[tied[u < digit]] = value
        tied = tied[u == digit]


def propagate(amplitudes: np.ndarray, params: ProtocolParams):
    """Attenuate through the channel and split at Bob's tap beam-splitter.

    Returns (data-line intensity, monitoring-line amplitude) per pulse.
    """
    intensity = amplitudes ** 2 * params.t
    return intensity * params.t_b, np.sqrt(intensity * (1.0 - params.t_b))


def interferometer_outputs(left: np.ndarray, right: np.ndarray, dphi: np.ndarray,
                           v: float, insertion_loss: float):
    """Both output ports' intensities where the delayed pulse `left` meets
    `right` with phase difference dphi; v scales only the cross term. Output
    slot j of a train pairs pulse j-1 with pulse j, so summed over slots and
    ports the output equals (1 - insertion_loss) times the input energy."""
    base = left * left + right * right
    cross = 2.0 * v * left * right * np.cos(dphi)
    scale = (1.0 - insertion_loss) / 4.0
    return scale * (base + cross), scale * (base - cross)


def _click_probability(intensity, eta: float, p_d: float, background: float):
    return 1.0 - (1.0 - p_d) * (1.0 - background) * np.exp(-eta * intensity)


def detect(p: np.ndarray, p_hat: float | np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Threshold detector at candidate slots drawn with probability p_hat (one
    value or one per candidate): one uniform keeps each with probability p / p_hat,
    for its click probability p = 1 - (1-p_d)(1-bg) exp(-eta I) <= p_hat. With
    p_hat = 1 every slot is a candidate. Returns the clicking candidates' mask."""
    return rng.random(np.shape(p)) * p_hat < p


def _bright_runs(stream: SymbolStream) -> tuple:
    """(first, last) windows of each run of consecutive resent windows,
    ascending: only they may be brighter than Alice's pulses or step in phase.
    A run touches D_B slots [2 first, 2 last + 1], monitor slots one more."""
    windows = stream.resent
    cut = np.flatnonzero(np.diff(windows) > 1)  # the last windows of all runs but one
    return np.append(windows[:1], windows[cut + 1]), np.append(windows[cut], windows[-1:])


def _candidates(rng: np.random.Generator, p_hat: float, n: int) -> np.ndarray:
    """Ascending slots of a Bernoulli(p_hat) process over n slots, drawn as
    cumulative sums of geometric gaps: O(candidates) work, not O(n). Below 1/3
    a gap is ceil(E / -log1p(-p_hat)) of a standard exponential E, one pass per
    chunk: numpy's own inversion, so Generator.geometric's integers and draws."""
    if p_hat <= 0.0 or n <= 0:
        return np.empty(0, dtype=np.int64)
    size = int(n * p_hat + 5.0 * math.sqrt(n * p_hat)) + 1
    chunks, last = [], -1
    while last < n:
        # a gap past the end ends the process; clipping it keeps the sum in range
        if p_hat < 1.0 / 3.0 and n < 2 ** 52:  # so that gaps + 2**52 below are exact
            gaps = rng.standard_exponential(size)
            with np.errstate(over="ignore"):  # an infinite gap ends the process
                np.ceil(np.divide(gaps, -math.log1p(-p_hat), out=gaps), out=gaps)
            np.minimum(gaps, n + 1, out=gaps)
            gaps += 2.0 ** 52  # the gap is now the low bits: the integers in place
            pos = gaps.view(np.int64)
            pos -= np.float64(2.0 ** 52).view(np.int64)
        else:  # as numpy draws them: a search over uniforms from 1/3 up
            pos = rng.geometric(p_hat, size)
            np.minimum(pos, n + 1, out=pos)
        chunks.append(np.add(np.cumsum(pos, out=pos), last, out=pos))
        last = int(pos[-1])
    pos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return pos[:np.searchsorted(pos, n)]


def _class_candidates(rng: np.random.Generator, p_lo: float, p_hi: float, n: int,
                      first: np.ndarray, last: np.ndarray, span: int) -> tuple:
    """Ascending candidate slots over n slots, each one's bound, and the indices
    of those drawn at p_hi: the slots [2 first, 2 last + span) of each ascending
    run of windows at p_hi, all others at p_lo. The p_lo class is drawn first, so
    without runs the draws are those of one Bernoulli(p_lo) process."""
    ends = np.append(0, np.cumsum(2 * (last - first) + span))  # run slots before each run
    lo = _candidates(rng, p_lo, n - int(ends[-1]))
    if not len(first):
        return lo, p_lo, np.empty(0, dtype=np.int64)  # a view would keep lo alive
    hi = _candidates(rng, p_hi, int(ends[-1]))
    outside = 2 * last + span - ends[1:]  # slots outside the runs up to each run's end
    # the r-th slot outside lies past the runs with at most r slots outside up to their ends
    past = np.searchsorted(outside, lo, side="right")
    within = np.searchsorted(ends[1:], hi, side="right")  # the run of each p_hi one
    lo += ends.take(past)
    hi += outside.take(within)
    # merged, a candidate follows its own class's earlier ones and the other's
    hi_at = np.bincount(past, minlength=len(ends)).cumsum().take(within) + np.arange(len(hi))
    lo_at = np.bincount(within + 1, minlength=len(ends)).cumsum().take(past) + np.arange(len(lo))
    slots = np.empty(len(lo) + len(hi), dtype=np.int64)
    slots[lo_at], slots[hi_at] = lo, hi
    p_hat = np.full(len(slots), p_lo)
    p_hat[hi_at] = p_hi
    return slots, p_hat, hi_at


def _suppress_deadtime(times: np.ndarray, deadtime: float) -> np.ndarray:
    """Non-paralyzable deadtime: keep a click only if times[i] - last >= deadtime
    for the previously kept one; times must be ascending. A click that far after
    the one before it heads a run and is always kept. From a kept click at t the
    next is the first j with times[j] - t >= deadtime: all runs jump at once."""
    times = np.append(times, math.inf)  # a head past the last click ends every run
    keep = np.ones(len(times), dtype=bool)
    np.greater_equal(times[1:] - times[:-1], deadtime, out=keep[1:])
    at = np.flatnonzero(keep[:-1] > keep[1:])  # heads followed by a close click
    # so a head's first jump tries the click after next; later jumps can land anywhere
    j = at + 2
    near = np.flatnonzero(times[j] - times[at] < deadtime)
    j[near] = _next_kept(times, times[at[near]], deadtime)
    while len(at := j[~keep[j]]):  # a jump onto a head ends its run
        keep[at] = True
        j = _next_kept(times, times[at], deadtime)
    return keep[:-1]


def _next_kept(times: np.ndarray, t: np.ndarray, deadtime: float) -> np.ndarray:
    """The first j with times[j] - t >= deadtime for each t; times end past them."""
    j = np.searchsorted(times, t + deadtime)
    # t + deadtime rounds: step j to the first click that the loop's test keeps
    while (up := times[j] - t < deadtime).any():
        j += up
    while (down := times[j - 1] - t >= deadtime).any():
        j -= down
    return j


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


def _optics(config: OpticsConfig, table: np.ndarray) -> tuple:
    """A run's per-code tables, the last code no pulse: the D_B click probability
    of each pulse code, each monitor port's for each ordered code pair in phase,
    and the monitor-line amplitude."""
    p = config.params
    data, monitor = propagate(np.append(table, 0.0), p)
    ports = interferometer_outputs(monitor[:, None], monitor, 0.0, p.v, config.insertion_loss)
    click = [_click_probability(i, p.eta, p.p_d, config.background) for i in (data, *ports)]
    return click[0], click[1:], monitor


def _probability(config: OpticsConfig, tables: tuple, stream: SymbolStream, k: int,
                 ss: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Click probability of D_B (k = 0), D_M1 or D_M2 at slots ss of one pass of
    the train: from the tables (_optics) by pulse code, on a monitor by the codes
    of pulses j - 1 and j. Only ss[near] may step in phase; a slot whose step is
    nonzero is evaluated alone, by the tables' expressions."""
    data, ports, monitor = tables
    if k == 0:
        return data.take(stream.codes(ss))
    pair = stream.codes(ss - 1) * len(monitor) + stream.codes(ss)
    out = ports[k - 1].take(pair)
    if len(stream.resent):
        at, dphi = stream.phase_steps(ss[near])
        at = near[at]
        left, right = np.divmod(pair[at], len(monitor))
        p = config.params
        stepped = interferometer_outputs(monitor[left], monitor[right], dphi, p.v,
                                         config.insertion_loss)
        out[at] = _click_probability(stepped[k - 1], p.eta, p.p_d, config.background)
    return out


def _run_chain(config: OpticsConfig, stream: SymbolStream, seed: int) -> list:
    """Clicks of D_B, D_M1 and D_M2 over the stream, each as one ascending
    array of slots. The click probabilities are evaluated once per run, per
    pulse code (_optics). Candidate slots (see detect) are drawn per class:
    slots touching a run of resent windows at the bound of the brightest code,
    all others at the bound of Alice's brightest. Only an attacked stream
    resends, and only its resent-class candidates look their phase step up.
    Deadtime acts on the times slot * pulse_period_ns."""
    params = config.params
    tables = _optics(config, stream.table)
    data, ports, _ = tables
    # bounds at the tables' maxima: over Alice's six codes (they come first), or all
    bounds = [[data[:6].max(), data.max()], [ports[0][:6, :6].max(), ports[0].max()]]
    first, last = _bright_runs(stream)
    clicks = []
    for k, stage in enumerate(_STAGE_STREAM):
        rng = stage_rng(seed, stage)
        n_slots = 2 * stream.n_symbols + (k > 0)  # one more monitor slot
        slots, p_hat, hi_at = _class_candidates(rng, *bounds[k > 0], n_slots,
                                                first, last, 2 + (k > 0))
        p = _probability(config, tables, stream, k, slots, hi_at)
        # integer indices: a boolean mask this irregular gathers several times slower
        slots = slots[np.flatnonzero(detect(p, p_hat, rng))]
        if config.deadtime_ns > 0.0:
            keep = _suppress_deadtime(slots * params.pulse_period_ns, config.deadtime_ns)
            slots = slots[np.flatnonzero(keep)]
        clicks.append(slots)
    return clicks


def _frame_chain(config, frame: SymbolStream, seed: int, n_slots: int) -> list:
    """_run_chain's clicks over the config's n_frames repetitions of the frame (an
    ExperimentConfig), each as (slots, frames, slots within the frame) of absolute
    slots frame * n_slots + slot, drawn exactly: one frame's lit slots of equal
    click probability p form a class of m slots, in ascending p, drawn as one
    Bernoulli(p) process over n_frames * m slots whose rank r is member r % m of
    frame r // m. The slots past the light are one dark class at the no-pulse
    code's probability, drawn last and mapped without a slot list. Deadtime acts
    on the times frame * frame_period_ns + slot * pulse_period_ns."""
    params, n_frames = config.params, config.n_frames
    tables = _optics(config, frame.table)
    clicks = []
    for k, stage in enumerate(_STAGE_FRAMED):
        rng = stage_rng(seed, stage)
        lit = np.arange(2 * frame.n_symbols + (k > 0))  # one more monitor slot
        p = _probability(config, tables, frame, k, lit, lit[:0])
        parts = []
        for value in sorted(set(p.tolist())):  # the classes, in ascending p
            members = lit[p == value]
            r = _candidates(rng, value, n_frames * len(members))
            ff = r // len(members)
            r -= ff * len(members)  # in place: the ranks are this loop's own
            ff *= n_slots
            parts.append(np.add(ff, members.take(r), out=ff))
        dark = n_slots - len(lit)  # rank f * dark + s is slot len(lit) + s of frame f
        r = _candidates(rng, tables[0][-1], n_frames * dark)  # the no-pulse code's p
        parts.append(r + (r // max(dark, 1) + 1) * len(lit))
        slots = np.sort(np.concatenate(parts), kind="stable")  # merges the ascending parts
        del parts, ff  # held through the steps below, they would fragment the heap
        if config.deadtime_ns > 0.0:
            ff = slots // n_slots
            times = ff * config.frame_period_ns
            ff *= n_slots  # in place, to each click's slot within its frame
            times += np.subtract(slots, ff, out=ff) * params.pulse_period_ns
            del ff
            slots = slots.take(np.flatnonzero(_suppress_deadtime(times, config.deadtime_ns)))
        ff = slots // n_slots  # the kept clicks' split: an int64 % costs more
        clicks.append((slots, ff, slots - ff * n_slots))
    return clicks


def _visibility(n_m1: int, n_m2: int) -> float:
    """Count-based visibility (n1 - n2) / (n1 + n2); nan without clicks."""
    total = n_m1 + n_m2
    return (n_m1 - n_m2) / total if total else math.nan


def estimate_qber(alice_bits: np.ndarray, bob_bits: np.ndarray) -> QberEstimate | None:
    """Fraction of sifted bits on which Bob's arrival slot differs from
    Alice's bit, with a Wilson 95% interval; None for an empty key."""
    n_sifted = len(alice_bits)
    if n_sifted == 0:
        return None
    n_err = int(np.count_nonzero(alice_bits != bob_bits))
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

    Deterministic for a fixed (seed, stream): each stage draws its candidate
    slots from the train's length and its windows' peak amplitudes, then one
    uniform each.
    """
    d_b, d_m1, d_m2 = _run_chain(config, stream, seed)
    stats = _monitoring_tally(stream.kinds, d_m1, d_m2)

    kind = stream.kinds[d_b >> 1]
    n_bits = int(np.count_nonzero(stream.kinds != DECOY))
    # bit symbols whose arrival slot clicked, double clicks included
    n_signal = int(np.count_nonzero((kind != DECOY) & ((d_b & 1) == (kind == BIT1))))
    empirical_r = n_signal / n_bits if n_bits else 0.0
    # per non-empty pulse: with insertion loss L this converges to
    # (1-L) mu t (1-t_B) eta, i.e. half the lossless rate at the default L=0.5
    # one pass per table row of other than one pulse (a bincount casts codes to intp)
    pulses = np.count_nonzero(stream.table > 0.0, axis=1).tolist()
    n_nonempty = stream.n_symbols + sum((m - 1) * np.count_nonzero(stream.shapes == c)
                                        for c, m in enumerate(pulses) if m != 1)
    monitoring_rate = (len(d_m1) + len(d_m2)) / n_nonempty if n_nonempty else 0.0
    return SimResult(stream=stream, record=DetectionRecord(d_b, d_m1, d_m2), stats=stats,
                     n_bits=n_bits, empirical_r=empirical_r,
                     monitoring_rate_per_pulse=monitoring_rate)


def run_simulation(config: OpticsConfig, n_symbols: int, seed: int,
                   attack=None) -> SimResult:
    """Generate a fresh symbol stream, optionally attack it, and simulate."""
    stream = generate_symbols(n_symbols, config.params.f, config.params.mu, seed)
    if attack is not None and attack.is_active():
        from .attacks import apply_intercept_resend
        stream = apply_intercept_resend(stream, attack, config.params,
                                        stage_rng(seed, _STAGE_ATTACK))
    return simulate_stream(config, stream, seed)
