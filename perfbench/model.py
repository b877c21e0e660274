"""Closed-form expectations the benchmark checks cowsim's outputs against.

Everything here is written from the protocol's formulas, apart from the
package under test: it imports nothing from cowsim, so a fault in cowsim's
arithmetic cannot hide behind the same fault in its check.
"""

from __future__ import annotations

import math


def transmission(loss_db: float) -> float:
    return 10.0 ** (-loss_db / 10.0)


def click(intensity: float, p_d: float, eta: float) -> float:
    """Threshold-detector click probability for a mean photon number."""
    return 1.0 - (1.0 - p_d) * math.exp(-eta * intensity)


def entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def xi(mu_t: float) -> float:
    """Share of non-empty pairs in which an eavesdropper detects exactly one
    of the two pulses, among the pairs where at least one is detected."""
    e = math.exp(-mu_t)
    return 2.0 * e / (1.0 + e)


def pns_share(mu: float, t: float, model: str) -> float:
    if model == "error-free":
        r = mu * (1.0 - t)
    elif model == "printed":
        r = mu / (2.0 * t)
    else:  # "alt"
        r = mu * t / 2.0
    return min(max(r, 0.0), 1.0)


def eve_information(mu: float, t: float, v: float, protocol: str, model: str) -> float:
    """Eve's information share r + I_IR for an observed visibility v.

    The intercept-resend share is inferred from the visibility deficit; if
    even a full attack cannot explain it, Eve is charged everything not
    already lost to photon-number splitting.
    """
    r = pns_share(mu, t, "error-free" if protocol == "bb84" else model)
    if protocol == "cow":
        i_needed, scale = (1.0 - v) / xi(mu * t), 1.0
    else:
        i_needed, scale = 1.0 - v, 2.0
    if i_needed == 0.0:
        return r
    if r < 1.0 and scale * i_needed / (1.0 - r) <= 1.0:
        return r + i_needed
    return 1.0


def curve_rsk(mu: float, loss_db: float, v: float, protocol: str, model: str,
              f: float, t_b: float, eta: float, p_d: float) -> float:
    """Linearised secret-key rate per emitted symbol, max(0, R_s (1 - h(Q) - I_Eve))."""
    t = transmission(loss_db)
    r = mu * t * t_b * eta
    r_s = (r + 2.0 * p_d * (1.0 - r)) * (1.0 - f)
    if r_s <= 0.0:
        return 0.0
    q = (1.0 - r) * p_d * (1.0 - f) / r_s
    if protocol != "cow":
        q += r * (1.0 - v) / 2.0 * (1.0 - f) / r_s
    q = min(max(q, 0.0), 1.0)
    return max(0.0, r_s * (1.0 - entropy(q) - eve_information(mu, t, v, protocol, model)))


class StreamModel:
    """Expected per-op statistics of the i.i.d. symbol stream with no attack.

    Symbols are bit 0 (pulse, empty), bit 1 (empty, pulse) and decoy (pulse,
    pulse); the delay interferometer mixes each pulse with the one before it,
    in phase, so a slot holding two pulses sends (1 +- V) of their light to
    the two ports and a slot holding one pulse splits it evenly.
    """

    def __init__(self, n, mu, loss_db, f, t_b, eta, p_d, v, insertion_loss):
        t = transmission(loss_db)
        self.t = t
        self.p_signal = click(mu * t * t_b, p_d, eta)
        a2 = mu * t * (1.0 - t_b)
        scale = (1.0 - insertion_loss) / 4.0
        c_plus = click(scale * 2.0 * a2 * (1.0 + v), p_d, eta)
        c_minus = click(scale * 2.0 * a2 * (1.0 - v), p_d, eta)
        c_one = click(scale * a2, p_d, eta)
        pair = c_plus + c_minus
        # per symbol: its inner slot, then the boundary slot to the next symbol
        p_edge = (1.0 + f) / 2.0  # a symbol's first (or second) pulse is lit
        inner = f * pair + (1.0 - f) * 2.0 * c_one
        boundary = (p_edge * p_edge * pair
                    + 2.0 * p_edge * (1.0 - p_edge) * 2.0 * c_one
                    + (1.0 - p_edge) ** 2 * 2.0 * p_d)
        self.monitor_clicks = n * (inner + boundary)
        self.n_nonempty = n * (1.0 + f)
        self.n_bits = n * (1.0 - f)
        # both interference classes hold two in-phase pulses
        self.v_expected = (c_plus - c_minus) / pair
        self.n_decoy_clicks = n * f * pair
        self.n_10_clicks = n * ((1.0 - f) / 2.0) ** 2 * pair
        right = self.p_signal * (1.0 - p_d)
        wrong = p_d * (1.0 - self.p_signal)
        self.qber = wrong / (right + wrong)
        self.sifted_per_symbol = (1.0 - f) * (right + wrong)

    @property
    def monitoring_rate(self) -> float:
        return self.monitor_clicks / self.n_nonempty


def visibility_sigma(v: float, n_clicks: float) -> float:
    """Binomial standard error of a count-based visibility over n clicks."""
    p = (1.0 + v) / 2.0
    return 2.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n_clicks)


def poisson_tails(k: int, mean: float) -> tuple[float, float]:
    """(P[K <= k], P[K >= k]) for K ~ Poisson(mean), summed in log space."""
    def log_pmf(j):
        return -mean + j * math.log(mean) - math.lgamma(j + 1)
    if mean <= 0.0:
        return (1.0, 1.0 if k == 0 else 0.0)
    lower = sum(math.exp(log_pmf(j)) for j in range(k + 1))
    return min(lower, 1.0), min(1.0 - lower + math.exp(log_pmf(k)), 1.0)


def frame_occupancy(pattern: str) -> list[int]:
    """Lit pulse slots of a frame pattern: D lights both slots of a symbol,
    0 the first and 1 the second."""
    slots = {"D": (1, 1), "0": (1, 0), "1": (0, 1)}
    return [x for ch in pattern for x in slots[ch]]


class FrameModel:
    """Expected detector rates of the framed, gated, dead-timed preset."""

    def __init__(self, pattern, mu, loss_db, t_b, eta, p_d, v, insertion_loss,
                 pulse_period_ns, gate_ns, frame_period_ns, deadtime_ns):
        occ = frame_occupancy(pattern)
        self.filled = [k for k, x in enumerate(occ) if x]
        self.n_slots = max(int(gate_ns // pulse_period_ns) + 1, len(occ) + 1)
        t = transmission(loss_db)
        data = [click(mu * t * t_b * x, p_d, eta) for x in occ]
        data += [p_d] * (self.n_slots - len(occ))
        amps = [math.sqrt(mu * t * (1.0 - t_b)) * x for x in occ] + [0.0]
        scale = (1.0 - insertion_loss) / 4.0
        m1, m2 = [], []
        for j in range(self.n_slots):
            a = amps[j - 1] if 0 < j <= len(occ) else 0.0
            b = amps[j] if j < len(occ) else 0.0
            base, cross = a * a + b * b, 2.0 * v * a * b
            m1.append(click(scale * (base + cross), p_d, eta))
            m2.append(click(scale * (base - cross), p_d, eta))
        self.slot_probs = {"D_B": data, "D_M1": m1, "D_M2": m2}
        self.frame_s = frame_period_ns * 1e-9
        self.dead_s = deadtime_ns * 1e-9
        self.p_signal = max(data)
        self.p_dark = p_d

    def frame_click(self, det: str) -> float:
        return 1.0 - math.prod(1.0 - p for p in self.slot_probs[det])

    def rate_bounds(self, det: str) -> tuple[float, float]:
        """Non-paralyzable rate P / (T + P d) for a frame click probability P.

        With d the deadtime it is the lower bound. Clicks fall on whole frames,
        so the frame after the dead ones may be partly live; counting one frame
        less of deadtime gives the upper bound.
        """
        p, t = self.frame_click(det), self.frame_s
        return (p / (t + p * self.dead_s),
                p / (t + p * max(self.dead_s - t, 0.0)))
