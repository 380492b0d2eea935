"""Hybrid precoding, artificial-noise projection, power accounting, and the
per-slot secrecy evaluator shared by every control layer.

Secrecy is scored against the worst-case interceptor (Goel & Negi, IEEE TWC
2008): each eavesdropper is credited with matched-filter capture of the full
stream power, cancellation of the other streams, and only her configured
noise floor, so artificial noise and cooperative jamming are what degrade
her. SlotContext holds one slot's coefficients and evaluates rates, the
strongest eavesdropper's rate, leakage, and jamming credit for a single
power profile (K,) or a batch of profiles (..., K).
"""

from dataclasses import dataclass, field

import numpy as np

from .config import PowerModelConfig


class CapacityError(ValueError):
    """More data streams than RF chains."""


class NoNullspaceError(ValueError):
    """Scheduled channels span the whole transmit space."""


@dataclass
class PrecoderSet:
    """Partially connected hybrid precoder: analog stage, digital stage, composite beams."""

    analog: np.ndarray   # (N, R), constant modulus inside each sub-array block
    digital: np.ndarray  # (R, U)
    beams: np.ndarray    # (N, U), unit-norm columns


def build_precoder(thn_channels, num_rf: int, rzf_reg: float) -> PrecoderSet:
    """Phase-only sub-array analog stage plus regularized zero-forcing digital stage.

    RF chain b is aligned with scheduled node b's channel restricted to its
    sub-array; the digital stage suppresses cross-stream interference.
    Composite beam columns are normalized to unit power.
    """
    channels = list(thn_channels)
    u_count = len(channels)
    if u_count > num_rf:
        raise CapacityError(f"{u_count} streams exceed {num_rf} RF chains")
    if u_count == 0:
        return PrecoderSet(np.zeros((0, num_rf), complex), np.zeros((num_rf, 0), complex),
                           np.zeros((0, 0), complex))
    n = channels[0].shape[0]
    if n % num_rf != 0:
        raise ValueError(f"{n} antennas not divisible into {num_rf} sub-arrays")
    sub = n // num_rf

    analog = np.zeros((n, num_rf), dtype=complex)
    for b in range(num_rf):
        rows = slice(b * sub, (b + 1) * sub)
        if b < u_count:
            # phase-align with the channel so h^H f adds coherently
            block = channels[b][rows]
            phases = np.where(np.abs(block) > 0, np.exp(1j * np.angle(block)),
                              np.ones(sub, dtype=complex))
        else:
            phases = np.ones(sub, dtype=complex)
        analog[rows, b] = phases / np.sqrt(sub)

    h = np.stack(channels)                      # (U, N), entries h_u
    h_eff = np.conj(h) @ analog                 # (U, R), h_u^H F_RF
    gram = h_eff @ h_eff.conj().T
    reg = rzf_reg * np.trace(gram).real / u_count
    digital = h_eff.conj().T @ np.linalg.inv(gram + reg * np.eye(u_count))
    beams = analog @ digital
    norms = np.linalg.norm(beams, axis=0)
    if np.any(norms < 1e-15):
        raise ValueError("degenerate beam column in precoder")
    beams /= norms
    digital /= norms
    return PrecoderSet(analog, digital, beams)


def an_projector(thn_channels, num_antennas: int) -> np.ndarray:
    """Orthonormal basis Q (N, U) of the span of the stacked scheduled channels.

    Artificial noise is radiated through the projector I - QQ^H onto the
    orthogonal complement of that span, so it is invisible to the served
    nodes. With no scheduled channel Q is (N, 0) and the projector is I.
    """
    channels = list(thn_channels)
    if not channels:
        return np.zeros((num_antennas, 0), dtype=complex)
    if len(channels) >= num_antennas:
        raise NoNullspaceError(f"{len(channels)} channels span all {num_antennas} antennas")
    span, _ = np.linalg.qr(np.stack(channels).T)   # reduced: (N, U)
    return span


def served_coupling(channels, beams: np.ndarray):
    """Coupling |h_u^H b_v|^2 of served node u (channels (U, N), stream order)
    to stream v of the composite beams (N, U), as (own, cross): each node's
    coupling to its own stream and the sum over the other streams, (U,) each.
    An empty served set has no antenna axis and gives two empty arrays."""
    h = np.asarray(channels)
    coupling = (np.abs(np.einsum("un,nv->uv", h.conj(), beams)) ** 2
                if len(h) else np.zeros((0, 0)))
    own = coupling.diagonal().copy()
    return own, coupling.sum(axis=1) - own


def an_residual(channels, span: np.ndarray):
    """||(I - QQ^H) h||^2 of a channel (N,) or of each row of a stack (..., N)
    off the served span Q (N, U) from an_projector, computed as
    ||h||^2 - ||Q^H h||^2 and floored at 0. The reductions are einsum calls,
    never BLAS, so the result does not depend on the BLAS thread count and
    each row of a stack equals its own single-channel call."""
    h = np.asarray(channels)
    total = np.einsum("...n,...n->...", h.conj(), h).real
    coeffs = np.einsum("nu,...n->...u", span.conj(), h)    # Q^H h
    captured = np.einsum("...u,...u->...", coeffs.conj(), coeffs).real
    return np.maximum(0.0, total - captured)


def an_power_at(residual, span: np.ndarray, an_power_w: float):
    """AN power delivered to receivers whose channels leave `residual` off the
    served span Q (N, U) (an_residual, any shape).

    The AN power is spread evenly over the N - U dimensions of the complement
    of the span, so a receiver gets an_power_w / (N - U) * residual; zeros
    when the span leaves no complement or no AN is radiated.
    """
    n, u = span.shape
    if n == u or an_power_w <= 0.0:
        return np.zeros(np.shape(residual))[()]
    return (an_power_w / (n - u) * np.asarray(residual))[()]


def power_accounting(bs_power: float, hn_powers, num_rf: int, power: PowerModelConfig):
    """Total radiated power and slot consumption (static draw of num_rf RF
    chains and the baseband, plus PA losses)."""
    tx_total = bs_power + float(np.sum(hn_powers))
    p_cons = num_rf * power.p_rf_w + power.p_bb_w
    return tx_total, p_cons + tx_total / power.pa_efficiency


def watts_to_dbm(watts: float) -> float:
    """Power in dBm: 10 log10(1000 W)."""
    return 10.0 * np.log10(watts * 1000.0)


def see(sum_secrecy: float, slot_power_w: float) -> float:
    """Secrecy energy efficiency: aggregate secrecy spectral efficiency per watt."""
    if slot_power_w <= 0:
        raise ValueError(f"slot power must be > 0, got {slot_power_w}")
    return sum_secrecy / slot_power_w


def outage_metrics(rates, threshold: float):
    """(R_min, R_mean, outage fraction) over active nodes; empty set scores a
    no-service slot (rates 0, outage 1)."""
    values = np.asarray(list(rates), dtype=float)
    if values.size == 0:
        return 0.0, 0.0, 1.0
    return (float(values.min()), float(values.mean()),
            float(np.mean(values < threshold)))


def _delivered(powers: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Watts delivered through gains (K, X) by a profile (K,) or each profile
    of a batch (..., K), as (..., X).

    One einsum contraction, never a BLAS product, so a profile scores the
    same alone as in any block that contains it. Its summation order follows
    the table's layout: for a table with two or more columns side by side in
    memory (jam_to_eve, a column slice) the nodes are added one at a time in
    id order; for a column gather (jam_to_thn, whose node axis is the
    contiguous one) or a one-column table each entry is one dot product over
    the nodes.
    """
    return np.einsum("...k,kx->...x", powers, gains)


# Jamming credit (bps/Hz per served stream) when a jammer alone takes the
# strongest eavesdropper off an infinite rate: a finite stand-in for an
# unbounded improvement.
JAM_CREDIT = 50.0


@dataclass
class SlotContext:
    """Precomputed per-slot interference coefficients and the secrecy evaluator.

    Every quantity the follower game and the cooperative refinement evaluate
    is an affine or rational function of the hybrid-node power vector; this
    context holds the coefficients. Each method scores one power profile (K,)
    or a batch of profiles (..., K), taking the profiles or the leakage,
    jamming watts or eavesdropper rates they produce.

    Shapes: K hybrid nodes, U served streams, E eavesdroppers.
    jam_to_eve[k, e] / jam_to_thn[k, u] / jam_to_hn[k, j] are delivered watts
    per transmitted watt from node k (path gain x transmit pattern x fade);
    jam_to_hn reaches every hybrid node, served or not. Under a strategy in
    which no node radiates (no power game) the three tables are zero.
    """

    served: list            # served node ids, stream order
    sig_w: np.ndarray       # (U,) desired power at each served node
    isi_w: np.ndarray       # (U,) inter-stream interference
    an_thn_w: np.ndarray    # (U,) residual AN
    noise_w: float
    eve_capture_w: np.ndarray   # (E,) worst-case stream capture per eavesdropper
    eve_an_w: np.ndarray        # (E,) AN power at each eavesdropper
    jam_to_eve: np.ndarray      # (K, E)
    jam_to_thn: np.ndarray      # (K, U)
    eve_noise_w: float          # eavesdropper noise floor
    jam_to_hn: np.ndarray       # (K, K)

    def __post_init__(self):
        if not self.noise_w > 0:
            raise ValueError(f"noise_w must be > 0, got {self.noise_w}")

    def leakage_at_served(self, powers) -> np.ndarray:
        """Interference power each served node receives from all hybrid
        nodes, (..., U)."""
        return _delivered(np.asarray(powers, dtype=float), self.jam_to_thn)

    def eve_rate_max(self, powers):
        """Spectral efficiency of the strongest eavesdropper, (...); inf when
        she decodes with a zero denominator."""
        p = np.asarray(powers, dtype=float)
        den = self.eve_an_w + _delivered(p, self.jam_to_eve) + self.eve_noise_w
        # a zero or subnormal denominator gives an infinite SINR, unless
        # nothing was captured: 0/0 is NaN, which fmax skips for the 0 floor
        # (which also scores no eavesdropper); log2(inf) is inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            sinr = self.eve_capture_w / den
        return np.log2(1.0 + np.fmax.reduce(sinr, axis=-1, initial=0.0))[()]

    def rates(self, powers) -> np.ndarray:
        """Per served node secrecy rates, (..., U); all zero while the
        strongest eavesdropper's rate is infinite."""
        p = np.asarray(powers, dtype=float)
        return self.rates_from(self.leakage_at_served(p), self.eve_rate_max(p))

    def rates_from(self, leak_w: np.ndarray, eve_rate) -> np.ndarray:
        """Per served node secrecy rates, (..., U), from the leakage each
        served node receives, (..., U), and the strongest eavesdropper's rate
        of the same profiles, (...)."""
        eve = np.asarray(eve_rate)[..., None]
        legit = np.log2(1.0 + self.sig_w / (self.isi_w + self.an_thn_w + leak_w
                                            + self.noise_w))
        # noise_w > 0 keeps legit finite, so an infinite eve gives 0
        return np.maximum(0.0, legit - eve)

    def jam_credit(self, with_rate, without_rate, power):
        """Jamming credit of a node radiating `power`, given the strongest
        eavesdropper's rate with it (with_rate) and with it silent
        (without_rate); the three broadcast together."""
        with np.errstate(invalid="ignore"):
            gain = np.where(np.isfinite(without_rate), without_rate - with_rate,
                            JAM_CREDIT)
        # a clean interceptor stays clean regardless of this jammer
        gain = np.where(np.isfinite(with_rate), gain, 0.0)
        credit = len(self.served) * np.maximum(0.0, gain)
        return np.where(power > 0.0, credit, 0.0)[()]


@dataclass
class SlotRecord:
    """Everything logged for one slot."""

    slot: int
    alpha: float
    beta: float
    gamma: float
    pi: float
    tau: float
    kappa: float
    sigma_deg: float
    entropy_bits: float
    r_min: float
    r_mean: float
    outage: float
    see: float
    bs_power_dbm: float
    hn_power_sum_w: float
    gne_iters: int
    gne_gap: float
    n_thn: int
    n_jhn: int
    refine_iters: int
    jam_power_w: float
    # diagnostics beyond the canonical trace columns
    entropy_per_eve: list = field(default_factory=list)
    rates: dict = field(default_factory=dict)
    roles: dict = field(default_factory=dict)
    powers: dict = field(default_factory=dict)
    slot_power_w: float = 0.0
    secrecy_sum: float = 0.0
    gne_converged: bool = True
    coalitions: list = field(default_factory=list)   # (target_deg, member ids)
