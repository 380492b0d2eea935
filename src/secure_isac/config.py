"""Scenario configuration: defaults, file parsing, validation, serialization.

Config files are INI text whose sections mirror the parameter groups
(carrier, noise, bs, hn, eve, channel, power, leader, belief, followers, gne,
refinement, run). Every field declares its valid range beside its default;
validation holds each value to it (numbers must also be finite), checks the
few rules that tie fields together, and reports each violation with a dotted
field path. Unknown sections or keys are rejected; missing entries take the
defaults. A canonical JSON rendering provides a platform-stable hash for run
manifests.
"""

import configparser
import hashlib
import io
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum

from .channel import noise_power


class ConfigError(ValueError):
    """Carries every validation violation at once."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(self.errors))


class StrategyId(str, Enum):
    BASELINE = "baseline"
    FIXED_AN = "fixed_an"
    STACKELBERG_ONLY = "stackelberg_only"
    STACKELBERG_ROLESWITCH = "stackelberg_roleswitch"
    IBEAMS = "ibeams"


def knob(default, *, gt=None, ge=None, le=None, choices=None):
    """A config field with its default and its valid range: above gt or at
    least ge, at most le, and finite; a string field lists its choices."""
    lo = gt if gt is not None else ge if ge is not None else -math.inf
    hi = le if le is not None else math.inf
    return field(default=default, metadata={"range": (lo, gt is not None, hi, choices)})


def _violation(value, lo, lo_open, hi, choices):
    """Why `value` lies outside a knob's declared range, or None."""
    if choices is not None:
        return None if value in choices else f"must be one of {', '.join(choices)}"
    if not math.isfinite(value):
        return "must be finite"
    if (lo < value if lo_open else lo <= value) and value <= hi:
        return None
    if hi == math.inf:
        return f"must be {'>' if lo_open else '>='} {lo:g}"
    if lo == -math.inf:
        return f"must be <= {hi:g}"
    return f"must be in {'(' if lo_open else '['}{lo:g}, {hi:g}]"


@dataclass
class CarrierConfig:
    frequency_hz: float = knob(28e9, ge=1e9, le=1e13)
    bandwidth_hz: float = knob(1e8, ge=1e3, le=1e11)


@dataclass
class NoiseConfig:
    psd_dbm_per_hz: float = knob(-174.0, ge=-200, le=-100)
    noise_figure_db: float = knob(7.0, ge=0, le=30)


@dataclass
class BsConfig:
    antennas: int = knob(128, ge=1)
    num_rf: int = knob(8, ge=1)
    z_m: float = knob(10.0, ge=0, le=100)
    p_max_w: float = knob(20.0, gt=0)
    p_init_w: float = knob(15.0, gt=0)
    rzf_reg: float = knob(1e-3, gt=0)


@dataclass
class HnConfig:
    count: int = knob(25, ge=1)
    # the node array; its element count is also the matched-filter receive gain
    array_elements: int = knob(16, ge=1)
    p_max_w: float = knob(1.5, gt=0)
    height_m: float = knob(1.5, ge=0, le=100)
    eta: float = knob(1.0, ge=0)
    power_cost_per_w: float = knob(0.5, ge=0)


@dataclass
class EveConfig:
    count: int = knob(4, ge=1)
    mobility: str = knob("static", choices=("static", "waypoint"))
    speed_mps: float = knob(1.0, ge=0)
    height_m: float = knob(1.5, ge=0, le=100)
    noise_floor_w: float = knob(0.0, ge=0)   # worst-case interceptor: no thermal floor


@dataclass
class ChannelParams:
    path_loss_exponent: float = knob(2.2, gt=0, le=6)
    shadow_sigma_db: float = knob(3.0, ge=0, le=20)
    rician_k_db: float = knob(10.0, ge=-40, le=40)
    csi_error_frobenius: float = knob(0.0, ge=0)  # estimate-error budget across all nodes


@dataclass
class PowerModelConfig:
    p_rf_w: float = knob(0.25, ge=0)
    p_bb_w: float = knob(1.0, ge=0)
    pa_efficiency: float = knob(0.4, gt=0, le=1)


@dataclass
class LeaderConfig:
    alpha_init: float = knob(0.6, ge=0, le=1)
    beta_init: float = knob(0.2, ge=0, le=1)
    gamma_init: float = knob(0.2, ge=0, le=1)
    pi_init: float = knob(0.7)
    tau_init: float = knob(0.3, ge=0, le=1)     # fixed leakage penalty
    kappa_init: float = knob(0.1, ge=0, le=1)   # fixed sensing price
    k_s: float = knob(0.01, gt=0)
    k_pi: float = knob(0.05, gt=0)
    eta_sigma: float = knob(0.5, gt=0)
    r_s_target: float = knob(4.5, gt=0)
    h_max_bits: float = knob(6.0, gt=0)
    gamma_min: float = knob(0.02, ge=0, le=1)
    gamma_max: float = knob(0.3, ge=0, le=1)
    beta_min: float = knob(0.0, ge=0, le=1)
    beta_max: float = knob(0.3, ge=0, le=1)
    pi_min: float = knob(0.0)
    pi_max: float = knob(1.0)


@dataclass
class BeliefConfig:
    grid_size: int = knob(181, ge=2)
    sigma0_deg: float = knob(10.0, gt=0)
    meas_noise_deg: float = knob(5.0, ge=0)
    k_eff: float = knob(1.0, gt=0)
    sigma_min_deg: float = knob(1.0, gt=0)
    sigma_max_deg: float = knob(45.0, gt=0)
    bump_width_deg: float = knob(2.0, gt=0)
    floor_scale: float = knob(0.005, ge=0)


@dataclass
class FollowerConfig:
    grid_points: int = knob(21, ge=2)
    p_fj_max_w: float = knob(12.0, gt=0)
    xi_max_scale: float = knob(1.0, gt=0)        # leakage cap, in noise powers
    role_threshold: float = knob(1.0, ge=0)      # bps/Hz for THN retention
    hypothetical_discount: float = knob(0.5, gt=0, le=1)  # damping on re-admission rate estimates


@dataclass
class GneConfig:
    max_iters: int = knob(50, ge=1)


@dataclass
class RefinementConfig:
    peak_threshold_scale: float = knob(2.0, gt=0)   # in units of 1/grid_size
    assoc_width_deg: float = knob(30.0, gt=0)
    j_min_fraction: float = knob(0.1, ge=0, le=1)
    delta_stop: float = knob(0.01, gt=0)
    max_iters: int = knob(10, ge=1)
    power_penalty_per_w: float = knob(1e-3, ge=0)


@dataclass
class RunConfig:
    slots: int = knob(200, ge=1)
    replications: int = knob(1, ge=1)
    seed: int = knob(1, ge=0)
    cell_radius_m: float = knob(150.0, gt=0, le=1000)
    min_node_distance_m: float = knob(25.0, gt=0)
    slot_duration_s: float = knob(0.01, gt=0)
    outage_threshold: float = knob(0.5, ge=0)


@dataclass
class ScenarioConfig:
    carrier: CarrierConfig = field(default_factory=CarrierConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    bs: BsConfig = field(default_factory=BsConfig)
    hn: HnConfig = field(default_factory=HnConfig)
    eve: EveConfig = field(default_factory=EveConfig)
    channel: ChannelParams = field(default_factory=ChannelParams)
    power: PowerModelConfig = field(default_factory=PowerModelConfig)
    leader: LeaderConfig = field(default_factory=LeaderConfig)
    belief: BeliefConfig = field(default_factory=BeliefConfig)
    followers: FollowerConfig = field(default_factory=FollowerConfig)
    gne: GneConfig = field(default_factory=GneConfig)
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def to_dict(self) -> dict:
        out = {}
        for section in fields(self):
            group = getattr(self, section.name)
            out[section.name] = {f.name: getattr(group, f.name) for f in fields(group)}
        return out

    def validate(self) -> None:
        errors, bad = [], set()
        for section in fields(self):
            group = getattr(self, section.name)
            for f in fields(group):
                problem = _violation(getattr(group, f.name), *f.metadata["range"])
                if problem is not None:
                    path = f"{section.name}.{f.name}"
                    errors.append(f"{path}: {problem}")
                    bad.add(path)

        def rule(uses, holds, message):
            """Cross-field rule over the fields `uses`, reported at the first;
            skipped while any of them is out of its own range."""
            if bad.isdisjoint(uses) and not holds():
                errors.append(f"{uses[0]}: {message}")

        c, lead = self, self.leader
        rule(("bs.num_rf", "bs.antennas"), lambda: c.bs.antennas % c.bs.num_rf == 0,
             f"must divide bs.antennas ({c.bs.antennas})")
        # artificial noise needs a nullspace left over by the served streams
        rule(("bs.num_rf", "bs.antennas", "hn.count"),
             lambda: min(c.hn.count, c.bs.num_rf) < c.bs.antennas,
             f"min(hn.count, bs.num_rf) must be < bs.antennas ({c.bs.antennas})")
        rule(("bs.p_init_w", "bs.p_max_w"), lambda: c.bs.p_init_w <= c.bs.p_max_w,
             f"must be <= bs.p_max_w ({c.bs.p_max_w})")
        rule(("leader.alpha_init", "leader.beta_init", "leader.gamma_init"),
             lambda: abs(lead.alpha_init + lead.beta_init + lead.gamma_init - 1.0) <= 1e-9,
             "initial split must sum to 1")
        rule(("leader.gamma_min", "leader.gamma_max"),
             lambda: lead.gamma_min < lead.gamma_max, "must be < gamma_max")
        rule(("leader.beta_min", "leader.beta_max"),
             lambda: lead.beta_min <= lead.beta_max, "must be <= beta_max")
        rule(("leader.pi_init", "leader.pi_min", "leader.pi_max"),
             lambda: lead.pi_min <= lead.pi_init <= lead.pi_max,
             f"must lie in [{lead.pi_min}, {lead.pi_max}]")
        # the leakage cap, a multiple of the noise power, can underflow to 0 W
        rule(("followers.xi_max_scale", "noise.psd_dbm_per_hz", "carrier.bandwidth_hz",
              "noise.noise_figure_db"),
             lambda: c.followers.xi_max_scale * noise_power(
                 c.noise.psd_dbm_per_hz, c.carrier.bandwidth_hz, c.noise.noise_figure_db) > 0,
             "leakage cap (times the noise power) must be > 0 W")
        rule(("belief.sigma_min_deg", "belief.sigma_max_deg"),
             lambda: c.belief.sigma_min_deg <= c.belief.sigma_max_deg,
             "must be <= sigma_max_deg")
        rule(("run.cell_radius_m", "run.min_node_distance_m"),
             lambda: c.run.cell_radius_m > c.run.min_node_distance_m,
             f"must exceed min_node_distance_m ({c.run.min_node_distance_m})")
        if errors:
            raise ConfigError(errors)


def _coerce(path: str, raw, target_type, errors):
    """The field value for `raw`, or None with the violation appended.

    Strings are parsed; other values must be numbers (not bools) that convert
    exactly, so an int field rejects 2.7 instead of truncating it.
    """
    try:
        if isinstance(raw, bool) or not isinstance(raw, (str, numbers.Real)):
            raise TypeError
        value = target_type(raw)
        if target_type is int and not isinstance(raw, str) and value != raw:
            raise ValueError
        return value
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{path}: cannot parse {raw!r} as {target_type.__name__}")
        return None


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from a nested dict, rejecting unknown keys and listing
    every violation at once."""
    config = ScenarioConfig()
    errors = []
    sections = {f.name: getattr(config, f.name) for f in fields(config)}
    for section_name, entries in data.items():
        if section_name not in sections:
            errors.append(f"{section_name}: unknown section")
            continue
        group = sections[section_name]
        known = {f.name: f.type for f in fields(group)}
        for key, raw in entries.items():
            path = f"{section_name}.{key}"
            if key not in known:
                errors.append(f"{path}: unknown key")
                continue
            value = _coerce(path, raw, type(getattr(group, key)), errors)
            if value is not None:
                setattr(group, key, value)
    if errors:
        raise ConfigError(errors)
    config.validate()
    return config


def parse_config(path: str) -> ScenarioConfig:
    """Read an INI config file; missing entries keep their defaults."""
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=path)
        except configparser.Error as exc:
            raise ConfigError([f"{path}: {exc}"]) from exc
    data = {section: dict(parser.items(section)) for section in parser.sections()}
    return config_from_dict(data)


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical INI rendering (insertion-ordered sections, repr floats)."""
    parser = configparser.ConfigParser()
    for section, entries in config.to_dict().items():
        parser[section] = {k: repr(v) if isinstance(v, float) else str(v)
                           for k, v in entries.items()}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(config: ScenarioConfig) -> str:
    """Platform-stable digest of the canonicalized configuration."""
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
