"""Scenario configuration: defaults, file parsing, validation, serialization.

Config files are INI text whose sections mirror the parameter groups
(carrier, noise, bs, hn, eve, channel, power, leader, belief, followers, gne,
refinement, run). Every value is range-checked with a dotted field path;
unknown sections or keys are rejected; missing entries take the defaults. A
canonical JSON rendering provides a platform-stable hash for run manifests.
"""

import configparser
import hashlib
import io
import json
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum


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


@dataclass
class CarrierConfig:
    frequency_hz: float = 28e9
    bandwidth_hz: float = 1e8


@dataclass
class NoiseConfig:
    psd_dbm_per_hz: float = -174.0
    noise_figure_db: float = 7.0


@dataclass
class BsConfig:
    antennas: int = 128
    num_rf: int = 8
    z_m: float = 10.0
    p_max_w: float = 20.0
    p_init_w: float = 15.0
    rzf_reg: float = 1e-3


@dataclass
class HnConfig:
    count: int = 25
    array_elements: int = 16
    p_max_w: float = 1.5
    height_m: float = 1.5
    rx_gain: float = 16.0   # matched-filter combining over the node's array
    eta: float = 1.0
    power_cost_per_w: float = 0.5


@dataclass
class EveConfig:
    count: int = 4
    mobility: str = "static"      # static | waypoint
    speed_mps: float = 1.0
    height_m: float = 1.5
    noise_floor_w: float = 0.0    # worst-case interceptor: no thermal floor


@dataclass
class ChannelParams:
    path_loss_exponent: float = 2.2
    shadow_sigma_db: float = 3.0
    rician_k_db: float = 10.0
    csi_error_frobenius: float = 0.0  # estimate-error budget across all nodes


@dataclass
class PowerModelConfig:
    p_rf_w: float = 0.25
    p_bb_w: float = 1.0
    pa_efficiency: float = 0.4


@dataclass
class LeaderConfig:
    alpha_init: float = 0.6
    beta_init: float = 0.2
    gamma_init: float = 0.2
    pi_init: float = 0.7
    tau_init: float = 0.3
    kappa_init: float = 0.1
    k_s: float = 0.01
    k_pi: float = 0.05
    k_tau: float = 0.05
    k_kappa: float = 0.05
    eta_sigma: float = 0.5
    r_s_target: float = 4.5
    h_max_bits: float = 6.0
    gamma_min: float = 0.02
    gamma_max: float = 0.3
    beta_min: float = 0.0
    beta_max: float = 0.3
    pi_min: float = 0.0
    pi_max: float = 1.0
    tau_min: float = 0.0
    tau_max: float = 1.0
    kappa_min: float = 0.0
    kappa_max: float = 1.0
    xi_target_scale: float = 10.0   # leakage price target, in noise powers


@dataclass
class BeliefConfig:
    grid_size: int = 181
    sigma0_deg: float = 10.0
    meas_noise_deg: float = 5.0
    k_eff: float = 1.0
    sigma_min_deg: float = 1.0
    sigma_max_deg: float = 45.0
    bump_width_deg: float = 2.0
    floor_scale: float = 0.005


@dataclass
class FollowerConfig:
    grid_points: int = 21
    p_fj_max_w: float = 12.0
    xi_max_scale: float = 1.0       # leakage cap, in noise powers
    role_threshold: float = 1.0     # bps/Hz for THN retention
    hypothetical_discount: float = 0.5  # damping on re-admission rate estimates


@dataclass
class GneConfig:
    tolerance: float = 1e-3
    max_iters: int = 50


@dataclass
class RefinementConfig:
    peak_threshold_scale: float = 2.0   # in units of 1/grid_size
    assoc_width_deg: float = 30.0
    j_min_fraction: float = 0.1
    delta_stop: float = 0.01
    max_iters: int = 10
    power_penalty_per_w: float = 1e-3


@dataclass
class RunConfig:
    slots: int = 200
    replications: int = 1
    seed: int = 1
    cell_radius_m: float = 150.0
    min_node_distance_m: float = 25.0
    slot_duration_s: float = 0.01
    outage_threshold: float = 0.5


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
        errors = []

        def check(cond, path, message):
            if not cond:
                errors.append(f"{path}: {message}")

        c = self
        check(c.carrier.frequency_hz > 0, "carrier.frequency_hz", "must be > 0")
        check(c.carrier.bandwidth_hz > 0, "carrier.bandwidth_hz", "must be > 0")
        check(c.bs.antennas >= 1, "bs.antennas", "must be >= 1")
        check(c.bs.num_rf >= 1, "bs.num_rf", "must be >= 1")
        if c.bs.antennas >= 1 and c.bs.num_rf >= 1:
            check(c.bs.antennas % c.bs.num_rf == 0, "bs.num_rf",
                  f"must divide bs.antennas ({c.bs.antennas})")
            # artificial noise needs a nullspace left over by the served streams
            check(min(c.hn.count, c.bs.num_rf) < c.bs.antennas, "bs.num_rf",
                  f"min(hn.count, bs.num_rf) must be < bs.antennas ({c.bs.antennas})")
        check(c.bs.p_max_w > 0, "bs.p_max_w", "must be > 0")
        check(0 < c.bs.p_init_w <= c.bs.p_max_w, "bs.p_init_w",
              f"must be in (0, {c.bs.p_max_w}]")
        check(c.bs.rzf_reg > 0, "bs.rzf_reg", "must be > 0")
        check(c.hn.count >= 1, "hn.count", "must be >= 1")
        check(c.hn.array_elements >= 1, "hn.array_elements", "must be >= 1")
        check(c.hn.p_max_w > 0, "hn.p_max_w", "must be > 0")
        check(c.hn.rx_gain > 0, "hn.rx_gain", "must be > 0")
        check(c.hn.power_cost_per_w >= 0, "hn.power_cost_per_w", "must be >= 0")
        check(c.eve.count >= 1, "eve.count", "must be >= 1")
        check(c.eve.mobility in ("static", "waypoint"), "eve.mobility",
              "must be 'static' or 'waypoint'")
        check(c.eve.speed_mps >= 0, "eve.speed_mps", "must be >= 0")
        check(c.eve.noise_floor_w >= 0, "eve.noise_floor_w", "must be >= 0")
        check(c.channel.path_loss_exponent > 0, "channel.path_loss_exponent",
              "must be > 0")
        check(c.channel.shadow_sigma_db >= 0, "channel.shadow_sigma_db", "must be >= 0")
        check(c.channel.csi_error_frobenius >= 0, "channel.csi_error_frobenius",
              "must be >= 0")
        check(0 < c.power.pa_efficiency <= 1, "power.pa_efficiency", "must be in (0, 1]")
        check(c.power.p_rf_w >= 0, "power.p_rf_w", "must be >= 0")
        check(c.power.p_bb_w >= 0, "power.p_bb_w", "must be >= 0")
        lead = c.leader
        check(abs(lead.alpha_init + lead.beta_init + lead.gamma_init - 1.0) <= 1e-9,
              "leader.alpha_init", "initial split must sum to 1")
        for name in ("k_s", "k_pi", "k_tau", "k_kappa", "eta_sigma"):
            check(getattr(lead, name) > 0, f"leader.{name}", "must be > 0")
        check(0 <= lead.gamma_min < lead.gamma_max <= 1, "leader.gamma_min",
              "need 0 <= gamma_min < gamma_max <= 1")
        check(0 <= lead.beta_min <= lead.beta_max <= 1, "leader.beta_min",
              "need 0 <= beta_min <= beta_max <= 1")
        for price in ("pi", "tau", "kappa"):
            lo, hi = getattr(lead, f"{price}_min"), getattr(lead, f"{price}_max")
            init = getattr(lead, f"{price}_init")
            check(lo <= init <= hi, f"leader.{price}_init",
                  f"must lie in [{lo}, {hi}]")
        check(lead.r_s_target > 0, "leader.r_s_target", "must be > 0")
        check(lead.h_max_bits > 0, "leader.h_max_bits", "must be > 0")
        check(lead.xi_target_scale > 0, "leader.xi_target_scale", "must be > 0")
        check(c.belief.grid_size >= 2, "belief.grid_size", "must be >= 2")
        check(c.belief.sigma0_deg > 0, "belief.sigma0_deg", "must be > 0")
        check(0 < c.belief.sigma_min_deg <= c.belief.sigma_max_deg,
              "belief.sigma_min_deg", "need 0 < sigma_min <= sigma_max")
        check(c.belief.meas_noise_deg >= 0, "belief.meas_noise_deg", "must be >= 0")
        check(c.belief.k_eff > 0, "belief.k_eff", "must be > 0")
        check(c.belief.bump_width_deg > 0, "belief.bump_width_deg", "must be > 0")
        check(c.belief.floor_scale >= 0, "belief.floor_scale", "must be >= 0")
        check(c.followers.grid_points >= 2, "followers.grid_points", "must be >= 2")
        check(c.followers.p_fj_max_w > 0, "followers.p_fj_max_w", "must be > 0")
        check(c.followers.xi_max_scale > 0, "followers.xi_max_scale", "must be > 0")
        check(c.followers.role_threshold >= 0, "followers.role_threshold",
              "must be >= 0")
        check(0 < c.followers.hypothetical_discount <= 1,
              "followers.hypothetical_discount", "must be in (0, 1]")
        check(c.gne.tolerance > 0, "gne.tolerance", "must be > 0")
        if c.followers.grid_points >= 2:
            # a profile change below one grid step means no node moved
            step = c.hn.p_max_w / (c.followers.grid_points - 1)
            check(c.gne.tolerance < step, "gne.tolerance",
                  f"must be below the grid step hn.p_max_w / "
                  f"(followers.grid_points - 1) = {step}")
        check(c.gne.max_iters >= 1, "gne.max_iters", "must be >= 1")
        check(c.refinement.peak_threshold_scale > 0, "refinement.peak_threshold_scale",
              "must be > 0")
        check(c.refinement.assoc_width_deg > 0, "refinement.assoc_width_deg",
              "must be > 0")
        check(0 <= c.refinement.j_min_fraction <= 1, "refinement.j_min_fraction",
              "must be in [0, 1]")
        check(c.refinement.delta_stop > 0, "refinement.delta_stop", "must be > 0")
        check(c.refinement.max_iters >= 1, "refinement.max_iters", "must be >= 1")
        check(c.refinement.power_penalty_per_w >= 0, "refinement.power_penalty_per_w",
              "must be >= 0")
        check(c.run.slots >= 1, "run.slots", "must be >= 1")
        check(c.run.replications >= 1, "run.replications", "must be >= 1")
        check(c.run.seed >= 0, "run.seed", "must be >= 0")
        check(c.run.min_node_distance_m > 0, "run.min_node_distance_m", "must be > 0")
        check(c.run.cell_radius_m > c.run.min_node_distance_m, "run.cell_radius_m",
              f"must exceed min_node_distance_m ({c.run.min_node_distance_m})")
        check(c.run.slot_duration_s > 0, "run.slot_duration_s", "must be > 0")
        check(c.run.outage_threshold >= 0, "run.outage_threshold", "must be >= 0")
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
