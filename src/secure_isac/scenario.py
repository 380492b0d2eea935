"""The per-seed Scenario and the per-run World over it.

A Scenario is what (config, seed) fixes: placements, channels, the node link
tables, the served-set ranking, each served set's base-station terms, the
belief grid, the eavesdroppers' positions in every slot (and their LOS
channels when they stand still), and the refinement's jamming beams, since no
decision moves them. It is frozen and its arrays are read-only, so
many runs (every strategy of a comparison) can share one, and a waypoint walk
runs once per scenario. A World is one run's decision state: the (E, G) bearing posterior,
leader, roles, powers, beams.
"""

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .arrays import ArraySpec, steering_vector, ula_positions
from .belief import BeliefState, default_grid, uniform_prior
from .channel import (C_LIGHT, STREAM_CSI_ERROR, STREAM_HN_NLOS,
                      STREAM_PAIR_SHADOW, STREAM_PLACEMENT, STREAM_SHADOW,
                      STREAM_WAYPOINT, PathLossModel, linear_gain, los_channel,
                      noise_power, path_loss_db, rician_channel, substream,
                      substream_normals)
from .config import RunConfig, ScenarioConfig
from .followers import FeasibilitySpec, Role
from .leader import Broadcast, LeaderKpis, LeaderState
from .link import an_projector, an_residual, build_precoder, served_coupling
from .refinement import aligned_beam, protective_nulls, ray_aim


class ServedTerms(NamedTuple):
    """A served set's base-station terms, fixed by the scenario: the AN
    basis, and at each served node (stream order) the coupling to its own
    stream, the summed coupling to the other streams (link.served_coupling,
    under the set's precoder) and the AN residual (link.an_residual) of its
    true channel. A slot scales them by its stream and AN powers."""

    basis: np.ndarray       # (N, U)
    own: np.ndarray         # (U,)
    cross: np.ndarray       # (U,)
    residual: np.ndarray    # (U,)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything one (config, seed) fixes; shared read-only by its runs."""

    config: ScenarioConfig
    seed: int
    bs_spec: ArraySpec
    hn_spec: ArraySpec
    bs_center: np.ndarray             # (3,) array centroid
    bs_elements: np.ndarray           # (N, 3) element positions
    noise_w: float
    pl_model: PathLossModel
    k_lin: float                      # linear Rician factor
    hn_positions: np.ndarray          # (K, 3)
    eve_start: np.ndarray             # (E, 3) eavesdropper positions at slot 0
    hn_channels: np.ndarray           # (K, N) static BS->HN channels
    hn_estimates: np.ndarray          # (K, N) what the precoder believes they are
    hn_norm2: np.ndarray              # (K,) static channel powers
    hn_rank: tuple                    # node ids by static channel power, strongest first
    hn_bearing_deg: tuple             # each node's ground bearing from the origin (floats)
    eve_shadow: np.ndarray            # (E,) fixed shadowing draws per eavesdropper
    pair_shadow: np.ndarray           # (K, K+E) symmetric-in-nodes draws
    link_gain: np.ndarray             # (K, K) squared path gain before fading
    link_steer: np.ndarray            # (K, K, n) node-array steering to each other
    grid_deg: np.ndarray              # (G,) the belief grid's bearings
    grid_steer_conj: np.ndarray       # (G, n) conjugated node-array steering over the belief grid
    # victim_links under static mobility, built once; None under a walk
    static_links: tuple | None
    feasibility: FeasibilitySpec      # the follower constraints and power grid
    # BS->eavesdropper LOS channels under static mobility, built once; None
    # under a walk
    static_eve_los: np.ndarray | None
    # each served set's ServedTerms: a pure function of the channels, their
    # estimates and the served set
    precoder_cache: dict = field(default_factory=dict)
    # the waypoint walk: the positions of the slots walked so far, and the
    # generator that walks on
    walk_cache: dict = field(default_factory=dict)
    # the refinement's jamming beams by (node, peak, protected node ids), a
    # pure function of each key
    geometry_cache: dict = field(default_factory=dict)

    def eve_positions(self, slot: int) -> np.ndarray:
        """Eavesdropper positions (E, 3) in `slot`, read-only. A waypoint walk
        runs once per scenario, as far as the latest slot asked for, and every
        run over the scenario shares it."""
        if self.config.eve.mobility != "waypoint":
            return self.eve_start
        if not self.walk_cache:
            self.walk_cache.update(
                positions=[], steps=_waypoint_walk(self.config, self.seed, self.eve_start))
        positions = self.walk_cache["positions"]
        while len(positions) <= slot:
            positions.append(next(self.walk_cache["steps"]))
        return positions[slot]

    def victim_links(self, slot: int):
        """Squared path gains before fading (K, K+E) and node-array steering
        (K, K+E, n) from each node toward every node and then every
        eavesdropper in `slot`, read-only. Under static mobility they are
        built once and shared by every run; a waypoint walk builds them each
        slot."""
        if self.static_links is not None:
            return self.static_links
        return _victim_links(self.hn_positions, self.eve_positions(slot), self.pair_shadow,
                             self.pl_model, self.hn_spec, self.link_gain, self.link_steer)

    def jamming_beams(self, nodes: list, peaks_deg: list, served: tuple) -> list:
        """refinement.aligned_beam of each node at its ray aim toward its
        posterior peak bearing (refinement.ray_aim), with nulls toward the
        served nodes it protects (refinement.protective_nulls) and its gain
        row over the belief grid; cached by (node, peak, protected node ids),
        its arrays read-only. The distinct keys not yet cached are built in
        one ray_aim call and one aligned_beam call; the null steering is the
        node's row of link_steer at the protected nodes."""
        protected = protective_nulls(nodes, served, self.hn_positions, self.hn_spec).tolist()
        keys = [(u, p, tuple(ids)) for u, p, ids in zip(nodes, peaks_deg, protected)]
        misses = [key for key in dict.fromkeys(keys) if key not in self.geometry_cache]
        if misses:
            cfg, rows = self.config, [node for node, _, _ in misses]
            aims = ray_aim(self.hn_positions[rows], [peak for _, peak, _ in misses],
                           self.hn_spec, (cfg.run.min_node_distance_m, cfg.run.cell_radius_m),
                           cfg.eve.height_m, cfg.channel.path_loss_exponent)
            null_steering = self.link_steer[np.array(rows)[:, None],
                                            np.array([ids for *_, ids in misses], dtype=int)]
            beams = aligned_beam(aims, null_steering, self.hn_spec, self.grid_steer_conj)
            for beam in beams:
                beam.weights.setflags(write=False)
                beam.gain_row.setflags(write=False)
            self.geometry_cache.update(zip(misses, beams))
        return [self.geometry_cache[key] for key in keys]

    def eve_los(self, slot: int) -> np.ndarray:
        """LOS channels (E, N) from the base station to the eavesdroppers in
        `slot`. Under static mobility they are built once, read-only, and
        shared by every run; a waypoint walk builds them each slot."""
        if self.static_eve_los is not None:
            return self.static_eve_los
        return _eve_los(self.bs_elements, self.bs_center, self.bs_spec.wavelength,
                        self.pl_model, self.eve_shadow, self.eve_positions(slot))

    def precoder(self, served: tuple) -> ServedTerms:
        """The served set's ServedTerms, cached and read-only. The precoder
        and AN basis are built from the channel estimates (the true channels
        unless a CSI error is configured); the coupling and the residual are
        those of the true channels."""
        if served not in self.precoder_cache:
            estimates = self.hn_estimates[list(served)]
            channels = self.hn_channels[list(served)]
            prec = build_precoder(estimates, self.config.bs.num_rf, self.config.bs.rzf_reg)
            basis = an_projector(estimates, num_antennas=self.config.bs.antennas)
            terms = ServedTerms(basis, *served_coupling(channels, prec.beams),
                                an_residual(channels, basis))
            for arr in terms:
                arr.setflags(write=False)     # shared by every run
            self.precoder_cache[served] = terms
        return self.precoder_cache[served]


@dataclass
class World:
    """One run's decision state over a shared Scenario."""

    scenario: Scenario
    posterior: np.ndarray             # (E, G) bearing posterior, one row per eavesdropper
    leader: LeaderState
    roles: dict
    powers: np.ndarray
    prev_kpis: LeaderKpis
    jhn_beams: dict = field(default_factory=dict)
    entropy_ema: float | None = None
    secrecy_ema: float | None = None
    last_field: np.ndarray | None = None
    last_coalitions: list = field(default_factory=list)
    belief_history: list = field(default_factory=list)

    @property
    def config(self) -> ScenarioConfig:
        return self.scenario.config

    @property
    def num_hn(self) -> int:
        return self.scenario.hn_positions.shape[0]

    @property
    def beliefs(self) -> list:
        """One BeliefState per eavesdropper whose probs are a writable row
        view of the posterior."""
        grid = self.scenario.grid_deg
        return [BeliefState(grid, row, j) for j, row in enumerate(self.posterior)]


def _draw_sector_position(rng, run: RunConfig, height: float) -> np.ndarray:
    """Area-uniform draw in the forward half-annulus (bearings within +-90 deg)."""
    radius = np.sqrt(rng.uniform(run.min_node_distance_m ** 2, run.cell_radius_m ** 2))
    azimuth = rng.uniform(-np.pi / 2, np.pi / 2)
    return np.array([radius * np.cos(azimuth), radius * np.sin(azimuth), height])


def bearing_deg(targets: np.ndarray):
    """Ground-plane bearings of targets (..., 3) from the BS ground origin,
    degrees in (-180, 180]."""
    return np.degrees(np.arctan2(targets[..., 1], targets[..., 0]))


def build_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Validate the config, place the nodes, realize the quasi-static
    channels and the node link tables, and freeze the result."""
    config.validate()
    lam = C_LIGHT / config.carrier.frequency_hz
    bs_spec = ArraySpec.half_wavelength(config.bs.antennas, lam)
    bs_center = np.array([0.0, 0.0, config.bs.z_m])
    bs_elements = ula_positions(bs_spec) + bs_center
    noise_w = noise_power(config.noise.psd_dbm_per_hz, config.carrier.bandwidth_hz,
                          config.noise.noise_figure_db)
    pl_model = PathLossModel.friis_reference(config.carrier.frequency_hz,
                                             config.channel.path_loss_exponent,
                                             config.channel.shadow_sigma_db)

    place = substream(seed, STREAM_PLACEMENT)
    k, e = config.hn.count, config.eve.count
    hn_positions = np.stack([_draw_sector_position(place, config.run, config.hn.height_m)
                             for _ in range(k)])
    eve_start = np.stack([_draw_sector_position(place, config.run, config.eve.height_m)
                          for _ in range(e)])

    k_lin = 10.0 ** (config.channel.rician_k_db / 10.0)
    shadow = substream_normals(
        seed, np.stack([np.full(k + e, STREAM_SHADOW), np.arange(k + e)], axis=1), 1)[:, 0]
    hn_shadow, eve_shadow = shadow[:k], shadow[k:]
    hn_gains = linear_gain(path_loss_db(
        pl_model, np.linalg.norm(hn_positions - bs_center, axis=-1), hn_shadow))
    hn_channels = rician_channel(
        k_lin, los_channel(bs_elements, hn_positions, hn_gains, lam),
        [substream(seed, STREAM_HN_NLOS, uid) for uid in range(k)])

    # one draw per unordered pair (i <= j), mirrored into the node block
    row, col = np.triu_indices(k, m=k + e)
    pair_shadow = np.zeros((k, k + e))
    pair_shadow[row, col] = substream_normals(
        seed, np.stack([np.full(len(row), STREAM_PAIR_SHADOW), row, col], axis=1), 1)[:, 0]
    nodes = col < k
    pair_shadow[col[nodes], row[nodes]] = pair_shadow[row[nodes], col[nodes]]

    hn_norm2 = np.einsum("kn,kn->k", hn_channels.conj(), hn_channels).real
    hn_spec = ArraySpec.half_wavelength(config.hn.array_elements, lam)
    grid_deg = default_grid(config.belief.grid_size)
    link_gain, link_steer = _link_columns(
        hn_positions, hn_positions, pair_shadow[:, :k], pl_model, hn_spec)
    np.fill_diagonal(link_gain, 0.0)      # a node does not jam itself
    static = config.eve.mobility != "waypoint"
    static_links = (_victim_links(hn_positions, eve_start, pair_shadow, pl_model, hn_spec,
                                  link_gain, link_steer) if static else None)
    scenario = Scenario(
        config=config, seed=seed, bs_spec=bs_spec, hn_spec=hn_spec,
        bs_center=bs_center, bs_elements=bs_elements, noise_w=noise_w,
        pl_model=pl_model, k_lin=k_lin, hn_positions=hn_positions,
        eve_start=eve_start, hn_channels=hn_channels,
        hn_estimates=_estimate_channels(hn_channels, config, seed),
        hn_norm2=hn_norm2, hn_rank=tuple(np.argsort(-hn_norm2).tolist()),
        hn_bearing_deg=tuple(bearing_deg(hn_positions).tolist()),
        eve_shadow=eve_shadow, pair_shadow=pair_shadow,
        link_gain=link_gain, link_steer=link_steer,
        grid_deg=grid_deg,
        grid_steer_conj=steering_vector(hn_spec, np.radians(grid_deg)).conj(),
        static_links=static_links,
        static_eve_los=(_eve_los(bs_elements, bs_center, lam, pl_model, eve_shadow, eve_start)
                        if static else None),
        feasibility=FeasibilitySpec(
            p_max=config.hn.p_max_w, p_fj_max=config.followers.p_fj_max_w,
            xi_max=config.followers.xi_max_scale * noise_w,
            grid_points=config.followers.grid_points))
    for f in fields(scenario):
        value = getattr(scenario, f.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return scenario


def _estimate_channels(hn_channels: np.ndarray, config: ScenarioConfig,
                       seed: int) -> np.ndarray:
    """Channel estimates the precoder works from.

    With a zero error budget these are the true channels (and stay
    bit-identical to earlier runs); otherwise each node's estimate carries an
    additive Gaussian perturbation, jointly scaled so the stacked error has
    exactly the configured Frobenius norm.
    """
    bound = config.channel.csi_error_frobenius
    if bound <= 0.0:
        return hn_channels
    rng = substream(seed, STREAM_CSI_ERROR)
    errors = np.stack([rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
                       for h in hn_channels])
    total = np.sqrt(np.einsum("kn,kn->", errors.conj(), errors).real)
    return hn_channels + (bound / total) * errors


def start_run(scenario: Scenario) -> World:
    """A fresh run over the scenario: the uniform prior for every
    eavesdropper, the configured leader start, and the warm role split."""
    config = scenario.config
    lead, k, e = config.leader, config.hn.count, config.eve.count
    return World(
        scenario=scenario,
        posterior=np.tile(uniform_prior(config.belief.grid_size).probs, (e, 1)),
        leader=LeaderState(Broadcast(lead.alpha_init, lead.beta_init, lead.gamma_init,
                                     lead.pi_init, lead.tau_init, lead.kappa_init),
                           config.belief.sigma0_deg),
        # warm role start: the strongest channels begin as transmit nodes,
        # the rest as jammers, so defense is active from the first slot
        roles={u: (Role.THN if rank < config.bs.num_rf else Role.JHN)
               for rank, u in enumerate(scenario.hn_rank)},
        powers=np.zeros(k),
        prev_kpis=LeaderKpis(secrecy=lead.r_s_target))


def init_scenario(config: ScenarioConfig, seed: int) -> World:
    """A fresh run over a newly built scenario."""
    return start_run(build_scenario(config, seed))


def _waypoint_walk(config: ScenarioConfig, seed: int, start: np.ndarray):
    """Eavesdropper positions slot after slot from `start`: each moves toward
    its waypoint and draws the next one on arrival. It takes no Scenario, so
    the walk a Scenario caches holds no reference back to it."""
    step = config.eve.speed_mps * config.run.slot_duration_s
    r_min = config.run.min_node_distance_m
    legs = np.zeros(len(start), dtype=int)   # the first waypoint is leg 0

    def next_waypoint(eve_id: int) -> np.ndarray:
        leg = int(legs[eve_id])
        legs[eve_id] = leg + 1
        rng = substream(seed, STREAM_WAYPOINT, eve_id, leg)
        return _draw_sector_position(rng, config.run, config.eve.height_m)

    positions = start
    waypoints = np.stack([next_waypoint(j) for j in range(len(legs))])
    while True:
        yield positions
        delta = waypoints - positions
        dist = np.linalg.norm(delta, axis=-1)
        arrived = dist <= step
        positions = np.where(arrived[:, None], waypoints,
                             positions + delta * (step / np.where(arrived, 1.0, dist))[:, None])
        # keep mobile nodes outside the exclusion disc
        radius = np.linalg.norm(positions[:, :2], axis=-1)
        inside = (radius > 0) & (radius < r_min)
        positions[inside, :2] *= (r_min / radius[inside])[:, None]
        for j in np.flatnonzero(arrived):
            waypoints[j] = next_waypoint(j)
        positions.setflags(write=False)


def _eve_los(bs_elements: np.ndarray, bs_center: np.ndarray, wavelength: float,
             pl_model: PathLossModel, eve_shadow: np.ndarray,
             positions: np.ndarray) -> np.ndarray:
    """LOS channels (E, N) from the base-station elements to the
    eavesdroppers at `positions` (E, 3) under their shadowing draws (E,)."""
    gains = linear_gain(path_loss_db(
        pl_model, np.linalg.norm(positions - bs_center, axis=-1), eve_shadow))
    return los_channel(bs_elements, positions, gains, wavelength)


def _link_columns(nodes: np.ndarray, victims: np.ndarray, shadow: np.ndarray,
                  pl_model: PathLossModel, spec: ArraySpec):
    """Link tables from each hybrid node (K, 3) toward each victim (V, 3):
    squared path gain before fading (K, V) under the pair shadowing draws
    (K, V), and node-array steering along the ground bearing (K, V, n)."""
    d = victims[None] - nodes[:, None]
    dist = np.maximum(np.linalg.norm(d, axis=-1), 1.0)
    gain = linear_gain(path_loss_db(pl_model, dist, shadow)) ** 2
    bearing = np.degrees(np.arctan2(d[..., 1], d[..., 0]))
    return gain, steering_vector(spec, np.radians(bearing))


def _victim_links(nodes: np.ndarray, eves: np.ndarray, pair_shadow: np.ndarray,
                  pl_model: PathLossModel, spec: ArraySpec, link_gain: np.ndarray,
                  link_steer: np.ndarray):
    """The node link tables (K, K) and (K, K, n) extended by the columns
    toward the eavesdroppers at `eves` (E, 3), read-only."""
    k = nodes.shape[0]
    eve_gain, eve_steer = _link_columns(nodes, eves, pair_shadow[:, k:], pl_model, spec)
    links = (np.hstack([link_gain, eve_gain]),
             np.concatenate([link_steer, eve_steer], axis=1))
    for arr in links:
        arr.setflags(write=False)
    return links
