"""Scenario construction and the per-slot simulation loop.

Each slot runs: eavesdropper mobility and fading, belief prediction, the
leader's split/price update, the hybrid-node power game, secrecy-threshold
role switching, the sensing measurement and posterior update, cooperative
jamming refinement, and metric collection. Strategy variants gate these
stages: the plain baseline transmits data only, fixed_an adds a static
nullspace-noise split, stackelberg_only adds the adaptive leader,
stackelberg_roleswitch adds the power game and role switching, and ibeams
adds the posterior-aligned refinement layer.

Secrecy is always assessed against the worst-case interceptor: full
matched-filter capture of a stream, multiuser interference cancelled, and no
thermal floor by default, so only artificial noise and cooperative jamming
appear in her denominator. Conventional transmission therefore scores exactly
zero secrecy, which is the operating regime the defense layers are judged
against.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArraySpec, steering_vector, ula_positions
from .belief import (entropy, predict, synthesize_measurement, uniform_prior,
                     update)
from .channel import (STREAM_FADE, STREAM_HN_NLOS, STREAM_MEASUREMENT,
                      STREAM_PLACEMENT, STREAM_SHADOW, STREAM_WAYPOINT,
                      NoiseSpec, PathLossModel, eve_channel, linear_gain,
                      los_channel, noise_power, path_loss_db, rician_channel,
                      substream)
from .config import ScenarioConfig, StrategyId
from .followers import (FeasibilitySpec, NodeState, Role, gne_solve, role_switch)
from .leader import (Broadcast, LeaderGains, LeaderKpis, LeaderState,
                     leader_objective, leader_residual, leader_step)
from .link import (PowerConsts, SlotContext, SlotRecord, an_power_at,
                   an_projector, build_precoder, outage_metrics,
                   power_accounting, see)
from .refinement import posterior_peaks, refinement_loop

log = logging.getLogger(__name__)

C_LIGHT = 299792458.0
STREAM_PAIR_SHADOW = 8
STREAM_CSI_ERROR = 9


class GeometryError(ValueError):
    """Scenario geometry cannot be realized."""


def _leader_gains(config: ScenarioConfig, noise_w: float) -> LeaderGains:
    lead = config.leader
    bel = config.belief
    return LeaderGains(
        k_s=lead.k_s, k_pi=lead.k_pi, k_tau=lead.k_tau, k_kappa=lead.k_kappa,
        eta_sigma=lead.eta_sigma, r_s_target=lead.r_s_target,
        h_max=lead.h_max_bits, gamma_min=lead.gamma_min, gamma_max=lead.gamma_max,
        xi_target_w=lead.xi_target_scale * noise_w,
        beta_min=lead.beta_min, beta_max=lead.beta_max,
        sigma_min_deg=bel.sigma_min_deg, sigma_max_deg=bel.sigma_max_deg,
        pi_bounds=(lead.pi_min, lead.pi_max),
        tau_bounds=(lead.tau_min, lead.tau_max),
        kappa_bounds=(lead.kappa_min, lead.kappa_max))


@dataclass
class World:
    """Mutable simulation state for one replication."""

    config: ScenarioConfig
    seed: int
    bs_spec: ArraySpec
    hn_spec: ArraySpec
    bs_elements: np.ndarray           # (N, 3) element positions
    noise_w: float
    pl_model: PathLossModel
    hn_positions: np.ndarray          # (K, 3)
    eve_positions: np.ndarray         # (E, 3)
    hn_channels: list                 # static BS->HN vectors
    hn_estimates: list                # what the precoder believes they are
    hn_norm2: np.ndarray              # static channel powers
    eve_shadow: np.ndarray            # fixed shadowing draws per eavesdropper
    pair_shadow: np.ndarray           # (K, K+E) symmetric-in-nodes draws
    beliefs: list
    leader: LeaderState
    gains: LeaderGains
    roles: dict
    powers: np.ndarray
    jhn_beams: dict = field(default_factory=dict)
    eve_waypoints: np.ndarray | None = None
    eve_leg: np.ndarray | None = None
    prev_kpis: LeaderKpis = field(default_factory=LeaderKpis)
    prev_entropy_max: float = 0.0
    entropy_ema: float | None = None
    secrecy_ema: float | None = None
    precoder_cache: dict = field(default_factory=dict)
    last_field: np.ndarray | None = None
    last_coalitions: list = field(default_factory=list)
    belief_history: list = field(default_factory=list)

    @property
    def num_hn(self) -> int:
        return self.hn_positions.shape[0]

    @property
    def num_eve(self) -> int:
        return self.eve_positions.shape[0]


def _draw_sector_position(rng, r_min: float, r_max: float, height: float) -> np.ndarray:
    """Area-uniform draw in the forward half-annulus (bearings within +-90 deg)."""
    radius = np.sqrt(rng.uniform(r_min ** 2, r_max ** 2))
    azimuth = rng.uniform(-np.pi / 2, np.pi / 2)
    return np.array([radius * np.cos(azimuth), radius * np.sin(azimuth), height])


def bearing_deg(origin: np.ndarray, target: np.ndarray) -> float:
    """Ground-plane bearing of target from origin, degrees in (-180, 180]."""
    d = target - origin
    return float(np.degrees(np.arctan2(d[1], d[0])))


def init_scenario(config: ScenarioConfig, seed: int) -> World:
    """Place nodes, realize quasi-static channels, and initialize all layers."""
    run = config.run
    if run.cell_radius_m <= run.min_node_distance_m:
        raise GeometryError(
            f"cell radius {run.cell_radius_m} m does not exceed the minimum node "
            f"distance {run.min_node_distance_m} m")
    lam = C_LIGHT / config.carrier.frequency_hz
    bs_spec = ArraySpec.half_wavelength(config.bs.antennas, lam)
    hn_spec = ArraySpec.half_wavelength(config.hn.array_elements, lam)
    bs_center = np.array([0.0, 0.0, config.bs.z_m])
    bs_elements = ula_positions(bs_spec) + bs_center

    noise_w = noise_power(NoiseSpec(config.noise.psd_dbm_per_hz,
                                    config.carrier.bandwidth_hz,
                                    config.noise.noise_figure_db))
    pl_model = PathLossModel.friis_reference(config.carrier.frequency_hz,
                                             config.channel.path_loss_exponent,
                                             config.channel.shadow_sigma_db)

    place = substream(seed, STREAM_PLACEMENT)
    k, e = config.hn.count, config.eve.count
    hn_positions = np.stack([
        _draw_sector_position(place, run.min_node_distance_m, run.cell_radius_m,
                              config.hn.height_m) for _ in range(k)])
    eve_positions = np.stack([
        _draw_sector_position(place, run.min_node_distance_m, run.cell_radius_m,
                              config.eve.height_m) for _ in range(e)])

    k_lin = 10.0 ** (config.channel.rician_k_db / 10.0)
    hn_channels = []
    for uid in range(k):
        shadow = substream(seed, STREAM_SHADOW, uid).standard_normal()
        dist = np.linalg.norm(hn_positions[uid] - bs_center)
        gain = linear_gain(path_loss_db(pl_model, dist, shadow))
        los = los_channel(bs_elements, hn_positions[uid], gain, lam)
        hn_channels.append(rician_channel(k_lin, los, substream(seed, STREAM_HN_NLOS, uid)))
    hn_norm2 = np.array([np.linalg.norm(h) ** 2 for h in hn_channels])
    hn_estimates = _estimate_channels(hn_channels, config, seed)

    eve_shadow = np.array([substream(seed, STREAM_SHADOW, k + j).standard_normal()
                           for j in range(e)])
    pair_shadow = np.zeros((k, k + e))
    for i in range(k):
        for j in range(k + e):
            a, b = (i, j) if j >= i else (j, i)
            pair_shadow[i, j] = substream(seed, STREAM_PAIR_SHADOW, a, b).standard_normal()

    lead = config.leader
    leader = LeaderState(alpha=lead.alpha_init, beta=lead.beta_init,
                         gamma=lead.gamma_init, pi=lead.pi_init, tau=lead.tau_init,
                         kappa=lead.kappa_init, kernel_sigma_deg=config.belief.sigma0_deg)
    beliefs = [uniform_prior(config.belief.grid_size, config.belief.sigma0_deg, j)
               for j in range(e)]

    # warm role start: the strongest channels begin as transmit nodes, the
    # rest as jammers, so defense is active from the first slot
    ranked = np.argsort(-hn_norm2)
    roles = {int(u): (Role.THN if rank < config.bs.num_rf else Role.JHN)
             for rank, u in enumerate(ranked)}
    world = World(
        config=config, seed=seed, bs_spec=bs_spec, hn_spec=hn_spec,
        bs_elements=bs_elements, noise_w=noise_w, pl_model=pl_model,
        hn_positions=hn_positions, eve_positions=eve_positions,
        hn_channels=hn_channels, hn_estimates=hn_estimates,
        hn_norm2=hn_norm2, eve_shadow=eve_shadow,
        pair_shadow=pair_shadow, beliefs=beliefs, leader=leader,
        gains=_leader_gains(config, noise_w),
        roles=roles,
        powers=np.zeros(k))
    world.prev_kpis = LeaderKpis(secrecy=config.leader.r_s_target)
    if config.eve.mobility == "waypoint":
        world.eve_leg = np.zeros(e, dtype=int)
        world.eve_waypoints = np.stack([_next_waypoint(world, j) for j in range(e)])
    return world


def _estimate_channels(hn_channels, config: ScenarioConfig, seed: int) -> list:
    """Channel estimates the precoder works from.

    With a zero error budget these are the true channels (and stay
    bit-identical to earlier runs); otherwise each node's estimate carries an
    additive Gaussian perturbation, jointly scaled so the stacked error has
    exactly the configured Frobenius norm.
    """
    bound = config.channel.csi_error_frobenius
    if bound <= 0.0:
        return list(hn_channels)
    rng = substream(seed, STREAM_CSI_ERROR)
    errors = [rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
              for h in hn_channels]
    total = np.sqrt(sum(np.linalg.norm(e) ** 2 for e in errors))
    scale = bound / total
    return [h + scale * e for h, e in zip(hn_channels, errors)]


def _next_waypoint(world: World, eve_id: int) -> np.ndarray:
    leg = int(world.eve_leg[eve_id])
    world.eve_leg[eve_id] = leg + 1
    rng = substream(world.seed, STREAM_WAYPOINT, eve_id, leg)
    return _draw_sector_position(rng, world.config.run.min_node_distance_m,
                                 world.config.run.cell_radius_m,
                                 world.config.eve.height_m)


def step_eves(world: World, slot: int) -> None:
    """Advance eavesdroppers toward their waypoints, redrawing on arrival."""
    if world.config.eve.mobility != "waypoint":
        return
    step = world.config.eve.speed_mps * world.config.run.slot_duration_s
    r_min = world.config.run.min_node_distance_m
    for j in range(world.num_eve):
        pos = world.eve_positions[j]
        target = world.eve_waypoints[j]
        delta = target - pos
        dist = np.linalg.norm(delta)
        if dist <= step:
            world.eve_positions[j] = target
            world.eve_waypoints[j] = _next_waypoint(world, j)
        else:
            world.eve_positions[j] = pos + delta * (step / dist)
        ground = world.eve_positions[j][:2]
        radius = np.linalg.norm(ground)
        if 0 < radius < r_min:  # keep mobile nodes outside the exclusion disc
            world.eve_positions[j][:2] = ground * (r_min / radius)


def _eve_channels(world: World, slot: int) -> list:
    lam = world.bs_spec.wavelength
    k_lin = 10.0 ** (world.config.channel.rician_k_db / 10.0)
    bs_center = np.array([0.0, 0.0, world.config.bs.z_m])
    channels = []
    for j in range(world.num_eve):
        dist = np.linalg.norm(world.eve_positions[j] - bs_center)
        gain = linear_gain(path_loss_db(world.pl_model, dist, world.eve_shadow[j]))
        los = los_channel(world.bs_elements, world.eve_positions[j], gain, lam)
        channels.append(eve_channel(k_lin, los, slot, world.seed, j))
    return channels


def _precoder_for(world: World, served: tuple):
    """Precoder and AN basis for a served set (cached; built from the channel
    estimates, which equal the true channels unless a CSI error is configured)."""
    if served not in world.precoder_cache:
        estimates = [world.hn_estimates[u] for u in served]
        prec = build_precoder(estimates, world.config.bs.num_rf, world.config.bs.rzf_reg)
        basis = an_projector(estimates, num_antennas=world.config.bs.antennas) \
            if estimates else an_projector([], num_antennas=world.config.bs.antennas)
        world.precoder_cache[served] = (prec, basis)
    return world.precoder_cache[served]


def _select_served(world: World, roles: dict) -> list:
    """Up to num_rf transmit-role nodes, strongest static channels first."""
    candidates = [u for u in np.argsort(-world.hn_norm2) if roles[int(u)] is Role.THN]
    return [int(u) for u in candidates[: world.config.bs.num_rf]]


def _node_gain_tables(world: World, slot: int):
    """Path/fade gains between hybrid nodes and toward eavesdroppers.

    Returns (node_path (K, K+E) delivered watts per watt before beam pattern,
    bearings (K, K+E) degrees from each node toward each victim).
    """
    k, e = world.num_hn, world.num_eve
    targets = np.vstack([world.hn_positions, world.eve_positions])
    fades = substream(world.seed, STREAM_FADE, slot).exponential(1.0, size=(k, k + e))
    path = np.zeros((k, k + e))
    bearings = np.zeros((k, k + e))
    for i in range(k):
        for j in range(k + e):
            if j == i:
                continue
            dist = np.linalg.norm(targets[j] - world.hn_positions[i])
            pl = path_loss_db(world.pl_model, max(dist, 1.0), world.pair_shadow[i, j])
            path[i, j] = linear_gain(pl) ** 2 * fades[i, j]
            bearings[i, j] = bearing_deg(world.hn_positions[i], targets[j])
    return path, bearings


def _pattern_table(world: World, node_bearings: np.ndarray) -> np.ndarray:
    """Transmit pattern gains (K, K+E) for every node toward every victim."""
    spec = world.hn_spec
    n = spec.num_elements
    idx = np.arange(n) - (n - 1) / 2.0
    phase = spec.wavenumber * spec.spacing
    uniform = np.ones(n, dtype=complex) / np.sqrt(n)
    k = node_bearings.shape[0]
    pattern = np.zeros_like(node_bearings)
    for i in range(k):
        beam = world.jhn_beams.get(i, uniform)
        steer = np.exp(1j * phase * np.outer(np.sin(np.radians(node_bearings[i])),
                                             idx)) / np.sqrt(n)
        pattern[i] = np.abs(steer.conj() @ beam) ** 2
        pattern[i, i] = 0.0
    return pattern


def build_slot_context(world: World, served: list, broadcast: Broadcast,
                       eve_channels: list, node_path: np.ndarray,
                       node_bearings: np.ndarray, beams: dict | None = None,
                       info_gain: float = 0.0):
    """Assemble the per-slot interference coefficients.

    Returns (SlotContext, jam gains toward every hybrid node (K, K) for
    hypothetical-rate evaluation).
    """
    cfg = world.config
    k, e = world.num_hn, world.num_eve
    p_bs = cfg.bs.p_init_w
    prec, basis = _precoder_for(world, tuple(served))
    u_count = max(len(served), 1)
    p_stream = broadcast.alpha * p_bs / u_count

    saved = world.jhn_beams
    if beams is not None:
        world.jhn_beams = beams
    try:
        pattern = _pattern_table(world, node_bearings)
    finally:
        world.jhn_beams = saved

    delivered = node_path * pattern                   # (K, K+E) watts per watt
    jam_to_nodes = delivered[:, :k]
    jam_to_eve = delivered[:, k:]

    rx = cfg.hn.rx_gain
    an_total = broadcast.beta * p_bs
    sig = np.zeros(len(served))
    isi = np.zeros(len(served))
    an_thn = np.zeros(len(served))
    for idx, u in enumerate(served):
        beam_gain = np.abs(np.conj(world.hn_channels[u]) @ prec.beams) ** 2
        sig[idx] = p_stream * beam_gain[idx] * rx
        isi[idx] = p_stream * (beam_gain.sum() - beam_gain[idx]) * rx
        an_thn[idx] = an_power_at(world.hn_channels[u], basis, an_total) * rx

    eve_capture = np.array([p_stream * np.linalg.norm(h) ** 2 for h in eve_channels])
    eve_an = np.array([an_power_at(h, basis, an_total) for h in eve_channels])

    ctx = SlotContext(
        served=list(served), sig_w=sig, isi_w=isi, an_thn_w=an_thn,
        noise_w=world.noise_w, eve_capture_w=eve_capture, eve_an_w=eve_an,
        jam_to_eve=jam_to_eve, jam_to_thn=jam_to_nodes[:, served] if served
        else np.zeros((k, 0)),
        eve_noise_w=cfg.eve.noise_floor_w, info_gain=info_gain,
        p_stream_w=p_stream)
    return ctx, jam_to_nodes


def _hypothetical_rate(world: World, uid: int, ctx: SlotContext,
                       jam_to_nodes: np.ndarray, powers: np.ndarray,
                       p_stream: float) -> float:
    """Secrecy rate node uid would see if it were served right now.

    The sub-array architecture delivers roughly 1/num_rf of the full-aperture
    matched gain, so the estimate applies that factor."""
    leak = float(powers @ jam_to_nodes[:, uid])
    sinr = p_stream * world.hn_norm2[uid] / world.config.bs.num_rf \
        * world.config.hn.rx_gain / (leak + world.noise_w)
    # evaluate the interceptor at the hypothetical stream power too, not at a
    # transient concentration on few streams
    eve = ctx.eve_rate_max(powers, capture_scale=p_stream / ctx.p_stream_w)
    if not np.isfinite(eve):
        return 0.0
    return max(0.0, float(np.log2(1.0 + sinr)) - eve)


def _project_leakage(powers: np.ndarray, ctx: SlotContext, xi_max: float) -> np.ndarray:
    """Scale jamming powers so every served node's leakage cap holds."""
    if not ctx.served:
        return powers
    leak = ctx.leakage_at_served(powers)
    worst = leak.max()
    if worst <= xi_max:
        return powers
    return powers * (xi_max / worst)


def _strategy_flags(strategy: StrategyId):
    leader_on = strategy in (StrategyId.STACKELBERG_ONLY,
                             StrategyId.STACKELBERG_ROLESWITCH, StrategyId.IBEAMS)
    gne_on = strategy in (StrategyId.STACKELBERG_ROLESWITCH, StrategyId.IBEAMS)
    refine_on = strategy is StrategyId.IBEAMS
    return leader_on, gne_on, refine_on


def _static_broadcast(world: World, strategy: StrategyId) -> Broadcast:
    lead = world.config.leader
    if strategy is StrategyId.BASELINE:
        return Broadcast(1.0, 0.0, 0.0, lead.pi_init, lead.tau_init, lead.kappa_init)
    return Broadcast(lead.alpha_init, lead.beta_init, lead.gamma_init,
                     lead.pi_init, lead.tau_init, lead.kappa_init)


def run_slot(world: World, strategy: StrategyId, slot: int) -> SlotRecord:
    """Advance one slot and return its record."""
    cfg = world.config
    leader_on, gne_on, refine_on = _strategy_flags(strategy)
    k = world.num_hn

    if slot > 0:
        step_eves(world, slot)
    eve_chans = _eve_channels(world, slot)
    eve_bearings_true = [bearing_deg(np.zeros(3), world.eve_positions[j])
                         for j in range(world.num_eve)]

    # belief prediction feeds the controller; the posterior update comes after
    # the game so sensing power reflects this slot's split
    predicted = [predict(b) for b in world.beliefs]
    h_pred = max(entropy(b) for b in predicted)
    # smooth the controller's uncertainty signal so the sensing split does not
    # chase per-slot measurement noise
    if world.entropy_ema is None:
        world.entropy_ema = h_pred
    else:
        world.entropy_ema = 0.8 * world.entropy_ema + 0.2 * h_pred

    prev_state = world.leader
    if leader_on:
        world.leader, broadcast = leader_step(world.leader, world.gains,
                                              world.prev_kpis, world.entropy_ema)
        residual = leader_residual(prev_state, world.leader)
    else:
        broadcast = _static_broadcast(world, strategy)
        world.leader = LeaderState(alpha=broadcast.alpha, beta=broadcast.beta,
                                   gamma=broadcast.gamma, pi=broadcast.pi,
                                   tau=broadcast.tau, kappa=broadcast.kappa,
                                   kernel_sigma_deg=world.leader.kernel_sigma_deg)
        residual = 0.0
    for b in predicted:
        b.kernel_sigma_deg = world.leader.kernel_sigma_deg
    world.beliefs = predicted

    roles = dict(world.roles) if gne_on else {u: Role.THN for u in range(k)}
    served = _select_served(world, roles)
    node_path, node_bearings = _node_gain_tables(world, slot)
    ctx, jam_to_nodes = build_slot_context(world, served, broadcast, eve_chans,
                                           node_path, node_bearings,
                                           info_gain=world.prev_kpis.info_gain)

    spec = FeasibilitySpec(p_fj_max=cfg.followers.p_fj_max_w,
                           xi_max=cfg.followers.xi_max_scale * world.noise_w)
    if gne_on:
        nodes = [NodeState(u, world.hn_positions[u], roles[u],
                           power=min(world.powers[u], cfg.hn.p_max_w),
                           p_max=cfg.hn.p_max_w, eta=cfg.hn.eta,
                           cost=cfg.hn.power_cost_per_w) for u in range(k)]
        result = gne_solve(nodes, broadcast, ctx, spec,
                           grid_points=cfg.followers.grid_points,
                           tolerance=cfg.gne.tolerance, max_iters=cfg.gne.max_iters)
        powers = result.powers
        gne_iters, gne_gap, gne_conv = result.iterations, result.gap, result.converged
    else:
        powers = np.zeros(k)
        gne_iters, gne_gap, gne_conv = 0, 0.0, True

    # per-node equilibrium rates: actual for served, re-admission otherwise;
    # re-admission assumes a full complement of streams so joining is never
    # judged against a transient power concentration
    p_stream = broadcast.alpha * cfg.bs.p_init_w / cfg.bs.num_rf
    rates_eq = {}
    served_rates = ctx.rates(powers)
    for idx, u in enumerate(served):
        rates_eq[u] = float(served_rates[idx])
    for u in range(k):
        if u not in rates_eq:
            rates_eq[u] = cfg.followers.hypothetical_discount * _hypothetical_rate(
                world, u, ctx, jam_to_nodes, powers, p_stream)
    if gne_on and slot > 0:
        # switching starts once a defended slot has been observed (the warm
        # role split covers slot 0); if thresholding would empty the transmit
        # pool, the best node is re-admitted so the network cannot absorb
        # into a no-service state
        roles = role_switch(rates_eq, cfg.followers.role_threshold)
        if all(r is Role.JHN for r in roles.values()):
            best = max(rates_eq, key=rates_eq.get)
            roles[best] = Role.THN
    served_final = _select_served(world, roles)
    if served_final != served:
        ctx, jam_to_nodes = build_slot_context(world, served_final, broadcast,
                                               eve_chans, node_path, node_bearings,
                                               info_gain=world.prev_kpis.info_gain)
        # nodes admitted after the power game were not in its leakage caps:
        # scale jamming down so every served node is back inside the cap
        powers = _project_leakage(powers, ctx, spec.xi_max)

    # sensing scan and posterior update (scanning beam: unit self-response)
    new_beliefs = []
    for j, belief in enumerate(world.beliefs):
        rng = substream(world.seed, STREAM_MEASUREMENT, j, slot)
        z = synthesize_measurement(
            [eve_bearings_true[j]], broadcast.gamma,
            cfg.belief.meas_noise_deg, rng, grid_deg=belief.grid_deg,
            bs_power_w=cfg.bs.p_init_w, bump_width_deg=cfg.belief.bump_width_deg,
            floor_scale=cfg.belief.floor_scale)
        new_beliefs.append(update(belief, z, cfg.belief.k_eff))
    world.beliefs = new_beliefs
    entropies = [entropy(b) for b in world.beliefs]
    h_post = max(entropies)
    info_gain = max(0.0, world.prev_entropy_max - h_post) if slot > 0 else 0.0
    world.prev_entropy_max = h_post

    refine_iters = 0
    shaping_relaxed = False
    coalition_scale = 1.0
    if refine_on:
        jhn_ids = [u for u in range(k) if roles[u] is Role.JHN]
        if jhn_ids:
            refine_result = _run_refinement(world, jhn_ids, served_final, powers,
                                            ctx, broadcast, eve_chans, node_path,
                                            node_bearings)
            assert all(d >= -1e-12 for d in refine_result.improvements), \
                "refinement accepted a secrecy-decreasing iteration"
            powers = refine_result.powers
            world.jhn_beams.update(refine_result.beams)
            world.last_field = refine_result.field_w
            refine_iters = refine_result.iterations
            shaping_relaxed = refine_result.relaxed
            coalition_scale = refine_result.scale
            world.last_coalitions = [
                (float(c.target_angle_deg), list(c.member_ids))
                for c in refine_result.coalitions]
            ctx, jam_to_nodes = build_slot_context(world, served_final, broadcast,
                                                   eve_chans, node_path, node_bearings,
                                                   info_gain=info_gain)
        if gne_on and slot == 0:
            # bootstrap pruning: the first switch acts on defended
            # (post-refinement) rates, since no earlier observation exists
            refined = ctx.rates(powers)
            for idx, u in enumerate(served_final):
                rates_eq[u] = float(refined[idx])
            roles = role_switch(rates_eq, cfg.followers.role_threshold)
            if all(r is Role.JHN for r in roles.values()):
                best = max(rates_eq, key=rates_eq.get)
                roles[best] = Role.THN
            pruned = [u for u in served_final if roles[u] is Role.THN]
            if pruned != served_final:
                served_final = pruned
                ctx, jam_to_nodes = build_slot_context(world, served_final,
                                                       broadcast, eve_chans,
                                                       node_path, node_bearings,
                                                       info_gain=info_gain)

    if gne_on:
        # transmit only to nodes whose realized secrecy clears the outage
        # threshold: wiretap service below the target is withheld, and the
        # node jams instead from the next slot on
        while served_final:
            rates_now = ctx.rates(powers)
            keep = [u for u, r in zip(served_final, rates_now)
                    if r >= cfg.run.outage_threshold]
            if keep == served_final:
                break
            for u in served_final:
                if u not in keep:
                    roles[u] = Role.JHN
            served_final = keep
            ctx, jam_to_nodes = build_slot_context(world, served_final, broadcast,
                                                   eve_chans, node_path,
                                                   node_bearings,
                                                   info_gain=info_gain)

    record = _finalize_slot(world, strategy, slot, broadcast, ctx, powers,
                            served_final, roles, gne_iters, gne_gap, gne_conv,
                            refine_iters, shaping_relaxed, coalition_scale,
                            entropies, h_pred, residual, spec, info_gain)
    world.roles = roles
    world.powers = powers
    world.belief_history.append([b.probs.copy() for b in world.beliefs])
    return record


def _ray_aim(world: World, uid: int, peak_bearing_deg: float,
             num_samples: int = 7) -> float:
    """Aim angle maximizing expected delivered power along the bearing ray.

    The posterior fixes only the adversary's bearing from the base station,
    so the jammer scores candidate aims against range samples along that ray,
    weighted by its own path loss to each sample point.
    """
    cfg = world.config
    theta = np.radians(peak_bearing_deg)
    ranges = np.linspace(cfg.run.min_node_distance_m, cfg.run.cell_radius_m,
                         num_samples)
    points = np.stack([ranges * np.cos(theta), ranges * np.sin(theta),
                       np.full(num_samples, cfg.eve.height_m)], axis=1)
    pos = world.hn_positions[uid]
    bearings = np.array([bearing_deg(pos, p) for p in points])
    dists = np.maximum(np.linalg.norm(points - pos, axis=1), 1.0)
    # a sample at BS range r needs suppression proportional to its stream
    # capture (~r^-n); the jammer delivers ~d^-n * pattern, so the quality of
    # an aim at a sample is pattern * (r/d)^n. Pick the aim with the best
    # worst-case quality over the ray.
    need_ratio = (ranges / dists) ** cfg.channel.path_loss_exponent
    steers = [steering_vector(world.hn_spec, np.radians(b)) for b in bearings]
    best_aim, best_score = float(bearings[0]), -1.0
    for cand, cand_steer in zip(bearings, steers):
        gains = np.array([np.abs(np.vdot(cand_steer, s)) ** 2 for s in steers])
        score = float(np.min(gains * need_ratio))
        if score > best_score:
            best_score, best_aim = score, float(cand)
    return best_aim


def _run_refinement(world: World, jhn_ids, served_final, powers, ctx, broadcast,
                    eve_chans, node_path, node_bearings):
    cfg = world.config
    grid = world.beliefs[0].grid_deg
    bs_center = np.zeros(3)
    jhn_bearings = {u: bearing_deg(bs_center, world.hn_positions[u]) for u in jhn_ids}

    combined = np.max(np.stack([b.probs for b in world.beliefs]), axis=0)
    threshold = cfg.refinement.peak_threshold_scale / cfg.belief.grid_size
    peaks = posterior_peaks(combined, grid, threshold)
    aim_deg, null_deg = {}, {}
    for u in jhn_ids:
        if peaks:
            peak = min(peaks, key=lambda p: abs(p - jhn_bearings[u]))
        else:
            peak = jhn_bearings[u]
        aim_deg[u] = _ray_aim(world, u, peak)
        protected = sorted(served_final,
                           key=lambda t: np.linalg.norm(world.hn_positions[t]
                                                        - world.hn_positions[u]))
        protected = protected[: world.hn_spec.num_elements - 1]
        null_deg[u] = [bearing_deg(world.hn_positions[u], world.hn_positions[t])
                       for t in protected]

    def context_builder(beams):
        new_ctx, _ = build_slot_context(world, served_final, broadcast, eve_chans,
                                        node_path, node_bearings, beams={**world.jhn_beams, **beams},
                                        info_gain=ctx.info_gain)
        return new_ctx

    return refinement_loop(
        world.beliefs, jhn_bearings, aim_deg, null_deg, powers, ctx,
        context_builder, world.hn_spec, grid,
        p_maxes=np.full(world.num_hn, cfg.hn.p_max_w),
        p_fj_max=cfg.followers.p_fj_max_w,
        xi_max=cfg.followers.xi_max_scale * world.noise_w,
        peak_threshold=threshold, assoc_width_deg=cfg.refinement.assoc_width_deg,
        j_min_fraction=cfg.refinement.j_min_fraction,
        rate_floor=cfg.run.outage_threshold,
        delta_stop=cfg.refinement.delta_stop,
        max_iters=cfg.refinement.max_iters,
        grid_points=cfg.followers.grid_points,
        power_penalty_per_w=cfg.refinement.power_penalty_per_w)


def _finalize_slot(world, strategy, slot, broadcast, ctx, powers, served_final,
                   roles, gne_iters, gne_gap, gne_conv, refine_iters,
                   shaping_relaxed, coalition_scale, entropies, h_pred, residual,
                   spec, info_gain):
    cfg = world.config
    rates = ctx.rates(powers)
    r_min, r_mean, outage = outage_metrics(rates, cfg.run.outage_threshold)
    consts = PowerConsts(cfg.bs.num_rf, cfg.power.p_rf_w, cfg.power.p_bb_w,
                         cfg.power.pa_efficiency)
    p_bs = cfg.bs.p_init_w
    tx_total, slot_power = power_accounting(p_bs, powers, consts)
    secrecy_sum = float(rates.sum())
    see_value = see(secrecy_sum, slot_power)

    _assert_slot_invariants(world, broadcast, ctx, powers, rates, spec, p_bs)

    jam_power = float(sum(powers[u] for u in range(world.num_hn)
                          if roles[u] is Role.JHN))
    leakage = ctx.leakage_at_served(powers)
    jam_benefit = 0.0
    if served_final:
        jam_benefit = float(rates.mean() - ctx.rates(np.zeros_like(powers)).mean())
    # smoothed secrecy KPI keeps the AN integrator from chasing slot noise
    if world.secrecy_ema is None:
        world.secrecy_ema = r_mean
    else:
        world.secrecy_ema = 0.8 * world.secrecy_ema + 0.2 * r_mean
    world.prev_kpis = LeaderKpis(
        secrecy=world.secrecy_ema, outage=outage, jam_benefit=jam_benefit,
        mean_leakage_w=float(leakage.mean()) if leakage.size else 0.0,
        info_gain=info_gain)

    record = SlotRecord(
        slot=slot, alpha=broadcast.alpha, beta=broadcast.beta,
        gamma=broadcast.gamma, pi=broadcast.pi, tau=broadcast.tau,
        kappa=broadcast.kappa, sigma_deg=world.leader.kernel_sigma_deg,
        entropy_bits=max(entropies), r_min=r_min, r_mean=r_mean, outage=outage,
        see=see_value, bs_power_dbm=10.0 * np.log10(p_bs * 1000.0),
        hn_power_sum_w=float(powers.sum()), gne_iters=gne_iters, gne_gap=gne_gap,
        n_thn=sum(1 for r in roles.values() if r is Role.THN),
        n_jhn=sum(1 for r in roles.values() if r is Role.JHN),
        refine_iters=refine_iters, jam_power_w=jam_power,
        predicted_entropy_bits=h_pred, entropy_per_eve=list(entropies),
        rates={u: float(r) for u, r in zip(served_final, rates)},
        roles={u: roles[u].value for u in range(world.num_hn)},
        powers={u: float(powers[u]) for u in range(world.num_hn)},
        tx_total_w=tx_total, slot_power_w=slot_power, secrecy_sum=secrecy_sum,
        leader_residual=residual, gne_converged=gne_conv,
        shaping_relaxed=shaping_relaxed, coalition_scale=coalition_scale,
        coalitions=list(world.last_coalitions))
    record.leader_objective = leader_objective(see_value, r_mean, max(entropies),
                                               info_gain, world.gains)
    return record


def _assert_slot_invariants(world, broadcast, ctx, powers, rates, spec, p_bs):
    cfg = world.config
    assert abs(broadcast.alpha + broadcast.beta + broadcast.gamma - 1.0) <= 1e-9
    assert p_bs <= cfg.bs.p_max_w + 1e-12
    assert np.all(powers >= -1e-12)
    assert np.all(powers <= cfg.hn.p_max_w + 1e-12)
    assert powers.sum() <= spec.p_fj_max + 1e-9
    assert np.all(rates >= 0.0)
    for b in world.beliefs:
        assert abs(b.probs.sum() - 1.0) <= 1e-9
        assert np.all(b.probs >= -1e-15)
    if ctx.served:
        leak = ctx.leakage_at_served(powers)
        assert np.all(leak <= spec.xi_max * (1.0 + 1e-6))
        # with perfect estimates the noise basis is exactly invisible at the
        # served nodes; a configured CSI error makes residual leakage physical
        if broadcast.beta > 0 and cfg.channel.csi_error_frobenius == 0.0:
            assert np.all(ctx.an_thn_w <= 1e-8 * broadcast.beta * p_bs
                          * cfg.hn.rx_gain + 1e-30)


@dataclass
class SimulationResult:
    traces: list          # one list of SlotRecords per replication
    summary: dict
    worlds: list


def run_simulation(config: ScenarioConfig, strategy: StrategyId) -> SimulationResult:
    """Run slots x replications; deterministic given (config, seed, strategy)."""
    config.validate()
    traces = []
    worlds = []
    for rep in range(config.run.replications):
        world = init_scenario(config, config.run.seed + rep)
        trace = [run_slot(world, strategy, t) for t in range(config.run.slots)]
        traces.append(trace)
        worlds.append(world)
    flat = [r for trace in traces for r in trace]
    summary = {
        "strategy": strategy.value,
        "slots": config.run.slots,
        "replications": config.run.replications,
        "seed": config.run.seed,
        "r_mean_avg": float(np.mean([r.r_mean for r in flat])),
        "r_min_avg": float(np.mean([r.r_min for r in flat])),
        "outage_avg": float(np.mean([r.outage for r in flat])),
        "see_avg": float(np.mean([r.see for r in flat])),
        "secrecy_sum_avg": float(np.mean([r.secrecy_sum for r in flat])),
        "bs_power_dbm_avg": float(np.mean([r.bs_power_dbm for r in flat])),
        "hn_power_avg_w": float(np.mean([r.hn_power_sum_w for r in flat])),
        "gne_iters_avg": float(np.mean([r.gne_iters for r in flat])),
        "gne_converged_frac": float(np.mean([r.gne_converged for r in flat])),
        "entropy_final_bits": float(np.mean([t[-1].entropy_bits for t in traces])),
        "slot_power_avg_w": float(np.mean([r.slot_power_w for r in flat])),
    }
    return SimulationResult(traces, summary, worlds)
