"""The per-slot simulation loop and the run loops over scenarios.

run_slot advances a slot through named stages over one SlotState:
1. open: eavesdropper motion and channels, belief prediction, the leader's
   split/price update, and the node gain tables (the link gains, bearings
   and steering of the fixed hybrid nodes are computed once per scenario; a
   slot only draws its fades, and refreshes the eavesdropper columns when
   the eavesdroppers move);
2. serve: roles and the served set, whose SlotContext is built once;
3. power game: the hybrid nodes' GNE and secrecy-threshold role switching;
4. sense: the sensing measurement and posterior update;
5. refine: cooperative jamming refinement and the slot-0 bootstrap prune;
6. withhold: service below the outage threshold is withheld;
7. finalize: metrics, invariant checks, and the leader's next KPIs.
Strategies gate the stages: baseline transmits data only, fixed_an adds a
static nullspace-noise split, stackelberg_only the adaptive leader,
stackelberg_roleswitch the power game (stages 3 and 6), and ibeams the
posterior-aligned refinement.

Secrecy is scored against link.py's worst-case interceptor, so conventional
transmission (baseline) scores exactly zero secrecy.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import InvariantError
from .belief import entropy, predict, synthesize_measurement, update
from .channel import (STREAM_FADE, STREAM_MEASUREMENT, eve_channel,
                      linear_gain, los_channel, path_loss_db, substream)
from .config import ScenarioConfig, StrategyId
from .followers import FeasibilitySpec, Role, gne_solve, role_switch
from .leader import Broadcast, LeaderKpis, leader_step
from .link import (PowerConsts, SlotContext, SlotRecord, an_power_at,
                   outage_metrics, power_accounting, see)
from .refinement import (form_coalitions, posterior_peaks, protective_nulls,
                         ray_aim, refinement_loop)
from .scenario import (World, bearing_deg, build_scenario, init_scenario,
                       start_run, step_eves)


def _eve_channels(world: World, slot: int) -> list:
    scn = world.scenario
    channels = []
    for j in range(world.num_eve):
        dist = np.linalg.norm(world.eve_positions[j] - scn.bs_center)
        gain = linear_gain(path_loss_db(scn.pl_model, dist, scn.eve_shadow[j]))
        los = los_channel(scn.bs_elements, world.eve_positions[j], gain,
                          scn.bs_spec.wavelength)
        channels.append(eve_channel(scn.k_lin, los, slot, scn.seed, j))
    return channels


def _select_served(world: World, roles: dict) -> list:
    """Up to num_rf transmit-role nodes, strongest static channels first."""
    candidates = [u for u in np.argsort(-world.scenario.hn_norm2)
                  if roles[int(u)] is Role.THN]
    return [int(u) for u in candidates[: world.config.bs.num_rf]]


def _node_gain_tables(world: World, slot: int) -> np.ndarray:
    """This slot's faded gains (K, K+E) between hybrid nodes and toward
    eavesdroppers: delivered watts per watt before beam pattern."""
    fades = substream(world.scenario.seed, STREAM_FADE, slot).exponential(
        1.0, size=world.link_gain.shape)
    return world.link_gain * fades


def _pattern_table(world: World, beams: dict) -> np.ndarray:
    """Transmit pattern gains (K, K+E) for every node toward every victim;
    nodes without a beam in `beams` radiate uniformly."""
    n = world.scenario.hn_spec.num_elements
    uniform = np.ones(n, dtype=complex) / np.sqrt(n)
    pattern = np.zeros(world.link_bearing.shape)
    for i in range(world.num_hn):
        pattern[i] = np.abs(world.link_steer[i].conj() @ beams.get(i, uniform)) ** 2
        pattern[i, i] = 0.0
    return pattern


@dataclass
class SlotState:
    """One slot's record: the inputs fixed at slot start, then what each
    stage of run_slot fills in."""

    slot: int
    broadcast: Broadcast
    eve_chans: list
    node_path: np.ndarray             # (K, K+E) watts per watt before beam pattern
    info_gain: float                  # the game's information bonus (last slot's)
    spec: FeasibilitySpec
    powers: np.ndarray                # (K,) hybrid-node powers
    roles: dict = field(default_factory=dict)
    served: list = field(default_factory=list)
    ctx: SlotContext | None = None    # context of `served` under the current beams
    rates_eq: dict = field(default_factory=dict)   # role-switch rates, game on
    gne_iters: int = 0
    gne_gap: float = 0.0
    gne_conv: bool = True
    entropies: list = field(default_factory=list)  # posterior, per eavesdropper
    sensed_gain: float = 0.0          # this slot's entropy drop, for the leader
    refine_iters: int = 0


def build_slot_context(world: World, state: SlotState, served: list,
                       beams: dict) -> SlotContext:
    """Assemble the interference coefficients of a served set under the given
    per-node transmit beams."""
    scn, cfg = world.scenario, world.config
    k, p_bs = world.num_hn, cfg.bs.p_init_w
    prec, basis = scn.precoder(tuple(served))
    p_stream = state.broadcast.alpha * p_bs / max(len(served), 1)

    delivered = state.node_path * _pattern_table(world, beams)
    jam_to_nodes = delivered[:, :k]

    rx = cfg.hn.rx_gain
    an_total = state.broadcast.beta * p_bs
    sig, isi = np.zeros(len(served)), np.zeros(len(served))
    for idx, u in enumerate(served):
        beam_gain = np.abs(np.conj(scn.hn_channels[u]) @ prec.beams) ** 2
        sig[idx] = p_stream * beam_gain[idx] * rx
        isi[idx] = p_stream * (beam_gain.sum() - beam_gain[idx]) * rx
    an_thn = an_power_at(scn.hn_channels[served], basis, an_total) * rx

    eve_capture = np.array([p_stream * np.linalg.norm(h) ** 2 for h in state.eve_chans])
    eve_an = an_power_at(np.stack(state.eve_chans), basis, an_total)

    return SlotContext(
        served=list(served), sig_w=sig, isi_w=isi, an_thn_w=an_thn,
        noise_w=scn.noise_w, eve_capture_w=eve_capture, eve_an_w=eve_an,
        jam_to_eve=delivered[:, k:], jam_to_thn=jam_to_nodes[:, served],
        eve_noise_w=cfg.eve.noise_floor_w, info_gain=state.info_gain,
        jam_to_hn=jam_to_nodes)


def _readmission_context(world: World, state: SlotState, waiting: list) -> SlotContext:
    """The slot context re-scored as if each waiting node were served now, at
    a full complement of streams (so joining is never judged against a
    transient power concentration), free of inter-stream interference and AN,
    with the sub-array gain of roughly 1/num_rf of the full-aperture match."""
    cfg = world.config
    p_full = state.broadcast.alpha * cfg.bs.p_init_w / cfg.bs.num_rf
    none = np.zeros(len(waiting))
    return replace(
        state.ctx, served=waiting,
        sig_w=p_full * world.scenario.hn_norm2[waiting] / cfg.bs.num_rf * cfg.hn.rx_gain,
        isi_w=none, an_thn_w=none,
        eve_capture_w=np.array([p_full * np.linalg.norm(h) ** 2 for h in state.eve_chans]),
        jam_to_thn=state.ctx.jam_to_hn[:, waiting])


def _project_leakage(powers: np.ndarray, ctx: SlotContext, xi_max: float) -> np.ndarray:
    """Scale jamming powers so every served node's leakage cap holds."""
    if not ctx.served:
        return powers
    worst = ctx.leakage_at_served(powers).max()
    return powers if worst <= xi_max else powers * (xi_max / worst)


def _strategy_flags(strategy: StrategyId):
    leader_on = strategy in (StrategyId.STACKELBERG_ONLY,
                             StrategyId.STACKELBERG_ROLESWITCH, StrategyId.IBEAMS)
    gne_on = strategy in (StrategyId.STACKELBERG_ROLESWITCH, StrategyId.IBEAMS)
    refine_on = strategy is StrategyId.IBEAMS
    return leader_on, gne_on, refine_on


def _ema(previous: float | None, value: float) -> float:
    return value if previous is None else 0.8 * previous + 0.2 * value


def _static_broadcast(world: World, strategy: StrategyId) -> Broadcast:
    lead = world.config.leader
    if strategy is StrategyId.BASELINE:
        return Broadcast(1.0, 0.0, 0.0, lead.pi_init, lead.tau_init, lead.kappa_init)
    return Broadcast(lead.alpha_init, lead.beta_init, lead.gamma_init,
                     lead.pi_init, lead.tau_init, lead.kappa_init)


def run_slot(world: World, strategy: StrategyId, slot: int) -> SlotRecord:
    """Advance one slot through its stages and return its record."""
    leader_on, gne_on, refine_on = _strategy_flags(strategy)
    state = _open_slot(world, strategy, slot, leader_on)
    state.roles = (dict(world.roles) if gne_on
                   else {u: Role.THN for u in range(world.num_hn)})
    _serve(world, state, _select_served(world, state.roles))
    if gne_on:
        _play_power_game(world, state)
    _sense(world, state)
    if refine_on:
        _refine(world, state)
    if gne_on:
        _withhold_outage(world, state)
    return _finalize_slot(world, state)


def _open_slot(world: World, strategy: StrategyId, slot: int,
               leader_on: bool) -> SlotState:
    """Stage 1: move the eavesdroppers and draw their channels, predict the
    beliefs, step the leader, and draw the node gain tables."""
    cfg = world.config
    if slot > 0:
        step_eves(world)
    eve_chans = _eve_channels(world, slot)

    # belief prediction feeds the controller; the posterior update comes after
    # the game so sensing power reflects this slot's split
    predicted = [predict(b) for b in world.beliefs]
    h_pred = max(entropy(b) for b in predicted)
    # smooth the controller's uncertainty signal so the sensing split does not
    # chase per-slot measurement noise
    world.entropy_ema = _ema(world.entropy_ema, h_pred)

    if leader_on:
        world.leader, broadcast = leader_step(world.leader, world.scenario.gains,
                                              world.prev_kpis, world.entropy_ema)
    else:
        broadcast = _static_broadcast(world, strategy)
    for b in predicted:
        b.kernel_sigma_deg = world.leader.kernel_sigma_deg
    world.beliefs = predicted

    return SlotState(
        slot=slot, broadcast=broadcast, eve_chans=eve_chans,
        node_path=_node_gain_tables(world, slot), info_gain=world.prev_kpis.info_gain,
        spec=FeasibilitySpec(p_max=cfg.hn.p_max_w, p_fj_max=cfg.followers.p_fj_max_w,
                             xi_max=cfg.followers.xi_max_scale * world.scenario.noise_w,
                             grid_points=cfg.followers.grid_points),
        powers=np.zeros(world.num_hn))


def _serve(world: World, state: SlotState, served: list) -> None:
    """Stage 2, and every later change of the served set: serve `served` and
    build its context under the current jamming beams."""
    state.served = served
    state.ctx = build_slot_context(world, state, served, world.jhn_beams)


def _switch_roles(rates_eq: dict, threshold: float) -> dict:
    """Secrecy-threshold role switch that re-admits the best node rather than
    empty the transmit pool, so the network cannot absorb into no service."""
    roles = role_switch(rates_eq, threshold)
    if all(r is Role.JHN for r in roles.values()):
        roles[max(rates_eq, key=rates_eq.get)] = Role.THN
    return roles


def _play_power_game(world: World, state: SlotState) -> None:
    """Stage 3: the hybrid nodes' power game, the per-node equilibrium rates,
    and (after slot 0) the role switch and the re-served set."""
    cfg = world.config
    result = gne_solve(state.roles, np.minimum(world.powers, state.spec.p_max),
                       state.broadcast, state.ctx, state.spec, cfg.hn.eta,
                       cfg.hn.power_cost_per_w, max_iters=cfg.gne.max_iters)
    state.powers, state.gne_iters = result.powers, result.iterations
    state.gne_gap, state.gne_conv = result.gap, result.converged

    # per-node equilibrium rates: actual for served, re-admission otherwise
    served = state.ctx.served
    waiting = [u for u in range(world.num_hn) if u not in served]
    estimate = _readmission_context(world, state, waiting).rates(state.powers)
    rates = np.concatenate([state.ctx.rates(state.powers),
                            cfg.followers.hypothetical_discount * estimate])
    state.rates_eq = dict(zip(served + waiting, rates.tolist()))
    if state.slot == 0:
        return
    # switching starts once a defended slot has been observed (the warm role
    # split covers slot 0)
    state.roles = _switch_roles(state.rates_eq, cfg.followers.role_threshold)
    served_now = _select_served(world, state.roles)
    if served_now != served:
        _serve(world, state, served_now)
        # nodes admitted after the power game were not in its leakage caps:
        # scale jamming down so every served node is back inside the cap
        state.powers = _project_leakage(state.powers, state.ctx, state.spec.xi_max)


def _sense(world: World, state: SlotState) -> None:
    """Stage 4: sensing scan (unit self-response) and posterior update."""
    cfg = world.config
    new_beliefs = []
    for j, belief in enumerate(world.beliefs):
        rng = substream(world.scenario.seed, STREAM_MEASUREMENT, j, state.slot)
        z = synthesize_measurement(
            [bearing_deg(np.zeros(3), world.eve_positions[j])], state.broadcast.gamma,
            cfg.belief.meas_noise_deg, rng, grid_deg=belief.grid_deg,
            bs_power_w=cfg.bs.p_init_w, bump_width_deg=cfg.belief.bump_width_deg,
            floor_scale=cfg.belief.floor_scale)
        new_beliefs.append(update(belief, z, cfg.belief.k_eff))
    world.beliefs = new_beliefs
    state.entropies = [entropy(b) for b in world.beliefs]
    h_post = max(state.entropies)
    state.sensed_gain = max(0.0, world.prev_entropy_max - h_post) if state.slot > 0 else 0.0
    world.prev_entropy_max = h_post


def _refine(world: World, state: SlotState) -> None:
    """Stage 5: cooperative jamming refinement, then on slot 0 the bootstrap
    pruning of the served set."""
    jhn_ids = [u for u in range(world.num_hn) if state.roles[u] is Role.JHN]
    if jhn_ids:
        result = _run_refinement(world, state, jhn_ids)
        if not all(d >= -1e-12 for d in result.improvements):
            raise InvariantError(f"slot {state.slot}: refinement accepted a "
                                 "secrecy-decreasing iteration")
        state.powers, state.ctx = result.powers, result.ctx
        world.jhn_beams.update(result.beams)
        world.last_field = result.field_w
        state.refine_iters = result.iterations
        world.last_coalitions = [(float(c.target_angle_deg), list(c.member_ids))
                                 for c in result.coalitions]
    if state.slot == 0:
        # bootstrap pruning: the first switch acts on defended
        # (post-refinement) rates, since no earlier observation exists
        refined = state.ctx.rates(state.powers)
        state.rates_eq.update(zip(state.served, refined.tolist()))
        state.roles = _switch_roles(state.rates_eq, world.config.followers.role_threshold)
        pruned = [u for u in state.served if state.roles[u] is Role.THN]
        if pruned != state.served:
            _serve(world, state, pruned)


def _withhold_outage(world: World, state: SlotState) -> None:
    """Stage 6: transmit only to nodes whose realized secrecy clears the
    outage threshold; wiretap service below the target is withheld, and the
    node jams instead from the next slot on."""
    threshold = world.config.run.outage_threshold
    while state.served:
        rates_now = state.ctx.rates(state.powers)
        keep = [u for u, r in zip(state.served, rates_now) if r >= threshold]
        if keep == state.served:
            break
        state.roles.update((u, Role.JHN) for u in state.served if u not in keep)
        _serve(world, state, keep)


def _run_refinement(world: World, state: SlotState, jhn_ids):
    """Coalitions of the jamming nodes around the combined posterior's peaks,
    each member's ray aim and protective nulls, then the refinement loop."""
    scn, cfg = world.scenario, world.config
    grid = world.beliefs[0].grid_deg
    combined = np.max(np.stack([b.probs for b in world.beliefs]), axis=0)
    peaks = posterior_peaks(combined, grid,
                            cfg.refinement.peak_threshold_scale / cfg.belief.grid_size)
    jhn_bearings = {u: bearing_deg(np.zeros(3), scn.hn_positions[u]) for u in jhn_ids}
    coalitions = form_coalitions(peaks, jhn_bearings, cfg.refinement.assoc_width_deg)
    radii = (cfg.run.min_node_distance_m, cfg.run.cell_radius_m)
    aim_deg, null_deg = {}, {}
    for coalition in coalitions:
        for u in coalition.member_ids:
            aim_deg[u] = ray_aim(scn.hn_positions[u], coalition.target_angle_deg,
                                 scn.hn_spec, radii, cfg.eve.height_m,
                                 cfg.channel.path_loss_exponent)
            null_deg[u] = protective_nulls(u, state.served, scn.hn_positions,
                                           scn.link_bearing[u], scn.hn_spec)

    def context_builder(beams):
        return build_slot_context(world, state, state.served,
                                  {**world.jhn_beams, **beams})

    return refinement_loop(
        coalitions, combined / combined.sum(), aim_deg, null_deg, state.powers,
        state.ctx, context_builder, scn.hn_spec, grid, state.spec,
        j_min_fraction=cfg.refinement.j_min_fraction,
        rate_floor=cfg.run.outage_threshold,
        delta_stop=cfg.refinement.delta_stop,
        max_iters=cfg.refinement.max_iters,
        power_penalty_per_w=cfg.refinement.power_penalty_per_w)


def _finalize_slot(world: World, state: SlotState) -> SlotRecord:
    """Stage 7: slot metrics and invariants, the leader's KPIs for the next
    slot, and the carried-over roles, powers and beliefs."""
    cfg = world.config
    ctx, powers, roles, broadcast = state.ctx, state.powers, state.roles, state.broadcast
    rates = ctx.rates(powers)
    r_min, r_mean, outage = outage_metrics(rates, cfg.run.outage_threshold)
    consts = PowerConsts(cfg.bs.num_rf, cfg.power.p_rf_w, cfg.power.p_bb_w,
                         cfg.power.pa_efficiency)
    p_bs = cfg.bs.p_init_w
    _, slot_power = power_accounting(p_bs, powers, consts)
    secrecy_sum = float(rates.sum())
    see_value = see(secrecy_sum, slot_power)

    _check_slot_invariants(world, state, rates)

    jam_power = float(sum(powers[u] for u in range(world.num_hn)
                          if roles[u] is Role.JHN))
    leakage = ctx.leakage_at_served(powers)
    jam_benefit = (float(rates.mean() - ctx.rates(np.zeros_like(powers)).mean())
                   if state.served else 0.0)
    # smoothed secrecy KPI keeps the AN integrator from chasing slot noise
    world.secrecy_ema = _ema(world.secrecy_ema, r_mean)
    world.prev_kpis = LeaderKpis(
        secrecy=world.secrecy_ema, outage=outage, jam_benefit=jam_benefit,
        mean_leakage_w=float(leakage.mean()) if leakage.size else 0.0,
        info_gain=state.sensed_gain)

    record = SlotRecord(
        slot=state.slot, alpha=broadcast.alpha, beta=broadcast.beta,
        gamma=broadcast.gamma, pi=broadcast.pi, tau=broadcast.tau,
        kappa=broadcast.kappa, sigma_deg=world.leader.kernel_sigma_deg,
        entropy_bits=max(state.entropies), r_min=r_min, r_mean=r_mean, outage=outage,
        see=see_value, bs_power_dbm=10.0 * np.log10(p_bs * 1000.0),
        hn_power_sum_w=float(powers.sum()), gne_iters=state.gne_iters,
        gne_gap=state.gne_gap,
        n_thn=sum(1 for r in roles.values() if r is Role.THN),
        n_jhn=sum(1 for r in roles.values() if r is Role.JHN),
        refine_iters=state.refine_iters, jam_power_w=jam_power,
        entropy_per_eve=list(state.entropies),
        rates={u: float(r) for u, r in zip(state.served, rates)},
        roles={u: roles[u].value for u in range(world.num_hn)},
        powers={u: float(powers[u]) for u in range(world.num_hn)},
        slot_power_w=slot_power, secrecy_sum=secrecy_sum,
        gne_converged=state.gne_conv, coalitions=list(world.last_coalitions))
    world.roles = roles
    world.powers = powers
    world.belief_history.append([b.probs.copy() for b in world.beliefs])
    return record


def _check_slot_invariants(world: World, state: SlotState, rates: np.ndarray) -> None:
    """Raise InvariantError naming the first slot invariant that fails."""
    cfg = world.config
    b, powers, ctx, p_bs = state.broadcast, state.powers, state.ctx, cfg.bs.p_init_w
    checks = {
        "power split off the simplex": abs(b.alpha + b.beta + b.gamma - 1.0) <= 1e-9,
        "base-station power above its p_max": p_bs <= cfg.bs.p_max_w + 1e-12,
        "node power outside [0, p_max]": np.all((powers >= -1e-12)
                                                & (powers <= state.spec.p_max + 1e-12)),
        "jamming budget exceeded": powers.sum() <= state.spec.p_fj_max + 1e-9,
        "negative secrecy rate": np.all(rates >= 0.0),
        "belief not a distribution": all(abs(q.probs.sum() - 1.0) <= 1e-9
                                         and np.all(q.probs >= -1e-15)
                                         for q in world.beliefs),
        "leakage cap exceeded at a served node": np.all(
            ctx.leakage_at_served(powers) <= state.spec.xi_max * (1.0 + 1e-6)),
        # with perfect estimates the noise basis is exactly invisible at the
        # served nodes; a configured CSI error makes residual leakage physical
        "artificial noise visible at a served node": (
            b.beta <= 0 or cfg.channel.csi_error_frobenius != 0.0
            or np.all(ctx.an_thn_w <= 1e-8 * b.beta * p_bs * cfg.hn.rx_gain + 1e-30)),
    }
    for what, ok in checks.items():
        if not ok:
            raise InvariantError(f"slot {state.slot}: {what}")


@dataclass
class SimulationResult:
    traces: list          # one list of SlotRecords per replication
    summary: dict
    worlds: list


def run_simulation(config: ScenarioConfig, strategy: StrategyId) -> SimulationResult:
    """Run slots x replications; deterministic given (config, seed, strategy)."""
    config.validate()
    return _run_worlds(config, strategy, [init_scenario(config, config.run.seed + rep)
                                          for rep in range(config.run.replications)])


def run_compare(config: ScenarioConfig) -> dict:
    """Every strategy over the same scenarios: one Scenario per replication,
    shared by the strategies' runs. Results keyed in StrategyId order."""
    config.validate()
    scenarios = [build_scenario(config, config.run.seed + rep)
                 for rep in range(config.run.replications)]
    return {strategy: _run_worlds(config, strategy, [start_run(s) for s in scenarios])
            for strategy in StrategyId}


def _run_worlds(config: ScenarioConfig, strategy: StrategyId,
                worlds: list) -> SimulationResult:
    """Run every slot of each world, one world per replication, and summarize."""
    traces = [[run_slot(world, strategy, t) for t in range(config.run.slots)]
              for world in worlds]
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
