"""The per-slot simulation loop and the run loops over scenarios.

run_slot advances a slot through named stages over one SlotState:
1. open: the slot's exogenous inputs, a pure function of (Scenario, slot)
   that every run over the scenario shares, then belief prediction and the
   leader's split/price update. Every strategy draws the eavesdropper
   channels; only the power game strategies, the ones in which a node can
   radiate, draw the node fades and build the node link tables (the others
   get zero jamming tables);
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
from .channel import STREAM_FADE, STREAM_MEASUREMENT, eve_channel, substream
from .config import ScenarioConfig, StrategyId
from .followers import Role, gne_solve, role_switch
from .leader import Broadcast, LeaderKpis, leader_step
from .link import (SlotContext, SlotRecord, an_power_at, an_residual, outage_metrics,
                   power_accounting, see, watts_to_dbm)
from .refinement import form_coalitions, posterior_peaks, refinement_loop
from .scenario import (Scenario, World, bearing_deg, build_scenario, init_scenario,
                       start_run)


def _eve_channels(scn: Scenario, slot: int) -> np.ndarray:
    """The slot's BS->eavesdropper channels (E, N), which no decision moves."""
    return eve_channel(scn.k_lin, scn.eve_los(slot), slot, scn.seed)


def _node_links(scn: Scenario, slot: int):
    """The slot's node link inputs, which no decision moves: the faded gains
    (K, K+E) toward the nodes and the eavesdroppers in watts per watt before
    beam pattern, and the node-array steering (K, K+E, n) toward each."""
    gain, steer = scn.victim_links(slot)
    fades = substream(scn.seed, STREAM_FADE, slot).exponential(1.0, size=gain.shape)
    return gain * fades, steer


def _select_served(world: World, roles: dict) -> list:
    """Up to num_rf transmit-role nodes, strongest static channels first."""
    candidates = [u for u in world.scenario.hn_rank if roles[u] is Role.THN]
    return candidates[: world.config.bs.num_rf]


def _pattern_table(link_steer: np.ndarray, beams: dict) -> np.ndarray:
    """Transmit pattern gains |a^H w|^2 (K, V) for every node toward every
    victim of the steering table (K, V, n); nodes without a beam in `beams`
    radiate uniformly."""
    k, _, n = link_steer.shape
    stacked = np.full((k, n), 1.0 / np.sqrt(n), dtype=complex)
    if beams:
        stacked[list(beams)] = list(beams.values())
    pattern = np.abs(np.einsum("kvn,kn->kv", link_steer.conj(), stacked)) ** 2
    np.fill_diagonal(pattern, 0.0)
    return pattern


@dataclass
class SlotState:
    """One slot's record: the inputs fixed at slot start, then what each
    stage of run_slot fills in."""

    slot: int
    broadcast: Broadcast
    eve_chans: np.ndarray             # (E, N) BS->eavesdropper channels
    eve_norm2: np.ndarray             # (E,) their powers ||h_e||^2
    # _node_links, or None under a strategy in which no node radiates
    node_path: np.ndarray | None      # (K, K+E) watts per watt before beam pattern
    link_steer: np.ndarray | None     # (K, K+E, n) node-array steering to each victim
    powers: np.ndarray                # (K,) hybrid-node powers
    roles: dict = field(default_factory=dict)
    ctx: SlotContext | None = None    # the served set's context under the current beams
    rates_eq: dict = field(default_factory=dict)   # role-switch rates, game on
    gne_iters: int = 0
    gne_gap: float = 0.0
    gne_conv: bool = True
    entropies: list = field(default_factory=list)  # posterior, per eavesdropper
    refine_iters: int = 0


def build_slot_context(world: World, state: SlotState, served: list,
                       beams: dict) -> SlotContext:
    """Assemble the interference coefficients of a served set under the given
    per-node transmit beams: the scenario's base-station terms of the served
    set, scaled by this slot's stream and AN powers, and the jamming rows,
    all zero when the slot has no node link inputs (no node radiates)."""
    scn, cfg = world.scenario, world.config
    k, p_bs = world.num_hn, cfg.bs.p_init_w
    terms = scn.precoder(tuple(served))
    p_stream = state.broadcast.alpha * p_bs / max(len(served), 1)

    if state.node_path is None:
        # every power is 0 W, and _delivered gives exactly +0.0 through any
        # finite nonnegative table, so a zero table scores as the real one
        delivered = np.zeros((k, k + len(state.eve_norm2)))
    else:
        delivered = state.node_path * _pattern_table(state.link_steer, beams)
    jam_to_nodes = delivered[:, :k]

    rx = cfg.hn.array_elements   # matched-filter combining over the node's array
    an_total = state.broadcast.beta * p_bs
    return SlotContext(
        served=list(served), sig_w=p_stream * terms.own * rx,
        isi_w=p_stream * terms.cross * rx,
        an_thn_w=an_power_at(terms.residual, terms.basis, an_total) * rx,
        noise_w=scn.noise_w, eve_capture_w=p_stream * state.eve_norm2,
        eve_an_w=an_power_at(an_residual(state.eve_chans, terms.basis), terms.basis,
                             an_total),
        # these layouts (a column slice, a column gather) select the
        # summation order of link._delivered, so the trace bytes depend on them
        jam_to_eve=delivered[:, k:], jam_to_thn=jam_to_nodes[:, served],
        eve_noise_w=cfg.eve.noise_floor_w, jam_to_hn=jam_to_nodes)


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
        sig_w=p_full * world.scenario.hn_norm2[waiting] / cfg.bs.num_rf * cfg.hn.array_elements,
        isi_w=none, an_thn_w=none,
        eve_capture_w=p_full * state.eve_norm2,
        # a column gather, as in build_slot_context: the layout selects the
        # summation order of link._delivered
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


def run_slot(world: World, strategy: StrategyId, slot: int) -> SlotRecord:
    """Advance one slot through its stages and return its record."""
    _, gne_on, refine_on = _strategy_flags(strategy)
    state = _open_slot(world, strategy, slot)
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


def _open_slot(world: World, strategy: StrategyId, slot: int) -> SlotState:
    """Stage 1: the slot's exogenous inputs, then predict the beliefs and
    step the leader. Only the strategies that play the power game, whose
    nodes can radiate, draw the node link inputs."""
    leader_on, gne_on, _ = _strategy_flags(strategy)
    eve_chans = _eve_channels(world.scenario, slot)
    node_path, link_steer = _node_links(world.scenario, slot) if gne_on else (None, None)

    # belief prediction feeds the controller; the posterior update comes after
    # the game so sensing power reflects this slot's split
    world.posterior = predict(world.posterior, world.scenario.grid_deg,
                              world.leader.kernel_sigma_deg)
    h_pred = float(entropy(world.posterior).max())
    # smooth the controller's uncertainty signal so the sensing split does not
    # chase per-slot measurement noise
    world.entropy_ema = _ema(world.entropy_ema, h_pred)

    if leader_on:
        world.leader = leader_step(world.leader, world.config, world.prev_kpis,
                                   world.entropy_ema)
    broadcast = world.leader.broadcast
    if strategy is StrategyId.BASELINE:
        broadcast = replace(broadcast, alpha=1.0, beta=0.0, gamma=0.0)

    return SlotState(
        slot=slot, broadcast=broadcast, eve_chans=eve_chans,
        eve_norm2=np.einsum("en,en->e", eve_chans.conj(), eve_chans).real,
        node_path=node_path, link_steer=link_steer, powers=np.zeros(world.num_hn))


def _serve(world: World, state: SlotState, served: list) -> None:
    """Stage 2, and every later change of the served set: serve `served` and
    build its context under the current jamming beams."""
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
    cfg, spec = world.config, world.scenario.feasibility
    result = gne_solve(state.roles, np.minimum(world.powers, spec.p_max),
                       state.broadcast, state.ctx, spec, cfg.hn.eta,
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
        state.powers = _project_leakage(state.powers, state.ctx, spec.xi_max)


def _sense(world: World, state: SlotState) -> None:
    """Stage 4: sensing scans (unit self-response), one per eavesdropper from
    its own substream, and the posterior update."""
    cfg, scn = world.config, world.scenario
    positions = scn.eve_positions(state.slot)
    scans = synthesize_measurement(
        bearing_deg(positions), state.broadcast.gamma,
        cfg.belief.meas_noise_deg,
        [substream(scn.seed, STREAM_MEASUREMENT, j, state.slot) for j in range(len(positions))],
        grid_deg=scn.grid_deg, bs_power_w=cfg.bs.p_init_w,
        bump_width_deg=cfg.belief.bump_width_deg, floor_scale=cfg.belief.floor_scale)
    world.posterior = update(world.posterior, scans, cfg.belief.k_eff)
    state.entropies = entropy(world.posterior).tolist()


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
        served = state.ctx.served
        state.rates_eq.update(zip(served, refined.tolist()))
        state.roles = _switch_roles(state.rates_eq, world.config.followers.role_threshold)
        pruned = [u for u in served if state.roles[u] is Role.THN]
        if pruned != served:
            _serve(world, state, pruned)


def _withhold_outage(world: World, state: SlotState) -> None:
    """Stage 6: transmit only to nodes whose realized secrecy clears the
    outage threshold; wiretap service below the target is withheld, and the
    node jams instead from the next slot on."""
    threshold = world.config.run.outage_threshold
    while state.ctx.served:
        served = state.ctx.served
        rates_now = state.ctx.rates(state.powers)
        keep = [u for u, r in zip(served, rates_now) if r >= threshold]
        if keep == served:
            break
        state.roles.update((u, Role.JHN) for u in served if u not in keep)
        _serve(world, state, keep)


def _run_refinement(world: World, state: SlotState, jhn_ids):
    """Coalitions of the jamming nodes around the combined posterior's peaks,
    then the refinement loop over the members' beams, which the scenario
    builds and caches."""
    scn, cfg, served = world.scenario, world.config, state.ctx.served
    combined = world.posterior.max(axis=0)
    peaks = posterior_peaks(combined, scn.grid_deg,
                            cfg.refinement.peak_threshold_scale / cfg.belief.grid_size)
    jhn_bearings = {u: scn.hn_bearing_deg[u] for u in jhn_ids}
    coalitions = form_coalitions(peaks, jhn_bearings, cfg.refinement.assoc_width_deg)

    def beams_of(members, targets):
        return scn.jamming_beams(members, targets, tuple(served))

    def context_builder(beams):
        return build_slot_context(world, state, served,
                                  {**world.jhn_beams, **beams})

    return refinement_loop(
        coalitions, combined / combined.sum(), state.powers, state.ctx, context_builder,
        beams_of, scn.feasibility,
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
    # the final profile and the silent one, scored in one block
    rates, silent_rates = ctx.rates(np.stack([powers, np.zeros_like(powers)]))
    r_min, r_mean, outage = outage_metrics(rates, cfg.run.outage_threshold)
    p_bs = cfg.bs.p_init_w
    _, slot_power = power_accounting(p_bs, powers, cfg.bs.num_rf, cfg.power)
    secrecy_sum = float(rates.sum())
    see_value = see(secrecy_sum, slot_power)
    leakage = ctx.leakage_at_served(powers)

    _check_slot_invariants(world, state, rates, leakage)

    jam_power = float(np.sum(powers[[roles[u] is Role.JHN for u in range(world.num_hn)]]))
    jam_benefit = (float(rates.mean() - silent_rates.mean())
                   if ctx.served else 0.0)
    # smoothed secrecy KPI keeps the AN integrator from chasing slot noise
    world.secrecy_ema = _ema(world.secrecy_ema, r_mean)
    world.prev_kpis = LeaderKpis(secrecy=world.secrecy_ema, jam_benefit=jam_benefit)

    record = SlotRecord(
        slot=state.slot, alpha=broadcast.alpha, beta=broadcast.beta,
        gamma=broadcast.gamma, pi=broadcast.pi, tau=broadcast.tau,
        kappa=broadcast.kappa, sigma_deg=world.leader.kernel_sigma_deg,
        entropy_bits=max(state.entropies), r_min=r_min, r_mean=r_mean, outage=outage,
        see=see_value, bs_power_dbm=watts_to_dbm(p_bs),
        hn_power_sum_w=float(powers.sum()), gne_iters=state.gne_iters,
        gne_gap=state.gne_gap,
        n_thn=sum(1 for r in roles.values() if r is Role.THN),
        n_jhn=sum(1 for r in roles.values() if r is Role.JHN),
        refine_iters=state.refine_iters, jam_power_w=jam_power,
        entropy_per_eve=list(state.entropies),
        rates=dict(zip(ctx.served, rates.tolist())),
        roles={u: roles[u].value for u in range(world.num_hn)},
        powers=dict(enumerate(powers.tolist())),
        slot_power_w=slot_power, secrecy_sum=secrecy_sum,
        gne_converged=state.gne_conv, coalitions=list(world.last_coalitions))
    world.roles = roles
    world.powers = powers
    # a node radiates its jamming beam only while it jams
    world.jhn_beams = {u: w for u, w in world.jhn_beams.items() if roles[u] is Role.JHN}
    world.belief_history.append(world.posterior.copy())
    return record


LEAKAGE_CAP = "leakage cap exceeded at a served node"


def _check_slot_invariants(world: World, state: SlotState, rates: np.ndarray,
                           leakage: np.ndarray) -> None:
    """Raise InvariantError naming the first slot invariant that fails, given
    the slot's served rates and the leakage at each served node."""
    cfg, spec = world.config, world.scenario.feasibility
    b, powers, ctx, p_bs = state.broadcast, state.powers, state.ctx, cfg.bs.p_init_w
    checks = {
        "power split off the simplex": abs(b.alpha + b.beta + b.gamma - 1.0) <= 1e-9,
        "base-station power above its p_max": p_bs <= cfg.bs.p_max_w + 1e-12,
        "node power outside [0, p_max]": np.all((powers >= -1e-12)
                                                & (powers <= spec.p_max + 1e-12)),
        "jamming budget exceeded": powers.sum() <= spec.p_fj_max + 1e-9,
        "negative secrecy rate": np.all(rates >= 0.0),
        "belief not a distribution": (
            np.all(np.abs(world.posterior.sum(axis=-1) - 1.0) <= 1e-9)
            and np.all(world.posterior >= -1e-15)),
        LEAKAGE_CAP: np.all(
            leakage <= spec.xi_max * (1.0 + 1e-6)),
        # with perfect estimates the noise basis is exactly invisible at the
        # served nodes; a configured CSI error makes residual leakage physical
        "artificial noise visible at a served node": (
            b.beta <= 0 or cfg.channel.csi_error_frobenius != 0.0
            or np.all(ctx.an_thn_w <= 1e-8 * b.beta * p_bs * cfg.hn.array_elements + 1e-30)),
    }
    for what, ok in checks.items():
        if not ok:
            if what == LEAKAGE_CAP:
                worst = int(np.argmax(leakage))
                what += (f": node {ctx.served[worst]} receives "
                         f"{leakage[worst] / spec.xi_max:.9g} x xi_max")
            raise InvariantError(f"slot {state.slot}: {what}")


@dataclass
class SimulationResult:
    traces: list          # one list of SlotRecords per replication
    summary: dict
    worlds: list


def run_simulation(config: ScenarioConfig, strategy: StrategyId) -> SimulationResult:
    """Run slots x replications; deterministic given (config, seed, strategy).
    Each replication's build_scenario validates the config before any slot."""
    return _run_worlds(config, strategy, [init_scenario(config, config.run.seed + rep)
                                          for rep in range(config.run.replications)])


def run_compare(config: ScenarioConfig) -> dict:
    """Every strategy over the same scenarios: one Scenario per replication,
    shared by the strategies' runs. Results keyed in StrategyId order."""
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
