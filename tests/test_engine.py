import gc
import logging
import os
import subprocess
import sys
import textwrap
import weakref
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secure_isac
from secure_isac import InvariantError, engine
from secure_isac.arrays import ArraySpec, steering_vector
from secure_isac.channel import (C_LIGHT, STREAM_EVE_NLOS, STREAM_FADE, STREAM_PAIR_SHADOW,
                                  STREAM_WAYPOINT, linear_gain, los_channel, path_loss_db,
                                  rician_channel, substream)
from secure_isac.config import ConfigError, ScenarioConfig, StrategyId, parse_config
from secure_isac.engine import (
    bearing_deg,
    init_scenario,
    run_simulation,
    run_slot,
)
from secure_isac.followers import Role
from secure_isac.leader import Broadcast, LeaderState, leader_step
from secure_isac.refinement import ray_aim
from secure_isac.scenario import Scenario, _draw_sector_position, _eve_los, build_scenario
from test_channel import assert_near_oracle, oracle_eve_channel

logging.disable(logging.WARNING)


def small_config(**overrides):
    cfg = ScenarioConfig()
    cfg.hn.count = 6
    cfg.eve.count = 2
    cfg.run.slots = 5
    for key, value in overrides.items():
        section, field = key.split("__")
        setattr(getattr(cfg, section), field, value)
    return cfg


class TestInitScenario:
    def test_same_seed_identical_world(self):
        cfg = small_config()
        a = init_scenario(cfg, 3)
        b = init_scenario(cfg, 3)
        assert np.array_equal(a.scenario.hn_positions, b.scenario.hn_positions)
        assert np.array_equal(a.scenario.eve_positions(0), b.scenario.eve_positions(0))
        for ha, hb in zip(a.scenario.hn_channels, b.scenario.hn_channels):
            assert np.array_equal(ha, hb)

    def test_counts_match_config(self):
        world = init_scenario(small_config(), 1)
        assert world.num_hn == 6
        assert world.scenario.eve_positions(0).shape == (2, 3)
        assert len(world.beliefs) == 2

    def test_degenerate_radius_rejected(self):
        cfg = small_config()
        cfg.run.cell_radius_m = 0.0
        with pytest.raises(ConfigError, match="run.cell_radius_m"):
            init_scenario(cfg, 1)

    def test_positions_in_forward_sector(self):
        cfg = small_config(hn__count=20, eve__count=10)
        world = init_scenario(cfg, 5)
        for pos in np.vstack([world.scenario.hn_positions, world.scenario.eve_positions(0)]):
            radius = np.linalg.norm(pos[:2])
            assert cfg.run.min_node_distance_m <= radius <= cfg.run.cell_radius_m + 1e-9
            assert pos[0] > 0.0  # bearings stay inside the tracked grid

    def test_warm_roles_split(self):
        world = init_scenario(small_config(), 1)
        n_thn = sum(1 for r in world.roles.values() if r is Role.THN)
        assert n_thn == min(world.config.bs.num_rf, world.num_hn)


class TestMobility:
    def test_static_positions_fixed(self):
        cfg = small_config()
        world = init_scenario(cfg, 1)
        before = world.scenario.eve_positions(0).copy()
        for t in range(1, 4):
            run_slot(world, StrategyId.FIXED_AN, t)
            assert np.array_equal(world.scenario.eve_positions(t), before)

    def test_displacement_bound(self):
        cfg = small_config(eve__mobility="waypoint", eve__speed_mps=3.0)
        scn = build_scenario(cfg, 2)
        start = scn.eve_positions(0)
        steps = 50
        step_len = cfg.eve.speed_mps * cfg.run.slot_duration_s
        moved = np.linalg.norm(scn.eve_positions(steps) - start, axis=1)
        assert np.all(moved <= steps * step_len + 1e-9)

    def test_long_run_covers_sector(self):
        # waypoint wandering visits every radial/angular cell of the sector
        cfg = small_config(eve__mobility="waypoint", eve__speed_mps=25.0)
        scn = build_scenario(cfg, 3)
        r_edges = np.linspace(cfg.run.min_node_distance_m, cfg.run.cell_radius_m, 4)
        a_edges = np.linspace(-90.0, 90.0, 5)
        visited = np.zeros((3, 4), dtype=bool)
        for t in range(1, 20001):
            for pos in scn.eve_positions(t):
                radius = np.linalg.norm(pos[:2])
                angle = bearing_deg(pos)
                ri = min(np.searchsorted(r_edges, radius) - 1, 2)
                ai = min(np.searchsorted(a_edges, angle) - 1, 3)
                if ri >= 0 and ai >= 0:
                    visited[ri, ai] = True
        assert visited.all()

    def test_positions_stay_in_sector_under_mobility(self):
        cfg = small_config(eve__mobility="waypoint", eve__speed_mps=25.0)
        scn = build_scenario(cfg, 4)
        for t in range(1, 2000):
            for pos in scn.eve_positions(t):
                radius = np.linalg.norm(pos[:2])
                assert radius <= cfg.run.cell_radius_m + 1e-6
                assert radius >= cfg.run.min_node_distance_m - 1e-6


class ReferenceWalk:
    """Reference waypoint walk, stepped in place one eavesdropper and one
    slot at a time: the positions, waypoints and leg counters are mutable
    state of the walker. Its scalar norms are BLAS dots, which round
    differently from the walk's row norms."""

    def __init__(self, scenario):
        self.scenario, self.config = scenario, scenario.config
        e = len(scenario.eve_start)
        self.eve_positions = scenario.eve_start.copy()
        self.eve_leg = np.zeros(e, dtype=int)
        self.eve_waypoints = np.stack([self.next_waypoint(j) for j in range(e)])

    def next_waypoint(self, eve_id):
        leg = int(self.eve_leg[eve_id])
        self.eve_leg[eve_id] = leg + 1
        rng = substream(self.scenario.seed, STREAM_WAYPOINT, eve_id, leg)
        return _draw_sector_position(rng, self.config.run, self.config.eve.height_m)

    def step(self):
        step = self.config.eve.speed_mps * self.config.run.slot_duration_s
        r_min = self.config.run.min_node_distance_m
        for j in range(len(self.eve_positions)):
            pos = self.eve_positions[j]
            target = self.eve_waypoints[j]
            delta = target - pos
            dist = np.linalg.norm(delta)
            if dist <= step:
                self.eve_positions[j] = target
                self.eve_waypoints[j] = self.next_waypoint(j)
            else:
                self.eve_positions[j] = pos + delta * (step / dist)
            ground = self.eve_positions[j][:2]
            radius = np.linalg.norm(ground)
            if 0 < radius < r_min:
                self.eve_positions[j][:2] = ground * (r_min / radius)


class TestScenarioWalk:
    CFG = dict(eve__mobility="waypoint", eve__speed_mps=25.0)

    @pytest.mark.parametrize("seed", [4, 11])
    def test_matches_per_run_walk(self, seed):
        # the same legs in the same slots, to within 1e-9 m
        scn = build_scenario(small_config(**self.CFG), seed)
        reference = ReferenceWalk(scn)
        for t in range(2000):
            if t > 0:
                reference.step()
            np.testing.assert_allclose(scn.eve_positions(t), reference.eve_positions,
                                       rtol=0, atol=1e-9, err_msg=f"slot {t}")

    def test_out_of_order_calls_agree(self):
        cfg = small_config(**self.CFG)
        in_order = build_scenario(cfg, 4)
        walked = [in_order.eve_positions(t).tobytes() for t in range(1501)]
        jumped = build_scenario(cfg, 4)
        late, early = jumped.eve_positions(1500), jumped.eve_positions(10)
        assert (late.tobytes(), early.tobytes()) == (walked[1500], walked[10])

    def test_walked_scenario_freed_without_the_cycle_collector(self):
        # the cached walk must not refer back to its Scenario: a cycle would
        # keep every walked scenario alive until a full collection
        scn = build_scenario(small_config(**self.CFG), 4)
        scn.eve_positions(5)
        ref = weakref.ref(scn)
        gc.disable()
        try:
            del scn
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("mobility", ["static", "waypoint"])
    def test_positions_read_only(self, mobility):
        scn = build_scenario(small_config(eve__mobility=mobility), 4)
        for t in (0, 3):
            with pytest.raises(ValueError):
                scn.eve_positions(t)[0, 0] = 0.0


def reference_pair_shadow(seed, k, e):
    """One draw per (node, victim) pair, keyed by the sorted pair."""
    shadow = np.zeros((k, k + e))
    for i in range(k):
        for j in range(k + e):
            a, b = (i, j) if j >= i else (j, i)
            shadow[i, j] = substream(seed, STREAM_PAIR_SHADOW, a, b).standard_normal()
    return shadow


def reference_gain_tables(world, slot):
    """Per-pair faded path gains and bearings, recomputed from the positions."""
    scn = world.scenario
    targets = np.vstack([scn.hn_positions, scn.eve_positions(slot)])
    k, e = world.num_hn, len(targets) - world.num_hn
    fades = substream(scn.seed, STREAM_FADE, slot).exponential(1.0, size=(k, k + e))
    path = np.zeros((k, k + e))
    bearings = np.zeros((k, k + e))
    for i in range(k):
        for j in range(k + e):
            if j == i:
                continue
            dist = np.linalg.norm(targets[j] - scn.hn_positions[i])
            pl = path_loss_db(scn.pl_model, max(dist, 1.0), scn.pair_shadow[i, j])
            path[i, j] = linear_gain(pl) ** 2 * fades[i, j]
            bearings[i, j] = bearing_deg(targets[j] - scn.hn_positions[i])
    return path, bearings


def reference_steer(world, node_bearings):
    """Node-array steering toward each victim, one node row at a time."""
    spec = world.scenario.hn_spec
    n = spec.num_elements
    idx = np.arange(n) - (n - 1) / 2.0
    phase = spec.wavenumber * spec.spacing
    return np.stack([np.exp(1j * phase * np.outer(np.sin(np.radians(row)), idx)) / np.sqrt(n)
                     for row in node_bearings])


class TestLinkTables:
    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(2, 8), e=st.integers(1, 4),
           mobility=st.sampled_from(["static", "waypoint"]),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_cached_tables_match_per_pair_recomputation(self, k, e, mobility, seed):
        cfg = small_config(hn__count=k, eve__count=e, eve__mobility=mobility,
                           eve__speed_mps=25.0)
        world = init_scenario(cfg, seed)
        assert np.array_equal(world.scenario.pair_shadow, reference_pair_shadow(seed, k, e))
        nodes = world.scenario.link_gain
        assert nodes.shape == (k, k)
        assert np.array_equal(nodes, nodes.T) and np.all(np.diagonal(nodes) == 0.0)
        for slot in range(3):
            node_path, link_steer = engine._node_links(world.scenario, slot)
            path, bearings = reference_gain_tables(world, slot)
            # the array form rounds apart from the per-pair scalar arithmetic
            np.testing.assert_allclose(node_path, path, rtol=1e-13, atol=0)
            np.testing.assert_allclose(link_steer, reference_steer(world, bearings),
                                       rtol=0, atol=1e-15)
            fades = substream(seed, STREAM_FADE, slot).exponential(1.0, size=(k, k + e))
            assert np.array_equal(node_path[:, :k], nodes * fades[:, :k])


def reference_eve_channels(scn, slot):
    """Eavesdropper channels, one los_channel and one-row channel call each."""
    channels = []
    for j, position in enumerate(scn.eve_positions(slot)):
        dist = np.linalg.norm(position - scn.bs_center)
        gain = linear_gain(path_loss_db(scn.pl_model, dist, scn.eve_shadow[j]))
        los = los_channel(scn.bs_elements, position, gain, scn.bs_spec.wavelength)
        channels.append(oracle_eve_channel(scn.k_lin, los, slot, scn.seed, j))
    return np.stack(channels)


def one_eve_channel(scn, slot, j):
    """Eavesdropper j's channel from one-row _eve_los and rician_channel calls."""
    los = _eve_los(scn.bs_elements, scn.bs_center, scn.bs_spec.wavelength, scn.pl_model,
                   scn.eve_shadow[j:j + 1], scn.eve_positions(slot)[j:j + 1])
    return rician_channel(scn.k_lin, los, [substream(scn.seed, STREAM_EVE_NLOS, j, slot)])[0]


class TestEveChannels:
    def test_stacked_los_matches_per_eavesdropper_calls_on_a_walk(self):
        # each row is its own one-row build byte for byte, and the
        # per-eavesdropper scalar reference to test_channel.ORACLE_RTOL
        cfg = parse_config(str(Path(__file__).resolve().parent.parent / "configs"
                               / "posterior_mobile.ini"))
        scn = build_scenario(cfg, cfg.run.seed)
        for slot in range(30):
            eve_chans = engine._eve_channels(scn, slot)
            reference = reference_eve_channels(scn, slot)
            for j, row in enumerate(eve_chans):
                assert row.tobytes() == one_eve_channel(scn, slot, j).tobytes(), (slot, j)
                assert_near_oracle(row, reference[j])


def reference_pattern_table(link_steer, beams):
    """Transmit pattern gains, one node row at a time through a BLAS product."""
    k, v, n = link_steer.shape
    uniform = np.ones(n, dtype=complex) / np.sqrt(n)
    pattern = np.zeros((k, v))
    for i in range(k):
        pattern[i] = np.abs(link_steer[i].conj() @ beams.get(i, uniform)) ** 2
        pattern[i, i] = 0.0
    return pattern


def reference_stream_powers(world, p_stream, served):
    """Desired and inter-stream power at each served node, one node at a time
    through a BLAS product."""
    scn, rx = world.scenario, world.config.hn.array_elements
    prec = scn.precoder(tuple(served)).precoder
    sig, isi = np.zeros(len(served)), np.zeros(len(served))
    for idx, u in enumerate(served):
        beam_gain = np.abs(np.conj(scn.hn_channels[u]) @ prec.beams) ** 2
        sig[idx] = p_stream * beam_gain[idx] * rx
        isi[idx] = p_stream * (beam_gain.sum() - beam_gain[idx]) * rx
    return sig, isi


class TestSlotArrayForms:
    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 10), e=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1),
           data=st.data())
    def test_pattern_and_stream_powers_match_per_node_loops(self, k, e, seed, data):
        cfg = small_config(hn__count=k, eve__count=e)
        world = init_scenario(cfg, seed)
        state = engine._open_slot(world, StrategyId.IBEAMS, 0)
        rng = np.random.default_rng(seed)
        n = world.scenario.hn_spec.num_elements
        beams = {}
        for u in data.draw(st.lists(st.integers(0, k - 1), unique=True)):
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            beams[u] = w / np.linalg.norm(w)
        # entries are at most 1, so atol (a few ulps of 1) covers the
        # rounding of entries near a pattern null
        np.testing.assert_allclose(engine._pattern_table(state.link_steer, beams),
                                   reference_pattern_table(state.link_steer, beams),
                                   rtol=1e-13, atol=2e-15)
        drawn = data.draw(st.lists(st.integers(0, k - 1), unique=True,
                                   max_size=cfg.bs.num_rf))
        for served in (drawn, []):
            ctx = engine.build_slot_context(world, state, served, beams)
            p_stream = state.broadcast.alpha * cfg.bs.p_init_w / max(len(served), 1)
            sig, isi = reference_stream_powers(world, p_stream, served)
            assert ctx.sig_w.shape == ctx.isi_w.shape == (len(served),)
            np.testing.assert_allclose(ctx.sig_w, sig, rtol=1e-13, atol=0)
            # zero forcing cancels the cross-stream couplings, so their
            # rounding is relative to the node's whole received stream power
            assert np.all(np.abs(ctx.isi_w - isi) <= 1e-13 * (sig + isi))
            np.testing.assert_allclose(
                ctx.eve_capture_w,
                [p_stream * np.linalg.norm(h) ** 2 for h in state.eve_chans],
                rtol=1e-13, atol=0)


GAME_STRATEGIES = (StrategyId.STACKELBERG_ROLESWITCH, StrategyId.IBEAMS)


class TestNodeLinkInputs:
    @pytest.mark.parametrize("mobility", ["static", "waypoint"])
    def test_only_the_power_game_strategies_build_node_links(self, monkeypatch,
                                                             mobility):
        # no node radiates without the power game, so those strategies never
        # build the node link tables nor draw their fades
        links, fades = [], []
        victim_links, draw = Scenario.victim_links, engine.substream

        def counting_links(scn, slot):
            links.append(slot)
            return victim_links(scn, slot)

        def counting_draw(seed, stream, *keys):
            if stream == STREAM_FADE:
                fades.append(keys)
            return draw(seed, stream, *keys)

        monkeypatch.setattr(Scenario, "victim_links", counting_links)
        monkeypatch.setattr(engine, "substream", counting_draw)
        cfg = small_config(eve__mobility=mobility, eve__speed_mps=25.0)
        slots = list(range(cfg.run.slots))
        for strategy in StrategyId:
            del links[:], fades[:]
            run_simulation(cfg, strategy)
            if strategy in GAME_STRATEGIES:
                assert links == slots and fades == [(t,) for t in slots], strategy
            else:
                assert links == [] and fades == [], strategy

    @pytest.mark.parametrize("strategy", [StrategyId.STACKELBERG_ONLY, StrategyId.IBEAMS])
    def test_gain_table_layouts_fix_the_summation_order(self, strategy):
        # link._delivered's summation order follows each table's layout, and
        # the trace bytes follow that order; the zero tables of a strategy
        # without the power game are laid out as the real ones
        world = init_scenario(small_config(), 1)
        for t in range(3):
            run_slot(world, strategy, t)
        state = engine._open_slot(world, strategy, 3)
        assert (state.node_path is None) == (strategy not in GAME_STRATEGIES)
        served, waiting = [0, 2, 3], [1, 4, 5]
        engine._serve(world, state, served)
        ctx = state.ctx
        readmission = engine._readmission_context(world, state, waiting)
        k, e = world.num_hn, len(state.eve_norm2)
        item = ctx.jam_to_eve.itemsize
        assert ctx.jam_to_eve.strides == (item * (k + e), item), (
            f"jam_to_eve strides {ctx.jam_to_eve.strides}: a column slice of the "
            "row-major (K, K+E) table keeps its rows contiguous, so _delivered adds "
            "the nodes one at a time in id order; another layout changes that "
            "summation order")
        for name, table, count in (("jam_to_thn", ctx.jam_to_thn, len(served)),
                                   ("_readmission_context's jam_to_thn",
                                    readmission.jam_to_thn, len(waiting))):
            assert table.shape == (k, count)
            assert table.flags.f_contiguous and table.strides == (item, item * k), (
                f"{name} strides {table.strides}: a column gather keeps the node "
                "axis contiguous, so _delivered sums each entry as one dot product "
                "over the nodes; another layout changes that summation order")


class TestRunSlot:
    def test_baseline_zero_secrecy_short(self):
        cfg = small_config()
        world = init_scenario(cfg, 1)
        for t in range(5):
            record = run_slot(world, StrategyId.BASELINE, t)
            assert record.r_mean == 0.0
            assert record.see == 0.0
            assert record.alpha == 1.0 and record.beta == 0.0

    def test_full_stack_entropy_contracts(self):
        cfg = small_config(eve__count=1)
        cfg.run.slots = 40
        world = init_scenario(cfg, 1)
        records = [run_slot(world, StrategyId.IBEAMS, t) for t in range(40)]
        assert records[39].entropy_bits < records[0].entropy_bits

    def test_record_fields_complete(self):
        world = init_scenario(small_config(), 1)
        record = run_slot(world, StrategyId.IBEAMS, 0)
        assert record.slot == 0
        assert abs(record.alpha + record.beta + record.gamma - 1.0) <= 1e-9
        assert record.n_thn + record.n_jhn == world.num_hn
        assert record.bs_power_dbm == pytest.approx(41.7609, abs=1e-3)
        assert len(record.entropy_per_eve) == world.config.eve.count

    def test_strategy_gating(self):
        cfg = small_config()
        for strat, expect_gne, expect_refine in (
                (StrategyId.BASELINE, 0, 0),
                (StrategyId.FIXED_AN, 0, 0),
                (StrategyId.STACKELBERG_ONLY, 0, 0),
                (StrategyId.STACKELBERG_ROLESWITCH, 1, 0),
                (StrategyId.IBEAMS, 1, 1)):
            world = init_scenario(cfg, 1)
            records = [run_slot(world, strat, t) for t in range(3)]
            has_gne = any(r.gne_iters > 0 for r in records)
            has_refine = any(r.refine_iters > 0 for r in records)
            assert has_gne == bool(expect_gne), strat
            assert has_refine == bool(expect_refine), strat

    def test_strategies_start_from_the_initial_broadcast(self):
        cfg = small_config(leader__alpha_init=0.65, leader__beta_init=0.25,
                           leader__gamma_init=0.1, leader__pi_init=0.4,
                           leader__tau_init=0.6, leader__kappa_init=0.25)
        initial = Broadcast(0.65, 0.25, 0.1, 0.4, 0.6, 0.25)
        no_defense = replace(initial, alpha=1.0, beta=0.0, gamma=0.0)
        for strategy, want in ((StrategyId.BASELINE, no_defense),
                               (StrategyId.FIXED_AN, initial)):
            world = init_scenario(cfg, 1)
            for t in range(3):
                r = run_slot(world, strategy, t)
                assert (r.alpha, r.beta, r.gamma, r.pi, r.tau, r.kappa) == astuple(want)
        # stackelberg_only runs the leader: its first step acts on the
        # initial announcement
        world = init_scenario(cfg, 1)
        kpis = world.prev_kpis
        r = run_slot(world, StrategyId.STACKELBERG_ONLY, 0)
        want = leader_step(LeaderState(initial, cfg.belief.sigma0_deg), cfg,
                           kpis, world.entropy_ema).broadcast
        assert (r.alpha, r.beta, r.gamma, r.pi, r.tau, r.kappa) == astuple(want)
        assert want != initial

    @pytest.mark.parametrize("strategy", list(StrategyId))
    def test_tau_and_kappa_stay_the_initial_announcement(self, strategy):
        # the leader adapts only pi: the leakage penalty tau and the sensing
        # price kappa stay the announced initial values in every slot
        world = init_scenario(small_config(leader__tau_init=0.6, leader__kappa_init=0.25), 1)
        records = [run_slot(world, strategy, t) for t in range(4)]
        assert [(r.tau, r.kappa) for r in records] == [(0.6, 0.25)] * 4

    def test_leader_frozen_for_static_strategies(self):
        world = init_scenario(small_config(), 1)
        records = [run_slot(world, StrategyId.FIXED_AN, t) for t in range(4)]
        assert all(r.alpha == 0.6 and r.beta == 0.2 and r.gamma == 0.2
                   for r in records)
        assert all(r.pi == 0.7 and r.tau == 0.3 and r.kappa == 0.1
                   for r in records)


class TestJammingBeams:
    @pytest.mark.parametrize("ini", [None, "posterior_mobile.ini"])
    def test_only_jammers_hold_beams(self, ini):
        # a node that ends a slot in the transmit role stops radiating its
        # jamming beam from the next slot on
        cfg = (parse_config(str(Path(__file__).resolve().parent.parent / "configs" / ini))
               if ini else ScenarioConfig())
        world = init_scenario(cfg, cfg.run.seed)
        held = set()
        for t in range(20):
            run_slot(world, StrategyId.IBEAMS, t)
            assert all(world.roles[u] is Role.JHN for u in world.jhn_beams), t
            held.update(world.jhn_beams)
        assert held


class TestRunSimulation:
    def test_trace_shape_and_determinism(self):
        cfg = small_config()
        cfg.run.slots = 4
        a = run_simulation(cfg, StrategyId.IBEAMS)
        b = run_simulation(cfg, StrategyId.IBEAMS)
        assert len(a.traces) == 1
        assert len(a.traces[0]) == 4
        for ra, rb in zip(a.traces[0], b.traces[0]):
            for col in ("r_mean", "see", "alpha", "gne_gap", "entropy_bits",
                        "hn_power_sum_w"):
                assert getattr(ra, col) == getattr(rb, col)

    def test_single_slot_single_replication(self):
        cfg = small_config()
        cfg.run.slots = 1
        res = run_simulation(cfg, StrategyId.FIXED_AN)
        assert len(res.traces[0]) == 1

    def test_replications_independent_and_merged(self):
        cfg = small_config()
        cfg.run.slots = 2
        cfg.run.replications = 2
        res = run_simulation(cfg, StrategyId.FIXED_AN)
        assert len(res.traces) == 2
        assert res.summary["replications"] == 2
        # different placements across replications
        assert not np.array_equal(res.worlds[0].scenario.hn_positions,
                                  res.worlds[1].scenario.hn_positions)


class TestPowerBand:
    def test_bs_power_stays_in_soft_band(self):
        world = init_scenario(small_config(), 1)
        records = [run_slot(world, StrategyId.IBEAMS, t) for t in range(5)]
        for r in records:
            assert 40.0 <= r.bs_power_dbm <= 43.5


class TestCsiErrorKnob:
    def test_default_off_estimates_are_true_channels(self):
        world = init_scenario(small_config(), 1)
        for h, e in zip(world.scenario.hn_channels, world.scenario.hn_estimates):
            assert np.array_equal(h, e)

    def test_bounded_error_perturbs_estimates(self):
        cfg = small_config()
        cfg.channel.csi_error_frobenius = 1e-6
        world = init_scenario(cfg, 1)
        total = np.sqrt(sum(np.linalg.norm(e - h) ** 2 for h, e in
                            zip(world.scenario.hn_channels, world.scenario.hn_estimates)))
        assert total == pytest.approx(1e-6, rel=1e-9)
        # the run stays valid: AN leaks a little at served nodes but nothing
        # blows up
        records = [run_slot(world, StrategyId.IBEAMS, t) for t in range(3)]
        assert all(r.r_mean >= 0.0 for r in records)

    def test_error_draw_deterministic(self):
        cfg = small_config()
        cfg.channel.csi_error_frobenius = 1e-6
        a = init_scenario(cfg, 2)
        b = init_scenario(cfg, 2)
        for ea, eb in zip(a.scenario.hn_estimates, b.scenario.hn_estimates):
            assert np.array_equal(ea, eb)


class TestCoalitionRecord:
    def test_membership_logged(self):
        world = init_scenario(small_config(), 1)
        records = [run_slot(world, StrategyId.IBEAMS, t) for t in range(5)]
        assert any(r.coalitions for r in records)
        for target, members in records[-1].coalitions:
            assert -90.0 <= target <= 90.0
            assert all(isinstance(m, int) for m in members)


class TestReadmission:
    def test_estimate_matches_scalar_formula(self):
        # after a real ibeams power game, each waiting node's re-admission
        # estimate equals the per-node scalar formula
        cfg = ScenarioConfig()
        world = init_scenario(cfg, 1)
        for t in range(3):
            run_slot(world, StrategyId.IBEAMS, t)
        state = engine._open_slot(world, StrategyId.IBEAMS, 3)
        state.roles = dict(world.roles)
        engine._serve(world, state, engine._select_served(world, state.roles))
        ctx, served = state.ctx, state.ctx.served
        engine._play_power_game(world, state)
        assert state.ctx.served == served   # the powers are still the game's
        powers = state.powers
        p_full = state.broadcast.alpha * cfg.bs.p_init_w / cfg.bs.num_rf
        eve_sinr = max(p_full * np.linalg.norm(h) ** 2
                       / (ctx.eve_an_w[j] + powers @ ctx.jam_to_eve[:, j] + ctx.eve_noise_w)
                       for j, h in enumerate(state.eve_chans))
        eve = np.log2(1.0 + eve_sinr)
        waiting = [u for u in range(world.num_hn) if u not in served]
        assert len(waiting) == world.num_hn - cfg.bs.num_rf
        positive = 0
        for u in waiting:
            leak = powers @ ctx.jam_to_hn[:, u]
            legit = np.log2(1.0 + p_full * world.scenario.hn_norm2[u] / cfg.bs.num_rf
                            * cfg.hn.array_elements / (leak + world.scenario.noise_w))
            expected = (cfg.followers.hypothetical_discount * max(0.0, legit - eve)
                        if np.isfinite(eve) else 0.0)
            assert state.rates_eq[u] == pytest.approx(expected, rel=1e-12, abs=0.0)
            positive += expected > 0.0
        assert positive > 0 and np.count_nonzero(powers) > 1


def reference_ray_aim(world, uid, peak_bearing_deg, num_samples=7):
    """refinement.ray_aim's aim from a node, scored pair by pair with np.vdot."""
    cfg = world.config
    theta = np.radians(peak_bearing_deg)
    ranges = np.linspace(cfg.run.min_node_distance_m, cfg.run.cell_radius_m,
                         num_samples)
    points = np.stack([ranges * np.cos(theta), ranges * np.sin(theta),
                       np.full(num_samples, cfg.eve.height_m)], axis=1)
    d = points - world.scenario.hn_positions[uid]
    bearings = np.degrees(np.arctan2(d[:, 1], d[:, 0]))
    dists = np.maximum(np.linalg.norm(d, axis=1), 1.0)
    need_ratio = (ranges / dists) ** cfg.channel.path_loss_exponent
    steers = steering_vector(world.scenario.hn_spec, np.radians(bearings))
    best_aim, best_score = float(bearings[0]), -1.0
    for cand, cand_steer in zip(bearings, steers):
        gains = np.array([np.abs(np.vdot(cand_steer, s)) ** 2 for s in steers])
        score = float(np.min(gains * need_ratio))
        if score > best_score:
            best_score, best_aim = score, float(cand)
    return best_aim


class TestRayAim:
    @pytest.mark.parametrize("config_file", [None, "posterior_static.ini"])
    def test_matches_vdot_loop_for_every_jammer(self, config_file):
        cfg = (parse_config(str(Path(__file__).resolve().parent.parent / "configs"
                                / config_file)) if config_file else ScenarioConfig())
        world = init_scenario(cfg, cfg.run.seed)
        checked = 0
        for t in range(6):
            record = run_slot(world, StrategyId.IBEAMS, t)
            jammers = [u for u, role in record.roles.items() if role == Role.JHN.value]
            for target, _ in record.coalitions:
                got = ray_aim(world.scenario.hn_positions[jammers], [target] * len(jammers),
                              world.scenario.hn_spec,
                              (cfg.run.min_node_distance_m, cfg.run.cell_radius_m),
                              cfg.eve.height_m, cfg.channel.path_loss_exponent)
                assert got.tolist() == [reference_ray_aim(world, u, target) for u in jammers]
                checked += len(jammers)
        assert checked > 0

    # 100 examples take about 2 s on 2 vCPUs
    @settings(max_examples=100, deadline=None)
    @given(elements=st.integers(2, 32), frequency_ghz=st.floats(1.0, 100.0),
           cell_radius=st.floats(60.0, 400.0), min_distance=st.floats(1.0, 50.0),
           exponent=st.floats(1.6, 4.0), height=st.floats(0.0, 60.0),
           nodes=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
           edge_peaks=st.lists(st.sampled_from([-90.0, 90.0]), max_size=3))
    def test_stacked_aims_match_one_pair_at_a_time(self, elements, frequency_ghz,
                                                   cell_radius, min_distance, exponent,
                                                   height, nodes, seed, edge_peaks):
        cfg = ScenarioConfig()
        cfg.hn.array_elements = elements
        cfg.carrier.frequency_hz = frequency_ghz * 1e9
        cfg.run.cell_radius_m, cfg.run.min_node_distance_m = cell_radius, min_distance
        cfg.channel.path_loss_exponent, cfg.eve.height_m = exponent, height
        rng = np.random.default_rng(seed)
        positions = np.stack([_draw_sector_position(rng, cfg.run, cfg.hn.height_m)
                              for _ in range(nodes)])
        # grid bearings, the field's edges, and each (node, peak) pair repeated
        peaks = rng.choice(np.linspace(-90.0, 90.0, 181), nodes).tolist()
        peaks[: len(edge_peaks)] = edge_peaks[:nodes]
        rows = np.r_[np.arange(nodes), np.arange(nodes)]
        world = SimpleNamespace(config=cfg, scenario=SimpleNamespace(
            hn_positions=positions,
            hn_spec=ArraySpec.half_wavelength(elements, C_LIGHT / cfg.carrier.frequency_hz)))
        got = ray_aim(positions[rows], [peaks[u] for u in rows], world.scenario.hn_spec,
                      (min_distance, cell_radius), height, exponent)
        assert got.tolist() == [reference_ray_aim(world, u, peaks[u]) for u in rows]


def _check_after_corrupting(corrupt: str) -> str:
    """Under python -O, which strips assert statements: run the slot check of
    a fresh FIXED_AN slot 0, apply `corrupt` (a statement over `world` and
    `state`), check again, and return what was printed: __debug__ and the
    InvariantError raised."""
    code = textwrap.dedent("""
        from secure_isac import InvariantError, engine
        from secure_isac.config import ScenarioConfig, StrategyId

        def slot_scores(state):
            return (state.ctx.rates(state.powers),
                    state.ctx.leakage_at_served(state.powers))

        world = engine.init_scenario(ScenarioConfig(), 1)
        state = engine._open_slot(world, StrategyId.FIXED_AN, 0)
        engine._serve(world, state, [])
        engine._check_slot_invariants(world, state, *slot_scores(state))
        {corrupt}
        try:
            engine._check_slot_invariants(world, state, *slot_scores(state))
        except InvariantError as exc:
            print(__debug__, exc)
    """).format(corrupt=corrupt)
    src = str(Path(secure_isac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestInvariants:
    def test_slot_check_raises_under_python_O(self):
        # python -O strips assert statements; the slot check must still fire
        printed = _check_after_corrupting("state.powers[0] = 2.0 * world.config.hn.p_max_w")
        assert printed == "False slot 0: node power outside [0, p_max]"

    def test_belief_check_raises_under_python_O(self):
        printed = _check_after_corrupting("world.posterior[1] *= 1.5")
        assert printed == "False slot 0: belief not a distribution"

    @pytest.mark.parametrize("corrupt", ["mass", "negative entry"])
    def test_a_corrupt_posterior_row_fails_the_slot_check(self, corrupt):
        world = init_scenario(ScenarioConfig(), 1)
        state = engine._open_slot(world, StrategyId.FIXED_AN, 0)
        engine._serve(world, state, [])
        scores = (state.ctx.rates(state.powers), state.ctx.leakage_at_served(state.powers))
        engine._check_slot_invariants(world, state, *scores)
        if corrupt == "mass":
            world.posterior[2] *= 1.0 + 1e-8
        else:
            # mass moved within the row: its sum stays 1, one entry goes negative
            world.posterior[2, :2] += (-0.01, 0.01)
        with pytest.raises(InvariantError, match="^slot 0: belief not a distribution$"):
            engine._check_slot_invariants(world, state, *scores)

    def test_leakage_failure_names_the_node_and_its_excess(self):
        world = init_scenario(ScenarioConfig(), 1)
        state = engine._open_slot(world, StrategyId.IBEAMS, 0)
        served = [int(u) for u in np.argsort(-world.scenario.hn_norm2)[:2]]
        engine._serve(world, state, served)
        leakage = np.array([0.5, 3.0]) * world.scenario.feasibility.xi_max
        with pytest.raises(InvariantError) as raised:
            engine._check_slot_invariants(world, state, state.ctx.rates(state.powers),
                                          leakage)
        assert str(raised.value) == (f"slot 0: leakage cap exceeded at a served node: "
                                     f"node {served[1]} receives 3 x xi_max")

    def test_two_element_node_arrays_keep_every_served_node_inside_the_cap(self):
        # with two elements a jamming beam protects one served node, and at
        # seed 1 the refinement's new beams push the power game's profile
        # over a cap in slot 138; the refinement rejects that iteration, so
        # every slot's invariants hold
        cfg = ScenarioConfig()
        cfg.hn.array_elements = 2
        world = init_scenario(cfg, 1)
        refined = [run_slot(world, StrategyId.IBEAMS, t).refine_iters for t in range(139)]
        assert refined[138] >= 1
