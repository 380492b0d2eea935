"""The per-seed Scenario is frozen, read-only and shared safely by its runs."""

import logging
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secure_isac import engine, scenario as scenario_module
from secure_isac.arrays import steering_vector
from secure_isac.belief import default_grid
from secure_isac.channel import (STREAM_EVE_NLOS, STREAM_HN_NLOS, STREAM_SHADOW, linear_gain,
                                  los_channel, path_loss_db, rician_channel, substream)
from secure_isac.config import ScenarioConfig, StrategyId, serialize_config
from secure_isac.link import an_projector, build_precoder
from secure_isac.refinement import JammingBeam, aligned_beam, protective_nulls, ray_aim
from secure_isac.scenario import (World, _eve_los, _link_columns, bearing_deg, build_scenario,
                                  init_scenario, start_run)
from test_channel import (SEED_VALUES, assert_near_oracle, oracle_eve_channel,
                          oracle_rician_channel, oracle_substream)
from test_engine import reference_pair_shadow

logging.disable(logging.WARNING)

SLOTS = 10


def small_config(mobility: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.hn.count = 6
    cfg.eve.count = 2
    cfg.eve.mobility = mobility
    cfg.eve.speed_mps = 25.0
    return cfg


def scenario_arrays(scenario) -> dict:
    return {f.name: getattr(scenario, f.name) for f in fields(scenario)
            if isinstance(getattr(scenario, f.name), np.ndarray)}


def run(world, strategy) -> list:
    return [engine.run_slot(world, strategy, t) for t in range(SLOTS)]


def reference_null_steer(weights, null_angles, spec):
    """One beam projected off its nulled directions (radians) by its own QR
    factorization and renormalized; None when (almost) no energy is left."""
    if not null_angles:
        return weights.copy()
    q, _ = np.linalg.qr(steering_vector(spec, null_angles).T)
    projected = weights - q @ (q.conj().T @ weights)
    norm = np.linalg.norm(projected)
    return None if norm < 1e-9 else projected / norm


def reference_beam(aim_deg, null_deg, spec, grid_deg):
    """A member's beam and gain row as the refinement synthesized them one
    call at a time: steering over the grid, nulls dropped farthest first
    while infeasible, phase-referenced at the aim. Returns (weights, gain
    row, dropped nulls). Its phase reference and gain row are BLAS products,
    which round differently from aligned_beam's einsums: see
    assert_near_reference_beam."""
    steer_grid = steering_vector(spec, np.radians(grid_deg))
    target = steering_vector(spec, np.radians(aim_deg))
    nulls = list(null_deg)[: spec.num_elements - 1]
    dropped = 0
    while (beam := reference_null_steer(target, [np.radians(a) for a in nulls], spec)) is None:
        nulls.pop()
        dropped += 1
    response = np.vdot(beam, target)
    if abs(response) > 0:
        beam = beam * np.exp(1j * np.angle(response))
    return beam, np.abs(steer_grid.conj() @ beam) ** 2, dropped


# The beams agree with reference_beam to BEAM_TOL of the row's peak gain, and
# their weights up to a global phase: where the nulls nearly cancel the aim,
# the phase reference w^H a(aim) falls to ~1e-8 and its angle is rounding
# noise, so the two phase references can differ by any angle.
BEAM_TOL = 1e-6


def one_row_beam(aim_deg, null_deg, spec, grid_steer_conj):
    """aligned_beam's one-row call at one aim with nulls at `null_deg`, of
    which it keeps one fewer than the elements."""
    kept = np.array(list(null_deg)[: spec.num_elements - 1], dtype=float)
    return aligned_beam([aim_deg], steering_vector(spec, np.radians(kept))[None], spec,
                        grid_steer_conj)[0]


def assert_near_reference_beam(beam, reference):
    weights, gain_row, dropped = reference
    assert beam.dropped_nulls == dropped
    np.testing.assert_allclose(beam.gain_row, gain_row, rtol=0, atol=BEAM_TOL * gain_row.max())
    assert abs(np.vdot(weights, beam.weights)) == pytest.approx(1.0, abs=BEAM_TOL)


def reference_aim(scn, node, peak_deg):
    """refinement.ray_aim of one node at one peak bearing."""
    cfg = scn.config
    return ray_aim(scn.hn_positions[[node]], [peak_deg], scn.hn_spec,
                   (cfg.run.min_node_distance_m, cfg.run.cell_radius_m), cfg.eve.height_m,
                   cfg.channel.path_loss_exponent)[0]


def reference_null_bearings(scn, node, served):
    """Bearings from `node` of the served nodes its beam protects, recomputed
    from the positions: the nearest first, one fewer than its elements."""
    pos = scn.hn_positions
    nearest = sorted(served, key=lambda t: np.linalg.norm(pos[t] - pos[node]))
    return [bearing_deg(pos[t] - pos[node]) for t in nearest[: scn.hn_spec.num_elements - 1]]


def assert_beam_equals_reference(beam, scn, node, peak_deg, served) -> int:
    """The cached beam is, in bytes, the one-row aligned_beam call of the
    node at its ray aim with nulls toward the served nodes it protects, all
    from bearings; it agrees with reference_beam and is read-only. Returns
    its count of dropped nulls."""
    aim, nulls = reference_aim(scn, node, peak_deg), reference_null_bearings(scn, node, served)
    alone = one_row_beam(aim, nulls, scn.hn_spec, scn.grid_steer_conj)
    assert isinstance(beam, JammingBeam)
    assert beam.weights.tobytes() == alone.weights.tobytes()
    assert beam.gain_row.tobytes() == alone.gain_row.tobytes()
    assert beam.dropped_nulls == alone.dropped_nulls
    assert_near_reference_beam(beam, reference_beam(aim, nulls, scn.hn_spec,
                                                    default_grid(scn.config.belief.grid_size)))
    for arr in (beam.weights, beam.gain_row):
        with pytest.raises(ValueError):
            arr[0] = 0
    return beam.dropped_nulls


def reference_victim_links(scn, slot):
    """The link tables toward every node and eavesdropper, built afresh."""
    k = scn.hn_positions.shape[0]
    gain, steer = _link_columns(scn.hn_positions, scn.eve_positions(slot),
                                scn.pair_shadow[:, k:], scn.pl_model, scn.hn_spec)
    return (np.hstack([scn.link_gain, gain]),
            np.concatenate([scn.link_steer, steer], axis=1))


def reference_eve_los(scn, slot):
    """The BS->eavesdropper LOS channels of a slot, built afresh from the
    slot's positions with one scalar path-loss call per eavesdropper (whose
    scalar log10 and power round differently from the array ones)."""
    positions = scn.eve_positions(slot)
    gains = [linear_gain(path_loss_db(scn.pl_model, np.linalg.norm(p - scn.bs_center),
                                      scn.eve_shadow[j]))
             for j, p in enumerate(positions)]
    return los_channel(scn.bs_elements, positions, np.array(gains), scn.bs_spec.wavelength)


def reference_served_terms(scn, served):
    """A served set's AN basis, own and cross coupling and AN residual,
    built afresh with the coupling and residual written out."""
    cfg, ids = scn.config, list(served)
    prec = build_precoder(scn.hn_estimates[ids], cfg.bs.num_rf, cfg.bs.rzf_reg)
    basis = an_projector(scn.hn_estimates[ids], num_antennas=cfg.bs.antennas)
    h = scn.hn_channels[ids]
    coupling = (np.abs(np.einsum("un,nv->uv", h.conj(), prec.beams)) ** 2
                if served else np.zeros((0, 0)))
    total = np.einsum("...n,...n->...", h.conj(), h).real
    coeffs = np.einsum("nu,...n->...u", basis.conj(), h)
    captured = np.einsum("...u,...u->...", coeffs.conj(), coeffs).real
    return (basis, coupling.diagonal(), coupling.sum(axis=1) - coupling.diagonal(),
            np.maximum(0.0, total - captured))


@pytest.mark.parametrize("mobility", ["static", "waypoint"])
class TestFrozenScenario:
    def test_arrays_and_fields_read_only(self, mobility):
        scenario = build_scenario(small_config(mobility), 1)
        arrays = scenario_arrays(scenario)
        assert {"hn_channels", "hn_estimates", "link_gain", "link_steer",
                "eve_start", "pair_shadow", "grid_deg", "grid_steer_conj"} <= set(arrays)
        for name, arr in arrays.items():
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0
        with pytest.raises(FrozenInstanceError):
            scenario.seed = 2
        with pytest.raises(FrozenInstanceError):
            scenario.feasibility.p_max = 2.0

    @pytest.mark.parametrize("strategy", list(StrategyId))
    def test_runs_leave_it_unchanged_and_match_fresh_builds(self, mobility, strategy):
        cfg = small_config(mobility)
        scenario = build_scenario(cfg, 1)
        before = {name: arr.tobytes() for name, arr in scenario_arrays(scenario).items()}
        config_text = serialize_config(cfg)
        # an ibeams run first fills the geometry cache, so both runs read a
        # warm scenario
        run(start_run(scenario), StrategyId.IBEAMS)
        assert len(scenario.geometry_cache) > 0
        shared = [run(start_run(scenario), strategy) for _ in range(2)]
        after = {name: arr.tobytes() for name, arr in scenario_arrays(scenario).items()}
        assert after == before
        assert scenario.precoder_cache
        for terms in scenario.precoder_cache.values():
            for arr in terms:
                assert not arr.flags.writeable
        assert serialize_config(scenario.config) == config_text
        fresh = [run(init_scenario(cfg, 1), strategy) for _ in range(2)]
        assert shared == fresh

    def test_geometry_cache_equals_fresh_builds_and_is_read_only(self, mobility):
        cfg = small_config(mobility)
        scenario = build_scenario(cfg, 1)
        run(start_run(scenario), StrategyId.IBEAMS)
        fresh = steering_vector(scenario.hn_spec, np.radians(default_grid(cfg.belief.grid_size)))
        assert scenario.grid_steer_conj.tobytes() == fresh.conj().tobytes()
        assert scenario.geometry_cache
        # one key kind: (node, peak, the protected node ids, nearest first)
        for key, value in scenario.geometry_cache.items():
            node, peak, protected = key
            assert (type(node), type(peak), type(protected)) == (int, float, tuple)
            assert list(protected) == protective_nulls([node], protected, scenario.hn_positions,
                                                       scenario.hn_spec)[0].tolist()
            assert_beam_equals_reference(value, scenario, *key)
        # one entry per distinct key: a second run over the scenario adds none
        size = len(scenario.geometry_cache)
        run(start_run(scenario), StrategyId.IBEAMS)
        assert len(scenario.geometry_cache) == size

    def test_refined_slots_build_geometry_in_one_stacked_call_each(self, mobility,
                                                                     monkeypatch):
        calls = []

        def counted(name, build):
            def wrapper(*args):
                calls.append((name, len(args[0])))
                return build(*args)
            return wrapper

        monkeypatch.setattr(scenario_module, "ray_aim",
                            counted("aim", scenario_module.ray_aim))
        monkeypatch.setattr(scenario_module, "aligned_beam",
                            counted("beam", scenario_module.aligned_beam))
        scenario = build_scenario(small_config(mobility), 1)
        world = start_run(scenario)
        per_slot = []
        for t in range(SLOTS):
            engine.run_slot(world, StrategyId.IBEAMS, t)
            per_slot.append(list(calls))
            calls.clear()
        # a slot that misses builds its beams' aims and the beams in one call
        # each, over the same rows
        built = [slot for slot in per_slot if slot]
        assert all(len(slot) == 2 and slot[0][0] == "aim" and slot[1][0] == "beam"
                   and slot[0][1] == slot[1][1] for slot in built)
        assert built and max(rows for (_, rows), _ in built) > 1
        # a run over the warm scenario builds nothing and caches nothing new
        size = len(scenario.geometry_cache)
        run(start_run(scenario), StrategyId.IBEAMS)
        assert calls == [] and len(scenario.geometry_cache) == size

    def test_eavesdropper_links_equal_per_slot_builds(self, mobility):
        scenario = build_scenario(small_config(mobility), 1)
        for t in range(6):
            links = scenario.victim_links(t)
            assert ([a.tobytes() for a in links]
                    == [a.tobytes() for a in reference_victim_links(scenario, t)])
            for arr in links:
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 0
            # the slot's faded gains and steering are built from them
            node_path, link_steer = engine._node_links(scenario, t)
            assert link_steer.tobytes() == links[1].tobytes()
            assert node_path.shape == links[0].shape
        # built once under static mobility, every slot under a walk
        assert (scenario.victim_links(0) is scenario.victim_links(5)) == (mobility == "static")


    def test_eavesdropper_los_equals_per_slot_builds(self, mobility):
        scenario = build_scenario(small_config(mobility), 1)
        if mobility == "static":
            with pytest.raises(ValueError):
                scenario.static_eve_los[0, 0] = 0
        else:
            assert scenario.static_eve_los is None
        for t in range(6):
            # each row is its eavesdropper's one-row build in bytes, and the
            # scalar-path-loss reference to test_channel.ORACLE_RTOL
            los, positions = scenario.eve_los(t), scenario.eve_positions(t)
            reference = reference_eve_los(scenario, t)
            # the slot's channels redraw only the scattered part on it
            channels = engine._eve_channels(scenario, t)
            for j in range(len(los)):
                alone = _eve_los(scenario.bs_elements, scenario.bs_center,
                                 scenario.bs_spec.wavelength, scenario.pl_model,
                                 scenario.eve_shadow[j:j + 1], positions[j:j + 1])
                assert los[j].tobytes() == alone[0].tobytes()
                assert_near_oracle(los[j], reference[j])
                fresh = rician_channel(scenario.k_lin, alone,
                                       [substream(scenario.seed, STREAM_EVE_NLOS, j, t)])
                assert channels[j].tobytes() == fresh[0].tobytes()
                assert_near_oracle(channels[j], oracle_eve_channel(
                    scenario.k_lin, reference[j], t, scenario.seed, j))
        # built once under static mobility, every slot under a walk
        assert (scenario.eve_los(0) is scenario.eve_los(5)) == (mobility == "static")

    def test_served_terms_equal_fresh_builds(self, mobility):
        scenario = build_scenario(small_config(mobility), 1)
        run(start_run(scenario), StrategyId.IBEAMS)
        run(start_run(scenario), StrategyId.STACKELBERG_ONLY)
        assert len(scenario.precoder_cache) > 1
        for served, terms in scenario.precoder_cache.items():
            assert [a.tobytes() for a in terms] == [
                a.tobytes() for a in reference_served_terms(scenario, served)]

    def test_cached_served_terms_equal_a_fresh_scenarios_build(self, mobility):
        # the terms cached over runs are those a fresh scenario builds first
        scenario = build_scenario(small_config(mobility), 1)
        run(start_run(scenario), StrategyId.IBEAMS)
        fresh = build_scenario(small_config(mobility), 1)
        assert len(scenario.precoder_cache) > 1
        for served, terms in scenario.precoder_cache.items():
            assert type(terms) is type(fresh.precoder(served))
            assert [a.tobytes() for a in terms] == [
                a.tobytes() for a in fresh.precoder(served)]


def with_node_at(scn, node, position):
    """The scenario with one hybrid node moved, its node link steering
    rebuilt and an empty geometry cache."""
    positions = scn.hn_positions.copy()
    positions[node] = position
    _, steer = _link_columns(positions, positions, scn.pair_shadow[:, : len(positions)],
                             scn.pl_model, scn.hn_spec)
    return replace(scn, hn_positions=positions, link_steer=steer, geometry_cache={})


def stacked_beam_cases(n: int, rng):
    """(aims, null sets) batches for an n-element array: no nulls, each count
    from 1 to n - 1, a served set longer than n - 1, and rows whose aim sits
    on a protected bearing (nearest or farthest) so that nulls are dropped."""
    def draw(rows, count):
        return (rng.uniform(-90.0, 90.0, rows).tolist(),
                [tuple(rng.uniform(-90.0, 90.0, count).tolist()) for _ in range(rows)])

    cases = [draw(3, 0)] + [draw(5, count) for count in range(1, n)] + [draw(4, n + 2)]
    for count in range(1, n):
        aims, nulls = draw(4, count)
        nulls[0] = nulls[0][:-1] + (aims[0],)     # on the farthest protected bearing
        nulls[1] = (aims[1],) + nulls[1][1:]      # on the nearest one
        cases.append((aims, nulls))
    return cases


class TestJammingBeams:
    @pytest.mark.parametrize("elements", [2, 3, 8, 16])
    def test_stacked_beams_equal_one_call_per_beam(self, elements):
        cfg = small_config("static")
        cfg.hn.array_elements = elements
        scenario = build_scenario(cfg, 1)
        spec, grid = scenario.hn_spec, default_grid(cfg.belief.grid_size)
        dropped_any = 0
        for aims, nulls in stacked_beam_cases(elements, np.random.default_rng(elements)):
            kept = np.array([null_set[: elements - 1] for null_set in nulls])
            beams = aligned_beam(aims, steering_vector(spec, np.radians(kept)), spec,
                                 scenario.grid_steer_conj)
            for aim, null_set, beam in zip(aims, nulls, beams):
                alone = one_row_beam(aim, null_set, spec, scenario.grid_steer_conj)
                assert beam.weights.tobytes() == alone.weights.tobytes()
                assert beam.gain_row.tobytes() == alone.gain_row.tobytes()
                assert_near_reference_beam(beam, reference_beam(aim, null_set, spec, grid))
                dropped_any += beam.dropped_nulls
        assert dropped_any > 0

    @pytest.mark.parametrize("elements", [1, 2, 3, 8, 16])
    def test_beams_equal_the_reference_built_from_bearings(self, elements):
        cfg = small_config("static")
        cfg.hn.count = 20
        cfg.hn.array_elements = elements
        scenario = build_scenario(cfg, 1)
        grid = default_grid(cfg.belief.grid_size)
        rng = np.random.default_rng(elements)
        # served sets of each size: none, one, n - 1, and more than n - 1
        for size in sorted({0, 1, elements - 1, elements + 2}):
            served = tuple(sorted(rng.choice(cfg.hn.count, size, replace=False).tolist()))
            nodes = [u for u in range(cfg.hn.count) if u not in served]
            peaks = rng.choice(grid, len(nodes)).tolist()
            beams = scenario.jamming_beams(nodes, peaks, served)
            for node, peak, beam in zip(nodes, peaks, beams):
                assert_beam_equals_reference(beam, scenario, node, peak, served)
        # a served node on node 0's aim leaves its beam no usable energy under
        # that null: placed nearest, every null is dropped; placed farthest,
        # only it is. Node 0 is built in one call with every other jammer, so
        # the call mixes rows that retry with rows that are feasible at once.
        node, peak, on_aim = 0, 20.0, 1
        aim = np.radians(reference_aim(scenario, node, peak))
        for count in range(1, elements):
            served = (on_aim,) + tuple(range(2, count + 1))
            jammers = [u for u in range(cfg.hn.count) if u not in served]
            peaks = [peak] + rng.choice(grid, len(jammers) - 1).tolist()
            for distance, expected in [(5.0, count), (1000.0, 1)]:
                moved = with_node_at(scenario, on_aim, scenario.hn_positions[node]
                                     + distance * np.array([np.cos(aim), np.sin(aim), 0.0]))
                beams = moved.jamming_beams(jammers, peaks, served)
                dropped = [assert_beam_equals_reference(beam, moved, u, p, served)
                           for u, p, beam in zip(jammers, peaks, beams)]
                assert dropped[0] == expected and 0 in dropped[1:]

    def test_cached_beams_are_reused(self):
        scenario = build_scenario(small_config("static"), 1)

        # a key repeated among the misses is built once
        first = scenario.jamming_beams([0, 1, 0], [10.0, -20.0, 10.0], (2, 3))
        assert first[2] is first[0] and len(scenario.geometry_cache) == 2
        again = scenario.jamming_beams([1, 0, 1], [-20.0, 10.0, -20.0], (2, 3))
        assert [id(b) for b in again] == [id(first[1]), id(first[0]), id(first[1])]
        assert len(scenario.geometry_cache) == 2
        # a new served set adds one entry
        other = scenario.jamming_beams([0], [10.0], (2, 4))
        assert other[0] is not first[0] and len(scenario.geometry_cache) == 3

    def test_served_sets_protecting_the_same_nodes_share_a_beam(self):
        cfg = small_config("static")
        cfg.hn.array_elements = 2
        scenario = build_scenario(cfg, 1)
        pos = scenario.hn_positions
        nearest, *farther = sorted(range(1, cfg.hn.count),
                                   key=lambda t: np.linalg.norm(pos[t] - pos[0]))
        # node 0 protects only its nearest served node, whatever else is served
        first = scenario.jamming_beams([0], [10.0], (nearest, farther[0]))
        size = len(scenario.geometry_cache)
        again = scenario.jamming_beams([0], [10.0], tuple(sorted((nearest, *farther[1:]))))
        assert again[0] is first[0] and len(scenario.geometry_cache) == size
        assert_beam_equals_reference(again[0], scenario, 0, 10.0, (nearest, *farther))


class TestRunCompare:
    def test_one_scenario_per_replication(self, monkeypatch):
        built = []

        def counting_build(config, seed):
            built.append(seed)
            return build_scenario(config, seed)

        walked = []
        real_walk = scenario_module._waypoint_walk

        def counting_walk(config, seed, start):
            for positions in real_walk(config, seed, start):
                walked.append(seed)
                yield positions

        monkeypatch.setattr(engine, "build_scenario", counting_build)
        monkeypatch.setattr(scenario_module, "_waypoint_walk", counting_walk)
        cfg = small_config("waypoint")
        cfg.run.slots = 2
        cfg.run.replications = 2
        results = engine.run_compare(cfg)
        assert built == [cfg.run.seed, cfg.run.seed + 1]
        # one walk per replication, shared by the five strategies: each
        # yields its two slots once
        assert walked == [cfg.run.seed] * 2 + [cfg.run.seed + 1] * 2
        assert list(results) == list(StrategyId)
        for strategy, result in results.items():
            alone = engine.run_simulation(cfg, strategy)
            assert result.traces == alone.traces
            assert result.summary == alone.summary

    def test_exogenous_inputs_shared_across_strategies(self):
        cfg = small_config("waypoint")
        cfg.run.slots = SLOTS
        results = engine.run_compare(cfg)
        scenarios = {id(r.worlds[0].scenario) for r in results.values()}
        assert len(scenarios) == 1
        shared = results[StrategyId.IBEAMS].worlds[0].scenario
        fresh = build_scenario(cfg, cfg.run.seed)
        for t in range(SLOTS):
            ran = [engine._eve_channels(shared, t), *engine._node_links(shared, t)]
            new = [engine._eve_channels(fresh, t), *engine._node_links(fresh, t)]
            assert [a.tobytes() for a in ran] == [a.tobytes() for a in new], t


def test_world_holds_only_decision_state():
    # a run's state is what its decisions change; anything a decision cannot
    # move belongs on the Scenario
    assert {f.name for f in fields(World)} == {
        "scenario", "posterior", "leader", "roles", "powers", "prev_kpis",
        "jhn_beams", "entropy_ema", "secrecy_ema", "last_field",
        "last_coalitions", "belief_history"}


def test_beliefs_are_writable_row_views_of_the_posterior():
    world = init_scenario(small_config("waypoint"), 1)
    engine.run_slot(world, StrategyId.STACKELBERG_ONLY, 0)
    beliefs = world.beliefs
    assert [b.eve_id for b in beliefs] == [0, 1]
    assert all(b.grid_deg is world.scenario.grid_deg for b in beliefs)
    for b, row in zip(beliefs, world.posterior):
        assert np.shares_memory(b.probs, row) and np.array_equal(b.probs, row)
    beliefs[1].probs[3] = -0.5
    assert world.posterior[1, 3] == -0.5


def reference_node_channels(scn):
    """The static BS->node channels, built afresh one node at a time from
    spawn-key substreams, with one scalar path-loss call per node and the
    BLAS-norm Rician scale (which round differently from the array forms)."""
    channels = []
    for uid, position in enumerate(scn.hn_positions):
        shadow = oracle_substream(scn.seed, STREAM_SHADOW, uid).standard_normal()
        gain = linear_gain(path_loss_db(scn.pl_model, np.linalg.norm(position - scn.bs_center),
                                        shadow))
        los = los_channel(scn.bs_elements, position, gain, scn.bs_spec.wavelength)
        channels.append(oracle_rician_channel(scn.k_lin, los,
                                              oracle_substream(scn.seed, STREAM_HN_NLOS, uid)))
    return np.stack(channels)


def one_node_channel(scn, uid):
    """Node uid's channel from one-row path-loss, LOS and Rician calls."""
    position = scn.hn_positions[uid:uid + 1]
    shadow = substream(scn.seed, STREAM_SHADOW, uid).standard_normal()
    gain = linear_gain(path_loss_db(scn.pl_model,
                                    np.linalg.norm(position - scn.bs_center, axis=-1),
                                    np.array([shadow])))
    los = los_channel(scn.bs_elements, position, gain, scn.bs_spec.wavelength)
    return rician_channel(scn.k_lin, los, [substream(scn.seed, STREAM_HN_NLOS, uid)])[0]


@pytest.mark.parametrize("seed", [1, 2 ** 33 + 5])
def test_node_channels_equal_per_node_builds(seed):
    # each row is its node's one-row build in bytes, and the per-node
    # reference to test_channel.ORACLE_RTOL; so are the channel powers
    scenario = build_scenario(small_config("waypoint"), seed)
    reference = reference_node_channels(scenario)
    for uid, row in enumerate(scenario.hn_channels):
        alone = one_node_channel(scenario, uid)
        assert row.tobytes() == alone.tobytes()
        assert_near_oracle(row, reference[uid])
        norm2 = np.einsum("n,n->", alone.conj(), alone).real
        assert scenario.hn_norm2[uid].tobytes() == norm2.tobytes()
        assert scenario.hn_norm2[uid] == pytest.approx(np.linalg.norm(reference[uid]) ** 2,
                                                       rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 40), e=st.integers(1, 10), seed=SEED_VALUES)
def test_batched_shadows_equal_per_entity_draws(k, e, seed):
    # the shadowing drawn in two batches is the draw each node, eavesdropper
    # and pair gets from its own scalar substream
    cfg = ScenarioConfig()
    cfg.hn.count, cfg.eve.count = k, e
    scn = build_scenario(cfg, seed)
    assert np.array_equal(scn.pair_shadow, reference_pair_shadow(seed, k, e))
    eve = [oracle_substream(seed, STREAM_SHADOW, k + j).standard_normal() for j in range(e)]
    assert scn.eve_shadow.tobytes() == np.array(eve).tobytes()
    for uid, row in enumerate(scn.hn_channels):   # the node shadow sets the gain
        assert row.tobytes() == one_node_channel(scn, uid).tobytes()


def test_setup_seeds_one_substream_per_node_plus_placement(monkeypatch):
    # the shadows come in batches, so at the defaults (no CSI error, static
    # eavesdroppers) only placement and each node's NLOS draw build a generator
    calls = []

    def counted(*args):
        calls.append(args)
        return substream(*args)

    monkeypatch.setattr(scenario_module, "substream", counted)
    cfg = ScenarioConfig()
    assert cfg.channel.csi_error_frobenius == 0.0 and cfg.eve.mobility == "static"
    build_scenario(cfg, 3)
    assert len(calls) == cfg.hn.count + 1


@pytest.mark.parametrize("xy,want", [((100.0, 0.0), 0.0), ((0.0, 40.0), 90.0),
                                     ((-7.0, 0.0), 180.0), ((0.0, -250.0), -90.0)])
def test_bearing_measured_from_the_bs_ground_origin(xy, want):
    # the height is ignored: a target's bearing is that of its ground point
    for z in (0.0, 1.5, 25.0):
        assert bearing_deg(np.array([*xy, z])) == pytest.approx(want, abs=1e-12)


def test_node_bearings_equal_per_slot_recomputation():
    scenario = build_scenario(small_config("static"), 1)
    assert isinstance(scenario.hn_bearing_deg, tuple)
    assert all(type(b) is float for b in scenario.hn_bearing_deg)
    assert scenario.hn_bearing_deg == tuple(bearing_deg(scenario.hn_positions[u])
                                            for u in range(scenario.config.hn.count))


def test_scenario_holds_the_belief_grid_and_the_served_ranking():
    scenario = build_scenario(small_config("static"), 1)
    cfg = scenario.config
    assert np.array_equal(scenario.grid_deg, default_grid(cfg.belief.grid_size))
    assert scenario.hn_rank == tuple(int(u) for u in np.argsort(-scenario.hn_norm2))
    world = start_run(scenario)
    assert world.posterior.shape == (cfg.eve.count, cfg.belief.grid_size)
    assert np.all(world.posterior == 1.0 / cfg.belief.grid_size)
    thn = [u for u, role in world.roles.items() if role.value == "THN"]
    assert thn == list(scenario.hn_rank[: cfg.bs.num_rf])
