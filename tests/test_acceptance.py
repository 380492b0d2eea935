"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS line (pytest -s shows them); failures surface
as ordinary assertions. The heavy shared runs (five seeds x 200 slots per
strategy at the 28 GHz defaults) execute once per session.
"""

import logging
import time

import numpy as np
import pytest

from secure_isac.arrays import ArraySpec, steering_vector
from secure_isac.belief import default_grid, uniform_prior
from secure_isac.belief import entropy as belief_entropy
from secure_isac.channel import noise_power, path_loss_db, PathLossModel
from secure_isac.config import PowerModelConfig, ScenarioConfig, StrategyId
from secure_isac.engine import bearing_deg, init_scenario, run_simulation, run_slot
from secure_isac.followers import FeasibilitySpec
from secure_isac.link import SlotContext, outage_metrics, power_accounting, see

logging.disable(logging.WARNING)

SEEDS = (1, 2, 3, 4, 5)
SLOTS = 200
R_TH = 0.5


def default_config(seed, slots=SLOTS, **kw):
    cfg = ScenarioConfig()
    cfg.run.seed = seed
    cfg.run.slots = slots
    for key, value in kw.items():
        section, field = key.split("__")
        setattr(getattr(cfg, section), field, value)
    return cfg


@pytest.fixture(scope="session")
def suite():
    """Shared 28 GHz default runs for the comparison criteria."""
    runs = {}
    timing = {}
    for strategy in (StrategyId.BASELINE, StrategyId.FIXED_AN,
                     StrategyId.STACKELBERG_ONLY, StrategyId.IBEAMS):
        traces, summaries = [], []
        started = time.monotonic()
        for seed in SEEDS:
            res = run_simulation(default_config(seed), strategy)
            traces.append(res.traces[0])
            summaries.append(res.summary)
        timing[strategy] = time.monotonic() - started
        runs[strategy] = (traces, summaries)
    return runs, timing


def feasible(powers, spec: FeasibilitySpec, ctx: SlotContext):
    """Per profile of a (..., K) block: True iff every box bound, the
    aggregate budget, and every leakage cap hold (closed constraints)."""
    p = np.asarray(powers, dtype=float)
    return spec.admits(p, ctx.leakage_at_served(p))


def report(number, text):
    print(f"PASS criterion {number:2d}: {text}")


class TestAcceptance:
    def test_01_baseline_secrecy_collapse(self):
        started = time.monotonic()
        res = run_simulation(default_config(1), StrategyId.BASELINE)
        elapsed = time.monotonic() - started
        r_bar = res.summary["r_mean_avg"]
        assert r_bar == 0.0, f"baseline time-averaged secrecy {r_bar} != 0"
        assert all(r.r_mean == 0.0 for r in res.traces[0])
        assert elapsed < 30.0, f"baseline run took {elapsed:.1f}s"
        report(1, f"baseline secrecy exactly 0 over {SLOTS} slots "
                  f"({elapsed:.1f}s < 30s)")

    def test_02_zero_outage_ibeams(self, suite):
        runs, _ = suite
        traces, _ = runs[StrategyId.IBEAMS]
        for seed, trace in zip(SEEDS, traces):
            for record in trace:
                assert record.outage == 0.0, \
                    f"seed {seed} slot {record.slot}: outage {record.outage}"
        report(2, f"zero outage in every slot, {len(SEEDS)} seeds x {SLOTS} slots "
                  f"at threshold {R_TH} bps/Hz")

    def test_03_see_ordering_and_ratios(self, suite):
        runs, _ = suite
        sees = {s: float(np.mean([m["see_avg"] for m in runs[s][1]]))
                for s in runs}
        base = sees[StrategyId.BASELINE]
        fixed = sees[StrategyId.FIXED_AN]
        stack = sees[StrategyId.STACKELBERG_ONLY]
        full = sees[StrategyId.IBEAMS]
        assert base == 0.0, f"baseline SEE {base} != 0"
        assert full > stack > fixed > base, f"ordering violated: {sees}"
        assert full / fixed >= 1.5, f"ibeams/fixed_an {full / fixed:.2f} < 1.5"
        assert full / stack >= 1.2, f"ibeams/stackelberg {full / stack:.2f} < 1.2"
        report(3, f"SEE ordering {full:.3f} > {stack:.3f} > {fixed:.3f} > 0, "
                  f"ratios {full / fixed:.1f}x and {full / stack:.1f}x")

    def test_04_secrecy_rate_band(self, suite):
        runs, _ = suite
        _, summaries = runs[StrategyId.IBEAMS]
        r_bar = float(np.mean([m["r_mean_avg"] for m in summaries]))
        assert 3.0 <= r_bar <= 6.5, f"ibeams mean secrecy {r_bar:.2f} outside [3.0, 6.5]"
        note = ""
        if not 4.0 <= r_bar <= 5.2:
            note = " (warning: outside the nominal 4.0-5.2 band)"
        report(4, f"ibeams time-averaged secrecy {r_bar:.2f} bps/Hz in [3.0, 6.5]{note}")

    def test_05_leader_convergence(self, suite):
        runs, _ = suite
        traces, _ = runs[StrategyId.IBEAMS]
        for seed, trace in zip(SEEDS, traces):
            tail = trace[SLOTS - 50:]
            for a, b in zip(tail, tail[1:]):
                assert abs(b.alpha - a.alpha) <= 0.02, f"seed {seed}: dalpha"
                assert abs(b.beta - a.beta) <= 0.02, f"seed {seed}: dbeta"
                assert abs(b.gamma - a.gamma) <= 0.02, f"seed {seed}: dgamma"
            for record in trace:
                assert 0.0 <= record.pi <= 1.0
                assert 0.0 <= record.tau <= 1.0
                assert 0.0 <= record.kappa <= 1.0
        report(5, "leader split changes <= 0.02/slot over the last 50 slots; "
                  "prices inside bounds on all seeds")

    def test_06_gne_certificate(self):
        started = time.monotonic()
        res = run_simulation(default_config(1, slots=100), StrategyId.IBEAMS)
        elapsed = time.monotonic() - started
        for record in res.traces[0]:
            assert record.gne_converged, f"slot {record.slot} not converged"
            assert record.gne_gap <= 1e-3, \
                f"slot {record.slot}: unilateral improvement {record.gne_gap}"
        assert elapsed < 300.0, f"certificate run took {elapsed:.0f}s"
        report(6, f"exhaustive-scan equilibrium gap <= 1e-3 in all 100 slots "
                  f"({elapsed:.0f}s < 5 min)")

    def test_07_bruteforce_equivalence(self):
        from secure_isac.followers import Role, equilibrium_gap, gne_solve
        from secure_isac.leader import Broadcast
        from secure_isac.link import SlotContext
        from secure_isac.refinement import Coalition, coalition_refine

        bc = Broadcast(0.6, 0.2, 0.2, 0.7, 0.3, 0.1)
        rng = np.random.default_rng(77)
        grid = np.linspace(0.0, 1.5, 11)

        # 50 randomized 2-3 node games: the fixed point is a member of the
        # enumerated epsilon-equilibrium set
        for trial in range(50):
            n = int(rng.integers(2, 4))
            n_eve = int(rng.integers(1, 3))
            ctx = SlotContext(
                served=[0],
                sig_w=np.array([rng.uniform(1e-10, 2e-9)]),
                isi_w=np.array([0.0]),
                an_thn_w=np.array([0.0]),
                noise_w=2e-12,
                eve_capture_w=rng.uniform(1e-11, 1e-9, n_eve),
                eve_an_w=rng.uniform(1e-12, 5e-11, n_eve),
                jam_to_eve=rng.uniform(0, 3e-10, (n, n_eve)),
                jam_to_thn=np.concatenate(
                    [np.zeros((1, 1)), rng.uniform(0, 4e-13, (n - 1, 1))]),
                eve_noise_w=0.0, jam_to_hn=None,
            )
            spec = FeasibilitySpec(p_max=1.5, p_fj_max=rng.uniform(1.0, 4.0),
                                   xi_max=rng.uniform(2e-13, 2e-12), grid_points=11)
            roles = [Role.THN] + [Role.JHN] * (n - 1)
            # all players share one power cost, as in the engine; drawing n
            # values keeps the random stream of the later toys unchanged
            cost = rng.uniform(0.2, 0.8, n)[0]
            role_map = {i: roles[i] for i in range(n)}
            result = gne_solve(role_map, np.zeros(n), bc, ctx, spec, 1.0, cost,
                               max_iters=50)
            assert result.converged, f"toy {trial} did not converge"
            # membership in the enumerated epsilon-GNE set: the set is exactly
            # the feasible grid profiles whose exhaustive unilateral-scan gap
            # is ~0, so membership = (on the grid) and (feasible) and (gap ~0)
            for power in result.powers:
                assert np.min(np.abs(grid - power)) <= 1e-15, \
                    f"toy {trial}: off-grid power {power}"
            assert feasible(result.powers, spec, ctx), f"toy {trial}"
            gap = equilibrium_gap(result.powers, bc, ctx, spec, role_map, 1.0, cost,
                                  range(n))
            assert gap <= 1e-9, f"toy {trial}: gap {gap}"

        # 50 randomized 2-jammer refinement instances vs exhaustive enumeration
        flat_gains = {j: np.full(181, 0.5) for j in range(3)}
        uniform_post = np.full(181, 1 / 181)
        for trial in range(50):
            j2e = rng.uniform(0, 2e-10, size=2)
            j2t = rng.uniform(0, 5e-13, size=2)
            xi_max = rng.uniform(1e-13, 1e-12)
            fj = rng.uniform(0.5, 3.0)
            ctx = SlotContext(
                served=[0], sig_w=np.array([1e-9]), isi_w=np.array([0.0]),
                an_thn_w=np.array([0.0]), noise_w=1e-12,
                eve_capture_w=np.array([5e-10]), eve_an_w=np.array([2e-11]),
                jam_to_eve=np.array([[0.0], [j2e[0]], [j2e[1]]]),
                jam_to_thn=np.array([[0.0], [j2t[0]], [j2t[1]]]),
                eve_noise_w=0.0, jam_to_hn=None,
            )
            got = coalition_refine(
                Coalition([1, 2], 0.0), np.zeros(3), ctx,
                FeasibilitySpec(p_max=1.5, p_fj_max=fj, xi_max=xi_max, grid_points=11),
                j_min=0.0, field_gains=flat_gains, posterior_probs=uniform_post,
                rate_floor=0.0, power_penalty_per_w=1e-3)
            combos, vals = [], []
            for a in grid:
                for b in grid:
                    if a + b > fj + 1e-12:
                        continue
                    leak = a * j2t[0] + b * j2t[1]
                    if leak > xi_max * (1 + 1e-9):
                        continue
                    thn = 1e-9 / (1e-12 + leak)
                    eve = 5e-10 / (2e-11 + a * j2e[0] + b * j2e[1])
                    rate = max(0.0, np.log2(1 + thn) - np.log2(1 + eve))
                    combos.append((a, b))
                    vals.append(rate - 1e-3 * (a + b))
            vals = np.array(vals)
            best = combos[int(np.flatnonzero(vals >= vals.max() - 1e-9)[0])]
            assert got[1] == best[0] and got[2] == best[1], f"refine toy {trial}"
        report(7, "GNE fixed points and refined powers match exhaustive "
                  "enumeration on 50+50 randomized toys")

    def test_08_posterior_contraction_and_tracking(self):
        # static single eavesdropper: entropy contracts
        cfg = default_config(1, slots=60, eve__count=1)
        world = init_scenario(cfg, 1)
        entropies = [run_slot(world, StrategyId.IBEAMS, t).entropy_bits
                     for t in range(60)]
        early = float(np.median(entropies[0:10]))
        late = float(np.median(entropies[19:50]))
        assert late < early, f"no contraction: median {late:.2f} !< {early:.2f}"

        # mobile eavesdropper at 1 m/s: argmax within +-10 degrees after slot 15
        cfg = default_config(2, slots=200, eve__count=1,
                             eve__mobility="waypoint", eve__speed_mps=1.0)
        world = init_scenario(cfg, 2)
        hits, total = 0, 0
        for t in range(200):
            run_slot(world, StrategyId.IBEAMS, t)
            if t <= 15:
                continue
            truth = bearing_deg(world.scenario.eve_positions(t)[0])
            est = world.beliefs[0].argmax_deg
            total += 1
            hits += abs(est - truth) <= 10.0
        frac = hits / total
        assert frac >= 0.8, f"tracking fraction {frac:.2f} < 0.8"
        report(8, f"entropy contracts ({early:.2f} -> {late:.2f} bits); mobile "
                  f"tracking within +-10 deg in {100 * frac:.0f}% of slots")

    def test_09_beampattern_nulls(self):
        from secure_isac.refinement import Coalition, aligned_beam, synthesize_field
        spec128 = ArraySpec.half_wavelength(128, 299792458.0 / 28e9)
        grid = default_grid(181)
        steer = steering_vector(spec128, np.radians(grid))
        coalition = Coalition([0], 12.0)
        # the member aims at its target, with nulls along the steering toward
        # the protected bearings
        nulls = steering_vector(spec128, np.radians([[-35.0, 50.0]]))
        synth = synthesize_field([coalition],
                                 lambda members, targets: aligned_beam(
                                     targets, nulls, spec128, steer.conj()))
        field_w = synth.gain_rows[0]  # the field at unit power
        peak = field_w.max()
        for angle in (-35.0, 50.0):
            idx = int(np.argmin(np.abs(grid - angle)))
            depth_db = 10 * np.log10(max(field_w[idx], 1e-30) / peak)
            assert depth_db <= -25.0, f"null at {angle} deg only {depth_db:.1f} dB"
        report(9, "protected bearings suppressed by more than 25 dB below the "
                  "field peak at N=128")

    def test_10_invariant_suite(self, suite):
        runs, _ = suite
        traces, _ = runs[StrategyId.IBEAMS]
        cfg = default_config(1)
        noise = noise_power(cfg.noise.psd_dbm_per_hz, cfg.carrier.bandwidth_hz,
                            cfg.noise.noise_figure_db)
        for trace in traces:
            for r in trace:
                assert abs(r.alpha + r.beta + r.gamma - 1.0) <= 1e-9
                assert all(v >= 0.0 for v in r.rates.values())
                assert r.hn_power_sum_w <= cfg.followers.p_fj_max_w + 1e-9
                assert max(r.powers.values()) <= cfg.hn.p_max_w + 1e-12
                assert 0.0 <= r.outage <= 1.0
        # per-slot leakage caps, belief normalization, AN invisibility, and
        # refinement monotonicity are checked inside the engine on every
        # slot of every run in this session
        report(10, "simplex, power boxes, budget caps, nonnegative rates, and "
                   "in-engine invariants held on every slot")

    def test_11_determinism(self, tmp_path):
        from secure_isac.cli import main
        cfg_text = "[run]\nslots = 50\nseed = 3\n"
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            (d / "cfg.ini").write_text(cfg_text)
            code = main(["--config", str(d / "cfg.ini"), "--strategy", "ibeams",
                         "--out", str(d / "out"), "--emit", "trace"])
            assert code == 0
        one = (tmp_path / "a" / "out" / "trace_ibeams.csv").read_bytes()
        two = (tmp_path / "b" / "out" / "trace_ibeams.csv").read_bytes()
        assert one == two
        report(11, "byte-identical trace files from identical "
                   "(config, seed, strategy)")

    def test_12_formula_units(self):
        rel = 1e-9
        assert noise_power(-174.0, 1e8, 7.0) == \
            pytest.approx(1.9952623149688827e-12, rel=rel)
        model = PathLossModel(61.4, 2.2, 3.0)
        assert path_loss_db(model, 100.0, 0.0) == pytest.approx(105.4, rel=rel)
        # one served stream at SINR 10^1.5 against an interceptor at 10^0.5
        ctx = SlotContext(
            served=[0], sig_w=np.array([10 ** 1.5]), isi_w=np.zeros(1),
            an_thn_w=np.zeros(1), noise_w=1.0, eve_capture_w=np.array([10 ** 0.5]),
            eve_an_w=np.zeros(1), jam_to_eve=np.zeros((1, 1)),
            jam_to_thn=np.zeros((1, 1)), eve_noise_w=1.0, jam_to_hn=None)
        assert ctx.rates(np.zeros(1))[0] == \
            pytest.approx(2.9704344647437244, rel=rel)
        power = PowerModelConfig(p_rf_w=0.25, p_bb_w=1.0, pa_efficiency=0.4)
        _, slot_power = power_accounting(15.0, [1.0, 1.0, 1.0], 4, power)
        assert slot_power == pytest.approx(47.0, rel=rel)
        assert see(4.5, 9.0) == pytest.approx(0.5, rel=rel)
        probs = np.zeros((2, 181))
        probs[0, :3] = (0.5, 0.25, 0.25)
        probs[1] = uniform_prior(181).probs
        assert belief_entropy(probs).tolist() == [
            pytest.approx(1.5, rel=rel), pytest.approx(7.499845887083206, rel=rel)]
        r_min, r_mean, out = outage_metrics([0.2, 1.0, 3.0], 0.5)
        assert (r_min, r_mean, out) == (pytest.approx(0.2), pytest.approx(1.4),
                                        pytest.approx(1.0 / 3.0))
        report(12, "noise, path-loss, secrecy, power, SEE, entropy, and outage "
                   "formulas reproduce their reference values to 1e-9")
