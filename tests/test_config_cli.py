import hashlib
import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from golden import compare_golden, divergence, sha256
from secure_isac.arrays import beampattern_db, sensing_beam
from secure_isac.cli import (
    TRACE_COLUMNS,
    build_manifest,
    emit_plot_data,
    main,
    write_trace,
)
from secure_isac.config import (
    ConfigError,
    ScenarioConfig,
    StrategyId,
    config_from_dict,
    config_hash,
    parse_config,
    serialize_config,
)
from secure_isac.engine import run_simulation
from secure_isac.followers import Role


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_trace(path: str):
    """Re-parse a trace CSV into per-column lists (floats/ints restored)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    ints = {"slot", "gne_iters", "n_thn", "n_jhn", "refine_iters"}
    out = {col: [] for col in header}
    for row in rows:
        for col, cell in zip(header, row):
            out[col].append(int(cell) if col in ints else float(cell))
    return out


# (sha256 of serialize_config, config_hash) of the defaults and each shipped
# config
CANONICAL_DIGESTS = {
    "defaults": (
        "908d4260e9455ce1bd15b05694ef610bab154e4053d26e8d4738e3bb28ce1456",
        "29daf96ddb22d44c3d81fad968c97edce8c551b835166f6e475d8df26c247ed5"),
    "beampattern_field.ini": (
        "69277b5b9d6e0d0db59bfdef4c46fc6f6b6792dab0b344bf96966d3cc6195a36",
        "2cfdfcde1055971116bc1297d86143b64df2170f85cd3bd4a1d253c45e6db726"),
    "compare_28ghz.ini": (
        "06d8f7950b7e5cf9bd6747afe405c0fcc46b226d0a4def61de27bd386f92e2a7",
        "66d79c9c93b6effa3040657065b0fd3633e1217054b1a17b6e34b6e8f0371061"),
    "convergence_28ghz.ini": (
        "908d4260e9455ce1bd15b05694ef610bab154e4053d26e8d4738e3bb28ce1456",
        "29daf96ddb22d44c3d81fad968c97edce8c551b835166f6e475d8df26c247ed5"),
    "posterior_mobile.ini": (
        "1eeab99c4e39349edebf5b0784e8892b8861a5a8838a69ed2026a5673eab060e",
        "dd20503c06a428e89d133c3d96adde98ac4402444dd5474bb93044c527f7666a"),
    "posterior_static.ini": (
        "4026f651356ea9dc06f4cbaae9d988779c9448f177a817aee05db69077b670d5",
        "4cfa9f6cf2b65ca24d016b3f206fcfaae393bed35954b94a1bf5ef6a6e2b1525"),
}


def small_config_text(extra=""):
    return (
        "[hn]\ncount = 6\n\n"
        "[eve]\ncount = 2\n\n"
        "[run]\nslots = 3\nreplications = 1\nseed = 7\n"
        + extra
    )


class TestConfigParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        config = parse_config(str(path))
        assert config == ScenarioConfig()

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(small_config_text())
        config = parse_config(str(path))
        assert config.hn.count == 6
        assert config.eve.count == 2
        assert config.run.slots == 3
        assert config.bs.antennas == 128  # untouched default

    def test_invalid_value_names_field(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[gne]\nmax_iters = 0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert any("gne.max_iters" in e for e in err.value.errors)

    def test_unknown_key_rejected(self):
        # bs.x_m / bs.y_m were removed: they moved the channels but not the
        # bearings, node placement or mobility disc
        for key in ("warp_drive", "x_m", "y_m"):
            with pytest.raises(ConfigError) as err:
                config_from_dict({"bs": {key: "1"}})
            assert any(f"bs.{key}" in e for e in err.value.errors)
        # gne.tolerance was removed: a converged sweep is one that moved no node
        with pytest.raises(ConfigError) as err:
            config_from_dict({"gne": {"tolerance": "1e-3"}})
        assert any("gne.tolerance" in e for e in err.value.errors)

    @pytest.mark.parametrize("key", ["k_tau", "tau_min", "tau_max", "xi_target_scale",
                                     "k_kappa", "kappa_min", "kappa_max"])
    def test_removed_price_law_key_rejected(self, key):
        # the tau and kappa price laws were removed: the leader adapts only pi
        with pytest.raises(ConfigError) as err:
            config_from_dict({"leader": {key: "0.5"}})
        assert err.value.errors == [f"leader.{key}: unknown key"]

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"quantum": {"x": "1"}})
        assert any("quantum" in e for e in err.value.errors)

    def test_all_violations_listed_at_once(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"followers": {"grid_points": "1"},
                              "gne": {"max_iters": "0"}, "run": {"slots": "0"}})
        joined = "\n".join(err.value.errors)
        assert "followers.grid_points" in joined
        assert "gne.max_iters" in joined
        assert "run.slots" in joined

    def test_round_trip(self, tmp_path):
        config = ScenarioConfig()
        config.run.slots = 42
        config.carrier.frequency_hz = 5e11
        config.eve.mobility = "waypoint"
        path = tmp_path / "rt.ini"
        path.write_text(serialize_config(config))
        assert parse_config(str(path)) == config

    def test_hash_stable_and_sensitive(self):
        a, b = ScenarioConfig(), ScenarioConfig()
        assert config_hash(a) == config_hash(b)
        b.run.seed = 999
        assert config_hash(a) != config_hash(b)

    def test_unparsable_number_reported(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"run": {"slots": "many"}})
        assert any("run.slots" in e for e in err.value.errors)

    @pytest.mark.parametrize("raw", [2.7, True, [3]],
                             ids=["fractional_float", "bool", "list"])
    def test_bad_non_string_value_reported(self, raw):
        # an int field must not truncate 2.7, keep a bool, or raise a bare
        # TypeError on a list
        with pytest.raises(ConfigError) as err:
            config_from_dict({"hn": {"count": raw}})
        assert any("hn.count" in e for e in err.value.errors)

    def test_exact_non_string_numbers_accepted(self):
        cfg = config_from_dict({"hn": {"count": 4.0}, "run": {"seed": np.int64(3),
                                                              "outage_threshold": 0}})
        assert cfg.hn.count == 4 and type(cfg.hn.count) is int
        assert cfg.run.seed == 3 and type(cfg.run.seed) is int
        assert cfg.run.outage_threshold == 0.0 and type(cfg.run.outage_threshold) is float


def knobs():
    """(section name, dataclass field) of every knob of every config section."""
    for section in fields(ScenarioConfig):
        for f in fields(section.default_factory):
            yield section.name, f


def out_of_range_cases():
    """(dotted path, value) pairs that every knob's declared range rejects:
    nan and +-inf for each float, a value past each finite bound for each
    number, and an unknown choice for each string knob."""
    cases = []
    for section, f in knobs():
        if "range" not in f.metadata:
            continue    # test_every_knob_declares_its_range reports it
        path = f"{section}.{f.name}"
        lo, lo_open, hi, choices = f.metadata["range"]
        if choices is not None:
            cases.append((path, "teleport"))
            continue
        if isinstance(f.default, float):
            cases += [(path, math.nan), (path, math.inf), (path, -math.inf)]
        if lo > -math.inf:
            cases.append((path, lo if lo_open else lo - 1))
        if hi < math.inf:
            cases.append((path, hi + 1))
    return cases


class TestDeclaredRanges:
    def test_every_knob_declares_its_range(self):
        missing = [f"{s}.{f.name}" for s, f in knobs() if "range" not in f.metadata]
        assert missing == []

    @pytest.mark.parametrize("path,value", out_of_range_cases())
    def test_out_of_range_value_names_field(self, path, value):
        section, key = path.split(".")
        with pytest.raises(ConfigError) as err:
            config_from_dict({section: {key: value}})
        assert any(e.startswith(f"{path}: ") for e in err.value.errors)

    # tau and kappa are fixed announcements: a declared range, no cross-field rule
    @pytest.mark.parametrize("key", ["tau_init", "kappa_init"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_fixed_price_outside_unit_interval_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"leader": {key: value}})
        assert err.value.errors == [f"leader.{key}: must be in [0, 1]"]

    @pytest.mark.parametrize("key", ["tau_init", "kappa_init"])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_fixed_price_accepts_its_bounds(self, key, value):
        assert getattr(config_from_dict({"leader": {key: value}}).leader, key) == value

    def test_defaults_and_shipped_configs_lie_in_range(self):
        ScenarioConfig().validate()
        for path in sorted(CONFIGS.glob("*.ini")):
            parse_config(str(path)).validate()

    def test_canonical_config_bytes_pinned(self):
        # sha256 of serialize_config and config_hash; the range metadata on
        # each field must not reach the canonical form
        configs = {"defaults": ScenarioConfig()}
        configs.update((p.name, parse_config(str(p))) for p in CONFIGS.glob("*.ini"))
        assert sorted(configs) == sorted(CANONICAL_DIGESTS)
        for name, config in configs.items():
            serialized = hashlib.sha256(serialize_config(config).encode()).hexdigest()
            assert (serialized, config_hash(config)) == CANONICAL_DIGESTS[name], name


class TestManifest:
    def test_power_round_trips_to_dbm(self):
        manifest = build_manifest(ScenarioConfig(), StrategyId.IBEAMS, [], 0.1, False)
        assert manifest["bs_p_max_dbm"] == pytest.approx(43.0103, abs=1e-4)
        assert manifest["bs_p_init_dbm"] == pytest.approx(41.7609, abs=1e-4)
        assert manifest["hn_p_max_dbm"] == pytest.approx(31.7609, abs=1e-4)
        assert len(manifest["config_hash"]) == 64


def run_cli(tmp_path, *extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(small_config_text())
    argv = ["--config", str(cfg), "--out", str(out), *extra]
    return main(argv), out


class TestCliRun:
    def test_exit_zero_and_artifacts(self, tmp_path):
        code, out = run_cli(tmp_path, "--strategy", "fixed_an",
                            "--emit", "trace,summary,beliefs,beampattern,field")
        assert code == 0
        assert (out / "trace_fixed_an.csv").exists()
        assert (out / "summary_fixed_an.tsv").exists()
        assert (out / "beliefs_eve0.txt").exists()
        assert (out / "beampattern.txt").exists()
        assert (out / "jamming_field.txt").exists()
        assert (out / "manifest.json").exists()

    def test_trace_format_and_round_trip(self, tmp_path):
        code, out = run_cli(tmp_path, "--strategy", "fixed_an", "--slots", "1")
        assert code == 0
        path = out / "trace_fixed_an.csv"
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2  # header + one slot
        assert lines[0].split(",") == TRACE_COLUMNS
        assert len(lines[1].split(",")) == 21
        parsed = read_trace(str(path))
        assert parsed["slot"] == [0]
        assert parsed["alpha"][0] == pytest.approx(0.6)

    def test_trace_round_trip_is_exact(self, tmp_path):
        from secure_isac.engine import run_simulation
        from secure_isac.config import ScenarioConfig
        cfg = ScenarioConfig()
        cfg.hn.count = 6
        cfg.eve.count = 2
        cfg.run.slots = 3
        result = run_simulation(cfg, StrategyId.IBEAMS)
        path = tmp_path / "t.csv"
        write_trace(result.traces[0], str(path))
        parsed = read_trace(str(path))
        for col in TRACE_COLUMNS:
            for rec, got in zip(result.traces[0], parsed[col]):
                assert got == getattr(rec, col)  # exact IEEE round trip

    def test_deterministic_outputs(self, tmp_path):
        code1, out1 = run_cli(tmp_path / "a", "--strategy", "ibeams",
                              "--emit", "trace,summary,beliefs,field")
        code2, out2 = run_cli(tmp_path / "b", "--strategy", "ibeams",
                              "--emit", "trace,summary,beliefs,field")
        assert code1 == code2 == 0
        for name in ("trace_ibeams.csv", "summary_ibeams.tsv",
                     "beliefs_eve0.txt", "jamming_field.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_compare_writes_five_rows(self, tmp_path):
        code, out = run_cli(tmp_path, "--compare", "--slots", "2")
        assert code == 0
        lines = (out / "summary_compare.tsv").read_text().strip().split("\n")
        assert len(lines) == 6  # header + five strategies
        strategies = [line.split("\t")[0] for line in lines[1:]]
        assert strategies == [s.value for s in StrategyId]

    def test_validation_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[gne]\nmax_iters = 0\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_out_naming_a_file_exit_code(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["--out", str(taken), "--slots", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err

    def test_unknown_emit_exit_code(self, tmp_path):
        assert main(["--emit", "sparkles", "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_uses_defaults(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--out", str(out), "--strategy", "baseline", "--slots", "1",
                     "--emit", "summary"])
        assert code == 0
        assert (out / "summary_baseline.tsv").exists()

    def test_heatmap_rows_normalized(self, tmp_path):
        code, out = run_cli(tmp_path, "--strategy", "ibeams", "--emit", "beliefs")
        assert code == 0
        lines = (out / "beliefs_eve0.txt").read_text().strip().split("\n")
        data_rows = [np.array([float(x) for x in line.split()])
                     for line in lines[2:]]
        assert len(data_rows) == 3
        for row in data_rows:
            assert row.shape[0] == 181
            assert row.sum() == pytest.approx(1.0, abs=1e-6)

    def test_beampattern_peak_zero_db(self, tmp_path):
        code, out = run_cli(tmp_path, "--strategy", "ibeams", "--emit", "beampattern")
        assert code == 0
        lines = (out / "beampattern.txt").read_text().strip().split("\n")[1:]
        gains = np.array([float(line.split()[1]) for line in lines])
        assert gains.max() == pytest.approx(0.0, abs=1e-9)


class TestNullspaceRule:
    """The served streams must leave the base station a nullspace for AN."""

    def test_as_many_streams_as_antennas_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"bs": {"antennas": "8", "num_rf": "8"}})
        assert any(e.startswith("bs.num_rf:") and "bs.antennas" in e
                   for e in err.value.errors)

    def test_fewer_nodes_than_antennas_accepted(self):
        cfg = config_from_dict({"bs": {"antennas": "8", "num_rf": "8"},
                                "hn": {"count": "3"}, "run": {"slots": "3"}})
        for strategy in StrategyId:
            assert len(run_simulation(cfg, strategy).traces[0]) == 3

    def test_cli_exit_code(self, tmp_path):
        cfg = tmp_path / "full_rank.ini"
        cfg.write_text("[bs]\nantennas = 8\nnum_rf = 8\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestCrossFieldRules:
    """Each hand-written rule of ScenarioConfig.validate, reported at its
    field with its message."""

    @pytest.mark.parametrize("data,error", [
        ({"bs": {"num_rf": 3}}, "bs.num_rf: must divide bs.antennas (128)"),
        ({"bs": {"p_init_w": 25}}, "bs.p_init_w: must be <= bs.p_max_w (20.0)"),
        ({"leader": {"alpha_init": 0.5}}, "leader.alpha_init: initial split must sum to 1"),
        ({"leader": {"gamma_min": 0.3}}, "leader.gamma_min: must be < gamma_max"),
        ({"leader": {"beta_min": 0.4}}, "leader.beta_min: must be <= beta_max"),
        ({"leader": {"pi_init": 1.5}}, "leader.pi_init: must lie in [0.0, 1.0]"),
        ({"belief": {"sigma_min_deg": 50}},
         "belief.sigma_min_deg: must be <= sigma_max_deg"),
        ({"run": {"min_node_distance_m": 150}},
         "run.cell_radius_m: must exceed min_node_distance_m (150.0)"),
        ({"followers": {"xi_max_scale": 1e-310}, "noise": {"psd_dbm_per_hz": -200}},
         "followers.xi_max_scale: leakage cap (times the noise power) must be > 0 W"),
    ])
    def test_rule_names_field_and_message(self, data, error):
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert err.value.errors == [error]


class TestNonFiniteAndOutOfRangeCli:
    """Values that once ran to exit 0 or crashed with exit 3 are rejected
    with exit 2, naming the field."""

    @pytest.mark.parametrize("text,path,extra", [
        ("[eve]\nheight_m = nan\n", "eve.height_m", []),
        ("[carrier]\nfrequency_hz = inf\n", "carrier.frequency_hz", []),
        ("[channel]\nrician_k_db = 4000\n", "channel.rician_k_db", []),
        ("[noise]\nnoise_figure_db = inf\n", "noise.noise_figure_db", []),
        # sums to 1, but with a negative AN share
        ("[leader]\nalpha_init = 1.2\nbeta_init = -0.4\n", "leader.beta_init",
         ["--strategy", "fixed_an"]),
        # passes every range, but the leakage cap underflows to 0 W
        ("[followers]\nxi_max_scale = 1e-310\n[noise]\npsd_dbm_per_hz = -200\n",
         "followers.xi_max_scale", []),
    ], ids=["eve_height_nan", "carrier_frequency_inf", "rician_k_4000",
            "noise_figure_inf", "negative_an_share",
            "leakage_cap_underflow"])
    def test_cli_exit_code(self, tmp_path, capsys, text, path, extra):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        argv = ["--config", str(cfg), "--out", str(tmp_path / "o"), "--slots", "2"]
        assert main(argv + extra) == 2
        assert f"error: {path}: " in capsys.readouterr().err


class TestPhysicalKnobBoundsCli:
    """Finite but absurd physical values once overflowed (exit 0 after a
    numpy warning) or crashed (exit 3). They are rejected with exit 2, naming
    the field, and each declared bound itself runs cleanly."""

    @staticmethod
    def run_two_slots(tmp_path, path, value) -> int:
        section, key = path.split(".")
        cfg = tmp_path / "knob.ini"
        cfg.write_text(f"[{section}]\n{key} = {value!r}\n")
        return main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--slots", "2"])

    @pytest.mark.parametrize("path,value", [
        ("carrier.frequency_hz", 1e300), ("channel.path_loss_exponent", 1e6),
        ("channel.shadow_sigma_db", 1e6), ("noise.noise_figure_db", 1e6),
        ("noise.psd_dbm_per_hz", 1e6), ("noise.psd_dbm_per_hz", -1e6),
        ("run.cell_radius_m", 1e300), ("bs.z_m", 1e300)])
    def test_absurd_value_exit_code(self, tmp_path, capsys, path, value):
        assert self.run_two_slots(tmp_path, path, value) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [
        ("carrier.frequency_hz", 1e9), ("carrier.frequency_hz", 1e13),
        ("carrier.bandwidth_hz", 1e3), ("carrier.bandwidth_hz", 1e11),
        ("channel.path_loss_exponent", 6.0), ("channel.shadow_sigma_db", 20.0),
        ("noise.noise_figure_db", 30.0), ("noise.psd_dbm_per_hz", -200.0),
        ("noise.psd_dbm_per_hz", -100.0), ("run.cell_radius_m", 1000.0),
        ("bs.z_m", 100.0), ("hn.height_m", 100.0), ("eve.height_m", 100.0)])
    def test_bound_value_runs(self, tmp_path, path, value):
        assert self.run_two_slots(tmp_path, path, value) == 0


class TestGneToleranceRule:
    """gne.tolerance is gone: a sweep has converged when it moved no node.
    A config that still sets it is rejected as an unknown key."""

    def test_cli_exit_code(self, tmp_path):
        cfg = tmp_path / "coarse_tolerance.ini"
        cfg.write_text("[gne]\ntolerance = 0.5\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


# `--compare --slots 4 --replications 2` at the defaults, every emit kind; the
# plot files come from the ibeams run
COMPARE_DIGESTS = {
    "summary_compare.tsv":
        "304b8e385948e8c9db724d15dbc97b56c43c15b5fd1cf221567421b4a49e7b06",
    "trace_baseline.csv":
        "3ee2f630fa101ae777c8c6d0b0aec5e6700bff0635a800cf627d5439de4275e4",
    "trace_fixed_an.csv":
        "dd9cd3cb22433386c65ed110ee89a4c59e364c47fccac31bced60635497bbc80",
    "trace_stackelberg_only.csv":
        "00b73e66a2a0d2371c71bcc9208e4baa50d60148b4bdf400cb8a797846149b7b",
    "trace_stackelberg_roleswitch.csv":
        "22a480db0fd231e3cdb4d877350b6f5d800706a7aab73082e26f4d09eb933935",
    "trace_ibeams.csv":
        "f33c32c220cc79ac879e5b45672872b272ab1afd0f0bb0940579acdaed9c14e5",
    "beliefs_eve0.txt":
        "3b555624d6315e9e2f95931c1a3f5be77f99351baa32c3e6805f2ed87aa3849c",
    "beliefs_eve1.txt":
        "531306724b2084e761beb7919e2cd56b419564adad3512ae4546bda31e519bd4",
    "beliefs_eve2.txt":
        "4282f9a86991051663798b2a57bf343b01f8d13c94223233cf16faf815bb6430",
    "beliefs_eve3.txt":
        "f90cdb19d514a92bd7898501c22975542798ac69a2336e5a196df2d93d981295",
    "beampattern.txt":
        "a7c1b8ac50923e6bd15ae59643b83381b064bb1dc22dc5fb78c685469c981b17",
    "jamming_field.txt":
        "af8336ae3c43ede1158304b34cf5a7d74d56d9a0cf23391c51f3e8e261bd07de",
    "coalitions.txt":
        "448f14df05086f1cbe2c9407a66c79c24e791078928b4e472a035e93092026c2",
}


class TestCompareOutputs:
    FLAGS = ["--slots", "4", "--replications", "2",
             "--emit", "trace,summary,beliefs,beampattern,field"]

    def test_shared_scenarios_keep_bytes_and_write_each_file_once(self, tmp_path):
        compare, alone = tmp_path / "compare", tmp_path / "ibeams"
        assert main(["--compare", "--out", str(compare), *self.FLAGS]) == 0
        assert main(["--strategy", "ibeams", "--out", str(alone), *self.FLAGS]) == 0
        for name, digest in COMPARE_DIGESTS.items():
            data = (compare / name).read_bytes()
            assert sha256(data) == digest, f"{name}: " + divergence(
                compare_golden(name).read_bytes(), data).describe()
        outputs = json.loads((compare / "manifest.json").read_text())["outputs"]
        assert len(outputs) == len(set(outputs)) == 13
        plots = [os.path.basename(p) for p in outputs
                 if not p.endswith((".csv", ".tsv"))]
        assert len(plots) == 7    # four belief maps, field, coalitions, pattern
        for name in plots:
            assert (compare / name).read_bytes() == (alone / name).read_bytes(), name


    @pytest.mark.parametrize("name", sorted(COMPARE_DIGESTS))
    def test_golden_file_hashes_to_its_pin(self, name):
        # tests/golden/compare/ holds the file behind each pin (golden.py)
        assert sha256(compare_golden(name).read_bytes()) == COMPARE_DIGESTS[name]


class TestBeampatternSource:
    def test_only_current_jammers_are_drawn(self, tmp_path):
        cfg = ScenarioConfig()
        cfg.run.slots = 6
        result = run_simulation(cfg, StrategyId.IBEAMS)
        world = result.worlds[0]
        angles = np.radians(world.beliefs[0].grid_deg)
        spec = world.scenario.hn_spec

        def emitted():
            emit_plot_data(result, str(tmp_path), ["beampattern"])
            rows = (tmp_path / "beampattern.txt").read_text().strip().split("\n")[1:]
            return np.array([float(row.split()[1]) for row in rows])

        def pattern(u):
            return beampattern_db(world.jhn_beams[u], spec, angles)

        owners = list(world.jhn_beams)
        top = max(owners, key=lambda u: world.powers[u])
        runner_up = max((u for u in owners if u != top), key=lambda u: world.powers[u])
        assert world.roles[top] is Role.JHN and world.roles[runner_up] is Role.JHN
        assert np.array_equal(emitted(), pattern(top))
        assert not np.array_equal(pattern(top), pattern(runner_up))

        # a node that stops jamming drops its beam (engine._finalize_slot)
        world.roles[top] = Role.THN
        del world.jhn_beams[top]
        assert np.array_equal(emitted(), pattern(runner_up))

        for u in owners:
            world.roles[u] = Role.THN
        world.jhn_beams.clear()
        sensing = sensing_beam(spec, 0.5, np.radians(world.beliefs[0].argmax_deg))
        assert np.array_equal(emitted(), beampattern_db(sensing, spec, angles))
