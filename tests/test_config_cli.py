import hashlib
import json
import os

import numpy as np
import pytest

from secure_isac.arrays import beampattern_db, sensing_beam
from secure_isac.cli import (
    TRACE_COLUMNS,
    build_manifest,
    emit_plot_data,
    main,
    read_trace,
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


class TestManifest:
    def test_power_round_trips_to_dbm(self):
        manifest = build_manifest(ScenarioConfig(), StrategyId.IBEAMS, [], 0.1)
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


class TestGneToleranceRule:
    """gne.tolerance is gone: a sweep has converged when it moved no node.
    A config that still sets it is rejected as an unknown key."""

    def test_cli_exit_code(self, tmp_path):
        cfg = tmp_path / "coarse_tolerance.ini"
        cfg.write_text("[gne]\ntolerance = 0.5\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


# `--compare --slots 4 --replications 2` at the defaults, pinned while every
# strategy still built its own scenario per replication
COMPARE_DIGESTS = {
    "summary_compare.tsv":
        "aa38fcdfb298ce87ebd7027fb89072b9c068a584c33ee6995aa650e551004179",
    "trace_baseline.csv":
        "3ee2f630fa101ae777c8c6d0b0aec5e6700bff0635a800cf627d5439de4275e4",
    "trace_fixed_an.csv":
        "0ba90348aad8959db089aac84c48a98b61fdafb2b35b8dc9d320ff69b2425b27",
    "trace_stackelberg_only.csv":
        "a9e91eeddf20486c307ac3260ac148c2a7c59fc523affc6f084a2c92051f5d57",
    "trace_stackelberg_roleswitch.csv":
        "937ac44dbcec68b336112c882f651750e795b3bdb899477a6b273f470e020969",
    "trace_ibeams.csv":
        "5d43c6018912871bb25a4354e78ac5755e889f6042173cb58603d42aad6620ae",
}


class TestCompareOutputs:
    FLAGS = ["--slots", "4", "--replications", "2",
             "--emit", "trace,summary,beliefs,beampattern,field"]

    def test_shared_scenarios_keep_bytes_and_write_each_file_once(self, tmp_path):
        compare, alone = tmp_path / "compare", tmp_path / "ibeams"
        assert main(["--compare", "--out", str(compare), *self.FLAGS]) == 0
        assert main(["--strategy", "ibeams", "--out", str(alone), *self.FLAGS]) == 0
        for name, digest in COMPARE_DIGESTS.items():
            assert hashlib.sha256((compare / name).read_bytes()).hexdigest() == digest, name
        outputs = json.loads((compare / "manifest.json").read_text())["outputs"]
        assert len(outputs) == len(set(outputs)) == 13
        plots = [os.path.basename(p) for p in outputs
                 if not p.endswith((".csv", ".tsv"))]
        assert len(plots) == 7    # four belief maps, field, coalitions, pattern
        for name in plots:
            assert (compare / name).read_bytes() == (alone / name).read_bytes(), name


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

        world.roles[top] = Role.THN     # its jamming beam is now stale
        assert np.array_equal(emitted(), pattern(runner_up))

        for u in owners:
            world.roles[u] = Role.THN
        sensing = sensing_beam(spec, 0.5, np.radians(world.beliefs[0].argmax_deg))
        assert np.array_equal(emitted(), beampattern_db(sensing, spec, angles))
