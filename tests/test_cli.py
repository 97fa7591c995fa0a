"""Command-line entry points."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dalopt.almethods import VARIANTS
from dalopt.cli import main
from dalopt.harness import _REQUIRED, _VALUES
from dalopt.network import (build_chain_graph, build_complete_graph, build_network,
                            save_network)
from dalopt.theory import RECIPES


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "network": {"type": "complete", "n": 2},
        "objective": {"type": "quadratic", "d": 2, "seed": 1, "h_lo": 1.0, "h_hi": 2.0},
        "algorithms": [{"recipe": "section4_jacobi"}],
        "k_max": 10,
        "epsilon": 1e-10,
        "output_dir": str(tmp_path / "out"),
    }))
    return path


class TestRun:
    def test_success(self, tiny_config, tmp_path, capsys):
        assert main(["run", str(tiny_config)]) == 0
        assert (tmp_path / "out" / "trace_section4_jacobi.csv").exists()
        assert "experiment complete" in capsys.readouterr().out

    def test_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert "error [config]" in err

    def test_bad_algorithm_entry(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "network": {"type": "complete", "n": 2},
            "objective": {"type": "quadratic", "d": 2},
            "algorithms": [{"recipe": "wat"}],
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", str(path)]) == 1
        assert "error [config]" in capsys.readouterr().err

    def test_output_dir_under_a_file(self, tiny_config, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        doc = json.loads(tiny_config.read_text())
        tiny_config.write_text(json.dumps(dict(doc, output_dir=str(tmp_path / "file" / "out"))))
        assert main(["run", str(tiny_config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [output]")
        assert "Traceback" not in err

    def test_output_dir_holding_another_configs_traces(self, tiny_config, tmp_path, capsys):
        # the plots draw every trace in the directory, so a second config
        # may not share it; the first run's files stay as they were
        assert main(["run", str(tiny_config)]) == 0
        out = tmp_path / "out"
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
        other = tmp_path / "other.json"
        doc = json.loads(tiny_config.read_text())
        other.write_text(json.dumps(dict(doc, algorithms=[{"recipe": "section4_jacobi",
                                                           "label": "only"}])))
        assert main(["run", str(other)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [output]")
        assert str(out / "trace_section4_jacobi.csv") in err
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before
        assert main(["run", str(tiny_config)]) == 0


class TestCertify:
    def test_prints_reports(self, tiny_config, capsys):
        assert main(["certify", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        assert "rate certificate" in out
        assert "section4_jacobi" in out
        assert "r " in out or "r  " in out


BAD_VALUES = {"string": "a", "negative": -1, "fraction": 1.5, "true": True,
              "inf": float("inf"), "nan": float("nan")}


class TestBadConfig:
    """run and certify build the problem in one stage and fail alike."""

    @pytest.mark.parametrize("command", ["run", "certify"])
    @pytest.mark.parametrize("change, stage, names", [
        ({"objective": {"type": "quadratic", "d": 2, "n": 5}}, "objective", "node count"),
        ({"algorithms": [{"recipe": "section4_jacobi", "label": "a"},
                         {"recipe": "section5_jacobi", "label": "a"}]}, "config",
         "duplicate algorithm labels"),
        ({"algorithms": [{"variant": "nope", "alpha": 1.0, "rho": 1.0, "tau": 1}]},
         "config", "nope"),
        ({"algorithms": [{"recipe": "section5_gradient", "beta": 100, "label": "steep"}]},
         "{command}:steep", "beta"),
        # below 1/h_min, so the certificate's formulas hold, but above 1/(h_max+rho)
        ({"algorithms": [{"recipe": "section5_gradient", "beta": 0.6, "label": "mild"}]},
         "{command}:mild", "beta"),
        # a change that is not an object is the whole config document
        (5, "config", "top level"),
        (None, "config", "top level"),
        ([["network", 1]], "config", "top level"),
        ({"output_dir": 5}, "config", "output_dir"),
        ({"stop_rel_cost": -1}, "config", "stop_rel_cost"),
        ({"stop_rel_cost": float("inf")}, "config", "stop_rel_cost"),
        ({"stop_rel_cost": "x"}, "config", "stop_rel_cost"),
        ({"algorithms": []}, "config", "algorithms"),
        ({"algorithms": [{"recipe": "section4_jacobi", "label": "a/b"}]}, "config",
         "algorithms[0].label"),
        ({"network": {"type": "chain", "n": "3"}}, "config", "network.n must be"),
        ({"network": {"type": "chain", "n": 2.5}}, "config", "network.n must be"),
        ({"network": {"type": "ring", "n": 3}}, "config", "network.type must be"),
        ({"objective": {"type": "quadratic", "d": 0}}, "config", "objective.d must be"),
        ({"objective": {"type": "quadratic", "d": 2, "h_lo": 3, "h_hi": 1}}, "config",
         "objective.h_lo must be <= objective.h_hi"),
        ({"network": {"type": "chain", "n": 1}}, "config", "network.n must be an integer >= 2"),
        ({"objective": {"type": "quadratic", "d": 2, "n": 1}}, "config",
         "objective.n must be an integer >= 2"),
        ({"objective": {"type": "logistic", "d": 1}}, "config",
         "objective.d must be >= 2 for a logistic objective, got 1"),
        ({"objective": {"d": 1}}, "config", "objective.d must be >= 2 for a logistic"),
        ({"network": {"type": "chain"}}, "config", "missing config key 'network.n'"),
        ({"algorithms": [{"recipe": "section4_jacobi", "foo": 1}]}, "config",
         "unknown algorithm keys: ['algorithms[0].foo']"),
        ({"algorithms": [{"variant": "det_jacobi", "alpha": 1.0, "tau": 1}]}, "config",
         "missing algorithm key 'algorithms[0].rho'"),
        ({"algorithms": [{"recipe": "wat"}]}, "config", "algorithms[0].recipe must be"),
    ], ids=["node_count", "duplicate_labels", "unknown_variant", "beta_too_large",
            "beta_above_contraction_limit", "top_level_number", "top_level_null",
            "top_level_pairs", "output_dir_number", "stop_rel_cost_negative",
            "stop_rel_cost_infinite", "stop_rel_cost_string", "no_algorithms",
            "label_with_slash", "network_n_string", "network_n_fraction", "network_type",
            "objective_d_zero", "objective_h_lo_above_h_hi", "network_n_one", "objective_n_one",
            "logistic_d_one", "default_type_d_one", "network_n_missing", "entry_unknown_key",
            "entry_missing_key", "unknown_recipe"])
    def test_fails_with_stage(self, tmp_path, capsys, command, change, stage, names):
        path = tmp_path / "cfg.json"
        doc = change
        if isinstance(change, dict):
            doc = {
                "network": {"type": "chain", "n": 3},
                "objective": {"type": "quadratic", "d": 2, "h_lo": 1.0, "h_hi": 2.0},
                "algorithms": [{"recipe": "section4_jacobi"}],
                "k_max": 5,
                "output_dir": str(tmp_path / "out"),
                **change,
            }
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        stage = stage.format(command=command)
        assert f"error [{stage}]" in err
        assert names in err
        assert "Traceback" not in err
        if not stage.startswith("run:"):
            assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("key, value", [
        pytest.param(key, value, id=f"{key.replace('[0]', '')}={name}")
        for key in ("network.seed", "objective.seed", "algorithms[0].seed",
                    "algorithms[0].alpha", "algorithms[0].rho", "algorithms[0].beta")
        for name, value in BAD_VALUES.items()
        if key.endswith("seed") or name != "fraction"  # 1.5 is a valid step parameter
    ])
    def test_clock_and_step_parameters(self, tmp_path, capsys, key, value):
        doc = {
            "network": {"type": "chain", "n": 3},
            "objective": {"type": "quadratic", "d": 2, "h_lo": 1.0, "h_hi": 2.0},
            "algorithms": [{"recipe": "section5_gradient"}],
            "k_max": 5,
            "output_dir": str(tmp_path / "out"),
        }
        where, _, name = key.replace("[0]", "").partition(".")
        spec = doc[where][0] if where == "algorithms" else doc[where]
        spec[name] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error [config] {key} must be" in err
        assert not (tmp_path / "out").exists()


class TestSpectrum:
    def test_success(self, tmp_path, capsys):
        net = build_network(build_chain_graph(4))
        path = tmp_path / "net.json"
        save_network(net, path)
        assert main(["spectrum", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 4" in out
        assert "lambda2:" in out
        assert "reduced eigenvalues:" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["spectrum", str(tmp_path / "nope.json")]) == 1
        assert "error [network]" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[], {"node_count": "x", "edges": [], "weights": []}],
                             ids=["top_level_list", "node_count_string"])
    def test_malformed_file(self, tmp_path, capsys, doc):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error [network]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n, message", [
        (3, r"W\[0, 2\] = .* but \(0, 2\) is not a link of the graph"),
        (4, "W is 4 x 4 but the graph has 3 nodes"),
    ], ids=["off_graph", "wrong_size"])
    def test_weights_not_of_the_graph(self, tmp_path, capsys, n, message):
        # a 3-node chain's file holding the complete graph's W on n nodes
        path = tmp_path / "net.json"
        save_network(build_network(build_chain_graph(3)), path)
        doc = json.loads(path.read_text())
        doc["weights"] = build_network(build_complete_graph(n)).weights.entries.tolist()
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [network]")
        assert re.search(message, err)
        assert "Traceback" not in err


# Candidate values for every key; each key's check in harness._VALUES sorts
# them into valid and invalid ones. Valid numbers stay small (N <= 3,
# k_max <= 3, h_hi / h_lo <= 6), so a run takes milliseconds.
POOL = (0, 1, 2, 3, -1, 0.5, 1.5, float("inf"), float("nan"), True, None, "a", "x/y", [], {},
        "geometric", "chain", "complete", "logistic", "quadratic", *RECIPES, *VARIANTS)


def pool(level, name, valid):
    return [v for v in POOL if bool(_VALUES[level][name].ok(v)) == valid]


@st.composite
def specs(draw, level, skip=(), given=()):
    """Every required key of the level, the given ones and some optional
    ones, all valid."""
    spec = {}
    for name, key in _VALUES[level].items():
        if name in given or (name not in skip and (key.default is _REQUIRED
                                                   or draw(st.booleans()))):
            spec[name] = draw(st.sampled_from(pool(level, name, True)))
    return spec


@st.composite
def configs(draw, out):
    """(config, fault, text the error must hold): a config that
    ExperimentConfig accepts, then, unless fault is None, one bad value,
    missing key or unknown key, which the error must name."""
    doc = draw(specs("config", skip=("network", "objective", "algorithms", "output_dir"),
                     given=("k_max",)))  # not the default 300
    doc["network"] = draw(specs("network"))
    doc["objective"] = obj = draw(specs("objective"))
    if {"h_lo", "h_hi"} <= obj.keys():
        obj["h_lo"], obj["h_hi"] = sorted((obj["h_lo"], obj["h_hi"]))
    if obj.get("d") == 1:  # a logistic objective needs d >= 2
        obj["d"] = 2
    levels = draw(st.lists(st.sampled_from(["recipe", "variant"]), min_size=1, max_size=2))
    doc["algorithms"] = [dict(draw(specs(level)), label=f"run{i}")  # unique labels
                         for i, level in enumerate(levels)]
    doc["output_dir"] = str(out)
    targets = [("", doc, "config"), ("network.", doc["network"], "network"),
               ("objective.", obj, "objective")]
    targets += [(f"algorithms[{i}].", entry, level)
                for i, (entry, level) in enumerate(zip(doc["algorithms"], levels))]
    fault = draw(st.sampled_from([None, "value", "missing", "unknown"]))
    where, spec, level = draw(st.sampled_from(targets))
    if fault == "value":
        name = draw(st.sampled_from(sorted(_VALUES[level])))
        spec[name] = draw(st.sampled_from(pool(level, name, False)))
        return doc, fault, f"{where}{name} must be"
    if fault == "missing":
        # without "recipe" an entry is an explicit one, missing its "variant";
        # objective has no required key, so the top level loses one instead
        if level == "objective":
            where, spec, level = targets[0]
        names = [n for n, key in _VALUES[level].items() if key.default is _REQUIRED]
        name = draw(st.sampled_from(names))
        del spec[name]
        return doc, fault, f"{where}{'variant' if name == 'recipe' else name}'"
    if fault == "unknown":
        spec["foo"] = 1
        return doc, fault, f"'{where}foo'"
    return doc, None, None


class TestConfigFuzz:
    """Configs drawn from the config table, valid and invalid, through
    `dalopt run`: each completes, or fails with a stage-named error and no
    traceback; a config that breaks a table rule fails at [config], names
    the key, and writes nothing."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_runs_or_fails_with_stage(self, data):
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            out = Path(tmp) / "out"
            doc, fault, names = data.draw(configs(out))
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(doc))
            code = main(["run", str(path)])
            err = stderr.getvalue()
            assert "Traceback" not in err
            if code == 0:
                assert fault is None and list(out.glob("trace_*.csv"))
                return
            assert code == 1
            stage = re.match(r"error \[([^\]]+)\]", err).group(1)
            if fault is not None:
                assert stage == "config" and names in err, err
            if not stage.startswith("run:"):
                assert not out.exists()
