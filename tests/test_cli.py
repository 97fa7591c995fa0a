"""Command-line entry points."""

import argparse
import contextlib
import functools
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dalopt import almethods
from dalopt.almethods import VARIANTS
from dalopt.cli import main
from dalopt.harness import _REQUIRED, _VALUES, ExperimentConfig, build_problem
from dalopt.network import (build_chain_graph, build_complete_graph, build_geometric_graph,
                            build_network, load_network, save_network)
from dalopt.local_solve import node_prox_solver
from dalopt.objective import LogisticCost, QuadraticCost
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

    def test_two_calls_print_the_same(self, tiny_config, capsys):
        assert main(["certify", str(tiny_config)]) == 0
        first = capsys.readouterr().out
        assert main(["certify", str(tiny_config)]) == 0
        assert capsys.readouterr().out == first


class TestParser:
    def test_help_names_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{run,certify,spectrum}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[], ["frobnicate"]], ids=["none", "unknown"])
    def test_no_or_unknown_command_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: dalopt ")

    def test_one_parser_per_process(self, tiny_config, tmp_path, capsys):
        assert main(["certify", str(tiny_config)]) == 0  # makes the parser if no call has
        with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True,
                               side_effect=argparse.ArgumentParser.__init__) as made:
            assert main(["run", str(tiny_config)]) == 0
            assert main(["certify", str(tiny_config)]) == 0
            assert main(["spectrum", str(tmp_path / "out" / "network.json")]) == 0
        assert made.call_count == 0


class TestDivergentRun:
    """A dual step alpha = 1e6 on a chain of 5 diverges. The run stops at its
    [run:<label>] stage with one stderr line naming the outer iteration k,
    and no numpy warning: tier-1 turns a RuntimeWarning into an error. A
    gradient run ends at its first trace row that is not finite, long before
    its iterates overflow (k=62 or 63)."""

    @staticmethod
    def run(tmp_path, capsys, variant, kind):
        entry = {"variant": variant, "alpha": 1e6, "rho": 1.0, "tau": 2}
        if variant.endswith("gradient"):
            entry["beta"] = 0.1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "network": {"type": "chain", "n": 5}, "objective": {"type": kind, "d": 3},
            "algorithms": [entry], "output_dir": str(tmp_path / "out")}))
        assert main(["run", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert not list((tmp_path / "out").glob("trace_*.csv"))
        return err

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("variant", ["det_gradient", "rand_gradient"])
    def test_gradient_run_names_k(self, tmp_path, capsys, variant, kind):
        err = self.run(tmp_path, capsys, variant, kind)
        k = 32 if kind == "quadratic" else 31
        assert err == (f"error [run:{variant}] lyapunov_value is not finite "
                       f"in trace row k={k}: inf\n"), err

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("variant", ["det_jacobi", "rand_gauss_seidel"])
    def test_prox_solve_at_its_cap_names_k(self, tmp_path, capsys, monkeypatch, variant, kind):
        # the same failure as at the default cap of 200,000 steps, without the walk
        monkeypatch.setattr(almethods, "node_prox_solver",
                            functools.partial(node_prox_solver, max_iterations=1000))
        err = self.run(tmp_path, capsys, variant, kind)
        assert re.fullmatch(rf"error \[run:{variant}\] prox solve at node \d+ exceeded 1000 "
                            r"iterations \(.*\); Hessian bounds suspect, "
                            r"at outer iteration k=\d+\n", err), err


class TestNoPerNodeCosts:
    """run and certify build the node costs as arrays, never one object per node."""

    @pytest.mark.parametrize("objective", [
        {"type": "quadratic", "d": 3, "seed": 2, "h_lo": 1.0, "h_hi": 4.0},
        {"type": "logistic", "d": 4, "reg": 2.0, "seed": 3},
    ], ids=["quadratic", "logistic"])
    def test_with_the_node_classes_refusing(self, tmp_path, capsys, monkeypatch, objective):
        def refuse(self):
            raise AssertionError(f"a {type(self).__name__} was built")

        monkeypatch.setattr(QuadraticCost, "__post_init__", refuse)
        monkeypatch.setattr(LogisticCost, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="QuadraticCost was built"):
            QuadraticCost(matrix=np.eye(1), linear=np.zeros(1))
        doc = {"network": {"type": "geometric", "n": 8, "radius": 0.7, "seed": 1},
               "objective": objective, "k_max": 5, "epsilon": 1e-8,
               "algorithms": [{"recipe": r} for r in ("section5_jacobi", "section5_rand_gradient")],
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        build_problem(ExperimentConfig.from_dict(doc))
        assert main(["run", str(path)]) == 0
        assert main(["certify", str(path)]) == 0
        assert "error" not in capsys.readouterr().err

BAD_VALUES = {"string": "a", "negative": -1, "fraction": 1.5, "true": True,
              "inf": float("inf"), "nan": float("nan")}


class TestBadConfig:
    """run and certify build the problem in one stage and fail alike."""

    @pytest.mark.parametrize("command", ["run", "certify"])
    @pytest.mark.parametrize("change, stage, names", [
        # the objective has one cost per network node: a node count, even the
        # network's, is an unknown key
        ({"objective": {"type": "quadratic", "d": 2, "n": 3}}, "config",
         "unknown config keys: ['objective.n']"),
        ({"algorithms": [{"recipe": "section4_jacobi", "label": "a"},
                         {"recipe": "section5_jacobi", "label": "a"}]}, "config",
         "duplicate algorithm labels"),
        ({"algorithms": [{"variant": "nope", "alpha": 1.0, "rho": 1.0, "tau": 1}]},
         "config", "nope"),
        # a bad beta in a second entry fails before the first is run or certified
        ({"algorithms": [{"recipe": "section4_jacobi"},
                         {"recipe": "section5_gradient", "beta": 100, "label": "steep"}]},
         "config", "steep: beta=100 exceeds"),
        # below 1/h_min, so the certificate's formulas hold, but above 1/(h_max+rho)
        ({"algorithms": [{"recipe": "section4_jacobi"},
                         {"recipe": "section5_gradient", "beta": 0.6, "label": "mild"}]},
         "config", "mild: beta=0.6 exceeds"),
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
         "unknown config keys: ['objective.n']"),
        ({"objective": {"type": "logistic", "d": 1}}, "config",
         "objective.d must be >= 2 for a logistic objective, got 1"),
        ({"objective": {"d": 1}}, "config", "objective.d must be >= 2 for a logistic"),
        ({"network": {"type": "chain"}}, "config", "missing config key 'network.n'"),
        ({"algorithms": [{"recipe": "section4_jacobi", "foo": 1}]}, "config",
         "unknown algorithm keys: ['algorithms[0].foo']"),
        ({"algorithms": [{"variant": "det_jacobi", "alpha": 1.0, "tau": 1}]}, "config",
         "missing algorithm key 'algorithms[0].rho'"),
        ({"algorithms": [{"recipe": "wat"}]}, "config", "algorithms[0].recipe must be"),
        ({"algorithms": [{"recipe": "section4_jacobi"},
                         {"variant": "det_gradient", "alpha": 0.5, "rho": 1.0, "tau": 2}]},
         "config", "missing algorithm key 'algorithms[1].beta'"),
    ], ids=["node_count", "duplicate_labels", "unknown_variant", "beta_too_large",
            "beta_above_contraction_limit", "top_level_number", "top_level_null",
            "top_level_pairs", "output_dir_number", "stop_rel_cost_negative",
            "stop_rel_cost_infinite", "stop_rel_cost_string", "no_algorithms",
            "label_with_slash", "network_n_string", "network_n_fraction", "network_type",
            "objective_d_zero", "objective_h_lo_above_h_hi", "network_n_one", "objective_n_one",
            "logistic_d_one", "default_type_d_one", "network_n_missing", "entry_unknown_key",
            "entry_missing_key", "unknown_recipe", "gradient_entry_without_beta"])
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
        out, err = capsys.readouterr()
        assert err.startswith(f"error [{stage}]")
        assert names in err
        assert "Traceback" not in err
        assert out == ""
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

    @pytest.mark.parametrize("doc, message", [
        ([], "a network file must be a JSON object, not list"),
        (5, "a network file must be a JSON object, not int"),
        ({"node_count": "x", "edges": [], "weights": []}, "node_count must be an integer >= 2"),
    ], ids=["top_level_list", "top_level_number", "node_count_string"])
    def test_malformed_file(self, tmp_path, capsys, doc, message):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error [network]" in err
        assert message in err
        assert "Traceback" not in err

    def test_fractional_node_id(self, tmp_path, capsys):
        # 0.5 would otherwise be read as node 0 and the pair as a second (0, 1)
        path = tmp_path / "net.json"
        save_network(build_network(build_chain_graph(4)), path)
        doc = json.loads(path.read_text())
        doc["edges"].append([0.5, 1])
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [network] cannot load")
        assert "edge (0.5,1) does not join two integer node ids" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("pair, message", [
        ([9, 9], "edge (9,9) out of range"),
        ([0.5, 0.5], "edge (0.5,0.5) does not join two integer node ids"),
    ], ids=["out_of_range", "fractional"])
    def test_bad_self_loop(self, tmp_path, capsys, pair, message):
        # a pair (i, i) goes to the graph as it is, not taken for a self-loop
        path = tmp_path / "net.json"
        save_network(build_network(build_chain_graph(4)), path)
        doc = json.loads(path.read_text())
        doc["edges"].append(pair)
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [network] cannot load")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("keep, pair, shown", [
        (False, [False, True], "(False,True)"),
        (True, [False, True], "(False,True)"),
        (True, [True, True], "(True,True)"),
    ], ids=["replacing_0_1", "beside_0_1", "self_loop"])
    def test_boolean_node_id(self, tmp_path, capsys, keep, pair, shown):
        # an int64 array reads [false, true] as (0, 1), the same link as [0, 1]
        path = tmp_path / "net.json"
        save_network(build_network(build_chain_graph(4)), path)
        doc = json.loads(path.read_text())
        if not keep:
            doc["edges"].remove([0, 1])
        doc["edges"].append(pair)
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [network] cannot load")
        assert f"edge {shown} does not join two integer node ids" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("edges"), "missing key 'edges'"),
        (lambda doc: doc.pop("weights"), "missing key 'weights'"),
        (lambda doc: doc.update(edges=5), "edges must be a list of pairs of node ids"),
        (lambda doc: doc["edges"].append([1]), "edge [1] is not a pair of node ids"),
        (lambda doc: doc["edges"].append([0, 1, 2]), "edge [0, 1, 2] is not a pair of node ids"),
        (lambda doc: doc.update(node_count=6.0), "node_count must be an integer >= 2, not 6.0"),
        (lambda doc: doc.update(node_count=1), "graph needs at least 2 nodes"),
        # refused before a 10^12-entry adjacency is allocated
        (lambda doc: doc.update(node_count=10**6),
         "node_count 1000000 is more than the 6 rows of W"),
        (lambda doc: doc.update(weights=5), "weight matrix must be square"),
        (lambda doc: doc.update(positions=doc["positions"][:3]),
         "positions must be one (x, y) per node: 3 for 6 nodes"),
        (lambda doc: doc.update(positions=5), "positions must be a list of (x, y), not int"),
        (lambda doc: doc.update(positions=False), "positions must be a list of (x, y), not bool"),
        (lambda doc: doc.update(positions=""), "positions must be a list of (x, y), not str"),
        (lambda doc: doc.update(positions={}), "positions must be a list of (x, y), not dict"),
        (lambda doc: doc.update(positions=[]), "positions must be one (x, y) per node: 0 for 6 nodes"),
        (lambda doc: doc["positions"][1].__setitem__(0, "a"), "positions[1] = ['a', "),
        (lambda doc: doc["positions"][1].__setitem__(1, None), "positions[1] = [0."),
        (lambda doc: doc["positions"][1].__setitem__(0, [0.5]), "positions[1] = [[0.5], "),
        (lambda doc: doc.update(meta=[1]), "meta must be an object, not list"),
        (lambda doc: doc.update(weights=[["a"]]), "weights must be equal-length rows of real numbers"),
        (lambda doc: doc["weights"][3].pop(), "weights must be equal-length rows of real numbers"),
        (lambda doc: doc["weights"][0].__setitem__(1, True),
         "weights must be equal-length rows of real numbers"),
        (lambda doc: doc["weights"][2].__setitem__(2, math.inf), "weight matrix has non-finite entries"),
        (lambda doc: doc["weights"][2].__setitem__(2, math.nan), "weight matrix has non-finite entries"),
        (lambda doc: doc["weights"][0].__setitem__(1, math.inf), "weight matrix has non-finite entries"),
        (lambda doc: doc["weights"][0].__setitem__(1, math.nan), "weight matrix has non-finite entries"),
    ], ids=["no_edges", "no_weights", "edges_int", "short_pair", "long_pair", "node_count_float",
            "node_count_one", "node_count_huge", "weights_scalar", "short_positions", "positions_int",
            "positions_false", "positions_empty_string", "positions_object", "positions_empty_list",
            "coordinate_string", "coordinate_null", "coordinate_list", "meta_list",
            "weights_string", "weights_ragged", "weights_bool", "weight_inf_diagonal", "weight_nan_diagonal",
            "weight_inf_off_diagonal", "weight_nan_off_diagonal"])
    def test_malformed_part_is_named(self, tmp_path, capsys, edit, message):
        path = tmp_path / "net.json"
        save_network(build_network(build_geometric_graph(6, radius=0.7, rng_seed=1)[0]), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [network] cannot load")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", [lambda doc: doc.pop("positions"),
                                      lambda doc: doc.update(positions=None)],
                             ids=["missing", "null"])
    def test_no_positions_is_accepted(self, tmp_path, capsys, edit):
        path = tmp_path / "net.json"
        save_network(build_network(build_geometric_graph(6, radius=0.7, rng_seed=1)[0]), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == 0
        assert "nodes: 6" in capsys.readouterr().out

    @pytest.mark.parametrize("n, message", [
        (3, r"W\[0, 2\] = .* but \(0, 2\) is not a link of the graph"),
        (4, "W is 4 x 4 but the graph has 3 nodes"),
    ], ids=["off_graph", "wrong_size"])
    def test_weights_not_of_the_graph(self, tmp_path, capsys, n, message):
        # a 3-node chain's file holding the complete graph's W on n nodes
        path = tmp_path / "net.json"
        save_network(build_network(build_chain_graph(3)), path)
        doc = json.loads(path.read_text())
        doc["weights"] = build_network(build_complete_graph(n)).weights.tolist()
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [network]")
        assert re.search(message, err)
        assert "Traceback" not in err


UNREADABLE = {"non_utf8": b"\xff\xfe{}", "deep_nesting": b"[" * 200_000 + b"]" * 200_000}


class TestUnreadableInput:
    """A file that cannot be decoded or parsed fails at its stage, with no
    traceback."""

    @pytest.mark.parametrize("command", ["run", "certify"])
    @pytest.mark.parametrize("name", sorted(UNREADABLE))
    def test_config(self, tmp_path, capsys, command, name):
        path = tmp_path / "cfg.json"
        path.write_bytes(UNREADABLE[name])
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [config] cannot read {path}")
        assert "Traceback" not in err

    def test_deeply_nested_network(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_bytes(UNREADABLE["deep_nesting"])
        assert main(["spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [network] cannot load {path}")
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
    for entry in doc["algorithms"]:  # an explicit gradient variant needs its step
        if entry.get("variant", "").endswith("_gradient") and "beta" not in entry:
            entry["beta"] = draw(st.sampled_from(pool("variant", "beta", True)))
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


@functools.cache
def criterion9_network():
    """The network.json that `dalopt run` saves for acceptance criterion 9's
    config, and the path of every value in it, grouped by top-level key."""
    doc = {"network": {"type": "geometric", "n": 6, "radius": 0.7, "seed": 3},
           "objective": {"type": "quadratic", "d": 2, "seed": 5, "h_lo": 1.0, "h_hi": 2.0},
           "algorithms": [{"recipe": "section5_jacobi"}]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.json"
        save_network(build_problem(ExperimentConfig.from_dict(doc))[0], path)
        text = path.read_text()
    groups = {}
    for place in places(json.loads(text)):
        groups.setdefault(place[:1], []).append(place)
    return text, groups


def places(value, path=()):
    """The path of value itself and of every key or item in it, at any depth."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from places(item, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.just(2**70) | st.floats()
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                               max_size=2),
    max_leaves=6)

# what a failure must name, by the top-level key of network.json that was
# edited (None: the whole document was replaced)
PARTS = {
    None: r"a network file must be a JSON object|missing key 'node_count'",
    "node_count": r"node_count|graph needs at least 2 nodes|for \d+ nodes|out of range",
    "edges": r"edge|not a link of the graph|graph is disconnected",
    "weights": r"weight|W\[|W is",
    "positions": r"positions",
    "meta": r"meta",
}


class TestNetworkFuzz:
    """Criterion 9's saved network.json with one key or item deleted, or one
    value at any depth replaced by a drawn JSON value, through `dalopt
    spectrum`: each file loads, and then saves and loads again to the same
    graph, W and positions, or fails at [network] naming the part, with no
    traceback."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_loads_or_names_the_part(self, data):
        text, groups = criterion9_network()
        doc = json.loads(text)
        # a part, then a place in it, so that W's 36 entries do not crowd out the rest
        path = data.draw(st.sampled_from(groups[data.draw(st.sampled_from(sorted(groups)))]))
        if path:
            parent = functools.reduce(lambda value, key: value[key], path[:-1], doc)
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(JSON_VALUES)
        else:
            doc = data.draw(JSON_VALUES)
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            file = Path(tmp) / "network.json"
            file.write_text(json.dumps(doc))
            code = main(["spectrum", str(file)])
            err = stderr.getvalue()
            if code == 0:
                first = load_network(file)
                save_network(first, file)
                again = load_network(file)
                assert np.array_equal(again.graph.adjacency, first.graph.adjacency)
                assert np.array_equal(again.weights, first.weights)
                assert again.graph.positions == first.graph.positions
                return
        assert code == 1
        assert err.startswith("error [network] cannot load"), err
        assert re.search(PARTS[path[0] if path else None], err), err
        assert "Traceback" not in err and "Warning" not in err
