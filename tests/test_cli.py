"""Command-line entry points."""

import json

import pytest

from dalopt.cli import main
from dalopt.network import build_chain_graph, build_network, save_network


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


class TestCertify:
    def test_prints_reports(self, tiny_config, capsys):
        assert main(["certify", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        assert "rate certificate" in out
        assert "section4_jacobi" in out
        assert "r " in out or "r  " in out


class TestBadConfig:
    """run and certify build the problem in one stage and fail alike."""

    @pytest.mark.parametrize("command", ["run", "certify"])
    @pytest.mark.parametrize("change, stage", [
        ({"objective": {"type": "quadratic", "d": 2, "n": 5}}, "objective"),
        ({"algorithms": [{"recipe": "section4_jacobi", "label": "a"},
                         {"recipe": "section5_jacobi", "label": "a"}]}, "config"),
        ({"algorithms": [{"variant": "nope", "alpha": 1.0, "rho": 1.0, "tau": 1}]},
         "config"),
        ({"algorithms": [{"recipe": "section5_gradient", "beta": 100, "label": "steep"}]},
         "{command}:steep"),
        # below 1/h_min, so the certificate's formulas hold, but above 1/(h_max+rho)
        ({"algorithms": [{"recipe": "section5_gradient", "beta": 0.6, "label": "mild"}]},
         "{command}:mild"),
    ], ids=["node_count", "duplicate_labels", "unknown_variant", "beta_too_large",
            "beta_above_contraction_limit"])
    def test_fails_with_stage(self, tmp_path, capsys, command, change, stage):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "network": {"type": "chain", "n": 3},
            "objective": {"type": "quadratic", "d": 2, "h_lo": 1.0, "h_hi": 2.0},
            "algorithms": [{"recipe": "section4_jacobi"}],
            "k_max": 5,
            "output_dir": str(tmp_path / "out"),
            **change,
        }))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error [{stage.format(command=command)}]" in err
        assert "Traceback" not in err


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
