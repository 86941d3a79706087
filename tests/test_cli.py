"""CLI: config parsing, report files, exit codes, selftest."""

import json

import numpy as np
import pytest

from fbmvar import cli

GOOD_CONFIG = """
[quad_small]
hurst = 0.10
kappa = 2
weight = x2
form = centered_quadratic
n_ladder = 16 32 64
replicas = 24
seed = 4242
method = circulant

[diag_small]
hurst = 0.5
kappa = 2
weight = one
form = unweighted_centered
n_ladder = 32 64 128
replicas = 32
seed = 99
"""


def write(tmp_path, text, name="plans.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestParseConfig:
    def test_two_plans(self, tmp_path):
        entries = cli.parse_config(write(tmp_path, GOOD_CONFIG))
        assert [e.name for e in entries] == ["quad_small", "diag_small"]
        assert entries[0].plan.n_ladder == (16, 32, 64)
        assert entries[0].plan.seed == 4242

    def test_overrides(self, tmp_path):
        entries = cli.parse_config(write(tmp_path, GOOD_CONFIG), seed_override=1, replicas_override=8)
        assert all(e.plan.seed == 1 and e.plan.replicas == 8 for e in entries)

    def test_missing_field_addressed(self, tmp_path):
        bad = GOOD_CONFIG.replace("replicas = 24\n", "")
        with pytest.raises(cli.ConfigError, match=r"\[quad_small\].*replicas"):
            cli.parse_config(write(tmp_path, bad))

    def test_unknown_field_addressed(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="unknown field"):
            cli.parse_config(write(tmp_path, GOOD_CONFIG + "\nwindow = 3\n"))

    def test_unknown_weight(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="weight"):
            cli.parse_config(write(tmp_path, GOOD_CONFIG.replace("weight = x2", "weight = tanh")))

    def test_weight_on_unweighted_form_rejected(self, tmp_path):
        bad = GOOD_CONFIG.replace("weight = one", "weight = x2")
        with pytest.raises(cli.ConfigError, match=r"\[diag_small\].*weight"):
            cli.parse_config(write(tmp_path, bad))
        rc = cli.main(["run", "--config", str(write(tmp_path, bad)), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_raw_form_not_runnable(self, tmp_path):
        with pytest.raises(cli.ConfigError, match=r"\[quad_small\].*raw_weighted"):
            cli.parse_config(write(tmp_path, GOOD_CONFIG.replace("form = centered_quadratic", "form = raw_weighted")))


class TestCmdRun:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        for stem, rows in (("quad_small", 3), ("diag_small", 3)):
            csv_lines = (out / f"{stem}.csv").read_text().strip().split("\n")
            assert csv_lines[0] == cli.CSV_HEADER
            assert len(csv_lines) == rows + 1
            doc = json.loads((out / f"{stem}.json").read_text())
            assert doc["plan"]["name"] == stem
            assert len(doc["records"]) == rows
            assert "rate_fit" in doc
            dat_lines = (out / f"{stem}.dat").read_text().strip().split("\n")
            assert len(dat_lines) == rows

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = write(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "quad_small.json").read_text())
        rows = (out / "quad_small.csv").read_text().strip().split("\n")[1:]
        for rec, row in zip(doc["records"], rows):
            fields = row.split(",")
            assert float(fields[5]) == rec["l2_error"]
            assert float(fields[8]) == rec["stat_var"]

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        cfg = write(tmp_path, GOOD_CONFIG)
        outputs = []
        for i, threads in enumerate((1, 4, 8)):
            out = tmp_path / f"out{i}"
            rc = cli.main(["run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
            assert rc == 0
            outputs.append((out / "quad_small.csv").read_bytes() + (out / "diag_small.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_override_changes_but_reproduces(self, tmp_path):
        cfg = write(tmp_path, GOOD_CONFIG)
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        cli.main(["run", "--config", str(cfg), "--out", str(a)])
        cli.main(["run", "--config", str(cfg), "--out", str(b), "--seed", "777"])
        cli.main(["run", "--config", str(cfg), "--out", str(c), "--seed", "777"])
        assert (a / "quad_small.csv").read_bytes() != (b / "quad_small.csv").read_bytes()
        assert (b / "quad_small.csv").read_bytes() == (c / "quad_small.csv").read_bytes()

    def test_boundary_hurst_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, GOOD_CONFIG.replace("hurst = 0.10", "hurst = 0.25"))
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 3
        assert "regime" in captured.err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        cfg = write(tmp_path, GOOD_CONFIG)
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", threads])
        assert rc == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "[p]\nhurst = 0.1\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "config error" in captured.err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_embedding_error_exits_4(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        import fbmvar.sampler as sampler_mod

        def bad_seq(H, max_lag):
            r = np.zeros(max_lag + 1)
            r[0] = 1.0
            r[1:] = -0.9
            return r

        monkeypatch.setattr(sampler_mod, "increment_autocov_seq", bad_seq)
        sampler_mod._circulant_coeffs.cache_clear()
        try:
            cfg = write(tmp_path, GOOD_CONFIG)
            rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        finally:
            sampler_mod._circulant_coeffs.cache_clear()
        assert rc == 4
        assert "embedding" in capsys.readouterr().err

    def test_dump_paths(self, tmp_path):
        cfg = write(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out), "--dump-paths"])
        assert rc == 0
        dump = out / "quad_small_n16.path"
        lines = dump.read_text().strip().split("\n")
        assert len(lines) == 17
        assert lines[0].split(" ")[0] == "0/16"
        assert float(lines[0].split(" ")[1]) == 0.0


class TestCmdRegimes:
    def test_table_contains_quadratic_cell(self, capsys):
        rc = cli.main(["regimes", "--kappas", "2,3", "--h-step", "0.05"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [ln for ln in out.split("\n") if ln and not ln.startswith("#") and not ln.startswith("kappa")]
        quad = [ln for ln in rows if "weighted_l2_quadratic" in ln]
        assert any(ln.split()[:2] == ["2", "0.1"] for ln in quad)
        # grid and legend documented
        assert "H grid" in out
        assert "# legend:" in out

    def test_two_rows_per_grid_point(self, capsys):
        rc = cli.main(["regimes", "--kappas", "2,3", "--h-step", "0.25"])
        out = capsys.readouterr().out
        rows = [ln for ln in out.split("\n") if ln and not ln.startswith("#") and not ln.startswith("kappa")]
        # H grid {0.25, 0.5, 0.75}; one row per (kappa, H): 2 rows per grid point
        assert len(rows) == 3 * 2
        for hv in ("0.25", "0.5", "0.75"):
            assert sum(1 for ln in rows if ln.split()[1] == hv) == 2

    def test_csv_output(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        rc = cli.main(["regimes", "--kappas", "2", "--h-step", "0.25", "--csv", str(target)])
        capsys.readouterr()
        assert rc == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "kappa,H,unweighted_regime,unweighted_citation,weighted_regime,weighted_citation"
        assert len(lines) == 1 + 3


class TestCmdSelftest:
    def test_fresh_build_passes(self, capsys):
        rc = cli.main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 6

    def test_runs_are_identical(self, capsys):
        cli.main(["selftest"])
        first = capsys.readouterr().out
        cli.main(["selftest"])
        second = capsys.readouterr().out
        assert first == second

    def test_corrupted_registry_fails_with_name(self, capsys, monkeypatch):
        import fbmvar.weights as weights_mod

        broken = dict(weights_mod._BUILTINS)
        original = broken["x2"]
        corrupted = weights_mod.WeightFunction(
            id="x2",
            evaluators=(original.evaluators[0], lambda x: 2.5 * np.asarray(x, dtype=float))
            + original.evaluators[2:],
            max_order=original.max_order,
            growth_class=original.growth_class,
            growth_bound=original.growth_bound,
        )
        broken["x2"] = corrupted
        monkeypatch.setattr(weights_mod, "_BUILTINS", broken)
        rc = cli.main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL weight_derivative_table" in out
