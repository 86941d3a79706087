"""CLI: config parsing, report files, the regime table, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fbmvar import cli, harness, sampler
from fbmvar.errors import DegenerateFit

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


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))


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

    @pytest.mark.parametrize(
        "edit, seed, field",
        [
            (("circulant", "chol"), None, "method"),
            (("seed = 1", "seed = -3"), None, "seed"),
            (None, -1, "seed"),
            (("circulant", "cholesky"), None, "method"),
        ],
    )
    def test_bad_method_or_seed_exits_2(self, tmp_path, capsys, edit, seed, field):
        text = "[p]\nhurst = 0.1\nkappa = 2\nweight = x2\nform = centered_quadratic\n"
        text += "n_ladder = 16\nreplicas = 4\nseed = 1\nmethod = circulant\n"
        cfg = write(tmp_path, text.replace(*edit) if edit else text)
        with pytest.raises(cli.ConfigError, match=rf"\[p\].*{field}"):
            cli.parse_config(cfg, seed_override=seed)
        override = [] if seed is None else ["--seed", str(seed)]
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *override]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, want",
        [
            (("kappa = 2", "kappa = two"), "kappa"),
            (("hurst = 0.1", "hurst = abc"), "hurst"),
            (("n_ladder = 16", "n_ladder = 16 32.5"), "n_ladder entry"),
            (("replicas = 4", "replicas = 1e3"), (2, 1000, 1)),
            (("seed = 1", "seed = 1.5"), "seed"),
            (("kappa = 2", "kappa = 2.0"), (2, 4, 1)),
            (("seed = 1", f"seed = {2**64 - 1}"), (2, 4, 2**64 - 1)),
        ],
        ids=["kappa_word", "hurst_word", "ladder_fraction", "replicas_1e3", "seed_fraction", "kappa_2.0", "seed_max"],
    )
    def test_numbers_name_their_key(self, tmp_path, capsys, edit, want):
        # a value that is not a number, or not an integer, names its key; an integral one runs as the API takes it
        text = "[p]\nhurst = 0.1\nkappa = 2\nweight = x2\nform = centered_quadratic\n"
        cfg = write(tmp_path, (text + "n_ladder = 16\nreplicas = 4\nseed = 1\n").replace(*edit))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        if isinstance(want, str):
            assert rc == 2
            assert f"plan [p]: {want} must be " in capsys.readouterr().err
            assert not out.exists()
        else:
            plan = cli.parse_config(cfg)[0].plan
            assert rc == 0 and (plan.spec.kappa, plan.replicas, plan.seed) == want
            assert json.loads((out / "p.json").read_text())["plan"]["seed"] == want[2]

    @pytest.mark.parametrize("first", ["[a]\nout = same\n", "[same]\n"])
    def test_duplicate_out_stem_exits_2(self, tmp_path, capsys, first):
        body = "hurst = 0.1\nkappa = 2\nweight = x2\nform = centered_quadratic\nn_ladder = 16\nreplicas = 4\nseed = 1\n"
        cfg = write(tmp_path, first + body + "\n[b]\nout = same\n" + body)
        earlier = first.split("]")[0] + "]"
        with pytest.raises(cli.ConfigError, match=rf"\[b\].*out.*'same'.*\{earlier}"):
            cli.parse_config(cfg)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sections, bad",
        [
            ("[a]\nout = res\n{body}\n[b]\nout = ./res\n{body}", "b"),
            ("[a]\nout = ../escaped\n{body}", "a"),
            ("[a]\nout =\n{body}", "a"),
            ("[a]\nout = .\n{body}", "a"),
            ("[..]\n{body}", ".."),
            ("[a/b]\n{body}", "a/b"),
            ("[a]\nout = a\0b\n{body}", "a"),
        ],
        ids=["dot_slash_alias", "parent_dir", "empty", "dot", "dotdot_section", "slash_section", "nul"],
    )
    def test_stem_not_a_bare_file_name_exits_2(self, tmp_path, capsys, sections, bad):
        body = "hurst = 0.1\nkappa = 2\nweight = x2\nform = centered_quadratic\nn_ladder = 16\nreplicas = 4\nseed = 1\n"
        cfg = write(tmp_path, sections.format(body=body))
        with pytest.raises(cli.ConfigError, match=rf"\[{re.escape(bad)}\].*out stem.*bare file name"):
            cli.parse_config(cfg)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plans.ini"]

    @pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
    def test_replicas_above_cap_exits_2(self, tmp_path, capsys, flag):
        text = GOOD_CONFIG if flag else GOOD_CONFIG.replace("replicas = 24", "replicas = 100000000000")
        override = ["--replicas", str(harness.MAX_REPLICAS + 1)] if flag else []
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(write(tmp_path, text)), "--out", str(out), *override])
        err = capsys.readouterr().err
        assert rc == 2
        # a flag's value is the flag's fault, a config's value its plan's
        assert ("--replicas" if flag else "[quad_small]") in err and f"MAX_REPLICAS = {harness.MAX_REPLICAS}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_grid_size_above_cap_exits_2(self, tmp_path, capsys):
        text = GOOD_CONFIG.replace("n_ladder = 16 32 64", "n_ladder = 16 1099511627776")
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(write(tmp_path, text)), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "[quad_small]" in err and "n_ladder" in err and "MAX_GRID_SIZE = 4194304" in err
        assert "Traceback" not in err
        assert not out.exists()

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

    def test_rate_fit_is_null_below_three_rungs(self, tmp_path):
        cfg = write(tmp_path, GOOD_CONFIG.replace("n_ladder = 16 32 64", "n_ladder = 16 32"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "quad_small.json").read_text())["rate_fit"] is None
        assert set(json.loads((out / "diag_small.json").read_text())["rate_fit"]) == {"slope", "intercept", "r_squared"}

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

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--seed", str(2**64)), ("--replicas", "1"), ("--replicas", "-5")])
    def test_bad_override_names_its_flag(self, tmp_path, capsys, flag, value):
        cfg = write(tmp_path, GOOD_CONFIG)
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), flag, value])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {flag} must be in ") and err.rstrip().endswith(f"got {value}")
        assert "plan [" not in err
        assert not (tmp_path / "out").exists()

    def test_out_path_of_a_file_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, GOOD_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(taken)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: --out {taken}: ") and "Traceback" not in err
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("blocked", ["quad_small.csv", "diag_small.json", "diag_small.dat", "quad_small_n32.path"])
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, blocked):
        cfg = write(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out), "--dump-paths"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {out / blocked}: ") and "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("full", ["quad_small.csv", "quad_small_n64.path"])
    def test_failed_write_names_the_file_and_exits_2(self, tmp_path, capsys, full):
        # the open succeeds and the write or close fails, so the OSError carries no file name of its own
        cfg = write(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        out.mkdir()
        (out / full).symlink_to("/dev/full")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out), "--dump-paths"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {out / full}: ") and "Traceback" not in err

    def test_inadmissible_last_plan_exits_3_before_any_file(self, tmp_path, capsys):
        late = GOOD_CONFIG + "\n[late_quad]\nhurst = 0.3\nkappa = 2\nweight = x2\nform = centered_quadratic\n"
        late += "n_ladder = 16\nreplicas = 4\nseed = 1\n"
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(write(tmp_path, late)), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "regime" in err and "plan [late_quad]" in err
        assert not out.exists()

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
        cfg = write(tmp_path, GOOD_CONFIG)
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
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


    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_runs(self, config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out), "--replicas", "4"]) == 0
        entries = cli.parse_config(config)
        stems = [entry.out_stem for entry in entries]
        assert stems
        want = {f"{stem}{suffix}" for stem in stems for suffix in (".csv", ".json", ".dat")}
        assert {p.name for p in out.iterdir()} == want, config.name
        # at 130 replicas every rung has at least 2 blocks, so 2 threads share each rung
        assert all(130 > sampler.block_size(n) for entry in entries for n in entry.plan.n_ladder)
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"dump{threads}"
            args = ["run", "--config", str(config), "--out", str(out), "--replicas", "130", "--dump-paths"]
            assert cli.main([*args, "--threads", threads]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert set(runs[0]) > want
        assert runs[0] == runs[1], config.name

    def test_threads_without_sched_getaffinity(self, tmp_path, monkeypatch):
        # os.sched_getaffinity exists on Linux only; elsewhere the CPU count caps the workers
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = write(tmp_path, GOOD_CONFIG + "\n[blocks]\nhurst = 0.1\nkappa = 2\nweight = x2\nform = centered_quadratic\n"
                    "n_ladder = 1024 2048\nreplicas = 12\nseed = 3\n")
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(runs[0]) == 9
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "form, weight, kappa, ladder, replicas",
        [
            ("unweighted_centered", "one", 302, "16 32 64", 2000),  # mu_302 = 301!! is past float64
            ("odd_weighted", "x", 301, "16 32 64", 2000),  # the limit constant's mu_302 is past float64
            ("odd_weighted", "x", 151, "16 32 64", 2000),  # m2^2 of the sample moments is past float64
            ("odd_weighted", "x", 299, "16 32 64", 2000),  # the statistic's sample moments are inf and NaN
            ("odd_weighted", "x", 263, "16 8192", 2),  # n^{kappa H} is past float64 at n = 8192
        ],
        ids=["centered_302", "odd_301", "odd_151", "odd_299", "odd_263_n8192"],
    )
    def test_overflowing_kappa_exits_2_naming_the_plan(self, tmp_path, capsys, form, weight, kappa, ladder, replicas):
        plan = f"hurst = 0.3\nkappa = {kappa}\nweight = {weight}\nform = {form}\nn_ladder = {ladder}\n"
        cfg = write(tmp_path, f"[big]\n{plan}replicas = {replicas}\nseed = 5\n")
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: plan [big]: kappa = {kappa} overflows float64") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []


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

    def test_table_pinned(self, tmp_path, capsys):
        # md5 of the table and of its CSV: a change that moves any regime label or
        # citation updates these digests and states the reason in CHANGES.md
        target = tmp_path / "table.csv"
        rc = cli.main(["regimes", "--kappas", "2,3,4,5,6", "--h-step", "1e-3", "--csv", str(target)])
        out = capsys.readouterr().out
        assert rc == 0
        assert hashlib.md5(out.encode("utf-8")).hexdigest() == "c987f95b748aeab1f92e8d88bcfba850"
        assert hashlib.md5(target.read_bytes()).hexdigest() == "44008e94acae1f6e054826f04a69f8ff"

    def test_csv_in_missing_dir_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        rc = cli.main(["regimes", "--csv", str(target)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: --csv {target}: ") and captured.out == ""
        assert not target.parent.exists()


    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_csv_write_exits_2(self, capsys):
        rc = cli.main(["regimes", "--kappas", "2", "--h-step", "0.25", "--csv", "/dev/full"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --csv /dev/full: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--kappas", "1"), ("--kappas", "x"), ("--kappas", "2,1"), ("--kappas", "2.5"),
            ("--h-step", "0"), ("--h-step", "-0.5"),
            ("--h-step", "2"), ("--h-step", "0.9999999999999"), ("--h-step", "inf"),
        ],
    )
    def test_bad_flag_exits_2(self, capsys, flag, value):
        # a step of 0 fails while parsing, so it cannot reach the grid loop;
        # a step with no grid point inside (0, 1) fails before any row is printed
        try:
            rc = cli.main(["regimes", flag, value])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""

    def test_kappas_read_as_a_config_kappa(self, capsys):
        # an integral float is its integer, as `kappa = 2.0` is in a config
        assert cli.main(["regimes", "--kappas", "2,3", "--h-step", "0.25"]) == 0
        want = capsys.readouterr().out
        assert cli.main(["regimes", "--kappas", "2.0,3", "--h-step", "0.25"]) == 0
        assert capsys.readouterr().out == want
        with pytest.raises(SystemExit):
            cli.main(["regimes", "--kappas", "2.5"])
        assert "argument --kappas: kappa must be an integer >= 2, got 2.5" in capsys.readouterr().err

    def test_row_cap_refuses_fine_step_promptly(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        t0 = time.perf_counter()
        rc = cli.main(["regimes", "--kappas", "2,3", "--h-step", "1e-9", "--csv", str(target)])
        assert time.perf_counter() - t0 < 5.0
        captured = capsys.readouterr()
        assert rc == 2
        assert "--h-step" in captured.err and str(cli.REGIMES_MAX_ROWS) in captured.err
        assert captured.out == "" and not target.exists()

    def test_row_cap_admits_a_table_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "REGIMES_MAX_ROWS", 6)
        assert cli.main(["regimes", "--kappas", "2,3", "--h-step", "0.25"]) == 0
        assert cli.main(["regimes", "--kappas", "2,3", "--h-step", "0.2"]) == 2
        capsys.readouterr()

    def test_python_dash_m(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "fbmvar.cli", "regimes", "--kappas", "2", "--h-step", "0.25"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "# regime table" in proc.stdout
        assert "    2     0.25  breuer_major_clt         boundary_unsupported" in proc.stdout

    def test_closed_stdout_pipe_exits_2(self, tmp_path):
        # 2 x 9999 rows overfill the pipe, so the table is still printing when
        # the reader closes it after the first line, as `| head -1` does
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fbmvar.cli", "regimes", "--h-step", "1e-4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        finally:
            proc.kill()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert first.startswith(b"# regime table")
        assert rc == 2, err
        assert err.startswith("error: <stdout>: ") and err.count("\n") == 1, err


def _corrupt_embedding(monkeypatch):
    import fbmvar.sampler as sampler_mod

    def bad_seq(H, max_lag):
        r = np.full(max_lag + 1, -0.9)
        r[0] = 1.0
        return r

    monkeypatch.setattr(sampler_mod, "increment_autocov_seq", bad_seq)


def _fail_fit(monkeypatch):
    def degenerate(plans, threads):
        raise DegenerateFit("injected")

    monkeypatch.setattr(harness, "_run_group", degenerate)


@pytest.mark.parametrize(
    "config, setup, code, prefix",
    [
        ("[p]\nhurst = 0.1\n", None, 2, "config error: "),
        (GOOD_CONFIG.replace("hurst = 0.10", "hurst = 0.25"), None, 3, "regime error: "),
        (GOOD_CONFIG, _corrupt_embedding, 4, "embedding error: "),
        (GOOD_CONFIG, _fail_fit, 2, "error: "),
    ],
    ids=["config", "regime", "embedding", "other"],
)
def test_exit_code_and_label_of_each_error(tmp_path, capsys, monkeypatch, config, setup, code, prefix):
    if setup:
        setup(monkeypatch)
    rc = cli.main(["run", "--config", str(write(tmp_path, config)), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith(prefix) and "Traceback" not in err

