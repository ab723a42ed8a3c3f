"""CLI contract: subcommands, exit codes, deterministic CSV, config files."""

import math

import numpy as np
import pytest

from entconvex.cli import LOG_BASES, load_config, main, write_svg


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTable:
    def test_table5_agrees_and_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "table", "5")
        code2, out2, _ = run(capsys, "table", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0].startswith("pair,s_vn,s_ns,s_r,qc")
        assert len(lines) == 7  # header + six rows
        qcs = [row.split(",")[4] for row in lines[1:]]
        assert qcs == ["1", "1", "-1", "-1", "-1", "0"]

    def test_invalid_table_id(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "9"])

    @pytest.mark.parametrize(
        "unread",
        ["--model angular", "--l 3 --L 1", "--lambda 0.7", "--basis-size 10", "--samples 10",
         "--seed 1", "--svg table.svg"],
    )
    def test_unread_flag_is_usage_error(self, capsys, tmp_path, monkeypatch, unread):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "table", "5", *unread.split())
        assert code == 2
        assert err.startswith("error:") and out == ""
        for flag in unread.split()[::2]:
            assert flag in err
        assert not (tmp_path / "table.svg").exists()

    def test_unread_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        code, out, err = run(capsys, "table", "5", "--config", str(cfg))
        assert code == 2
        assert "--seed" in err and out == ""

    def test_read_flags_accepted(self, capsys, tmp_path):
        out_file = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "table", "5", "--tol", "1e-3", "--alpha-steps", "9", "--log-base", "e",
            "--out", str(out_file),
        )
        assert code == 0
        assert len(out_file.read_text().strip().splitlines()) == 7


class TestCurve:
    def test_csv_grid(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "curve", "--model", "angular", "--l", "2", "--L", "2", "--M", "2",
            "--alpha-steps", "9", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "alpha,entropy"
        assert len(lines) == 10
        alphas = [float(row.split(",")[0]) for row in lines[1:]]
        assert alphas[0] == 0.0 and alphas[-1] == 1.0

    def test_grid_too_small_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "curve", "--model", "angular", "--l", "1", "--L", "1", "--M", "1",
            "--alpha-steps", "2",
        )
        assert code == 2
        assert "alpha-steps" in err

    def test_missing_model_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "curve", "--l", "1", "--L", "1", "--M", "1")
        assert code == 2

    def test_svg_written(self, tmp_path, capsys):
        svg = tmp_path / "curve.svg"
        code, _, _ = run(
            capsys, "curve", "--model", "lg", "--l", "1", "--m", "1",
            "--alpha-steps", "7", "--svg", str(svg), "--out", str(tmp_path / "c.csv"),
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestCriterion:
    def test_angular_pair(self, capsys):
        code, out, _ = run(
            capsys, "criterion", "--model", "angular", "--l", "3", "--L", "1", "--M", "1",
            "--log-base", "e",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["s_ns"]) == pytest.approx(0.196, abs=1e-3)
        assert vals["qc"] == "1"
        assert vals["convexity_observed"] == "convex"


    @pytest.mark.parametrize("command", ["criterion", "probe"])
    def test_svg_is_usage_error(self, capsys, tmp_path, command):
        # only the curve writes a plot
        svg = tmp_path / "c.svg"
        code, out, err = run(
            capsys, command, "--model", "angular", "--l", "3", "--L", "1", "--M", "1",
            *SAMPLES[command], "--svg", str(svg),
        )
        assert code == 2
        assert "--svg" in err and out == ""
        assert not svg.exists()

    @pytest.mark.parametrize("lam", ["inf", "nan", "-0.5"])
    def test_bad_lambda_is_usage_error(self, capsys, lam):
        code, _, err = run(
            capsys, "criterion", "--model", "oscillator", "--n", "0", "--m", "1",
            "--l", "0", "--p", "0", f"--lambda={lam}",
        )
        assert code == 2
        assert "lambda must be finite and >= 0" in err


class TestProbe:
    def test_deterministic_and_bounded(self, capsys):
        args = (
            "probe", "--model", "angular", "--l", "1", "--L", "1", "--M", "1",
            "--samples", "600", "--seed", "5",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        rows = [line.split(",") for line in out1.strip().splitlines()[1:]]
        mins = [float(r[1]) for r in rows]
        assert mins == sorted(mins, reverse=True)
        assert int(rows[-1][0]) == 600
        assert mins[-1] >= float(rows[-1][2]) - 1e-9


def test_spherium_norm_tail_is_usage_error(capsys):
    code, out, err = run(capsys, "criterion", "--model", "spherium", "--M", "1", "--lmax", "4")
    assert code == 2
    assert err.startswith("error: norm tail") and out == ""


def test_oscillator_norm_deficit_names_the_basis_size(capsys):
    # five quanta at lambda = 0.7 pass the exactness bound of the default
    # basis (16 per coordinate) but not its norm-deficit check; 20 suffice
    pair = "criterion --model oscillator --n 0 --m 2 --l 1 --p 1 --lambda 0.7".split()
    code, out, err = run(capsys, *pair)
    assert code == 2 and out == ""
    assert err.startswith("error: norm deficit") and "at basis size 16" in err
    code, out, err = run(capsys, *pair, "--basis-size", "20")
    assert code == 0 and err == ""
    row = out.strip().splitlines()[1].split(",")
    assert row[5:] == ["-1", "concave", "1"]


@pytest.mark.parametrize("command", ["curve", "criterion", "probe"])
def test_oscillator_norm_deficit_suggests_the_flag(capsys, command):
    # check_state's bound is exact only at lambda = 0: this state passes it at
    # the default basis and fails the norm-deficit check, whose message names
    # the flag that mends it; 24 per coordinate suffice
    pair = "--model oscillator --n 0 --m 2 --l 1 --p 1 --lambda 0.7".split()
    code, out, err = run(capsys, command, *pair, *SAMPLES[command])
    assert code == 2 and out == ""
    assert err == (
        "error: norm deficit 1.113e-06 beyond 1e-06 at basis size 16; "
        "enlarge the basis with --basis-size\n"
    )
    code, out, err = run(capsys, command, *pair, *SAMPLES[command], "--basis-size", "24")
    assert code == 0 and err == "" and out


# a small probe keeps these fast; only the probe reads --samples
SAMPLES = {"curve": (), "criterion": (), "probe": ("--samples", "10")}

# a size each model rejects; exit 1 means a disagreement, so these must exit 2
BAD_SIZES = {
    "lg": "--model lg --l 1 --m 1 --basis-size 0",
    "oscillator": "--model oscillator --n 0 --m 1 --l 0 --p 0 --basis-size 0",
    "spherium": "--model spherium --M 1 --lmax 3",
    "angular": "--model angular --l 13 --L 1 --M 1",
}


@pytest.mark.parametrize("command", ["curve", "criterion", "probe"])
@pytest.mark.parametrize("model", sorted(BAD_SIZES))
def test_bad_size_is_usage_error(capsys, command, model):
    code, out, err = run(capsys, command, *BAD_SIZES[model].split(), *SAMPLES[command])
    assert code == 2
    assert err.startswith("error:") and out == ""


# one state twice: the default partner -M of M = 0, an LG mode given as its
# own partner, and the oscillator's m = p = 0, whose default partner is itself
SELF_PAIRS = {
    "angular": "--model angular --l 1 --L 1 --M 0",
    "spherium": "--model spherium --M 0",
    "lg": "--model lg --l 1 --m 1 --l2 1 --m2 1",
    "oscillator": "--model oscillator --n 0 --m 0 --l 1 --p 0",
}


@pytest.mark.parametrize("command", ["curve", "criterion", "probe"])
@pytest.mark.parametrize("model", sorted(SELF_PAIRS))
def test_self_pair_is_usage_error(capsys, command, model):
    code, out, err = run(capsys, command, *SELF_PAIRS[model].split(), *SAMPLES[command])
    assert code == 2 and out == ""
    assert err.startswith("error: the two states coincide")


# a valid pair of each model, and flags of other models that it does not read
UNREAD = [
    pytest.param("--model angular --l 3 --L 1 --M 1", "--basis-size 0 --lmax 2", id="angular"),
    pytest.param("--model angular --l 3 --L 1 --M 1", "--lambda 0", id="angular-lambda-0"),
    pytest.param("--model oscillator --n 0 --m 1 --l 0 --p 0", "--lmax 8", id="oscillator"),
    pytest.param("--model oscillator --n 0 --m 1 --l 0 --p 0", "--Mprime -1", id="oscillator-Mprime"),
    pytest.param("--model spherium --M 1", "--l 2", id="spherium"),
    pytest.param("--model spherium --M 1", "--basis-size 10 --lambda 0.7", id="spherium-basis"),
    pytest.param("--model lg --l 1 --m 1", "--lmax 3", id="lg"),
    pytest.param("--model lg --l 1 --m 1", "--L 1", id="lg-L"),
]


@pytest.mark.parametrize("command", ["curve", "criterion", "probe"])
@pytest.mark.parametrize("pair, unread", UNREAD)
def test_unread_model_flag_is_usage_error(capsys, command, pair, unread):
    code, out, err = run(capsys, command, *pair.split(), *unread.split(), *SAMPLES[command])
    assert code == 2
    assert err.startswith("error:") and out == ""
    for flag in unread.split()[::2]:
        assert flag in err


# the shared flags each pair subcommand does not read
UNREAD_BY_COMMAND = [
    *((command, flag) for command in ("curve", "criterion")
      for flag in ("--samples 4", "--seed 3", "--tol 9")),
    ("probe", "--tol 9"),
    ("probe", "--alpha-steps 3"),  # not checked against the grid minimum: the probe has no grid
]


@pytest.mark.parametrize("command, unread", UNREAD_BY_COMMAND,
                         ids=[command + unread.split()[0] for command, unread in UNREAD_BY_COMMAND])
def test_unread_shared_flag_is_usage_error(capsys, command, unread):
    code, out, err = run(
        capsys, command, "--model", "angular", "--l", "1", "--L", "1", "--M", "1", *unread.split(),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: entconvex {command} does not read {unread.split()[0]}\n"


@pytest.mark.parametrize("command, unread", UNREAD_BY_COMMAND,
                         ids=[command + unread.split()[0] for command, unread in UNREAD_BY_COMMAND])
def test_unread_shared_config_key_is_usage_error(capsys, tmp_path, command, unread):
    cfg = tmp_path / "run.cfg"
    key, value = unread.lstrip("-").split()
    cfg.write_text(f"model = angular\nl = 1\nL = 1\nM = 1\n{key} = {value}\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: entconvex {command} does not read {unread.split()[0]}\n"


def test_unread_config_key_is_usage_error(capsys, tmp_path):
    # a config value is a flag default, and the model reads it or rejects it alike
    cfg = tmp_path / "angular.cfg"
    cfg.write_text("model = angular\nl = 3\nL = 1\nM = 1\nlambda = 0.7\n")
    code, out, err = run(capsys, "criterion", "--config", str(cfg))
    assert code == 2
    assert "--lambda" in err and out == ""


REPORT = {"s_vn", "s1", "s_ns", "s_r"}
PROBE = {"min_s_minus_2stilde", "bound_s_minus_2sns"}
# (command, arguments, the columns holding entropies, exit code)
CONVERTED = [
    pytest.param("curve", "--l 3 --L 1 --M 1 --alpha-steps 9", {"entropy"}, 0, id="curve"),
    pytest.param("criterion", "--l 3 --L 4 --M 4", REPORT, 0, id="criterion-agree"),
    # Q_c = +1 on a concave curve
    pytest.param("criterion", "--l 4 --L 5 --M 3", REPORT, 1, id="criterion-disagree"),
    pytest.param("probe", "--l 3 --L 2 --M 2 --samples 600 --seed 5", PROBE, 0, id="probe-holds"),
    # the sampled minimum dips below the bound
    pytest.param("probe", "--l 6 --L 2 --M 2 --seed 2", PROBE, 1, id="probe-dips"),
]


@pytest.mark.parametrize("base", ["e", "10"])
@pytest.mark.parametrize("command,args,entropies,want", CONVERTED)
def test_log_base_converts_bits_once(capsys, base, command, args, entropies, want):
    # the library computes in bits; --log-base scales the printed entropies
    # by ln 2 / ln b and leaves every other column and the exit code alone
    argv = [command, "--model", "angular", *args.split()]
    code2, out2, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv, "--log-base", base)
    assert code2 == code_b == want
    header, *rows2 = [line.split(",") for line in out2.strip().splitlines()]
    header_b, *rows_b = [line.split(",") for line in out_b.strip().splitlines()]
    assert header_b == header and entropies <= set(header)
    f = math.log(2.0) / math.log(LOG_BASES[base])
    assert len(rows_b) == len(rows2)
    for r2, rb in zip(rows2, rows_b):
        for name, v2, vb in zip(header, r2, rb):
            if name in entropies:
                assert float(vb) == pytest.approx(float(v2) * f, rel=1e-11, abs=1e-15), name
            else:
                assert vb == v2, name


class TestConfig:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = angular\nl = 2\nL = 2\nM = 2\nalpha-steps = 5\n# comment\n")
        code, out, _ = run(capsys, "curve", "--config", str(cfg), "--alpha-steps", "7")
        assert code == 0
        assert len(out.strip().splitlines()) == 8  # flag overrides config

    def test_config_lambda_reaches_the_coupling(self, capsys, tmp_path):
        # the config key is the flag name "lambda"; its dest is "lam"
        cfg = tmp_path / "osc.cfg"
        cfg.write_text(
            "model = oscillator\nn = 0\nm = 2\nl = 0\np = 0\nlambda = 0.7\n"
            "basis-size = 12\nalpha-steps = 5\n"
        )
        code_cfg, out_cfg, _ = run(capsys, "criterion", "--config", str(cfg))
        code_flag, out_flag, _ = run(
            capsys, "criterion", "--model", "oscillator", "--n", "0", "--m", "2",
            "--l", "0", "--p", "0", "--lambda", "0.7", "--basis-size", "12", "--alpha-steps", "5",
        )
        assert code_cfg == code_flag == 0
        assert out_cfg == out_flag

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("model = angular\nl = 1\nL = 1\nM = 1\nalpha_stepz = 9\n")
        code, out, err = run(capsys, "curve", "--config", str(cfg))
        assert code == 2
        assert "alpha_stepz" in err and out == ""

    def test_unconvertible_config_value_names_the_flag(self, capsys, tmp_path):
        # config values are converted by argparse, like the flag they set
        cfg = tmp_path / "value.cfg"
        cfg.write_text("model = angular\nl = two\nL = 1\nM = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert "argument --l:" in err and out == ""

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ValueError):
            load_config(str(cfg))


def test_svg_writer_direct(tmp_path):
    path = tmp_path / "p.svg"
    a = np.linspace(0, 1, 5)
    write_svg(str(path), a, 1.0 - a * (1 - a), 1.0, 1.0)
    assert "</svg>" in path.read_text()
