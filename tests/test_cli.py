"""Command-line interface tests.

Every subcommand runs in-process via main(argv).  Outputs are compared
against direct library calls; 17-significant-digit CSV must round-trip
doubles bit-exactly.  Exit codes: 0 success, 1 usage, 2 validation/check
failure.
"""

import csv
import json
import math
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest

from zonoid_lab import curve_io
from zonoid_lab.cli import main
from zonoid_lab.densities import DensityModel
from zonoid_lab.mc import SimConfig, mc_check_propositions, simulate_terminal
from zonoid_lab.peacocks import (G_map, H_map, PeacockSpec, TimeChange, boundary_surface,
                                 call_surface)
from zonoid_lab.pricing import (ModelParams, bachelier_call, black_scholes_call,
                                family_call_linear, family_prices, geometric_family_curve,
                                linear_family_curve, survival)
from zonoid_lab.zonoid import (calls_from_upper_boundary,
                               upper_boundary_from_calls)

GAUSS = DensityModel.gaussian()


def run_cli(*argv):
    return main(list(argv))


def read_csv_text(text):
    rows = list(csv.reader(text.strip().splitlines()))
    header = tuple(rows[0])
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return header, data


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    assert run_cli() == 1
    assert run_cli("price", "--bogus-flag", "1") == 1
    assert run_cli("price", "--k-grid", "nonsense") == 1
    assert run_cli("frobnicate") == 1
    assert run_cli("price", "--k", "1") == 1  # neither --model nor --family
    assert run_cli("price", "--model", "bachelier", "--family", "linear",
                   "--k", "1") == 1
    assert run_cli("calls", "--k-grid", "0:1:3") == 1  # missing --boundary
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run_cli("--help") == 0
    capsys.readouterr()


def test_validation_errors_exit_2(capsys):
    assert run_cli("implied", "--c", "1.5", "--k", "1") == 2
    assert run_cli("price", "--model", "bachelier", "--s0", "1", "--sigma",
                   "-2", "--k", "1") == 2
    capsys.readouterr()


def test_two_point_certificate_grid_is_one_error_line(capsys):
    assert run_cli("certify", "--family", "linear", "--p-grid", "0:1:2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: pgrid ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text,argv", [
    ("p,Chat\n0,abc\n1,1\n", ("calls", "--boundary", "{path}", "--k-grid", "0:1:3")),
    ("p,Chat\n0,0\n1\n", ("calls", "--boundary", "{path}", "--k-grid", "0:1:3")),
    ("K,C\n-1,1\n0,zero\n1,0\n", ("boundary", "--calls", "{path}", "--mean", "0")),
], ids=["calls-word", "calls-ragged", "boundary-word"])
def test_malformed_csv_is_one_error_line(tmp_path, capsys, text, argv):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert run_cli(*(a.format(path=path) for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: line ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("calls", "--boundary", "{tmp}/missing.csv", "--k-grid", "0:1:3"),
    ("price", "--model", "bachelier", "--k", "1", "--out", "{tmp}/no-dir/x.csv"),
], ids=["read", "write"])
def test_path_that_cannot_be_opened_exits_1(tmp_path, capsys, argv):
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1
    assert "Traceback" not in err


# exits no other test runs: argv ({tmp} holds boundary.csv and calls.csv),
# exit code, a fragment of the one error line
EXIT_CODES = {
    "y-kind table without y-table": (
        ("certify", "--family", "linear", "--t-grid", "0.25:4:4", "--y-kind", "table"), 2,
        "--y-table is required"),
    "two curve sources": (("boundary", "--model", "bachelier", "--atoms", "0,1",
                           "--weights", "0.5,0.5"), 1, "exactly one of --calls"),
    "atoms without weights": (("boundary", "--atoms", "0,1"), 1, "--atoms requires --weights"),
    "grid 0:1:1": (("price", "--model", "bachelier", "--k-grid", "0:1:1"), 1, "bad grid"),
    "grid 1:0:5": (("price", "--model", "bachelier", "--k-grid", "1:0:5"), 1, "bad grid"),
    "grid a:1:5": (("price", "--model", "bachelier", "--k-grid", "a:1:5"), 1, "bad grid"),
    "boundary --calls on a p,Chat file": (
        ("boundary", "--calls", "{tmp}/boundary.csv", "--mean", "0"), 2, "header K,C"),
    "calls --boundary on a K,C file": (
        ("calls", "--boundary", "{tmp}/calls.csv", "--k-grid", "0:1:3"), 2, "header p,Chat"),
}


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_exit_codes(tmp_path, capsys, case):
    argv, code, fragment = EXIT_CODES[case]
    (tmp_path / "boundary.csv").write_text("p,Chat\n0,0\n0.5,0.5\n1,0.5\n")
    (tmp_path / "calls.csv").write_text("K,C\n-1,1\n0,0\n1,0\n")
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == code
    captured = capsys.readouterr()
    assert captured.out == "" and fragment in captured.err


def test_readme_commands_exit_as_documented(tmp_path, monkeypatch, capsys):
    # the README's bash block of CLI examples, line by line and in order: a
    # later line reads what an earlier one wrote
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = next(b for b in re.findall(r"```bash\n(.*?)```", text, re.S) if "zonoid-lab" in b)
    commands = [line for line in block.splitlines() if line.startswith("zonoid-lab ")]
    assert len(commands) > 20
    monkeypatch.chdir(tmp_path)
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        assert (line, run_cli(*argv)) == (line, 2 if line.endswith("# fails") else 0)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# One output path: stdout and a file get the same bytes
# ---------------------------------------------------------------------------

def _no_constant(token):
    raise AssertionError(f"non-finite JSON token {token}")


@pytest.mark.parametrize("fmt,argv", [
    ("csv", ("price", "--model", "black_scholes", "--k-grid", "0.5:2:7")),
    ("json", ("boundary", "--atoms", "0,1", "--weights", "0.5,0.5", "--p-grid", "0:1:11",
              "--format", "json")),
    ("csv", ("calls", "--boundary", "{boundary}", "--mean", "0", "--k-grid=-3:3:31")),
    ("csv", ("surface", "--family", "linear", "--s", "0", "--t-grid", "1:2:2",
             "--p-grid", "0:1:5")),
    ("json", ("certify", "--family", "linear", "--density", "cauchy",
              "--t-grid", "0.25:4:4", "--p-grid", "0:1:101")),
    ("json", ("implied", "--density", "gaussian", "--c", "0", "--k", "1", "--method", "min")),
    ("csv", ("localvol", "--from", "closed", "--family", "linear", "--s0", "0",
             "--sigma", "0.5", "--t", "1", "--k", "0", "--k", "0.5")),
    ("json", ("simulate", "--model", "bachelier", "--n", "2000", "--seed", "7", "--report",
              "--p-grid", "0.1:0.9:9")),
    ("csv", ("recover", "--mode", "h", "--density", "logistic", "--x", "0.5", "--x", "1")),
    ("json", ("density-check", "--density", "cauchy")),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_both_sinks_write_the_same_bytes(tmp_path, capsysbinary, fmt, argv):
    boundary = tmp_path / "boundary.csv"
    assert run_cli("boundary", "--model", "bachelier", "--s0", "0",
                   "--p-grid", "0:1:51", "--out", str(boundary)) == 0
    argv = [a.format(boundary=boundary) for a in argv]
    code = run_cli(*argv, "--out", "-")
    stdout = capsysbinary.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["boundary.csv"]
    out = tmp_path / "out.dat"
    assert run_cli(*argv, "--out", str(out)) == code
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == stdout and stdout
    if fmt == "json":
        json.loads(stdout, parse_constant=_no_constant)
    sidecar = tmp_path / "out.dat.meta.json"
    assert sidecar.exists() == (argv[0] == "surface")
    if sidecar.exists():
        json.loads(sidecar.read_bytes(), parse_constant=_no_constant)


# ---------------------------------------------------------------------------
# density-check
# ---------------------------------------------------------------------------

def test_density_check_gaussian_passes(capsys):
    assert run_cli("density-check", "--density", "gaussian") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_concave"] is True
    assert payload["witness"] is None


def test_density_check_cauchy_fails_with_witness(capsys):
    assert run_cli("density-check", "--density", "cauchy") == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_concave"] is False
    assert payload["max_violation"] > 0.0
    x1, x2, x3 = payload["witness"]
    assert x1 < x2 < x3
    assert abs(abs(x2) - math.sqrt(3.0)) < 0.2  # curvature flips at |x|=sqrt 3


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------

def test_price_model_matches_library(capsys):
    assert run_cli("price", "--model", "bachelier", "--s0", "0", "--sigma", "1",
                   "--t", "1", "--k", "0", "--k-grid=-1:1:3") == 0
    header, data = read_csv_text(capsys.readouterr().out)
    assert header == ("K", "C", "survival")
    params = ModelParams(0.0, 1.0, 1.0)
    gauss = DensityModel.gaussian()
    for k, c, sv in data:
        assert c == family_call_linear(gauss, 0.0, 1.0, k)  # bit-exact via %.17g
        assert sv == survival("linear", gauss, 0.0, 1.0, k)
        assert abs(c - bachelier_call(params, k)) <= 1e-14


def test_price_family_matches_library(capsys):
    assert run_cli("price", "--family", "linear", "--density", "logistic",
                   "--s0", "0", "--sigma", "1", "--t", "1",
                   "--k", "0.5", "--k", "0") == 0
    _, data = read_csv_text(capsys.readouterr().out)
    logistic = DensityModel.logistic()
    for k, c, sv in data:
        assert c == family_call_linear(logistic, 0.0, 1.0, k)


@pytest.mark.parametrize("argv,kind,density", [
    (["--model", "bachelier", "--s0", "0.2", "--sigma", "0.9", "--t", "1.1",
      "--k-grid=-3:3:201"], "linear", "gaussian"),
    (["--model", "black_scholes", "--s0", "1.2", "--sigma", "0.4", "--t", "0.8",
      "--k-grid=0.05:4:201"], "geometric", "gaussian"),
    (["--family", "linear", "--density", "logistic", "--s0", "0.1", "--sigma", "0.8",
      "--t", "1", "--k-grid=-1.5:1.5:201"], "linear", "logistic"),
    (["--family", "geometric", "--density", "logistic", "--s0", "1.0", "--sigma", "0.7",
      "--t", "1.3", "--k-grid=0:4:201"], "geometric", "logistic"),
], ids=["bachelier", "black_scholes", "linear", "geometric"])
def test_price_k_grid_equals_family_prices(capsys, argv, kind, density):
    assert run_cli("price", *argv) == 0
    _, data = read_csv_text(capsys.readouterr().out)
    flags = dict(zip(argv[::2], argv[1::2]))
    s0, sigma, t = float(flags["--s0"]), float(flags["--sigma"]), float(flags["--t"])
    ks = data[:, 0]
    assert ks.size == 201
    call, surv, _ = family_prices(kind, DensityModel(density), s0, sigma * math.sqrt(t), ks)
    assert np.array_equal(data[:, 1], call)
    assert np.array_equal(data[:, 2], surv)
    if "--model" in flags:  # the gaussian family member is the model
        price_fn = bachelier_call if kind == "linear" else black_scholes_call
        want = price_fn(ModelParams(s0, sigma, t), ks)
        assert np.max(np.abs(call - want)) <= 1e-14 * max(1.0, abs(s0))


@pytest.mark.parametrize("sub,extra", [
    ("price", ["--k-grid=0.05:4:201", "--k", "0"]),
    ("boundary", ["--p-grid", "0:1:101"]),
    ("boundary", ["--p-grid", "0:1:11", "--format", "json"]),
])
@pytest.mark.parametrize("model,kind", [("bachelier", "linear"),
                                        ("black_scholes", "geometric")])
def test_model_route_is_the_gaussian_family_route(capsys, sub, extra, model, kind):
    common = ["--s0", "1.3", "--sigma", "0.45", "--t", "1.7"] + extra
    assert run_cli(sub, "--model", model, *common) == 0
    via_model = capsys.readouterr().out
    assert run_cli(sub, "--family", kind, "--density", "gaussian", *common) == 0
    assert via_model == capsys.readouterr().out


def test_price_logistic_linear_edge_strike(capsys):
    # K = -0.7 sits an ulp inside the reachable range; it used to exit 2
    assert run_cli("price", "--family=linear", "--density=logistic", "--s0=0.1",
                   "--sigma=0.8", "--t=1", "--k-grid=-2:2:2001") == 0
    _, data = read_csv_text(capsys.readouterr().out)
    i = int(np.argmin(np.abs(data[:, 0] + 0.7)))
    assert abs(data[i, 1] - (0.1 - data[i, 0])) <= 1.2e-16
    assert np.all(np.isfinite(data))


def test_price_zero_maturity_is_intrinsic(capsys):
    assert run_cli("price", "--model", "black_scholes", "--t", "0",
                   "--k", "0.5", "--k", "2") == 0
    _, data = read_csv_text(capsys.readouterr().out)
    assert data[0][1] == 0.5 and data[0][2] == 1.0
    assert data[1][1] == 0.0 and data[1][2] == 0.0


def test_price_to_file_17_digit_round_trip(tmp_path, capsys):
    out = tmp_path / "prices.csv"
    assert run_cli("price", "--model", "black_scholes", "--k-grid", "0.5:2:7",
                   "--out", str(out)) == 0
    header, cols = curve_io.read_table(str(out))
    assert header == ("K", "C", "survival")
    from zonoid_lab.pricing import black_scholes_call, family_call_geometric
    params = ModelParams(1.0, 1.0, 1.0)
    for k, c in zip(cols[0], cols[1]):
        assert c == family_call_geometric(DensityModel.gaussian(), 1.0, 1.0, float(k))
        assert abs(c - black_scholes_call(params, float(k))) <= 1e-14
    capsys.readouterr()


# ---------------------------------------------------------------------------
# boundary / calls round trip through files
# ---------------------------------------------------------------------------

def test_boundary_default_p_grid_is_the_library_default(capsys):
    assert run_cli("boundary", "--model", "black_scholes", "--sigma", "0.7") == 0
    header, data = read_csv_text(capsys.readouterr().out)
    direct = upper_boundary_from_calls(geometric_family_curve(GAUSS, 1.0, 0.7))
    assert np.array_equal(data[:, 0], direct.probs)
    assert np.array_equal(data[:, 1], direct.values)


def test_boundary_and_calls_round_trip(tmp_path, capsys):
    bfile = tmp_path / "boundary.csv"
    assert run_cli("boundary", "--model", "bachelier", "--s0", "0",
                   "--p-grid", "0:1:201", "--out", str(bfile)) == 0
    loaded = curve_io.read_curve_csv(str(bfile))
    direct = upper_boundary_from_calls(linear_family_curve(GAUSS, 0.0, 1.0),
                                       np.linspace(0.0, 1.0, 201))
    assert np.array_equal(loaded.values, direct.values)  # %.17g bit-exact

    cfile = tmp_path / "calls.csv"
    assert run_cli("calls", "--boundary", str(bfile), "--mean", "0",
                   "--k-grid=-3:3:121", "--out", str(cfile)) == 0
    curve = curve_io.read_curve_csv(str(cfile), mean=0.0)
    want = calls_from_upper_boundary(loaded, np.linspace(-3.0, 3.0, 121))
    assert np.array_equal(curve.values, want.values)
    capsys.readouterr()


def test_boundary_from_calls_needs_mean_off_the_asymptote(tmp_path, capsys):
    ks = np.linspace(-0.5, 5.0, 501)
    cfile = tmp_path / "calls.csv"
    curve_io.write_table(str(cfile), ("K", "C"), ks,
                         linear_family_curve(GAUSS, 0.0, 1.0)(ks))
    # the grid stops short of the intrinsic asymptote: the mean cannot be
    # inferred, and a stated mean fails the left-asymptote check
    assert run_cli("boundary", "--calls", str(cfile), "--p-grid", "0:1:11") == 2
    assert "pass the mean" in capsys.readouterr().err
    assert run_cli("boundary", "--calls", str(cfile), "--mean", "0",
                   "--p-grid", "0:1:11") == 2
    capsys.readouterr()
    ks = np.linspace(-6.0, 6.0, 1201)
    curve_io.write_table(str(cfile), ("K", "C"), ks,
                         linear_family_curve(GAUSS, 0.0, 1.0)(ks))
    assert run_cli("boundary", "--calls", str(cfile), "--p-grid", "0:1:11") == 0
    header, data = read_csv_text(capsys.readouterr().out)
    assert abs(data[-1, 1]) <= 1e-8


def test_boundary_from_atoms(capsys):
    assert run_cli("boundary", "--atoms", "0,1", "--weights", "0.5,0.5",
                   "--p-grid", "0:1:5") == 0
    header, data = read_csv_text(capsys.readouterr().out)
    assert header == ("p", "Chat")
    want = np.minimum(data[:, 0], 0.5)
    assert np.array_equal(data[:, 1], want)


def test_boundary_json_envelope(tmp_path, capsys):
    out = tmp_path / "boundary.json"
    assert run_cli("boundary", "--model", "black_scholes", "--p-grid", "0:1:11",
                   "--format", "json", "--out", str(out)) == 0
    with open(out) as fh:
        env = json.load(fh)
    assert env["kind"] == "zonoid-boundary"
    assert env["mean"] == 1.0
    assert "provenance" in env
    loaded = curve_io.read_curve_json(str(out))
    assert loaded.values[0] == 0.0 and loaded.values[-1] == 1.0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

def test_surface_file_round_trip(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    assert run_cli("surface", "--family", "geometric", "--density", "gaussian",
                   "--s", "1", "--t-grid", "0.5:2:4", "--p-grid", "0:1:9",
                   "--out", str(out)) == 0
    grid = curve_io.read_surface_csv(str(out))
    spec = PeacockSpec("geometric", DensityModel.gaussian(), 1.0,
                       TimeChange.sqrt(1.0))
    want = boundary_surface(spec, np.linspace(0.5, 2.0, 4), np.linspace(0, 1, 9))
    assert grid.axis_kind == "zonoid-space"
    assert np.array_equal(grid.values, want.values)
    assert grid.meta["family"] == "geometric"
    capsys.readouterr()


def test_surface_stdout_matrix(capsys):
    assert run_cli("surface", "--family", "linear", "--s", "0",
                   "--t-grid", "1:2:2", "--p-grid", "0:1:5") == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0][0] == ""  # empty corner, then the p axis
    assert [float(v) for v in rows[0][1:]] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert float(rows[1][0]) == 1.0 and float(rows[2][0]) == 2.0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_gaussian_passes(capsys):
    assert run_cli("certify", "--family", "linear", "--density", "gaussian",
                   "--s", "0", "--t-grid", "0.25:4:6",
                   "--p-grid", "0:1:101") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["kellerer"]["ok"] is True


def test_certify_cauchy_fails(capsys):
    assert run_cli("certify", "--family", "linear", "--density", "cauchy",
                   "--s", "0", "--t-grid", "0.25:4:6",
                   "--p-grid", "0:1:101") == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["concavity"]["is_concave"] is False
    assert payload["concavity"]["witness"] is not None


def test_certify_decreasing_table_fails_kellerer(capsys):
    assert run_cli("certify", "--family", "geometric", "--y-kind", "table",
                   "--y-table", "0:1,1:0.8,2:0.55,3:0.35,4:0.2",
                   "--t-grid", "0.5:3.5:7", "--p-grid", "0:1:101") == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["concavity"]["is_concave"] is True
    assert payload["kellerer"]["ok"] is False


# ---------------------------------------------------------------------------
# implied
# ---------------------------------------------------------------------------

def test_implied_min_example(capsys):
    assert run_cli("implied", "--density", "gaussian", "--c", "0.382925",
                   "--k", "1", "--method", "min") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "min"
    assert abs(payload["y_star"] - 1.0) < 1e-4
    assert 0.0 < payload["p_hat"] < 1.0


def test_implied_root_has_null_phat(capsys):
    assert run_cli("implied", "--c", "0.38292492254802624", "--k", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "root"
    assert payload["p_hat"] is None
    assert abs(payload["y_star"] - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# localvol
# ---------------------------------------------------------------------------

def read_localvol_text(text):
    rows = list(csv.reader(text.strip().splitlines()))
    header = tuple(rows[0])
    data = np.array([[float(v) for v in r[:3]] for r in rows[1:]])
    methods = [r[3] for r in rows[1:]]
    return header, data, methods


def test_localvol_closed_flat_gaussian(capsys):
    assert run_cli("localvol", "--from", "closed", "--family", "linear",
                   "--density", "gaussian", "--s0", "0", "--sigma", "0.5",
                   "--t", "1", "--t", "4", "--k", "0", "--k", "0.3") == 0
    header, data, methods = read_localvol_text(capsys.readouterr().out)
    assert header == ("t", "K", "sigma_sq", "method")
    assert np.allclose(data[:, 2], 0.25, atol=1e-12)
    assert set(methods) == {"closed-form"}


def test_localvol_fd_routes(capsys):
    assert run_cli("localvol", "--from", "calls", "--family", "linear",
                   "--density", "gaussian", "--s0", "0", "--sigma", "1",
                   "--t", "1", "--k", "0") == 0
    _, data, methods = read_localvol_text(capsys.readouterr().out)
    assert data[0][2] == pytest.approx(1.0, abs=1e-2)
    assert methods == ["fd-calls"]

    assert run_cli("localvol", "--from", "boundary", "--family", "linear",
                   "--density", "gaussian", "--s0", "0", "--sigma", "1",
                   "--t", "1", "--p", "0.5") == 0
    _, data, methods = read_localvol_text(capsys.readouterr().out)
    assert abs(data[0][1]) < 1e-6  # strike = boundary slope = s0 at p = 1/2
    assert data[0][2] == pytest.approx(1.0, abs=1e-2)
    assert methods == ["fd-boundary"]


@pytest.mark.parametrize("argv,message", [
    (("--from", "calls", "--family", "linear", "--t", "0.001", "--k", "1"),
     "error: --t 0.001 needs a margin of 2 steps (0.002) inside [0.0, inf]"),
    (("--from", "boundary", "--family", "linear", "--t", "1", "--p", "0.001"),
     "error: --p 0.001 needs a margin of 2 steps (0.002) inside [0.0, 1.0]"),
    (("--from", "boundary", "--family", "linear", "--t", "1", "--p", "0.9985"),
     "error: --p 0.9985 needs a margin of 2 steps (0.002) inside [0.0, 1.0]"),
    (("--from", "calls", "--family", "geometric", "--t", "1", "--k", "0.001"),
     "error: --k 0.001 needs a margin of 2 steps (0.002) inside [0.0, inf]"),
], ids=["t", "p-low", "p-high", "k-geometric"])
def test_localvol_stencil_must_fit_the_domain(capsys, argv, message):
    # the 5-point stencils of --h-t, --h-p, --h-k around the point given
    assert run_cli("localvol", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("--from", "calls", "--family", "geometric", "--t", "1", "--k", "0.2", "--h-k", "0.1"),
    ("--from", "calls", "--family", "linear", "--t", "0.002", "--k", "1.01"),
    ("--from", "boundary", "--family", "linear", "--t", "1", "--p", "0.002", "--p", "0.998"),
], ids=["k-geometric", "t-linear", "p-both-ends"])
def test_localvol_stencil_at_the_margin_runs(capsys, argv):
    assert run_cli("localvol", *argv) == 0
    capsys.readouterr()


def test_localvol_boundary_needs_p(capsys):
    assert run_cli("localvol", "--from", "boundary", "--family", "linear",
                   "--t", "1") == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_prices_match_library(capsys):
    assert run_cli("simulate", "--model", "bachelier", "--t", "1", "--n", "4000",
                   "--seed", "3", "--antithetic", "--k-grid=-1:1:3") == 0
    header, data = read_csv_text(capsys.readouterr().out)
    assert header == ("K", "mc_value", "std_error")
    sample = simulate_terminal(SimConfig("bachelier", 1.0, 4000, 3,
                                         antithetic=True))
    for k, v, se in data:
        pairs = 0.5 * (np.maximum(sample - k, 0.0)[0::2]
                       + np.maximum(sample - k, 0.0)[1::2])
        assert v == float(np.sum(pairs) / pairs.size)
        assert se > 0.0


def test_simulate_report(capsys):
    code = run_cli("simulate", "--model", "black_scholes", "--t", "1",
                   "--n", "50000", "--seed", "17", "--antithetic", "--report")
    payload = json.loads(capsys.readouterr().out)
    want = mc_check_propositions(SimConfig("black_scholes", 1.0, 50000, 17,
                                           antithetic=True))
    assert code == (0 if want.ok else 2)
    assert payload["ok"] == want.ok
    assert payload["max_dev_se_units"] == want.max_dev_se_units


def test_simulate_needs_grid_or_report(capsys):
    assert run_cli("simulate", "--model", "bachelier") == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------

def test_recover_mode_g(capsys):
    assert run_cli("recover", "--mode", "g", "--density", "gaussian",
                   "--p-grid", "0.1:0.9:9") == 0
    header, data = read_csv_text(capsys.readouterr().out)
    assert header == ("p", "x")
    gauss = DensityModel.gaussian()
    for p, x in data:
        assert x == pytest.approx(float(gauss.quantile(p)), abs=1e-6)


def test_recover_mode_h(capsys):
    assert run_cli("recover", "--mode", "h", "--density", "logistic",
                   "--p0", "0.5", "--x", "0.5", "--x", "1.0") == 0
    header, data = read_csv_text(capsys.readouterr().out)
    assert header == ("x", "F")
    logistic = DensityModel.logistic()
    for x, f in data:
        assert f == pytest.approx(float(logistic.cdf(x)), abs=1e-12)


def test_recover_mode_h_needs_x(capsys):
    assert run_cli("recover", "--mode", "h") == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("price", "--family", "linear", "--t=-1", "--k", "0"),
    ("boundary", "--family", "linear", "--t=-1"),
])
def test_negative_maturity_is_a_validation_error(capsys, argv):
    # both used to die in math.sqrt with an uncaught ValueError
    assert run_cli(*argv) == 2
    assert "t must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("route", [("--family", "linear"), ("--family", "geometric"),
                                   ("--model", "black_scholes"), ("--model", "bachelier"),
                                   ("--family", "linear", "--density", "cauchy"),
                                   ("--family", "geometric", "--density", "cauchy")])
def test_boundary_at_zero_maturity_is_the_point_mass(capsys, route):
    # the family curve at y = 0 is (s - K)^+, whose boundary is s p; both
    # used to exit 2 ("call curve domain must be a finite interval"), and
    # with a density that is not log-concave ("needs a log-concave model")
    assert run_cli("boundary", *route, "--t", "0", "--s0", "1.5", "--p-grid", "0:1:11") == 0
    header, data = read_csv_text(capsys.readouterr().out)
    assert header == ("p", "Chat")
    assert np.array_equal(data[:, 1], 1.5 * data[:, 0])


@pytest.mark.parametrize("argv", [
    ("price", "--model", "bachelier"),
    ("price", "--k", "1"),
    ("surface", "--family", "linear", "--space", "call", "--t-grid", "0:1:3"),
    ("localvol", "--from", "boundary", "--family", "linear", "--t", "1"),
])
def test_handler_usage_errors_name_their_subcommand(capsys, argv):
    # errors found inside a handler print its subparser's prog and usage,
    # as argparse's own errors do
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"zonoid-lab {argv[0]}: error:")
    assert f"usage: zonoid-lab {argv[0]} [-h]" in err


def test_surface_call_space_and_linear_time_change(capsys):
    assert run_cli("surface", "--family", "linear", "--density", "logistic", "--s", "0.5",
                   "--y-kind", "linear", "--y-scale", "0.7", "--space", "call",
                   "--t-grid", "0:1:3", "--k-grid=-1:2:7") == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    spec = PeacockSpec("linear", DensityModel.logistic(), 0.5, TimeChange.linear(0.7))
    want = call_surface(spec, np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 2.0, 7))
    assert [float(v) for v in rows[0][1:]] == want.axis.tolist()
    assert [float(r[0]) for r in rows[1:]] == want.times.tolist()
    assert np.array_equal(np.array([[float(v) for v in r[1:]] for r in rows[1:]]), want.values)
    # the first row is Y(0) = 0: the intrinsic values of the point mass at s
    assert np.array_equal(want.values[0], np.maximum(0.5 - want.axis, 0.0))


@pytest.mark.parametrize("argv", [
    ("--model", "black_scholes", "--sigma", "0.01", "--t", "1e-6"),
    ("--model", "black_scholes", "--sigma", "1e-5"),
    ("--model", "black_scholes", "--sigma", "1e-17"),
    ("--family", "linear", "--density", "logistic", "--s0", "100", "--sigma", "1e-15"),
])
def test_boundary_at_small_levels(capsys, argv):
    # these used to exit 2: "call curve must be convex" (rounding), or
    # "domain must be a finite interval" (a collapsed strike image)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("boundary", *argv, "--p-grid", "0:1:11") == 0
    out = capsys.readouterr()
    assert out.err == ""
    header, data = read_csv_text(out.out)
    s = 100.0 if "100" in argv else 1.0
    assert np.max(np.abs(data[:, 1] - s * data[:, 0])) <= 1e-5 * s


def test_price_at_a_vanishing_level_is_quiet(capsys):
    # the gaussian pdf overflows to its limit 0 far out; no warning reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("price", "--family", "linear", "--density", "gaussian", "--s0", "1",
                       "--sigma", "1e-300", "--k", "0.5") == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert read_csv_text(out.out)[1].tolist() == [[0.5, 0.49999999999999994, 1.0]]
