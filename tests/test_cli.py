import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import relaxtik
from relaxtik import fileio, synth
from relaxtik.cli import main
from relaxtik.experiments import EXPERIMENT_DEFAULTS, run_experiment


def run(args):
    return main([str(a) for a in args])


def test_experiment_registry_names():
    assert set(EXPERIMENT_DEFAULTS) == {
        "circle-line",
        "circle-grid",
        "hue",
        "chroma",
        "so3-line",
        "so3-grid",
    }
    with pytest.raises(ValueError):
        run_experiment("nope")
    with pytest.raises(ValueError):
        run_experiment("circle-line", overrides={"bogus": 1})


def test_startup_leaves_the_kernel_and_verifier_unimported():
    # Every module imported at startup is compiled when no bytecode is cached.
    # The synthetic-data generators serve experiments, eval and color data.
    # The verification code lives in the tests, so the package must not ship it.
    code = ("import importlib.util, sys, relaxtik, relaxtik.cli; print(sorted("
            "{'relaxtik.jacobi', 'relaxtik.synth'} & set(sys.modules)), "
            "importlib.util.find_spec('relaxtik.verify') is None)")
    src = os.path.dirname(os.path.dirname(relaxtik.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[] True"


def test_experiment_cli_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    base = ["experiment", "circle-line", "--n", 80, "--seed", 5]
    assert run(base + ["--outdir", out1]) == 0
    assert run(base + ["--outdir", out2]) == 0
    for name in ("signal.csv", "truth.csv", "noisy.csv", "trace.csv", "report.json"):
        assert (out1 / name).exists()
    assert (out1 / "signal.csv").read_bytes() == (out2 / "signal.csv").read_bytes()
    rep = json.loads((out1 / "report.json").read_text())
    assert rep["config"]["lam"] == 25.0
    assert rep["config"]["seed"] == 5
    assert rep["iterations"] >= 1
    trace = np.loadtxt(out1 / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    assert trace.shape[0] == rep["iterations"]


def test_denoise_and_eval_flow(tmp_path):
    exp = tmp_path / "exp"
    assert run(["experiment", "circle-line", "--n", 60, "--outdir", exp]) == 0
    den = tmp_path / "den"
    assert run(
        ["denoise", exp / "noisy.csv", "--graph", "line", "--lambda", 25,
         "--retract", "--outdir", den]
    ) == 0
    x = fileio.read_signal_csv(den / "signal.csv")
    assert x.shape == (60, 2)
    assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() < 1e-9
    assert run(["eval", den / "signal.csv", exp / "truth.csv",
                "--out", tmp_path / "m.json"]) == 0
    metrics = json.loads((tmp_path / "m.json").read_text())
    truth = fileio.read_signal_csv(exp / "truth.csv")
    assert metrics["rmse"] == pytest.approx(synth.rmse(x, truth), rel=1e-12)


def test_denoise_grid_spec_and_edgelist(tmp_path):
    sig = synth.smooth_circle_field(4, 5, 1)
    p = tmp_path / "sig.csv"
    fileio.write_signal_csv(p, sig)
    assert run(["denoise", p, "--graph", "grid:4x5", "--outdir", tmp_path / "g"]) == 0
    # wrong shape
    assert run(["denoise", p, "--graph", "grid:3x5", "--outdir", tmp_path / "g2"]) == 2
    # edge list with per-edge weights
    from helpers import write_edge_list
    from relaxtik.graph import grid_graph

    g = grid_graph(4, 5)
    ep = tmp_path / "edges.txt"
    write_edge_list(ep, g, np.full(g.m_edges, 2.0))
    assert run(["denoise", p, "--graph", f"edgelist:{ep}",
                "--outdir", tmp_path / "g3"]) == 0
    rep = json.loads((tmp_path / "g3" / "report.json").read_text())
    assert rep["config"]["lam"] == [2.0] * g.m_edges
    # a lambda from the flag or the config file, 1.0 included, beats the file's
    write_edge_list(ep, g, np.full(g.m_edges, 5.0))
    cases = [(["--lambda", 1], 1.0), (["--lambda", 2], 2.0)]
    for i, (key, lam) in enumerate([("lambda", 1.0), ("lambda", 2.0), ("lam", 1.0)]):
        cfgp = tmp_path / f"cfg{i}.json"
        cfgp.write_text(json.dumps({key: lam}))
        cases.append((["--config", cfgp], lam))
    for i, (extra, lam) in enumerate(cases):
        out = tmp_path / f"l{i}"
        assert run(["denoise", p, "--graph", f"edgelist:{ep}", *extra, "--outdir", out]) == 0
        assert json.loads((out / "report.json").read_text())["config"]["lam"] == lam


def test_denoise_hue_ppm(tmp_path):
    img = synth.smooth_color_image(8, 8, 2)
    noisy_hue = synth.add_vmf_noise(synth.rgb_to_hsv(img)[0].reshape(-1, 2), 10.0, 3)
    _, s, v, _ = synth.rgb_to_hsv(img)
    noisy_img = synth.hue_to_rgb(noisy_hue.reshape(8, 8, 2), s, v)
    p = tmp_path / "in.ppm"
    fileio.write_ppm(p, noisy_img)
    out = tmp_path / "out"
    assert run(["denoise", p, "--mode", "hue", "--lambda", 1, "--outdir", out]) == 0
    res = fileio.read_ppm(out / "denoised.ppm")
    assert res.shape == (8, 8, 3)
    # saturation and value channels are preserved (up to 8-bit quantization)
    _, s2, v2, _ = synth.rgb_to_hsv(res)
    assert np.abs(s2 - s).max() < 0.02
    assert np.abs(v2 - v).max() < 0.02


def test_denoise_so3_rows(tmp_path):
    rots = synth.smooth_so3_signal(40, 4)
    noisy = synth.perturb_so3_signal(rots, synth.So3NoiseParams(30, 15), 5)
    p = tmp_path / "rots.txt"
    fileio.write_rotations(p, noisy)
    out = tmp_path / "out"
    assert run(["denoise", p, "--mode", "so3", "--graph", "line",
                "--lambda", 50, "--outdir", out]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["consistent"] is True
    q = np.loadtxt(out / "signal.csv")
    assert q.shape == (40, 4)
    assert np.abs(np.linalg.norm(q, axis=1) - 1.0).max() < 1e-9


def test_config_file_precedence(tmp_path):
    sig = synth.smooth_circle_signal(30, 6)
    p = tmp_path / "sig.csv"
    fileio.write_signal_csv(p, sig)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"lambda": 7.0, "max_iter": 55}))
    out = tmp_path / "o1"
    assert run(["denoise", p, "--graph", "line", "--config", cfgp,
                "--tol", 0, "--outdir", out]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["lam"] == 7.0
    assert rep["config"]["max_iter"] == 55
    assert rep["iterations"] == 55
    # flag beats config file
    out2 = tmp_path / "o2"
    assert run(["denoise", p, "--graph", "line", "--config", cfgp,
                "--max-iter", 20, "--tol", 0, "--outdir", out2]) == 0
    rep2 = json.loads((out2 / "report.json").read_text())
    assert rep2["iterations"] == 20
    # experiment reads the same keys, "lambda" included
    out3 = tmp_path / "o3"
    assert run(["experiment", "circle-line", "--n", 30, "--config", cfgp,
                "--tol", 0, "--outdir", out3]) == 0
    rep3 = json.loads((out3 / "report.json").read_text())
    assert rep3["config"]["lam"] == 7.0
    assert rep3["iterations"] == 55
    out4 = tmp_path / "o4"
    assert run(["experiment", "circle-line", "--n", 30, "--config", cfgp,
                "--max-iter", 20, "--tol", 0, "--outdir", out4]) == 0
    assert json.loads((out4 / "report.json").read_text())["iterations"] == 20


@pytest.mark.parametrize("command", ["denoise", "experiment"])
def test_config_values_of_the_wrong_type_exit_2(tmp_path, capsys, command):
    sig = tmp_path / "sig.csv"
    fileio.write_signal_csv(sig, synth.smooth_circle_signal(10, 6))
    target = [sig, "--graph", "line"] if command == "denoise" else ["circle-line", "--n", 10]
    bad = [{"rho": None}, {"tol": [1]}, {"max_iter": 1e400}, {"max_iter": 2.7},
           {"seed": "1"}, {"threads": True}, {"rho": 10**400}, {"lambda": None}, {"w": [1.0]}]
    if command == "denoise":
        bad.append({"retract": "false"})
    for i, values in enumerate(bad):
        cfgp = tmp_path / f"bad{i}.json"
        # json writes a float beyond range as the literal Infinity
        cfgp.write_text(json.dumps(values).replace("Infinity", "1e400"))
        out = tmp_path / f"o{i}"
        assert run([command, *target, "--config", cfgp, "--outdir", out]) == 2
        key = next(iter(values))
        assert capsys.readouterr().err.startswith(f"error: {'lam' if key == 'lambda' else key} ")
        assert not out.exists()
    # integral numbers are integers, and JSON booleans are booleans
    cfgp = tmp_path / "good.json"
    good = {"max_iter": 5.0, "rho": 3, "seed": 2}
    cfgp.write_text(json.dumps({**good, "retract": True} if command == "denoise" else good))
    out = tmp_path / "good"
    assert run([command, *target, "--config", cfgp, "--tol", 0, "--outdir", out]) == 0
    assert json.loads((out / "report.json").read_text())["iterations"] == 5


def test_weight_flags_keep_numbers_as_numbers(tmp_path):
    out = tmp_path / "e"
    assert run(["experiment", "circle-line", "--n", 10, "--lambda", 7, "--w", 2,
                "--outdir", out]) == 0
    cfg = json.loads((out / "report.json").read_text())["config"]
    assert cfg["lam"] == 7.0 and isinstance(cfg["lam"], float)
    assert cfg["w"] == 2.0 and isinstance(cfg["w"], float)
    # a flag naming a file is kept as the path
    sig = tmp_path / "sig.csv"
    fileio.write_signal_csv(sig, synth.smooth_circle_signal(12, 3))
    lam = tmp_path / "lam.txt"
    lam.write_text("\n".join(["4.0"] * 11) + "\n")
    out2 = tmp_path / "d"
    assert run(["denoise", sig, "--graph", "line", "--lambda", lam, "--w", "1.5",
                "--outdir", out2]) == 0
    cfg2 = json.loads((out2 / "report.json").read_text())["config"]
    assert cfg2["lam"] == str(lam)
    assert cfg2["w"] == 1.5


def test_exit_codes(tmp_path):
    assert run(["denoise", tmp_path / "missing.csv", "--graph", "line"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,nan\n0.0,1.0\n")
    assert run(["denoise", bad, "--graph", "line"]) == 2
    sig = tmp_path / "sig.csv"
    fileio.write_signal_csv(sig, synth.smooth_circle_signal(5, 7))
    assert run(["denoise", sig, "--graph", "hexagon"]) == 2
    for flag in (["--rho", "nan"], ["--tol", "nan"], ["--rho", "inf"]):
        assert run(["denoise", sig, "--graph", "line", "--outdir", tmp_path / "o", *flag]) == 2
    assert run(["denoise", sig, "--graph", "line", "--outdir", tmp_path / "o",
                "--rho", "1e-320"]) == 3
    for threads in ("0", "-1"):
        assert run(["denoise", sig, "--graph", "line", "--outdir", tmp_path / "o",
                    "--threads", threads]) == 2
        assert run(["experiment", "circle-line", "--n", 10, "--outdir", tmp_path / "e",
                    "--threads", threads]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["experiment", "not-an-experiment"])
    assert exc.value.code == 2
    # --retract is a denoise flag only
    with pytest.raises(SystemExit) as exc:
        run(["experiment", "circle-line", "--n", 10, "--retract", "--outdir", tmp_path / "e"])
    assert exc.value.code == 2


def test_divergence_prints_only_the_error(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    fileio.write_signal_csv(sig, synth.smooth_circle_signal(5, 7))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["denoise", sig, "--graph", "line", "--outdir", tmp_path / "o",
                  "--rho", "1e-320"])
    assert rc == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: solver diverged: non-finite iterate at iteration 1"]


def test_so3_truth_takes_the_signal_sign(tmp_path):
    # at this size and seed the lifted signal and the canonical truth
    # quaternions disagree in sign on some rows
    exp = tmp_path / "exp"
    assert run(["experiment", "so3-line", "--n", 200, "--seed", 0, "--outdir", exp]) == 0
    x = fileio.read_signal_csv(exp / "signal.csv")
    t = fileio.read_signal_csv(exp / "truth.csv")
    assert np.abs(np.linalg.norm(t, axis=1) - 1.0).max() < 1e-12
    sq = np.minimum(np.sum((x - t) ** 2, axis=1), np.sum((x + t) ** 2, axis=1))
    assert run(["eval", exp / "signal.csv", exp / "truth.csv",
                "--out", tmp_path / "m.json"]) == 0
    rmse = json.loads((tmp_path / "m.json").read_text())["rmse"]
    assert rmse == pytest.approx(np.sqrt(np.mean(sq)), rel=1e-12)
    assert run(["eval", exp / "noisy.csv", exp / "truth.csv",
                "--out", tmp_path / "n.json"]) == 0
    assert rmse < json.loads((tmp_path / "n.json").read_text())["rmse"]


def test_so3_files_round_trip_between_commands(tmp_path):
    exp = tmp_path / "exp"
    assert run(["experiment", "so3-line", "--n", 40, "--outdir", exp]) == 0
    # denoise reads the experiment's comma-separated quaternion rows ...
    den = tmp_path / "den"
    assert run(["denoise", exp / "noisy.csv", "--mode", "so3", "--graph", "line",
                "--lambda", 50, "--outdir", den]) == 0
    # ... and eval reads denoise's whitespace-separated output
    assert run(["eval", den / "signal.csv", exp / "truth.csv",
                "--out", tmp_path / "m.json"]) == 0
    q = np.loadtxt(den / "signal.csv")
    assert q.shape == (40, 4)
    t = fileio.read_signal_csv(exp / "truth.csv")
    metrics = json.loads((tmp_path / "m.json").read_text())
    assert metrics["rmse"] == pytest.approx(synth.rmse(q, t), rel=1e-12)
    for name, text in (("nan.csv", "1,0,0,0\nnan,0,0,1\n"),
                       ("nan.txt", "1 0 0 0\nnan 0 0 1\n")):
        bad = tmp_path / name
        bad.write_text(text)
        assert run(["denoise", bad, "--mode", "so3", "--graph", "line",
                    "--outdir", tmp_path / "o"]) == 2
        assert run(["eval", bad, bad]) == 2


def test_eval_shape_mismatch(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    fileio.write_signal_csv(a, np.ones((3, 2)))
    fileio.write_signal_csv(b, np.ones((4, 2)))
    assert run(["eval", a, b]) == 2


def test_hue_experiment_report(tmp_path):
    out = tmp_path / "hue"
    assert run(["experiment", "hue", "--height", 12, "--width", 12,
                "--outdir", out]) == 0
    for name in ("image.ppm", "noisy_image.ppm", "denoised_image.ppm"):
        assert (out / name).exists()
    rep = json.loads((out / "report.json").read_text())
    assert abs(rep["mean_sphere_distance"]) < 1e-6
