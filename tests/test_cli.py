import json

import numpy as np
import pytest

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
    from relaxtik.graph import grid_graph, write_edge_list

    g = grid_graph(4, 5)
    ep = tmp_path / "edges.txt"
    write_edge_list(ep, g, np.full(g.m_edges, 2.0))
    assert run(["denoise", p, "--graph", f"edgelist:{ep}",
                "--outdir", tmp_path / "g3"]) == 0
    rep = json.loads((tmp_path / "g3" / "report.json").read_text())
    assert rep["config"]["lam"] == [2.0] * g.m_edges


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
    fileio.write_rotations(p, noisy, layout="quaternion")
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
    with pytest.raises(SystemExit) as exc:
        run(["experiment", "not-an-experiment"])
    assert exc.value.code == 2


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
