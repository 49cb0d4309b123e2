import json
import warnings

import numpy as np
import pytest

from relaxtik import fileio, synth
from relaxtik.cli import main


def test_signal_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    p = tmp_path / "sig.csv"
    fileio.write_signal_csv(p, x)
    assert np.array_equal(fileio.read_signal_csv(p), x)


def test_signal_csv_rejects_nan(tmp_path, capsys):
    p = tmp_path / "sig.csv"
    p.write_text("1.0,2.0\nnan,0.0\n")
    with pytest.raises(ValueError):
        fileio.read_signal_csv(p)
    # a ragged or non-numeric file fails with its name (numpy words the rest
    # differently across versions), and denoise exits 2 on it
    for text in ("1,0\n0,1,2\n", "1,0\nx,1\n", "1 0\n0 one\n"):
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            fileio.read_signal_csv(p)
        assert str(exc.value).startswith(f"{p}: ")
        assert main(["denoise", str(p), "--outdir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: ")
    # a file without data rows fails with its name, and numpy does not warn;
    # so do the commands that read it as a signal or as a weight file
    sig = tmp_path / "good.csv"
    fileio.write_signal_csv(sig, synth.smooth_circle_signal(4, 0))
    out = ["--outdir", tmp_path / "o"]
    commands = [["eval", p, sig], ["eval", sig, p], ["denoise", p, *out],
                ["denoise", sig, "--w", p, *out], ["denoise", sig, "--lambda", p, *out]]
    for text in ("", "\n  \n", "# a comment, only\n\n"):
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                fileio.read_signal_csv(p)
            assert str(exc.value) == f"{p}: no data rows"
            for args in commands:
                assert main([str(a) for a in args]) == 2
                assert capsys.readouterr().err == f"error: {p}: no data rows\n"


def test_signal_and_rotation_rows_take_either_separator(tmp_path):
    x = synth.smooth_sphere_signal(6, 4, 3)
    spaced, commas = tmp_path / "spaced.txt", tmp_path / "commas.csv"
    np.savetxt(spaced, x, fmt="%.17g")
    fileio.write_signal_csv(commas, x)
    assert np.array_equal(fileio.read_signal_csv(spaced), x)
    assert np.array_equal(fileio.read_rotations(commas), fileio.read_rotations(spaced))
    # the delimiter is chosen from the data rows, not from a comment's text
    for text in ("# x, y\n1 0\n0 1\n", "1 0 # a, b\n0 1\n"):
        spaced.write_text(text)
        assert np.array_equal(fileio.read_signal_csv(spaced), np.eye(2))
    (tmp_path / "nan.txt").write_text("1 0 0 0\nnan 0 0 1\n")
    with pytest.raises(ValueError):
        fileio.read_signal_csv(tmp_path / "nan.txt")
    with pytest.raises(ValueError):
        fileio.read_rotations(tmp_path / "nan.txt")


def test_rotations_quaternion_round_trip(tmp_path):
    r = synth.smooth_so3_signal(10, 1)
    p = tmp_path / "rots.txt"
    fileio.write_rotations(p, r)
    back = fileio.read_rotations(p)
    assert np.abs(back - r).max() < 1e-9


def test_rotations_matrix_round_trip(tmp_path):
    r = synth.smooth_so3_signal(10, 2)
    p = tmp_path / "rots.txt"
    np.savetxt(p, r.reshape(-1, 9), fmt="%.17g")
    assert np.array_equal(fileio.read_rotations(p), r)


def test_rotations_axis_angle_rows(tmp_path):
    from relaxtik.manifold import axis_angle_to_rotation

    rows = np.array([[0.0, 0.0, 1.0, 0.5], [1.0, 0.0, 0.0, -1.2]])
    p = tmp_path / "aa.txt"
    np.savetxt(p, rows)
    back = fileio.read_rotations(p)
    assert np.abs(back[0] - axis_angle_to_rotation([0, 0, 1], 0.5)).max() < 1e-12
    assert np.abs(back[1] - axis_angle_to_rotation([1, 0, 0], -1.2)).max() < 1e-12


def test_rotations_bad_columns(tmp_path):
    p = tmp_path / "bad.txt"
    np.savetxt(p, np.ones((3, 5)))
    with pytest.raises(ValueError):
        fileio.read_rotations(p)
    np.savetxt(p, np.full((3, 4), 2.0))  # neither unit quat nor unit axis
    with pytest.raises(ValueError):
        fileio.read_rotations(p)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (7, 5, 3)).astype(float) / 255.0
    p = tmp_path / "img.ppm"
    fileio.write_ppm(p, img)
    back = fileio.read_ppm(p)
    assert back.shape == (7, 5, 3)
    assert np.abs(back - img).max() < 1e-12  # exact on the 1/255 lattice


def test_ppm_header_comments(tmp_path):
    p = tmp_path / "img.ppm"
    payload = bytes(range(18))
    p.write_bytes(b"P6\n# comment line\n3 2\n# another\n255\n" + payload)
    img = fileio.read_ppm(p)
    assert img.shape == (2, 3, 3)
    assert np.abs(img * 255.0 - np.arange(18).reshape(2, 3, 3)).max() < 1e-12


def test_ppm_rejects_other_formats(tmp_path):
    p = tmp_path / "img.ppm"
    p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError):
        fileio.read_ppm(p)
    for content, fault in [
        (b"P6\n", "truncated header"),
        # a comment runs to the end of its line: no field is read inside one
        (b"P6\n3 2\n# 255\n", "truncated header"),
        (b"P6\n-2 -3\n255\n" + bytes(18), "width and height must be positive integers"),
        (b"P6\n3 2\n255\n" + bytes(10), "expected 18 pixel bytes, found 10"),
    ]:
        p.write_bytes(content)
        with pytest.raises(ValueError) as err:
            fileio.read_ppm(p)
        assert str(err.value) == f"{p}: {fault}"


def test_report_round_trip(tmp_path):
    p = tmp_path / "r.json"
    rep = {
        "a": np.float64(1.0 / 3.0),
        "b": np.arange(3),
        "c": {"flag": np.bool_(True)},
        "d": [np.int64(5), 2.5],
        "e": np.float32(0.1),
        "f": np.arange(6.0).reshape(2, 3) / 3.0,
        "g": np.float64(np.nan),
    }
    fileio.write_report(p, rep)
    with open(p) as fh:
        back = json.load(fh)
    assert back["a"] == pytest.approx(1.0 / 3.0, abs=0, rel=1e-16)
    assert back["b"] == [0, 1, 2]
    assert back["c"]["flag"] is True
    assert back["d"] == [5, 2.5]
    assert back["e"] == float(np.float32(0.1))
    assert back["f"] == (np.arange(6.0).reshape(2, 3) / 3.0).tolist()
    assert np.isnan(back["g"])


def _ppm_with_maxval(path, maxval):
    path.write_bytes(b"P6\n1 1\n%d\n" % maxval + bytes(6))
    return fileio.read_ppm(path)


@pytest.mark.parametrize("call, message", [
    (lambda p: fileio.write_rotations(p, np.zeros((2, 3))), "expected an"),
    (lambda p: fileio.write_rotations(p, np.zeros((2, 3, 4))), "expected an"),
    (lambda p: _ppm_with_maxval(p, 65535), "only maxval 255 is supported"),
    (lambda p: fileio.write_ppm(p, np.zeros((2, 2))), "image must have shape"),
    (lambda p: fileio.write_ppm(p, np.zeros((2, 2, 4))), "image must have shape"),
], ids=["rotations-2d", "rotations-3x4", "ppm-maxval", "ppm-gray", "ppm-rgba"])
def test_input_checks_raise(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path / "file")
