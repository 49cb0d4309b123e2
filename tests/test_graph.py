import time

import numpy as np
import pytest

from relaxtik import cli, fileio, synth
from relaxtik.fileio import read_edge_list
from relaxtik.graph import (
    Graph,
    Weights,
    degree_table,
    from_edge_pairs,
    grid_graph,
    line_graph,
)

from helpers import write_edge_list


def test_line_graph_structure():
    g = line_graph(5)
    assert g.n_vertices == 5
    assert g.m_edges == 4
    assert g.edges.tolist() == [[1, 2], [2, 3], [3, 4], [4, 5]]
    assert g.first.tolist() == [0, 1, 2, 3]
    assert g.second.tolist() == [1, 2, 3, 4]


def test_index_arrays_are_computed_once_and_read_only():
    g = grid_graph(3, 4)
    for name in ("first", "second", "slots"):
        a = getattr(g, name)
        assert getattr(g, name) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert g.slots.tolist() == g.first.tolist() + g.second.tolist()


def test_grid_graph_structure():
    g = grid_graph(2, 3)
    # 1 2 3
    # 4 5 6
    assert g.n_vertices == 6
    horiz = [[1, 2], [2, 3], [4, 5], [5, 6]]
    vert = [[1, 4], [2, 5], [3, 6]]
    assert g.edges.tolist() == horiz + vert


def test_degree_table():
    g = grid_graph(2, 3)
    assert degree_table(g).tolist() == [2, 3, 2, 2, 3, 2]
    assert degree_table(line_graph(4)).tolist() == [1, 2, 2, 1]


def test_edges_immutable():
    g = line_graph(3)
    with pytest.raises(ValueError):
        g.edges[0, 0] = 7


def test_rejects_duplicates_self_loops_disorder():
    with pytest.raises(ValueError):
        Graph(3, [[1, 2], [1, 2], [2, 3]])
    with pytest.raises(ValueError):
        from_edge_pairs(3, [[1, 1], [2, 3]])
    with pytest.raises(ValueError):
        Graph(3, [[2, 1], [2, 3]])  # must be ordered n < m
    with pytest.raises(ValueError):
        Graph(3, [[1, 4]])


def test_rejects_disconnected():
    with pytest.raises(ValueError):
        Graph(4, [[1, 2], [3, 4]])


def test_from_edge_pairs_normalizes():
    g = from_edge_pairs(3, [[2, 1], [3, 2]])
    assert g.edges.tolist() == [[1, 2], [2, 3]]


def test_line_and_grid_minimums():
    with pytest.raises(ValueError):
        line_graph(1)
    with pytest.raises(ValueError):
        grid_graph(1, 1)
    assert grid_graph(1, 4).m_edges == 3


def test_weights_validation():
    g = line_graph(3)
    wt = Weights.constant(g, 2.0, 5.0)
    wt.check_graph(g)
    assert wt.vertex_weights.tolist() == [2.0, 2.0, 2.0]
    assert wt.edge_weights.tolist() == [5.0, 5.0]
    with pytest.raises(ValueError):
        Weights(np.array([1.0, -1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Weights(np.array([1.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Weights.constant(line_graph(4), 1.0, 1.0).check_graph(g)


def test_edge_list_round_trip(tmp_path):
    g = grid_graph(3, 3)
    lam = np.linspace(0.5, 2.0, g.m_edges)
    path = tmp_path / "edges.txt"
    write_edge_list(path, g, lam)
    g2, lam2 = read_edge_list(path)
    assert g2.edges.tolist() == g.edges.tolist()
    assert np.array_equal(lam2, lam)


def test_edge_list_comments_and_no_weights(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# a comment\n1 2\n2 3  # trailing\n\n")
    g, lam = read_edge_list(path)
    assert g.edges.tolist() == [[1, 2], [2, 3]]
    assert lam is None


def test_edge_list_partial_weights_rejected(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("1 2 3.0\n2 3\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
    # every message names the file, and a bad row its line; the CLI exits 2
    signal = tmp_path / "signal.csv"
    fileio.write_signal_csv(signal, synth.smooth_circle_signal(3, 0))
    for text, message in [
        ("1 2 3.0\n2 3\n", ": edge weights must be given for all edges or none"),
        ("1 2\n# note\n2 x\n", ":3: vertex ids must be integers"),
        ("1.5 2\n", ":1: vertex ids must be integers"),
        ("1 2 heavy\n", ":1: edge weight must be a number"),
        ("1 2\n2 3 4 5\n", ":2: bad edge-list row: '2 3 4 5'"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_edge_list(path)
        assert str(exc.value) == f"{path}{message}"
        assert cli.main(["denoise", str(signal), "--graph", f"edgelist:{path}",
                         "--outdir", str(tmp_path / "out")]) == 2


def test_connectivity_check_scales_linearly():
    # a 10^6-vertex path against one O(M) numpy pass over the same edges;
    # a Python graph walk takes hundreds of such passes
    n = 1_000_000
    k = np.arange(1, n, dtype=np.int64)
    edges = np.column_stack([k, k + 1])

    def best(fn, reps):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_pass = best(lambda: np.bincount(edges[:, 0], minlength=n + 1), 5)
    t_graph = best(lambda: Graph(n, edges), 2)
    assert t_graph < 100.0 * t_pass, f"graph {t_graph:.3f} s vs one pass {t_pass:.4f} s"


def test_connectivity_check_rejects_split_graphs():
    rng = np.random.default_rng(4)
    n = 5000
    label = rng.permutation(n) + 1  # vertex order unrelated to the paths
    path = np.column_stack([label[:-1], label[1:]])
    assert from_edge_pairs(n, path).m_edges == n - 1
    for cut in (0, 1, n // 2, n - 2):
        with pytest.raises(ValueError, match="connected"):
            from_edge_pairs(n, np.delete(path, cut, axis=0))
    with pytest.raises(ValueError, match="connected"):
        Graph(n + 1, np.sort(path, axis=1))  # vertex n + 1 has no edge
    grid = grid_graph(30, 30)
    assert Graph(900, grid.edges).m_edges == grid.m_edges
    keep = (grid.edges != 450).all(axis=1)  # vertex 450 loses all its edges
    with pytest.raises(ValueError, match="connected"):
        Graph(900, grid.edges[keep])
