"""Preset pipelines: emitted files, verdicts, manifest structure."""
import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy import ndimage

from koopeq import experiments
from koopeq.errors import ConfigurationError


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    return experiments.run_preset("fig1", out), out


def test_fig1_file_counts(fig1):
    manifest, out = fig1
    kinds = [f["kind"] for f in manifest["files"]]
    assert kinds.count("trajectory") == 2  # one combined series file per variant
    assert kinds.count("spectrum") == 4
    assert kinds.count("comparison") == 2
    assert kinds.count("plot") == 2
    for f in manifest["files"]:
        assert (out / f["path"]).exists()
    assert (out / "fig1_manifest.json").exists()


def test_fig1_verdicts_and_parameters(fig1):
    manifest, _ = fig1
    assert manifest["verdicts"] == {"quad": "conjugate", "negcos": "conjugate"}
    for label in ("quad", "negcos"):
        params = manifest["parameters"][label]
        assert params["max_iters"] == 60
        assert params["x0_a"] == [0.1, 0.1]
        assert params["x0_b"] == [0.1, 0.0]  # image under the exact linear map


def test_fig1_trajectory_csv_layout(fig1):
    manifest, out = fig1
    lines = (out / "fig1_quad_trajectories.csv").read_text().splitlines()
    assert lines[0] == "k,algo1_0,algo1_1,algo2_0,algo2_1"
    assert len(lines) == 62  # header + 61 states (60 iterations)
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.1


def test_fig3_semi_conjugate(tmp_path):
    manifest = experiments.run_preset("fig3", tmp_path)
    # comparison is oriented with the smaller system first: algo4 into algo3
    assert manifest["verdicts"] == {"quad": "semi_conjugate_a_into_b",
                                    "negcos": "semi_conjugate_a_into_b"}
    cmp = json.loads((tmp_path / "fig3_quad_comparison.json").read_text())
    pa = [complex(re, im) for re, im in cmp["principal_a"]]
    pb = [complex(re, im) for re, im in cmp["principal_b"]]
    assert all(abs(z) < 1 for z in pa)  # algo4 side decays only
    assert any(abs(z) > 1 for z in pb)  # the growing mode is algo3's alone


def test_fig4_conjugate_via_edmd(tmp_path):
    manifest = experiments.run_preset("fig4", tmp_path)
    assert manifest["verdicts"] == {"quad": "conjugate"}
    spec5 = json.loads((tmp_path / "fig4_quad_spectrum_algo5.json").read_text())
    assert spec5["method"] == "edmd"
    assert "monomials" in spec5["dictionary"]


def test_fig5_shift_equivalence(tmp_path):
    manifest = experiments.run_preset("fig5", tmp_path)
    assert manifest["verdicts"] == {"l2": "conjugate", "logdet": "conjugate"}
    cmp = json.loads((tmp_path / "fig5_l2_comparison.json").read_text())
    assert any("first iterate" in n for n in cmp["notes"])


def test_fig2_small_resolution(tmp_path):
    manifest = experiments.run_preset("fig2", tmp_path, resolution=5)
    grid = (tmp_path / "fig2_quad_grid.csv").read_text().splitlines()
    assert len(grid) == 1 + 25  # header + 5x5 cells
    s = manifest["summaries"]["quad"]
    assert s["cells"] == 25 and s["max"] < 1e-10
    assert (tmp_path / "fig2_negcos_heatmap.svg").exists()
    assert (tmp_path / "fig2_manifest.json").exists()


def test_sweep_preset_smallest_grid(tmp_path):
    part = experiments.run_sweep_preset(2, "quad", tmp_path)
    assert part["summary"]["cells"] == 4


def test_sweep_preset_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        experiments.run_sweep_preset(1, "quad", tmp_path)
    with pytest.raises(ConfigurationError):
        experiments.run_sweep_preset(5, "cubic", tmp_path)
    with pytest.raises(ConfigurationError):
        experiments.run_preset("fig9", tmp_path)


def test_grid_csv_row_major_order(tmp_path):
    experiments.run_sweep_preset(3, "quad", tmp_path)
    rows = (tmp_path / "fig2_quad_grid.csv").read_text().splitlines()[1:]
    xi1 = [float(r.split(",")[0]) for r in rows]
    xi2 = [float(r.split(",")[1]) for r in rows]
    assert xi1 == [-2.0, -2.0, -2.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0]
    assert xi2 == [-2.0, 0.0, 2.0] * 3


@pytest.mark.parametrize("name", experiments.PRESET_NAMES)
def test_manifest_digests_match_files(tmp_path, name):
    manifest = experiments.run_preset(name, tmp_path,
                                      resolution=5 if name == "fig2" else None)
    for f in manifest["files"]:
        digest = hashlib.sha256((tmp_path / f["path"]).read_bytes()).hexdigest()
        assert digest == f["sha256"]
    listed = [f["path"] for f in manifest["files"]] + [f"{name}_manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(listed)


def test_every_svg_parses(tmp_path):
    experiments.run_all(tmp_path)
    svg = "{http://www.w3.org/2000/svg}"
    plots = sorted(tmp_path.glob("*.svg"))
    assert len(plots) == 9
    for p in plots:
        assert ET.parse(p).getroot().tag == f"{svg}svg"
    # background, one cell per grid node, 60 colourbar steps
    for oracle, rects in (("quad", 502), ("negcos", 1742)):
        root = ET.parse(tmp_path / f"fig2_{oracle}_heatmap.svg").getroot()
        assert len(root.findall(f"{svg}rect")) == rects


def _ndimage_largest(mask):
    labels, n_comp = ndimage.label(mask)  # default structure: 4-connected
    return max((int(np.sum(labels == k)) for k in range(1, n_comp + 1)), default=0)


def test_largest_component_matches_ndimage():
    rng = np.random.default_rng(1101)
    for shape in [(1, 1), (1, 9), (9, 1), (7, 7), (13, 29), (41, 41)]:
        for density in (0.0, 0.2, 0.45, 0.6, 0.9, 1.0):
            for _ in range(20):
                mask = rng.random(shape) < density
                assert experiments.largest_component(mask) == _ndimage_largest(mask)

