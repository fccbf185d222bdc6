import os
import subprocess
import sys
from xml.sax.saxutils import escape as sax_escape

import numpy as np

import flatvalley
from flatvalley.reporting import read_csv_columns, write_report_json
from flatvalley.svgplot import escape, line_plot


def test_escape_matches_saxutils():
    for text in ["a < b > c & d", "&amp;", "<<&&>>", "&lt;eps&gt;", "plain", ""]:
        assert escape(text) == sax_escape(text)


def test_import_leaves_out_the_network_stack():
    # xml.sax.saxutils alone would pull in urllib.request, http.client and ssl
    code = ("import sys, flatvalley.cli; print(sorted(m for m in "
            "('xml.sax', 'urllib.request', 'http.client', 'ssl') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(flatvalley.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_svg_is_deterministic(tmp_path):
    xs = np.linspace(0, 1, 50)
    series = [{"x": xs, "y": np.sin(xs), "label": "sine"},
              {"x": xs, "y": xs**2, "label": "square", "marker": True}]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    line_plot(str(a), series, title="demo", xlabel="x", ylabel="y")
    line_plot(str(b), series, title="demo", xlabel="x", ylabel="y")
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<?xml") and "<polyline" in text and "sine" in text


def test_svg_log_axes_drop_nonpositive(tmp_path):
    path = tmp_path / "log.svg"
    line_plot(str(path), [{"x": [1e-3, 1e-2, 1e-1], "y": [0.0, 1e-5, 1e-3]}],
              logx=True, logy=True)
    assert "<polyline" in path.read_text()


def test_csv_roundtrip_is_exact(tmp_path):
    values = np.array([1.0 / 3.0, np.pi, 0.1, 2.0 ** -52, 12345.6789012345678])
    path = tmp_path / "vals.csv"
    with open(path, "w") as fh:
        fh.write("a\n")
        for v in values:
            fh.write("%.17g\n" % v)
    back = read_csv_columns(str(path))["a"]
    assert np.array_equal(back, values)


def test_report_json_handles_numpy_types(tmp_path):
    payload = {
        "arr": np.arange(3, dtype=float),
        "flag": np.bool_(True),
        "num": np.float64(0.25),
        "nested": [{"k": np.int64(3)}],
    }
    path = tmp_path / "r.json"
    write_report_json(str(path), payload)
    text = path.read_text()
    assert '"flag": true' in text
    assert '"num": 0.25' in text
