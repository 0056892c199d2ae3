"""The SVG charts: every axis gets a bounded list of ticks, down to spans of
a few ulps, where stepping a tick by less than half an ulp leaves it as it
was."""

import math

import numpy as np
import pytest

from irs_swipt.experiments import parse_csv
from irs_swipt.svg import TICKS, _ticks, line_chart

ONE_ULP = (1e-5, np.nextafter(1e-5, 1.0))


@pytest.mark.parametrize("lo, hi", [
    pytest.param(*ONE_ULP, id="1-ulp"),
    pytest.param(1e-5, 1e-5 + 3 * np.spacing(1e-5), id="3-ulps"),
    pytest.param(1.0, 1.0000000000000002, id="1-ulp-at-1"),
    pytest.param(-2.5e-6, 7.5e-5, id="normal"),
])
def test_ticks_are_bounded_and_on_the_axis(lo, hi):
    ticks = _ticks(lo, hi)
    assert 1 <= len(ticks) <= TICKS + 1
    slack = 1e-12 * (hi - lo)
    assert all(math.isfinite(t) and lo - slack <= t <= hi + slack for t in ticks)


def test_normal_span_ticks_are_unchanged():
    assert _ticks(8.0, 24.0) == [10.0, 15.0, 20.0]
    assert _ticks(0.0, 1.0) == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])


def test_chart_of_an_ulp_wide_axis_is_complete():
    svg = line_chart([("a", [1.0, 2.0], list(ONE_ULP))], "x", "y")
    assert svg.startswith("<svg") and svg.endswith("</svg>") and "polyline" in svg


def test_cli_writes_the_chart_of_an_ulp_wide_sweep(tmp_path):
    from irs_swipt.cli import main
    cfg = tmp_path / "c.cfg"
    cfg.write_text("m = 2\nn = 0\nmethods = no_irs\nmode = sweep_sr\n"
                   "sweep = 1, 1.0000000000000002\nseeds_per_point = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    assert len(parse_csv(out / "results.csv")) == 2
    svg = (out / "sweep_sr.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>") and "polyline" in svg
