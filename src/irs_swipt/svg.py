"""Minimal standalone SVG line charts (no plotting dependency)."""

import math

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 30, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
TICKS = 6  # an axis spans at most this many tick intervals


def _ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / (TICKS - 1)))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= TICKS:
            step *= mult
            break
    first = step * round(lo / step)
    if first + step == first:  # a span of a few ulps: steps below half an ulp vanish
        return [lo, hi]
    if first < lo - 1e-12 * span:
        first += step
    ticks = []
    t = first
    # counted, as t += step also stalls where t's ulp grows past twice step
    while t <= hi + 1e-12 * span and len(ticks) <= TICKS:
        ticks.append(t)
        t += step
    return ticks or [lo, hi]


def line_chart(series, xlabel, ylabel, title=""):
    """Render series = [(label, xs, ys), ...] to an SVG string."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) or 1.0)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'font-family="sans-serif" font-size="12">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
           'fill="none" stroke="#333"/>']
    if title:
        out.append(f'<text x="{WIDTH/2:.1f}" y="18" text-anchor="middle" '
                   f'font-size="14">{title}</text>')
    for t in _ticks(x_lo, x_hi):
        out.append(f'<line x1="{px(t):.1f}" y1="{MARGIN_T+plot_h}" x2="{px(t):.1f}" '
                   f'y2="{MARGIN_T+plot_h+5}" stroke="#333"/>')
        out.append(f'<text x="{px(t):.1f}" y="{MARGIN_T+plot_h+18}" '
                   f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        out.append(f'<line x1="{MARGIN_L-5}" y1="{py(t):.1f}" x2="{MARGIN_L}" '
                   f'y2="{py(t):.1f}" stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L-8}" y="{py(t)+4:.1f}" '
                   f'text-anchor="end">{t:.3g}</text>')
    out.append(f'<text x="{MARGIN_L+plot_w/2:.1f}" y="{HEIGHT-10}" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{MARGIN_T+plot_h/2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {MARGIN_T+plot_h/2:.1f})">{ylabel}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        ly = MARGIN_T + 16 + 16 * i
        out.append(f'<line x1="{WIDTH-170}" y1="{ly-4}" x2="{WIDTH-140}" y2="{ly-4}" '
                   f'stroke="{color}" stroke-width="1.8"/>')
        out.append(f'<text x="{WIDTH-134}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out)


def write_chart(path, series, xlabel, ylabel, title=""):
    with open(path, "w") as fh:
        fh.write(line_chart(series, xlabel, ylabel, title) + "\n")
    return path
