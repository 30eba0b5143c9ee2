"""Dependency-free SVG heatmaps of |zeta|^2 with singular-set circles."""

from __future__ import annotations

import numpy as np

from .config import TWO_PI

SIZE = 512

# viridis anchors, linearly interpolated
_STOPS = [
    (0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150), (0.993, 0.906, 0.144),
]


def _color_codes(t: np.ndarray) -> np.ndarray:
    """0xRRGGBB int per entry of ``t`` (clipped to [0, 1]), interpolating
    the stops linearly; the same float arithmetic as a per-value loop."""
    t = np.clip(np.asarray(t, float), 0.0, 1.0) * (len(_STOPS) - 1)
    k = np.minimum(t.astype(int), len(_STOPS) - 2)
    f = t - k
    stops = np.array(_STOPS)
    rgb = (1 - f)[..., None] * stops[k] + f[..., None] * stops[k + 1]
    r, g, b = np.moveaxis(np.rint(255 * rgb).astype(int), -1, 0)
    return (r << 16) | (g << 8) | b


def write_heatmap_svg(path, density: np.ndarray, zeros, delta: float,
                      title: str = ""):
    """512x512 heatmap of a per-site density (sqrt color scale), with the
    delta-disks around the singular set drawn as circles (wrapped copies
    included).  Axis convention: x rightward, y downward.

    Cells are drawn column by column, y inner, each 0.5 px wider and taller
    than the cell so that no seam shows; the next cell drawn covers that
    overhang.  So one rect per maximal vertical run of one colour, as tall
    as the run plus 0.5 px, paints every point as its cells would.  The
    file is written one column at a time."""
    density = np.asarray(density, float)
    n = density.shape[0]
    cell = SIZE / n
    peak = float(density.max()) or 1.0
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
    ]
    if title:
        head.append(f"<title>{title}</title>")
    codes = _color_codes(np.sqrt(density / peak))
    # a run starts at the top of each column and wherever the colour changes
    starts = np.ones((n, n), bool)
    starts[:, 1:] = codes[:, 1:] != codes[:, :-1]
    ix, iy = np.nonzero(starts)
    lengths = np.diff(ix * n + iy, append=n * n)
    run_codes = codes[ix, iy]
    names = {c: f"#{c:06x}" for c in np.unique(run_codes).tolist()}
    coords = [f"{i * cell:.2f}" for i in range(n)]
    heights = [f"{k * cell + 0.5:.2f}" for k in range(n + 1)]
    width = f"{cell + 0.5:.2f}"
    bounds = np.flatnonzero(iy == 0).tolist() + [iy.size]
    tail = []
    scale = SIZE / TWO_PI
    radius = delta * scale
    for (zx, zy) in zeros:
        for ox in (-SIZE, 0, SIZE):
            for oy in (-SIZE, 0, SIZE):
                cx = zx * scale + ox
                cy = zy * scale + oy
                if (-radius <= cx <= SIZE + radius
                        and -radius <= cy <= SIZE + radius):
                    tail.append(
                        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" '
                        'fill="none" stroke="#ff5050" stroke-width="2"/>')
    tail.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head))
        for x, lo, hi in zip(coords, bounds, bounds[1:]):
            fh.write("".join(
                f'\n<rect x="{x}" y="{coords[y]}" width="{width}" '
                f'height="{heights[k]}" fill="{names[c]}"/>'
                for y, k, c in zip(iy[lo:hi].tolist(), lengths[lo:hi].tolist(),
                                   run_codes[lo:hi].tolist())))
        fh.write("\n" + "\n".join(tail))
