"""Deterministic SVG figures and CPLEX-style LP exports.

All geometry stays rational until the final coordinate conversion: each pixel
is one int/int division of a point's exact offset from the corner, which
Python rounds correctly, so it is the float of the Fraction difference and the
same instance always renders to the same bytes.  The display transform scales
the axes independently (the reduction polygons are far taller than wide) and the
factors are recorded in a comment at the top of the SVG.
"""

from __future__ import annotations

from .formats import InstanceFile
from .polytope import h_to_v
from .ratgeo import rat
from .search import Walk

__all__ = ["svg_document", "lp_document"]

_W, _H = 1000.0, 620.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def svg_document(inst: InstanceFile, walk: Walk | None = None) -> str:
    verts = h_to_v(inst.polygon).vertices
    pts = list(verts) + [inst.start]
    if inst.target is not None:
        pts.append(inst.target)
    if walk is not None:
        pts.extend(walk.points)
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    spanx = xmax - xmin
    spany = ymax - ymin
    # exact even when the extremes are ints
    padx, pady = rat(spanx or 1, 20), rat(spany or 1, 20)
    x0, y0 = xmin - padx, ymin - pady
    sx = _W / float(spanx + 2 * padx)
    sy = _H / float(spany + 2 * pady)
    (xn, xd), (yn, yd) = x0.as_integer_ratio(), y0.as_integer_ratio()

    def to_px(p) -> tuple[str, str]:
        (pxn, pxd), (pyn, pyd) = p.x.as_integer_ratio(), p.y.as_integer_ratio()
        return (_fmt((pxn * xd - xn * pxd) / (pxd * xd) * sx),
                _fmt(_H - (pyn * yd - yn * pyd) / (pyd * yd) * sy))

    def path(pixels, close: bool) -> str:
        cmds = [f"{'M' if i == 0 else 'L'} {px} {py}" for i, (px, py) in enumerate(pixels)]
        if close:
            cmds.append("Z")
        return " ".join(cmds)

    # each point is converted once, for its path and for its circle
    vert_px = [to_px(v) for v in verts]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W:g} {_H:g}">',
        f"<!-- display scaling is nonuniform: x is stretched by {sx:.6g} px/unit, "
        f"y by {sy:.6g} px/unit; the drawn shape is distorted for readability -->",
        f'<path d="{path(vert_px, close=True)}" fill="#eef2fb" stroke="#27427c" '
        f'stroke-width="1.5"/>',
    ]
    for px, py in vert_px:
        out.append(f'<circle cx="{px}" cy="{py}" r="2.5" fill="#27427c"/>')
    if walk is not None and len(walk.points) > 1:
        walk_px = [to_px(p) for p in walk.points]
        out.append(
            f'<path d="{path(walk_px, close=False)}" fill="none" '
            f'stroke="#c2410c" stroke-width="2"/>'
        )
        for px, py in walk_px:
            out.append(f'<circle cx="{px}" cy="{py}" r="3" fill="#c2410c"/>')
    spx, spy = to_px(inst.start)
    out.append(f'<circle cx="{spx}" cy="{spy}" r="5" fill="#15803d"/>')
    if inst.target is not None:
        tpx, tpy = to_px(inst.target)
        out.append(
            f'<circle cx="{tpx}" cy="{tpy}" r="5" fill="none" '
            f'stroke="#b91c1c" stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _terms(coeffs: list[tuple[int, str]]) -> str:
    parts: list[str] = []
    for coeff, name in coeffs:
        if coeff == 0:
            continue
        if not parts:
            parts.append(f"{coeff} {name}" if coeff > 0 else f"- {-coeff} {name}")
        else:
            sign = "+" if coeff > 0 else "-"
            parts.append(f"{sign} {abs(coeff)} {name}")
    return " ".join(parts) if parts else "0 x"


def lp_document(inst: InstanceFile) -> str:
    """CPLEX LP text: maximize the cost over the polygon, variables free.

    Rows are already integral, so the export is lossless.
    """
    out = [
        "\\ circuitwalks instance export",
        "Maximize",
        f" obj: {_terms([(inst.cost.dx, 'x'), (inst.cost.dy, 'y')])}",
        "Subject To",
    ]
    for i, (a1, a2, b) in enumerate(inst.polygon.rows, start=1):
        out.append(f" r{i}: {_terms([(a1, 'x'), (a2, 'y')])} <= {b}")
    out += ["Bounds", " x free", " y free", "End"]
    return "\n".join(out) + "\n"
