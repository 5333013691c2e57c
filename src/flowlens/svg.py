"""Minimal deterministic SVG output: same inputs, identical bytes.

Text charts only need rectangles, lines, and labels, so this stays a tiny
string builder with fixed-precision coordinates instead of a plotting
dependency.
"""

from __future__ import annotations

from .util import format_value

FONT = "font-family=\"monospace\" font-size=\"12\""


def _f(v: float) -> str:
    return f"{v:.2f}"


class SvgCanvas:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
            f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">'
        ]

    def comment(self, text: str):
        self.parts.append(f"<!-- {text} -->")

    def rect(self, x, y, w, h, fill: str, css_class: str = ""):
        cls = f' class="{css_class}"' if css_class else ""
        self.parts.append(
            f'<rect{cls} x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" fill="{fill}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke: str = "#444"):
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )

    def text(self, x, y, content: str, anchor: str = "start"):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" text-anchor="{anchor}" {FONT}>{_escape(content)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def horizontal_bar_chart(items: list[tuple[str, float]], title: str, meta: str = "") -> str:
    """One horizontal bar per item; a value of 1.0 spans the full plot width.

    Values are expected in [0, 1] (normalized scores, best first).
    """
    plot_width, bar_height, gap, label_width = 420.0, 16.0, 6.0, 240.0
    top = 34.0
    height = top + len(items) * (bar_height + gap) + 14.0
    canvas = SvgCanvas(label_width + plot_width + 70.0, height)
    if meta:
        canvas.comment(meta)
    canvas.text(8, 18, title)
    y = top
    for label, value in items:
        w = max(0.0, min(1.0, value)) * plot_width
        canvas.text(label_width - 6, y + bar_height - 4, label, anchor="end")
        canvas.rect(label_width, y, w, bar_height, "#4878a8", css_class="bar")
        canvas.text(label_width + w + 4, y + bar_height - 4, format_value(round(value, 4)))
        y += bar_height + gap
    canvas.line(label_width, top - 4, label_width, y - gap + 2)
    return canvas.render()


def grouped_bar_chart(
    groups: list[str],
    series: list[tuple[str, list[float]]],
    title: str,
    y_label: str = "",
    meta: str = "",
) -> str:
    """Bars side by side within each group; y axis fixed to [0, 1]."""
    plot_height, bar_width = 220.0, 34.0
    colors = ["#4878a8", "#d1605e", "#6aa56e", "#e8b049"]
    inner_gap = 4.0
    group_gap = 36.0
    group_width = len(series) * (bar_width + inner_gap) - inner_gap
    left, top = 56.0, 40.0
    width = left + len(groups) * (group_width + group_gap) + 20.0
    height = top + plot_height + 58.0
    canvas = SvgCanvas(width, height)
    if meta:
        canvas.comment(meta)
    canvas.text(8, 18, title)
    base_y = top + plot_height
    canvas.line(left - 6, base_y, width - 14, base_y)
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        ty = base_y - tick * plot_height
        canvas.line(left - 6, ty, left - 2, ty)
        canvas.text(left - 10, ty + 4, f"{tick:.2f}", anchor="end")
    if y_label:
        canvas.text(8, top - 8, y_label)

    x = left
    for gi, group in enumerate(groups):
        bx = x
        for si, (_, values) in enumerate(series):
            v = max(0.0, min(1.0, values[gi]))
            h = v * plot_height
            canvas.rect(bx, base_y - h, bar_width, h, colors[si % len(colors)], css_class="bar")
            bx += bar_width + inner_gap
        canvas.text(x + group_width / 2, base_y + 16, group, anchor="middle")
        x += group_width + group_gap

    # legend
    ly = base_y + 34
    lx = left
    for si, (name, _) in enumerate(series):
        canvas.rect(lx, ly - 10, 12, 12, colors[si % len(colors)])
        canvas.text(lx + 16, ly, name)
        lx += 16 + 8 * len(name) + 28
    return canvas.render()
