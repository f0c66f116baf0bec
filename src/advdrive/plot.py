"""Aerial trajectory plots (hand-rolled SVG) and raw coordinate dumps."""
from __future__ import annotations

import csv
import math
import os

from .orchestrator import FLAG_NAMES, EpisodeLog
from .scenario import ScenarioConfig

AGENT_COLORS = ("#1f6fd0", "#12927a", "#d03a2a", "#9550c2", "#c98a16")
ROAD_FILL = "#bdbdbd"
INTERSECTION_FILL = "#ababab"
OFFROAD_FILL = "#dcead2"
PX_PER_M = 8.0
MARGIN_M = 6.0


def _svg_star(x, y, r, color):
    pts = []
    for i in range(10):
        ang = -math.pi / 2 + i * math.pi / 5
        rad = r if i % 2 == 0 else 0.42 * r
        pts.append(f"{x + rad * math.cos(ang):.2f},{y + rad * math.sin(ang):.2f}")
    return f'<polygon points="{" ".join(pts)}" fill="{color}" stroke="none"/>'


def emit_trajectory_plot(
    log: EpisodeLog, scenario: ScenarioConfig, svg_path, csv_path, title: str = ""
) -> None:
    """Write an SVG aerial view of all agent paths over the map geometry,
    with collision/offroad events marked, plus a CSV of raw coordinates
    (one row per tick per agent)."""
    bounds = scenario.map.bounds()
    x0, y0 = bounds.x0 - MARGIN_M, bounds.y0 - MARGIN_M
    x1, y1 = bounds.x1 + MARGIN_M, bounds.y1 + MARGIN_M
    w_px = (x1 - x0) * PX_PER_M
    h_px = (y1 - y0) * PX_PER_M

    def sx(x):
        return (x - x0) * PX_PER_M

    def sy(y):
        return (y1 - y) * PX_PER_M  # flip: world y up, svg y down

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px:.0f}" height="{h_px:.0f}" '
        f'viewBox="0 0 {w_px:.2f} {h_px:.2f}">',
        f'<rect x="0" y="0" width="{w_px:.2f}" height="{h_px:.2f}" fill="{OFFROAD_FILL}"/>',
    ]
    for r in scenario.map.drivable_rects:
        parts.append(
            f'<rect x="{sx(r.x0):.2f}" y="{sy(r.y1):.2f}" width="{(r.x1 - r.x0) * PX_PER_M:.2f}" '
            f'height="{(r.y1 - r.y0) * PX_PER_M:.2f}" fill="{ROAD_FILL}"/>'
        )
    region = scenario.map.intersection_region
    if region is not None:
        parts.append(
            f'<rect x="{sx(region.x0):.2f}" y="{sy(region.y1):.2f}" '
            f'width="{(region.x1 - region.x0) * PX_PER_M:.2f}" '
            f'height="{(region.y1 - region.y0) * PX_PER_M:.2f}" fill="{INTERSECTION_FILL}"/>'
        )
    for divider in scenario.map.divider_lines:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in divider.points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#f5f5f5" stroke-width="2" '
            'stroke-dasharray="10 8"/>'
        )

    color_by_agent = {}
    for i, aid in enumerate(log.agent_ids):
        color_by_agent[aid] = AGENT_COLORS[i % len(AGENT_COLORS)]

    # planned routes as faint dotted guides under the driven paths
    for aid in log.agent_ids:
        if aid not in scenario.agent_ids():
            continue
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in scenario.agent(aid).route.points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color_by_agent[aid]}" '
            'stroke-width="1" stroke-dasharray="2 5" opacity="0.6"/>'
        )

    if log.ticks > 0:
        for i, aid in enumerate(log.agent_ids):
            xy = log.positions[:, i, :2]
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in xy)
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color_by_agent[aid]}" '
                'stroke-width="2.5" opacity="0.9"/>'
            )
            parts.append(
                f'<circle cx="{sx(xy[0, 0]):.2f}" cy="{sy(xy[0, 1]):.2f}" r="5" '
                f'fill="white" stroke="{color_by_agent[aid]}" stroke-width="2"/>'
            )

    agent_index = {aid: i for i, aid in enumerate(log.agent_ids)}
    for ev in log.events:
        x, y = log.positions[ev.tick - 1, agent_index[ev.agent_id], :2]
        if ev.flag in ("cv", "co"):
            parts.append(_svg_star(sx(x), sy(y), 9, "#e01616"))
        elif ev.flag == "io":
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#e07b16" opacity="0.7"/>'
            )

    for i, aid in enumerate(log.agent_ids):
        parts.append(
            f'<text x="12" y="{18 + 16 * i}" font-size="13" font-family="sans-serif" '
            f'fill="{color_by_agent[aid]}">{aid}</text>'
        )
    if title:
        parts.append(
            f'<text x="12" y="{h_px - 10:.0f}" font-size="13" font-family="sans-serif" '
            f'fill="#333">{title}</text>'
        )
    parts.append("</svg>")

    svg_path = os.fspath(svg_path)
    os.makedirs(os.path.dirname(svg_path) or ".", exist_ok=True)
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")

    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "agent_id", "x", "y", "heading", "speed", *FLAG_NAMES])
        for t in range(log.ticks):
            for i, aid in enumerate(log.agent_ids):
                x, y, heading, speed = log.positions[t, i]
                flags = log.flags[aid]
                row_flags = [int(flags[k][t]) if t < len(flags[k]) else 0 for k in FLAG_NAMES]
                writer.writerow(
                    [t + 1, aid, f"{x:.6f}", f"{y:.6f}", f"{heading:.6f}", f"{speed:.6f}"]
                    + row_flags
                )
