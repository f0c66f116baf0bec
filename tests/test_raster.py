import hashlib
import math

import numpy as np
import pytest

from conftest import straight_scenario

from advdrive import net
from advdrive.errors import ConfigurationError
from advdrive.geometry import Rect
from advdrive.raster import (
    ANCHOR_COL,
    ANCHOR_ROW,
    GOAL,
    OTHER_VEHICLE,
    OWN_VEHICLE,
    PALETTE,
    VIEW_AHEAD,
    render,
    upsample,
    write_ppm,
)
from advdrive.scenario import (
    AgentSpec,
    ScenarioConfig,
    corridor_scenario,
    t_intersection_scenario,
)
from advdrive.geometry import Polyline
from advdrive.world import init_world, step
from advdrive.worldmap import MapGeometry

BLOCK = 84 // 21  # pixels of an 84x84 frame per lite21 pixel, each way


def open_field_scenario(agents):
    """Drivable everywhere within view: isolates vehicle/goal rendering."""
    geo = MapGeometry(
        name="field",
        lane_width=3.5,
        drivable_rects=[Rect(-500, -500, 500, 500)],
        intersection_region=None,
        lane_segments=[],
        divider_lines=[],
    )
    specs = [
        AgentSpec(
            agent_id=a["id"],
            role="victim",
            reward_kind="victim",
            spawn=tuple(a["spawn"]),
            goal=tuple(a["goal"]),
            route=Polyline([a["spawn"], a["goal"]]),
            seed_index=i,
        )
        for i, a in enumerate(agents)
    ]
    return ScenarioConfig(name="field", map=geo, agents=specs)


def color_mask(pixels, cls):
    return np.all(pixels == PALETTE[cls], axis=-1)


def dilate(mask):
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


class TestBasics:
    def test_shape_range_determinism(self):
        sc = t_intersection_scenario()
        w = init_world(sc, 0)
        for res in (84, 21):
            a = render(w, "victim1", res)
            b = render(w, "victim1", res)
            assert a.pixels.shape == (res, res, 3) and a.pixels.dtype == np.uint8
            assert np.array_equal(a.pixels, b.pixels)

    def test_unknown_agent_rejected(self):
        sc = t_intersection_scenario()
        w = init_world(sc, 0)
        with pytest.raises(ConfigurationError):
            render(w, "ghost", 21)

    def test_distinct_colors_enforced(self):
        assert len({tuple(row) for row in PALETTE}) == len(PALETTE)

    def test_lite21_is_block_constant_replication(self):
        sc = t_intersection_scenario()
        w = init_world(sc, 0)
        native = render(w, "victim2", 21).pixels
        blocks = upsample(native).reshape(21, BLOCK, 21, BLOCK, 3)
        assert np.all(blocks == native[:, None, :, None, :])

    def test_own_vehicle_at_anchor(self):
        sc = t_intersection_scenario()
        w = init_world(sc, 0)
        img = render(w, "victim1", 84).pixels
        own = color_mask(img, OWN_VEHICLE)
        assert own[ANCHOR_ROW, ANCHOR_COL]
        rows, cols = np.nonzero(own)
        assert abs(rows.mean() - ANCHOR_ROW) < 2.5
        assert abs(cols.mean() - ANCHOR_COL) < 2.5


class TestProjection:
    def test_vehicle_ten_meters_ahead_lands_at_projected_pixel(self):
        sc = open_field_scenario(
            [
                {"id": "me", "spawn": (0.0, 0.0), "goal": (60.0, 0.0)},
                {"id": "other", "spawn": (10.0, 0.0), "goal": (60.0, 0.0)},
            ]
        )
        w = init_world(sc, 0)
        img = render(w, "me", 84).pixels
        other = color_mask(img, OTHER_VEHICLE)
        assert other.any()
        rows, cols = np.nonzero(other)
        m_per_row = VIEW_AHEAD / ANCHOR_ROW
        expected_row = ANCHOR_ROW - 10.0 / m_per_row  # 52.5
        assert abs(cols.mean() - ANCHOR_COL) <= 2.0
        assert abs(rows.mean() - expected_row) <= 2.0

    def test_alone_on_road_shows_no_other_vehicle(self):
        sc = straight_scenario()
        w = init_world(sc, 0)
        img = render(w, "victim1", 84).pixels
        assert not color_mask(img, OTHER_VEHICLE).any()

    def test_out_of_window_vehicle_invisible(self):
        base = open_field_scenario(
            [
                {"id": "me", "spawn": (0.0, 0.0), "goal": (200.0, 0.0)},
                {"id": "far", "spawn": (100.0, 0.0), "goal": (200.0, 0.0)},
            ]
        )
        moved = open_field_scenario(
            [
                {"id": "me", "spawn": (0.0, 0.0), "goal": (200.0, 0.0)},
                {"id": "far", "spawn": (120.0, 30.0), "goal": (200.0, 0.0)},
            ]
        )
        img_a = render(init_world(base, 0), "me", 84).pixels
        img_b = render(init_world(moved, 0), "me", 84).pixels
        assert np.array_equal(img_a, img_b)

    def test_painter_order_goal_under_vehicles(self):
        sc = open_field_scenario(
            [
                {"id": "me", "spawn": (0.0, 0.0), "goal": (12.0, 0.0)},
                {"id": "other", "spawn": (12.0, 0.0), "goal": (40.0, 0.0)},
            ]
        )
        w = init_world(sc, 0)
        img = render(w, "me", 84).pixels
        goal = color_mask(img, GOAL)
        other = color_mask(img, OTHER_VEHICLE)
        assert other.any()
        # the vehicle body hides the goal pixels underneath it
        assert not (goal & other).any()
        assert goal.sum() < math.pi * (2.0 / (2 * 20.0 / 84)) ** 2  # partially covered disc


class TestRotationEquivariance:
    @pytest.mark.parametrize("angle_deg", [30.0, 75.0, 160.0, -45.0])
    def test_vehicle_and_goal_masks_rotate_with_world(self, angle_deg):
        theta = math.radians(angle_deg)

        def build(alpha):
            c, s = math.cos(alpha), math.sin(alpha)

            def rot(p):
                return (c * p[0] - s * p[1], s * p[0] + c * p[1])

            sc = open_field_scenario(
                [
                    {"id": "me", "spawn": (0.0, 0.0), "goal": rot((18.0, 3.0))},
                    {"id": "other", "spawn": rot((12.0, -4.0)), "goal": rot((40.0, 0.0))},
                ]
            )
            w = init_world(sc, 0)
            w.vehicles["me"].heading = alpha
            w.vehicles["other"].heading = alpha + 0.9
            return w

        img0 = render(build(0.0), "me", 84).pixels
        img1 = render(build(theta), "me", 84).pixels
        for cls in (OTHER_VEHICLE, GOAL, OWN_VEHICLE):
            m0 = color_mask(img0, cls)
            m1 = color_mask(img1, cls)
            # masks agree within one pixel of aliasing on each edge
            assert (m0 & ~dilate(m1)).sum() == 0
            assert (m1 & ~dilate(m0)).sum() == 0


def golden_worlds():
    """Worlds for the render digest: jittered spawns, a corridor, and a
    T-intersection 60 ticks in, with headings off the axes and one agent
    terminated."""
    worlds = [init_world(t_intersection_scenario(spawn_jitter=1.5), seed) for seed in range(3)]
    worlds.append(init_world(corridor_scenario(spawn_jitter=0.5), 4))
    w = init_world(t_intersection_scenario(), 5)
    for _ in range(60):
        w, _ = step(
            w, {aid: net.action_to_command(3 * (i % 3)) for i, aid in enumerate(w.live_agents())}
        )
    worlds.append(w)
    return worlds


# SHA-256 over the 84x84 float64 images of every agent of golden_worlds() in
# both modes, upsampled and decoded as k/256.
RENDER_84_SHA256 = "98130a1e70c92120984df0c95f1e21dc5992f0616c074c5f18bc053b48e204d6"


def test_renders_match_golden_digest():
    h = hashlib.sha256()
    for wi, w in enumerate(golden_worlds()):
        for mode in ("full84", "lite21"):
            res = net.net_config_for_mode(mode).core_res()
            for aid in w.scenario.agent_ids():
                codes = render(w, aid, res).pixels
                assert codes.dtype == np.uint8
                pixels = upsample(codes) / 256
                assert pixels.shape == (84, 84, 3) and pixels.dtype == np.float64
                h.update(f"{wi}/{mode}/{VIEW_AHEAD}/{aid}".encode())
                h.update(np.ascontiguousarray(pixels))
    assert h.hexdigest() == RENDER_84_SHA256


def test_ppm_dump(tmp_path):
    sc = t_intersection_scenario()
    w = init_world(sc, 0)
    img = render(w, "victim1", 21)
    path = tmp_path / "obs.ppm"
    write_ppm(img.pixels, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n84 84\n255\n")
    assert len(raw) == len(b"P6\n84 84\n255\n") + 84 * 84 * 3
    body = np.frombuffer(raw[len(b"P6\n84 84\n255\n"):], dtype=np.uint8).reshape(84, 84, 3)
    assert np.array_equal(body[1::BLOCK, 1::BLOCK], (img.pixels / 256 * 255.0).astype(np.uint8))
