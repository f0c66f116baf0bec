import hashlib
import json
import struct

import numpy as np
import pytest
import yaml

from conftest import tiny_net_config, zero_params
from test_cli import MICRO_CONFIG

from advdrive import net, pipeline
from advdrive.checkpoint import (
    Checkpoint,
    load_checkpoint,
    params_checksum,
    save_checkpoint,
)
from advdrive.cli import _load_cfg, build_parser, dispatch
from advdrive.config import (
    RunConfig,
    config_echo,
    load_config,
    parse_config,
)
from advdrive.errors import (
    CheckpointError,
    ChecksumMismatchError,
    TruncatedCheckpointError,
    ValidationError,
    VersionMismatchError,
)
from advdrive.pipeline import policy_from_checkpoint


def make_checkpoint(with_adam=True, seed=0, config=tiny_net_config()):
    params = net.init_params(config, seed)
    adam = None
    if with_adam:
        adam = net.init_adam_state(params)
        grads = {k: np.full_like(v, 0.01) for k, v in params.arrays.items()}
        params, adam = net.adam_update(params, grads, adam, lr=0.001)
    return Checkpoint(
        role="victim",
        reward_kind="victim",
        params=params,
        adam=adam,
        kl_coef=0.45,
        counters={"episodes": 12, "env_steps": 3400, "updates": 26},
    )


class TestCheckpointRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        for name in ckpt.params.arrays:
            assert np.array_equal(loaded.params.arrays[name], ckpt.params.arrays[name])
            assert np.array_equal(loaded.adam.m[name], ckpt.adam.m[name])
            assert np.array_equal(loaded.adam.v[name], ckpt.adam.v[name])
        assert loaded.adam.step == ckpt.adam.step
        assert loaded.kl_coef == ckpt.kl_coef
        assert loaded.counters == ckpt.counters
        assert loaded.role == "victim" and loaded.reward_kind == "victim"

    def test_forward_identical_after_round_trip(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        res = ckpt.params.config.core_res()
        obs = np.random.default_rng(3).integers(0, 256, size=(res, res, 3), dtype=np.uint8)
        la, va = net.forward(ckpt.params, obs)
        lb, vb = net.forward(loaded.params, obs)
        assert np.array_equal(la, lb) and va == vb

    def test_checksum_stable_and_content_sensitive(self, tmp_path):
        ckpt = make_checkpoint()
        c1 = params_checksum(ckpt.params)
        c2 = params_checksum(ckpt.params.copy())
        assert c1 == c2
        mutated = ckpt.params.copy()
        mutated.arrays["dense/w"][0, 0] += 1e-12
        assert params_checksum(mutated) != c1

    def test_file_bytes_match_golden_digest(self, tmp_path):
        # Pins the on-disk format byte for byte. Built without LAPACK (no
        # orthogonal init) so the bytes do not depend on the BLAS build; Adam
        # is elementwise and correctly rounded.
        rng = np.random.default_rng(2112)
        params = zero_params(tiny_net_config())
        for arr in params.arrays.values():
            arr[...] = rng.standard_normal(arr.shape)
        adam = net.init_adam_state(params)
        grads = {k: rng.standard_normal(v.shape) for k, v in params.arrays.items()}
        params, adam = net.adam_update(params, grads, adam, lr=0.001)
        ckpt = Checkpoint(
            role="victim", reward_kind="victim", params=params, adam=adam, kl_coef=0.45,
            counters={"episodes": 12, "env_steps": 3400, "updates": 26},
        )
        path = tmp_path / "golden.ckpt"
        checksum = save_checkpoint(path, ckpt)
        assert checksum == "df70788502d0c665a4b6c94e5782e6e3cb89deda2c53750944892751269d2ca8"
        assert params_checksum(params) == checksum
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4dcaacc34d34995f0f16fea1bcb84cb80595990f772997d5b6047a6f0f501d73"
        )

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, make_checkpoint())
        assert path.exists()
        assert not (tmp_path / "a.ckpt.tmp").exists()


class TestCheckpointErrors:
    def test_flipped_payload_byte_detected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, make_checkpoint())
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatchError):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, make_checkpoint())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(TruncatedCheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_detected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, make_checkpoint())
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # format version field
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"x" * 200)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("edit, named", [
        (lambda h: h.pop("arrays"), "KeyError('arrays')"),
        (lambda h: h.pop("net_config"), "KeyError('net_config')"),
        (lambda h: h["arrays"][0].update(dtype="float7"), "data type 'float7' not understood"),
    ], ids=["no_arrays", "no_net_config", "unknown_dtype"])
    def test_malformed_header_with_a_valid_digest(self, tmp_path, capsys, edit, named):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, make_checkpoint())
        raw = path.read_bytes()
        header_len = struct.unpack_from("<I", raw, 12)[0]
        header = json.loads(raw[16:16 + header_len])
        edit(header)
        header_bytes = json.dumps(header, sort_keys=True).encode()
        body = raw[:12] + struct.pack("<I", len(header_bytes)) + header_bytes
        body += raw[16 + header_len:-32]
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError, match=rf"^checkpoint '{path}': malformed header: ") as info:
            load_checkpoint(path)
        assert named in str(info.value)
        out = tmp_path / "out"
        assert dispatch(["evaluate", "--victims", f"victim1={path}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error_class=CheckpointError checkpoint '{path}': malformed header: ")
        assert err.count("error_class=") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.params.arrays.update({k: v.astype(np.float32)
                                           for k, v in c.params.arrays.items()}),
         "dtype mismatch for 'params/conv1/w': file float32, net float64"),
        (lambda c: c.adam.m.update({"dense/w": np.zeros(7)}),
         "shape mismatch for 'adam/m/dense/w': file (7,), net (256, 8)"),
    ], ids=["float32_params", "adam_wrong_shape"])
    def test_array_not_float64_of_the_layout_shape(self, tmp_path, edit, message):
        ckpt = make_checkpoint()
        edit(ckpt)
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"checkpoint '{path}': {message}"


class TestOptimizerStateFallback:
    def test_missing_adam_resumes_fresh_with_warning(self, tmp_path):
        ckpt = make_checkpoint(with_adam=False, config=net.NETS["lite21"])
        path = tmp_path / "no_adam.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.adam is None
        policy, warnings = policy_from_checkpoint(path, "victim1", frozen=False, role="victim",
                                                  obs_mode="lite21")
        assert policy.adam is None
        assert len(warnings) == 1 and "optimizer state" in warnings[0]
        # frozen loads do not warn: they never optimize
        _, frozen_warnings = policy_from_checkpoint(path, "victim1", frozen=True, role="victim",
                                                    obs_mode="lite21")
        assert frozen_warnings == []


class TestCounterDefault:
    def test_checkpoint_without_counters_loads_zeros_and_retrains(self, tmp_path):
        # frozen agents may be saved with no counters at all
        zeros = {"episodes": 0, "env_steps": 0, "updates": 0}
        paths = {}
        for i, (aid, role, kind) in enumerate(
            (("victim1", "victim", "victim"), ("victim2", "victim", "victim"),
             ("adversary", "adversary", "adv_offroad"))
        ):
            paths[aid] = str(tmp_path / f"{aid}.ckpt")
            params = net.init_params(net.NETS["lite21"], i)
            save_checkpoint(paths[aid], Checkpoint(role, kind, params, counters={}))
            assert load_checkpoint(paths[aid]).counters == zeros
        assert Checkpoint("victim", "victim", params).counters == zeros
        result = pipeline.retrain_victims(
            parse_config(MICRO_CONFIG), {aid: paths[aid] for aid in ("victim1", "victim2")},
            paths["adversary"], str(tmp_path / "retrain"),
        )
        assert result.episodes_run == MICRO_CONFIG["phases"]["retrain_episodes"]
        steps = 0
        for aid in ("victim1", "victim2"):
            counters = load_checkpoint(result.checkpoint_paths[aid]).counters
            assert counters["episodes"] == result.episodes_run
            assert counters["updates"] >= 1
            steps += counters["env_steps"]
        assert 0 < steps <= 2 * result.steps_run


class TestConfigDefaults:
    def test_empty_config_has_reference_defaults(self):
        cfg = parse_config(None)
        assert cfg.ppo.lr == 0.0006
        assert cfg.ppo.gamma == 0.99
        assert cfg.ppo.clip == 0.3
        assert cfg.ppo.kl_target == 0.03
        assert cfg.ppo.kl_coef_init == 0.3
        assert cfg.ppo.vf_coef == 1.0
        assert cfg.ppo.ent_coef == 0.01
        assert cfg.ppo.minibatch == 64
        assert cfg.ppo.epochs_per_batch == 8
        assert cfg.ppo.train_batch == 128
        assert cfg.phases.baseline_episodes == 610
        assert cfg.phases.baseline_step_cap == 300672
        assert cfg.phases.adversary_episodes == 101
        assert cfg.phases.adversary_step_cap == 57728
        assert cfg.phases.retrain_episodes == 306
        assert cfg.phases.retrain_step_cap == 133888
        assert cfg.eval.episodes == 50
        assert cfg.eval.max_steps == 2000

    def test_demo_budgets(self):
        cfg = _load_cfg(build_parser().parse_args(["demo"]))
        assert cfg.obs_mode == "lite21"
        assert cfg.phases.baseline_episodes == 120
        assert cfg.phases.adversary_episodes == 40
        assert cfg.phases.retrain_episodes == 60
        assert (cfg.phases.baseline_step_cap, cfg.phases.adversary_step_cap,
                cfg.phases.retrain_step_cap) == (None, None, None)
        assert cfg.eval.episodes == 20
        assert cfg.eval.max_steps == 400
        assert cfg.scenario.max_steps == 300

    def test_gamma_out_of_range_names_key(self):
        with pytest.raises(ValidationError, match="ppo.gamma"):
            parse_config({"ppo": {"gamma": 1.5}})

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config({"ppo": {"gama": 0.9}})
        with pytest.raises(ValidationError, match="scenario.presett"):
            parse_config({"scenario": {"presett": "corridor"}})

    def test_episode_override_reflected(self):
        cfg = parse_config({"phases": {"baseline_episodes": 5}})
        assert cfg.phases.baseline_episodes == 5

    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "seed": 9,
                    "obs_mode": "lite21",
                    "ppo": {"lr": 0.001},
                    "eval": {"episodes": 4, "max_steps": 100},
                }
            )
        )
        cfg = load_config(path)
        assert cfg.seed == 9 and cfg.obs_mode == "lite21"
        assert cfg.ppo.lr == 0.001
        assert cfg.eval.episodes == 4
        # untouched keys keep defaults
        assert cfg.ppo.gamma == 0.99

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(tmp_path / "none.yaml")

    def test_echo_is_json_friendly(self):
        import json

        echo = config_echo(RunConfig())
        blob = json.dumps(echo, sort_keys=True)
        assert '"lr": 0.0006' in blob

    def test_custom_scenario_from_config(self):
        # the `custom` preset is gone: a config that used it no longer parses
        data = {
            "scenario": {
                "preset": "custom",
                "map": {"drivable_rects": [[-5, -5, 60, 5]], "lane_width": 3.5},
                "agents": [{"id": "v", "role": "victim", "spawn": [0, 0], "goal": [50, 0]}],
            }
        }
        with pytest.raises(ValidationError, match=r"^scenario\.agents: unknown key$"):
            parse_config(data)
        del data["scenario"]["agents"]
        with pytest.raises(ValidationError, match=r"^scenario\.map: unknown key$"):
            parse_config(data)
        del data["scenario"]["map"]
        with pytest.raises(ValidationError, match=r"^scenario\.preset: must be one of"):
            parse_config(data)

    def test_bad_action_mode_rejected(self):
        with pytest.raises(ValidationError, match="eval.action_mode"):
            parse_config({"eval": {"action_mode": "random"}})
