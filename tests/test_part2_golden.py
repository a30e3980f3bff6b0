"""Golden digests for the demo Part II scenario results.

Demo Part II measures an OpenFlow switch by correlating its control
and data planes: flow_mod install latency (E4), forwarding consistency
during a table update (E5), flow_mod latency under a flapping control
channel and under SYN-flood churn, and the OFLOPS-turbo modules run as
a scenario. The digests below pin the SHA-256 of ``canonical_json`` of
each scenario result, across healthy, degraded, retried and
lost-setup-barrier runs. A change to how these measurements are wired
must leave every digest identical.
"""

import hashlib

import pytest

from repro.runner import canonical_json, get_scenario


def _flap(period, down):
    return [
        {
            "name": "flap",
            "model": "control_flap",
            "params": {"period": period, "down_time": down},
        }
    ]


_LINK_LOSS = [
    {"name": "loss", "model": "link_loss", "params": {"rate": 0.02, "burst": 2.0}}
]

#: The ``syn_flood_flowmod`` params of the invariance matrix.
_SYN_SMOKE = {
    "n_flows": 16,
    "duration": "200us",
    "deadline": "50ms",
    "waveforms": True,
    "telemetry": True,
}

#: case -> (scenario, params, seed).
CASES = {
    "e4_spec_64": ("flowmod_latency", {"n_rules": 64, "barrier_mode": "spec"}, 0),
    "e4_eager_64": ("flowmod_latency", {"n_rules": 64, "barrier_mode": "eager"}, 0),
    "e4_slow_firmware": (
        "flowmod_latency",
        {"n_rules": 16, "firmware_delay": "50us", "table_write": "20us"},
        0,
    ),
    "e4_deadline_cut": ("flowmod_latency", {"n_rules": 64, "deadline": "1ms"}, 0),
    # The setup barrier and its three resends all fall in a down window.
    "e4_flap_degraded": (
        "flowmod_latency",
        {"n_rules": 8, "impairments": _flap("40ms", "30ms"), "deadline": "10ms"},
        0,
    ),
    # The first setup barrier is lost, its first resend is answered.
    "e4_flap_one_retry": (
        "flowmod_latency",
        {"n_rules": 8, "impairments": _flap("20ms", "3ms"), "deadline": "20ms"},
        0,
    ),
    "e5_64": ("forwarding_consistency", {"n_rules": 64}, 0),
    "e5_spec_4_gap10": (
        "forwarding_consistency",
        {"n_rules": 4, "probe_gap": "10us", "barrier_mode": "spec"},
        0,
    ),
    "e5_eager_4_gap10": (
        "forwarding_consistency",
        {"n_rules": 4, "probe_gap": "10us", "barrier_mode": "eager"},
        0,
    ),
    "flap_spec": (
        "flowmod_under_flap",
        {"n_rules": 4, "flap_period": "1ms", "flap_down": "600us",
         "deadline": "3ms", "barrier_mode": "spec"},
        1,
    ),
    "flap_eager": (
        "flowmod_under_flap",
        {"n_rules": 4, "flap_period": "1ms", "flap_down": "600us",
         "deadline": "3ms", "barrier_mode": "eager"},
        1,
    ),
    "syn_1024": ("syn_flood_flowmod", {"n_flows": 1024}, 0),
    "syn_smoke_2": ("syn_flood_flowmod", dict(_SYN_SMOKE, n_rules=2), 1),
    "syn_smoke_4": ("syn_flood_flowmod", dict(_SYN_SMOKE, n_rules=4), 1),
    "syn_link_loss": (
        "syn_flood_flowmod",
        {"n_flows": 16, "duration": "200us", "deadline": "50ms",
         "impairments": _LINK_LOSS},
        1,
    ),
    # Both flaps lose the setup barrier, which the point does not resend.
    "syn_flap_2ms": (
        "syn_flood_flowmod",
        {"n_flows": 16, "duration": "200us", "deadline": "20ms",
         "impairments": _flap("2ms", "1ms")},
        0,
    ),
    "syn_flap_20ms": (
        "syn_flood_flowmod",
        {"n_flows": 16, "duration": "200us", "deadline": "20ms",
         "impairments": _flap("20ms", "6ms")},
        0,
    ),
    "oflops_flow_mod": (
        "oflops",
        {"module": "flow_mod_latency", "n_rules": 16, "telemetry": True},
        0,
    ),
    "oflops_consistency": (
        "oflops",
        {"module": "forwarding_consistency", "n_rules": 16, "telemetry": True},
        0,
    ),
    "oflops_flow_mod_flap": (
        "oflops",
        {"module": "flow_mod_latency", "n_rules": 4, "telemetry": True,
         "impairments": _flap("20ms", "3ms"), "max_duration": "20ms"},
        0,
    ),
}

GOLDEN = {
    "e4_deadline_cut": "655513e06e733b50438fae3c9adc7ce54ba9614b43e25a743109c5991b5ddd3e",
    "e4_eager_64": "8fc77ff08a571cfd3d2d674f707749362c0dbfd5261d2a69d4c56f2ad4a5abf6",
    "e4_flap_degraded": "684cb19925e2652c9c251bf1762c9c923c602c53cb379b77ce11b7d8630d5f1d",
    "e4_flap_one_retry": "b1113553b551b936caaea15f28d4aeee3ad0f850a4cac75e236e163eed1aa215",
    "e4_slow_firmware": "e648e60bbe810b141a16092013f721e2d03af3e3cbe340537fa6aff538ca3de6",
    "e4_spec_64": "08782264a66f1ed1913e4529846c0fc3db400b754d3318787132cb7ed9ab2563",
    "e5_64": "32a8e605906cc415a11f05d0553d4c09c2fa458121c7e8e88b0773c175c9b2a3",
    "e5_eager_4_gap10": "82ca83033601de5f354b8404087176f2f98d8cba97731ae38a5b10558a7aa2dc",
    "e5_spec_4_gap10": "7c16a592c2a4950e0a525985b39398527f94c55f7e741839b07a6b9bc3a930e1",
    "flap_eager": "90bc32727c7f8bf47a20a6a2f5768d7b152eda59516ba2c10162f4e4e5dadf60",
    "flap_spec": "bd11ca87d9a5ce138197c7703a420924c5d1c337a67f2f8f74ce055d14a90605",
    "oflops_consistency": "45d84d439753b450cc6fda68b7f4b6ef1192aad42e681263b545b6967ebbe9a6",
    "oflops_flow_mod": "d3b772e75d323cf7419119af4cceaf93ed0539b3926940972ab09907b23f343e",
    "oflops_flow_mod_flap": "e939b952b709b93beff28c8ee652a9d11195a0c73b22317c2b7da14524805db0",
    "syn_1024": "27e670f4e6a5a0e47ab490e2090ad78ac55a073b0bb8d6c37c9378a3c1fdb204",
    "syn_flap_20ms": "fa69506fc7383be1a355eec78fbf750ac722c8a09de52db3f7585898d6b06aac",
    "syn_flap_2ms": "a7b9c63b9109c09a704cf3435a01559338b0b7118befab261d8a7db9bbce22d2",
    "syn_link_loss": "ec3f4799acae05c6eaafed75865d768ea4adcd583ab11af29977d27275f64999",
    "syn_smoke_2": "a6dc57d08a6925808f6258ba8edbe1714de5d3577b1a70b723ba88f8e8d52c0b",
    "syn_smoke_4": "3ca4b856784d6c2d9169d9cb3469e3206dd95e54d83467ae9c9079213c78c728",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_part2_result_is_pinned(case):
    name, params, seed = CASES[case]
    result = get_scenario(name)(params, seed)
    digest = hashlib.sha256(canonical_json(result).encode()).hexdigest()
    assert digest == GOLDEN[case]
