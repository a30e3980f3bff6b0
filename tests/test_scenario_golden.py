"""Golden digests for the point scenarios outside demo Part II.

Each registered point scenario binds a spec's params to one point
function: human units are coerced, the shard seed is passed unless the
spec pins one, and every parameter the spec leaves out takes its
default. The digests below pin the SHA-256 of ``canonical_json`` of
each scenario result on the small params of the invariance matrix, run
at each of its axis values, plus cases that leave out a parameter whose
default matters or pin the seed. ``tests/test_part2_golden.py`` pins the
demo Part II scenarios. A change to how params reach the point
functions must leave every digest identical.
"""

import hashlib

import pytest

from repro.runner import canonical_json, get_scenario

CBR = {"model": "cbr", "params": {"rate": "2Gbps"}}
BURST_TRAIN = {
    "model": "burst_train",
    "params": {"frames_per_burst": 16, "inter_burst_gap": "20us"},
}

#: scenario -> (base params, {axis: values}): the invariance ``SMOKE``
#: entries of the point scenarios that demo Part II does not cover.
SMOKE = {
    "line_rate": ({"duration": "20us", "telemetry": True}, {"frame_size": [64, 1518]}),
    "idt_precision": (
        {"target_gap_ps": "1us", "packet_count": 50},
        {"kind": ["osnt", "software"]},
    ),
    "clock_error": ({"horizon_s": 2}, {"mode": ["free-running", "gps-disciplined"]}),
    "legacy_latency": (
        {"frame_size": 256, "duration": "50us", "telemetry": True},
        {"load": [0.2, 0.9]},
    ),
    "capture_path": ({"duration": "50us"}, {"load": [0.3, 1.0]}),
    "timestamp_placement": ({"duration": "50us"}, {"load": [0.3, 0.9]}),
    "router_latency": ({"fib_fill": 50, "duration": "50us"}, {"prefix_len": [8, 24]}),
    "imix_latency": ({"duration": "50us"}, {"load": [0.3, 0.8]}),
    "rfc2544": ({"duration": "50us", "resolution": 0.1}, {"frame_size": [64, 512]}),
    "incast_burst": (
        {
            "senders": 2,
            "frame_size": 256,
            "duration": "100us",
            "waveforms": True,
            "telemetry": True,
        },
        {"traffic": [CBR, BURST_TRAIN]},
    ),
    "lossy_link_latency": ({"duration": "100us"}, {"loss_rate": [0.0, 0.05]}),
    "gps_holdover_drift": (
        {"holdover_start_s": 1, "holdover_len_s": 1, "horizon_s": 3},
        {"freq_error_ppm": [10.0, 30.0]},
    ),
    "fct_vs_loss": (
        {"n_flows": 4, "flow_bytes": 10_000},
        {"protected": [False, True]},
    ),
    "effective_loss_vs_speed": (
        {"n_flows": 4, "flow_bytes": 10_000},
        {"link_rate": ["10Gbps", "100Gbps"]},
    ),
    "throughput_under_bursty_corruption": (
        {"n_flows": 2, "flow_bytes": 20_000},
        {"protected": [False, True]},
    ),
}

#: The seed every case passes as the shard's derived seed.
SEED = 1


def _smoke_cases():
    cases = {}
    for name, (base, axes) in SMOKE.items():
        ((axis, values),) = axes.items()
        for index, value in enumerate(values):
            cases[f"{name}-{index}"] = (name, dict(base, **{axis: value}))
    return cases


#: case -> (scenario, params).
CASES = dict(
    _smoke_cases(),
    **{
        # Parameters left to their defaults.
        "effective_loss_vs_speed-default_link_rate": (
            "effective_loss_vs_speed",
            {"n_flows": 4, "flow_bytes": 10_000},
        ),
        "lossy_link_latency-default_loss_rate": (
            "lossy_link_latency",
            {"duration": "100us"},
        ),
        "fct_vs_loss-default_protected": (
            "fct_vs_loss",
            {"n_flows": 4, "flow_bytes": 10_000},
        ),
        # A human rate for the fabric and a seed pin on a seedless point.
        "rfc2544-fabric_5gbps": (
            "rfc2544",
            {
                "duration": "50us",
                "resolution": 0.1,
                "frame_size": 512,
                "fabric_rate_bps": "5Gbps",
                "seed": 0,
            },
        ),
        # A pinned seed wins over the shard's.
        "legacy_latency-pinned_seed": (
            "legacy_latency",
            {"frame_size": 256, "duration": "50us", "load": 0.9, "seed": 7},
        ),
    },
)

GOLDEN = {
    "capture_path-0": "ab84f851354f312d145cf8d8d31118cb0e9d0b882ff43336e764a91df62548a8",
    "capture_path-1": "94222ff16df75a5e22e739cd12073b57248192c9096ec632d2662261d52612bc",
    "clock_error-0": "11c4b73511652660fab68528b042e34bc95f6f92c0d3fff37bd96aa7843b7223",
    "clock_error-1": "408dbd0b5b6d106fac1771fd63083c31a2b3b171eb94e6e2ada5cff33209f926",
    "effective_loss_vs_speed-0": "a8469cfd6d88a75905146ff52268ae6efe199863240dc3bbd17da994d670615e",
    "effective_loss_vs_speed-1": "312b0eafdc36b066408a64e404db9a5f666c83e0e78c9f27b654b8676834a64a",
    "effective_loss_vs_speed-default_link_rate": "a8469cfd6d88a75905146ff52268ae6efe199863240dc3bbd17da994d670615e",
    "fct_vs_loss-0": "3e7b907e989e2c3bbd6bf5411731eb0bc40f99454da390122c8bfec0a2170dae",
    "fct_vs_loss-1": "734c63d6e5d95294b09a44eb4f727eb29d73f994acb43707a6a13991f2e0731a",
    "fct_vs_loss-default_protected": "3e7b907e989e2c3bbd6bf5411731eb0bc40f99454da390122c8bfec0a2170dae",
    "gps_holdover_drift-0": "0fcc9bf8784d5ea7e25a85bd64441a191df5388d7864a85e4088a0748c55f495",
    "gps_holdover_drift-1": "e69c166e8a2ff5017044ff2f7e725947e6e4d5124b801c1c9a2fa9c3b921a2fe",
    "idt_precision-0": "b3c4b1c078a9dc8db33c9d16707d449285b3f8dc9bcc149d0b0a9f9cc279feda",
    "idt_precision-1": "0fed252d6f5206c9299c71a12759fe873a087789c2aacccfda12ae99e067723e",
    "imix_latency-0": "4963a45d0338bbc8171643bc111f9411117fa42b179ca978907cb63647c7af3d",
    "imix_latency-1": "20ee12232944cfa2b37f8352f4b813ae36ddfbfd63fa64ebd316d1f68af61df9",
    "incast_burst-0": "ea32cc2bd8635450382e5129788ae3cf32515edf8d4397f099cced0eb5fdd7ba",
    "incast_burst-1": "551de6e87a35c4d955c145a2d79986f8161f0a2b11fb4e0ad32da06203d838a3",
    "legacy_latency-0": "b518827df9ea78813146b975948562b149373ff33f1c5142c553a0f4c0d88aea",
    "legacy_latency-1": "7bd1bf6aa6c424011012f0a8205ae52e0860989a6a7c242b23dee80521f5f235",
    "legacy_latency-pinned_seed": "7a6fe0085b7620b00678ea09ac8bd3c4fba6bb65ef643d92261f9d2de1457712",
    "line_rate-0": "5ba86b901e16c773cf5c09afdb10668431198a93b58c9a2eef82563a0482cd21",
    "line_rate-1": "9ff1a1f3dcd473736c2d46e68acdd245a9f0f3547547212607accd1ecbfd111d",
    "lossy_link_latency-0": "a764cbb1cd7fd9673a5bfee4b3d227c94d6d223b21aadac7e142e23e4873ab8f",
    "lossy_link_latency-1": "a2889a5a2d5339e46b0188785c0f2818ade6f107e181765c055c8b767bbbae15",
    "lossy_link_latency-default_loss_rate": "e9320797e1b919f67c07362f7f3d8f5403d445e54af7e885ece27d2f55961841",
    "rfc2544-0": "017c277b29a62cec4045856d660a04df229850c99def13a2ac8cb4f54da238a3",
    "rfc2544-1": "a15d17de254a72e8eb79cb8da6bbfa3da286e5be5020df9d9538ac7227bcb8b4",
    "rfc2544-fabric_5gbps": "df99371ba787bedb268ac3fe27920267c513920586b68238d9b192047fbd6603",
    "router_latency-0": "c6d3dc78cab03c85d6e4765c8ccd3280b11306aa4e45dbb6285fffc96ddfff14",
    "router_latency-1": "f8e1d4cbe010074ff7ef5348e68f529943c7aa56580bc5bb457c643af6103b9a",
    "throughput_under_bursty_corruption-0": "38971c95176ea680cd95fa8ab0ba13eda21a1e067d05430b4b103eff6953d0e9",
    "throughput_under_bursty_corruption-1": "29c6becab58c7621e3d33b11be40633c4d67142b71ee2ec90c8966749b602f45",
    "timestamp_placement-0": "0563d93e4252b414a90def4ed919b2d926cf5529cdd1e3f19dae755a12b227a1",
    "timestamp_placement-1": "1f3021b33a056faf36edf0dee5c77b39716e6a5c3032339005e2d0ba2beff5d7",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scenario_result_is_pinned(case):
    name, params = CASES[case]
    result = get_scenario(name)(params, SEED)
    digest = hashlib.sha256(canonical_json(result).encode()).hexdigest()
    assert digest == GOLDEN[case]
