"""Pinned payload digests: the served bytes of every direction.

The address payload reads the exact accounting of the folded address
view instead of masking the scatter once per object; the pins below
hold the payloads of a STREAM and an HPCG trace at the digests the
masking implementation produced, so no served byte moves.
"""

import pytest

from repro.extrae.tracer import TracerConfig
from repro.folding.report import fold_trace
from repro.pipeline import SessionConfig, run_workload
from repro.service.payloads import address_payload, counters_payload, lines_payload
from repro.workloads.stream import StreamConfig, StreamWorkload

PINS = {
    "stream": {
        ("counters", 0): "65bb1dbcad8221607448bc699e51232557d33410b6f515025344a4c5fc97d34c",
        ("address", 0): "b0d3b49c05dfbc98b28206bfc533208bbb38af4aa784cc62e194a049237670ed",
        ("lines", 0): "5e366f647b41e85b9979bbbe7eb6a01e2a0860d1e35cf988fc75adadc125df82",
        ("address", 100): "25018675b4a17be210348a70239e3d3d006e5024dd8745e603cd06b4f284317b",
        ("lines", 100): "44a6934583aee6c417e02938d728fd282a6edd3921496f470c406b3a1aa6c914",
    },
    "hpcg": {
        ("counters", 0): "93012d9559a5c0d73a4cd9581064b8c39c61e8051466bcd43d1af4f1623ff10c",
        ("address", 0): "06ee53a87b4a1ba9ce1459e931a5d45a2a2cbed39263352bc813d9d5ff555b2f",
        ("lines", 0): "1bf3c2b239e3ae645bcb8c1af719d109b54fb2bf9b8bc1aa6f19afb9f90fe551",
        ("address", 100): "a5ee6b7d142bcbdaeb598e11d25f80ad95054c3661f68a4e31032a77ee745bc4",
        ("lines", 100): "85b64137e5433509e99cc19453221df2b0196e79ec2c4a87af6d57152705af08",
    },
}

BUILDERS = {
    "counters": lambda report, max_points: counters_payload(report),
    "address": address_payload,
    "lines": lines_payload,
}


@pytest.fixture(scope="module", params=sorted(PINS))
def case(request):
    """(workload name, resident report) of one fixture trace."""
    if request.param == "stream":
        trace = run_workload(
            StreamWorkload(StreamConfig(n=1 << 14, iterations=3, blocks=2)),
            SessionConfig(
                seed=3,
                engine="analytic",
                tracer=TracerConfig(load_period=64, store_period=64),
            ),
        )
    else:
        trace = request.getfixturevalue("hpcg_trace")
    return request.param, fold_trace(trace)


def test_payload_digests_pinned(case):
    name, report = case
    got = {
        (direction, max_points): BUILDERS[direction](report, max_points)[
            "payload_digest"
        ]
        for direction, max_points in PINS[name]
    }
    assert got == PINS[name]

