"""Literal pins of what trace generation and the profile pass produce.

Every other trace test compares one form of a stream against another
(packed columns against the generator's tuples, a store round trip
against the original), so both sides move together when the generator
changes. These literals do not: they were recorded once and pin the
exact bytes of generated traces and the exact profile counts the §2.1
heuristic sorts by. A refactor of generation, packing or the profile
pass must leave every one of them unchanged.
"""

from hashlib import sha256

import pytest

from repro.trace.benchmarks import BENCHMARK_NAMES
from repro.trace.profiling import (
    PROFILE_LENGTH,
    DCacheProfile,
    clear_profile_cache,
    profile_benchmark,
)
from repro.trace.stream import clear_trace_cache, trace_for

pytestmark = pytest.mark.usefixtures("clean_sim_state")

#: ``(accesses, l1d_misses, l2_misses)`` of each benchmark's profile at
#: the default window of PROFILE_LENGTH instructions.
PROFILE_PINS = {
    "gzip": (5663, 44, 44),
    "gcc": (7476, 244, 231),
    "crafty": (6687, 150, 149),
    "eon": (7784, 0, 0),
    "gap": (7187, 148, 148),
    "vortex": (8950, 474, 468),
    "bzip2": (7339, 161, 159),
    "parser": (6533, 330, 319),
    "mcf": (7877, 4114, 4044),
    "twolf": (6681, 2506, 1979),
    "vpr": (7717, 1954, 1873),
    "perlbmk": (8397, 1649, 1566),
}

#: sha256 of ``trace_for(name, length).packed.to_bytes()``: lengths below,
#: at and just past one 1,024-entry block, and two longer windows.
TRACE_PINS = {
    ("gcc", 700): "b6dc53a76cf7187f49c68f1fd4be73539e382ce9f62c419072f3414b8f7b33e7",
    ("gcc", 1024): "153367bffbc06c75aab992a3acf810881404562cb22e41016bf4a5a147a8a868",
    ("gcc", 1025): "5c0fbe7fba76656e4e77e01a3dd801a75125431564664c061c88ea886f1971ac",
    ("gcc", 4096): "6560914c3a63e5c313aead98533d6eb439fd17ceb57960493aeea11acf3de77a",
    ("gcc", 8000): "19575b4f8d9b94d4c76521417ef23981232b4e108d967835d8ed2d0704cae025",
    ("mcf", 700): "a6727b47146bdf493509991e22bb0fce77b9c1fef8a9c199dd4156d7dd1fb5a5",
    ("mcf", 1024): "5fee412574c2a17a0831e27e505aa42d55a614d1977819025118962a52045fd8",
    ("mcf", 1025): "fc696becb98ec74ce433096350ade7639dd05c0d33ac5a7c02d683630fdf26d3",
    ("mcf", 4096): "f9ddfd7f47f98a87941c2f5eb28a1a34017e64b186f7e5b438d5ce946a180d12",
    ("mcf", 8000): "c85391ed5248e58638ebbc2d74778c7a27a0672267ac6d7b53d10069c328af8c",
    ("vortex", 700): "8e705a42fce94baa747ad4db9f44766a9038ced760af2a98af500236e2d08314",
    ("vortex", 1024): "045e51133369910a74e662e534626d202a630187becc0975b1fa4a369e088fd2",
    ("vortex", 1025): "d7480f5346977e165d4323733c9da4d4732ec30c3882ddc820aaf1412ddb0d18",
    ("vortex", 4096): "d285892e4aa3de3522ae0bdc8265de29a65f40d98ac349765f68445cd90470eb",
    ("vortex", 8000): "6d21933554a190cbf5c94211556378e1ded2ddb07a72828e51c0bbd8676a2e96",
}


def test_pins_cover_every_benchmark():
    assert sorted(PROFILE_PINS) == sorted(BENCHMARK_NAMES)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_profile_is_pinned(name):
    clear_profile_cache()
    accesses, l1d_misses, l2_misses = PROFILE_PINS[name]
    assert profile_benchmark(name) == DCacheProfile(
        benchmark=name,
        instructions=PROFILE_LENGTH,
        accesses=accesses,
        l1d_misses=l1d_misses,
        l2_misses=l2_misses,
    )


@pytest.mark.parametrize("key", sorted(TRACE_PINS), ids="{0[0]}-{0[1]}".format)
def test_generated_trace_bytes_are_pinned(key):
    clear_trace_cache()
    name, length = key
    digest = sha256(trace_for(name, length).packed.to_bytes()).hexdigest()
    assert digest == TRACE_PINS[key]
