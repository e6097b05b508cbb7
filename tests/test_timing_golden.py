"""Pinned simulated times: the timing model's numbers, bit for bit.

Every case below is priced three ways — ``Framework.estimate``,
``Framework.solve`` (where the problem is materialised) and
``Pricer.units`` — and each must equal the recorded ``float.hex()``
exactly. The matrix covers the heterogeneous executor (five paper
workloads on both presets, explicit and clamped parameters, the
pipeline/layout options, native inverted-L, seeded draws over all 15
contributing sets and over random machine constants) and the blocked
executor in both schedules (square and skewed tiles, ragged edge tiles,
the ramp-heavy patterns and the block-size U-curve).

A change to the timing model that moves any of these numbers is a
behaviour change and must be deliberate.
"""

from __future__ import annotations

import pytest

from repro import (
    ContributingSet,
    ExecOptions,
    Framework,
    HeteroParams,
    Pattern,
    hetero_high,
    hetero_low,
)
from repro.machine import CPUModel, GPUModel, Platform, TransferModel
from repro.problems import (
    make_checkerboard,
    make_dithering,
    make_fig8_problem,
    make_fig9_problem,
    make_lcs,
    make_levenshtein,
    make_synthetic,
)
from repro.slo.pricing import Pricer

MAKERS = {
    "lev": make_levenshtein,
    "dither": make_dithering,
    "checker": make_checkerboard,
    "fig9": make_fig9_problem,
    "fig8": make_fig8_problem,
}
PRESETS = {"high": hetero_high, "low": hetero_low}

#: Seeded draws over (mask, rows, cols, t_switch, t_share).
SYNTHETIC_DRAWS = [
    (5, 3, 30, 11, 42), (2, 33, 35, 33, 33), (13, 37, 37, 21, 37),
    (3, 32, 34, 25, 35), (10, 7, 13, 45, 11), (3, 18, 22, 28, 48),
    (10, 10, 2, 20, 11), (13, 2, 37, 5, 50), (6, 22, 26, 32, 21),
    (8, 26, 12, 15, 19), (6, 24, 27, 20, 27), (5, 25, 6, 8, 49),
    (13, 38, 13, 36, 46), (15, 24, 28, 24, 2), (5, 20, 21, 10, 19),
    (15, 29, 31, 5, 9), (12, 28, 2, 18, 31), (13, 33, 24, 8, 5),
    (13, 9, 26, 11, 21), (2, 33, 11, 3, 12),
]

#: Seeded draws over (cpu cell_ns, fork_us, gpu cell_ns, launch_us,
#: pinned_latency_us, t_switch, t_share).
MACHINE_DRAWS = [
    (31.382, 18.431, 1942.45, 2.382, 2.282, 35, 4),
    (44.596, 9.099, 799.34, 3.549, 6.782, 53, 55),
    (31.031, 16.261, 1072.4, 1.717, 0.314, 6, 13),
    (5.876, 11.601, 253.39, 36.302, 13.394, 19, 14),
    (25.99, 10.01, 1592.2, 1.3, 20.841, 23, 26),
    (49.446, 6.051, 242.44, 21.94, 20.831, 9, 9),
    (29.432, 4.127, 1304.01, 11.789, 28.238, 3, 2),
    (38.429, 13.873, 1101.67, 17.793, 8.854, 28, 25),
    (40.176, 15.107, 130.35, 25.312, 10.792, 55, 14),
    (29.212, 9.572, 225.55, 38.086, 25.368, 23, 26),
    (23.498, 8.588, 963.43, 25.127, 14.168, 30, 38),
    (7.245, 7.111, 1090.67, 21.051, 13.436, 18, 41),
    (5.261, 11.496, 1044.51, 14.465, 10.84, 23, 51),
    (22.607, 7.86, 760.76, 19.602, 25.681, 7, 58),
    (7.668, 15.661, 619.77, 4.944, 15.457, 27, 27),
    (17.787, 9.219, 156.08, 39.77, 16.191, 34, 29),
    (37.525, 8.55, 1850.38, 31.026, 18.036, 17, 53),
    (45.399, 3.562, 461.72, 34.825, 7.55, 48, 35),
    (49.527, 13.015, 1933.98, 9.447, 7.048, 48, 26),
    (36.129, 14.208, 1459.94, 36.374, 5.265, 26, 25),
]


def _random_machine(cpu_ns, fork, gpu_ns, launch, pin_lat):
    return Platform(
        name="random",
        cpu=CPUModel("c", cores=4, threads=8, freq_ghz=2.0,
                     cell_ns=cpu_ns, fork_us=fork),
        gpu=GPUModel("g", smx_count=4, cores_per_smx=64, clock_ghz=1.0,
                     cell_ns=gpu_ns, launch_us=launch),
        transfer=TransferModel(pinned_latency_us=pin_lat),
    )


def _cases():
    """``id -> (problem, platform, executor, params, options)`` thunks.

    The problem is built lazily; it is solvable when it was materialised.
    """
    cases = {}
    for mname, maker in MAKERS.items():
        for pname, preset in PRESETS.items():
            cases[f"hetero-{mname}-300-{pname}"] = (
                lambda m=maker: m(300, materialize=False), preset,
                "hetero", None, None,
            )
        for params in ((0, 0), (13, 41), (10**6, 10**6)):
            cases[f"hetero-{mname}-257-{params[0]}-{params[1]}"] = (
                lambda m=maker: m(257, materialize=False), hetero_high,
                "hetero", HeteroParams(*params), None,
            )
    for pipeline in (True, False):
        for layout in (True, False):
            cases[f"hetero-fig9-pipeline{int(pipeline)}-layout{int(layout)}"] = (
                lambda: make_fig9_problem(300, materialize=False), hetero_high,
                "hetero", HeteroParams(0, 100),
                ExecOptions(pipeline=pipeline, use_wavefront_layout=layout),
            )
    cases["hetero-fig8-native"] = (
        lambda: make_fig8_problem(200, materialize=False), hetero_high,
        "hetero", HeteroParams(20, 30),
        ExecOptions(inverted_l_as_horizontal=False),
    )
    cases["hetero-fig8-override"] = (
        lambda: make_fig8_problem(200, materialize=False), hetero_high,
        "hetero", HeteroParams(5, 17),
        ExecOptions(pattern_override=Pattern.INVERTED_L),
    )
    for k, (mask, rows, cols, ts, sh) in enumerate(SYNTHETIC_DRAWS):
        cases[f"hetero-synthetic-{k}"] = (
            lambda mask=mask, rows=rows, cols=cols: make_synthetic(
                ContributingSet.from_mask(mask), rows, cols
            ),
            hetero_high, "hetero", HeteroParams(ts, sh), None,
        )
    for k, (*machine, ts, sh) in enumerate(MACHINE_DRAWS):
        cases[f"hetero-machine-{k}"] = (
            lambda: make_dithering(40, 53, materialize=False),
            lambda machine=tuple(machine): _random_machine(*machine),
            "hetero", HeteroParams(ts, sh), None,
        )
    for mask, shape in ((6, (48, 40)), (15, (40, 48)), (4, (32, 32))):
        for dataflow in (False, True):
            cases[f"blocked-{mask}-{shape[0]}x{shape[1]}-df{int(dataflow)}"] = (
                lambda mask=mask, shape=shape: make_synthetic(
                    ContributingSet.from_mask(mask), *shape
                ),
                hetero_high, "cpu-blocked", None,
                ExecOptions(block_size=8, dataflow=dataflow),
            )
    # ragged edge tiles, square and skewed
    for mask, shape, block in ((7, (50, 37), 7), (15, (37, 50), 5)):
        for dataflow in (False, True):
            cases[f"blocked-ragged-{mask}-b{block}-df{int(dataflow)}"] = (
                lambda mask=mask, shape=shape: make_synthetic(
                    ContributingSet.from_mask(mask), *shape
                ),
                hetero_high, "cpu-blocked", None,
                ExecOptions(block_size=block, dataflow=dataflow),
            )
    cases["blocked-fig8-native"] = (
        lambda: make_fig8_problem(96, materialize=False), hetero_high,
        "cpu-blocked", None,
        ExecOptions(inverted_l_as_horizontal=False, block_size=8),
    )
    for dataflow in (False, True):
        cases[f"blocked-fig8-ramp-df{int(dataflow)}"] = (
            lambda: make_fig8_problem(256, materialize=False), hetero_high,
            "cpu-blocked", None,
            ExecOptions(inverted_l_as_horizontal=False, block_size=16,
                        dataflow=dataflow),
        )
        cases[f"blocked-knight-ramp-df{int(dataflow)}"] = (
            lambda: make_synthetic(ContributingSet.of("W", "NE"), 256, 256),
            hetero_high, "cpu-blocked", None,
            ExecOptions(block_size=16, dataflow=dataflow),
        )
    for block in (1, 32, 512):
        cases[f"blocked-lcs-512-b{block}"] = (
            lambda: make_lcs(512, materialize=False), hetero_high,
            "cpu-blocked", None, ExecOptions(block_size=block),
        )
    return cases


CASES = _cases()

#: ``simulated_time.hex()`` per case.
GOLDEN: dict[str, str] = {
    "blocked-15-40x48-df0": "0x1.388a163625c07p-14",
    "blocked-15-40x48-df1": "0x1.9b4bfb750e9cap-16",
    "blocked-4-32x32-df0": "0x1.f9bb7e81f74ccp-17",
    "blocked-4-32x32-df1": "0x1.29d4426a914c0p-17",
    "blocked-6-48x40-df0": "0x1.7b4c9ee17979ap-16",
    "blocked-6-48x40-df1": "0x1.a9785ee161da5p-17",
    "blocked-fig8-native": "0x1.014b9e52d5a9bp-14",
    "blocked-fig8-ramp-df0": "0x1.ce15b50e8e3a0p-13",
    "blocked-fig8-ramp-df1": "0x1.8ea0da3a24920p-13",
    "blocked-knight-ramp-df0": "0x1.9480174bfdd84p-12",
    "blocked-knight-ramp-df1": "0x1.deb3036bfdfd0p-13",
    "blocked-lcs-512-b1": "0x1.d7a6ce1326813p-9",
    "blocked-lcs-512-b32": "0x1.9ffa7e2d4ee51p-11",
    "blocked-lcs-512-b512": "0x1.9cb5c79168619p-9",
    "blocked-ragged-15-b5-df0": "0x1.b8992483e1da4p-14",
    "blocked-ragged-15-b5-df1": "0x1.a4372fd6ad2cap-16",
    "blocked-ragged-7-b7-df0": "0x1.8d9eb9940ae49p-14",
    "blocked-ragged-7-b7-df1": "0x1.ca049b70336eep-16",
    "hetero-checker-257-0-0": "0x1.24fe20b3a802bp-9",
    "hetero-checker-257-1000000-1000000": "0x1.e17f1b6cc080ep-11",
    "hetero-checker-257-13-41": "0x1.446322859d421p-9",
    "hetero-checker-300-high": "0x1.20e3e2b1b5567p-10",
    "hetero-checker-300-low": "0x1.7c504fa6b28eep-10",
    "hetero-dither-257-0-0": "0x1.c271fbac19885p-8",
    "hetero-dither-257-1000000-1000000": "0x1.57f8cc675840ep-9",
    "hetero-dither-257-13-41": "0x1.ccfa61795598fp-8",
    "hetero-dither-300-high": "0x1.99c3f13403666p-9",
    "hetero-dither-300-low": "0x1.05d1877cb1d1dp-8",
    "hetero-fig8-257-0-0": "0x1.0750814cc6aeap-9",
    "hetero-fig8-257-1000000-1000000": "0x1.e3609a882d416p-11",
    "hetero-fig8-257-13-41": "0x1.051acddfe7f63p-9",
    "hetero-fig8-300-high": "0x1.21db3ac89045ap-10",
    "hetero-fig8-300-low": "0x1.7d95ee4fec851p-10",
    "hetero-fig8-native": "0x1.aa709ea7093e0p-10",
    "hetero-fig8-override": "0x1.be738ca261d4ep-10",
    "hetero-fig9-257-0-0": "0x1.0750814cc6aeap-9",
    "hetero-fig9-257-1000000-1000000": "0x1.e3609a882d416p-11",
    "hetero-fig9-257-13-41": "0x1.051acddfe7f63p-9",
    "hetero-fig9-300-high": "0x1.21db3ac89045ap-10",
    "hetero-fig9-300-low": "0x1.7d95ee4fec851p-10",
    "hetero-fig9-pipeline0-layout0": "0x1.2ee858960494ep-9",
    "hetero-fig9-pipeline0-layout1": "0x1.2ee858960494ep-9",
    "hetero-fig9-pipeline1-layout0": "0x1.2ee858960494ep-9",
    "hetero-fig9-pipeline1-layout1": "0x1.2ee858960494ep-9",
    "hetero-lev-257-0-0": "0x1.fea6f1685a05ap-9",
    "hetero-lev-257-1000000-1000000": "0x1.bb081811edf20p-10",
    "hetero-lev-257-13-41": "0x1.dc0430b8adeccp-9",
    "hetero-lev-300-high": "0x1.0682085b2b24ap-9",
    "hetero-lev-300-low": "0x1.47f74a965d36cp-9",
    "hetero-machine-0": "0x1.5c213070630d8p-9",
    "hetero-machine-1": "0x1.4746a764b8cbfp-10",
    "hetero-machine-10": "0x1.d0ba2f9b65972p-9",
    "hetero-machine-11": "0x1.cc1f9781470bap-9",
    "hetero-machine-12": "0x1.6d79c107ba5ecp-9",
    "hetero-machine-13": "0x1.156d107127697p-10",
    "hetero-machine-14": "0x1.2579e7ba12802p-8",
    "hetero-machine-15": "0x1.17d6c8b6fa945p-8",
    "hetero-machine-16": "0x1.32132ae7a0dd0p-10",
    "hetero-machine-17": "0x1.0805b3aae64dbp-9",
    "hetero-machine-18": "0x1.3943cdaa401a3p-9",
    "hetero-machine-19": "0x1.40e619a99cd0bp-8",
    "hetero-machine-2": "0x1.05d83b724d387p-9",
    "hetero-machine-3": "0x1.4805a07495d40p-8",
    "hetero-machine-4": "0x1.2f9714353f828p-8",
    "hetero-machine-5": "0x1.34cc6d5ab58b4p-8",
    "hetero-machine-6": "0x1.7a23643a4342ep-8",
    "hetero-machine-7": "0x1.c053971a8a668p-9",
    "hetero-machine-8": "0x1.49f80d29c7516p-9",
    "hetero-machine-9": "0x1.78d5efb175532p-8",
    "hetero-synthetic-0": "0x1.34e47bcc5a4ecp-17",
    "hetero-synthetic-1": "0x1.24ed609b3f43ap-12",
    "hetero-synthetic-10": "0x1.3433c6bf98bf6p-14",
    "hetero-synthetic-11": "0x1.3c02c6dfe6662p-14",
    "hetero-synthetic-12": "0x1.130f0fe9ff698p-12",
    "hetero-synthetic-13": "0x1.a2337deaf2b82p-12",
    "hetero-synthetic-14": "0x1.ae1af891defa8p-13",
    "hetero-synthetic-15": "0x1.63027c24cc922p-11",
    "hetero-synthetic-16": "0x1.9b3e3d0521b09p-18",
    "hetero-synthetic-17": "0x1.61dc5ebb12bcap-11",
    "hetero-synthetic-18": "0x1.cc6c890d772d9p-13",
    "hetero-synthetic-19": "0x1.a2b756e9e6954p-14",
    "hetero-synthetic-2": "0x1.5a7784479f582p-12",
    "hetero-synthetic-3": "0x1.9d15752725d9fp-14",
    "hetero-synthetic-4": "0x1.e06b2743da9d0p-15",
    "hetero-synthetic-5": "0x1.cc93e57f81380p-15",
    "hetero-synthetic-6": "0x1.16013bb4240c4p-15",
    "hetero-synthetic-7": "0x1.ecf1d2dbbe92ap-14",
    "hetero-synthetic-8": "0x1.a2c1186034782p-13",
    "hetero-synthetic-9": "0x1.0a9f9ec9e2c03p-13",
}


def _build(case_id):
    make_problem, make_platform, executor, params, options = CASES[case_id]
    fw = Framework(make_platform(), options)
    return fw, make_problem(), executor, params


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_estimate_matches_golden(case_id):
    fw, problem, executor, params = _build(case_id)
    res = fw.estimate(problem, executor=executor, params=params)
    assert res.simulated_time.hex() == GOLDEN[case_id]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_pricer_matches_golden(case_id):
    fw, problem, executor, params = _build(case_id)
    units = Pricer(fw).units(problem, params=params, executor=executor)
    assert units is not None and units.hex() == GOLDEN[case_id]


@pytest.mark.parametrize(
    "case_id",
    sorted(k for k in CASES if "synthetic" in k
           or (k.startswith("blocked-") and "ramp" not in k
               and "fig8" not in k and "lcs" not in k)),
)
def test_solve_matches_golden(case_id):
    fw, problem, executor, params = _build(case_id)
    res = fw.solve(problem, executor=executor, params=params)
    assert res.simulated_time.hex() == GOLDEN[case_id]

