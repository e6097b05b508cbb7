"""Extension: scaling exponents and the launch-bound knee (Sec. VI-A, made
quantitative)."""

from repro import Framework, hetero_high
from repro.problems import make_levenshtein


def test_ext_scaling_regenerated(artifact_report):
    result = artifact_report("ext-scaling")
    fits = result.data["fits"]
    # CPU: quadratic throughout (fork cost linear, compute quadratic)
    assert 1.5 < fits["cpu"]["exponent"] < 2.2
    # GPU: blended exponent below the CPU's (the launch-bound head)
    assert fits["gpu"]["exponent"] < fits["cpu"]["exponent"]


def test_ext_scaling_gpu_knee(artifact_report):
    result = artifact_report("ext-scaling")
    sizes = result.data["sizes"]
    if max(sizes) < 16384:
        return  # quick mode: the knee sits at paper scale
    from repro.analysis.scaling import local_exponents

    exps = local_exponents(sizes, result.data["gpu"])
    assert exps[0] < 1.4 and exps[-1] > 1.5


def test_bench_estimate_fast_sweep(benchmark, artifact_report):
    artifact_report("ext-scaling")
    fw = Framework(hetero_high())

    def sweep():
        return [
            fw.estimate_fast(make_levenshtein(n, materialize=False))
            for n in (512, 1024, 2048, 4096)
        ]

    times = benchmark(sweep)
    assert times == sorted(times)
