"""Per-layer metrics computed from the spans of a traced run.

Each metric names the spans it reads and the workload whose operation
reaches them.  A metric is taken from the traced operations of the
workload being measured when they reach its layer; otherwise from one
traced probe operation of the named workload, run after the loop, so
every traced run reports every metric.  The trace file records which
source each metric came from.
"""

from __future__ import annotations

from collections import defaultdict

CLI_COMMANDS = ("ideal_text", "ideal_json", "saw", "leviton", "correlators", "circuit_check")
SELF_MODULES = ("circuit", "fock", "protocol", "saw", "leviton", "acceptance")

# name -> (unit, kind, span names, workload whose operation reaches the layer)
# kinds: mean (seconds per call, times scale), per_work (seconds per work
# unit, times scale), calls (calls per operation), work (work units per
# operation), work_per_call, self (module self seconds per operation).
METRICS: dict[str, tuple] = {}
for _n in range(1, 12):
    METRICS[f"acceptance.crit{_n:02d}_s"] = ("s", "mean", (f"acceptance.crit{_n:02d}",), "verify")
METRICS.update(
    {
        "saw.sample_us_per_draw": ("us", "per_work", ("saw._sample_phases",), "verify"),
        "saw.amplitudes_us_per_draw": ("us", "per_work", ("saw._conditional_amplitudes",), "verify"),
        "saw.draws": ("count", "work", ("saw._sample_phases",), "verify"),
        "leviton.oracle_s_per_gamma": ("s", "mean", ("leviton.photoassist_spectrum_oracle",), "verify"),
        "leviton.oracle_calls": ("count", "calls", ("leviton.photoassist_spectrum_oracle",), "verify"),
        "leviton.correlators_us": ("us", "mean", ("leviton.zero_T_correlators",), "exact_sweep"),
        "leviton.thermal_us": ("us", "mean", ("leviton.thermal_factors",), "exact_sweep"),
        "leviton.thermal_terms": ("count", "work_per_call", ("leviton.thermal_factors",), "exact_sweep"),
        "leviton.reconstruct_us": ("us", "mean", ("leviton.reconstructed_bloch",), "exact_sweep"),
        "protocol.premeasure_us": ("us", "mean", ("protocol.run_premeasurement",), "exact_sweep"),
        "protocol.povm_us": ("us", "mean", ("protocol.POVMElement.expectation",), "exact_sweep"),
        "protocol.conditional_us": ("us", "mean", ("protocol.bob_conditional",), "exact_sweep"),
        "protocol.tomography_us": ("us", "mean", ("protocol.tomography_bloch",), "exact_sweep"),
        "protocol.arm_phase_us": ("us", "mean", ("protocol.conditional_with_arm_phases",), "exact_sweep"),
        "fock.lift_apply_us": ("us", "mean", ("fock.lift_apply",), "exact_sweep"),
        "fock.lift_apply_calls": ("count", "calls", ("fock.lift_apply",), "exact_sweep"),
        "fock.moments_us": ("us", "mean", ("fock.occupation_moments", "fock.occupation_product_mean"), "exact_sweep"),
        "fock.moments_calls": ("count", "calls", ("fock.occupation_moments", "fock.occupation_product_mean"), "exact_sweep"),
        "circuit.compose_us": ("us", "mean", ("circuit.compose",), "exact_sweep"),
        "circuit.compose_calls": ("count", "calls", ("circuit.compose",), "exact_sweep"),
    }
)
for _c in CLI_COMMANDS + ("import",):
    METRICS[f"cli.{_c}_s"] = ("s", "mean", (f"cli.{_c}",), "cli_readme")
for _m in SELF_MODULES:
    METRICS[f"{_m}.self_s"] = ("s", "self", (_m,), "verify" if _m in ("saw", "acceptance") else "exact_sweep")

OVERHEAD = "trace.overhead_frac"
_SCALE = {"s": 1.0, "us": 1e6, "count": 1.0}


class Aggregate:
    """Span totals per (op tag, span name) and per (op tag, module)."""

    def __init__(self, spans: list[tuple], ops: list[str]) -> None:
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.work = defaultdict(float)
        self.self_time = defaultdict(float)
        for idx, (name, start, end, _, iteration, work) in enumerate(spans):
            tag = ops[iteration]
            key = (tag, name)
            self.calls[key] += 1
            self.time[key] += end - start
            self.work[key] += work
            self.self_time[(tag, name.split(".", 1)[0])] += end - start - child_time[idx]
        self.op_count = defaultdict(int)
        for tag in ops:
            self.op_count[tag] += 1

    def reaches(self, tag: str, metric: str) -> bool:
        _, kind, names, _ = METRICS[metric]
        if kind == "self":
            return (tag, names[0]) in self.self_time
        return any(self.calls[(tag, n)] for n in names)

    def value(self, tag: str, metric: str) -> float:
        unit, kind, names, _ = METRICS[metric]
        ops = self.op_count[tag]
        if kind == "self":
            return self.self_time[(tag, names[0])] / ops
        calls = sum(self.calls[(tag, n)] for n in names)
        time = sum(self.time[(tag, n)] for n in names)
        work = sum(self.work[(tag, n)] for n in names)
        if kind == "mean":
            return time / calls * _SCALE[unit]
        if kind == "per_work":
            return time / work * _SCALE[unit]
        if kind == "calls":
            return calls / ops
        if kind == "work":
            return work / ops
        return work / calls  # work_per_call


def probes_needed(spans, ops, workload: str, missing: set[str]) -> list[str]:
    """Workloads whose probe operation must run to cover unreached layers.

    cli.import_s is measured once per traced run, outside any operation.
    """
    agg = Aggregate(spans, ops)
    needed = []
    for metric, (_, _, _, owner) in METRICS.items():
        if metric in missing or metric == "cli.import_s" or owner == workload or owner in needed:
            continue
        if not agg.reaches("loop", metric):
            needed.append(owner)
    return needed


def compute(spans, ops, missing: set[str]) -> tuple[dict[str, float], dict[str, str]]:
    """Value of every metric in METRICS and the op tag it was taken from.

    A metric of a missing private stage reads 0 with source "missing".
    """
    agg = Aggregate(spans, ops)
    probes = sorted({t for t in ops if t != "loop"})
    values, sources = {}, {}
    for metric, (_, _, _, owner) in METRICS.items():
        values[metric], sources[metric] = 0.0, "missing"
        if metric in missing:
            continue
        # the probe of the metric's own workload first, then any other
        tags = ["loop", f"probe:{owner}"] + probes
        for tag in tags:
            if agg.reaches(tag, metric):
                values[metric], sources[metric] = agg.value(tag, metric), tag
                break
    return values, sources


def missing_metrics(missing_stages: list[str]) -> set[str]:
    return {
        metric
        for metric, (_, _, names, _) in METRICS.items()
        if any(n in missing_stages for n in names)
    }
