"""Declarative trace specifications: a workload as generator, parameters, seed.

A :class:`TraceSpec` names a workload generator, its parameters and the
experiment seed — everything needed to *deterministically* rebuild the
flow list anywhere (``generate(params, RandomStreams(seed).stream(...))``
per :mod:`repro.sim.randomness`).  It is the recipe, not the run:

* the figures (:func:`repro.experiments.figures.trace_spec_for`),
  ``repro trace generate`` and the benchmark's workloads name their
  traces by spec and :meth:`TraceSpec.materialize` them;
* a run (:class:`~repro.experiments.runner.ExperimentJob`) carries the
  materialized :class:`~repro.transport.flow.FlowSpec` tuple, and the
  run cache (:mod:`repro.experiments.runcache`) keys it by the flows'
  field values, so two specs that compare equal but carry ``48e6`` and
  ``48_000_000`` key apart.

Specs are frozen and fully hashable: parameters are stored as a sorted
tuple of ``(name, scalar)`` pairs, never as a dict.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.sim.randomness import RandomStreams
from repro.traces import alibaba, hadoop, microbursts, video, websearch
from repro.traces.alibaba import AlibabaTraceParams
from repro.traces.hadoop import HadoopTraceParams
from repro.traces.microbursts import MicroburstTraceParams
from repro.traces.video import VideoTraceParams
from repro.traces.websearch import WebSearchTraceParams
from repro.transport.flow import FlowSpec

#: Trace name -> (parameter dataclass, generate(params, rng) callable).
#: Only generators with the uniform ``(params, rng)`` signature belong
#: here (the incast generator takes extra placement arguments and is
#: driven directly by the migration experiment).
TRACE_REGISTRY: dict[str, tuple[type, Callable]] = {
    "hadoop": (HadoopTraceParams, hadoop.generate),
    "websearch": (WebSearchTraceParams, websearch.generate),
    "microbursts": (MicroburstTraceParams, microbursts.generate),
    "video": (VideoTraceParams, video.generate),
    "alibaba": (AlibabaTraceParams, alibaba.generate),
}

_SCALAR_TYPES = (bool, int, float, str)


@dataclass(frozen=True)
class TraceSpec:
    """A self-contained, picklable recipe for one workload trace.

    Attributes:
        name: key into :data:`TRACE_REGISTRY`.
        seed: the experiment root seed; the generator draws from
            ``RandomStreams(seed).stream(stream or name)``, matching
            :func:`repro.experiments.figures.build_trace`.
        params: generator parameters as a sorted ``(name, value)``
            tuple; values must be scalars so the spec stays hashable.
        stream: override for the named RNG stream (defaults to the
            trace name).
    """

    name: str
    seed: int
    params: tuple[tuple[str, bool | int | float | str], ...] = ()
    stream: str | None = None

    def __post_init__(self) -> None:
        if self.name not in TRACE_REGISTRY:
            known = ", ".join(sorted(TRACE_REGISTRY))
            raise ValueError(f"unknown trace {self.name!r}; known: {known}")
        params = self.params
        if isinstance(params, dict):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted((str(k), v) for k, v in params))
        for key, value in params:
            if not isinstance(value, _SCALAR_TYPES):
                raise TypeError(
                    f"trace param {key}={value!r} is not a scalar; "
                    "TraceSpec must stay hashable and picklable")
        object.__setattr__(self, "params", params)

    @classmethod
    def create(cls, name: str, seed: int, stream: str | None = None,
               **params) -> TraceSpec:
        """Build a spec from loose keyword parameters."""
        return cls(name=name, seed=seed,
                   params=tuple(sorted(params.items())), stream=stream)

    def build_params(self):
        """Instantiate the generator's parameter dataclass."""
        param_cls, _ = TRACE_REGISTRY[self.name]
        return param_cls(**dict(self.params))

    @property
    def num_vms(self) -> int:
        """The VM population implied by the parameters."""
        return int(self.build_params().num_vms)

    def materialize(self) -> list[FlowSpec]:
        """Regenerate the flow list, bit-identical on every call."""
        _, generate = TRACE_REGISTRY[self.name]
        rng = RandomStreams(self.seed).stream(self.stream or self.name)
        return generate(self.build_params(), rng)
