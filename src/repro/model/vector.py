"""Vectorized batch evaluation kernels for the capability model.

The fitted model is point values plus linear/saturation curves — exactly
the shape NumPy array evaluation is built for.  This module turns a
``/v1/predict`` query list into a **compiled plan** (:class:`PredictPlan`)
that is evaluated as a handful of array operations instead of one Python
call per query:

* *compile* walks the query list once, validating each query in order
  with exactly the scalar path's error messages, and groups queries by
  metric into index arrays (positions, distinct lookup keys, count and
  size vectors);
* *evaluate* binds a :class:`~repro.model.parameters.CapabilityModel`
  and computes every query of a metric family in one NumPy sweep —
  a fancy-index gather for the point values (latency, bandwidth) and a
  fused ``alpha + beta * n`` for the linear curves (contention,
  multiline);
* *fuse* (:func:`evaluate_plans`) concatenates the curve arrays of many
  plans bound to the same model, so a whole coalesced serving batch
  dispatches as a single array evaluation.

The compiled plan is the serving layer's only predict evaluator and
validator.  The contract, enforced by golden tests: for every query
list, the plan's result is **byte-identical** to the scalar reference
(:func:`predict_one` applied per query, the test oracle) — same IEEE-754
arithmetic (one multiply, one add, same operand order), same defaults,
same messages.  Errors surface structural-first: :func:`compile_queries`
rejects the first structurally invalid query (unknown metric or
location, bad count) before :meth:`PredictPlan.check` reports the first
query the fitted model cannot answer.  The speedup is therefore a pure
implementation win, never a semantics change; docs/PERFORMANCE.md
derives where it comes from and when it saturates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.fields import Choice, Field, Integer, boolean, fail, string, table
from repro.model.parameters import CapabilityModel
from repro.units import lines_in

__all__ = [
    "PredictPlan",
    "compile_queries",
    "predict_one",
    "evaluate_plans",
    "evaluate_plan_values",
    "contention_curve",
    "multiline_curve",
    "latency_table",
]

#: A count the plan evaluates as float64: a JSON integer >= 1.
_COUNT = Integer(lo=1, float64=True)

#: The fields of each predict metric: name, validator and default.  The
#: compiler reads (and checks) only the fields a query's metric and
#: location use.
PREDICT_FIELDS: Dict[str, Dict[str, Field]] = {
    "latency": table(
        Field(
            "location", Choice("local", "tile", "remote", "memory"), "memory"
        ),
        Field("state", string, "M"),
        Field("kind", string, "ddr"),
    ),
    "bandwidth": table(
        Field("op", string, "copy"),
        Field("kind", string, "ddr"),
        Field("peak", boolean, False),
    ),
    "contention": table(Field("n", _COUNT)),
    "multiline": table(
        Field("bytes", _COUNT),
        Field("location", string, "remote"),
    ),
}

_LAT, _BW = PREDICT_FIELDS["latency"], PREDICT_FIELDS["bandwidth"]
_CON, _ML = PREDICT_FIELDS["contention"], PREDICT_FIELDS["multiline"]


def _unknown_metric(metric: Any) -> ModelError:
    return fail("metric", metric, f"must be one of {sorted(PREDICT_FIELDS)}")


# -- scalar reference --------------------------------------------------------


def predict_one(cap: CapabilityModel, query: Any) -> dict:
    """Scalar reference evaluation of one predict query.

    The test oracle, not a serving path: the golden tests pin
    :meth:`PredictPlan.evaluate` output byte-identical to a per-query
    loop over this function.
    """
    if not isinstance(query, dict):
        raise ModelError("each query must be a JSON object")
    metric = query.get("metric")
    if metric == "latency":
        location = _LAT["location"].read(query)
        if location == "local":
            value = cap.RL
        elif location == "memory":
            value = cap.RI_kind(_LAT["kind"].read(query))
        else:
            value = _state_latency(cap, location, _LAT["state"].read(query))
    elif metric == "bandwidth":
        value = cap.bw(
            _BW["op"].read(query),
            _BW["kind"].read(query),
            peak=_BW["peak"].read(query),
        )
    elif metric == "contention":
        value = cap.T_C(_CON["n"].read(query))
    elif metric == "multiline":
        nbytes = _ML["bytes"].read(query)
        value = cap.multiline_ns(_ML["location"].read(query), nbytes)
    else:
        raise _unknown_metric(metric)
    unit = "GB/s" if metric == "bandwidth" else "ns"
    return {"metric": metric, "value": value, "unit": unit}


# -- the compiled plan -------------------------------------------------------


@dataclass
class _Gather:
    """One point-value metric family: distinct keys, gathered by id."""

    #: Query positions in the original list (int64).
    pos: np.ndarray
    #: Per-position index into :attr:`keys` (int64).
    ids: np.ndarray
    #: Distinct lookup keys, in first-appearance order.
    keys: List[Tuple]
    #: First query position using each distinct key (error ordering).
    first_pos: List[int]


@dataclass
class _Curve:
    """One linear-curve metric family: positions plus count vector."""

    pos: np.ndarray
    #: The curve argument per query (accessor count / line count), f64.
    n: np.ndarray
    #: Distinct curve keys (multiline locations); empty for contention.
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    keys: List[str] = field(default_factory=list)
    first_pos: List[int] = field(default_factory=list)


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


@dataclass
class PredictPlan:
    """Compiled form of one predict ``queries`` list.

    Cheap to evaluate, cap-independent, safe to cache by the request's
    content key: compiling validates everything that does not depend on
    the fitted model; :meth:`evaluate` re-checks the model-dependent
    lookups (which states/kinds/ops the artifact actually fitted) in
    query order before touching any array.
    """

    n_queries: int
    #: Per-query ``(metric, unit)`` for response assembly.
    metrics: List[str]
    units: List[str]
    latency: _Gather
    bandwidth: _Gather
    contention: _Curve
    multiline: _Curve

    # -- validation (model-dependent, error order == scalar order) ---------

    def _first_error(
        self, cap: CapabilityModel
    ) -> Optional[Tuple[int, Callable[[], Any]]]:
        """(position, raiser) of the first query the model cannot answer,
        or None.  The raiser reproduces the scalar path's exception."""
        worst: Optional[Tuple[int, Callable[[], Any]]] = None

        def consider(pos: int, raiser: Callable[[], Any]) -> None:
            nonlocal worst
            if worst is None or pos < worst[0]:
                worst = (pos, raiser)

        for (loc, sub), pos in zip(self.latency.keys, self.latency.first_pos):
            if loc == "memory":
                if sub not in cap.r_memory:
                    consider(pos, lambda sub=sub: cap.RI_kind(sub))
            elif loc != "local" and sub not in _fitted_states(cap, loc):
                consider(pos, lambda loc=loc, sub=sub:
                         _state_latency(cap, loc, sub))
        for key, pos in zip(self.bandwidth.keys, self.bandwidth.first_pos):
            op, kind, peak = key
            skey = f"{op}/{kind}/peak" if peak else f"{op}/{kind}"
            if skey not in cap.stream:
                consider(pos, lambda op=op, kind=kind, peak=peak:
                         cap.bw(op, kind, peak=peak))
        for loc, pos in zip(self.multiline.keys, self.multiline.first_pos):
            if loc not in cap.multiline:
                consider(pos, lambda loc=loc: cap.multiline_ns(loc, 64))
        return worst

    def check(self, cap: CapabilityModel) -> None:
        """Raise exactly what the scalar loop would raise first, if
        anything in this plan is outside the fitted model."""
        err = self._first_error(cap)
        if err is not None:
            err[1]()
            raise ModelError(  # pragma: no cover — raiser always raises
                "vector plan validation failed without an error"
            )

    # -- evaluation ---------------------------------------------------------

    def _gather(self, cap: CapabilityModel, values: np.ndarray) -> None:
        """Fill in the point values (latency, bandwidth): a handful of
        distinct table entries, gathered by id."""
        lat, bw = self.latency, self.bandwidth
        if lat.pos.size:
            table = np.array(
                [_latency_value(cap, k) for k in lat.keys], dtype=np.float64
            )
            values[lat.pos] = table[lat.ids]
        if bw.pos.size:
            table = np.array(
                [cap.stream[_stream_key(k)] for k in bw.keys],
                dtype=np.float64,
            )
            values[bw.pos] = table[bw.ids]

    def _values(self, cap: CapabilityModel) -> np.ndarray:
        """The per-query value vector, computed as array sweeps."""
        values = np.empty(self.n_queries, dtype=np.float64)
        self._gather(cap, values)
        con = self.contention
        if con.pos.size:
            values[con.pos] = (
                cap.contention.alpha + cap.contention.beta * con.n
            )
        ml = self.multiline
        if ml.pos.size:
            alphas = np.array(
                [cap.multiline[k].alpha for k in ml.keys], dtype=np.float64
            )
            betas = np.array(
                [cap.multiline[k].beta for k in ml.keys], dtype=np.float64
            )
            values[ml.pos] = alphas[ml.ids] + betas[ml.ids] * ml.n
        return values

    def results(self, values: np.ndarray) -> List[dict]:
        """Assemble the per-query result dicts around a value vector."""
        return [
            {"metric": m, "value": v, "unit": u}
            for m, v, u in zip(self.metrics, values.tolist(), self.units)
        ]

    def evaluate(self, cap: CapabilityModel) -> List[dict]:
        """One NumPy sweep over every query; byte-identical to the
        scalar loop (golden-tested)."""
        self.check(cap)
        return self.results(self._values(cap))


def _fitted_states(cap: CapabilityModel, location: str) -> Mapping[str, float]:
    return cap.r_tile if location == "tile" else cap.r_remote


def _state_latency(cap: CapabilityModel, location: str, state: str) -> float:
    """The ``tile`` or ``remote`` latency of a MESIF state, if fitted."""
    fitted = _fitted_states(cap, location)
    if state not in fitted:
        raise ModelError(
            f"no {location} latency for state {state!r}; "
            f"have {sorted(fitted)}"
        )
    return fitted[state]


def _latency_value(cap: CapabilityModel, key: Tuple[str, str]) -> float:
    loc, sub = key
    if loc == "local":
        return cap.RL
    if loc == "memory":
        return cap.r_memory[sub]
    return _fitted_states(cap, loc)[sub]


def _stream_key(key: Tuple[str, str, bool]) -> str:
    op, kind, peak = key
    return f"{op}/{kind}/peak" if peak else f"{op}/{kind}"


class _GatherBuilder:
    def __init__(self) -> None:
        self.pos: List[int] = []
        self.ids: List[int] = []
        self.keys: List[Any] = []
        self.first_pos: List[int] = []
        self._index: Dict[Any, int] = {}

    def add(self, pos: int, key: Any) -> None:
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.keys)
            self._index[key] = idx
            self.keys.append(key)
            self.first_pos.append(pos)
        self.pos.append(pos)
        self.ids.append(idx)

    def build(self) -> _Gather:
        return _Gather(
            pos=np.asarray(self.pos or _EMPTY_I64, dtype=np.int64),
            ids=np.asarray(self.ids or _EMPTY_I64, dtype=np.int64),
            keys=self.keys,
            first_pos=self.first_pos,
        )


def compile_queries(queries: Any) -> PredictPlan:
    """Compile a predict ``queries`` list into a :class:`PredictPlan`.

    Validation mirrors the scalar path exactly: the list must be a
    non-empty list, every query a JSON object with a known metric, and
    each field it reads as :data:`PREDICT_FIELDS` types it — the first
    offending query raises with the scalar path's message.
    """
    if not isinstance(queries, list) or not queries:
        raise ModelError("predict needs a non-empty 'queries' list")
    metrics: List[str] = []
    units: List[str] = []
    # Multiline locations gather like point keys, plus a line count each.
    lat, bw, ml = _GatherBuilder(), _GatherBuilder(), _GatherBuilder()
    con_pos: List[int] = []
    con_n: List[float] = []
    ml_n: List[float] = []

    for pos, query in enumerate(queries):
        if not isinstance(query, dict):
            raise ModelError("each query must be a JSON object")
        metric = query.get("metric")
        if metric == "latency":
            location = _LAT["location"].read(query)
            if location == "local":
                lat.add(pos, ("local", ""))
            elif location == "memory":
                lat.add(pos, ("memory", _LAT["kind"].read(query)))
            else:
                lat.add(pos, (location, _LAT["state"].read(query)))
            units.append("ns")
        elif metric == "bandwidth":
            bw.add(pos, (
                _BW["op"].read(query),
                _BW["kind"].read(query),
                _BW["peak"].read(query),
            ))
            units.append("GB/s")
        elif metric == "contention":
            con_pos.append(pos)
            con_n.append(_CON["n"].read(query))
            units.append("ns")
        elif metric == "multiline":
            nbytes = _ML["bytes"].read(query)
            ml.add(pos, _ML["location"].read(query))
            ml_n.append(lines_in(nbytes))
            units.append("ns")
        else:
            raise _unknown_metric(metric)
        metrics.append(metric)

    return PredictPlan(
        n_queries=len(queries),
        metrics=metrics,
        units=units,
        latency=lat.build(),
        bandwidth=bw.build(),
        contention=_Curve(
            pos=np.asarray(con_pos or _EMPTY_I64, dtype=np.int64),
            n=np.asarray(con_n or _EMPTY_F64, dtype=np.float64),
        ),
        multiline=_Curve(
            pos=np.asarray(ml.pos or _EMPTY_I64, dtype=np.int64),
            n=np.asarray(ml_n or _EMPTY_F64, dtype=np.float64),
            ids=np.asarray(ml.ids or _EMPTY_I64, dtype=np.int64),
            keys=ml.keys,
            first_pos=ml.first_pos,
        ),
    )


# -- fused cross-request evaluation -----------------------------------------


def evaluate_plans(
    cap: CapabilityModel, plans: Sequence[PredictPlan]
) -> List[List[dict]]:
    """Evaluate many plans against one model as a single fused sweep.

    Convenience wrapper over :func:`evaluate_plan_values` that also
    assembles the per-query result dicts.  Results are byte-identical
    to evaluating each plan on its own: the fused arithmetic is
    elementwise.
    """
    values = evaluate_plan_values(cap, plans)
    return [p.results(v) for p, v in zip(plans, values)]


def evaluate_plan_values(
    cap: CapabilityModel, plans: Sequence[PredictPlan]
) -> List[np.ndarray]:
    """Per-plan value vectors for many plans, as a single fused sweep.

    The curve families (contention, multiline) of every plan are
    concatenated and computed in one ``alpha + beta * n`` array
    operation, then split back per plan — this is how a coalesced
    serving batch of distinct requests dispatches as *one* array
    evaluation.  Point-value gathers stay per-plan (they are a dozen
    table entries each).  The split-back is pure bookkeeping: each
    query's value is computed with exactly the per-plan arithmetic
    (same IEEE-754 operations, same operand order).

    Every plan must already have passed :meth:`PredictPlan.check`
    against ``cap``; per-request error isolation is the caller's job.
    The serving layer renders these vectors straight into response
    bytes without building the result dicts at all.
    """
    if not plans:
        return []
    if len(plans) == 1:
        return [plans[0]._values(cap)]

    values = [np.empty(p.n_queries, dtype=np.float64) for p in plans]

    # Point-value gathers: per plan, a handful of distinct keys each.
    for p, v in zip(plans, values):
        p._gather(cap, v)

    # Contention: one fused alpha + beta * n over every plan's counts.
    con_sizes = [p.contention.pos.size for p in plans]
    if any(con_sizes):
        fused_n = np.concatenate([p.contention.n for p in plans])
        fused = cap.contention.alpha + cap.contention.beta * fused_n
        offset = 0
        for p, v, size in zip(plans, values, con_sizes):
            if size:
                v[p.contention.pos] = fused[offset:offset + size]
            offset += size

    # Multiline: remap each plan's location ids into one union table,
    # then a single fused gather + linear sweep.
    ml_sizes = [p.multiline.pos.size for p in plans]
    if any(ml_sizes):
        union: Dict[str, int] = {}
        for p in plans:
            for key in p.multiline.keys:
                union.setdefault(key, len(union))
        union_keys = list(union)
        alphas = np.array(
            [cap.multiline[k].alpha for k in union_keys], dtype=np.float64
        )
        betas = np.array(
            [cap.multiline[k].beta for k in union_keys], dtype=np.float64
        )
        fused_ids = np.concatenate([
            np.array(
                [union[k] for k in p.multiline.keys], dtype=np.int64
            )[p.multiline.ids]
            if p.multiline.pos.size else _EMPTY_I64
            for p in plans
        ])
        fused_n = np.concatenate([p.multiline.n for p in plans])
        fused = alphas[fused_ids] + betas[fused_ids] * fused_n
        offset = 0
        for p, v, size in zip(plans, values, ml_sizes):
            if size:
                v[p.multiline.pos] = fused[offset:offset + size]
            offset += size

    return values


# -- documented sweep kernels (docs/PERFORMANCE.md) -------------------------


def contention_curve(cap: CapabilityModel, counts: Sequence[int]) -> np.ndarray:
    """T_C(N) = alpha + beta*N for a whole vector of accessor counts."""
    n = np.asarray(counts, dtype=np.float64)
    if n.size and float(n.min()) < 0:
        raise ModelError(f"count must be non-negative: {n.min()}")
    out = cap.contention.alpha + cap.contention.beta * n
    if n.size:
        out[n == 0] = 0.0  # T_C(0) == 0 by definition
    return out


def multiline_curve(
    cap: CapabilityModel, location: str, sizes_bytes: Sequence[int]
) -> np.ndarray:
    """Transfer cost [ns] for a vector of message sizes from one
    location — the paper's alpha + beta*lines fit, swept as an array."""
    if location not in cap.multiline:
        raise ModelError(
            f"no multiline fit for {location!r}; have {sorted(cap.multiline)}"
        )
    lc = cap.multiline[location]
    lines = np.array(
        [lines_in(int(b)) for b in sizes_bytes], dtype=np.float64
    )
    return lc.alpha + lc.beta * lines


def latency_table(cap: CapabilityModel) -> Dict[str, float]:
    """Every point latency the model can answer, as one flat mapping
    (``location/state-or-kind`` → ns) — the gather table the compiled
    predict path indexes into."""
    out: Dict[str, float] = {"local": cap.RL}
    for st, v in cap.r_tile.items():
        out[f"tile/{st}"] = v
    for st, v in cap.r_remote.items():
        out[f"remote/{st}"] = v
    for kind, v in cap.r_memory.items():
        out[f"memory/{kind}"] = v
    return out
