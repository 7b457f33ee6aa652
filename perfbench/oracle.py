"""Expected answers, recomputed from the model's reference functions.

The oracle fits its own capability model per machine through the public
API (``characterize`` + ``derive_capability_model``, with the server's
fit iterations and seed), then:

* predict: rebuilds the exact response bytes from the scalar reference
  ``repro.model.vector.predict_one`` (or ``compile_queries`` for the
  list-level checks) — 200 with the results, or the 400 the first
  invalid query must produce;
* advise: compares the key fields with ``recommend_placement``;
* tune: compares the key fields with ``tune_barrier``/``tune_tree``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from workloads import FIT_ITERATIONS, FIT_SEED


class Oracle:
    def __init__(self) -> None:
        self._caps: Dict[Optional[str], Any] = {}
        self._predict: Dict[bytes, Tuple[int, bytes]] = {}

    def capability(self, machine: Optional[str]):
        """The model the server must be serving for ``machine`` (None:
        the default raw config)."""
        cap = self._caps.get(machine)
        if cap is None:
            from repro.bench import characterize
            from repro.model import derive_capability_model

            if machine is None:
                from repro.machine.machine import KNLMachine
                from repro.serve.artifacts import config_from_json

                built = KNLMachine(config_from_json(None), seed=FIT_SEED)
            else:
                from repro.machines import get_machine

                built = get_machine(machine).build(seed=FIT_SEED)
            cap = derive_capability_model(
                characterize(built, iterations=FIT_ITERATIONS, seed=FIT_SEED)
            )
            self._caps[machine] = cap
        return cap

    def predict(self, body: bytes) -> Tuple[int, bytes]:
        """``(status, sha256 of the expected body)`` for a predict body."""
        hit = self._predict.get(body)
        if hit is not None:
            return hit
        from repro.errors import ModelError
        from repro.model.vector import compile_queries, predict_one

        doc = json.loads(body)
        machine = doc.get("machine")
        cap = self.capability(machine)
        queries = doc.get("queries")
        try:
            compile_queries(queries)  # list-level validation
            results = [predict_one(cap, q) for q in queries]
        except ModelError as e:
            payload: Dict[str, Any] = {
                "error": {"status": 400, "message": str(e)}
            }
            status = 400
        else:
            payload = {"config_label": cap.config_label, "results": results}
            if machine is not None:
                payload["machine"] = machine
            status = 200
        raw = json.dumps(payload, sort_keys=True).encode()
        expected = (status, hashlib.sha256(raw).digest())
        self._predict[body] = expected
        return expected

    def check(self, route: str, body: bytes, status: int, digest: bytes,
              response: Optional[bytes]) -> str:
        """Empty string when the answer is right, else what is wrong."""
        if route == "/v1/predict":
            want_status, want_digest = self.predict(body)
            if status != want_status:
                return f"predict: status {status}, expected {want_status}"
            if digest != want_digest:
                return "predict: response bytes differ from the oracle"
            return ""
        if status != 200 or response is None:
            return f"{route}: status {status}, expected 200"
        doc = json.loads(body)
        got = json.loads(response)
        want = self._advise(doc) if route == "/v1/advise" else self._tune(doc)
        wrong = sorted(k for k, v in want.items() if got.get(k) != v)
        return f"{route}: fields {wrong} differ" if wrong else ""

    def _advise(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        from repro.model.advisor import BufferSpec, recommend_placement

        cap = self.capability(doc.get("machine"))
        specs = [
            BufferSpec(
                name=b["name"],
                size_bytes=b["size_bytes"],
                traffic_bytes=b["traffic_bytes"],
                pattern=b.get("pattern", "stream"),
                op=b.get("op", "copy"),
            )
            for b in doc["buffers"]
        ]
        placement = recommend_placement(
            cap, specs, mcdram_capacity=doc["mcdram_capacity"]
        )
        return _json_round_trip({
            "machine": doc.get("machine"),
            "config_label": cap.config_label,
            "assignments": placement.assignments,
            "predicted_ns": placement.predicted_ns,
            "all_ddr_ns": placement.all_ddr_ns,
        })

    def _tune(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        cap = self.capability(doc.get("machine"))
        n = doc["n"]
        if doc["target"] == "barrier":
            from repro.algorithms.barrier import tune_barrier

            tuned = tune_barrier(cap, n)
            want = {"arity": tuned.arity, "rounds": tuned.rounds}
        else:
            from repro.algorithms.tree_opt import tune_tree

            tuned = tune_tree(
                cap, n,
                payload_bytes=doc.get("payload_bytes", 64),
                is_reduce=doc.get("is_reduce", False),
            )
            want = {"root_degree": tuned.tree.root.degree,
                    "depth": tuned.tree.root.depth()}
        want.update(
            machine=doc.get("machine"), n=n, mode="model",
            best_ns=tuned.model.best_ns, worst_ns=tuned.model.worst_ns,
        )
        return _json_round_trip(want)


def _json_round_trip(value: Any) -> Any:
    """What ``value`` reads as after a trip through JSON (tuples become
    lists, numpy floats plain floats)."""
    return json.loads(json.dumps(value, default=lambda o: o.item()))
