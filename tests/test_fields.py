"""The typed field schema of every request body (`repro.fields`).

Three parts:

* the validators themselves: strict JSON types, bounds, messages that
  name the field in quotes, and the error classes each caller expects;
* docs/SERVING.md's predict, advise and tune field tables, checked
  against the schema tables as OBS001 checks the metrics glossary;
* hypothesis properties whose strategies come from the field tables:
  a valid predict body compiles to exactly what ``predict_one``
  answers, valid advise and tune bodies answer 200, and a body with
  one field mutated to a wrong type or out of range answers 400 naming
  that field, never 500.
"""

import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ConfigurationError, ModelError
from repro.fields import (
    Choice,
    FieldError,
    Instance,
    Integer,
    ListOf,
    Nullable,
    Number,
    boolean,
    string,
)
from repro.model.advisor import BUFFER_FIELDS
from repro.model.vector import PREDICT_FIELDS, compile_queries, predict_one
from repro.serve.app import (
    ADVISE_FIELDS,
    TUNE_BARRIER_FIELDS,
    TUNE_MEASURED_FIELDS,
    TUNE_TREE_FIELDS,
    ServeApp,
    ServeConfig,
)
from repro.serve.artifacts import Artifact, ArtifactRegistry, MachineRef

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestValidators:
    @pytest.mark.parametrize("value", [2.7, "3", True, None, [1], 0, -4])
    def test_count_is_a_strict_positive_integer(self, value):
        with pytest.raises(
            FieldError, match=r"^'n' must be an integer >= 1, got "
        ):
            Integer(lo=1)("n", value)

    def test_count_beyond_float64_names_its_bits(self):
        with pytest.raises(FieldError) as err:
            Integer(lo=1, float64=True)("bytes", 10 ** 400)
        assert str(err.value) == (
            "'bytes' must fit a float64, got an integer of 1329 bits"
        )

    @pytest.mark.parametrize("value", ["false", 1, 0, None, "true"])
    def test_bool_is_strict(self, value):
        with pytest.raises(FieldError, match="'peak' must be true or false"):
            boolean("peak", value)

    @pytest.mark.parametrize("value", [[1], {}, 5, None])
    def test_string_refuses_unhashable_and_other_types(self, value):
        with pytest.raises(FieldError, match="'kind' must be a string"):
            string("kind", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5, "1", True])
    def test_number_bounds_refuse_nan_and_infinity(self, value):
        with pytest.raises(FieldError, match="'margin' must be a number in"):
            Number(lo=0, hi=10)("margin", value)

    def test_values_pass_through_and_numbers_become_floats(self):
        assert Integer(lo=0, hi=3)("x", 3) == 3
        assert Number(positive=True)("x", 2) == 2.0
        assert isinstance(Number()("x", 2), float)
        assert Choice(1, 2, 4)("x", 4) == 4
        assert Nullable(Integer())("x", None) is None
        assert ListOf(Integer())("x", [1, 2]) == [1, 2]

    def test_choice_refuses_a_bool_among_ints(self):
        with pytest.raises(FieldError):
            Choice(1, 2, 4)("threads_per_core", True)

    def test_field_error_is_both_caller_classes(self):
        """Predict callers catch ModelError; machine callers catch
        ConfigurationError.  One error serves both."""
        err = FieldError("x")
        assert isinstance(err, ModelError)
        assert isinstance(err, ConfigurationError)


# -- docs/SERVING.md's field tables ------------------------------------------


def _doc_rows(heading):
    """``{first cells: default cell}`` of the table under ``heading``."""
    with open(os.path.join(REPO_ROOT, "docs", "SERVING.md")) as fh:
        text = fh.read()
    section = text[text.index(heading):]
    section = section[:section.index("\n### ", 1)]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) >= 3:
            rows[tuple(c.strip("`") for c in cells[:-2])] = cells[-1]
    return rows


def _doc_default(field):
    """How the docs spell a field's default: ``required``, or its JSON."""
    if field.default is None and not isinstance(field.check, Nullable):
        return "required"
    return f"`{json.dumps(field.default)}`"


def _assert_documented(rows, fields):
    assert set(rows) == set(fields), "doc table and schema list other fields"
    for key, field in fields.items():
        assert rows[key].startswith(_doc_default(field)), (key, rows[key])


class TestServingDocs:
    def test_predict_table_matches_the_schema(self):
        _assert_documented(
            _doc_rows("### `/v1/predict`"),
            {(metric, name): field
             for metric, table in PREDICT_FIELDS.items()
             for name, field in table.items()},
        )

    def test_advise_table_matches_the_schema(self):
        fields = {(name,): f for name, f in ADVISE_FIELDS.items()}
        fields.update(
            {(f"buffers[].{name}",): f for name, f in BUFFER_FIELDS.items()}
        )
        _assert_documented(_doc_rows("### `/v1/advise`"), fields)

    def test_tune_table_matches_the_schema(self):
        fields = {}
        for table in (TUNE_TREE_FIELDS, TUNE_BARRIER_FIELDS,
                      TUNE_MEASURED_FIELDS):
            fields.update({(name,): f for name, f in table.items()})
        _assert_documented(_doc_rows("### `/v1/tune`"), fields)


# -- properties, with strategies from the tables ------------------------------

#: Upper bounds that keep generated work small (the tree tuner is O(n²)
#: and a measured barrier runs episodes); the tables give the rest.
SMALL = {"n": 48, "iterations": 2}


def valid(check, name, known):
    """A strategy of values ``check`` accepts for field ``name``;
    ``known`` maps string fields to names the model fitted."""
    if isinstance(check, Nullable):
        return st.none() | valid(check.inner, name, known)
    if isinstance(check, Integer):
        lo = check.lo if math.isfinite(check.lo) else -(2 ** 31)
        hi = min(check.hi, SMALL.get(name, 2 ** 40))
        return st.integers(lo, hi)
    if isinstance(check, Number):
        lo = check.lo if math.isfinite(check.lo) else 0.0
        hi = check.hi if math.isfinite(check.hi) else 1e6
        return st.floats(lo, hi, exclude_min=check.positive)
    if isinstance(check, Choice):
        return st.sampled_from(check.values)
    if check is boolean:
        return st.booleans()
    if check is string:
        return st.sampled_from(known[name])
    if isinstance(check, ListOf):
        return st.lists(valid(check.item, name, known), min_size=1,
                        max_size=3, unique=True)
    raise AssertionError(f"no strategy for {name}")


def invalid(check):
    """A strategy of values ``check`` refuses: a wrong type, or a value
    just out of range."""
    if isinstance(check, Nullable):
        return invalid(check.inner)
    if isinstance(check, Integer):
        bad = [2.5, "3", True, [1], {}]
        bad += [check.lo - 1] if math.isfinite(check.lo) else []
        bad += [check.hi + 1] if math.isfinite(check.hi) else []
        bad += [10 ** 400] if check.float64 else []
        return st.sampled_from(bad)
    if isinstance(check, Number):
        bad = ["0.5", True, None, [0.5], math.nan]
        bad += [check.lo - 1] if math.isfinite(check.lo) else []
        bad += [check.hi + 1] if math.isfinite(check.hi) else []
        return st.sampled_from(bad)
    if isinstance(check, Choice):
        return st.sampled_from(["moon", [1], {}, 3, None])
    if check is boolean:
        return st.sampled_from(["false", "true", 1, 0, None, []])
    if check is string:
        return st.sampled_from([[1], {}, 5, None, True])
    if isinstance(check, ListOf):
        return st.sampled_from(["x", [], {}]) | st.lists(
            invalid(check.item), min_size=1, max_size=2
        )
    if isinstance(check, Instance):
        return st.sampled_from([5, "x", [1], None])
    raise AssertionError(f"no strategy for {check!r}")


@pytest.fixture(scope="session")
def known(capability):
    """Names the fitted model answers for each string field."""
    return {
        "state": sorted(set(capability.r_tile) & set(capability.r_remote)),
        "kind": sorted(capability.r_memory),
        # Ops fitted for both kinds: advise prices each buffer in both.
        "op": sorted(
            op for op in {k.split("/")[0] for k in capability.stream}
            if {f"{op}/{kind}" for kind in capability.r_memory}
            <= set(capability.stream)
        ),
        "location": sorted(capability.multiline),
        "name": ["a", "b", "c"],
    }


@st.composite
def predict_query(draw, known, complete=False):
    """A query of a drawn metric; unless ``complete``, each field may be
    absent (its default applies, or a required field is missing)."""
    metric = draw(st.sampled_from(sorted(PREDICT_FIELDS)))
    query = {"metric": metric}
    for name, field in PREDICT_FIELDS[metric].items():
        if complete or draw(st.booleans()):
            query[name] = draw(valid(field.check, name, known))
    return query


@st.composite
def advise_body(draw, known):
    names = draw(st.lists(st.sampled_from(known["name"]), min_size=1,
                          max_size=3, unique=True))
    buffers = []
    for name in names:
        buffer = {"name": name}
        for field_name, field in BUFFER_FIELDS.items():
            if field_name != "name" and (
                field.default is None or draw(st.booleans())
            ):
                buffer[field_name] = draw(
                    valid(field.check, field_name, known))
        buffers.append(buffer)
    body = {"buffers": buffers}
    if draw(st.booleans()):
        body["mcdram_capacity"] = draw(
            valid(ADVISE_FIELDS["mcdram_capacity"].check, "", known))
    return body


@st.composite
def tune_body(draw, known):
    table = draw(st.sampled_from(
        [TUNE_TREE_FIELDS, TUNE_BARRIER_FIELDS, TUNE_MEASURED_FIELDS]))
    body = {"target": "tree" if table is TUNE_TREE_FIELDS else "barrier",
            "n": draw(st.integers(2, SMALL["n"]))}
    for name, field in table.items():
        if name not in body and draw(st.booleans()):
            body[name] = draw(valid(field.check, name, known))
    if table is TUNE_BARRIER_FIELDS:
        body["measured"] = False
    if table is TUNE_MEASURED_FIELDS:
        body["measured"] = True
        body["n"] = min(body["n"], 8)
        if body.get("arities"):  # the cross-field rule: below n
            body["arities"] = sorted(
                {a % (body["n"] - 1) + 1 for a in body["arities"]})
    return body


def oracle(capability, queries):
    """``predict_one`` per query after the list check, or its error."""
    try:
        compile_queries(queries)
        return [predict_one(capability, q) for q in queries]
    except ModelError as e:
        return str(e)


def compiled(capability, queries):
    try:
        return compile_queries(queries).evaluate(capability)
    except ModelError as e:
        return str(e)


@pytest.fixture(scope="session")
def app_and_artifact(snc4_flat_config, capability):
    ref = MachineRef(snc4_flat_config)
    registry = ArtifactRegistry(persist=False)
    registry.preload(ref, capability)
    artifact = Artifact(key="props", ref=ref, capability=capability,
                        source="preload")
    return ServeApp(ServeConfig(), registry=registry), artifact


def answer(app_and_artifact, route, body):
    app, artifact = app_and_artifact
    return app._evaluate_one(route, body, artifact)


PROPERTY = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestFieldProperties:
    @PROPERTY
    @given(data=st.data())
    def test_compiled_plan_equals_predict_one(self, capability, known, data):
        queries = data.draw(
            st.lists(predict_query(known), min_size=1, max_size=8))
        want = oracle(capability, queries)
        got = compiled(capability, queries)
        assert json.dumps(got) == json.dumps(want)

    @PROPERTY
    @given(data=st.data())
    def test_valid_advise_answers_200(self, app_and_artifact, known, data):
        body = data.draw(advise_body(known))
        outcome = answer(app_and_artifact, "/v1/advise", body)
        assert outcome.status == 200, outcome.payload

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_valid_tune_answers_200(self, app_and_artifact, known, data):
        body = data.draw(tune_body(known))
        outcome = answer(app_and_artifact, "/v1/tune", body)
        assert outcome.status == 200, (body, outcome.payload)

    @PROPERTY
    @given(data=st.data())
    def test_one_bad_predict_field_is_a_model_error_naming_it(
        self, capability, known, data
    ):
        query = data.draw(predict_query(known, complete=True))
        fields = PREDICT_FIELDS[query["metric"]]
        name = data.draw(st.sampled_from(sorted(fields)))
        if query["metric"] == "latency" and name != "location":
            # state is read for tile/remote, kind for memory.
            query["location"] = "tile" if name == "state" else "memory"
        query[name] = data.draw(invalid(fields[name].check))
        with pytest.raises(ModelError) as compiled_err:
            compile_queries([query])
        with pytest.raises(ModelError) as scalar_err:
            predict_one(capability, query)
        assert str(compiled_err.value) == str(scalar_err.value)
        assert f"'{name}'" in str(scalar_err.value)

    @PROPERTY
    @given(data=st.data())
    def test_one_bad_advise_or_tune_field_is_a_400_naming_it(
        self, app_and_artifact, known, data
    ):
        route = data.draw(st.sampled_from(["/v1/advise", "/v1/tune"]))
        if route == "/v1/advise":
            body = data.draw(advise_body(known))
            if data.draw(st.booleans()):
                name = data.draw(st.sampled_from(sorted(BUFFER_FIELDS)))
                target, fields = body["buffers"][0], BUFFER_FIELDS
            else:
                name = data.draw(st.sampled_from(sorted(ADVISE_FIELDS)))
                target, fields = body, ADVISE_FIELDS
        else:
            body = data.draw(tune_body(known))
            fields = (TUNE_TREE_FIELDS if body["target"] == "tree"
                      else TUNE_MEASURED_FIELDS if body.get("measured")
                      else TUNE_BARRIER_FIELDS)
            name = data.draw(st.sampled_from(sorted(fields)))
            target = body
        target[name] = data.draw(invalid(fields[name].check))
        outcome = answer(app_and_artifact, route, body)
        assert outcome.status == 400, (body, outcome.payload)
        assert f"'{name}'" in outcome.payload["error"]["message"]
