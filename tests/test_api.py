"""Tests for the API façade: EngineOptions, requests/results.

The contract under test (repro.api):

* :class:`EngineOptions` is the one validated carrier of the execution knobs,
  threaded through every entry point; the entry points take no per-knob
  keyword arguments, only ``options=`` and a shared ``cache=`` instance;
* typed requests validate on construction and round-trip through
  ``to_dict`` / ``request_from_dict``;
* every result type serves a stable ``to_dict()``.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    AdvisorSession,
    CompareRequest,
    EngineOptions,
    EvaluateSpecRequest,
    FragmentationSpec,
    RecommendRequest,
    SimulateRequest,
    TuneRequest,
    Warlock,
    compare_specs,
)
from repro.api import request_from_dict
from repro.engine import EvaluationCache, EvaluationEngine
from repro.errors import AdvisorError
from repro.tuning import (
    architecture_study,
    bitmap_exclusion_study,
    disk_count_study,
    prefetch_study,
    skew_study,
    workload_weight_study,
)


class TestEngineOptions:
    def test_defaults(self):
        options = EngineOptions()
        assert options.jobs == 1
        assert options.vectorize is True
        assert options.cache is True
        assert options.cache_dir is None
        assert options.persist is True

    def test_is_a_hashable_value_object(self):
        assert EngineOptions(jobs=4) == EngineOptions(jobs=4)
        assert EngineOptions(jobs=4) != EngineOptions(jobs=2)
        assert hash(EngineOptions()) == hash(EngineOptions())

    @pytest.mark.parametrize("bad", [0, -3, 1.5, "fast", True])
    def test_rejects_invalid_jobs(self, bad):
        with pytest.raises(AdvisorError):
            EngineOptions(jobs=bad)

    def test_accepts_auto_and_positive_jobs(self):
        assert EngineOptions(jobs="auto").jobs == "auto"
        assert EngineOptions(jobs=8).jobs == 8

    def test_rejects_cache_dir_without_cache(self):
        with pytest.raises(AdvisorError):
            EngineOptions(cache=False, cache_dir="/tmp/x")

    def test_rejects_non_bool_flags(self):
        for field in ("vectorize", "cache", "persist"):
            with pytest.raises(AdvisorError):
                EngineOptions(**{field: "yes"})

    def test_vectorize_rejects_mode_strings(self):
        assert EngineOptions(vectorize=False).describe() == "jobs=1, scalar"
        assert EngineOptions().describe() == "jobs=1, vectorized"
        for mode in ("candidates", "classes", "none", "rows"):
            with pytest.raises(AdvisorError, match="vectorize must be a bool"):
                EngineOptions(vectorize=mode)
        with pytest.raises(AdvisorError, match="vectorize must be a bool"):
            EngineOptions.from_dict({"vectorize": "classes"})

    def test_rejects_empty_cache_dir(self):
        with pytest.raises(AdvisorError):
            EngineOptions(cache_dir="")

    def test_replace_revalidates(self):
        options = EngineOptions()
        assert options.replace(jobs=4).jobs == 4
        with pytest.raises(AdvisorError):
            options.replace(jobs=0)

    def test_dict_round_trip(self):
        options = EngineOptions(jobs="auto", vectorize=False, cache_dir="/tmp/c")
        clone = EngineOptions.from_dict(options.to_dict())
        assert clone == options
        assert json.dumps(options.to_dict())  # JSON-ready

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(AdvisorError) as excinfo:
            EngineOptions.from_dict({"job": 2})
        assert "job" in str(excinfo.value)

    def test_describe_mentions_the_interesting_knobs(self):
        text = EngineOptions(jobs=4, cache_dir="/tmp/c", persist=False).describe()
        assert "jobs=4" in text and "/tmp/c" in text and "read-only" in text
        assert "uncached" in EngineOptions(cache=False).describe()


def _run_owner(owner, advisor, spec, **kwargs):
    """Call one options-taking entry point on the toy inputs."""
    schema, workload, system = advisor.schema, advisor.workload, advisor.system
    config = advisor.config
    if owner == "Warlock":
        return Warlock(schema, workload, system, config, **kwargs).evaluate_spec(spec)
    if owner == "EvaluationEngine":
        engine = EvaluationEngine(schema, workload, system, config, **kwargs)
        return engine.evaluate_spec(spec)
    if owner == "compare_specs":
        return compare_specs(schema, workload, system, [spec], config=config, **kwargs)
    if owner == "skew_study":
        return skew_study(
            lambda theta: schema, workload, system, spec, thetas=(0.0,),
            config=config, **kwargs,
        )
    study, settings = {
        "disk_count_study": (disk_count_study, {"disk_counts": (8,)}),
        "architecture_study": (architecture_study, {}),
        "prefetch_study": (prefetch_study, {"fact_granules": (4,)}),
        "bitmap_exclusion_study": (bitmap_exclusion_study, {}),
        "workload_weight_study": (workload_weight_study, {"reweightings": {}}),
    }[owner]
    return study(schema, workload, system, spec, config=config, **settings, **kwargs)


OWNERS = (
    "Warlock",
    "EvaluationEngine",
    "compare_specs",
    "disk_count_study",
    "architecture_study",
    "prefetch_study",
    "bitmap_exclusion_study",
    "skew_study",
    "workload_weight_study",
)


class TestEntryPointOptions:
    """Every entry point takes ``options=`` plus a shared ``cache=``, nothing else."""

    @pytest.mark.parametrize("owner", OWNERS)
    def test_per_knob_kwargs_are_rejected_and_a_shared_cache_warm_starts(
        self, owner, toy_advisor, tmp_path
    ):
        spec = FragmentationSpec.of(("time", "month"))
        for kwarg, value in (("jobs", 2), ("vectorize", False), ("cache_dir", str(tmp_path))):
            with pytest.raises(TypeError, match=kwarg):
                _run_owner(owner, toy_advisor, spec, **{kwarg: value})
        with pytest.raises(TypeError):
            _run_owner(owner, toy_advisor, spec, cache=False)

        cache = EvaluationCache()
        cold = _run_owner(owner, toy_advisor, spec, cache=cache, options=EngineOptions())
        misses, hits = cache.stats.misses, cache.stats.hits
        assert misses > 0
        warm = _run_owner(owner, toy_advisor, spec, cache=cache, options=EngineOptions())
        assert cache.stats.misses == misses
        assert cache.stats.hits > hits
        if isinstance(cold, str):
            assert warm == cold
        elif hasattr(cold, "records"):
            assert warm.records == cold.records
        else:
            assert warm is cold


class TestRequests:
    SPEC = FragmentationSpec.of(("time", "month"))

    def test_tune_request_rejects_unknown_study(self):
        with pytest.raises(AdvisorError):
            TuneRequest(study="turbo")

    def test_compare_request_needs_specs(self):
        with pytest.raises(AdvisorError):
            CompareRequest(specs=())

    def test_simulate_request_validates_queries(self):
        with pytest.raises(AdvisorError):
            SimulateRequest(queries_per_class=0)

    def test_requests_round_trip_through_dicts(self):
        requests = [
            RecommendRequest(),
            EvaluateSpecRequest(spec=self.SPEC, bitmap_exclude=(("time", "month"),)),
            CompareRequest(specs=(self.SPEC,)),
            TuneRequest(study="disks", settings=[8, 16]),
            SimulateRequest(fragmentation="none", queries_per_class=3, seed=7),
        ]
        for request in requests:
            payload = json.loads(json.dumps(request.to_dict()))
            clone = request_from_dict(payload)
            assert type(clone) is type(request)
            assert clone.to_dict() == request.to_dict()

    def test_request_from_dict_rejects_unknown_kind(self):
        with pytest.raises(AdvisorError):
            request_from_dict({"kind": "destroy"})


class TestResultToDicts:
    """Every result type serves a stable, JSON-ready to_dict()."""

    @pytest.fixture(scope="class")
    def session(self):
        # Built directly (not from the function-scoped toy fixtures) so one
        # session serves the whole class warm.
        from repro import (
            AdvisorConfig,
            Dimension,
            DimensionRestriction,
            FactTable,
            Level,
            QueryClass,
            QueryMix,
            StarSchema,
            SystemParameters,
        )

        schema = StarSchema(
            name="toy-api",
            dimensions=(
                Dimension(name="time", levels=[Level("year", 2), Level("month", 24)]),
                Dimension(name="product", levels=[Level("group", 10), Level("item", 200)]),
            ),
            fact_tables=(
                FactTable(
                    name="sales",
                    row_count=500_000,
                    row_size_bytes=64,
                    dimension_names=("time", "product"),
                ),
            ),
        )
        workload = QueryMix(
            [
                QueryClass(
                    name="monthly",
                    restrictions=[DimensionRestriction("time", "month")],
                    weight=2,
                ),
                QueryClass(
                    name="by-group",
                    restrictions=[DimensionRestriction("product", "group")],
                    weight=1,
                ),
            ]
        )
        return AdvisorSession(
            schema,
            workload,
            SystemParameters(num_disks=8),
            AdvisorConfig(max_fragments=10_000, top_candidates=3),
        )

    def test_recommend_result(self, session):
        result = session.recommend()
        payload = result.to_dict()
        assert payload["fingerprint"] == result.fingerprint
        assert payload["ranked"]
        json.dumps(payload)

    def test_recommendation_and_candidate_to_dict(self, session):
        recommendation = session.recommend().recommendation
        assert recommendation.to_dict()["ranked"]
        candidate_payload = recommendation.best.to_dict()
        assert candidate_payload["fragmentation"] == recommendation.best.label
        json.dumps(candidate_payload)

    def test_evaluate_compare_tune_simulate_results(self, session):
        specs, _ = session.generate_specs()
        evaluated = session.submit(EvaluateSpecRequest(spec=specs[0]))
        assert evaluated.to_dict()["fragmentation"] == specs[0].label
        compared = session.submit(
            CompareRequest(specs=tuple(specs[:2]), baseline_spec=specs[2])
        )
        payload = compared.to_dict()
        assert len(payload["candidates"]) == 2 and "baseline" in payload
        tuned = session.submit(TuneRequest(study="disks", settings=(8, 16)))
        assert [r["setting"] for r in tuned.to_dict()["records"]] == ["8", "16"]
        simulated = session.submit(SimulateRequest(queries_per_class=2))
        sim_payload = simulated.to_dict()
        assert {"fragmentation", "simulation", "predicted"} <= set(sim_payload)
        json.dumps(sim_payload)

    def test_submit_rejects_unknown_request(self, session):
        with pytest.raises(AdvisorError):
            session.submit(object())

    def test_progress_event_to_dict(self):
        from repro import ProgressEvent

        event = ProgressEvent(
            phase="evaluate",
            completed=3,
            total=10,
            chunk=3,
            num_chunks=10,
            completed_units=12,
            total_units=40,
            label="x",
        )
        payload = event.to_dict()
        assert payload["fraction"] == pytest.approx(0.3)
        assert "3/10" in event.describe()
